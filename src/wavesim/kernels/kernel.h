// Runtime-dispatched evaluation kernels over SoA EvalPlans.
//
// A kernel decodes a contiguous range of packed input words against a
// frozen EvalPlan. Four entry points per kernel:
//
//   * eval_bits — the packed fast path: for each word and detector it
//     accumulates the bit-selected phasor real parts in double and
//     thresholds (the decide_phase decision with reference 0 is exactly
//     Re < 0).
//   * eval_bits_f32 — the same decode over the plan's float arrays, legal
//     only on a plan whose build-time margin analysis accepted every
//     detector (plan.has_f32()); decodes are bit-identical to eval_bits on
//     every such plan by construction of the fallback.
//   * eval_bits_mixed — the block-f32 path: f32 accumulation for the
//     plan's proved detector run [0, plan.num_f32_detectors()), f64 rescue
//     lanes for the rest. Two branch-free sub-passes, no per-detector
//     precision branch; legal whenever plan.num_f32_detectors() > 0.
//   * eval_channels — the full ChannelResult path (evaluate /
//     evaluate_with): accumulates the complex phasor in double and decodes
//     phase/amplitude/margin via decide_phase, writing rows of
//     num_words x plan.num_detectors() ChannelResults. Always double:
//     phase and amplitude are analog readouts, not thresholded bits.
//
// Three implementations exist, a ladder of identical semantics at
// increasing width: a portable scalar reference, an AVX2 kernel (four
// words per 256-bit register in double, eight in f32) and an AVX-512
// kernel (eight words per 512-bit register in double, sixteen in f32).
// Both vector kernels evaluate lane-for-lane in the scalar accumulation
// order, so every entry point decodes bit-for-bit identically to its
// scalar counterpart.
//
// Selection happens once per process on first use: the SW_EVAL_KERNEL
// environment variable overrides (accepted values are exactly the kernel
// names in the dispatch table — currently "scalar", "avx2", "avx512"),
// otherwise the best kernel the build and the CPU support wins
// (CPUID-checked at runtime — an AVX-512-compiled binary still runs, on
// the AVX2 or scalar kernel, on an older host). An unknown or unsupported
// SW_EVAL_KERNEL value fails loudly (the error names the variable and
// regenerates the accepted-values list from the dispatch table) instead of
// silently serving the scalar fallback. Tests and benches bypass the
// cached choice via select_kernel().
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace sw::core {
struct ChannelResult;
}  // namespace sw::core

namespace sw::wavesim {

class EvalPlan;

namespace kernels {

struct Kernel {
  const char* name;
  /// Decode words [begin, end): reads rows [begin, end) of the row-major
  /// num_words x plan.slot_count() packed bit matrix `bits` and writes rows
  /// [begin, end) of the num_words x plan.num_channels() decoded-bit matrix
  /// `out`. Both pointers address the full matrices (row 0), not the range.
  void (*eval_bits)(const EvalPlan& plan, const std::uint8_t* bits,
                    std::size_t begin, std::size_t end, std::uint8_t* out);
  /// Same contract over the plan's f32 arrays. Callers must check
  /// plan.has_f32() first; the kernels assume the arrays exist.
  void (*eval_bits_f32)(const EvalPlan& plan, const std::uint8_t* bits,
                        std::size_t begin, std::size_t end, std::uint8_t* out);
  /// Same contract on a block-f32 plan: detectors [0,
  /// plan.num_f32_detectors()) accumulate in f32 over the plan's float
  /// mirrors, the remaining rescue detectors in f64 over the double
  /// arrays. Callers must check plan.num_f32_detectors() > 0 first (the
  /// float mirrors must exist); on a fully-proved plan this decodes
  /// exactly like eval_bits_f32, on a fully-rejected plan exactly like
  /// eval_bits.
  void (*eval_bits_mixed)(const EvalPlan& plan, const std::uint8_t* bits,
                          std::size_t begin, std::size_t end,
                          std::uint8_t* out);
  /// Full ChannelResult decode of words [begin, end): writes rows
  /// [begin, end) of the row-major num_words x plan.num_detectors() result
  /// matrix `out`, element plan.detector_results()[d] of a row carrying
  /// plan-order detector d's decision (channel field =
  /// plan.detector_channels()[d]) — so rows are always in layout order,
  /// even on a block-f32 plan whose detectors were partitioned at build
  /// time. Accumulation is complex double in plan order and the decision
  /// is core::decide_phase, so results are bit-for-bit the scalar gate
  /// path's.
  void (*eval_channels)(const EvalPlan& plan, const std::uint8_t* bits,
                        std::size_t begin, std::size_t end,
                        sw::core::ChannelResult* out);
};

/// Portable reference kernel; always available.
const Kernel& scalar_kernel();

/// AVX2 kernel, or nullptr when the build lacks AVX2 codegen or the CPU
/// lacks the instructions.
const Kernel* avx2_kernel();

/// AVX-512 kernel, or nullptr when the build lacks AVX-512 codegen or the
/// CPU lacks the instructions (requires AVX512F + AVX512BW).
const Kernel* avx512_kernel();

namespace detail {
/// The AVX2 kernel as compiled (nullptr when the build has no AVX2
/// codegen), with NO runtime CPU check: defined in the -mavx2 TU as a bare
/// constant return so the only AVX2-encoded code in the binary is the
/// kernel body itself. Only avx2_kernel() — which performs the CPUID check
/// from a portable TU first — may call this; dereferencing the result's
/// entry points on a pre-AVX2 host is SIGILL.
const Kernel* avx2_kernel_candidate();

/// The AVX-512 kernel as compiled (nullptr when the build has no AVX-512
/// codegen), same contract as avx2_kernel_candidate(): no CPU check, a
/// bare constant return from the -mavx512f/-mavx512bw TU. Only
/// avx512_kernel() may call this.
const Kernel* avx512_kernel_candidate();

/// Scalar reference loops restricted to the plan-order detector range
/// [d_begin, d_end) — the building blocks of every eval_bits_mixed and of
/// the vector kernels' odd-word tails (which must finish a sub-pass
/// without re-decoding the other run's detectors). Same word-range
/// contract as Kernel::eval_bits; eval_bits_f32_scalar_range reads the
/// plan's float mirrors, so d_end must not exceed
/// plan.num_f32_detectors() unless plan.has_f32().
void eval_bits_scalar_range(const EvalPlan& plan, const std::uint8_t* bits,
                            std::size_t begin, std::size_t end,
                            std::uint8_t* out, std::size_t d_begin,
                            std::size_t d_end);
void eval_bits_f32_scalar_range(const EvalPlan& plan,
                                const std::uint8_t* bits, std::size_t begin,
                                std::size_t end, std::uint8_t* out,
                                std::size_t d_begin, std::size_t d_end);
}  // namespace detail

/// Kernel by name (any dispatch-table entry: "scalar" | "avx2" |
/// "avx512"); throws sw::util::Error on an unknown name or an unavailable
/// kernel. Does not consult or mutate the process's cached active choice.
const Kernel& select_kernel(std::string_view name);

/// Resolves a forced SW_EVAL_KERNEL value, wrapping select_kernel errors
/// with the variable name so a typo'd override fails with an actionable
/// message ("SW_EVAL_KERNEL: unknown evaluation kernel ...") instead of a
/// bare unknown-name error — and never falls back to scalar silently.
const Kernel& kernel_from_env(std::string_view value);

/// The process-wide kernel: SW_EVAL_KERNEL when set (unknown/unavailable
/// values throw on first use), else the best supported kernel — the last
/// available dispatch-table entry, avx512 > avx2 > scalar. Cached after
/// the first successful call.
const Kernel& active_kernel();

/// Decodes words [begin, end) under Kernel::eval_bits' contract through the
/// entry the plan's per-detector margin verdicts select: every detector
/// proved -> eval_bits_f32; a genuine mix -> eval_bits_mixed (f32 run + f64
/// rescue lanes); none proved (or f64 requested) -> eval_bits. All three
/// decode bit-identically by construction. Every packed-bit caller
/// (BatchEvaluator, EvalProgram) dispatches through here.
void eval_plan_bits(const Kernel& kernel, const EvalPlan& plan,
                    const std::uint8_t* bits, std::size_t begin,
                    std::size_t end, std::uint8_t* out);

}  // namespace kernels

/// Name of the kernel evaluate_bits dispatches to ("scalar" | "avx2" |
/// "avx512"); surfaced through sw::serve::ServiceStats and logged by
/// EvaluatorService so operators and benches can tell which path ran.
std::string_view active_kernel_name();

}  // namespace sw::wavesim
