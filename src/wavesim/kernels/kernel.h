// Runtime-dispatched evaluation kernels over SoA EvalPlans.
//
// The packed-bit path works on bit-sliced columns. Word w's bit for slot s
// is bit w % 64 of u64 w / 64 of slot s's column (bit w % 8 of byte w / 8
// on a little-endian host), and a column is zero-padded to whole u64s. A
// stage reads one column per input slot and writes one column per output
// channel, so the next stage of a cascade reads those columns as they are.
// Three entry points per kernel:
//
//   * eval_tables — the decode of a tabulated plan (see EvalPlan): each
//     detector's decision diagram runs as a straight-line list of muxes,
//     one bitwise select per 64 words (per 512 on AVX-512, one vpternlogq),
//     over its slot columns. Every rung instantiates the one template in
//     kernels/table_step.h. EvalProgram, so every served request, runs it
//     on every stage.
//   * to_columns / to_rows — the edge converter between the row-major byte
//     matrices of the public APIs (one byte per bit, nonzero = 1) and
//     columns, in both directions. BatchEvaluator and EvalProgram convert
//     per block through the same two entries.
//
// Beside the rungs, eval_bits is the one phasor decode: portable code that
// sums each detector's constants word by word, on any plan. It is the
// reference every table decode equals, and BatchEvaluator runs it.
//
// The kernels decode logic bits only. A word's analog readout (phase,
// amplitude, margin) comes from the physics path, DataParallelGate::evaluate.
//
// Three implementations exist, a ladder of identical semantics at
// increasing width: a portable scalar reference, an AVX2 kernel (four
// column u64s per 256-bit register) and an AVX-512 kernel (eight per
// 512-bit register). Every rung runs the same muxes on the same columns,
// so every entry point decodes bit-for-bit identically to its scalar
// counterpart.
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

namespace sw::wavesim {

class EvalPlan;

namespace kernels {

/// u64s per column that hold `num_words` words (whole u64s, zero-padded).
constexpr std::size_t column_words(std::size_t num_words) {
  return (num_words + 63) / 64;
}

/// Column u64s per block (1024 words) that BatchEvaluator and EvalProgram
/// convert and evaluate at a time: a block's columns stay in L1/L2 while a
/// kernel call still covers enough words for the SIMD lanes to matter.
constexpr std::size_t kBlockColumnWords = 16;

struct Kernel {
  const char* name;
  /// Decodes words [0, num_words) of a tabulated plan (plan.tabulated()
  /// must hold) from its diagrams: slot j of the plan reads the column
  /// `slots[j]`, and detector d writes its verdicts to the column at
  /// `out + plan.detector_channels()[d] * out_stride`. Writes
  /// column_words(num_words) u64s of each detector's column and reads no
  /// u64 past that many of a slot's; verdict bits past num_words are
  /// unspecified.
  void (*eval_tables)(const EvalPlan& plan, const std::uint64_t* const* slots,
                      std::size_t num_words, std::uint64_t* out,
                      std::size_t out_stride);
  /// Rows to columns: reads bytes [0, width) of rows [0, num_words) of
  /// `rows` (row w at rows + w * row_stride, nonzero = 1) and writes
  /// column_words(num_words) u64s of column c at cols + c * col_stride,
  /// with every bit past num_words zero.
  void (*to_columns)(const std::uint8_t* rows, std::size_t row_stride,
                     std::size_t num_words, std::size_t width,
                     std::uint64_t* cols, std::size_t col_stride);
  /// Columns to rows, the inverse: writes bytes [0, width) of rows [0,
  /// num_words) as 0/1 from columns [0, width). Nothing else is written.
  void (*to_rows)(const std::uint64_t* cols, std::size_t col_stride,
                  std::size_t num_words, std::size_t width,
                  std::uint8_t* rows, std::size_t row_stride);
};

/// Portable reference kernel; always available.
const Kernel& scalar_kernel();

/// The phasor decode, on any plan (tabulated or not), with eval_tables'
/// column contract: each detector accumulates its bit-selected constants
/// (re0/re1) in f64, in plan order from 0.0, and decodes Re < 0 (the
/// decide_phase decision with reference 0), one word at a time. Verdict
/// bits past num_words are zero. Every eval_tables equals it bit for bit.
void eval_bits(const EvalPlan& plan, const std::uint64_t* const* slots,
               std::size_t num_words, std::uint64_t* out,
               std::size_t out_stride);

/// AVX2 kernel, or nullptr when the build lacks AVX2 codegen or the CPU
/// lacks the instructions.
const Kernel* avx2_kernel();

/// AVX-512 kernel, or nullptr when the build lacks AVX-512 codegen or the
/// CPU lacks the instructions (requires AVX512F + AVX512BW + AVX512VL). Its
/// edge converter needs VBMI and GFNI as well; without them it is the AVX2
/// one.
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
/// bare constant return from the -mavx512f/-mavx512bw TU. `vbmi_gfni`
/// picks the table whose converters use VBMI and GFNI; false gives the
/// AVX2 converters. Only avx512_kernel() may call this (and tests, with
/// false, once avx512_kernel() is non-null).
const Kernel* avx512_kernel_candidate(bool vbmi_gfni);

/// Transposes the 8x8 byte matrix in x: afterwards byte k of x[i] is the
/// old byte i of x[k]. The portable converter's core, which the vector
/// converters share.
void transpose_8x8_bytes(std::uint64_t x[8]);
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

}  // namespace kernels

/// Name of the active kernel ("scalar" | "avx2" | "avx512"); surfaced
/// through sw::serve::ServiceStats and logged by EvaluatorService so
/// operators and benches can tell which path ran.
std::string_view active_kernel_name();

}  // namespace sw::wavesim
