// Kernel selection: explicit by name, or once per process via
// SW_EVAL_KERNEL / CPUID.
#include <cstdlib>
#include <iterator>
#include <string>

#include "util/error.h"
#include "wavesim/eval_plan.h"
#include "wavesim/kernels/kernel.h"

namespace sw::wavesim {

namespace kernels {

const Kernel* avx2_kernel() {
  // The CPUID check runs here, in a portable TU: the -mavx2 TU is entered
  // only once the host is known to execute AVX2 (see
  // detail::avx2_kernel_candidate), so a pre-AVX2 x86 host can never fault
  // inside the dispatch path itself.
#if defined(__x86_64__) || defined(__i386__)
  static const Kernel* kernel =
      __builtin_cpu_supports("avx2") ? detail::avx2_kernel_candidate()
                                     : nullptr;
  return kernel;
#else
  return nullptr;
#endif
}

const Kernel* avx512_kernel() {
  // AVX512F covers the compute (masked blends, wide adds, mask compares);
  // BW is checked for the byte-granularity mask transposes (shared contract
  // with the AVX-512 wire codec), VL for the xmm-width masked ops in the
  // mixed kernel's decode transpose. Every BW part ships VL (the one VL-less
  // AVX-512 line, Knights Landing, lacked BW too), so the triple gate does
  // not narrow real hardware coverage.
#if defined(__x86_64__) || defined(__i386__)
  static const Kernel* kernel = (__builtin_cpu_supports("avx512f") &&
                                 __builtin_cpu_supports("avx512bw") &&
                                 __builtin_cpu_supports("avx512vl"))
                                    ? detail::avx512_kernel_candidate()
                                    : nullptr;
  return kernel;
#else
  return nullptr;
#endif
}

namespace {

/// The one dispatch table: every named kernel, slowest first. select_kernel
/// resolves names against it, active_kernel's auto choice takes the *last*
/// available entry, and error messages regenerate their accepted-values
/// list from it — adding a kernel here is the whole registration.
struct KernelEntry {
  const char* name;
  const Kernel* (*get)();
};

const Kernel* scalar_kernel_ptr() { return &scalar_kernel(); }

constexpr KernelEntry kKernelTable[] = {
    {"scalar", &scalar_kernel_ptr},
    {"avx2", &avx2_kernel},
    {"avx512", &avx512_kernel},
};

std::string accepted_kernel_names() {
  std::string names;
  constexpr std::size_t n = std::size(kKernelTable);
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) names += (i + 1 == n) ? " or " : ", ";
    names += '\'';
    names += kKernelTable[i].name;
    names += '\'';
  }
  return names;
}

}  // namespace

const Kernel& select_kernel(std::string_view name) {
  for (const KernelEntry& entry : kKernelTable) {
    if (name != entry.name) continue;
    const Kernel* kernel = entry.get();
    if (kernel == nullptr) {
      throw sw::util::Error("evaluation kernel '" + std::string(name) +
                            "' is unavailable: the build lacks the codegen "
                            "or this CPU lacks the instructions");
    }
    return *kernel;
  }
  throw sw::util::Error("unknown evaluation kernel '" + std::string(name) +
                        "' (expected " + accepted_kernel_names() + ")");
}

const Kernel& kernel_from_env(std::string_view value) {
  // Wrap, don't fall back: an operator who typo'd SW_EVAL_KERNEL=sclar
  // must get a hard error naming the variable, never a silent scalar run
  // that reads as a perf regression three dashboards later.
  try {
    return select_kernel(value);
  } catch (const sw::util::Error& e) {
    throw sw::util::Error(std::string("SW_EVAL_KERNEL: ") + e.what());
  }
}

const Kernel& active_kernel() {
  // Magic-static initialisation: the lambda runs once; if the override
  // names an unknown/unavailable kernel the exception propagates to the
  // caller and initialisation retries on the next call.
  static const Kernel& chosen = []() -> const Kernel& {
    const char* env = std::getenv("SW_EVAL_KERNEL");
    if (env != nullptr && *env != '\0') return kernel_from_env(env);
    // Auto: the fastest available entry (the table is ordered slowest
    // first and 'scalar' is always available).
    const Kernel* best = &scalar_kernel();
    for (const KernelEntry& entry : kKernelTable) {
      if (const Kernel* kernel = entry.get()) best = kernel;
    }
    return *best;
  }();
  return chosen;
}

void eval_plan_bits(const Kernel& kernel, const EvalPlan& plan,
                    const std::uint8_t* bits, std::size_t begin,
                    std::size_t end, std::uint8_t* out) {
  if (plan.has_f32()) {
    kernel.eval_bits_f32(plan, bits, begin, end, out);
  } else if (plan.is_block()) {
    kernel.eval_bits_mixed(plan, bits, begin, end, out);
  } else {
    kernel.eval_bits(plan, bits, begin, end, out);
  }
}

}  // namespace kernels

std::string_view active_kernel_name() { return kernels::active_kernel().name; }

}  // namespace sw::wavesim
