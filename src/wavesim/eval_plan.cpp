#include "wavesim/eval_plan.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <limits>
#include <utility>

#include "core/encoding.h"
#include "util/error.h"
#include "wavesim/wave_engine.h"

namespace sw::wavesim {

EvalPlan::EvalPlan(const sw::core::DataParallelGate& gate) {
  const auto& layout = gate.layout();
  const auto& engine = gate.engine();
  const auto& freqs = layout.spec.frequencies;
  num_channels_ = freqs.size();
  num_inputs_ = layout.spec.num_inputs;
  SW_REQUIRE(slot_count() <= std::numeric_limits<std::uint32_t>::max(),
             "slot count exceeds the plan's 32-bit slot index range");

  det_offsets_.reserve(layout.detectors.size() + 1);
  det_offsets_.push_back(0);
  det_channels_.reserve(layout.detectors.size());
  for (const auto& det : layout.detectors) {
    const double f = freqs[det.channel];
    // Each contribution is the real part of the engine's own steady phasor
    // of that single source driven at phase 0 / pi, appended in scalar
    // source order, so a kernel summing the detector's range in index order
    // reproduces the real part of the scalar evaluation bitwise (x + 0 == x
    // keeps skipped sources invisible, but the match check below also keeps
    // the plan compact).
    for (const auto& s : layout.sources) {
      const double sf = freqs[s.channel];
      if (std::abs(sf - f) > kDefaultFreqTol * f) continue;
      WaveSource src;
      src.x = s.x;
      src.frequency = sf;
      src.amplitude = s.amplitude;
      src.phase = sw::core::kPhaseZero;
      re0_.push_back(engine.steady_phasor({&src, 1}, det.x, f).real());
      src.phase = sw::core::kPhaseOne;
      re1_.push_back(engine.steady_phasor({&src, 1}, det.x, f).real());
      slots_.push_back(
          static_cast<std::uint32_t>(s.channel * num_inputs_ + s.input));
    }
    det_channels_.push_back(det.channel);
    det_offsets_.push_back(re0_.size());
  }

  build_tables();
}

namespace {

/// Doubles as ordered keys: key order is the order of the reals, -0.0 just
/// below +0.0, and adjacent doubles have adjacent keys. kMinKey is -inf and
/// kMaxKey +inf; NaNs lie outside [kMinKey, kMaxKey].
constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

constexpr std::uint64_t key_of(double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  return (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
}

constexpr double value_of(std::uint64_t key) {
  return std::bit_cast<double>((key & kSignBit) != 0 ? key & ~kSignBit : ~key);
}

constexpr std::uint64_t kMinKey =
    key_of(-std::numeric_limits<double>::infinity());
constexpr std::uint64_t kMaxKey =
    key_of(std::numeric_limits<double>::infinity());
constexpr std::uint64_t kNegZeroKey = key_of(-0.0);

/// The least key in [lo, hi] where `pred` holds, for a pred that fails
/// below some key, holds from it on, and holds at hi. The search gallops out
/// from `guess`, then bisects, so it costs O(log distance) calls from the
/// guess: a preimage bound lies within a few ulps of its real-arithmetic one.
template <typename Pred>
std::uint64_t first_true(std::uint64_t lo, std::uint64_t hi,
                         std::uint64_t guess, const Pred& pred) {
  std::uint64_t yes = std::clamp(guess, lo, hi);
  std::uint64_t no = yes;  // the answer lies in (no, yes] once bracketed
  if (pred(yes)) {
    for (std::uint64_t step = 1;; step *= 2) {
      if (yes - lo <= step) {
        if (yes == lo || pred(lo)) return lo;
        no = lo;
        break;
      }
      if (!pred(yes - step)) {
        no = yes - step;
        break;
      }
      yes -= step;
    }
  } else {
    for (std::uint64_t step = 1;; step *= 2) {
      const std::uint64_t probe = hi - no <= step ? hi : no + step;
      if (pred(probe)) {
        yes = probe;
        break;
      }
      SW_ASSERT(probe != hi, "a preimage search lost its bracket");
      no = probe;
    }
  }
  while (yes - no > 1) {
    const std::uint64_t mid = no + (yes - no) / 2;
    (pred(mid) ? yes : no) = mid;
  }
  return yes;
}

/// One sub-function of a detector's partial sum at a level: the keys of the
/// sums it covers, [first, last], its diagram value, and the index of the
/// level's previously found span (kNoSpan for none).
constexpr std::uint32_t kNoSpan = ~std::uint32_t{0};

struct Span {
  std::uint64_t first = 0;
  std::uint64_t last = 0;
  std::uint16_t value = 0;
  std::uint32_t previous = kNoSpan;
};

/// The keys x with fl(x + c) in `span`, given that `at` is one of them:
/// an interval, because rounding to nearest keeps addition monotone.
std::pair<std::uint64_t, std::uint64_t> preimage(const Span& span, double c,
                                                 std::uint64_t at) {
  const auto reaches = [&](std::uint64_t x) {
    return key_of(value_of(x) + c) >= span.first;
  };
  const auto passes = [&](std::uint64_t x) {
    return key_of(value_of(x) + c) > span.last;
  };
  const std::uint64_t first =
      span.first == kMinKey
          ? kMinKey
          : first_true(kMinKey, at, key_of(value_of(span.first) - c), reaches);
  const std::uint64_t last =
      span.last == kMaxKey
          ? kMaxKey
          : first_true(at + 1, kMaxKey, key_of(value_of(span.last) - c),
                       passes) -
                1;
  return {first, last};
}

}  // namespace

std::optional<TableDiagram> build_diagram(
    std::span<const double> re0, std::span<const double> re1,
    std::span<const std::uint32_t> slots) {
  const std::size_t k = slots.size();
  SW_REQUIRE(re0.size() == k && re1.size() == k,
             "a detector's constants and slots pair up");
  if (k > kMaxTableMuxes) return std::nullopt;
  for (std::size_t c = 0; c < k; ++c) {
    SW_REQUIRE(std::find(slots.begin(), slots.begin() + c, slots[c]) ==
                   slots.begin() + c,
               "a detector's diagram reads each slot once");
    SW_REQUIRE(std::isfinite(re0[c]) && std::isfinite(re1[c]),
               "a detector's constants are finite");
  }
  // The muxes in the order they are made; made[i].slot holds mux i's level
  // until the diagram is laid out below.
  std::vector<TableMux> made;
  made.reserve(std::min((k + 1) * (k + 1) / 4, kMaxTableMuxes));
  // The sub-functions found so far. latest[c] is the last one found of the
  // partial sum before contribution c, and each links to the one found
  // before it at its level; the verdict level k holds sum < 0 and not.
  std::vector<Span> spans{{kMinKey, kNegZeroKey - 1, 1, kNoSpan},
                          {kNegZeroKey, kMaxKey, 0, 0}};
  spans.reserve(4 * (k + 1));
  std::vector<std::uint32_t> latest(k + 1, kNoSpan);
  latest[k] = 1;
  bool over_budget = false;
  // The sub-function at level c of partial sum s: a span found before, or
  // one made from its children, the sums after adding re0[c] and re1[c].
  const auto visit = [&](const auto& self, std::size_t c, double s) -> Span {
    const std::uint64_t at = key_of(s);
    for (std::uint32_t i = latest[c]; i != kNoSpan; i = spans[i].previous) {
      if (spans[i].first <= at && at <= spans[i].last) return spans[i];
    }
    const Span lo = self(self, c + 1, s + re0[c]);
    if (over_budget) return lo;
    const Span hi = self(self, c + 1, s + re1[c]);
    if (over_budget) return hi;
    const auto [lo_first, lo_last] = preimage(lo, re0[c], at);
    const auto [hi_first, hi_last] = preimage(hi, re1[c], at);
    Span span{std::max(lo_first, hi_first), std::min(lo_last, hi_last),
              lo.value, latest[c]};
    if (lo.value != hi.value) {
      if (made.size() == kMaxTableMuxes) {
        over_budget = true;
        return span;
      }
      span.value = static_cast<std::uint16_t>(made.size() + 2);
      made.push_back({static_cast<std::uint32_t>(c), lo.value, hi.value});
    }
    // Exact spans are distinct sub-functions: per level at most one per mux
    // at or below it plus the two constants. Past that, a bound is wrong
    // and the search would go on for every path.
    SW_ASSERT(spans.size() < (k + 1) * (made.size() + 2),
              "a decision diagram's spans are not exact");
    latest[c] = static_cast<std::uint32_t>(spans.size());
    spans.push_back(span);
    return span;
  };
  const std::uint16_t root = visit(visit, 0, 0.0).value;
  if (over_budget) return std::nullopt;
  // Laid out a level at a time, deepest first, each level in the order
  // made: a level's muxes read only deeper ones, so the kernels run them
  // without one waiting on another, and every mux still follows the muxes
  // it reads. place[c] is where level c's next mux goes.
  std::vector<std::size_t> place(k, 0);
  for (const TableMux& m : made) ++place[m.slot];
  for (std::size_t c = k, next = 0; c-- > 0;) {
    next += std::exchange(place[c], next);
  }
  std::vector<std::uint16_t> value(made.size() + 2, 0);
  value[1] = 1;
  for (std::size_t i = 0; i < made.size(); ++i) {
    value[i + 2] = static_cast<std::uint16_t>(2 + place[made[i].slot]++);
  }
  TableDiagram diagram{std::vector<TableMux>(made.size()), value[root]};
  for (std::size_t i = 0; i < made.size(); ++i) {
    const TableMux& m = made[i];
    diagram.muxes[value[i + 2] - 2] = {slots[m.slot], value[m.lo],
                                       value[m.hi]};
  }
  return diagram;
}

void EvalPlan::build_tables() {
  // All or nothing: one detector over budget leaves the plan untabulated.
  // EvalProgram refuses such a plan; BatchEvaluator decodes any plan by
  // phasor sum.
  const std::size_t nd = num_detectors();
  table_offsets_.assign(nd + 1, 0);
  table_roots_.assign(nd, 0);
  std::vector<TableMux> muxes;
  std::vector<std::uint16_t> roots(nd);
  std::vector<std::size_t> offsets{0};
  std::size_t max_muxes = 0;
  for (std::size_t d = 0; d < nd; ++d) {
    const std::size_t begin = det_offsets_[d];
    const std::size_t count = det_offsets_[d + 1] - begin;
    const std::optional<TableDiagram> diagram = build_diagram(
        std::span<const double>(re0_).subspan(begin, count),
        std::span<const double>(re1_).subspan(begin, count),
        std::span<const std::uint32_t>(slots_).subspan(begin, count));
    if (!diagram) return;
    muxes.insert(muxes.end(), diagram->muxes.begin(), diagram->muxes.end());
    roots[d] = diagram->root;
    offsets.push_back(muxes.size());
    max_muxes = std::max(max_muxes, diagram->muxes.size());
  }
  tabulated_ = true;
  table_muxes_ = std::move(muxes);
  table_offsets_ = std::move(offsets);
  table_roots_ = std::move(roots);
  max_table_muxes_ = max_muxes;
}

}  // namespace sw::wavesim
