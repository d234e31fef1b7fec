#include "core/cascade.h"

#include "util/error.h"

namespace sw::core {

MajorityCascade::MajorityCascade(std::vector<double> frequencies,
                                 const InlineGateDesigner& designer,
                                 const sw::wavesim::WaveEngine& engine)
    : frequencies_(std::move(frequencies)),
      designer_(&designer),
      engine_(&engine) {
  SW_REQUIRE(!frequencies_.empty(), "need at least one channel");
}

SignalRef MajorityCascade::input() {
  SW_REQUIRE(nodes_.empty(), "declare all inputs before adding gates");
  return {num_inputs_++, false};
}

SignalRef MajorityCascade::maj(SignalRef a, SignalRef b, SignalRef c,
                               bool invert_output) {
  const std::size_t next_id = num_inputs_ + nodes_.size();
  for (const auto& ref : {a, b, c}) {
    SW_REQUIRE(ref.id < next_id, "gate references a later signal");
  }
  Node node;
  node.in[0] = a;
  node.in[1] = b;
  node.in[2] = c;
  node.invert = invert_output;

  GateSpec spec;
  spec.num_inputs = 3;
  spec.frequencies = frequencies_;
  if (invert_output) {
    spec.invert_output.assign(frequencies_.size(), 1);
  }
  node.gate =
      std::make_unique<DataParallelGate>(designer_->design(spec), *engine_);
  nodes_.push_back(std::move(node));
  {
    // The compiled program no longer matches the netlist; rebuild lazily.
    std::lock_guard<std::mutex> lock(program_mutex_);
    program_.reset();
  }
  return {next_id, false};
}

sw::wavesim::ProgramSpec MajorityCascade::program_spec() const {
  const std::size_t n = frequencies_.size();
  sw::wavesim::ProgramSpec program;
  program.num_primary_inputs = num_inputs_;
  program.stages.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    sw::wavesim::StageSpec stage;
    stage.gate.num_inputs = 3;
    stage.gate.frequencies = frequencies_;
    if (node.invert) stage.gate.invert_output.assign(n, 1);
    stage.sources.resize(3 * n);
    for (std::size_t ch = 0; ch < n; ++ch) {
      for (int k = 0; k < 3; ++k) {
        const SignalRef& ref = node.in[k];
        sw::wavesim::SlotSource src;
        if (ref.id < num_inputs_) {
          src.kind = sw::wavesim::SlotSource::Kind::kPrimary;
          src.index = static_cast<std::uint32_t>(ch * num_inputs_ + ref.id);
        } else {
          src.kind = sw::wavesim::SlotSource::Kind::kStage;
          src.stage = static_cast<std::uint32_t>(ref.id - num_inputs_);
          src.index = static_cast<std::uint32_t>(ch);
        }
        src.negated = ref.negated;
        stage.sources[ch * 3 + static_cast<std::size_t>(k)] = src;
      }
    }
    program.stages.push_back(std::move(stage));
  }
  program.validate();
  return program;
}

const sw::wavesim::EvalProgram& MajorityCascade::program() const {
  SW_REQUIRE(!nodes_.empty(), "cascade has no gates to compile");
  std::lock_guard<std::mutex> lock(program_mutex_);
  if (!program_) {
    program_ = std::make_unique<sw::wavesim::EvalProgram>(
        program_spec(), *designer_, *engine_);
  }
  return *program_;
}

std::vector<Bits> MajorityCascade::evaluate(
    const std::vector<Bits>& primary) const {
  SW_REQUIRE(primary.size() == num_inputs_, "primary input count mismatch");
  const std::size_t n = frequencies_.size();
  for (const auto& word : primary) {
    SW_REQUIRE(word.size() == n, "each input needs one bit per channel");
  }
  if (nodes_.empty()) return primary;

  // One word through the fused program, all stages kept.
  std::vector<std::uint8_t> packed(num_inputs_ * n);
  for (std::size_t ch = 0; ch < n; ++ch) {
    for (std::size_t i = 0; i < num_inputs_; ++i) {
      packed[ch * num_inputs_ + i] = primary[i][ch];
    }
  }
  const auto stage_bits = program().evaluate_all_bits(1, packed);

  std::vector<Bits> signals = primary;
  signals.reserve(num_inputs_ + nodes_.size());
  for (std::size_t s = 0; s < nodes_.size(); ++s) {
    Bits out(n);
    for (std::size_t ch = 0; ch < n; ++ch) {
      out[ch] = stage_bits[s * n + ch];
    }
    signals.push_back(std::move(out));
  }
  return signals;
}

std::vector<Bits> MajorityCascade::evaluate_physics(
    const std::vector<Bits>& primary) const {
  SW_REQUIRE(primary.size() == num_inputs_, "primary input count mismatch");
  const std::size_t n = frequencies_.size();
  for (const auto& word : primary) {
    SW_REQUIRE(word.size() == n, "each input needs one bit per channel");
  }

  std::vector<Bits> signals = primary;
  signals.reserve(num_inputs_ + nodes_.size());
  for (const auto& node : nodes_) {
    // Regenerating transducers drive the next stage; a negated reference
    // simply flips the drive phase (free complement).
    std::vector<Bits> gate_inputs(n, Bits(3));
    for (std::size_t ch = 0; ch < n; ++ch) {
      for (int k = 0; k < 3; ++k) {
        const SignalRef& ref = node.in[k];
        const bool v = signals[ref.id][ch] != 0;
        gate_inputs[ch][k] = static_cast<std::uint8_t>(v != ref.negated);
      }
    }
    const auto results = node.gate->evaluate(gate_inputs);
    Bits out(n);
    for (const auto& r : results) out[r.channel] = r.logic;
    signals.push_back(std::move(out));
  }
  return signals;
}

std::vector<std::uint8_t> MajorityCascade::reference_eval(
    const std::vector<std::uint8_t>& primary) const {
  SW_REQUIRE(primary.size() == num_inputs_, "primary input count mismatch");
  std::vector<std::uint8_t> signals = primary;
  for (const auto& node : nodes_) {
    int ones = 0;
    for (int k = 0; k < 3; ++k) {
      const SignalRef& ref = node.in[k];
      const bool v = (signals[ref.id] != 0) != ref.negated;
      ones += v ? 1 : 0;
    }
    bool out = ones >= 2;
    if (node.invert) out = !out;
    signals.push_back(static_cast<std::uint8_t>(out));
  }
  return signals;
}

void MajorityCascade::verify() const {
  SW_REQUIRE(num_inputs_ <= 16, "exhaustive verification capped at 16 inputs");
  const std::size_t n = frequencies_.size();
  const std::size_t total = static_cast<std::size_t>(1) << num_inputs_;
  for (std::size_t v = 0; v < total; ++v) {
    std::vector<std::uint8_t> scalar(num_inputs_);
    std::vector<Bits> parallel(num_inputs_);
    for (std::size_t i = 0; i < num_inputs_; ++i) {
      scalar[i] = static_cast<std::uint8_t>((v >> i) & 1);
      parallel[i] = Bits(n, scalar[i]);
    }
    const auto want = reference_eval(scalar);
    const auto fused = evaluate(parallel);
    const auto physics = evaluate_physics(parallel);
    for (std::size_t s = 0; s < want.size(); ++s) {
      for (std::size_t ch = 0; ch < n; ++ch) {
        SW_REQUIRE(physics[s][ch] == want[s],
                   "cascade physical evaluation diverged from reference");
        SW_REQUIRE(fused[s][ch] == physics[s][ch],
                   "compiled program diverged from the per-stage physics");
      }
    }
  }
}

double MajorityCascade::total_area(double guide_width) const {
  SW_REQUIRE(guide_width > 0.0, "guide width must be positive");
  double area = 0.0;
  for (const auto& node : nodes_) {
    area += node.gate->layout().length() * guide_width;
  }
  return area;
}

FullAdderSignals build_full_adder(MajorityCascade& cascade) {
  FullAdderSignals fa;
  fa.a = cascade.input();
  fa.b = cascade.input();
  fa.carry_in = cascade.input();
  // carry = MAJ(a, b, c); sum = MAJ(!carry, MAJ(a, b, !c), c).
  fa.carry_out = cascade.maj(fa.a, fa.b, fa.carry_in);
  const SignalRef t = cascade.maj(fa.a, fa.b, !fa.carry_in);
  fa.sum = cascade.maj(!fa.carry_out, t, fa.carry_in);
  return fa;
}

}  // namespace sw::core
