// EngineKind::Native behind the Simulator facade: the ParallelCombined
// compiler produces the base Program (the paper's best-performing technique),
// the native backend turns it into a dlopen'd shared object, and this class
// runs vectors through the machine code while keeping the facade's exact
// observability contract — the same ExecCounters as the IR path, so
// `exec.ops == compile.ops × passes` holds whichever backend executed the
// pass (tests/fallback_chain_test.cpp pins this).
#pragma once

#include <memory>
#include <vector>

#include "core/simulator.h"
#include "native/native_backend.h"
#include "parsim/parallel_sim.h"

namespace udsim {

/// 32-bit native engine (the facade's word size, matching the IR engines it
/// is differentially tested against). Construction throws NativeError when
/// any pipeline stage fails — make_simulator_with_fallback catches it and
/// drops to the IR chain with a DiagCode::NativeFallback record.
class NativeSimulator final : public Simulator {
 public:
  explicit NativeSimulator(const Netlist& nl, const NativeOptions& opts = {});
  NativeSimulator(const Netlist& nl, const NativeOptions& opts,
                  const CompileGuard& guard);
  ~NativeSimulator() override;

  void step(std::span<const Bit> pi_values) override;
  [[nodiscard]] Bit final_value(NetId n) const override;
  using Simulator::run_batch;
  [[nodiscard]] BatchResult run_batch(std::span<const Bit> vectors,
                                      const BatchRunOptions& opts) const override;
  [[nodiscard]] const Netlist& netlist() const noexcept override { return nl_; }
  [[nodiscard]] EngineKind kind() const noexcept override {
    return EngineKind::Native;
  }
  void set_metrics(MetricsRegistry* reg) noexcept override;
  [[nodiscard]] MetricsRegistry* metrics() const noexcept override {
    return metrics_;
  }
  [[nodiscard]] const Program* compiled_program() const noexcept override {
    return &compiled_.program;
  }
  [[nodiscard]] std::vector<ArenaProbe> output_probes() const override;
  [[nodiscard]] PassExtras pass_extras() const override {
    return trim_pass_extras(compiled_);
  }
  [[nodiscard]] ProgramProfile program_profile(std::size_t top_k) const override;
  void set_cancel(const CancelToken* token) noexcept override;

  /// Whole-stream entry: `n_vectors` passes through the dlopen'd
  /// `udsim_kernel_run` symbol against this instance's arena — final state
  /// only, no per-vector sampling; the raw ir-vs-native throughput path
  /// (examples/native_sim.cpp). `in` is row-major, one word per PI per
  /// vector. Counters are bumped for all passes at once.
  void run_stream(std::span<const std::uint32_t> in, std::uint64_t n_vectors);

  [[nodiscard]] const NativeModule& module() const noexcept { return *module_; }
  [[nodiscard]] const ParallelCompiled& compiled() const noexcept {
    return compiled_;
  }

 private:
  const Netlist& nl_;
  NativeOptions opts_;
  ParallelCompiled compiled_;
  std::unique_ptr<NativeModule> module_;
  std::vector<std::uint32_t> arena_;
  std::vector<std::uint32_t> in_;
  ExecCounters exec_;
  MetricsRegistry* metrics_ = nullptr;
  CancelPoll poll_{nullptr};
  std::uint64_t passes_ = 0;
};

}  // namespace udsim
