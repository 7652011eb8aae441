#include "native/native_sim.h"

#include <stdexcept>
#include <string>

#include "obs/profiler.h"

namespace udsim {

namespace {

ParallelOptions native_base_options() {
  // The facade's native engine compiles its base program with the paper's
  // best combination (path tracing + trimming), like EngineKind::ParallelCombined.
  ParallelOptions o;
  o.trimming = true;
  o.shift_elim = ShiftElim::PathTracing;
  o.word_bits = 32;
  return o;
}

/// Engine label of the base program in the cache key.
constexpr const char* kBaseLabel = "parallel-combined";

}  // namespace

NativeSimulator::NativeSimulator(const Netlist& nl, const NativeOptions& opts)
    : nl_(nl), opts_(opts), compiled_(compile_parallel(nl, native_base_options())) {
  module_ = std::make_unique<NativeModule>(compiled_.program, kBaseLabel, opts_);
  arena_.resize(compiled_.program.arena_words);
  module_->init(arena_.data());
}

NativeSimulator::NativeSimulator(const Netlist& nl, const NativeOptions& opts,
                                 const CompileGuard& guard)
    : nl_(nl),
      opts_(opts),
      compiled_(compile_parallel(nl, native_base_options(), guard)) {
  module_ = std::make_unique<NativeModule>(compiled_.program, kBaseLabel, opts_,
                                           guard.metrics);
  arena_.resize(compiled_.program.arena_words);
  module_->init(arena_.data());
}

NativeSimulator::~NativeSimulator() = default;

void NativeSimulator::set_metrics(MetricsRegistry* reg) noexcept {
  metrics_ = reg;
  exec_ = ExecCounters::attach(reg, compiled_.program, pass_extras());
}

void NativeSimulator::set_cancel(const CancelToken* token) noexcept {
  poll_ = CancelPoll(token);
}

void NativeSimulator::step(std::span<const Bit> pi_values) {
  const StopReason r = poll_.poll();
  if (r != StopReason::None) throw Cancelled(r, "native.step", passes_ + 1);
  in_.assign(nl_.primary_inputs().size(), 0);
  for (std::size_t i = 0; i < in_.size(); ++i) in_[i] = pi_values[i] & 1;
  module_->step(arena_.data(), in_.data());
  ++passes_;
  exec_.on_passes(1);
}

Bit NativeSimulator::final_value(NetId n) const {
  const auto pr = compiled_.final_probe(n);
  return static_cast<Bit>((arena_.at(pr.word) >> pr.bit) & 1u);
}

std::vector<ArenaProbe> NativeSimulator::output_probes() const {
  std::vector<ArenaProbe> probes;
  probes.reserve(nl_.primary_outputs().size());
  for (NetId po : nl_.primary_outputs()) {
    const auto pr = compiled_.final_probe(po);
    probes.push_back({pr.word, pr.bit});
  }
  return probes;
}

ProgramProfile NativeSimulator::program_profile(std::size_t top_k) const {
  return profile_program(compiled_.program, attribution_for(compiled_, nl_),
                         top_k);
}

BatchResult NativeSimulator::run_batch(std::span<const Bit> vectors,
                                       const BatchRunOptions& opts) const {
  const std::size_t pis = nl_.primary_inputs().size();
  const std::size_t count = batch_vector_count(nl_, vectors);

  BatchResult r;
  r.outputs = nl_.primary_outputs();
  r.vectors = count;
  r.threads = 1;  // the dlopen'd code runs in-process, single-threaded
  r.values.reserve(count * r.outputs.size());

  // Reset-state semantics, like the IR batch layer: fresh arena, this
  // instance's incremental state untouched.
  std::vector<std::uint32_t> arena(compiled_.program.arena_words);
  module_->init(arena.data());
  std::vector<std::uint32_t> in(pis);
  const std::vector<ArenaProbe> probes = output_probes();

  // Per-run overrides (BatchRunOptions): a request-scoped token/registry
  // beats the instance attachments, so a cached const NativeSimulator can
  // serve concurrent service sessions.
  MetricsRegistry* metrics = opts.metrics ? opts.metrics : metrics_;
  const ExecCounters exec =
      opts.metrics && opts.metrics != metrics_
          ? ExecCounters::attach(opts.metrics, compiled_.program,
                                 pass_extras())
          : exec_;

  // Chunked execution: the cancel token is polled at every chunk boundary
  // (resilience contract — a native run stops within `batch_chunk` vectors
  // of a cancel request), and the exact per-pass counters are settled per
  // chunk so a cancelled run reports exactly the passes that completed.
  const std::size_t chunk = opts_.batch_chunk == 0 ? 1024 : opts_.batch_chunk;
  CancelPoll poll(opts.cancel ? opts.cancel : poll_.token());
  std::size_t since_chunk = 0;
  for (std::size_t v = 0; v < count; ++v) {
    if (v % chunk == 0) {
      metric_add(metrics, "native.batch.chunks", 1);
      exec.on_passes(since_chunk);
      since_chunk = 0;
      const StopReason reason = poll.poll();
      if (reason != StopReason::None) throw Cancelled(reason, "native.batch", v);
    }
    for (std::size_t i = 0; i < pis; ++i) in[i] = vectors[v * pis + i] & 1;
    module_->step(arena.data(), in.data());
    ++since_chunk;
    for (const ArenaProbe& pr : probes) {
      r.values.push_back(static_cast<Bit>((arena[pr.word] >> pr.bit) & 1u));
    }
  }
  exec.on_passes(since_chunk);
  return r;
}

void NativeSimulator::run_stream(std::span<const std::uint32_t> in,
                                 std::uint64_t n_vectors) {
  if (in.size() < n_vectors * compiled_.program.input_words) {
    throw std::invalid_argument("run_stream: input span shorter than "
                                "n_vectors × input_words");
  }
  const StopReason r = poll_.poll();
  if (r != StopReason::None) throw Cancelled(r, "native.run", passes_ + 1);
  module_->run(arena_.data(), in.data(), n_vectors);
  passes_ += n_vectors;
  exec_.on_passes(n_vectors);
}

}  // namespace udsim
