// Multi-threaded batch execution of compiled simulation programs.
//
// A compiled unit-delay simulation has exactly one piece of cross-vector
// state: the settled (final) value of every net, retained in the word arena
// from one executor pass to the next. Those settled values are a pure
// function of the *current* input vector (the circuits are acyclic), so a
// vector stream can be sharded: a worker that first replays the vector
// immediately preceding its shard — discarding the outputs — reconstructs
// the exact retained state the sequential run would have carried into the
// shard, and every subsequent pass is bit-identical to sequential replay.
// That one discarded pass is the entire synchronization cost; shards never
// communicate while running.
//
// Lane packing: when lane_parallel(program, probes) holds (ir/program.h —
// the LCC and PC-set programs), no probe reads retained state and every op
// is lane-wise, so one pass settles word_bits independent vectors, one per
// bit lane. The runner then transposes each lane group of input rows into
// one word per input, and shards are runs of whole lane groups that need no
// seam replay: ceil(vectors / word_bits) passes for every thread count.
// Both transposes move 8 inputs (or probes) × 8 lanes per block: a stream
// byte's bit 0 is the input (the rest is masked off, as on the scalar
// path), each probe word is read once per pass, and word bytes are indexed
// as lane bytes, which needs a little-endian host (asserted at compile
// time in batch_runner.cpp).
//
// Word lanes: a program that settles one vector per pass (every parallel-
// technique program; its bits stand for time, not vectors) applies the
// seam rule inside one register instead. Each shard is split into 8
// contiguous slices run in lockstep, slice k in lane k of a u32x8 arena
// (ir/wide_word.h), each lane an independent 32-bit arena: one seam pass
// replays every later slice's predecessor vector at once, then every pass
// runs the unmodified program once over all 8 lanes. They engage, with no
// option, when the program is 32-bit and not lane_parallel, no native
// kernel is attached, width_available(256) holds, and the 8-lane arena
// fits a per-thread byte cap (batch_runner.cpp). Stops and checkpoints act
// per slice; payload counters count lane-vectors, as a scalar run would.
//
// Determinism guarantee: run() returns the same bits for every thread
// count, equal to a sequential KernelRunner replay from the reset arena
// (enforced by tests/batch_runner_test.cpp).
//
// Resilience (DESIGN.md §5f): the same one-piece-of-state property makes
// shards independently retryable and the run checkpointable. run_resilient()
// polls a CancelToken once per vector pass and, instead of tearing the run
// down, returns a structured ResilientBatch whose BatchCheckpoint resumes
// bit-identically; a shard whose body throws is retried from its seam up to
// `retry_limit` times and then quarantined — replayed sequentially on the
// calling thread after the pool drains. Every retry/quarantine/cancel event
// is counted under resil.* and reported through Diagnostics.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include <string>
#include <utility>

#include "core/kernel_runner.h"
#include "core/thread_pool.h"
#include "ir/program.h"
#include "netlist/logic.h"
#include "obs/pass_cost.h"
#include "resilience/cancel.h"
#include "resilience/checkpoint.h"
#include "resilience/fault_injection.h"

namespace udsim {

class Diagnostics;
class NativeModule;

struct BatchOptions {
  unsigned num_threads = 0;    ///< threads incl. the caller; 0 = all hardware threads
  std::size_t min_chunk = 16;  ///< smallest shard worth a pool dispatch
  /// Optional observability sink (DESIGN.md §5e). Payload passes bump the
  /// exact execution counters (sim.vectors, exec.*) — identical for every
  /// thread count; the sharding cost itself is recorded separately
  /// (batch.seam_vectors / batch.seam_ops, per-shard batch.shard.* timings)
  /// so the payload counters stay a cross-thread-count invariant.
  MetricsRegistry* metrics = nullptr;
  /// Engine-specific per-pass constants added per payload pass (see
  /// ExecCounters::attach extras).
  PassExtras extra_pass_cost;
  /// Cooperative stop: polled once per vector pass (one relaxed load + one
  /// branch; one dead branch when null). run() raises Cancelled; the
  /// resilient entry point returns a checkpoint instead.
  const CancelToken* cancel = nullptr;
  /// Deterministic fault-injection harness (tests/bench only).
  FaultInjector* inject = nullptr;
  /// Shard attempts after the first before the shard is quarantined.
  unsigned retry_limit = 2;
  /// Retry / quarantine / cancel events as structured records.
  Diagnostics* diag = nullptr;
  /// Machine code compiled from the program (EngineKind::Native): every
  /// shard's KernelRunner runs its passes through the module's kernel
  /// instead of execute<Word>. Must be built from `program`.
  const NativeModule* native = nullptr;
};

/// How a resilient run ended.
enum class RunStatus : std::uint8_t {
  Complete,        ///< every vector executed
  Cancelled,       ///< stopped by CancelToken::request_cancel
  DeadlineExpired, ///< stopped by the token's deadline (or injected overrun)
};

[[nodiscard]] std::string_view run_status_name(RunStatus s) noexcept;

/// Structured result of BatchRunner::run_resilient. When status is not
/// Complete, `values` holds valid rows exactly for the vectors recorded in
/// `checkpoint` (other rows are zero) and `checkpoint` resumes the run
/// bit-identically under the same geometry (program, vector count, thread
/// count, min_chunk, word lanes).
struct ResilientBatch {
  RunStatus status = RunStatus::Complete;
  std::vector<Bit> values;
  BatchCheckpoint checkpoint;      ///< populated when status != Complete
  std::uint64_t vectors_done = 0;  ///< rows of `values` that are final
  std::uint64_t retries = 0;       ///< shard attempts beyond the first
  std::uint64_t quarantined = 0;   ///< shards degraded to sequential replay
};

/// Runs a vector stream through one compiled `Program` on a worker pool:
/// one private KernelRunner arena per shard, seam replay at shard and slice
/// boundaries (or lane packing, see above), outputs merged in submission
/// order. Works over any program the compiled engines produce (LCC, PC-set,
/// parallel and its optimized variants) at any dispatched word size
/// (32/64/128/256 bits; wide arenas checkpoint as word_bits/64 uint64
/// carrier lanes per word), executed by execute<Word> or by the native
/// pass kernel in BatchOptions::native.
class BatchRunner {
 public:
  /// `probes` are the arena bits to sample after every vector (one output
  /// column per probe); `program` must outlive the runner.
  BatchRunner(const Program& program, std::vector<ArenaProbe> probes,
              BatchOptions options = {});

  /// Run `num_vectors` vectors. `inputs` is row-major with
  /// `program.input_words` Bits per vector — one per input word, of which
  /// bit 0 is loaded (every compiled engine reads only bit 0 of an input
  /// word; lane packing puts vector v + l's bit in lane l). Returns a
  /// row-major Bit matrix of
  /// `num_vectors` rows × `probes().size()` columns, in submission order.
  /// With a cancel token attached, an early stop raises Cancelled (the
  /// partial work is discarded; state is never torn). `num_vectors == 0`
  /// short-circuits to an empty result: no seam replay, no pool dispatch,
  /// no metrics traffic.
  [[nodiscard]] std::vector<Bit> run(std::span<const Bit> inputs,
                                     std::size_t num_vectors);

  /// run() with structured stop handling: cancellation/deadline returns a
  /// RunStatus plus a resumable checkpoint instead of throwing, failed
  /// shards are retried and quarantined per BatchOptions, and `resume`
  /// (optional) continues a previous snapshot — the combined run is
  /// bit-identical to an uninterrupted one. Throws CheckpointError
  /// (Kind::Geometry) when `resume` does not match this runner's geometry,
  /// and rethrows a shard's error only after its sequential quarantine
  /// replay also failed. Shards run inside the calling thread's
  /// RequestTraceScope (obs/request_trace.h), so their spans carry the
  /// caller's request id.
  [[nodiscard]] ResilientBatch run_resilient(
      std::span<const Bit> inputs, std::size_t num_vectors,
      const BatchCheckpoint* resume = nullptr);

  [[nodiscard]] unsigned num_threads() const noexcept { return threads_; }
  [[nodiscard]] const std::vector<ArenaProbe>& probes() const noexcept {
    return probes_;
  }

  /// Shards a run of `num_vectors` would be split into: one per thread,
  /// but never below `min_chunk` vectors each (the dispatch and any seam
  /// replay must stay amortized) and never more than the run's lane groups. Shard s
  /// covers lane groups [s*q + min(s, r), ...) for q, r = groups ÷ shards.
  [[nodiscard]] std::size_t shard_count(std::size_t num_vectors) const noexcept;

  /// Vectors one executor pass settles per bit lane group: the program's
  /// word_bits when it is lane_parallel (the lane-group size), else 1.
  [[nodiscard]] unsigned lanes_per_pass() const noexcept { return lanes_; }

  /// Lane slices each shard runs in lockstep: kWordLanes<u32x8> (8) when
  /// word lanes engage (see the header comment), else 1. A checkpoint
  /// lists word_lanes() slices per shard.
  [[nodiscard]] unsigned word_lanes() const noexcept { return word_lanes_; }

 private:
  /// Mutable per-shard execution state. Each of the shard's word_lanes()
  /// slices is a contiguous run of vectors with its own resume point and
  /// mid-stream arena, recorded as-is in a stopped run's checkpoint (its
  /// `rows` stay empty until then).
  struct ShardSlot {
    std::vector<ShardCheckpoint> slices;
    StopReason stop = StopReason::None;
    std::uint64_t retries = 0;
    bool quarantined = false;
  };

  template <class Word>
  void run_shard(std::span<const Bit> inputs, std::size_t shard_index,
                 ShardSlot& slot, std::span<Bit> out, unsigned attempt);
  void run_shard_any(std::span<const Bit> inputs, std::size_t shard_index,
                     ShardSlot& slot, std::span<Bit> out, unsigned attempt);
  /// Retry loop around run_shard; sets slot.quarantined instead of throwing.
  void run_shard_guarded(std::span<const Bit> inputs,
                         std::size_t shard_index, ShardSlot& slot,
                         std::span<Bit> out);

  const Program& program_;
  std::vector<ArenaProbe> probes_;
  BatchOptions options_;
  unsigned threads_;  ///< resolved thread count (BatchOptions::num_threads)
  /// threads_ - 1 workers for multi-shard runs: parallel_for runs shard 0
  /// on the calling thread. Absent at one thread, where the single shard
  /// runs on the calling thread and no idle worker is spawned.
  std::optional<ThreadPool> pool_;
  ExecCounters exec_;  ///< payload-pass counters (disengaged without metrics)
  unsigned lanes_ = 1;  ///< vectors per pass (see lanes_per_pass)
  unsigned word_lanes_ = 1;  ///< lockstep slices per shard (see word_lanes)
  /// The reset 32-bit arena as a checkpoint carrier: a word-lane slice that
  /// starts at vector 0 takes it back after its shard's seam pass.
  std::vector<std::uint64_t> reset_arena_;
};

}  // namespace udsim
