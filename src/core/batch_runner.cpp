#include "core/batch_runner.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <new>
#include <stdexcept>
#include <utility>

#include "core/width_dispatch.h"
#include "ir/wide_word.h"
#include "native/native_backend.h"
#include "netlist/diagnostics.h"
#include "obs/request_trace.h"

namespace udsim {

namespace {

/// uint64 carrier entries one checkpointed arena occupies (wide words carry
/// word_bits/64 lanes each; see KernelRunner::save_arena).
[[nodiscard]] std::size_t carrier_words(const Program& p) noexcept {
  const std::size_t lanes =
      p.word_bits > 64 ? static_cast<std::size_t>(p.word_bits) / 64 : 1;
  return p.arena_words * lanes;
}

[[nodiscard]] std::uint64_t shard_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Lane-packed I/O (DESIGN.md §5c) moves bits in 8 × 8 blocks. Eight stream
// Bits of one vector row are one 8-byte load; masking it with kBit0s keeps
// each Bit's bit 0 — the input, exactly as the scalar path's `src[i] & 1u`
// — and shifting it by the row's lane within the block ORs 8 rows into one
// accumulator whose byte j is input j's lane byte. Stores run the same
// block in reverse. Words are addressed as bytes, lane l in bit l % 8 of
// byte l / 8: true of uint32/uint64, __int128 and u256's little-endian
// uint64 lanes on a little-endian host only.
static_assert(std::endian::native == std::endian::little,
              "lane-packed I/O indexes word bytes as lane bytes");

constexpr std::uint64_t kBit0s = 0x0101010101010101ull;

/// Transposes rows [0, n) of a row-major Bit matrix (`iw` Bits per row) into
/// `iw` words of `wbytes` bytes at `dst`: lane l of word i is bit 0 of row
/// l's Bit i. Writes lane bytes [0, ceil(n / 8)) of every word, reads no Bit
/// outside the n rows.
void pack_lanes(const Bit* src, std::size_t iw, std::size_t n,
                unsigned char* dst, std::size_t wbytes) noexcept {
  for (std::size_t l0 = 0; l0 < n; l0 += 8) {
    const std::size_t rows = std::min<std::size_t>(8, n - l0);
    const Bit* block = src + l0 * iw;
    unsigned char* lane_byte = dst + l0 / 8;
    std::size_t i = 0;
    for (; i + 8 <= iw; i += 8) {
      std::uint64_t acc = 0;
      for (std::size_t r = 0; r < rows; ++r) {
        std::uint64_t x;
        std::memcpy(&x, block + r * iw + i, 8);
        acc |= (x & kBit0s) << r;
      }
      for (std::size_t j = 0; j < 8; ++j) {
        lane_byte[(i + j) * wbytes] = static_cast<unsigned char>(acc >> (8 * j));
      }
    }
    for (; i < iw; ++i) {  // input tail: the last iw % 8 Bits of each row
      unsigned byte = 0;
      for (std::size_t r = 0; r < rows; ++r) byte |= (block[r * iw + i] & 1u) << r;
      lane_byte[i * wbytes] = static_cast<unsigned char>(byte);
    }
  }
}

/// The reverse of pack_lanes for probes: row l of `out` (`probes.size()`
/// Bits per row, rows [0, n)) gets lane l of every probe's arena word as a
/// 0/1 Bit. `gathered` holds one lane byte of every probe; each probe word
/// is read once.
void unpack_lanes(const unsigned char* arena, std::size_t wbytes,
                  std::span<const ArenaProbe> probes, std::size_t n,
                  unsigned char* gathered, Bit* out) noexcept {
  const std::size_t cols = probes.size();
  for (std::size_t l0 = 0; l0 < n; l0 += 8) {
    for (std::size_t j = 0; j < cols; ++j) {
      gathered[j] = arena[probes[j].word * wbytes + l0 / 8];
    }
    const std::size_t rows = std::min<std::size_t>(8, n - l0);
    for (std::size_t r = 0; r < rows; ++r) {
      Bit* dst = out + (l0 + r) * cols;
      std::size_t j = 0;
      for (; j + 8 <= cols; j += 8) {
        std::uint64_t x;
        std::memcpy(&x, gathered + j, 8);
        x = (x >> r) & kBit0s;
        std::memcpy(dst + j, &x, 8);
      }
      for (; j < cols; ++j) {  // probe tail: the last cols % 8 Bits
        dst[j] = static_cast<Bit>((gathered[j] >> r) & 1u);
      }
    }
  }
}

}  // namespace

std::string_view run_status_name(RunStatus s) noexcept {
  switch (s) {
    case RunStatus::Complete:
      return "complete";
    case RunStatus::Cancelled:
      return "cancelled";
    case RunStatus::DeadlineExpired:
      return "deadline-expired";
  }
  return "?";
}

BatchRunner::BatchRunner(const Program& program, std::vector<ArenaProbe> probes,
                         BatchOptions options)
    : program_(program),
      probes_(std::move(probes)),
      options_(std::move(options)),
      threads_(options_.num_threads != 0 ? options_.num_threads
                                         : ThreadPool::hardware_threads()) {
  if (!width_available(program_.word_bits)) {
    const std::string msg = "BatchRunner: program word size " +
                            std::to_string(program_.word_bits) +
                            " is not executable on this build/CPU";
    if (options_.diag) {
      options_.diag->report(DiagCode::ProgramWordSize, DiagSeverity::Error,
                            "BatchRunner", msg);
    }
    throw std::invalid_argument(msg);
  }
  if (options_.native != nullptr &&
      options_.native->word_bits() != program_.word_bits) {
    throw std::invalid_argument("BatchRunner: kernel word size differs from "
                                "the program's");
  }
  for (const ArenaProbe& p : probes_) {
    if (p.word >= program_.arena_words ||
        static_cast<int>(p.bit) >= program_.word_bits) {
      throw std::invalid_argument("BatchRunner: probe outside the arena");
    }
  }
  if (options_.min_chunk == 0) options_.min_chunk = 1;
  if (lane_parallel(program_, probes_)) {
    lanes_ = static_cast<unsigned>(program_.word_bits);
  }
  exec_ = ExecCounters::attach(options_.metrics, program_, options_.extra_pass_cost);
  if (threads_ > 1) pool_.emplace(threads_ - 1);
}

std::size_t BatchRunner::shard_count(std::size_t num_vectors) const noexcept {
  if (num_vectors == 0) return 0;
  const std::size_t groups = (num_vectors + lanes_ - 1) / lanes_;
  const std::size_t by_chunk =
      (num_vectors + options_.min_chunk - 1) / options_.min_chunk;
  return std::max<std::size_t>(
      1, std::min({std::size_t{threads_}, groups, by_chunk}));
}

template <class Word>
void BatchRunner::run_shard(std::span<const Bit> inputs,
                            std::size_t shard_index, ShardSlot& slot,
                            std::span<Bit> out, unsigned attempt) {
  if (slot.next >= slot.end) return;  // resumed already-finished shard
  const std::size_t iw = program_.input_words;
  const std::size_t lanes = lanes_;
  MetricsRegistry* const reg = options_.metrics;
  FaultInjector* const inj = options_.inject;
  const std::uint64_t t0 = reg ? shard_now_ns() : 0;
  const std::size_t start = slot.next;
  // The span owns the batch.shard.ns / batch.shard.calls counters and the
  // trace event; it closes after account() runs, covering the whole shard.
  TraceSpan span(reg, "batch.shard");
  span.arg("shard", shard_index);
  span.arg("begin", slot.begin);
  span.arg("end", slot.end);
  span.arg("attempt", attempt);

  if (inj && inj->fire(FaultSite::AllocFail, shard_index, start, attempt)) {
    metric_add(reg, "resil.injected", 1);
    throw std::bad_alloc();
  }
  KernelRunner<Word> runner(program_);
  if (options_.native != nullptr) runner.set_kernel(options_.native->kernel<Word>());
  std::vector<Word> row(iw);
  const std::size_t cols = probes_.size();
  std::vector<unsigned char> gathered(lanes > 1 ? cols : 0);
  // Input row for vectors [v, v + n): one vector's bits when scalar, else
  // vector v + l's bit in lane l of every input word (pack_lanes; lanes past
  // n stay 0).
  const auto load = [&](std::size_t v, std::size_t n) {
    const Bit* src = inputs.data() + v * iw;
    if (lanes == 1) {
      for (std::size_t i = 0; i < iw; ++i) row[i] = static_cast<Word>(src[i] & 1u);
      return;
    }
    if (n < lanes) std::fill(row.begin(), row.end(), Word{0});
    pack_lanes(src, iw, n, reinterpret_cast<unsigned char*>(row.data()),
               sizeof(Word));
  };
  // Output rows of vectors [v, v + n): lane l is vector v + l (probes of a
  // lane-parallel program all read bit 0; unpack_lanes).
  const auto store = [&](std::size_t v, std::size_t n) {
    if (lanes == 1) {
      Bit* dst = out.data() + v * cols;
      for (std::size_t j = 0; j < cols; ++j) {
        dst[j] = runner.bit(probes_[j].word, probes_[j].bit);
      }
      return;
    }
    unpack_lanes(reinterpret_cast<const unsigned char*>(runner.arena().data()),
                 sizeof(Word), probes_, n, gathered.data(),
                 out.data() + v * cols);
  };
  bool seam = false;
  if (start > slot.begin) {
    // Resume: the checkpointed arena IS the retained state after vector
    // start-1; restoring it replaces the seam replay.
    runner.load_arena(slot.arena);
  } else if (slot.begin > 0 && lanes == 1) {
    // Seam replay: the predecessor shard's final vector re-establishes the
    // retained state (previous-vector settled values); outputs discarded.
    // Lane-parallel programs need none: no probe reads retained state.
    load(slot.begin - 1, 1);
    runner.run(row);
    seam = true;
  }

  CancelPoll poll(options_.cancel);
  std::size_t v = start;
  std::uint64_t passes = 0;
  StopReason stop = StopReason::None;
  // Shared exit accounting so the fault-throwing paths count their executed
  // passes exactly like the clean path does.
  const auto account = [&] {
    if (!reg) return;
    exec_.on_passes(passes, v - start);  // payload: thread-count invariant
    if (seam) {
      reg->counter("batch.seam_vectors").add(1);
      reg->counter("batch.seam_ops").add(exec_.cost.ops);
    }
    const std::uint64_t elapsed = shard_now_ns() - t0;
    reg->counter("batch.shards").add(1);
    reg->counter("batch.shard_max.ns").set_max(elapsed);
    reg->counter("batch.shard_vectors_max").set_max(slot.end - slot.begin);
    // Wall-time distributions (DESIGN.md §5g): per-shard latency and the
    // amortized per-pass latency, from the two clock reads already taken.
    reg->histogram("batch.shard.us").record(elapsed / 1000);
    if (passes != 0) reg->histogram("batch.pass.ns").record(elapsed / passes);
  };

  while (v < slot.end && stop == StopReason::None) {
    // One pass settles the rest of v's lane group. Each of its vectors is
    // polled and offered to the injector first, so a stop at vector u runs
    // exactly the lanes before u — the same vectors a scalar run completes.
    const std::size_t group_end = std::min(slot.end, (v / lanes + 1) * lanes);
    std::size_t u = v;
    for (; u < group_end; ++u) {
      stop = poll.poll();  // one relaxed load + branch (dead branch when null)
      if (inj != nullptr) {
        if (stop == StopReason::None &&
            inj->fire(FaultSite::DeadlineOverrun, shard_index, u, attempt)) {
          metric_add(reg, "resil.injected", 1);
          stop = StopReason::Deadline;
        }
        if (inj->fire(FaultSite::WorkerThrow, shard_index, u, attempt)) {
          metric_add(reg, "resil.injected", 1);
          account();
          throw InjectedFault(FaultSite::WorkerThrow, shard_index, u, attempt);
        }
        if (inj->fire(FaultSite::ArenaCorrupt, shard_index, u, attempt)) {
          metric_add(reg, "resil.injected", 1);
          const std::span<Word> arena = runner.mutable_arena();
          if (!arena.empty()) {
            arena[u % arena.size()] ^= static_cast<Word>(0xdeadbeefdeadbeefull);
          }
          account();
          // The corruption is trapped immediately (standing in for a
          // detected memory fault); the retry restarts from a fresh arena,
          // so the shard's final outputs stay bit-identical.
          throw InjectedFault(FaultSite::ArenaCorrupt, shard_index, u, attempt);
        }
      }
      if (stop != StopReason::None) break;
    }
    if (u == v) break;
    load(v, u - v);
    runner.run(row);
    store(v, u - v);
    ++passes;
    v = u;
  }

  slot.next = v;
  slot.stop = stop;
  if (stop != StopReason::None && v > slot.begin) {
    runner.save_arena(slot.arena);  // the one piece of cross-vector state
  } else {
    slot.arena.clear();
  }
  account();
}

void BatchRunner::run_shard_any(std::span<const Bit> inputs,
                                std::size_t shard_index, ShardSlot& slot,
                                std::span<Bit> out, unsigned attempt) {
  switch (program_.word_bits) {
    case 64:
      run_shard<std::uint64_t>(inputs, shard_index, slot, out, attempt);
      break;
#if UDSIM_HAS_W128
    case 128:
      run_shard<u128>(inputs, shard_index, slot, out, attempt);
      break;
#endif
    case 256:
      run_shard<u256>(inputs, shard_index, slot, out, attempt);
      break;
    default:
      run_shard<std::uint32_t>(inputs, shard_index, slot, out, attempt);
      break;
  }
}

void BatchRunner::run_shard_guarded(std::span<const Bit> inputs,
                                    std::size_t shard_index, ShardSlot& slot,
                                    std::span<Bit> out) {
  MetricsRegistry* const reg = options_.metrics;
  for (unsigned attempt = 0;; ++attempt) {
    try {
      run_shard_any(inputs, shard_index, slot, out, attempt);
      return;
    } catch (const std::exception& e) {
      // A failed attempt left `slot` untouched (the shard restarts from its
      // seam / resume point), so a retry is a clean deterministic re-run.
      if (attempt >= options_.retry_limit) {
        slot.quarantined = true;
        metric_add(reg, "resil.quarantined", 1);
        if (options_.diag) {
          options_.diag->report(
              DiagCode::ShardQuarantined, DiagSeverity::Warning,
              "shard " + std::to_string(shard_index),
              "retries exhausted after " + std::to_string(attempt + 1) +
                  " attempts (" + e.what() + "); degrading to sequential replay");
        }
        return;
      }
      ++slot.retries;
      metric_add(reg, "resil.retries", 1);
      if (options_.diag) {
        options_.diag->report(DiagCode::ShardRetry, DiagSeverity::Warning,
                              "shard " + std::to_string(shard_index),
                              std::string("attempt ") + std::to_string(attempt) +
                                  " failed (" + e.what() + "); retrying");
      }
    }
  }
}

std::vector<Bit> BatchRunner::run(std::span<const Bit> inputs,
                                  std::size_t num_vectors) {
  ResilientBatch r = run_resilient(inputs, num_vectors, nullptr);
  if (r.status != RunStatus::Complete) {
    throw Cancelled(r.status == RunStatus::Cancelled ? StopReason::Cancelled
                                                     : StopReason::Deadline,
                    "batch.run", r.vectors_done);
  }
  return std::move(r.values);
}

ResilientBatch BatchRunner::run_resilient(std::span<const Bit> inputs,
                                          std::size_t num_vectors,
                                          const BatchCheckpoint* resume) {
  const std::size_t iw = program_.input_words;
  if (inputs.size() < num_vectors * iw) {
    throw std::invalid_argument("BatchRunner::run: input stream too short");
  }
  ResilientBatch result;
  result.values.resize(num_vectors * probes_.size());
  const std::size_t shards = shard_count(num_vectors);
  if (shards == 0) return result;  // zero vectors: no replay, no dispatch

  MetricsRegistry* const reg = options_.metrics;
  TraceSpan span(reg, "batch.run");
  if (reg) {
    reg->counter("batch.runs").add(1);
    reg->counter("batch.threads").set(threads_);
  }

  // Shards are runs of whole lane groups, so the pass count is
  // ceil(num_vectors / lanes) at every thread count.
  const std::size_t groups = (num_vectors + lanes_ - 1) / lanes_;
  const std::size_t quot = groups / shards;
  const std::size_t rem = groups % shards;
  std::vector<ShardSlot> slots(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    slots[s].begin = (s * quot + std::min(s, rem)) * lanes_;
    slots[s].end = std::min(
        num_vectors, slots[s].begin + (quot + (s < rem ? 1 : 0)) * lanes_);
    slots[s].next = slots[s].begin;
  }

  if (resume != nullptr) {
    const auto geometry = [&](const std::string& what) {
      throw CheckpointError(CheckpointError::Kind::Geometry,
                            "checkpoint does not match this run: " + what);
    };
    if (resume->word_bits != static_cast<std::uint32_t>(program_.word_bits) ||
        resume->arena_words != program_.arena_words ||
        resume->input_words != program_.input_words) {
      geometry("program shape differs");
    }
    if (resume->probe_count != probes_.size()) geometry("probe count differs");
    if (resume->num_vectors != num_vectors) geometry("vector count differs");
    if (resume->shards.size() != shards) {
      geometry("shard count differs (thread count or min_chunk changed)");
    }
    const std::size_t cols = probes_.size();
    for (std::size_t s = 0; s < shards; ++s) {
      const ShardCheckpoint& sc = resume->shards[s];
      if (sc.begin != slots[s].begin || sc.end != slots[s].end) {
        geometry("shard " + std::to_string(s) + " boundaries differ");
      }
      if (sc.next > sc.begin && sc.next < sc.end &&
          sc.arena.size() != carrier_words(program_)) {
        throw CheckpointError(CheckpointError::Kind::Corrupt,
                              "checkpoint shard " + std::to_string(s) +
                                  " is mid-stream but carries no arena");
      }
      slots[s].next = sc.next;
      slots[s].arena = sc.arena;
      std::copy(sc.rows.begin(), sc.rows.end(),
                result.values.begin() +
                    static_cast<std::ptrdiff_t>(sc.begin * cols));
    }
    metric_add(reg, "resil.resumes", 1);
    if (options_.diag) {
      options_.diag->report(DiagCode::CheckpointResumed, DiagSeverity::Note,
                            "batch.run",
                            "resumed at " + std::to_string(resume->vectors_done()) +
                                "/" + std::to_string(num_vectors) + " vectors");
    }
  }

  // Workers write disjoint row ranges of the output matrix; order is fixed
  // by the shard boundaries, so the merge is free and deterministic. Shard
  // bodies never throw (run_shard_guarded converts failures into retries
  // and quarantine marks), so the pool barrier always completes cleanly.
  // Pool threads cannot see the caller's thread-local RequestTraceScope, so
  // each shard re-enters it: its batch.shard span then carries the same
  // "request" arg as the caller's spans.
  const RequestTraceId trace_id = current_request_trace_id();
  const auto shard = [&](std::size_t s) {
    RequestTraceScope trace_scope(trace_id);
    run_shard_guarded(inputs, s, slots[s], result.values);
  };
  if (pool_) {
    pool_->parallel_for(shards, shard);
  } else {
    shard(0);  // one thread, one shard
  }

  // Graceful degradation: quarantined shards re-run sequentially on the
  // calling thread, one final attempt each. A failure here is a genuine,
  // unrecoverable error and propagates to the caller. Skipped when the run
  // is already stopping — the checkpoint keeps the shard's resume point.
  const bool stopping =
      std::any_of(slots.begin(), slots.end(), [](const ShardSlot& s) {
        return s.stop != StopReason::None;
      });
  for (std::size_t s = 0; s < shards; ++s) {
    if (!slots[s].quarantined || stopping) continue;
    run_shard_any(inputs, s, slots[s], result.values,
                  options_.retry_limit + 1);
  }

  for (const ShardSlot& slot : slots) {
    result.retries += slot.retries;
    result.quarantined += slot.quarantined ? 1 : 0;
    result.vectors_done += slot.next - slot.begin;
  }

  StopReason reason = StopReason::None;
  for (const ShardSlot& slot : slots) {
    if (slot.stop == StopReason::Cancelled) reason = StopReason::Cancelled;
    if (slot.stop == StopReason::Deadline && reason == StopReason::None) {
      reason = StopReason::Deadline;
    }
  }
  if (reason == StopReason::None) {
    result.status = RunStatus::Complete;
    return result;
  }

  result.status = reason == StopReason::Cancelled ? RunStatus::Cancelled
                                                  : RunStatus::DeadlineExpired;
  metric_add(reg, reason == StopReason::Cancelled ? "resil.cancelled"
                                                  : "resil.deadline",
             1);
  // Assemble the resumable snapshot: per shard, the resume point, the
  // settled arena (mid-stream shards only) and the completed output rows.
  BatchCheckpoint& ck = result.checkpoint;
  ck.word_bits = static_cast<std::uint32_t>(program_.word_bits);
  ck.arena_words = program_.arena_words;
  ck.input_words = program_.input_words;
  ck.probe_count = static_cast<std::uint32_t>(probes_.size());
  ck.num_vectors = num_vectors;
  ck.shards.reserve(shards);
  const std::size_t cols = probes_.size();
  for (ShardSlot& slot : slots) {
    ShardCheckpoint sc;
    sc.begin = slot.begin;
    sc.end = slot.end;
    sc.next = slot.next;
    sc.arena = std::move(slot.arena);
    sc.rows.assign(
        result.values.begin() + static_cast<std::ptrdiff_t>(slot.begin * cols),
        result.values.begin() + static_cast<std::ptrdiff_t>(slot.next * cols));
    ck.shards.push_back(std::move(sc));
  }
  metric_add(reg, "resil.checkpoints", 1);
  if (options_.diag) {
    options_.diag->report(
        DiagCode::RunCancelled, DiagSeverity::Note, "batch.run",
        std::string(stop_reason_name(reason)) + " after " +
            std::to_string(result.vectors_done) + "/" +
            std::to_string(num_vectors) + " vectors; checkpoint captured");
  }
  return result;
}

}  // namespace udsim
