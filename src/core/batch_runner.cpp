#include "core/batch_runner.h"

#include <algorithm>
#include <array>
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

/// Largest 8-lane arena (arena words × 32 bytes) a shard runs as word lanes;
/// each thread holds one. Above it a shard keeps one vector per pass:
/// EXPERIMENTS.md Ablation F sets the cap.
constexpr std::size_t kWordLaneArenaCap = std::size_t{1} << 20;

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
  } else if (program_.word_bits == 32 && options_.native == nullptr &&
             width_available(256) &&
             program_.arena_words * sizeof(u32x8) <= kWordLaneArenaCap) {
    word_lanes_ = kWordLanes<u32x8>;
    KernelRunner<std::uint32_t>(program_).save_arena(reset_arena_);
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
  // L slices run in lockstep, slice k in word lane k (L = 1 but for u32x8).
  constexpr unsigned L = kWordLanes<Word>;
  std::vector<ShardCheckpoint>& slices = slot.slices;
  // Each slice's first unexecuted vector; written back to `slot` only when
  // the attempt ends cleanly, so a failed attempt leaves `slot` untouched.
  std::array<std::size_t, L> cur;
  for (unsigned k = 0; k < L; ++k) cur[k] = slices[k].next;
  const auto open = [&](unsigned k) { return cur[k] < slices[k].end; };
  unsigned first = 0;
  while (first < L && !open(first)) ++first;
  if (first == L) return;  // resumed already-finished shard
  const std::size_t iw = program_.input_words;
  const std::size_t lanes = lanes_;
  MetricsRegistry* const reg = options_.metrics;
  FaultInjector* const inj = options_.inject;
  const std::uint64_t t0 = reg ? shard_now_ns() : 0;
  const std::size_t start = cur[first];
  const std::size_t shard_begin = slices.front().begin;
  const std::size_t shard_end = slices.back().end;
  // The span owns the batch.shard.ns / batch.shard.calls counters and the
  // trace event; it closes after account() runs, covering the whole shard.
  TraceSpan span(reg, "batch.shard");
  span.arg("shard", shard_index);
  span.arg("begin", shard_begin);
  span.arg("end", shard_end);
  span.arg("attempt", attempt);

  if (inj && inj->fire(FaultSite::AllocFail, shard_index, start, attempt)) {
    metric_add(reg, "resil.injected", 1);
    throw std::bad_alloc();
  }
  KernelRunner<Word> runner(program_);
  if constexpr (L == 1) {
    if (options_.native != nullptr) runner.set_kernel(options_.native->kernel<Word>());
  }
  std::vector<Word> row(iw);
  const std::size_t cols = probes_.size();
  std::vector<unsigned char> gathered(lanes > 1 ? cols : 0);
  // Input words of slice k's vectors [v, v + n): vector v's bits in word
  // lane k, or in bit 0 when scalar, else vector v + l's bit in bit lane l
  // of every input word (pack_lanes; lanes past n stay 0).
  const auto load = [&](unsigned k, std::size_t v, std::size_t n) {
    const Bit* src = inputs.data() + v * iw;
    if constexpr (L > 1) {
      for (std::size_t i = 0; i < iw; ++i) row[i].lane[k] = src[i] & 1u;
    } else if (lanes == 1) {
      for (std::size_t i = 0; i < iw; ++i) row[i] = static_cast<Word>(src[i] & 1u);
    } else {
      if (n < lanes) std::fill(row.begin(), row.end(), Word{0});
      pack_lanes(src, iw, n, reinterpret_cast<unsigned char*>(row.data()),
                 sizeof(Word));
    }
  };
  // Output rows of slice k's vectors [v, v + n): each probe's bit in word
  // lane k, or in its scalar word, or bit lane l for vector v + l (probes
  // of a lane-parallel program all read bit 0; unpack_lanes).
  const auto store = [&](unsigned k, std::size_t v, std::size_t n) {
    Bit* dst = out.data() + v * cols;
    if constexpr (L > 1) {
      const std::span<const Word> arena = runner.arena();
      for (std::size_t j = 0; j < cols; ++j) {
        const ArenaProbe& pr = probes_[j];
        dst[j] = static_cast<Bit>((arena[pr.word].lane[k] >> pr.bit) & 1u);
      }
    } else if (lanes == 1) {
      for (std::size_t j = 0; j < cols; ++j) {
        dst[j] = runner.bit(probes_[j].word, probes_[j].bit);
      }
    } else {
      unpack_lanes(reinterpret_cast<const unsigned char*>(runner.arena().data()),
                   sizeof(Word), probes_, n, gathered.data(), dst);
    }
  };

  // Retained state at each open slice's start. A slice resumed mid-stream
  // restores its checkpointed arena, the state after vector next-1. One
  // that has not started replays its predecessor vector begin-1 in a seam
  // pass shared by all such lanes, outputs discarded; lane-parallel
  // programs need none, as no probe reads retained state. The seam pass
  // also runs the other lanes, so those starting at vector 0 take the
  // reset arena back afterwards.
  std::uint64_t seams = 0;
  for (unsigned k = 0; k < L; ++k) {
    const ShardCheckpoint& sl = slices[k];
    if (open(k) && cur[k] == sl.begin && sl.begin > 0 && lanes == 1) {
      load(k, sl.begin - 1, 1);
      ++seams;
    }
  }
  if (seams != 0) runner.run(row);
  for (unsigned k = 0; k < L; ++k) {
    const ShardCheckpoint& sl = slices[k];
    if (!open(k)) continue;
    if (cur[k] > sl.begin) {
      runner.load_arena(sl.arena, k);
    } else if (L > 1 && seams != 0 && sl.begin == 0) {
      runner.load_arena(reset_arena_, k);
    }
  }

  CancelPoll poll(options_.cancel);
  std::uint64_t passes = 0;   // payload passes: one per lane-vector in lanes
  std::uint64_t settled = 0;  // payload vectors
  std::uint64_t steps = 0;    // executor calls
  StopReason stop = StopReason::None;
  // Shared exit accounting so the fault-throwing paths count their executed
  // passes exactly like the clean path does.
  const auto account = [&] {
    if (!reg) return;
    exec_.on_passes(passes, settled);  // payload: thread-count invariant
    if (seams != 0) {
      reg->counter("batch.seam_vectors").add(seams);
      reg->counter("batch.seam_ops").add(exec_.cost.ops * seams);
    }
    const std::uint64_t elapsed = shard_now_ns() - t0;
    reg->counter("batch.shards").add(1);
    reg->counter("batch.shard_max.ns").set_max(elapsed);
    reg->counter("batch.shard_vectors_max").set_max(shard_end - shard_begin);
    // Wall-time distributions (DESIGN.md §5g): per-shard latency and the
    // amortized per-pass latency, from the two clock reads already taken.
    reg->histogram("batch.shard.us").record(elapsed / 1000);
    if (steps != 0) reg->histogram("batch.pass.ns").record(elapsed / steps);
  };

  std::array<std::size_t, L> n{};  // vectors slice k settles this pass
  while (stop == StopReason::None) {
    // One pass settles the next vector of every open slice, or the rest of
    // the one slice's lane group. Each vector is polled and offered to the
    // injector first. A stop at vector u in a lane group runs exactly the
    // lanes before u — the same vectors a scalar run completes; in word
    // lanes it drops the whole pass, so every slice stops on a whole vector.
    std::size_t batch = 0;
    for (unsigned k = 0; k < L && stop == StopReason::None; ++k) {
      n[k] = 0;
      if (!open(k)) continue;
      const std::size_t v = cur[k];
      const std::size_t group_end = std::min<std::size_t>(
          slices[k].end, (v / lanes + 1) * lanes);
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
      n[k] = u - v;
      batch += n[k];
    }
    if (L > 1 && stop != StopReason::None) batch = 0;
    if (batch == 0) break;
    for (unsigned k = 0; k < L; ++k) {
      if (n[k] != 0) load(k, cur[k], n[k]);
    }
    runner.run(row);
    for (unsigned k = 0; k < L; ++k) {
      if (n[k] == 0) continue;
      store(k, cur[k], n[k]);
      cur[k] += n[k];
    }
    passes += L > 1 ? batch : 1;
    settled += batch;
    ++steps;
  }

  slot.stop = stop;
  for (unsigned k = 0; k < L; ++k) {
    ShardCheckpoint& sl = slices[k];
    sl.next = cur[k];
    if (stop != StopReason::None && sl.next > sl.begin && sl.next < sl.end) {
      runner.save_arena(sl.arena, k);  // the one piece of cross-vector state
    } else {
      sl.arena.clear();
    }
  }
  account();
}

void BatchRunner::run_shard_any(std::span<const Bit> inputs,
                                std::size_t shard_index, ShardSlot& slot,
                                std::span<Bit> out, unsigned attempt) {
  if (word_lanes_ > 1) {
    run_shard<u32x8>(inputs, shard_index, slot, out, attempt);
    return;
  }
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
  // ceil(num_vectors / lanes) at every thread count. Each shard is split as
  // evenly into word_lanes_ contiguous slices (some empty when the shard is
  // shorter); one slice when word lanes are off.
  const std::size_t groups = (num_vectors + lanes_ - 1) / lanes_;
  const std::size_t quot = groups / shards;
  const std::size_t rem = groups % shards;
  std::vector<ShardSlot> slots(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t begin = (s * quot + std::min(s, rem)) * lanes_;
    const std::size_t end =
        std::min(num_vectors, begin + (quot + (s < rem ? 1 : 0)) * lanes_);
    const std::size_t q = (end - begin) / word_lanes_;
    const std::size_t r = (end - begin) % word_lanes_;
    slots[s].slices.resize(word_lanes_);
    for (std::size_t k = 0; k < word_lanes_; ++k) {
      ShardCheckpoint& sl = slots[s].slices[k];
      sl.begin = begin + k * q + std::min(k, r);
      sl.end = sl.begin + q + (k < r ? 1 : 0);
      sl.next = sl.begin;
    }
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
    if (resume->shards.size() != shards * word_lanes_) {
      geometry("shard count differs (thread count, min_chunk or word lanes "
               "changed)");
    }
    const std::size_t cols = probes_.size();
    for (std::size_t i = 0; i < resume->shards.size(); ++i) {
      const ShardCheckpoint& sc = resume->shards[i];
      ShardCheckpoint& sl = slots[i / word_lanes_].slices[i % word_lanes_];
      if (sc.begin != sl.begin || sc.end != sl.end) {
        geometry("shard " + std::to_string(i) + " boundaries differ");
      }
      if (sc.next > sc.begin && sc.next < sc.end &&
          sc.arena.size() != carrier_words(program_)) {
        throw CheckpointError(CheckpointError::Kind::Corrupt,
                              "checkpoint shard " + std::to_string(i) +
                                  " is mid-stream but carries no arena");
      }
      sl.next = sc.next;
      sl.arena = sc.arena;
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
    for (const ShardCheckpoint& sl : slot.slices) {
      result.vectors_done += sl.next - sl.begin;
    }
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
  // Assemble the resumable snapshot: per slice, the resume point, the
  // settled arena (mid-stream slices only) and the completed output rows.
  BatchCheckpoint& ck = result.checkpoint;
  ck.word_bits = static_cast<std::uint32_t>(program_.word_bits);
  ck.arena_words = program_.arena_words;
  ck.input_words = program_.input_words;
  ck.probe_count = static_cast<std::uint32_t>(probes_.size());
  ck.num_vectors = num_vectors;
  ck.shards.reserve(shards * word_lanes_);
  const std::size_t cols = probes_.size();
  for (ShardSlot& slot : slots) {
    for (ShardCheckpoint& sl : slot.slices) {
      sl.rows.assign(
          result.values.begin() + static_cast<std::ptrdiff_t>(sl.begin * cols),
          result.values.begin() + static_cast<std::ptrdiff_t>(sl.next * cols));
      ck.shards.push_back(std::move(sl));
    }
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
