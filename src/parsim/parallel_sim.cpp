#include "parsim/parallel_sim.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <unordered_map>

#include "ir/emit_util.h"
#include "ir/schedule.h"
#include "obs/metrics.h"

namespace udsim {

namespace {

[[nodiscard]] int floor_div(int a, int b) noexcept {
  int q = a / b;
  if ((a % b) != 0 && ((a < 0) != (b < 0))) --q;
  return q;
}

/// Record the shift-site ledger of an alignment plan: every potential
/// realignment site (each distinct (gate, input net) pair plus one output
/// site per non-constant gate) is either retained (non-zero shift) or
/// eliminated (alignments line up). retained + eliminated == total by
/// construction here; the cross-check that the *emitter's* independent
/// retained count agrees is tests/metrics_invariant_test.cpp's job.
void record_shift_sites(MetricsRegistry* reg, const Netlist& nl,
                        const AlignmentPlan& plan) {
  std::uint64_t total = 0, retained = 0;
  std::vector<std::uint32_t> seen;
  for (std::uint32_t gi = 0; gi < nl.gate_count(); ++gi) {
    const GateId gid{gi};
    const Gate& g = nl.gate(gid);
    if (is_constant(g.type)) continue;
    seen.clear();
    for (NetId in : g.inputs) {
      if (std::find(seen.begin(), seen.end(), in.value) != seen.end()) continue;
      seen.push_back(in.value);
      ++total;
      if (plan.input_shift(nl, gid, in) != 0) ++retained;
    }
    ++total;
    if (plan.output_shift(nl, gid) != 0) ++retained;
  }
  reg->counter("compile.shift_sites_total").add(total);
  reg->counter("compile.shift_sites_retained").add(retained);
  reg->counter("compile.shift_sites_eliminated").add(total - retained);
}

}  // namespace

ParallelCompiled::Probe ParallelCompiled::probe(NetId n, int t) const {
  const int a = plan.net_align[n.value];
  int pos = t - a;
  if (pos < 0) return {0, 0, false};
  pos = std::min(pos, widths[n.value] - 1);
  const int W = options.word_bits;
  return {net_base[n.value] + static_cast<std::uint32_t>(pos / W),
          static_cast<std::uint8_t>(pos % W), true};
}

ParallelCompiled::Probe ParallelCompiled::final_probe(NetId n) const {
  return probe(n, lv.net_level[n.value]);
}

std::vector<std::string> parallel_var_names(const Netlist& nl,
                                            const ParallelCompiled& c) {
  std::vector<std::string> names(c.program.arena_words);
  for (std::uint32_t n = 0; n < c.net_base.size(); ++n) {
    const std::string& name = nl.net(NetId{n}).name;
    for (std::uint32_t w = 0; w < c.net_words[n]; ++w) {
      names[c.net_base[n] + w] = w == 0 ? name : name + ".w" + std::to_string(w);
    }
  }
  return names;
}

namespace {

// Builds the straight-line program for one netlist under one option set.
class ParallelEmitter {
 public:
  ParallelEmitter(const Netlist& nl, ParallelCompiled& out)
      : nl_(nl), out_(out), p_(out.program), W_(out.options.word_bits) {}

  /// Emits the gates in `order`, a topological gate order of the netlist.
  void run(std::span<const GateId> order) {
    allocate_fields();
    emit_constants();
    emit_pi_loads();
    emit_net_inits();
    for (GateId g : order) {
      if (!is_constant(nl_.gate(g).type)) emit_gate(g);
    }
    p_.arena_words = field_end_ + scratch_high_;
    finalize_stats();
  }

  /// First scratch word: the per-gate pool lies above the fields.
  [[nodiscard]] std::uint32_t field_end() const noexcept { return field_end_; }

 private:
  // ---- layout ---------------------------------------------------------------

  void allocate_fields() {
    out_.net_base.resize(nl_.net_count());
    out_.net_words.resize(nl_.net_count());
    std::uint32_t next = 0;
    for (std::uint32_t n = 0; n < nl_.net_count(); ++n) {
      const auto words = static_cast<std::uint32_t>((out_.widths[n] + W_ - 1) / W_);
      out_.net_base[n] = next;
      out_.net_words[n] = words;
      next += words;
    }
    field_end_ = next;
    p_.input_words = static_cast<std::uint32_t>(nl_.primary_inputs().size());
  }

  // Per-gate scratch pool (indices after the fields; high-water sized).
  void scratch_reset() { scratch_next_ = 0; }
  [[nodiscard]] std::uint32_t scratch() {
    const std::uint32_t idx = field_end_ + scratch_next_++;
    scratch_high_ = std::max(scratch_high_, scratch_next_);
    return idx;
  }

  void op(OpCode code, std::uint32_t dst, std::uint32_t a = 0, std::uint32_t b = 0,
          std::uint8_t imm = 0) {
    p_.ops.push_back({code, imm, dst, a, b});
  }

  // ---- phases ---------------------------------------------------------------

  void emit_constants() {
    for (const Gate& g : nl_.gates()) {
      if (!is_constant(g.type)) continue;
      const std::uint32_t base = out_.net_base[g.output.value];
      const std::uint64_t v = g.type == GateType::Const1 ? ~std::uint64_t{0} : 0;
      for (std::uint32_t w = 0; w < out_.net_words[g.output.value]; ++w) {
        p_.arena_init.push_back({base + w, v});
      }
    }
  }

  void emit_pi_loads() {
    scratch_reset();
    for (std::uint32_t i = 0; i < nl_.primary_inputs().size(); ++i) {
      const NetId pi = nl_.primary_inputs()[i];
      const std::uint32_t base = out_.net_base[pi.value];
      const std::uint32_t words = out_.net_words[pi.value];
      const int a = out_.plan.net_align[pi.value];
      assert(a <= 0 && "primary input alignment must be <= its minlevel (0)");
      if (a == 0) {
        op(OpCode::LoadBcast, base, i);
        for (std::uint32_t w = 1; w < words; ++w) op(OpCode::Copy, base + w, base);
        continue;
      }
      // Negative alignment: bits below -a keep the previous value (paper:
      // "its previous value is copied into all bits whose index is
      // negative"), the rest take the new value.
      const int b = -a;  // first new-value bit position (time 0)
      scratch_reset();
      const std::uint32_t sc_old = scratch();
      const std::uint32_t sc_new = scratch();
      op(OpCode::BcastBit, sc_old, base + static_cast<std::uint32_t>(b / W_), 0,
         static_cast<std::uint8_t>(b % W_));
      op(OpCode::LoadBcast, sc_new, i);
      for (std::uint32_t w = 0; w < words; ++w) {
        const int lo = static_cast<int>(w) * W_;
        const int hi = lo + W_ - 1;
        if (hi < b) {
          op(OpCode::Copy, base + w, sc_old);
        } else if (lo >= b) {
          op(OpCode::Copy, base + w, sc_new);
        } else {
          const int bl = b - lo;  // boundary inside this word, 1..W-1
          op(OpCode::FunnelR, base + w, sc_old, sc_new,
             static_cast<std::uint8_t>(W_ - bl));
        }
      }
    }
  }

  void emit_net_inits() {
    for (std::uint32_t n = 0; n < nl_.net_count(); ++n) {
      const Net& net = nl_.net(NetId{n});
      if (net.is_primary_input || net.drivers.empty()) continue;
      const GateId drv = net.drivers.front();
      if (is_constant(nl_.gate(drv).type)) continue;
      const auto& cls = out_.trim.net_words[n];
      const std::uint32_t base = out_.net_base[n];
      const int pos_final = lv().net_level[n] - out_.plan.net_align[n];
      // Stable-low words: every bit is the previous vector's final value.
      bool have_bcast = false;
      std::uint32_t sc = 0;
      scratch_reset();
      for (std::uint32_t w = 0; w < cls.size(); ++w) {
        if (cls[w] != WordClass::StableLow) continue;
        if (!have_bcast) {
          sc = scratch();
          op(OpCode::BcastBit, sc, base + static_cast<std::uint32_t>(pos_final / W_), 0,
             static_cast<std::uint8_t>(pos_final % W_));
          have_bcast = true;
        }
        op(OpCode::Copy, base + w, sc);
      }
      // Classic unit-delay unoptimized initialization: the final value moves
      // into bit 0 ahead of the post-gate left shift (paper Fig. 6:
      // "D = (D>>2)&1;"). Multi-delay gates use the pf path instead.
      if (out_.options.shift_elim == ShiftElim::None &&
          out_.plan.output_shift(nl_, drv) == -1 && cls[0] == WordClass::Computed) {
        op(OpCode::ExtractBit, base, base + static_cast<std::uint32_t>(pos_final / W_),
           0, static_cast<std::uint8_t>(pos_final % W_));
      }
    }
  }

  // ---- per-gate emission -----------------------------------------------------

  void emit_gate(GateId gid) {
    const Gate& g = nl_.gate(gid);
    const NetId out_net = g.output;
    const std::uint32_t n = out_net.value;
    const std::uint32_t out_base = out_.net_base[n];
    const std::uint32_t out_words = out_.net_words[n];
    const auto& cls = out_.trim.net_words[n];
    const int s_out = out_.plan.output_shift(nl_, gid);
    const int a_g = out_.plan.gate_align[gid.value];

    scratch_reset();
    input_cache_.clear();

    // Result width: per-net formula for aligned modes, full field width in
    // the uniform (unoptimized) mode where all fields share the same size.
    const bool uniform = out_.options.shift_elim == ShiftElim::None;
    const int res_bits = uniform ? out_.widths[n]
                                 : lv().gate_level[gid.value] - a_g + 1;
    const auto res_words = static_cast<std::uint32_t>((res_bits + W_ - 1) / W_);

    // Which result words must be evaluated?
    std::vector<bool> needed(res_words, false);
    bool need_res_msb = false;
    bool need_pf = false;
    for (std::uint32_t w = 0; w < out_words; ++w) {
      if (cls[w] != WordClass::Computed) {
        ++out_.stats.suppressed_stores;
        continue;
      }
      if (s_out == 0) {
        assert(w < res_words);
        needed[w] = true;
        continue;
      }
      const int lo = static_cast<int>(w) * W_ + s_out;
      const int hi = lo + W_ - 1;
      if (lo < 0) need_pf = true;
      const int r_lo = std::max(floor_div(std::max(lo, 0), W_), 0);
      const int r_hi = floor_div(hi, W_);
      for (int r = r_lo; r <= std::min(r_hi, static_cast<int>(res_words) - 1); ++r) {
        needed[static_cast<std::size_t>(r)] = true;
      }
      if (r_hi >= static_cast<int>(res_words)) {
        need_res_msb = true;
        needed[res_words - 1] = true;
      }
    }
    // The classic unit-delay unoptimized word-0 store (paper Fig. 6) keeps
    // bit 0 from the init phase rather than reading a previous-final
    // broadcast; larger delays go through the general pf path.
    if (uniform && s_out == -1) need_pf = false;

    std::uint32_t pf = 0;
    if (need_pf) {
      pf = scratch();
      const int pos_final = lv().net_level[n] - out_.plan.net_align[n];
      op(OpCode::BcastBit, pf, out_base + static_cast<std::uint32_t>(pos_final / W_), 0,
         static_cast<std::uint8_t>(pos_final % W_));
    }

    // Result storage: in place for aligned stores, scratch otherwise.
    std::uint32_t res_base = 0;
    if (s_out != 0) {
      res_base = field_end_ + scratch_next_;
      for (std::uint32_t r = 0; r < res_words; ++r) (void)scratch();
    }
    const auto res_idx = [&](std::uint32_t r) { return res_base + r; };

    // Shift-site statistics (distinct input nets).
    {
      std::vector<std::uint32_t> seen;
      for (NetId in : g.inputs) {
        if (std::find(seen.begin(), seen.end(), in.value) != seen.end()) continue;
        seen.push_back(in.value);
        if (out_.plan.input_shift(nl_, gid, in) != 0) ++out_.stats.shift_sites;
      }
      if (s_out != 0) ++out_.stats.shift_sites;
    }

    // Evaluate needed result words in ascending order.
    std::vector<std::uint32_t> operands;
    for (std::uint32_t r = 0; r < res_words; ++r) {
      if (!needed[r]) continue;
      operands.clear();
      for (NetId in : g.inputs) {
        operands.push_back(read_input_word(gid, in, static_cast<int>(r)));
      }
      const std::uint32_t dst = s_out == 0 ? out_base + r : res_idx(r);
      const std::size_t before = p_.ops.size();
      emit_gate_word(p_.ops, g.type, dst, operands);
      out_.stats.gate_eval_ops += p_.ops.size() - before;
    }

    // Store phase for shifted outputs.
    if (s_out != 0) {
      std::uint32_t res_msb = 0;
      if (need_res_msb) {
        res_msb = scratch();
        op(OpCode::BcastBit, res_msb, res_idx(res_words - 1), 0,
           static_cast<std::uint8_t>(W_ - 1));
      }
      const auto eres = [&](int q) -> std::uint32_t {
        if (q < 0) return pf;
        if (q >= static_cast<int>(res_words)) return res_msb;
        return res_idx(static_cast<std::uint32_t>(q));
      };
      for (std::uint32_t w = 0; w < out_words; ++w) {
        if (cls[w] != WordClass::Computed) continue;
        if (uniform && s_out == -1 && w == 0) {
          op(OpCode::MaskShlOr, out_base, res_idx(0), 0, 1);
          ++out_.stats.shift_ops;
          continue;
        }
        const int g0 = static_cast<int>(w) * W_ + s_out;
        const int q = floor_div(g0, W_);
        const int sh = g0 - q * W_;
        if (sh == 0) {
          op(OpCode::Copy, out_base + w, eres(q));
        } else {
          op(OpCode::FunnelR, out_base + w, eres(q), eres(q + 1),
             static_cast<std::uint8_t>(sh));
          ++out_.stats.shift_ops;
        }
      }
    }

    // Gap fills: broadcast the high bit of the preceding word (Fig. 9).
    for (std::uint32_t w = 1; w < out_words; ++w) {
      if (cls[w] == WordClass::Gap) {
        op(OpCode::BcastBit, out_base + w, out_base + w - 1, 0,
           static_cast<std::uint8_t>(W_ - 1));
      }
    }
  }

  /// Arena word holding input net `in`'s realigned value for result word r.
  std::uint32_t read_input_word(GateId gid, NetId in, int r) {
    const int s_in = out_.plan.input_shift(nl_, gid, in);
    const std::uint32_t base = out_.net_base[in.value];
    const auto in_words = static_cast<int>(out_.net_words[in.value]);
    if (s_in == 0 && r < in_words) return base + static_cast<std::uint32_t>(r);
    const int g0 = r * W_ + s_in;
    const int q = floor_div(g0, W_);
    const int sh = g0 - q * W_;
    if (sh == 0) return ext_word(in, q);
    auto& cache = input_cache_[in.value];
    if (cache.temp == kNoWord) cache.temp = scratch();
    op(OpCode::FunnelR, cache.temp, ext_word(in, q), ext_word(in, q + 1),
       static_cast<std::uint8_t>(sh));
    ++out_.stats.shift_ops;
    return cache.temp;
  }

  /// Extended field read: words below the field replicate bit 0 (stable
  /// previous-vector value), words above replicate the top bit (final).
  std::uint32_t ext_word(NetId in, int q) {
    const std::uint32_t base = out_.net_base[in.value];
    const auto in_words = static_cast<int>(out_.net_words[in.value]);
    if (q >= 0 && q < in_words) return base + static_cast<std::uint32_t>(q);
    auto& cache = input_cache_[in.value];
    if (q < 0) {
      if (cache.lsb == kNoWord) {
        cache.lsb = scratch();
        op(OpCode::BcastBit, cache.lsb, base, 0, 0);
      }
      return cache.lsb;
    }
    if (cache.msb == kNoWord) {
      cache.msb = scratch();
      op(OpCode::BcastBit, cache.msb, base + static_cast<std::uint32_t>(in_words - 1), 0,
         static_cast<std::uint8_t>(W_ - 1));
    }
    return cache.msb;
  }

  void finalize_stats() {
    for (std::uint32_t n = 0; n < nl_.net_count(); ++n) {
      out_.stats.field_bits_max = std::max(out_.stats.field_bits_max, out_.widths[n]);
      out_.stats.field_words_max =
          std::max(out_.stats.field_words_max, static_cast<int>(out_.net_words[n]));
    }
  }

  [[nodiscard]] const Levelization& lv() const noexcept { return out_.lv; }

  static constexpr std::uint32_t kNoWord = 0xffffffffu;
  struct InputCache {
    std::uint32_t temp = kNoWord;
    std::uint32_t lsb = kNoWord;
    std::uint32_t msb = kNoWord;
  };

  const Netlist& nl_;
  ParallelCompiled& out_;
  Program& p_;
  const int W_;
  std::uint32_t field_end_ = 0;
  std::uint32_t scratch_next_ = 0;
  std::uint32_t scratch_high_ = 0;
  std::unordered_map<std::uint32_t, InputCache> input_cache_;
};

}  // namespace

EngineKind parallel_engine_kind(const ParallelOptions& options) noexcept {
  switch (options.shift_elim) {
    case ShiftElim::None:
      return options.trimming ? EngineKind::ParallelTrimmed : EngineKind::Parallel;
    case ShiftElim::PathTracing:
      return options.trimming ? EngineKind::ParallelCombined
                              : EngineKind::ParallelPathTracing;
    case ShiftElim::CycleBreaking:
      return EngineKind::ParallelCycleBreaking;
  }
  return EngineKind::Parallel;
}

ParallelCompiled compile_parallel(const Netlist& nl, const ParallelOptions& options,
                                  const CompileGuard& guard) {
  nl.validate();
  for (const Net& n : nl.nets()) {
    if (n.drivers.size() > 1) {
      throw NetlistError("compile_parallel requires lowered wired nets (net '" +
                         n.name + "' has several drivers)");
    }
  }
  const EngineKind kind = parallel_engine_kind(options);
  MetricsRegistry* const reg = guard.metrics;
  TraceSpan total_span(reg, "compile.total");
  ParallelAnalysis analysis =
      analyse_parallel(nl, kind, options.trimming, options.word_bits, guard);
  if (!guard.budget.unlimited()) {
    // Before any op is emitted: reject a blow-up while its cost is still a
    // prediction, not an allocation.
    guard.enforce(parallel_cost(nl, kind, analysis), /*predicted=*/true);
  }
  ParallelCompiled out;
  out.options = options;
  out.lv = std::move(analysis.lv);
  out.plan = std::move(analysis.plan);
  out.widths = std::move(analysis.widths);
  out.trim = std::move(analysis.trim);
  out.program.word_bits = options.word_bits;

  {
    guard.check_cancel("compile.emit");
    TraceSpan span(reg, "compile.emit");
    ParallelEmitter emitter(nl, out);
    emitter.run(analysis.order);
    // A span of its own would add a counter to every compile's metrics;
    // run ordering's time rides on the emit span as its `schedule_ns` arg.
    const auto t0 = reg ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{};
    schedule_runs(out.program,
                  options.rename_scratch ? emitter.field_end() : out.program.arena_words);
    if (reg) {
      span.arg("schedule_ns", static_cast<std::uint64_t>(
                                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                                      std::chrono::steady_clock::now() - t0)
                                      .count()));
    }
  }
  guard.accept(out.program, kind, nl.net_count());
  if (reg) {
    reg->counter("compile.depth").set_max(static_cast<std::uint64_t>(out.lv.depth));
    reg->counter("compile.gate_eval_ops").add(out.stats.gate_eval_ops);
    reg->counter("compile.shift_ops").add(out.stats.shift_ops);
    reg->counter("compile.suppressed_stores").add(out.stats.suppressed_stores);
    reg->counter("compile.words_computed").add(out.trim.computed_words);
    reg->counter("compile.words_stable").add(out.trim.stable_words);
    reg->counter("compile.words_gap").add(out.trim.gap_words);
    record_shift_sites(reg, nl, out.plan);
  }
  if (guard.diag && out.trim.gap_words > 0) {
    guard.diag->report(
        DiagCode::GapWordFallback, DiagSeverity::Note, nl.name(),
        std::to_string(out.trim.gap_words) +
            " representative-free word(s) filled by broadcasting the "
            "preceding word's high bit instead of gate evaluation");
  }
  return out;
}

}  // namespace udsim
