// Parameterized property sweeps over the ten ISCAS-85-like profiles: every
// compiled program verifies structurally, every alignment plan is legal,
// PC-sets bound actual changes, trimming invariants hold, and the static
// code statistics respect the paper's relationships.
#include <gtest/gtest.h>

#include "analysis/alignment.h"
#include "analysis/pcset.h"
#include "analysis/trimming.h"
#include "gen/iscas_profiles.h"
#include "lcc/lcc.h"
#include "parsim/parallel_sim.h"
#include "pcsim/pcset_sim.h"
#include "resilience/program_validator.h"

namespace udsim {
namespace {

class ProfileProperties : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override { nl_ = make_iscas85_like(GetParam()); }
  Netlist nl_;
};

TEST_P(ProfileProperties, EveryCompiledProgramVerifies) {
  {
    const LccCompiled lcc = compile_lcc(nl_);
    EXPECT_EQ(
        validate_program_brief(lcc.program, {.persistent = lcc.net_var}), "");
  }
  {
    const PCSetCompiled pcs = compile_pcset(nl_);
    std::vector<std::uint32_t> persistent;
    for (const auto& vars : pcs.net_vars) {
      for (const auto& [t, w] : vars) persistent.push_back(w);
    }
    EXPECT_EQ(validate_program_brief(pcs.program, {.persistent = persistent}), "");
  }
  for (ShiftElim se :
       {ShiftElim::None, ShiftElim::PathTracing, ShiftElim::CycleBreaking}) {
    for (bool trim : {false, true}) {
      ParallelOptions o;
      o.shift_elim = se;
      o.trimming = trim;
      const ParallelCompiled par = compile_parallel(nl_, o);
      std::vector<std::uint32_t> persistent;
      for (std::uint32_t n = 0; n < nl_.net_count(); ++n) {
        for (std::uint32_t w = 0; w < par.net_words[n]; ++w) {
          persistent.push_back(par.net_base[n] + w);
        }
      }
      EXPECT_EQ(
          validate_program_brief(par.program, {.persistent = persistent}), "")
          << "shift_elim=" << static_cast<int>(se) << " trim=" << trim;
    }
  }
}

TEST_P(ProfileProperties, AlignmentPlansAreLegal) {
  const Levelization lv = levelize(nl_);
  for (const AlignmentPlan& plan :
       {align_unoptimized(nl_, lv), align_path_tracing(nl_, lv),
        align_cycle_breaking(nl_, lv)}) {
    EXPECT_NO_THROW(check_alignment_plan(nl_, lv, plan));
  }
  // Path tracing: right shifts only, no output shifts, no field expansion.
  const AlignmentPlan pt = align_path_tracing(nl_, lv);
  for (std::uint32_t gi = 0; gi < nl_.gate_count(); ++gi) {
    EXPECT_EQ(pt.output_shift(nl_, GateId{gi}), 0);
    for (NetId in : nl_.gate(GateId{gi}).inputs) {
      EXPECT_GE(pt.input_shift(nl_, GateId{gi}, in), 0);
    }
  }
  const AlignmentStats st = alignment_stats(nl_, lv, pt, 32);
  EXPECT_LE(st.max_width_bits, lv.depth + 1);
}

TEST_P(ProfileProperties, PCSetContainsLevelBounds) {
  const Levelization lv = levelize(nl_);
  const PCSets pc = compute_pc_sets(nl_, lv);
  for (std::uint32_t n = 0; n < nl_.net_count(); ++n) {
    const NetId id{n};
    EXPECT_EQ(pc.of(id).min_bit(), lv.minlevel(id));
    EXPECT_EQ(pc.of(id).max_bit(), lv.level(id));
  }
}

TEST_P(ProfileProperties, TrimClassesAreConsistent) {
  const Levelization lv = levelize(nl_);
  const PCSets pc = compute_pc_sets(nl_, lv);
  const AlignmentPlan plan = align_unoptimized(nl_, lv);
  const auto widths = field_widths(nl_, lv, plan, true);
  const TrimPlan tp = compute_trim_plan(nl_, lv, pc, plan, widths, 32);
  for (std::uint32_t n = 0; n < nl_.net_count(); ++n) {
    const auto& cls = tp.net_words[n];
    ASSERT_EQ(cls.size(), static_cast<std::size_t>((widths[n] + 31) / 32));
    if (nl_.net(NetId{n}).is_primary_input) continue;
    EXPECT_NE(cls.front(), WordClass::Gap);
    // Stable words lie strictly below the minlevel.
    for (std::size_t w = 0; w < cls.size(); ++w) {
      if (cls[w] == WordClass::StableLow) {
        EXPECT_LT(static_cast<int>(w + 1) * 32 - 1, lv.minlevel(NetId{n}));
      }
    }
  }
}

TEST_P(ProfileProperties, StatsRelationships) {
  const Levelization lv = levelize(nl_);
  // Unoptimized retained shifts = gate count (paper Fig. 21 column 1).
  const AlignmentStats unopt = alignment_stats(nl_, lv, align_unoptimized(nl_, lv), 32);
  EXPECT_EQ(unopt.retained_shift_sites, nl_.real_gate_count());
  // Both algorithms retain fewer shifts than the unoptimized baseline.
  const AlignmentStats pt = alignment_stats(nl_, lv, align_path_tracing(nl_, lv), 32);
  const AlignmentStats cb =
      alignment_stats(nl_, lv, align_cycle_breaking(nl_, lv), 32);
  EXPECT_LT(pt.retained_shift_sites, unopt.retained_shift_sites);
  EXPECT_LT(cb.retained_shift_sites, unopt.retained_shift_sites);
  // Trimming never makes the program bigger.
  const ParallelCompiled plain = compile_parallel(nl_, {});
  ParallelOptions o;
  o.trimming = true;
  const ParallelCompiled trimmed = compile_parallel(nl_, o);
  EXPECT_LE(trimmed.program.ops.size(), plain.program.ops.size());
}

INSTANTIATE_TEST_SUITE_P(Iscas85, ProfileProperties,
                         ::testing::Values("c432", "c499", "c880", "c1355",
                                           "c1908", "c2670", "c3540", "c5315",
                                           "c6288", "c7552"),
                         [](const auto& info) { return std::string(info.param); });

}  // namespace
}  // namespace udsim
