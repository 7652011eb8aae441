// Chrome Trace Event export (MetricsRegistry::trace_to_json): the emitted
// document must parse as JSON, carry "X" complete events with pid/tid/ts/dur
// in microseconds, include the compile-phase spans, and — for a
// multi-threaded run_batch — events from at least two distinct thread
// ordinals (the acceptance gate of ISSUE 5).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "analysis/compile_budget.h"
#include "core/simulator.h"
#include "gen/iscas_profiles.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace udsim {
namespace {

std::vector<Bit> stream_for(const Netlist& nl, std::size_t vectors) {
  std::vector<Bit> bits(vectors * nl.primary_inputs().size());
  std::uint64_t x = 88172645463325252ull;
  for (auto& b : bits) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<Bit>(x & 1);
  }
  return bits;
}

TEST(TraceExport, EmptyRegistryEmitsValidEmptyDocument) {
  MetricsRegistry reg;
  const JsonValue doc = JsonValue::parse(reg.trace_to_json());
  ASSERT_TRUE(doc.is_object());
  EXPECT_TRUE(doc.at("traceEvents").is_array());
  EXPECT_TRUE(doc.at("traceEvents").array.empty());
}

TEST(TraceExport, CompileSpansAreValidCompleteEvents) {
  const Netlist nl = make_iscas85_like("c432");
  MetricsRegistry reg;
  const CompileGuard guard{CompileBudget{}, nullptr, &reg};
  auto sim = make_simulator(nl, EngineKind::ParallelCombined, guard);

  const JsonValue doc = JsonValue::parse(reg.trace_to_json());
  ASSERT_TRUE(doc.is_object());
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_FALSE(events.array.empty());
  std::set<std::string> names;
  for (const JsonValue& e : events.array) {
    ASSERT_TRUE(e.is_object());
    EXPECT_EQ(e.at("ph").string, "X");
    EXPECT_TRUE(e.at("name").is_string());
    EXPECT_TRUE(e.at("ts").is_number());
    EXPECT_TRUE(e.at("dur").is_number());
    EXPECT_TRUE(e.at("pid").is_number());
    EXPECT_TRUE(e.at("tid").is_number());
    EXPECT_GT(e.at("tid").as_u64(), 0u);
    names.insert(e.at("name").string);
  }
  // The compiler traces its phases through the guard's registry.
  EXPECT_TRUE(names.contains("compile.levelize"));
  EXPECT_TRUE(names.contains("compile.emit"));
}

TEST(TraceExport, TimestampsAreMicrosecondsWithSubMicrosecondDigits) {
  MetricsRegistry reg;
  // 1234567 ns = 1234.567 µs; 500 ns = 0.500 µs.
  reg.record_trace(TraceEvent{"a", 1234567, 1234567, 3, {}});
  reg.record_trace(TraceEvent{"b", 0, 500, 3, {{"k", 7}}});
  const std::string j = reg.trace_to_json();
  EXPECT_NE(j.find("1234.567"), std::string::npos);
  EXPECT_NE(j.find("0.500"), std::string::npos);
  const JsonValue doc = JsonValue::parse(j);
  const JsonValue& b = doc.at("traceEvents").array.at(1);
  EXPECT_DOUBLE_EQ(b.at("dur").as_double(), 0.5);
  EXPECT_EQ(b.at("args").at("k").as_u64(), 7u);
}

// Acceptance gate: a 2-thread run_batch exports a valid Chrome trace whose
// batch.shard events carry 2 distinct tids. The pool runs shard 0 on the
// calling thread and shard 1 on its one worker, so one run suffices.
TEST(TraceExport, TwoThreadBatchTraceHasTwoDistinctTids) {
  const Netlist nl = make_iscas85_like("c880");
  MetricsRegistry reg;
  const CompileGuard guard{CompileBudget{}, nullptr, &reg};
  auto sim = make_simulator(nl, EngineKind::ParallelCombined, guard);
  const std::vector<Bit> bits = stream_for(nl, 2048);

  reg.clear_trace();
  (void)sim->run_batch(bits, 2);
  const JsonValue doc = JsonValue::parse(reg.trace_to_json());
  std::set<std::uint64_t> tids;
  std::size_t shards = 0;
  for (const JsonValue& e : doc.at("traceEvents").array) {
    if (e.at("name").string == "batch.shard") {
      tids.insert(e.at("tid").as_u64());
      ++shards;
    }
  }
  EXPECT_EQ(shards, 2u);
  EXPECT_EQ(tids.size(), 2u);
}

TEST(TraceExport, ClearTraceEmptiesTheBuffer) {
  MetricsRegistry reg;
  { TraceSpan span(&reg, "x"); }
  EXPECT_FALSE(reg.trace_events().empty());
  reg.clear_trace();
  EXPECT_TRUE(reg.trace_events().empty());
  // Counters survive a trace clear.
  EXPECT_EQ(reg.counter("x.calls").value(), 1u);
}

}  // namespace
}  // namespace udsim
