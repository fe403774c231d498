// History independence of a benchmark run: every operating point resets
// the engine to its post-load state first (paper Section 6.1), so what a
// point measures must not depend on which points ran before it, on the
// same engine or on another one. Each engine kind runs the same fixed
// points forward, reversed, and interleaved with the points of a second
// engine of the same kind, with one Vacuum between two points of every
// order; each point's metrics snapshot and Chrome trace must be
// byte-identical in all three orders.

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench/support.h"
#include "fault/fault_injector.h"
#include "obs/trace.h"

namespace hattrick {
namespace {

using bench::EngineKind;

struct Leg {
  const char* name;
  EngineKind kind;
  PhysicalSchema schema;
  const char* fault_profile;  // nullptr: no faults
  MergeMode merge_mode;
};

const Leg kLegs[] = {
    {"postgres", EngineKind::kPostgres, PhysicalSchema::kAllIndexes, nullptr,
     MergeMode::kEager},
    {"postgres_sr", EngineKind::kPostgresSR, PhysicalSchema::kAllIndexes,
     nullptr, MergeMode::kEager},
    {"postgres_sr_chaos", EngineKind::kPostgresSR,
     PhysicalSchema::kAllIndexes, "chaos", MergeMode::kEager},
    {"system_x_eager", EngineKind::kSystemX, PhysicalSchema::kSemiIndexes,
     nullptr, MergeMode::kEager},
    {"system_x_bitmap", EngineKind::kSystemX, PhysicalSchema::kSemiIndexes,
     nullptr, MergeMode::kBitmap},
    {"tidb_dist", EngineKind::kTidbDist, PhysicalSchema::kSemiIndexes,
     nullptr, MergeMode::kEager},
};

/// Fixed operating points (T clients, A clients), each with its own seed.
const std::pair<int, int> kPoints[] = {{2, 1}, {4, 2}, {1, 2}, {3, 0}};
constexpr size_t kNumPoints = sizeof(kPoints) / sizeof(kPoints[0]);

void PrintTo(const Leg& leg, std::ostream* os) { *os << leg.name; }

struct Output {
  std::string metrics;
  std::string trace;
};

bench::BenchEnv Load(const Leg& leg) {
  FaultConfig fault;
  if (leg.fault_profile != nullptr) {
    StatusOr<FaultConfig> parsed = MakeFaultProfile(leg.fault_profile, 13);
    EXPECT_TRUE(parsed.ok());
    fault = std::move(parsed).value();
  }
  return bench::MakeEnv(leg.kind, /*scale_factor=*/0.25, leg.schema, fault,
                        leg.merge_mode, /*shards=*/3);
}

Output RunPoint(bench::BenchEnv* env, size_t point) {
  WorkloadConfig config;
  config.t_clients = kPoints[point].first;
  config.a_clients = kPoints[point].second;
  config.warmup_seconds = 0.05;
  config.measure_seconds = 0.2;
  config.seed = 100 + point;
  obs::Tracer tracer;
  env->driver->SetTracer(&tracer);
  const RunMetrics metrics = env->driver->Run(config);
  env->driver->SetTracer(nullptr);
  return Output{metrics.observed.ToJson(), tracer.ToChromeJson()};
}

/// Runs `schedule` (engine index, point) in order, vacuuming the engine
/// of the third step right before it runs; returns engine 0's outputs by
/// point.
std::vector<Output> RunSchedule(
    const std::vector<bench::BenchEnv*>& engines,
    const std::vector<std::pair<size_t, size_t>>& schedule) {
  std::vector<Output> outputs(kNumPoints);
  for (size_t step = 0; step < schedule.size(); ++step) {
    const auto [engine, point] = schedule[step];
    if (step == 2) engines[engine]->engine->Vacuum();
    Output out = RunPoint(engines[engine], point);
    if (engine == 0) outputs[point] = std::move(out);
  }
  return outputs;
}

/// Equal, or a failure naming the first differing byte and its context
/// (the outputs run to megabytes; printing them whole helps no one).
::testing::AssertionResult SameBytes(const std::string& got,
                                     const std::string& want) {
  if (got == want) return ::testing::AssertionSuccess();
  size_t at = 0;
  while (at < got.size() && at < want.size() && got[at] == want[at]) ++at;
  const size_t from = at < 60 ? 0 : at - 60;
  return ::testing::AssertionFailure()
         << "sizes " << got.size() << " vs " << want.size()
         << ", first difference at byte " << at << "\n  got:  ..."
         << got.substr(from, 120) << "\n  want: ..." << want.substr(from, 120);
}

class HistoryTest : public ::testing::TestWithParam<Leg> {};

TEST_P(HistoryTest, PointsIndependentOfRunOrder) {
  const Leg& leg = GetParam();
  bench::BenchEnv first = Load(leg);
  bench::BenchEnv second = Load(leg);
  const std::vector<bench::BenchEnv*> engines = {&first, &second};

  std::vector<std::pair<size_t, size_t>> forward;
  std::vector<std::pair<size_t, size_t>> reversed;
  std::vector<std::pair<size_t, size_t>> interleaved;
  for (size_t p = 0; p < kNumPoints; ++p) {
    forward.push_back({0, p});
    reversed.push_back({0, kNumPoints - 1 - p});
    interleaved.push_back({0, p});
    interleaved.push_back({1, kNumPoints - 1 - p});
  }
  const std::vector<Output> want = RunSchedule(engines, forward);
  const std::pair<const char*, std::vector<Output>> others[] = {
      {"reversed", RunSchedule(engines, reversed)},
      {"interleaved", RunSchedule(engines, interleaved)},
  };
  for (const auto& [order, got] : others) {
    for (size_t p = 0; p < kNumPoints; ++p) {
      SCOPED_TRACE(std::string(order) + " point " + std::to_string(p));
      ASSERT_FALSE(want[p].metrics.empty());
      EXPECT_TRUE(SameBytes(got[p].metrics, want[p].metrics)) << "metrics";
      EXPECT_TRUE(SameBytes(got[p].trace, want[p].trace)) << "trace";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, HistoryTest, ::testing::ValuesIn(kLegs),
    [](const ::testing::TestParamInfo<Leg>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace hattrick
