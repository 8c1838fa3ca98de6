// Tests of the benchmark's own code: span self time, the Chrome-trace
// writer, the output checks on corrupted inputs, and the simulation
// fingerprint's dependence on the seed (at reduced workload sizes).

#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <sstream>

#include "checks.hpp"
#include "obs/json_check.hpp"
#include "trace.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

Span span(std::string name, std::int64_t parent, double start, double end) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.start_s = start;
  s.end_s = end;
  return s;
}

}  // namespace

TEST(PerfbenchTrace, SelfTimeSubtractsCoveredChildIntervalsOnce) {
  const std::vector<Span> spans = {
      span("root", -1, 0, 10),
      span("a", 0, 1, 3),
      span("b", 0, 2, 5),   // overlaps a: [1, 5] is covered once
      span("c", 0, 8, 12),  // sticks out of the root: clipped to [8, 10]
      span("a.kid", 1, 1.5, 2),
  };
  const std::vector<double> self = self_times(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_DOUBLE_EQ(self[0], 10 - 4 - 2);
  EXPECT_DOUBLE_EQ(self[1], 2 - 0.5);
  EXPECT_DOUBLE_EQ(self[2], 3);
  EXPECT_DOUBLE_EQ(self[3], 4);
  EXPECT_DOUBLE_EQ(self[4], 0.5);

  const auto by_name = totals_by_name(spans);
  EXPECT_DOUBLE_EQ(by_name.at("root").self_s, 4);
  EXPECT_DOUBLE_EQ(by_name.at("root").total_s, 10);
  EXPECT_EQ(by_name.at("a").count, 1u);
}

TEST(PerfbenchTrace, TracerNestsSpansAndWritesValidChromeJson) {
  Tracer tr{true};
  const auto outer = tr.begin("outer");
  const auto inner = tr.begin("in\"ner");
  EXPECT_GE(tr.end(inner, {{"faults", 3}}), 0.0);
  tr.end(outer);
  ASSERT_EQ(tr.spans().size(), 2u);
  EXPECT_EQ(tr.spans()[0].parent, -1);
  EXPECT_EQ(tr.spans()[1].parent, 0);
  const std::string json = chrome_trace_json(tr.spans());
  std::string err;
  EXPECT_TRUE(ghum::obs::json_valid(json, &err)) << err;

  Tracer off{false};
  EXPECT_EQ(off.end(off.begin("x")), 0.0);
  EXPECT_TRUE(off.spans().empty());
}

TEST(PerfbenchMetrics, TracedRunPrintsExactlyTheDeclaredPerLayerMetrics) {
  std::ifstream in{PERFBENCH_BENCHMARK_JSON};
  ASSERT_TRUE(in) << PERFBENCH_BENCHMARK_JSON;
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  const std::size_t per_layer = json.find("\"per_layer\"");
  ASSERT_NE(per_layer, std::string::npos);
  const std::regex entry{R"re("name": "([^"]+)", "unit": "([^"]+)")re"};
  std::vector<MetricDef> declared;
  for (auto it = std::sregex_iterator(json.begin() + static_cast<std::ptrdiff_t>(per_layer),
                                      json.end(), entry);
       it != std::sregex_iterator(); ++it) {
    declared.push_back({(*it)[1].str(), (*it)[2].str()});
  }
  ASSERT_EQ(declared.size(), layer_metrics().size());
  for (std::size_t i = 0; i < declared.size(); ++i) {
    EXPECT_EQ(declared[i].name, layer_metrics()[i].name);
    EXPECT_EQ(declared[i].unit, layer_metrics()[i].unit);
  }
}

TEST(PerfbenchChecks, GridCheckFlagsModeChecksumMismatchAndOom) {
  std::vector<CellOutcome> cells;
  for (const auto mode : {ghum::apps::MemMode::kExplicit, ghum::apps::MemMode::kManaged,
                          ghum::apps::MemMode::kSystem}) {
    cells.push_back({"srad", mode, 1.0, ghum::Status::kSuccess, 0xabc});
  }
  cells.push_back({"qvsim21", ghum::apps::MemMode::kManaged, 1.5,
                   ghum::Status::kSuccess, 0x123});
  EXPECT_TRUE(failed_grid_cells(cells).empty());

  auto corrupt = cells;
  corrupt[2].checksum ^= 1;
  EXPECT_EQ(failed_grid_cells(corrupt), std::vector<std::size_t>{2});

  auto oom = cells;
  oom[3].status = ghum::Status::kErrorMemoryAllocation;
  EXPECT_EQ(failed_grid_cells(oom), std::vector<std::size_t>{3});
}

TEST(PerfbenchChecks, SweepCheckFlagsFragmentationAndRssGrowth) {
  const SweepOutcome good{16ull << 33, 2, 40ull << 20};
  EXPECT_TRUE(sweep_ok(good));
  SweepOutcome frag = good;
  frag.extents = kMaxSweepExtents + 1;
  std::string why;
  EXPECT_FALSE(sweep_ok(frag, &why));
  EXPECT_NE(why.find("extents"), std::string::npos);
  SweepOutcome rss = good;
  rss.rss_growth_bytes = rss.footprint / kSweepRssDivisor;
  EXPECT_FALSE(sweep_ok(rss));
}

TEST(PerfbenchChecks, StormCheckFlagsWrongSoloChecksumLostJobsAndFalseDeaths) {
  StormOutcome good;
  good.requests = 3;
  good.solo_checksums = {11, 22};
  good.jobs = {{0, true, false, 11}, {1, true, false, 22}, {1, false, true, 0}};
  good.scheduled_deaths = good.node_losses = good.detected_losses = 2;
  EXPECT_TRUE(storm_ok(good));

  StormOutcome wrong_solo = good;
  wrong_solo.solo_checksums[1] = 23;
  EXPECT_FALSE(storm_ok(wrong_solo));

  StormOutcome lost = good;
  lost.jobs[2].failed = false;  // neither finished nor failed
  EXPECT_FALSE(storm_ok(lost));

  StormOutcome false_death = good;
  false_death.detected_losses = 3;
  EXPECT_FALSE(storm_ok(false_death));

  StormOutcome undetected = good;
  undetected.detected_losses = 1;
  EXPECT_FALSE(storm_ok(undetected));
}

TEST(PerfbenchFingerprint, StormIsStableForOneSeedAndDiffersForAnother) {
  Tracer off{false};
  const StormSpec small{150};
  const PassResult a = make_storm(1, small)->pass(off);
  const PassResult b = make_storm(1, small)->pass(off);
  const PassResult c = make_storm(2, small)->pass(off);
  EXPECT_EQ(a.failed, 0u) << (a.failures.empty() ? "" : a.failures[0]);
  EXPECT_EQ(c.failed, 0u) << (c.failures.empty() ? "" : c.failures[0]);
  EXPECT_EQ(a.ops, 150u);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_NE(a.fingerprint, c.fingerprint);
}

TEST(PerfbenchFingerprint, GridIsStableForOneSeedAndDiffersForAnother) {
  Tracer off{false};
  const GridSpec small{ghum::benchsupport::Scale::kSmall, {12}};
  auto w = make_grid(1, small);
  const PassResult a = w->pass(off);
  const PassResult b = w->pass(off);
  const PassResult c = make_grid(2, small)->pass(off);
  EXPECT_EQ(a.failed, 0u) << (a.failures.empty() ? "" : a.failures[0]);
  EXPECT_EQ(c.failed, 0u) << (c.failures.empty() ? "" : c.failures[0]);
  EXPECT_EQ(a.attempted, 16u);
  EXPECT_GT(a.ops, 0u);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_NE(a.fingerprint, c.fingerprint);
}

TEST(PerfbenchFingerprint, TracedGridPassSimulatesTheSameMachine) {
  Tracer off{false};
  Tracer on{true};
  const GridSpec small{ghum::benchsupport::Scale::kSmall, {12}};
  auto w = make_grid(1, small);
  const PassResult plain = w->pass(off);
  const PassResult traced = w->pass(on);
  EXPECT_EQ(traced.failed, 0u) << (traced.failures.empty() ? "" : traced.failures[0]);
  EXPECT_EQ(plain.fingerprint, traced.fingerprint);
  EXPECT_GT(traced.layer.at("chk.snapshot_bytes"), 0.0);
  EXPECT_GT(traced.layer.at("apps.srad.host_s"), 0.0);
}

TEST(PerfbenchFingerprint, SweepHasNoRandomness) {
  Tracer off{false};
  const SweepSpec small{30};
  const PassResult a = make_sweep(small)->pass(off);
  const PassResult b = make_sweep(small)->pass(off);
  EXPECT_EQ(a.failed, 0u) << (a.failures.empty() ? "" : a.failures[0]);
  EXPECT_EQ(a.ops, 3u * ((16ull << 30) >> 16));
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}
