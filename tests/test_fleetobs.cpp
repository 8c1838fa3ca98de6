#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "apps/hotspot.hpp"
#include "fleet/arrival.hpp"
#include "fleet/controller.hpp"
#include "obs/alerts.hpp"
#include "obs/fleet_trace.hpp"
#include "obs/json_check.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "tenant/scheduler.hpp"

/// Fleet observability tests (DESIGN.md Section 13): the deterministic
/// flight recorder, the SLO alert engine on top of it, the cross-node
/// causal trace exporter, and the fleet controller integration — federated
/// metrics, alert firings in the digest, and a root span that demonstrably
/// crosses a node boundary through a loss-replay chain.

namespace ghum {
namespace {

constexpr sim::Picos kFar = sim::milliseconds(10'000);

// ---------------------------------------------------------------------------
// TimeSeries: the flight recorder.
// ---------------------------------------------------------------------------

TEST(TimeSeries, EdgesAreCadenceMultiplesIndependentOfChopping) {
  // Two recorders over the same deterministic sampler, one advanced in a
  // single jump and one in ragged slices: identical edges, values, digest.
  auto build = [](const std::vector<sim::Picos>& steps) {
    obs::TimeSeries ts{100};
    std::int64_t v = 0;
    ts.add("ticks", [&v] { return ++v; });
    for (sim::Picos t : steps) ts.advance(t);
    return ts.digest();
  };
  EXPECT_EQ(build({1000}), build({1, 99, 100, 101, 350, 350, 999, 1000}));

  obs::TimeSeries ts{100};
  ts.add("zero", [] { return 0; });
  ts.advance(1000);
  ASSERT_EQ(ts.size(), 11u);  // edges 0, 100, ..., 1000
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(ts.time_at(i), static_cast<sim::Picos>(100 * i));
  }
  EXPECT_EQ(ts.last_edge(), 1000);
  // Advancing backwards (or to the same time) samples nothing new.
  ts.advance(1000);
  ts.advance(500);
  EXPECT_EQ(ts.size(), 11u);
}

TEST(TimeSeries, RingOverwritesOldestAndCountsDrops) {
  obs::TimeSeries ts{10, 4};
  std::int64_t v = 0;
  const std::size_t s = ts.add("v", [&v] { return v; });
  for (int i = 0; i <= 9; ++i) {
    v = i;
    ts.advance(10 * i);
  }
  // 10 edges (0..90) through a capacity-4 ring: 6 dropped, newest 4 kept.
  EXPECT_EQ(ts.size(), 4u);
  EXPECT_EQ(ts.dropped(), 6u);
  EXPECT_EQ(ts.time_at(0), 60);
  EXPECT_EQ(ts.time_at(3), 90);
  EXPECT_EQ(ts.value_at(s, 0), 6);
  EXPECT_EQ(ts.value_at(s, 3), 9);
}

TEST(TimeSeries, WindowAggregatesRetainedSamplesOnly) {
  obs::TimeSeries ts{10};
  std::int64_t v = 0;
  const std::size_t s = ts.add("v", [&v] { return v; });
  for (int i = 0; i <= 5; ++i) {
    v = i * i;  // 0 1 4 9 16 25 at t = 0 10 20 30 40 50
    ts.advance(10 * i);
  }
  const obs::SeriesWindow w = ts.window(s, 10, 40);
  EXPECT_EQ(w.count, 4u);
  EXPECT_EQ(w.min, 1);
  EXPECT_EQ(w.max, 16);
  EXPECT_EQ(w.sum, 30);
  EXPECT_EQ(w.avg(), 7);
  EXPECT_EQ(ts.window(s, 1000, 2000).count, 0u);
  EXPECT_EQ(ts.window(obs::TimeSeries::kNoSeries, 0, 100).count, 0u);
}

TEST(TimeSeries, LateRegisteredSeriesReadsZeroForMissedEdges) {
  obs::TimeSeries ts{10};
  ts.add("early", [] { return 7; });
  ts.advance(20);
  const std::size_t late = ts.add("late", [] { return 9; });
  ts.advance(40);
  ASSERT_EQ(ts.size(), 5u);
  EXPECT_EQ(ts.value_at(late, 0), 0);  // edge 0: series did not exist yet
  EXPECT_EQ(ts.value_at(late, 2), 0);  // edge 20
  EXPECT_EQ(ts.value_at(late, 3), 9);  // edge 30: first sampled edge
}

TEST(TimeSeries, ExportsParseAndAreDeterministic) {
  auto build = [] {
    obs::TimeSeries ts{100};
    std::int64_t v = 0;
    ts.add("a.b-c", [&v] { return v += 3; });
    ts.add("d", [&v] { return -v; });
    ts.advance(500);
    return ts;
  };
  const obs::TimeSeries t1 = build();
  const obs::TimeSeries t2 = build();
  EXPECT_EQ(t1.to_tsv(), t2.to_tsv());
  EXPECT_EQ(t1.to_json(), t2.to_json());
  EXPECT_EQ(t1.digest(), t2.digest());
  std::string err;
  EXPECT_TRUE(obs::json_valid(t1.to_json(), &err)) << err;
  EXPECT_EQ(t1.to_tsv().substr(0, 18), "time_ps\ta.b-c\td\n0\t");
  EXPECT_EQ(t1.find("d"), 1u);
  EXPECT_EQ(t1.find("nope"), obs::TimeSeries::kNoSeries);
}

// ---------------------------------------------------------------------------
// AlertEngine: threshold / for-duration / burn-window semantics.
// ---------------------------------------------------------------------------

obs::AlertRule above(std::string name, std::string instr, std::int64_t thr,
                     sim::Picos for_d = 0, sim::Picos burn = 0) {
  obs::AlertRule r;
  r.name = std::move(name);
  r.instrument = std::move(instr);
  r.predicate = obs::AlertPredicate::kAbove;
  r.threshold = thr;
  r.for_duration = for_d;
  r.burn_window = burn;
  return r;
}

TEST(AlertEngine, OpensAfterForDurationAndClosesOnRecovery) {
  obs::TimeSeries ts{10};
  std::int64_t v = 0;
  ts.add("depth", [&v] { return v; });
  obs::AlertEngine eng{ts, {above("deep", "depth", 5, 20)}};

  v = 9;            // breach starts at edge 0
  ts.advance(10);   // edges 0, 10: breach held 10 < 20 — not open yet
  EXPECT_EQ(eng.evaluate(), 0u);
  EXPECT_FALSE(eng.is_open(0));
  ts.advance(20);   // edge 20: breach has held 20 — opens
  EXPECT_EQ(eng.evaluate(), 1u);
  EXPECT_TRUE(eng.is_open(0));
  EXPECT_EQ(eng.open_count(), 1u);
  v = 5;            // exactly at threshold: kAbove requires strictly >
  ts.advance(30);
  EXPECT_EQ(eng.evaluate(), 1u);
  EXPECT_FALSE(eng.is_open(0));

  ASSERT_EQ(eng.events().size(), 2u);
  EXPECT_EQ(eng.events()[0].time, 20);
  EXPECT_TRUE(eng.events()[0].open);
  EXPECT_EQ(eng.events()[0].value, 9);
  EXPECT_EQ(eng.events()[1].time, 30);
  EXPECT_FALSE(eng.events()[1].open);
}

TEST(AlertEngine, BreachRunResetsWhenValueRecovers) {
  obs::TimeSeries ts{10};
  std::int64_t v = 0;
  ts.add("depth", [&v] { return v; });
  obs::AlertEngine eng{ts, {above("deep", "depth", 5, 20)}};
  // Breach, dip, breach again: the for-duration clock restarts at the dip.
  v = 9;
  ts.advance(10);
  v = 0;
  ts.advance(20);
  v = 9;
  ts.advance(30);
  eng.evaluate();
  EXPECT_FALSE(eng.is_open(0)) << "dip at t=20 must reset the breach run";
  ts.advance(50);  // breach has now held 30..50 >= 20
  eng.evaluate();
  EXPECT_TRUE(eng.is_open(0));
}

TEST(AlertEngine, BurnWindowAveragesIgnoreSingleEdgeSpikes) {
  obs::TimeSeries ts{10};
  std::int64_t v = 0;
  ts.add("rate", [&v] { return v; });
  // Instantaneous twin vs a 40 ps trailing-average twin of the same rule.
  obs::AlertEngine eng{
      ts, {above("spiky", "rate", 10), above("burn", "rate", 10, 0, 40)}};
  v = 100;          // spike over edges 0 and 10
  ts.advance(10);
  v = 0;
  ts.advance(30);
  eng.evaluate();
  // The instantaneous rule opened on the spike and closed right after it;
  // the burn rule is still open — the trailing average at edge 30 is
  // avg{100,100,0,0} = 50, well above threshold.
  ASSERT_GE(eng.events().size(), 2u);
  EXPECT_EQ(eng.events()[0].rule, 0u);
  EXPECT_TRUE(eng.events()[0].open);
  EXPECT_FALSE(eng.is_open(0));
  EXPECT_TRUE(eng.is_open(1));
  // Once the spike slides out of the 40 ps window the burn rule closes too.
  ts.advance(50);
  eng.evaluate();
  EXPECT_FALSE(eng.is_open(1));
  // Sustained load keeps the burn rule open.
  v = 50;
  ts.advance(200);
  eng.evaluate();
  EXPECT_TRUE(eng.is_open(1));
}

TEST(AlertEngine, UnresolvedInstrumentsAreReportedAndNeverFire) {
  obs::TimeSeries ts{10};
  ts.add("real", [] { return 100; });
  obs::AlertEngine eng{ts, {above("ok", "real", 1), above("bad", "ghost", 1)}};
  ASSERT_EQ(eng.unresolved().size(), 1u);
  EXPECT_EQ(eng.unresolved()[0], 1u);
  ts.advance(100);
  eng.evaluate();
  EXPECT_TRUE(eng.is_open(0));
  EXPECT_FALSE(eng.is_open(1));
  for (const obs::AlertEvent& e : eng.events()) EXPECT_NE(e.rule, 1u);
}

TEST(AlertEngine, DigestIsBitIdenticalAcrossEqualRuns) {
  auto run = [] {
    obs::TimeSeries ts{10};
    std::int64_t v = 0;
    ts.add("v", [&v] { return v; });
    obs::AlertEngine eng{ts, {above("a", "v", 3, 20)}};
    for (int i = 1; i <= 20; ++i) {
      v = (i % 7) - 1;
      ts.advance(10 * i);
      eng.evaluate();
    }
    return eng.digest();
  };
  EXPECT_EQ(run(), run());
}

// ---------------------------------------------------------------------------
// Differential: binary-searched ring queries vs brute-force scans.
// ---------------------------------------------------------------------------

obs::SeriesWindow brute_window(const obs::TimeSeries& ts, std::size_t series,
                               sim::Picos t0, sim::Picos t1) {
  obs::SeriesWindow w;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const sim::Picos t = ts.time_at(i);
    if (t < t0 || t > t1) continue;
    const std::int64_t v = ts.value_at(series, i);
    if (w.count == 0 || v < w.min) w.min = v;
    if (w.count == 0 || v > w.max) w.max = v;
    w.sum += v;
    ++w.count;
  }
  return w;
}

/// The alert semantics evaluated by scanning every retained edge, with
/// burn windows aggregated by brute_window.
struct BruteAlerts {
  BruteAlerts(const obs::TimeSeries& t, std::vector<obs::AlertRule> r)
      : ts(&t),
        rules(std::move(r)),
        open(rules.size(), false),
        since(rules.size(), -1) {}

  const obs::TimeSeries* ts;
  std::vector<obs::AlertRule> rules;
  std::vector<bool> open;
  std::vector<sim::Picos> since;
  std::vector<obs::AlertEvent> events;
  sim::Picos consumed = -1;

  void evaluate() {
    for (std::size_t i = 0; i < ts->size(); ++i) {
      const sim::Picos edge = ts->time_at(i);
      if (edge <= consumed) continue;
      for (std::uint32_t ri = 0; ri < rules.size(); ++ri) {
        const obs::AlertRule& r = rules[ri];
        const std::size_t s = ts->find(r.instrument);
        std::int64_t v = ts->value_at(s, i);
        if (r.burn_window > 0) {
          const obs::SeriesWindow w =
              brute_window(*ts, s, edge - r.burn_window + 1, edge);
          if (w.count != 0) v = w.avg();
        }
        const bool breach = r.predicate == obs::AlertPredicate::kAbove
                                ? v > r.threshold
                                : v < r.threshold;
        if (breach) {
          if (since[ri] < 0) since[ri] = edge;
          if (!open[ri] && edge - since[ri] >= r.for_duration) {
            open[ri] = true;
            events.push_back({edge, ri, true, v});
          }
        } else {
          since[ri] = -1;
          if (open[ri]) {
            open[ri] = false;
            events.push_back({edge, ri, false, v});
          }
        }
      }
      consumed = edge;
    }
  }
};

TEST(TimeSeries, RingSearchesMatchBruteForceOnWrappedRings) {
  std::mt19937_64 rng{0xa1e27};
  const auto below = [&rng](std::uint64_t n) { return rng() % n; };
  const auto between = [&rng](sim::Picos lo, sim::Picos hi) {
    return lo + static_cast<sim::Picos>(
                    rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };
  std::size_t wrapped = 0;
  std::size_t windows = 0;
  std::size_t transitions = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const auto cadence = static_cast<sim::Picos>(1 + below(20));
    obs::TimeSeries ts{cadence, 1 + below(24)};
    std::vector<std::int64_t> vals(1 + below(3));
    for (std::size_t s = 0; s < vals.size(); ++s) {
      ts.add("s" + std::to_string(s), [&vals, s] { return vals[s]; });
    }
    std::vector<obs::AlertRule> rules(1 + below(4));
    for (std::size_t ri = 0; ri < rules.size(); ++ri) {
      obs::AlertRule& r = rules[ri];
      r.name = "r" + std::to_string(ri);
      r.instrument = "s" + std::to_string(below(vals.size()));
      r.predicate = below(2) == 0 ? obs::AlertPredicate::kAbove
                                  : obs::AlertPredicate::kBelow;
      r.threshold = static_cast<std::int64_t>(below(12));
      r.for_duration = between(0, 3 * cadence);
      r.burn_window = below(2) == 0 ? 0 : between(1, 8 * cadence);
    }
    obs::AlertEngine eng{ts, rules};
    BruteAlerts ref{ts, rules};

    sim::Picos now = 0;
    for (int step = 0; step < 60; ++step) {
      for (std::int64_t& v : vals) v = static_cast<std::int64_t>(below(12));
      now += between(0, 4 * cadence);
      ts.advance(now);
      // Skipped evaluations let the ring wrap past unconsumed edges.
      if (below(3) != 0) {
        eng.evaluate();
        ref.evaluate();
      }
      for (int q = 0; q < 4; ++q) {
        const std::size_t s = below(vals.size());
        const sim::Picos t0 = between(-cadence, now + cadence);
        const sim::Picos t1 = t0 + between(-cadence, 6 * cadence);
        const obs::SeriesWindow got = ts.window(s, t0, t1);
        const obs::SeriesWindow want = brute_window(ts, s, t0, t1);
        ASSERT_EQ(got.count, want.count)
            << "trial " << trial << " [" << t0 << ", " << t1 << "]";
        ASSERT_EQ(got.min, want.min);
        ASSERT_EQ(got.max, want.max);
        ASSERT_EQ(got.sum, want.sum);
        windows += want.count > 0 ? 1 : 0;
      }
    }
    eng.evaluate();
    ref.evaluate();
    ASSERT_EQ(eng.events().size(), ref.events.size()) << "trial " << trial;
    for (std::size_t e = 0; e < ref.events.size(); ++e) {
      EXPECT_EQ(eng.events()[e].time, ref.events[e].time) << trial;
      EXPECT_EQ(eng.events()[e].rule, ref.events[e].rule) << trial;
      EXPECT_EQ(eng.events()[e].open, ref.events[e].open) << trial;
      EXPECT_EQ(eng.events()[e].value, ref.events[e].value) << trial;
    }
    wrapped += ts.dropped() > 0 ? 1 : 0;
    transitions += ref.events.size();
  }
  EXPECT_GT(wrapped, 150u);
  EXPECT_GT(windows, 1000u);
  EXPECT_GT(transitions, 500u);
}

// ---------------------------------------------------------------------------
// Fleet trace export.
// ---------------------------------------------------------------------------

TEST(FleetTrace, ExportParsesWithHostileLabelsAndRendersLanes) {
  std::vector<obs::FleetTraceEvent> ev;
  obs::FleetTraceEvent a;
  a.time = sim::microseconds(1);
  a.kind = obs::FleetTraceKind::kArrival;
  a.label = "we\"ird\\na\nme\x01";  // must not break the JSON
  ev.push_back(a);
  obs::FleetTraceEvent p;
  p.time = sim::microseconds(2);
  p.kind = obs::FleetTraceKind::kPlacement;
  p.node = 0;
  p.tenant = 3;
  ev.push_back(p);
  obs::FleetTraceEvent f;
  f.time = sim::microseconds(3);
  f.duration = sim::microseconds(1);
  f.kind = obs::FleetTraceKind::kLinkFlap;
  ev.push_back(f);

  const std::string json = obs::export_fleet_trace(ev, 2);
  std::string err;
  ASSERT_TRUE(obs::json_valid(json, &err)) << err;
  EXPECT_NE(json.find("fleet control"), std::string::npos);
  EXPECT_NE(json.find("node 0"), std::string::npos);
  EXPECT_NE(json.find("node 1"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << "no duration events";
}

TEST(FleetTrace, FlowArrowsCrossNodeLanesPerRootSpan) {
  // One root span born on node 0 that finishes on node 1: the exporter
  // must chain s -> t -> f across the two pid lanes.
  std::vector<obs::FleetTraceEvent> ev;
  const obs::TraceContext ctx{42, 0};
  obs::FleetTraceEvent loss;
  loss.time = 10;
  loss.kind = obs::FleetTraceKind::kNodeLoss;
  loss.node = 0;
  loss.ctx = ctx;
  ev.push_back(loss);
  obs::FleetTraceEvent retry;
  retry.time = 20;
  retry.kind = obs::FleetTraceKind::kReplacementRetry;
  retry.ctx = ctx;
  ev.push_back(retry);
  obs::FleetTraceEvent fin;
  fin.time = 30;
  fin.kind = obs::FleetTraceKind::kJobFinish;
  fin.node = 1;
  fin.tenant = 2;
  fin.ctx = ctx;
  ev.push_back(fin);

  const std::string json = obs::export_fleet_trace(ev, 2);
  std::string err;
  ASSERT_TRUE(obs::json_valid(json, &err)) << err;
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos) << "no flow start";
  EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos) << "no flow step";
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos) << "no flow finish";
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);

  obs::FleetTraceOptions flat;
  flat.flow_events = false;
  const std::string noflow = obs::export_fleet_trace(ev, 2, flat);
  EXPECT_EQ(noflow.find("\"ph\":\"s\""), std::string::npos);
  ASSERT_TRUE(obs::json_valid(noflow, &err)) << err;
}

// ---------------------------------------------------------------------------
// Fleet controller integration.
// ---------------------------------------------------------------------------

core::SystemConfig node_cfg() {
  core::SystemConfig cfg;
  cfg.system_page_size = pagetable::kSystemPage64K;
  cfg.hbm_capacity = 16ull << 20;
  cfg.ddr_capacity = 256ull << 20;
  cfg.gpu_driver_baseline = 1ull << 20;
  cfg.event_log = true;
  return cfg;
}

struct Solo {
  sim::Picos end = 0;
  std::uint64_t checksum = 0;
};

const Solo& solo() {
  static const Solo s = [] {
    core::System sys{node_cfg()};
    tenant::Scheduler sched{sys, {}};
    tenant::JobSpec spec;
    spec.name = "hotspot";
    spec.mode = apps::MemMode::kManaged;
    spec.footprint_bytes = 1ull << 20;
    spec.make = [](runtime::Runtime& rt) {
      apps::HotspotConfig h;
      h.rows = 128;
      h.cols = 128;
      h.iterations = 3;
      return apps::hotspot_steps(rt, apps::MemMode::kManaged, h);
    };
    tenant::TenantId id = tenant::kNoTenant;
    (void)sched.submit(std::move(spec), &id);
    sched.run_all();
    return Solo{sys.now(), sched.job(id).report.checksum};
  }();
  return s;
}

std::vector<fleet::JobTemplate> catalog() {
  fleet::JobTemplate t;
  t.name = "hotspot";
  t.mode = apps::MemMode::kManaged;
  t.make = [](runtime::Runtime& rt) {
    apps::HotspotConfig h;
    h.rows = 128;
    h.cols = 128;
    h.iterations = 3;
    return apps::hotspot_steps(rt, apps::MemMode::kManaged, h);
  };
  t.footprint_bytes = 1ull << 20;
  t.est_cost = solo().end;
  t.solo_checksum = solo().checksum;
  return {t};
}

fleet::FleetConfig obs_fleet(std::uint32_t nodes) {
  fleet::FleetConfig f;
  f.nodes = nodes;
  f.spares = 0;
  f.node_config = node_cfg();
  f.scheduler.policy = tenant::Policy::kPriority;
  f.obs.enabled = true;
  f.obs.cadence = solo().end / 8;
  return f;
}

fleet::JobRequest make_req(std::uint64_t id, sim::Picos arrival) {
  fleet::JobRequest r;
  r.id = id;
  r.arrival = arrival;
  r.tmpl = 0;
  r.priority = 0;
  r.deadline = kFar;
  r.replicas = 1;
  return r;
}

std::vector<fleet::JobRequest> stream(std::uint64_t n, sim::Picos gap) {
  std::vector<fleet::JobRequest> out;
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(make_req(i, gap * i));
  return out;
}

TEST(FleetObs, RecorderSamplesNodeAndFleetSeriesDuringRun) {
  fleet::Controller ctl{obs_fleet(2), catalog()};
  ASSERT_EQ(ctl.run(stream(6, solo().end / 2)), Status::kSuccess);
  const obs::TimeSeries* ts = ctl.recorder();
  ASSERT_NE(ts, nullptr);
  EXPECT_GT(ts->size(), 0u);
  for (const char* name :
       {"node0.placed_bytes", "node0.live_jobs", "node0.queue_depth",
        "node0.gpu_used_bytes", "node1.live_jobs", "fleet.pending_jobs",
        "class0.slo_attainment_permille", "fabric.total_bytes"}) {
    EXPECT_NE(ts->find(name), obs::TimeSeries::kNoSeries) << name;
  }
  // Something actually happened on node 0 at some edge.
  const obs::SeriesWindow w =
      ts->window(ts->find("node0.live_jobs"), 0, ts->last_edge());
  EXPECT_GT(w.max, 0);
  // SLO attainment starts at the all-on-time sentinel and stays a permille.
  const obs::SeriesWindow slo =
      ts->window(ts->find("class0.slo_attainment_permille"), 0, ts->last_edge());
  EXPECT_LE(slo.max, 1000);
  EXPECT_GE(slo.min, 0);
  std::string err;
  EXPECT_TRUE(obs::json_valid(ts->to_json(), &err)) << err;
}

TEST(FleetObs, DisabledObsKeepsRecorderAlertsAndTraceEmpty) {
  fleet::FleetConfig f = obs_fleet(2);
  f.obs.enabled = false;
  fleet::Controller ctl{f, catalog()};
  ASSERT_EQ(ctl.run(stream(2, solo().end)), Status::kSuccess);
  EXPECT_EQ(ctl.recorder(), nullptr);
  EXPECT_EQ(ctl.alert_engine(), nullptr);
  EXPECT_TRUE(ctl.trace_events().empty());
  for (const fleet::FleetJob& j : ctl.jobs()) {
    EXPECT_FALSE(j.ctx.traced());
  }
}

TEST(FleetObs, QueueDepthAlertFiresDeterministically) {
  auto run = [](std::uint64_t* opened, std::uint64_t* closed) -> std::uint64_t {
    fleet::FleetConfig f = obs_fleet(1);
    obs::AlertRule r;
    r.name = "node0-backlog";
    r.instrument = "node0.queue_depth";
    r.predicate = obs::AlertPredicate::kAbove;
    r.threshold = 1;
    r.for_duration = 0;
    r.severity = obs::AlertSeverity::kWarning;
    f.obs.alerts = {r};
    fleet::Controller ctl{f, catalog()};
    // Jobs arrive 4x faster than one node can serve them: the queue grows
    // past 1 at the sampled edges, then the drain empties it — the alert
    // must open and close.
    (void)ctl.run(stream(8, solo().end / 4));
    if (ctl.alert_engine() == nullptr) {
      ADD_FAILURE() << "alert engine missing with obs enabled";
      return 0;
    }
    EXPECT_TRUE(ctl.alert_engine()->unresolved().empty());
    *opened = ctl.metrics().counter("ghum_fleet_alerts_opened_total").value();
    *closed = ctl.metrics().counter("ghum_fleet_alerts_closed_total").value();
    return ctl.digest();
  };
  std::uint64_t o1 = 0, c1 = 0, o2 = 0, c2 = 0;
  const std::uint64_t d1 = run(&o1, &c1);
  const std::uint64_t d2 = run(&o2, &c2);
  EXPECT_GE(o1, 1u) << "backlog alert never opened";
  EXPECT_EQ(o1, c1) << "alert left open after the fleet drained";
  EXPECT_EQ(o1, o2);
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(d1, d2) << "alert firings must be bit-for-bit reproducible";
}

TEST(FleetObs, LossReplayCarriesRootSpanAcrossNodes) {
  fleet::FleetConfig f = obs_fleet(2);
  f.faults.node_loss = {{.time = solo().end / 2, .node = 0}};
  f.replace_max_retries = 6;
  f.replace_backoff = solo().end / 4;
  fleet::Controller ctl{f, catalog()};
  ASSERT_EQ(ctl.run(stream(4, 0)), Status::kSuccess);

  // At least one job died with node 0 and finished elsewhere, carrying the
  // fault's root span: origin node != completion node.
  std::size_t crossed = 0;
  for (const fleet::FleetJob& j : ctl.jobs()) {
    if (j.state != fleet::FleetJobState::kFinished) continue;
    EXPECT_TRUE(j.ctx.traced());
    ASSERT_NE(j.completion_node, fleet::kNoNode);
    if (j.replayed_after_loss) {
      EXPECT_EQ(j.ctx.origin_node, 0u) << "replayed span must root at the fault";
      EXPECT_NE(j.completion_node, j.ctx.origin_node);
      ++crossed;
    }
  }
  EXPECT_GT(crossed, 0u) << "no span crossed a node boundary";

  // The trace renders both node lanes, the loss, and flow arrows.
  const std::string json = ctl.chrome_trace();
  std::string err;
  ASSERT_TRUE(obs::json_valid(json, &err)) << err;
  EXPECT_NE(json.find("node loss"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  bool saw_loss = false, saw_retry = false, saw_transfer = false;
  for (const obs::FleetTraceEvent& e : ctl.trace_events()) {
    saw_loss |= e.kind == obs::FleetTraceKind::kNodeLoss;
    saw_retry |= e.kind == obs::FleetTraceKind::kReplacementRetry;
  }
  ASSERT_NE(ctl.fabric(), nullptr);
  for (const net::TransferRecord& r : ctl.fabric()->log()) {
    saw_transfer |= r.ctx.traced();
  }
  EXPECT_TRUE(saw_loss);
  EXPECT_TRUE(saw_retry);
  EXPECT_TRUE(saw_transfer) << "no fabric transfer carried a trace context";
}

/// Label-blind per-name counter sums over one registry.
std::map<std::string, std::uint64_t> counter_sums(
    const obs::MetricsRegistry& reg) {
  std::map<std::string, std::uint64_t> out;
  reg.for_each([&](const obs::MetricsRegistry::InstrumentView& v) {
    if (v.counter != nullptr) out[std::string{v.name}] += v.counter->value();
  });
  return out;
}

TEST(FleetObs, FederatedRegistryEqualsPerNodeSums) {
  fleet::Controller ctl{obs_fleet(2), catalog()};
  ASSERT_EQ(ctl.run(stream(6, solo().end / 2)), Status::kSuccess);

  obs::MetricsRegistry fed = ctl.federated_metrics();
  // Every federated instrument carries the node label.
  fed.for_each([&](const obs::MetricsRegistry::InstrumentView& v) {
    bool has_node = false;
    for (const obs::Label& l : *v.labels) has_node |= l.key == "node";
    EXPECT_TRUE(has_node) << v.name;
  });

  // Ground truth: the fleet registry plus every node's machine registry.
  std::map<std::string, std::uint64_t> expect = counter_sums(ctl.metrics());
  for (fleet::NodeId id = 0; id < 2; ++id) {
    const obs::MetricsRegistry* nm = ctl.node_metrics(id);
    ASSERT_NE(nm, nullptr);
    for (const auto& [name, v] : counter_sums(*nm)) expect[name] += v;
  }
  const std::map<std::string, std::uint64_t> got = counter_sums(fed);
  EXPECT_EQ(got, expect) << "federated counters diverge from per-node sums";
  // And the machines actually counted something (nonzero equality).
  ASSERT_TRUE(expect.count("ghum_faults_total"));
  EXPECT_GT(expect.at("ghum_faults_total"), 0u);

  // The federated exposition parses and mentions every source label.
  const std::string prom = ctl.metrics_prometheus();
  EXPECT_NE(prom.find("node=\"fleet\""), std::string::npos);
  EXPECT_NE(prom.find("node=\"0\""), std::string::npos);
  EXPECT_NE(prom.find("node=\"1\""), std::string::npos);
  const std::string json = ctl.metrics_json();
  std::string err;
  EXPECT_TRUE(obs::json_valid(json, &err)) << err;
}

// ---------------------------------------------------------------------------
// Obs-on storm: a silent death, a degrade evacuated to a spare, a lossy
// fabric, shedding and three classes. Pins the recorder and alert digests
// and checks the instrument-derived samplers against job-table scans.
// ---------------------------------------------------------------------------

/// Template factory hook: the first placement appends oracle series to the
/// running recorder that evaluate the job-table scan definitions of
/// fleet.pending_jobs and class<c>.slo_attainment_permille over ctl.jobs().
struct ScanOracle {
  const fleet::Controller* ctl = nullptr;
  std::uint32_t classes = 0;
  bool armed = false;
  sim::Picos armed_after = -1;  ///< recorder's last edge when the series joined
};

std::vector<fleet::JobTemplate> storm_catalog(ScanOracle* oracle) {
  std::vector<fleet::JobTemplate> out = catalog();
  if (oracle == nullptr) return out;
  const auto make = out[0].make;
  out[0].make = [make, oracle](runtime::Runtime& rt) {
    if (!oracle->armed) {
      oracle->armed = true;
      // The recorder exists from the start of run(); the factory runs at
      // placement, outside sampling, so adding series here is safe.
      auto* ts = const_cast<obs::TimeSeries*>(oracle->ctl->recorder());
      oracle->armed_after = ts->last_edge();
      const fleet::Controller* ctl = oracle->ctl;
      ts->add("oracle.pending_jobs", [ctl] {
        std::int64_t c = 0;
        for (const fleet::FleetJob& j : ctl->jobs()) {
          if (j.state == fleet::FleetJobState::kPending) ++c;
        }
        return c;
      });
      for (std::uint32_t c = 0; c < oracle->classes; ++c) {
        ts->add("oracle.class" + std::to_string(c), [ctl, c] {
          std::int64_t term = 0;
          std::int64_t ok = 0;
          for (const fleet::FleetJob& j : ctl->jobs()) {
            if (j.req.priority != c || !j.terminal()) continue;
            ++term;
            if (!j.slo_violation) ++ok;
          }
          return term == 0 ? 1000 : ok * 1000 / term;
        });
      }
    }
    return make(rt);
  };
  return out;
}

fleet::FleetConfig storm_fleet(std::uint64_t seed) {
  fleet::FleetConfig f = obs_fleet(3);
  f.spares = 1;
  f.obs.cadence = solo().end / 32;
  f.placement = fleet::PlacementPolicy::kLoadBalance;
  f.node_footprint_budget = 2ull << 20;  // two jobs per node
  f.shed_protect_classes = 1;
  f.replace_max_retries = 3;
  f.replace_backoff = solo().end / 4;
  f.faults.node_loss = {{.time = solo().end, .node = 1}};
  f.faults.node_degrade = {
      {.time = 2 * solo().end, .node = 0, .slow_factor = 3}};
  f.faults.evacuate_degraded = true;
  f.faults.messages.enabled = true;
  f.faults.messages.seed = seed * 0x9e3779b97f4a7c15ull + 1;
  f.faults.messages.drop_prob = 0.04;
  f.faults.messages.corrupt_prob = 0.02;
  f.faults.messages.duplicate_prob = 0.02;
  f.faults.messages.reorder_prob = 0.02;
  f.heartbeat.enabled = true;
  f.heartbeat.interval = solo().end / 8;
  f.heartbeat.miss_threshold = 3;
  obs::AlertRule backlog;
  backlog.name = "fleet-backlog";
  backlog.instrument = "fleet.pending_jobs";
  backlog.predicate = obs::AlertPredicate::kAbove;
  backlog.threshold = 2;
  backlog.for_duration = f.obs.cadence;
  obs::AlertRule burn;
  burn.name = "class2-burn";
  burn.instrument = "class2.slo_attainment_permille";
  burn.predicate = obs::AlertPredicate::kBelow;
  burn.threshold = 900;
  burn.burn_window = 4 * f.obs.cadence;
  f.obs.alerts = {backlog, burn};
  return f;
}

std::vector<fleet::JobRequest> storm_requests(std::uint64_t seed) {
  fleet::ArrivalConfig a;
  a.seed = seed;
  a.count = 48;
  a.mean_interarrival = solo().end / 16;
  a.priority_classes = 3;
  a.class_weights = {1, 2, 3};
  a.deadline_floor = 2 * solo().end;
  a.top_replicas = 2;
  return fleet::generate_arrivals(a, catalog());
}

struct StormDigests {
  std::uint64_t controller = 0;
  std::uint64_t recorder = 0;
  std::uint64_t alerts = 0;
};

constexpr std::uint64_t kStormSeeds[] = {1, 2, 3};

TEST(FleetObsStorm, DigestsMatchPinnedGolden) {
  // Captured before the controller's samplers and placement walks moved
  // from whole-table scans to the open-job index and the instruments.
  constexpr StormDigests kGolden[] = {
      {0x0a84162945621dc8ull, 0x18b296d41b5f2f45ull, 0x464cf406d2c89819ull},
      {0x454e9b7bba09a169ull, 0xa6d6d6c1a3129ea5ull, 0x9d099bfd2905cf67ull},
      {0xd9d5df5e51af0186ull, 0x2a72e481bf9831acull, 0xb7d74f67e44313fdull},
  };
  for (std::size_t i = 0; i < std::size(kStormSeeds); ++i) {
    const std::uint64_t seed = kStormSeeds[i];
    fleet::Controller ctl{storm_fleet(seed), storm_catalog(nullptr)};
    ASSERT_EQ(ctl.run(storm_requests(seed)), Status::kSuccess) << seed;
    ASSERT_NE(ctl.recorder(), nullptr);
    ASSERT_NE(ctl.alert_engine(), nullptr);
    const StormDigests got{ctl.digest(), ctl.recorder()->digest(),
                           ctl.alert_engine()->digest()};
    EXPECT_EQ(got.controller, kGolden[i].controller) << "seed " << seed;
    EXPECT_EQ(got.recorder, kGolden[i].recorder) << "seed " << seed;
    EXPECT_EQ(got.alerts, kGolden[i].alerts) << "seed " << seed;
  }
}

TEST(FleetObsStorm, SamplersMatchJobScanOracle) {
  for (const std::uint64_t seed : kStormSeeds) {
    ScanOracle oracle;
    oracle.classes = 3;
    fleet::Controller ctl{storm_fleet(seed), storm_catalog(&oracle)};
    oracle.ctl = &ctl;
    ASSERT_EQ(ctl.run(storm_requests(seed)), Status::kSuccess) << seed;
    ASSERT_TRUE(oracle.armed) << seed;

    // The storm exercised what it claims to.
    obs::MetricsRegistry& m = ctl.metrics();
    EXPECT_GT(m.counter("ghum_fleet_detected_losses_total").value(), 0u)
        << seed;
    EXPECT_GT(m.counter("ghum_fleet_node_degrades_total").value(), 0u) << seed;
    EXPECT_GT(m.counter("ghum_fleet_shed_total").value(), 0u) << seed;
    EXPECT_GT(ctl.fabric()->reliable_totals().retransmits, 0u) << seed;
    std::uint32_t classes_seen = 0;
    for (std::uint32_t c = 0; c < 3; ++c) {
      classes_seen += ctl.slo_summary(c).submitted > 0 ? 1 : 0;
    }
    EXPECT_EQ(classes_seen, 3u) << seed;

    const obs::TimeSeries& ts = *ctl.recorder();
    ASSERT_EQ(ts.dropped(), 0u);
    std::vector<std::pair<std::size_t, std::size_t>> pairs = {
        {ts.find("fleet.pending_jobs"), ts.find("oracle.pending_jobs")}};
    for (std::uint32_t c = 0; c < 3; ++c) {
      pairs.emplace_back(
          ts.find("class" + std::to_string(c) + ".slo_attainment_permille"),
          ts.find("oracle.class" + std::to_string(c)));
    }
    std::size_t compared = 0;
    for (const auto& [got, want] : pairs) {
      ASSERT_NE(got, obs::TimeSeries::kNoSeries);
      ASSERT_NE(want, obs::TimeSeries::kNoSeries);
      for (std::size_t i = 0; i < ts.size(); ++i) {
        if (ts.time_at(i) <= oracle.armed_after) continue;
        ASSERT_EQ(ts.value_at(got, i), ts.value_at(want, i))
            << "seed " << seed << " " << ts.name(got) << " at edge "
            << ts.time_at(i);
        ++compared;
      }
    }
    EXPECT_GT(compared, 4 * 10u) << seed;

    for (const fleet::FleetJob& j : ctl.jobs()) EXPECT_TRUE(j.terminal());
  }
}

TEST(FleetObs, RegistryMergePreservesCountsGaugesAndHistograms) {
  obs::MetricsRegistry a;
  a.counter("x_total").inc(3);
  a.gauge("g_bytes").set(10);
  a.histogram("h_bytes").observe(4);
  a.histogram("h_bytes").observe(1024);
  obs::MetricsRegistry b;
  b.counter("x_total").inc(5);
  b.gauge("g_bytes").set(-4);
  b.histogram("h_bytes").observe(0);

  obs::MetricsRegistry fed;
  fed.merge_from(a, {{"node", "0"}});
  fed.merge_from(b, {{"node", "1"}});
  // Distinct node labels keep the sources separate...
  EXPECT_EQ(fed.counter("x_total", {{"node", "0"}}).value(), 3u);
  EXPECT_EQ(fed.counter("x_total", {{"node", "1"}}).value(), 5u);
  // ...while merging both under one label accumulates exactly.
  obs::MetricsRegistry sum;
  sum.merge_from(a, {{"node", "all"}});
  sum.merge_from(b, {{"node", "all"}});
  EXPECT_EQ(sum.counter("x_total", {{"node", "all"}}).value(), 8u);
  EXPECT_EQ(sum.gauge("g_bytes", {{"node", "all"}}).value(), 6);
  const obs::Histogram& h = sum.histogram("h_bytes", {{"node", "all"}});
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1028u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1024u);
}

}  // namespace
}  // namespace ghum
