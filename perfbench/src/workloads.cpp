#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <new>

#include "checks.hpp"
#include "chk/snapshot.hpp"
#include "fleet/arrival.hpp"
#include "fleet/controller.hpp"
#include "obs/json_check.hpp"
#include "runtime/runtime.hpp"
#include "tenant/scheduler.hpp"

namespace perfbench {

namespace bs = ghum::benchsupport;
namespace apps = ghum::apps;
namespace core = ghum::core;
namespace fleet = ghum::fleet;
using apps::MemMode;
using Deltas = std::vector<std::pair<std::string, double>>;

const std::vector<MetricDef>& layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"apps.bfs.host_s", "s"},
      {"apps.hotspot.host_s", "s"},
      {"apps.needle.host_s", "s"},
      {"apps.pathfinder.host_s", "s"},
      {"apps.srad.host_s", "s"},
      {"apps.qvsim.host_s", "s"},
      {"apps.explicit.host_s", "s"},
      {"apps.managed.host_s", "s"},
      {"apps.system.host_s", "s"},
      {"runtime.accesses", "count"},
      {"runtime.ns_per_access", "ns"},
      {"cache.kernels", "count"},
      {"cache.l1l2_bytes", "bytes"},
      {"pagetable.tlb_hits", "count"},
      {"pagetable.tlb_misses", "count"},
      {"pagetable.tlb_hit_ratio", "ratio"},
      {"pagetable.runs", "count"},
      {"core.page_visits", "count"},
      {"core.ns_per_page_visit", "ns"},
      {"core.advance_view_ratio", "ratio"},
      {"driver.faults", "count"},
      {"driver.migrated_bytes", "bytes"},
      {"driver.evictions", "count"},
      {"driver.prefetch_s", "s"},
      {"tenant.steps", "count"},
      {"tenant.step_us.p50", "us"},
      {"tenant.step_us.p99", "us"},
      {"fleet.run_s", "s"},
      {"fleet.requests", "count"},
      {"fleet.finished", "count"},
      {"fleet.failed", "count"},
      {"fleet.shed", "count"},
      {"fleet.placements", "count"},
      {"fleet.evacuations", "count"},
      {"fleet.slo_violations", "count"},
      {"net.msgs", "count"},
      {"net.bytes", "bytes"},
      {"net.retransmits", "count"},
      {"net.dropped", "count"},
      {"net.first_try_ratio", "ratio"},
      {"obs.recorder_samples", "count"},
      {"obs.alerts_opened", "count"},
      {"obs.export_s", "s"},
      {"obs.export_bytes", "bytes"},
      {"chk.snapshot_bytes", "bytes"},
      {"chk.snapshot_s", "s"},
      {"chk.restore_s", "s"},
      {"chk.verify_s", "s"},
      {"self_s.setup", "s"},
      {"self_s.grid.cell", "s"},
      {"self_s.apps.step", "s"},
      {"self_s.core.sweep", "s"},
      {"self_s.driver.prefetch", "s"},
      {"self_s.tenant.step", "s"},
      {"self_s.fleet.run", "s"},
      {"trace.traced_wall_s", "s"},
      {"trace.untraced_wall_s", "s"},
      {"trace.overhead_ratio", "ratio"},
  };
  return defs;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + (stream + 1) * 0xD1B54A32D192ED03ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

long read_status_kb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  const std::size_t n = std::strlen(field);
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, field, n) == 0 && line[n] == ':') {
      kb = std::strtol(line + n + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

namespace {

/// Label-blind sum of one counter family.
std::uint64_t counter_sum(const ghum::obs::MetricsRegistry& reg, std::string_view name) {
  std::uint64_t n = 0;
  reg.for_each([&](const ghum::obs::MetricsRegistry::InstrumentView& v) {
    if (v.counter != nullptr && v.name == name) n += v.counter->value();
  });
  return n;
}

/// Cumulative counters of one machine, read at span boundaries. Kernel
/// records are folded incrementally, so a reading costs O(new records).
class MachineCounters {
 public:
  struct Reading {
    double sim_ps = 0;
    double kernels = 0;
    double gpu_accesses = 0;
    double l1l2_bytes = 0;
    double tlb_hits = 0;
    double tlb_misses = 0;
    double faults = 0;
    double migrated_bytes = 0;
    double evictions = 0;
    double pt_runs = 0;
  };

  explicit MachineCounters(core::System& sys) : sys_(&sys) {
    auto& reg = sys.machine().obs();
    for (const char* mmu : {"smmu_cpu", "smmu_ats", "gmmu_gpu", "gmmu_ats"}) {
      hits_.push_back(&reg.counter("ghum_tlb_hits_total", {{"mmu", mmu}}));
      misses_.push_back(&reg.counter("ghum_tlb_misses_total", {{"mmu", mmu}}));
    }
  }

  Reading read() {
    const auto& recs = sys_->workload().records();
    for (; seen_ < recs.size(); ++seen_) {
      accesses_ += recs[seen_].traffic.gpu_accesses;
      l1l2_ += recs[seen_].traffic.l1l2_bytes;
    }
    const ghum::obs::MemSysMetrics& m = sys_->machine().metrics();
    Reading r;
    r.sim_ps = static_cast<double>(sys_->now());
    r.kernels = static_cast<double>(recs.size());
    r.gpu_accesses = static_cast<double>(accesses_);
    r.l1l2_bytes = static_cast<double>(l1l2_);
    for (const auto* c : hits_) r.tlb_hits += static_cast<double>(c->value());
    for (const auto* c : misses_) r.tlb_misses += static_cast<double>(c->value());
    r.faults = static_cast<double>(m.faults_cpu_first_touch->value() +
                                   m.faults_gpu_first_touch->value() +
                                   m.faults_gpu_managed->value());
    r.migrated_bytes = static_cast<double>(m.migrated_bytes_h2d->value() +
                                           m.migrated_bytes_d2h->value());
    r.evictions = static_cast<double>(m.evictions->value());
    r.pt_runs = static_cast<double>(sys_->machine().system_pt().run_count() +
                                    sys_->machine().gpu_pt().run_count());
    return r;
  }

  static Deltas deltas(const Reading& a, const Reading& b) {
    return {{"sim_ps", b.sim_ps - a.sim_ps},
            {"kernels", b.kernels - a.kernels},
            {"gpu_accesses", b.gpu_accesses - a.gpu_accesses},
            {"tlb_hits", b.tlb_hits - a.tlb_hits},
            {"tlb_misses", b.tlb_misses - a.tlb_misses},
            {"faults", b.faults - a.faults},
            {"migrated_bytes", b.migrated_bytes - a.migrated_bytes},
            {"evictions", b.evictions - a.evictions}};
  }

 private:
  core::System* sys_;
  std::vector<const ghum::obs::Counter*> hits_;
  std::vector<const ghum::obs::Counter*> misses_;
  std::size_t seen_ = 0;
  std::uint64_t accesses_ = 0;
  std::uint64_t l1l2_ = 0;
};

/// Adds a machine's end-of-run counters to the pass's layer metrics.
void add_machine_totals(Metrics& m, const MachineCounters::Reading& r) {
  m["cache.kernels"] += r.kernels;
  m["cache.l1l2_bytes"] += r.l1l2_bytes;
  m["pagetable.tlb_hits"] += r.tlb_hits;
  m["pagetable.tlb_misses"] += r.tlb_misses;
  m["driver.faults"] += r.faults;
  m["driver.migrated_bytes"] += r.migrated_bytes;
  m["driver.evictions"] += r.evictions;
}

/// Snapshot, verify and restore \p sys — the traced run's chk probe.
/// Returns false (with \p why) when the blob fails verification.
bool chk_probe(core::System& sys, Tracer& tr, Metrics& m, std::string* why) {
  auto id = tr.begin("chk.snapshot");
  ghum::chk::Blob blob;
  try {
    blob = ghum::chk::Snapshotter::snapshot(sys);
  } catch (...) {
    tr.end(id);  // keep the span tree well formed for the caller's retry
    throw;
  }
  m["chk.snapshot_s"] += tr.end(id);
  m["chk.snapshot_bytes"] += static_cast<double>(blob.size());
  id = tr.begin("chk.verify");
  const bool verified = ghum::chk::Snapshotter::verify(blob);
  m["chk.verify_s"] += tr.end(id);
  id = tr.begin("chk.restore");
  [[maybe_unused]] const auto restored = ghum::chk::Snapshotter::restore(blob);
  m["chk.restore_s"] += tr.end(id);
  if (!verified) {
    *why = "snapshot blob failed verification";
    return false;
  }
  return true;
}

void export_probe(core::System& sys, Tracer& tr, Metrics& m) {
  const auto id = tr.begin("obs.export");
  const std::size_t bytes = sys.metrics_prometheus().size() + sys.metrics_json().size();
  m["obs.export_s"] += tr.end(id);
  m["obs.export_bytes"] += static_cast<double>(bytes);
}

const char* mode_name(MemMode m) {
  switch (m) {
    case MemMode::kExplicit: return "explicit";
    case MemMode::kManaged: return "managed";
    case MemMode::kSystem: return "system";
  }
  return "?";
}

// ---------------------------------------------------------------- paper_grid

struct GridCell {
  MemMode mode;
  double ratio;
};

/// The grid is trimmed so a pass takes a few host seconds: the four light
/// Rodinia apps run explicit and system at 1.0x and managed at 1.5x;
/// srad and qvsim, whose cells cost 0.6-2.2 s each, run explicit at 1.0x
/// and managed at 1.5x. Every app keeps its benchmark problem size, and
/// every app has a managed 1.5x cell, where faults and evictions churn.
const std::vector<GridCell> kLightCells = {
    {MemMode::kExplicit, 1.0}, {MemMode::kSystem, 1.0}, {MemMode::kManaged, 1.5}};
const std::vector<GridCell> kHeavyCells = {
    {MemMode::kExplicit, 1.0}, {MemMode::kManaged, 1.5}};

struct GridApp {
  std::string name;   ///< apps.<name>.host_s
  std::string group;  ///< checksum group (qvsim can run at several sizes)
  core::SystemConfig config;
  std::function<apps::AppCoro(ghum::runtime::Runtime&, MemMode)> make;
  const std::vector<GridCell>* cells = &kLightCells;
};

/// The traced run snapshots srad's managed 1.5x machine mid-run (after
/// kProbeStep steps, at the first phase boundary) for the chk and obs
/// probes.
constexpr const char* kProbeGroup = "srad";
constexpr std::size_t kProbeStep = 8;

class GridWorkload final : public Workload {
 public:
  GridWorkload(std::uint64_t seed, GridSpec spec) : spec_(std::move(spec)) {
    const auto rodinia = bs::rodinia_config(ghum::pagetable::kSystemPage4K, false);
    const auto qv = bs::qv_config(ghum::pagetable::kSystemPage4K, false);
    const bs::Scale s = spec_.scale;
    auto bfs = bs::bfs_config(s);
    bfs.seed = derive_seed(seed, 1);
    apps_.push_back({"bfs", "bfs", rodinia, [bfs](auto& rt, MemMode m) {
                       return apps::bfs_steps(rt, m, bfs);
                     }});
    auto hotspot = bs::hotspot_config(s);
    hotspot.seed = derive_seed(seed, 2);
    apps_.push_back({"hotspot", "hotspot", rodinia, [hotspot](auto& rt, MemMode m) {
                       return apps::hotspot_steps(rt, m, hotspot);
                     }});
    auto needle = bs::needle_config(s);
    needle.seed = derive_seed(seed, 3);
    apps_.push_back({"needle", "needle", rodinia, [needle](auto& rt, MemMode m) {
                       return apps::needle_steps(rt, m, needle);
                     }});
    auto pathfinder = bs::pathfinder_config(s);
    pathfinder.seed = derive_seed(seed, 4);
    apps_.push_back({"pathfinder", "pathfinder", rodinia,
                     [pathfinder](auto& rt, MemMode m) {
                       return apps::pathfinder_steps(rt, m, pathfinder);
                     }});
    auto srad = bs::srad_config(s);
    srad.seed = derive_seed(seed, 5);
    apps_.push_back({"srad", "srad", rodinia,
                     [srad](auto& rt, MemMode m) { return apps::srad_steps(rt, m, srad); },
                     &kHeavyCells});
    for (const std::uint32_t q : spec_.qv_qubits) {
      auto qvc = bs::qv_sim_config(s, q);
      qvc.seed = derive_seed(seed, 6);
      apps_.push_back({"qvsim", "qvsim" + std::to_string(q), qv,
                       [qvc](auto& rt, MemMode m) { return apps::qvsim_steps(rt, m, qvc); },
                       &kHeavyCells});
    }
  }

  PassResult pass(Tracer& tr) override {
    PassResult r;
    const auto pass_id = tr.begin("pass");
    const double t0 = host_now_s();
    const auto setup_id = tr.begin("setup");
    std::vector<std::uint64_t> peaks;
    for (const GridApp& a : apps_) {
      peaks.push_back(bs::measure_peak_gpu(a.config, [&](ghum::runtime::Runtime& rt) {
        return apps::drive(a.make(rt, MemMode::kManaged));
      }));
    }
    tr.end(setup_id);
    r.setup_s += host_now_s() - t0;

    Fingerprint fp;
    std::vector<CellOutcome> outcomes;
    double step_s = 0;
    for (std::size_t i = 0; i < apps_.size(); ++i) {
      for (const GridCell& cell : *apps_[i].cells) {
        const bool probe = tr.enabled() && apps_[i].group == kProbeGroup &&
                           cell.mode == MemMode::kManaged && cell.ratio > 1.0;
        outcomes.push_back(run_cell(apps_[i], cell, peaks[i], probe, tr, fp, r, step_s));
      }
    }
    for (const std::size_t i : failed_grid_cells(outcomes)) {
      const CellOutcome& c = outcomes[i];
      r.failures.push_back("cell " + c.group + "/" + mode_name(c.mode) + "@" +
                           std::to_string(c.ratio) + ": " +
                           (c.status == ghum::Status::kSuccess
                                ? std::string{"checksum differs from its group"}
                                : "died with " + std::string{ghum::to_string(c.status)}));
    }
    r.attempted = outcomes.size();
    r.failed = r.failures.size();
    r.fingerprint = fp.value();
    tr.end(pass_id);
    if (tr.enabled()) {
      r.layer["runtime.accesses"] = static_cast<double>(r.ops);
      r.layer["runtime.ns_per_access"] =
          r.ops > 0 ? step_s * 1e9 / static_cast<double>(r.ops) : 0.0;
    }
    return r;
  }

  [[nodiscard]] std::string sizes_json() const override {
    std::string q;
    for (const std::uint32_t n : spec_.qv_qubits) q += (q.empty() ? "" : ",") + std::to_string(n);
    std::size_t cells = 0;
    for (const GridApp& a : apps_) cells += a.cells->size();
    return "{\"cells\":" + std::to_string(cells) +
           ",\"apps\":" + std::to_string(apps_.size()) +
           ",\"scale\":\"" + (spec_.scale == bs::Scale::kSmall ? "small" : "default") +
           "\",\"page_bytes\":4096,\"ratios\":[1.0,1.5],\"qv_qubits\":[" + q + "]}";
  }

 private:
  CellOutcome run_cell(const GridApp& app, GridCell cell, std::uint64_t peak, bool probe,
                       Tracer& tr, Fingerprint& fp, PassResult& r, double& step_s) {
    CellOutcome out;
    out.group = app.group;
    out.mode = cell.mode;
    out.ratio = cell.ratio;

    const double t0 = host_now_s();
    auto sys = std::make_unique<core::System>(app.config);
    ghum::runtime::Runtime rt{*sys};
    auto reserve = bs::reserve_for_oversubscription(*sys, peak, cell.ratio);
    const double t1 = host_now_s();
    r.setup_s += t1 - t0;

    const auto cell_id = tr.begin("grid.cell");
    MachineCounters counters{*sys};
    const MachineCounters::Reading at_start = counters.read();
    double probe_s = 0;
    double pt_runs = 0;
    try {
      apps::AppCoro coro = app.make(rt, cell.mode);
      for (std::size_t step = 0;; ++step) {
        const MachineCounters::Reading before =
            tr.enabled() ? counters.read() : MachineCounters::Reading{};
        const auto id = tr.begin("apps.step");
        const bool more = coro.step();
        if (tr.enabled()) {
          const MachineCounters::Reading after = counters.read();
          const double d = tr.end(id, MachineCounters::deltas(before, after));
          step_s += d;
          r.layer["apps." + app.name + ".host_s"] += d;
          r.layer[std::string{"apps."} + mode_name(cell.mode) + ".host_s"] += d;
          pt_runs = std::max(pt_runs, after.pt_runs);
        }
        if (!more) break;
        if (probe && step >= kProbeStep) probe = !run_probe(*sys, tr, r, probe_s);
      }
      out.checksum = coro.report().checksum;
    } catch (const ghum::StatusError& e) {
      out.status = e.status();
    } catch (const std::bad_alloc&) {
      out.status = ghum::Status::kErrorMemoryAllocation;
    }
    if (reserve) rt.free(*reserve);

    const MachineCounters::Reading at_end = counters.read();
    tr.end(cell_id, MachineCounters::deltas(at_start, at_end));
    fp.add(static_cast<std::uint64_t>(sys->now()));
    fp.add(out.checksum);
    for (const auto& rec : sys->workload().records()) fp.add(rec);
    r.ops += static_cast<std::uint64_t>(at_end.gpu_accesses);
    if (tr.enabled()) {
      add_machine_totals(r.layer, at_end);
      r.layer["pagetable.runs"] = std::max(r.layer["pagetable.runs"], pt_runs);
    }
    sys.reset();
    r.wall_s += host_now_s() - t1 - probe_s;
    return out;
  }

  /// The chk and obs probes at a phase boundary of the probe cell. Returns
  /// false when the machine is mid-phase (try again at the next step).
  static bool run_probe(core::System& sys, Tracer& tr, PassResult& r, double& probe_s) {
    if (sys.in_gpu_kernel()) return false;
    const double t0 = host_now_s();
    bool done = true;
    try {
      std::string why;
      if (!chk_probe(sys, tr, r.layer, &why)) r.failures.push_back("chk probe: " + why);
      export_probe(sys, tr, r.layer);
    } catch (const ghum::StatusError& e) {
      if (e.status() != ghum::Status::kErrorInvalidValue) throw;
      done = false;  // an open host phase: not snapshottable yet
    }
    probe_s += host_now_s() - t0;
    return done;
  }

  GridSpec spec_;
  std::vector<GridApp> apps_;
};

// ----------------------------------------------------------- fullscale_sweep

class SweepWorkload final : public Workload {
 public:
  explicit SweepWorkload(SweepSpec spec) : spec_(spec) {}

  PassResult pass(Tracer& tr) override {
    PassResult r;
    r.attempted = 1;
    const std::uint64_t footprint = 16ull << spec_.qubits;
    const auto pass_id = tr.begin("pass");
    const long rss_before_kb = read_status_kb("VmRSS");
    const double t0 = host_now_s();
    const auto setup_id = tr.begin("setup");
    auto sys = std::make_unique<core::System>(bs::full_scale());
    const core::Buffer state = sys->sys_malloc(footprint, "fullscale.state");
    tr.end(setup_id);
    const double t1 = host_now_s();
    r.setup_s = t1 - t0;

    MachineCounters counters{*sys};
    std::uint64_t visits = 0, fast = 0;
    double sweep_s = 0;
    const auto sweep = [&](ghum::mem::Node origin) {
      const MachineCounters::Reading before =
          tr.enabled() ? counters.read() : MachineCounters::Reading{};
      const auto id = tr.begin("core.sweep");
      const std::uint64_t page = sys->config().system_page_size;
      core::PageView view;
      std::uint64_t n = 0, hits = 0;
      for (std::uint64_t va = state.va; va < state.va + footprint; va += page) {
        if (sys->advance_view(view, va)) {
          ++hits;
        } else {
          view = sys->resolve(va, origin);
        }
        sys->commit(view, 64, 64, 2, 2);
        ++n;
      }
      visits += n;
      fast += hits;
      if (tr.enabled()) {
        sweep_s += tr.end(id, [&] {
          Deltas d = MachineCounters::deltas(before, counters.read());
          d.emplace_back("page_visits", static_cast<double>(n));
          d.emplace_back("advance_view_hits", static_cast<double>(hits));
          return d;
        }());
      }
    };

    sweep(ghum::mem::Node::kCpu);
    const auto prefetch_id = tr.begin("driver.prefetch");
    sys->prefetch(state, 0, footprint, ghum::mem::Node::kGpu);
    const double prefetch_s = tr.end(prefetch_id);
    for (int pass = 0; pass < 2; ++pass) {
      sys->kernel_begin("fullscale.sweep");
      sweep(ghum::mem::Node::kGpu);
      (void)sys->kernel_end();
    }
    const double t2 = host_now_s();
    r.ops = visits;

    SweepOutcome o;
    o.footprint = footprint;
    o.extents = sys->machine().system_pt().run_count();
    const long rss_after_kb = read_status_kb("VmRSS");
    o.rss_growth_bytes =
        static_cast<std::uint64_t>(std::max(0L, rss_after_kb - rss_before_kb)) * 1024;
    if (std::string why; !sweep_ok(o, &why)) r.failures.push_back(why);

    Fingerprint fp;
    fp.add(static_cast<std::uint64_t>(sys->now()));
    fp.add(o.extents);
    fp.add(sys->machine().system_pt().resident_bytes(ghum::mem::Node::kGpu));
    fp.add(sys->machine().system_pt().resident_bytes(ghum::mem::Node::kCpu));
    fp.add(visits);
    fp.add(fast);
    for (const auto& rec : sys->workload().records()) fp.add(rec);
    r.fingerprint = fp.value();

    if (tr.enabled()) {
      const MachineCounters::Reading end = counters.read();
      add_machine_totals(r.layer, end);
      r.layer["pagetable.runs"] = end.pt_runs;
      r.layer["driver.prefetch_s"] = prefetch_s;
      r.layer["core.page_visits"] = static_cast<double>(visits);
      r.layer["core.ns_per_page_visit"] = sweep_s * 1e9 / static_cast<double>(visits);
      r.layer["core.advance_view_ratio"] =
          static_cast<double>(fast) / static_cast<double>(visits);
      std::string why;
      if (!chk_probe(*sys, tr, r.layer, &why)) r.failures.push_back("chk probe: " + why);
      export_probe(*sys, tr, r.layer);
    }
    const double t3 = host_now_s();
    sys.reset();
    tr.end(pass_id);
    r.wall_s = (t2 - t1) + (host_now_s() - t3);
    r.failed = r.failures.empty() ? 0 : 1;
    return r;
  }

  [[nodiscard]] std::string sizes_json() const override {
    return "{\"qubits\":" + std::to_string(spec_.qubits) +
           ",\"footprint_bytes\":" + std::to_string(16ull << spec_.qubits) +
           ",\"page_bytes\":65536,\"sweeps\":3,\"hbm_bytes\":" +
           std::to_string(bs::full_scale().hbm_capacity) +
           ",\"ddr_bytes\":" + std::to_string(bs::full_scale().ddr_capacity) + "}";
  }

 private:
  SweepSpec spec_;
};

// --------------------------------------------------------------- fleet_storm

core::SystemConfig node_config() {
  core::SystemConfig cfg = bs::rodinia_config(ghum::pagetable::kSystemPage64K, false);
  cfg.event_log = true;
  return cfg;
}

/// bench_chaosnet's six-app managed catalog with every app well below
/// Scale::kSmall, so the fleet layers rather than app arithmetic dominate
/// host time. Declared footprints are bench_chaosnet's: placement sees
/// the same shape of load.
std::vector<fleet::JobTemplate> tiny_catalog(std::uint64_t seed) {
  const MemMode m = MemMode::kManaged;
  std::vector<fleet::JobTemplate> out;
  const auto add = [&](std::string name, std::uint64_t footprint,
                       std::function<apps::AppCoro(ghum::runtime::Runtime&)> make) {
    fleet::JobTemplate t;
    t.name = std::move(name);
    t.mode = m;
    t.make = std::move(make);
    t.footprint_bytes = footprint;
    out.push_back(std::move(t));
  };
  apps::HotspotConfig hotspot;
  hotspot.rows = hotspot.cols = 64;
  hotspot.iterations = 2;
  hotspot.seed = derive_seed(seed, 2);
  add("hotspot", 2ull << 20, [=](auto& rt) { return apps::hotspot_steps(rt, m, hotspot); });
  apps::PathfinderConfig pathfinder;
  pathfinder.cols = 256;
  pathfinder.rows = 16;
  pathfinder.seed = derive_seed(seed, 4);
  add("pathfinder", 1ull << 20,
      [=](auto& rt) { return apps::pathfinder_steps(rt, m, pathfinder); });
  apps::NeedleConfig needle;
  needle.n = 64;
  needle.seed = derive_seed(seed, 3);
  add("needle", 4ull << 20, [=](auto& rt) { return apps::needle_steps(rt, m, needle); });
  apps::BfsConfig bfs;
  bfs.nodes = 2048;
  bfs.seed = derive_seed(seed, 1);
  add("bfs", 2ull << 20, [=](auto& rt) { return apps::bfs_steps(rt, m, bfs); });
  apps::SradConfig srad;
  srad.rows = srad.cols = 48;
  srad.iterations = 2;
  srad.seed = derive_seed(seed, 5);
  add("srad", 4ull << 20, [=](auto& rt) { return apps::srad_steps(rt, m, srad); });
  apps::QvConfig qv;
  qv.qubits = 10;
  qv.depth = 2;
  qv.seed = derive_seed(seed, 6);
  add("qvsim", 8ull << 20, [=](auto& rt) { return apps::qvsim_steps(rt, m, qv); });
  return out;
}

class StormWorkload final : public Workload {
 public:
  StormWorkload(std::uint64_t seed, StormSpec spec) : seed_(seed), spec_(spec) {}

  PassResult pass(Tracer& tr) override {
    PassResult r;
    r.attempted = 1;
    const auto pass_id = tr.begin("pass");
    const double t0 = host_now_s();
    const auto setup_id = tr.begin("setup");
    std::vector<fleet::JobTemplate> templates = tiny_catalog(seed_);
    std::vector<double> step_us;
    std::unique_ptr<core::System> probe_sys;
    std::uint64_t solo_accesses = 0;
    for (fleet::JobTemplate& t : templates) {
      probe_sys = measure_solo(t, tr, r.layer, step_us, solo_accesses);
    }
    Picos mean_cost = 0;
    for (const fleet::JobTemplate& t : templates) mean_cost += t.est_cost;
    mean_cost /= static_cast<Picos>(templates.size());

    fleet::ArrivalConfig acfg;
    acfg.seed = derive_seed(seed_, 7);
    acfg.count = spec_.requests;
    acfg.mean_interarrival = mean_cost / 4;
    acfg.priority_classes = 3;
    acfg.class_weights = {1, 2, 3};
    acfg.deadline_floor = ghum::sim::milliseconds(64);
    acfg.top_replicas = 2;
    const std::vector<fleet::JobRequest> requests = fleet::generate_arrivals(acfg, templates);
    const fleet::FleetConfig fcfg = fleet_config(acfg);
    StormOutcome o;
    o.requests = requests.size();
    o.scheduled_deaths = fcfg.faults.node_loss.size();
    for (const fleet::JobTemplate& t : templates) o.solo_checksums.push_back(t.solo_checksum);
    auto ctl = std::make_unique<fleet::Controller>(fcfg, std::move(templates));
    tr.end(setup_id);
    const double t1 = host_now_s();
    r.setup_s = t1 - t0;

    const auto run_id = tr.begin("fleet.run");
    const ghum::Status st = ctl->run(requests);
    r.layer["fleet.run_s"] = tr.end(run_id);
    const double t2 = host_now_s();
    if (st != ghum::Status::kSuccess) {
      r.failures.push_back("Controller::run returned " + std::string{ghum::to_string(st)});
    }

    ghum::obs::MetricsRegistry& reg = ctl->metrics();
    o.node_losses = counter_sum(reg, "ghum_fleet_node_losses_total");
    o.detected_losses = counter_sum(reg, "ghum_fleet_detected_losses_total");
    Picos makespan = 0;
    for (const fleet::FleetJob& j : ctl->jobs()) {
      o.jobs.push_back({j.req.tmpl, j.state == fleet::FleetJobState::kFinished,
                        j.state == fleet::FleetJobState::kFailed, j.checksum});
      makespan = std::max(makespan, j.finished_at);
    }
    if (std::string why; !storm_ok(o, &why)) r.failures.push_back(why);
    for (const StormJob& j : o.jobs) r.ops += (j.finished || j.failed) ? 1 : 0;

    Fingerprint fp;
    fp.add(ctl->digest());
    fp.add(ctl->fabric()->digest());
    fp.add(ctl->alert_engine() != nullptr ? ctl->alert_engine()->digest() : 0);
    fp.add(static_cast<std::uint64_t>(makespan));
    r.fingerprint = fp.value();

    if (tr.enabled()) fleet_layer(*ctl, o, reg, step_us, solo_accesses, tr, r);
    if (tr.enabled() && probe_sys) {
      std::string why;
      if (!chk_probe(*probe_sys, tr, r.layer, &why)) r.failures.push_back("chk probe: " + why);
    }
    const double t3 = host_now_s();
    ctl.reset();
    tr.end(pass_id);
    r.wall_s = (t2 - t1) + (host_now_s() - t3);
    r.failed = r.failures.empty() ? 0 : 1;
    return r;
  }

  [[nodiscard]] std::string sizes_json() const override {
    return "{\"requests\":" + std::to_string(spec_.requests) +
           ",\"nodes\":4,\"spares\":1,\"silent_deaths\":2,\"degrades\":1,"
           "\"catalog\":\"tiny\",\"templates\":6}";
  }

 private:
  using Picos = ghum::sim::Picos;

  /// Solo reference runs, as bench_chaosnet measures them: the checksum of
  /// the first uninterrupted incarnation and the marginal cost of the
  /// second and third. Adds the runs' accounted accesses to \p accesses
  /// and returns the machine for the traced run's chk probe.
  static std::unique_ptr<core::System> measure_solo(fleet::JobTemplate& t, Tracer& tr,
                                                    Metrics& layer,
                                                    std::vector<double>& step_us,
                                                    std::uint64_t& accesses) {
    auto sys = std::make_unique<core::System>(node_config());
    {
      ghum::tenant::SchedulerConfig scfg;
      scfg.policy = ghum::tenant::Policy::kFifo;
      ghum::tenant::Scheduler sched{*sys, scfg};
      ghum::tenant::JobSpec spec;
      spec.name = t.name;
      spec.mode = t.mode;
      spec.make = t.make;
      spec.footprint_bytes = t.footprint_bytes;
      ghum::tenant::TenantId first = ghum::tenant::kNoTenant;
      ghum::tenant::TenantId last = ghum::tenant::kNoTenant;
      (void)sched.submit(spec, &first);
      (void)sched.submit(spec, nullptr);
      (void)sched.submit(spec, &last);
      const auto solo_id = tr.begin("tenant.solo");
      for (;;) {
        const auto id = tr.begin("tenant.step");
        const bool more = sched.step();
        const double d = tr.end(id);
        if (tr.enabled()) {
          step_us.push_back(d * 1e6);
          layer["apps." + t.name + ".host_s"] += d;
          layer["apps.managed.host_s"] += d;
        }
        if (!more) break;
      }
      tr.end(solo_id);
      t.solo_checksum = sched.job(first).report.checksum;
      t.est_cost = std::max<Picos>(
          1, (sched.job(last).finished_at - sched.job(first).finished_at) / 2);
    }
    for (const auto& rec : sys->workload().records()) accesses += rec.traffic.gpu_accesses;
    return sys;
  }

  fleet::FleetConfig fleet_config(const fleet::ArrivalConfig& acfg) const {
    const Picos horizon = acfg.mean_interarrival * static_cast<Picos>(acfg.count);
    fleet::FleetConfig f;
    f.nodes = 4;
    f.spares = 1;
    f.node_config = node_config();
    f.scheduler.policy = ghum::tenant::Policy::kPriority;
    f.placement = fleet::PlacementPolicy::kLoadBalance;
    f.node_footprint_budget = 24ull << 20;
    f.shed_protect_classes = 1;
    f.replace_max_retries = 6;
    f.replace_backoff = ghum::sim::milliseconds(2);
    f.faults.node_loss = {{.time = (horizon * 3) / 10, .node = 1},
                          {.time = (horizon * 7) / 10, .node = 2}};
    f.faults.node_degrade = {{.time = horizon / 2, .node = 0, .slow_factor = 4}};
    f.faults.evacuate_degraded = true;
    f.faults.messages.enabled = true;
    f.faults.messages.seed = derive_seed(seed_, 8);
    f.faults.messages.drop_prob = 0.03;
    f.faults.messages.corrupt_prob = 0.02;
    f.faults.messages.duplicate_prob = 0.02;
    f.faults.messages.reorder_prob = 0.02;
    f.faults.messages.e2e_corrupt_bulk = {0};
    f.faults.messages.bulk_threshold = 4096;
    f.heartbeat.enabled = true;
    f.heartbeat.interval = std::max<Picos>(ghum::sim::microseconds(50), horizon / 128);
    f.heartbeat.miss_threshold = 4;
    f.obs.enabled = true;
    f.obs.cadence = std::max<Picos>(1, acfg.mean_interarrival / 2);
    f.obs.ring_capacity = 8192;
    ghum::obs::AlertRule backlog;
    backlog.name = "fleet-backlog";
    backlog.instrument = "fleet.pending_jobs";
    backlog.predicate = ghum::obs::AlertPredicate::kAbove;
    backlog.threshold = 2;
    backlog.for_duration = f.obs.cadence;
    backlog.severity = ghum::obs::AlertSeverity::kWarning;
    ghum::obs::AlertRule retrans;
    retrans.name = "net-retransmit-storm";
    retrans.instrument = "fabric.retransmits";
    retrans.predicate = ghum::obs::AlertPredicate::kAbove;
    retrans.threshold = 0;
    retrans.for_duration = 0;
    retrans.severity = ghum::obs::AlertSeverity::kWarning;
    f.obs.alerts = {backlog, retrans};
    return f;
  }

  /// Fleet, net, obs, tenant and machine metrics of a traced pass; the
  /// exports are timed here, outside the pass.
  static void fleet_layer(fleet::Controller& ctl, const StormOutcome& o,
                          ghum::obs::MetricsRegistry& reg, std::vector<double>& step_us,
                          std::uint64_t solo_accesses, Tracer& tr, PassResult& r) {
    Metrics& m = r.layer;
    std::uint64_t finished = 0, failed = 0;
    for (const StormJob& j : o.jobs) {
      finished += j.finished ? 1 : 0;
      failed += j.failed ? 1 : 0;
    }
    m["fleet.requests"] = static_cast<double>(o.requests);
    m["fleet.finished"] = static_cast<double>(finished);
    m["fleet.failed"] = static_cast<double>(failed);
    m["fleet.shed"] = static_cast<double>(counter_sum(reg, "ghum_fleet_shed_total"));
    m["fleet.placements"] = static_cast<double>(counter_sum(reg, "ghum_fleet_placements_total"));
    m["fleet.evacuations"] =
        static_cast<double>(counter_sum(reg, "ghum_fleet_evacuations_total"));
    // The top class is the protected SLO tier bench_chaosnet gates on;
    // here it is reported, not gated.
    m["fleet.slo_violations"] = static_cast<double>(ctl.slo_summary(0).violations);

    const ghum::net::Fabric& fab = *ctl.fabric();
    const ghum::net::ReliableTotals& rel = fab.reliable_totals();
    m["net.msgs"] = static_cast<double>(fab.totals().total_msgs());
    m["net.bytes"] = static_cast<double>(fab.totals().total_bytes());
    m["net.retransmits"] = static_cast<double>(rel.retransmits);
    m["net.dropped"] = static_cast<double>(rel.drops);
    m["net.first_try_ratio"] =
        rel.sends > 0 ? static_cast<double>(rel.sends - rel.recovered_sends - rel.exhausted) /
                            static_cast<double>(rel.sends)
                      : 0.0;
    if (const ghum::obs::TimeSeries* ts = ctl.recorder()) {
      m["obs.recorder_samples"] = static_cast<double>(ts->size() + ts->dropped());
    }
    m["obs.alerts_opened"] =
        static_cast<double>(counter_sum(reg, "ghum_fleet_alerts_opened_total"));

    m["tenant.steps"] = static_cast<double>(step_us.size());
    std::sort(step_us.begin(), step_us.end());
    if (!step_us.empty()) {
      m["tenant.step_us.p50"] = step_us[step_us.size() / 2];
      m["tenant.step_us.p99"] = step_us[(step_us.size() * 99) / 100];
    }
    double solo_s = 0;
    for (const double us : step_us) solo_s += us * 1e-6;
    m["runtime.accesses"] = static_cast<double>(solo_accesses);
    m["runtime.ns_per_access"] =
        solo_accesses > 0 ? solo_s * 1e9 / static_cast<double>(solo_accesses) : 0.0;

    std::size_t bytes = 0;
    auto id = tr.begin("obs.export");
    bytes += ctl.metrics_prometheus().size();
    bytes += ctl.metrics_json().size();
    const std::string trace = ctl.chrome_trace();
    bytes += trace.size();
    const ghum::obs::MetricsRegistry fed = ctl.federated_metrics();
    m["obs.export_s"] += tr.end(id);
    m["obs.export_bytes"] += static_cast<double>(bytes);
    if (!ghum::obs::json_valid(trace)) r.failures.push_back("fleet chrome trace is not valid JSON");
    m["pagetable.tlb_hits"] = static_cast<double>(counter_sum(fed, "ghum_tlb_hits_total"));
    m["pagetable.tlb_misses"] = static_cast<double>(counter_sum(fed, "ghum_tlb_misses_total"));
    m["driver.faults"] = static_cast<double>(counter_sum(fed, "ghum_faults_total"));
    m["driver.migrated_bytes"] = static_cast<double>(counter_sum(fed, "ghum_migrated_bytes_total"));
    m["driver.evictions"] = static_cast<double>(counter_sum(fed, "ghum_evictions_total"));
  }

  std::uint64_t seed_;
  StormSpec spec_;
};

}  // namespace

std::unique_ptr<Workload> make_grid(std::uint64_t seed, GridSpec spec) {
  return std::make_unique<GridWorkload>(seed, std::move(spec));
}

std::unique_ptr<Workload> make_sweep(SweepSpec spec) {
  return std::make_unique<SweepWorkload>(spec);
}

std::unique_ptr<Workload> make_storm(std::uint64_t seed, StormSpec spec) {
  return std::make_unique<StormWorkload>(seed, spec);
}

std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed) {
  if (name == "paper_grid") return make_grid(seed);
  if (name == "fullscale_sweep") return make_sweep();
  if (name == "fleet_storm") return make_storm(seed);
  return nullptr;
}

}  // namespace perfbench
