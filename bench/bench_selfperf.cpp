// Simulator self-performance: wall-clock cost of the simulator's hot
// access path, not of the simulated machine. Every tier-1 application x
// memory mode runs once under a wall-clock timer.
//
// The batched run accounting is an optimization of the simulator only:
// every cell must match, bit for bit, the simulated end time, event-log
// digest and status recorded from the retired per-access accounting path
// (the golden table below; the process exits nonzero on any mismatch).
// Results land in BENCH_selfperf.json.
//
// The bench also reports absolute simulator throughput — simulated events
// per wall-clock second over the grid — and can drive a
// *full-scale* smoke: the paper's unscaled 96 GB / 480 GB machine
// (benchsupport::full_scale()), a 2^33-amplitude state-vector footprint
// touched page by page through the resolve/advance_view/commit access
// path. Only the extent-based page tables make this viable; the smoke
// asserts the structural wins (run count stays small, simulator RSS grows
// sub-linearly in the simulated footprint) and pins each MMU's TLB hits and
// misses, which no digest covers.
//
// Flags:
//   --smoke               small problem sizes (the ctest "perf" smoke target)
//   --out <file>          output JSON path (default BENCH_selfperf.json)
//   --fullscale-out <f>   run the full-scale smoke and write its JSON to <f>
//   --gate-throughput <f> absolute events/sec gate (CI only — wall-clock
//                         sensitive, so it is NOT part of the ctest smoke):
//                         fail if measured events/sec (and, when the smoke
//                         ran, full-scale page visits/sec) fall below 80%
//                         of the values recorded in baseline <f>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "benchsupport/report.hpp"
#include "benchsupport/scenarios.hpp"
#include "runtime/runtime.hpp"

using namespace ghum;
namespace bs = benchsupport;

namespace {

struct SelfperfApp {
  std::string name;
  std::function<core::SystemConfig()> config;
  std::function<apps::AppReport(runtime::Runtime&, apps::MemMode, bs::Scale)> run;
};

std::vector<SelfperfApp> selfperf_apps() {
  std::vector<SelfperfApp> v;
  for (const auto& a : bs::rodinia_apps()) {
    v.push_back(SelfperfApp{
        .name = a.name,
        .config = [] { return bs::rodinia_config(pagetable::kSystemPage64K, false); },
        .run = a.run});
  }
  v.push_back(SelfperfApp{
      .name = "qiskit",
      .config = [] { return bs::qv_config(pagetable::kSystemPage64K, false); },
      .run = [](runtime::Runtime& rt, apps::MemMode m, bs::Scale s) {
        return apps::run_qvsim(rt, m, bs::qv_sim_config(s, 17));
      }});
  return v;
}

/// Simulated outcome of one cell on the retired per-access accounting path
/// (Span charging and re-resolving one element at a time), recorded at both
/// scales before that path was removed. Every cell finished with
/// Status::kSuccess.
struct GoldenCell {
  bs::Scale scale;
  const char* app;
  apps::MemMode mode;
  sim::Picos end_time;
  std::uint64_t digest;
};

constexpr GoldenCell kGolden[] = {
    {bs::Scale::kSmall, "bfs", apps::MemMode::kExplicit, 9369062089, 0x3e7eb906b58b1dcaull},
    {bs::Scale::kSmall, "bfs", apps::MemMode::kManaged, 8582585982, 0x2426c6c94e94c9b0ull},
    {bs::Scale::kSmall, "bfs", apps::MemMode::kSystem, 8177205836, 0x5365042acac139d4ull},
    {bs::Scale::kSmall, "hotspot", apps::MemMode::kExplicit, 8649088181, 0x2fc9b9112115c002ull},
    {bs::Scale::kSmall, "hotspot", apps::MemMode::kManaged, 8474052436, 0x242c7bea656a7f31ull},
    {bs::Scale::kSmall, "hotspot", apps::MemMode::kSystem, 8247426212, 0xe78274fd88e2dd33ull},
    {bs::Scale::kSmall, "needle", apps::MemMode::kExplicit, 8584655936, 0xae54bee8bdd4763dull},
    {bs::Scale::kSmall, "needle", apps::MemMode::kManaged, 8478456255, 0x7f5ecd2e0f771716ull},
    {bs::Scale::kSmall, "needle", apps::MemMode::kSystem, 8185008328, 0x3836206c97e0589full},
    {bs::Scale::kSmall, "pathfinder", apps::MemMode::kExplicit, 8871257684, 0x2200f5a3342c5255ull},
    {bs::Scale::kSmall, "pathfinder", apps::MemMode::kManaged, 8630844067, 0xa14373422e48a202ull},
    {bs::Scale::kSmall, "pathfinder", apps::MemMode::kSystem, 8475685640, 0x1128fb0a93eacb9cull},
    {bs::Scale::kSmall, "srad", apps::MemMode::kExplicit, 9285806219, 0x23d097ff9088b859ull},
    {bs::Scale::kSmall, "srad", apps::MemMode::kManaged, 8435225645, 0xac58954b97a141e4ull},
    {bs::Scale::kSmall, "srad", apps::MemMode::kSystem, 8185573508, 0x2f3d3f3fa07a4488ull},
    {bs::Scale::kSmall, "qiskit", apps::MemMode::kExplicit, 8433433521, 0x1bb3b81d97dfb5a3ull},
    {bs::Scale::kSmall, "qiskit", apps::MemMode::kManaged, 8140539474, 0xc71806dd51035e65ull},
    {bs::Scale::kSmall, "qiskit", apps::MemMode::kSystem, 8253674016, 0xf43ccfbf1e9bc159ull},
    {bs::Scale::kDefault, "bfs", apps::MemMode::kExplicit, 9976396404, 0xb98695c9c00034bbull},
    {bs::Scale::kDefault, "bfs", apps::MemMode::kManaged, 9862735923, 0xc556c1d941103163ull},
    {bs::Scale::kDefault, "bfs", apps::MemMode::kSystem, 9798210661, 0x2f93b7e94af2e968ull},
    {bs::Scale::kDefault, "hotspot", apps::MemMode::kExplicit, 9267958379, 0x9e1f13d5d91368beull},
    {bs::Scale::kDefault, "hotspot", apps::MemMode::kManaged, 9401253670, 0x4de5d3f59fa9cb2cull},
    {bs::Scale::kDefault, "hotspot", apps::MemMode::kSystem, 8992567602, 0x1ca95b2dac397926ull},
    {bs::Scale::kDefault, "needle", apps::MemMode::kExplicit, 11840241206, 0x54b5c37006cb6775ull},
    {bs::Scale::kDefault, "needle", apps::MemMode::kManaged, 12825742361, 0xae9640f2208a702eull},
    {bs::Scale::kDefault, "needle", apps::MemMode::kSystem, 11717179910, 0xf033967709bf2bb9ull},
    {bs::Scale::kDefault, "pathfinder", apps::MemMode::kExplicit, 15014017983, 0x73ceb21e3c07d474ull},
    {bs::Scale::kDefault, "pathfinder", apps::MemMode::kManaged, 15845058381, 0x3439c7f60d02bffbull},
    {bs::Scale::kDefault, "pathfinder", apps::MemMode::kSystem, 14563031577, 0xe74fb4bde8bd3a66ull},
    {bs::Scale::kDefault, "srad", apps::MemMode::kExplicit, 9805194845, 0x87351f09be340ddfull},
    {bs::Scale::kDefault, "srad", apps::MemMode::kManaged, 9321031982, 0x533399a0c8127433ull},
    {bs::Scale::kDefault, "srad", apps::MemMode::kSystem, 10284106150, 0x1e08eda21fad9c40ull},
    {bs::Scale::kDefault, "qiskit", apps::MemMode::kExplicit, 8475302449, 0x39edb53b06093f8bull},
    {bs::Scale::kDefault, "qiskit", apps::MemMode::kManaged, 8182408402, 0x31ba7a0db03c832dull},
    {bs::Scale::kDefault, "qiskit", apps::MemMode::kSystem, 8295541920, 0xb80473525f4a0fb7ull},
};

const GoldenCell* find_golden(bs::Scale scale, const std::string& app,
                              apps::MemMode mode) {
  for (const GoldenCell& g : kGolden) {
    if (g.scale == scale && app == g.app && g.mode == mode) return &g;
  }
  return nullptr;
}

struct TimedRun {
  double wall_ms = 0;
  sim::Picos end_time = 0;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  Status status = Status::kSuccess;
};

TimedRun one_run(const SelfperfApp& app, apps::MemMode mode, bs::Scale scale) {
  core::SystemConfig cfg = app.config();
  cfg.event_log = true;
  core::System sys{cfg};
  runtime::Runtime rt{sys};
  const auto t0 = std::chrono::steady_clock::now();
  const auto res = bs::guarded_run([&] { return app.run(rt, mode, scale); });
  const auto t1 = std::chrono::steady_clock::now();
  TimedRun out;
  out.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(t1 - t0)
          .count();
  out.end_time = sys.now();
  out.digest = sys.events().digest(sys.now());
  out.events = sys.events().events().size();
  out.status = res.status;
  return out;
}

struct Cell {
  std::string app;
  std::string mode;
  double wall_ms = 0;
  double sim_ms = 0;
  bool golden_ok = false;
};

/// Minimal extraction of a numeric field from a baseline JSON written by a
/// previous run of this bench ("key": value).
bool find_json_number(const std::string& text, const char* key, double* out) {
  const std::string needle = std::string{"\""} + key + "\":";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return false;
  *out = std::strtod(text.c_str() + pos + needle.size(), nullptr);
  return true;
}

bool read_file(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out->append(buf, n);
  std::fclose(f);
  return true;
}

/// Current resident-set size of this process in KiB (Linux
/// /proc/self/status; 0 where unavailable, which disables the RSS check).
long read_vmrss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::strtol(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

/// One page-granular pass over [base, base+bytes): the batched hot path
/// (advance_view inside a residency run, full resolve at run boundaries),
/// committing a token access per page. Returns pages visited.
std::uint64_t sweep_pages(core::System& sys, std::uint64_t base,
                          std::uint64_t bytes, mem::Node origin) {
  const std::uint64_t page = sys.config().system_page_size;
  core::PageView view;
  std::uint64_t visits = 0;
  for (std::uint64_t va = base; va < base + bytes; va += page) {
    if (!sys.advance_view(view, va)) view = sys.resolve(va, origin);
    sys.commit(view, 64, 64, 2, 2);
    ++visits;
  }
  return visits;
}

/// Per-MMU TLB hits and misses of the full-scale smoke, recorded from the
/// list-based LRU TLB before its slot-array rewrite. Every pass streams
/// 2 Mi fresh 64 KiB pages through TLBs of a few thousand entries, so every
/// lookup misses; the GPU-exclusive uTLB is never consulted.
struct TlbCounts {
  const char* mmu;
  std::uint64_t hits;
  std::uint64_t misses;
};
constexpr TlbCounts kFullScaleTlb[] = {
    {"smmu_cpu", 0, 2097152},
    {"smmu_ats", 0, 4194304},
    {"gmmu_gpu", 0, 0},
    {"gmmu_ats", 0, 4194304},
};
constexpr std::size_t kMmus = std::size(kFullScaleTlb);

struct FullScaleResult {
  std::uint32_t qubits = 0;
  std::uint64_t footprint = 0;
  std::uint64_t page_visits = 0;
  double wall_s = 0;
  double pages_per_sec = 0;
  std::size_t run_count = 0;
  std::uint64_t hbm_resident = 0;
  std::uint64_t ddr_resident = 0;
  long rss_before_kb = 0;
  long rss_after_kb = 0;
  TlbCounts tlb[kMmus] = {};
  bool runs_ok = false;
  bool rss_ok = false;
  bool tlb_ok = false;
  [[nodiscard]] bool ok() const noexcept { return runs_ok && rss_ok && tlb_ok; }
};

/// The paper's unscaled machine (96 GB HBM / 480 GB LPDDR5X) hosting a
/// 33-qubit state vector (128 GiB — the largest oversubscribed Section 7
/// size below the 34-qubit full run): CPU first-touch initialization,
/// prefetch until HBM fills, then two GPU passes (HBM prefix local, DDR
/// tail remote over C2C). Page-granular, no backing bytes, no event log —
/// the point is that the simulator itself stays fast and small: residency
/// must stay a handful of extents and the process RSS must grow
/// sub-linearly in the 128 GiB simulated footprint.
FullScaleResult run_full_scale(std::uint32_t qubits) {
  FullScaleResult r;
  r.qubits = qubits;
  r.footprint = 16ull << qubits;  // 2^q amplitudes x complex<double>
  r.rss_before_kb = read_vmrss_kb();
  const auto t0 = std::chrono::steady_clock::now();

  core::System sys{bs::full_scale()};
  core::Buffer state = sys.sys_malloc(r.footprint, "fullscale.state");
  r.page_visits += sweep_pages(sys, state.va, r.footprint, mem::Node::kCpu);
  sys.prefetch(state, 0, r.footprint, mem::Node::kGpu);
  for (int pass = 0; pass < 2; ++pass) {
    sys.kernel_begin("fullscale.sweep");
    r.page_visits += sweep_pages(sys, state.va, r.footprint, mem::Node::kGpu);
    (void)sys.kernel_end();
  }

  const auto t1 = std::chrono::steady_clock::now();
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.pages_per_sec =
      r.wall_s > 0 ? static_cast<double>(r.page_visits) / r.wall_s : 0;
  const auto& pt = sys.machine().system_pt();
  r.run_count = pt.run_count();
  r.hbm_resident = pt.resident_bytes(mem::Node::kGpu);
  r.ddr_resident = pt.resident_bytes(mem::Node::kCpu);
  r.rss_after_kb = read_vmrss_kb();
  auto& m = sys.machine();
  const pagetable::Tlb* tlbs[kMmus] = {&m.smmu().cpu_tlb(), &m.smmu().ats_tlb(),
                                       &m.gmmu().utlb_gpu(), &m.gmmu().utlb_sys()};
  r.tlb_ok = true;
  for (std::size_t i = 0; i < kMmus; ++i) {
    r.tlb[i] = {kFullScaleTlb[i].mmu, tlbs[i]->hits(), tlbs[i]->misses()};
    r.tlb_ok = r.tlb_ok && r.tlb[i].hits == kFullScaleTlb[i].hits &&
               r.tlb[i].misses == kFullScaleTlb[i].misses;
  }

  // Structural gates. A dense allocation split once by the HBM/DDR
  // boundary is a handful of runs; 64 leaves headroom for stray
  // fragmentation without letting per-page behavior (2 million runs)
  // sneak back in. RSS growth under footprint/256 (512 MiB for 128 GiB)
  // proves the simulator no longer materializes the machine it models.
  r.runs_ok = r.run_count <= 64;
  const auto rss_growth_bytes =
      static_cast<std::uint64_t>(
          r.rss_after_kb > r.rss_before_kb ? r.rss_after_kb - r.rss_before_kb
                                           : 0) *
      1024ull;
  r.rss_ok = r.rss_before_kb == 0 || rss_growth_bytes < r.footprint / 256;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bs::Scale scale = bs::Scale::kDefault;
  std::string out_path = "BENCH_selfperf.json";
  std::string fullscale_path;
  std::string gate_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      scale = bs::Scale::kSmall;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--fullscale-out") == 0 && i + 1 < argc) {
      fullscale_path = argv[++i];
    } else if (std::strcmp(argv[i], "--gate-throughput") == 0 && i + 1 < argc) {
      gate_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--out <file>] [--fullscale-out <file>] "
                   "[--gate-throughput <baseline>]\n",
                   argv[0]);
      return 2;
    }
  }

  bs::print_figure_header(
      "Selfperf", "simulator wall-clock of the access-accounting path",
      "every cell is bit-for-bit identical to the golden per-access "
      "simulated time, event stream and status");

  std::vector<Cell> cells;
  std::size_t golden_failures = 0;
  double total_ms = 0;
  std::uint64_t total_events = 0;

  std::printf("%-12s %-9s %12s %10s %6s\n", "app", "mode", "wall_ms", "sim_ms",
              "golden");
  for (const auto& app : selfperf_apps()) {
    for (apps::MemMode mode : {apps::MemMode::kExplicit, apps::MemMode::kManaged,
                               apps::MemMode::kSystem}) {
      const TimedRun run = one_run(app, mode, scale);
      const GoldenCell* g = find_golden(scale, app.name, mode);
      Cell c;
      c.app = app.name;
      c.mode = std::string{to_string(mode)};
      c.wall_ms = run.wall_ms;
      c.sim_ms = sim::to_milliseconds(run.end_time);
      c.golden_ok = g != nullptr && run.status == Status::kSuccess &&
                    run.end_time == g->end_time && run.digest == g->digest;
      if (!c.golden_ok) ++golden_failures;
      total_ms += c.wall_ms;
      total_events += run.events;
      std::printf("%-12s %-9s %12.2f %10.3f %6s\n", c.app.c_str(), c.mode.c_str(),
                  c.wall_ms, c.sim_ms, c.golden_ok ? "ok" : "FAIL");
      cells.push_back(std::move(c));
    }
  }

  const double events_per_sec =
      total_ms > 0 ? static_cast<double>(total_events) / (total_ms / 1000.0) : 0;
  std::printf("\ntotal: %.1f ms, %.0f simulated events/s, %zu golden "
              "failures\n",
              total_ms, events_per_sec, golden_failures);

  FullScaleResult fs;
  const bool fullscale_ran = !fullscale_path.empty();
  if (fullscale_ran) {
    fs = run_full_scale(/*qubits=*/33);
    std::printf("\nfull-scale: %u qubits (%.0f GiB) — %llu page visits in "
                "%.2f s (%.0f pages/s), %zu extents, HBM %.1f GiB / DDR "
                "%.1f GiB resident, RSS %+ld KiB [%s]\n",
                fs.qubits, static_cast<double>(fs.footprint) / (1ull << 30),
                static_cast<unsigned long long>(fs.page_visits), fs.wall_s,
                fs.pages_per_sec, fs.run_count,
                static_cast<double>(fs.hbm_resident) / (1ull << 30),
                static_cast<double>(fs.ddr_resident) / (1ull << 30),
                fs.rss_after_kb - fs.rss_before_kb, fs.ok() ? "ok" : "FAIL");
    if (std::FILE* f = std::fopen(fullscale_path.c_str(), "w")) {
      std::fprintf(f, "{\n  \"bench\": \"selfperf_fullscale\",\n");
      std::fprintf(f, "  \"qubits\": %u,\n", fs.qubits);
      std::fprintf(f, "  \"footprint_bytes\": %llu,\n",
                   static_cast<unsigned long long>(fs.footprint));
      std::fprintf(f, "  \"page_visits\": %llu,\n",
                   static_cast<unsigned long long>(fs.page_visits));
      std::fprintf(f, "  \"wall_s\": %.3f,\n", fs.wall_s);
      std::fprintf(f, "  \"fullscale_pages_per_sec\": %.1f,\n", fs.pages_per_sec);
      std::fprintf(f, "  \"run_count\": %zu,\n", fs.run_count);
      std::fprintf(f, "  \"hbm_resident_bytes\": %llu,\n",
                   static_cast<unsigned long long>(fs.hbm_resident));
      std::fprintf(f, "  \"ddr_resident_bytes\": %llu,\n",
                   static_cast<unsigned long long>(fs.ddr_resident));
      std::fprintf(f, "  \"rss_before_kb\": %ld,\n", fs.rss_before_kb);
      std::fprintf(f, "  \"rss_after_kb\": %ld,\n", fs.rss_after_kb);
      std::fprintf(f, "  \"tlb\": {");
      for (std::size_t i = 0; i < kMmus; ++i) {
        std::fprintf(f, "%s\"%s\": {\"hits\": %llu, \"misses\": %llu}",
                     i == 0 ? "" : ", ", fs.tlb[i].mmu,
                     static_cast<unsigned long long>(fs.tlb[i].hits),
                     static_cast<unsigned long long>(fs.tlb[i].misses));
      }
      std::fprintf(f, "},\n");
      std::fprintf(f, "  \"runs_ok\": %s,\n", fs.runs_ok ? "true" : "false");
      std::fprintf(f, "  \"rss_ok\": %s,\n", fs.rss_ok ? "true" : "false");
      std::fprintf(f, "  \"tlb_ok\": %s\n", fs.tlb_ok ? "true" : "false");
      std::fprintf(f, "}\n");
      std::fclose(f);
      std::printf("wrote %s\n", fullscale_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", fullscale_path.c_str());
      return 1;
    }
  }

  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fprintf(f, "{\n  \"bench\": \"selfperf\",\n  \"scale\": \"%s\",\n",
                 scale == bs::Scale::kSmall ? "small" : "default");
    std::fprintf(f, "  \"cells\": [\n");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      std::fprintf(f,
                   "    {\"app\": \"%s\", \"mode\": \"%s\", \"wall_ms\": %.3f, "
                   "\"sim_ms\": %.4f, \"golden_ok\": %s}%s\n",
                   c.app.c_str(), c.mode.c_str(), c.wall_ms, c.sim_ms,
                   c.golden_ok ? "true" : "false",
                   i + 1 < cells.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"total_wall_ms\": %.3f,\n", total_ms);
    std::fprintf(f, "  \"total_events\": %llu,\n",
                 static_cast<unsigned long long>(total_events));
    std::fprintf(f, "  \"events_per_sec\": %.1f,\n", events_per_sec);
    std::fprintf(f, "  \"golden_ok\": %s\n",
                 golden_failures == 0 ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }

  if (golden_failures != 0) {
    std::fprintf(stderr, "FAIL: %zu cells differ from the golden per-access "
                 "outcome\n",
                 golden_failures);
    return 1;
  }
  if (fullscale_ran && !fs.ok()) {
    std::fprintf(stderr,
                 "FAIL: full-scale smoke structural gate (%zu extents%s, RSS "
                 "%+ld KiB over a %.0f GiB footprint%s%s)\n",
                 fs.run_count, fs.runs_ok ? "" : " — too fragmented",
                 fs.rss_after_kb - fs.rss_before_kb,
                 static_cast<double>(fs.footprint) / (1ull << 30),
                 fs.rss_ok ? "" : " — super-linear RSS",
                 fs.tlb_ok ? "" : ", TLB hits/misses differ from the pinned counts");
    for (std::size_t i = 0; i < kMmus; ++i) {
      std::fprintf(stderr, "  %s: %llu hits, %llu misses (pinned %llu, %llu)\n",
                   fs.tlb[i].mmu, static_cast<unsigned long long>(fs.tlb[i].hits),
                   static_cast<unsigned long long>(fs.tlb[i].misses),
                   static_cast<unsigned long long>(kFullScaleTlb[i].hits),
                   static_cast<unsigned long long>(kFullScaleTlb[i].misses));
    }
    return 1;
  }

  if (!gate_path.empty()) {
    std::string text;
    if (!read_file(gate_path, &text)) {
      std::fprintf(stderr, "cannot read throughput baseline %s\n",
                   gate_path.c_str());
      return 1;
    }
    double baseline_eps = 0;
    if (!find_json_number(text, "events_per_sec", &baseline_eps) ||
        baseline_eps <= 0) {
      std::fprintf(stderr, "baseline %s has no events_per_sec\n",
                   gate_path.c_str());
      return 1;
    }
    // Absolute wall-clock gate (>20% regression fails). The recorded
    // baseline is deliberately conservative (a fraction of a healthy run)
    // so machine-to-machine variance does not trip it; a per-page
    // regression is orders of magnitude, not percent.
    if (events_per_sec < 0.8 * baseline_eps) {
      std::fprintf(stderr,
                   "FAIL: %.0f simulated events/s is >20%% below baseline "
                   "%.0f\n",
                   events_per_sec, baseline_eps);
      return 1;
    }
    std::printf("gate: %.0f events/s vs baseline %.0f — ok\n", events_per_sec,
                baseline_eps);
    double baseline_fps = 0;
    if (fullscale_ran &&
        find_json_number(text, "fullscale_pages_per_sec", &baseline_fps) &&
        baseline_fps > 0) {
      if (fs.pages_per_sec < 0.8 * baseline_fps) {
        std::fprintf(stderr,
                     "FAIL: full-scale %.0f pages/s is >20%% below baseline "
                     "%.0f\n",
                     fs.pages_per_sec, baseline_fps);
        return 1;
      }
      std::printf("gate: full-scale %.0f pages/s vs baseline %.0f — ok\n",
                  fs.pages_per_sec, baseline_fps);
    }
  }
  return 0;
}
