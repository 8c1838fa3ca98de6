// ghum_perfbench: host-side benchmark of the ghum simulator. Runs one
// workload for a fixed time budget, pass after pass, checks every pass's
// outputs and fingerprint, and prints its metrics. The last line of
// standard output is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Untraced runs report the end-to-end metrics (wall_s, ops_per_s,
// setup_s, peak_rss_mib); traced runs alternate traced and untraced
// passes and report the per-layer metrics, per-span self time and the
// tracing overhead, and write the spans as a Chrome trace.
//
// Usage: ghum_perfbench --workload <paper_grid|fullscale_sweep|fleet_storm>
//          [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//          [--revision REV]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/json_check.hpp"
#include "trace.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

constexpr int kMinPasses = 3;
constexpr int kMinTracedPasses = 4;  // two traced, two untraced

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metric_json(const std::string& name, double value, const std::string& unit) {
  return "\"" + name + "\": {\"value\": " + number(value) + ", \"unit\": \"" + unit + "\"}";
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <paper_grid|fullscale_sweep|fleet_storm> "
               "[--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] "
               "[--revision REV]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  std::string trace_out = "perfbench_trace.json";
  std::string revision = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      traced = std::strcmp(v, "1") == 0;
    } else if (a == "--trace-out") {
      trace_out = v;
    } else if (a == "--revision") {
      revision = v;
    } else {
      return usage(argv[0]);
    }
  }
  std::unique_ptr<Workload> w = make_workload(workload, seed);
  if (!w) return usage(argv[0]);

  Tracer tracer{traced};
  Tracer untraced{false};
  std::vector<PassResult> plain;
  std::vector<PassResult> with_trace;
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t fingerprint = 0;
  // Peak RSS over a fixed amount of work: later passes only let allocator
  // fragmentation creep the high-water mark up by a few MiB, by an amount
  // that depends on how many passes fit in the time budget.
  long peak_rss_kb = 0;
  const double start = host_now_s();
  for (int pass = 0;; ++pass) {
    const bool trace_this = traced && pass % 2 == 0;
    PassResult r = w->pass(trace_this ? tracer : untraced);
    if (pass == 0) fingerprint = r.fingerprint;
    if (r.fingerprint != fingerprint) {
      r.failures.push_back("fingerprint differs from the first pass");
      r.failed = std::max<std::uint64_t>(r.failed, 1);
    }
    attempted += r.attempted;
    failed += r.failed;
    std::printf("pass %d%s: setup %.4f s, wall %.4f s, %llu ops, fingerprint %016llx\n",
                pass + 1, trace_this ? " (traced)" : "", r.setup_s, r.wall_s,
                static_cast<unsigned long long>(r.ops),
                static_cast<unsigned long long>(r.fingerprint));
    for (const std::string& f : r.failures) std::printf("  FAILED: %s\n", f.c_str());
    (trace_this ? with_trace : plain).push_back(std::move(r));
    if (pass + 1 == kMinPasses) peak_rss_kb = read_status_kb("VmHWM");
    const int min_passes = traced ? kMinTracedPasses : kMinPasses;
    if (pass + 1 >= min_passes && host_now_s() - start >= seconds) break;
  }

  std::vector<double> walls, rates, setups;
  for (const PassResult& r : plain) {
    walls.push_back(r.wall_s);
    rates.push_back(static_cast<double>(r.ops) / r.wall_s);
    setups.push_back(r.setup_s);
  }

  std::printf("{\"manifest\": {\"workload\": \"%s\", \"revision\": \"%s\", "
              "\"compiler\": \"%s\", \"cxx_version\": \"%s\", \"build_type\": \"%s\", "
              "\"nproc\": %u, \"seed\": %llu, \"seconds\": %s, \"passes\": %zu, "
              "\"traced_passes\": %zu, \"fingerprint\": \"%016llx\", \"sizes\": %s}}\n",
              workload.c_str(), revision.c_str(), PERFBENCH_COMPILER, __VERSION__,
              PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
              static_cast<unsigned long long>(seed), number(seconds).c_str(),
              plain.size() + with_trace.size(), with_trace.size(),
              static_cast<unsigned long long>(fingerprint), w->sizes_json().c_str());

  std::vector<std::string> metrics;
  if (!traced) {
    metrics.push_back(metric_json("wall_s", median(walls), "s"));
    metrics.push_back(metric_json("ops_per_s", median(rates), "ops/s"));
    metrics.push_back(metric_json("setup_s", median(setups), "s"));
    metrics.push_back(metric_json("peak_rss_mib", static_cast<double>(peak_rss_kb) / 1024.0, "MiB"));
  } else {
    Metrics layer;
    for (const MetricDef& d : layer_metrics()) {
      std::vector<double> v;
      for (const PassResult& r : with_trace) {
        const auto it = r.layer.find(d.name);
        v.push_back(it == r.layer.end() ? 0.0 : it->second);
      }
      layer[d.name] = median(v);
    }
    const double lookups = layer["pagetable.tlb_hits"] + layer["pagetable.tlb_misses"];
    layer["pagetable.tlb_hit_ratio"] = lookups > 0 ? layer["pagetable.tlb_hits"] / lookups : 0;

    std::printf("per-span time per traced pass (%zu passes, %zu spans):\n",
                with_trace.size(), tracer.spans().size());
    std::printf("  %-18s %10s %12s %12s\n", "span", "count", "total_s", "self_s");
    const double n = static_cast<double>(with_trace.size());
    for (const auto& [name, t] : totals_by_name(tracer.spans())) {
      std::printf("  %-18s %10.0f %12.6f %12.6f\n", name.c_str(),
                  static_cast<double>(t.count) / n, t.total_s / n, t.self_s / n);
      if (layer.count("self_s." + name) != 0) layer["self_s." + name] = t.self_s / n;
    }
    std::vector<double> traced_walls;
    for (const PassResult& r : with_trace) traced_walls.push_back(r.wall_s);
    layer["trace.traced_wall_s"] = median(traced_walls);
    layer["trace.untraced_wall_s"] = median(walls);
    layer["trace.overhead_ratio"] = median(traced_walls) / median(walls) - 1.0;
    std::printf("tracing overhead: traced wall %.4f s vs untraced %.4f s (%+.1f%%)\n",
                layer["trace.traced_wall_s"], layer["trace.untraced_wall_s"],
                100.0 * layer["trace.overhead_ratio"]);

    const std::string json = chrome_trace_json(tracer.spans());
    std::string err;
    if (!ghum::obs::json_valid(json, &err)) {
      std::printf("  FAILED: trace JSON is invalid: %s\n", err.c_str());
      ++failed;
    } else if (std::FILE* f = std::fopen(trace_out.c_str(), "w")) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("wrote %s (%zu bytes)\n", trace_out.c_str(), json.size());
    } else {
      std::printf("  FAILED: cannot write %s\n", trace_out.c_str());
      ++failed;
    }
    for (const MetricDef& d : layer_metrics()) {
      metrics.push_back(metric_json(d.name, layer[d.name], d.unit));
    }
  }

  std::string out = "{\"correct\": " + std::string{failed == 0 ? "true" : "false"} +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) out += (i ? ", " : "") + metrics[i];
  out += "}}";
  std::printf("%s\n", out.c_str());
  return 0;
}
