#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "benchsupport/scenarios.hpp"
#include "trace.hpp"

/// \file workloads.hpp
/// The benchmark's three workloads (README.md says why each exists):
///
///  - paper_grid: the six apps in explicit, managed and system mode at
///    1.0x and 1.5x oversubscription, one grid cell at a time;
///  - fullscale_sweep: the unscaled 96 GB + 480 GB machine with a 128 GiB
///    state vector swept page by page through resolve/advance_view/commit;
///  - fleet_storm: bench_chaosnet's node-kill storm on a lossy fabric with
///    a tiny-job catalog, so the controller, scheduler, fabric, obs and chk
///    layers do most of the work.
///
/// A pass runs the workload's fixed input once. Set-up (machine
/// construction, reference runs, arrival generation) is timed apart from
/// the pass. Traced passes also fill per-layer metrics and run probes (the
/// Snapshotter calls and the exports) outside the timed interval.

namespace perfbench {

/// Per-layer metrics of one traced pass, by name (see layer_metrics()).
using Metrics = std::map<std::string, double>;

struct PassResult {
  double setup_s = 0;  ///< host seconds of set-up, not part of wall_s
  double wall_s = 0;   ///< host seconds of the pass, probes excluded
  std::uint64_t ops = 0;        ///< accesses / page visits / terminal requests
  std::uint64_t attempted = 0;  ///< operations: cells / sweeps / storms
  std::uint64_t failed = 0;
  std::uint64_t fingerprint = 0;  ///< simulated outcome of the pass
  std::vector<std::string> failures;  ///< one line per failed check
  Metrics layer;  ///< traced passes only
};

struct MetricDef {
  std::string name;
  std::string unit;
};

/// Every per-layer metric a traced run prints, in order.
[[nodiscard]] const std::vector<MetricDef>& layer_metrics();

/// Splits one workload seed into independent streams (app configs,
/// arrivals, message faults).
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs one pass: set-up, the timed work, its output checks and
  /// fingerprint. Spans go to \p tr when it is enabled.
  virtual PassResult pass(Tracer& tr) = 0;
  /// The workload's sizes for the run manifest, as a JSON object.
  [[nodiscard]] virtual std::string sizes_json() const = 0;
};

struct GridSpec {
  ghum::benchsupport::Scale scale = ghum::benchsupport::Scale::kDefault;
  std::vector<std::uint32_t> qv_qubits = {20};  ///< HBM holds 20 qubits
};

struct SweepSpec {
  std::uint32_t qubits = 33;  ///< state vector of 16 * 2^qubits bytes
};

struct StormSpec {
  std::uint64_t requests = 3000;
};

[[nodiscard]] std::unique_ptr<Workload> make_grid(std::uint64_t seed, GridSpec spec = {});
[[nodiscard]] std::unique_ptr<Workload> make_sweep(SweepSpec spec = {});
[[nodiscard]] std::unique_ptr<Workload> make_storm(std::uint64_t seed, StormSpec spec = {});

/// The named workload at its benchmark size, or null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      std::uint64_t seed);

/// Current and peak resident set of this process in KiB (VmRSS / VmHWM).
[[nodiscard]] long read_status_kb(const char* field);

}  // namespace perfbench
