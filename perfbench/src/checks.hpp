#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/app_common.hpp"
#include "cache/kernel_traffic.hpp"
#include "fault/status.hpp"

/// \file checks.hpp
/// Output checks of the three workloads and the simulation fingerprint.
/// The checks compare a pass's outputs with each other (modes against
/// modes, finished jobs against solo runs), never with recorded values,
/// so they hold at every seed.

namespace perfbench {

/// FNV-1a over 64-bit words: the simulation fingerprint of one pass.
class Fingerprint {
 public:
  void add(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (i * 8)) & 0xFFull;
      h_ *= 0x100000001b3ull;
    }
  }
  /// Folds a kernel record's duration and traffic.
  void add(const ghum::cache::KernelRecord& r) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// One paper_grid cell as the check sees it.
struct CellOutcome {
  std::string group;  ///< cells that must agree on the checksum (app + size)
  ghum::apps::MemMode mode = ghum::apps::MemMode::kExplicit;
  double ratio = 1.0;
  ghum::Status status = ghum::Status::kSuccess;  ///< what the run died of
  std::uint64_t checksum = 0;
};

/// Indexes of failed cells: a cell fails when its run died (out of memory
/// or any other Status), or when its checksum differs from the first
/// surviving cell of its group.
[[nodiscard]] std::vector<std::size_t> failed_grid_cells(
    const std::vector<CellOutcome>& cells);

/// fullscale_sweep's structural limits, as bench_selfperf gates them.
inline constexpr std::size_t kMaxSweepExtents = 64;
inline constexpr std::uint64_t kSweepRssDivisor = 256;

struct SweepOutcome {
  std::uint64_t footprint = 0;       ///< simulated bytes swept
  std::size_t extents = 0;           ///< system page-table runs after the pass
  std::uint64_t rss_growth_bytes = 0;  ///< host RSS growth over the pass
};

/// True when the page table stayed at most kMaxSweepExtents runs and RSS
/// grew by less than footprint / kSweepRssDivisor. \p why names a failure.
[[nodiscard]] bool sweep_ok(const SweepOutcome& o, std::string* why = nullptr);

struct StormJob {
  std::uint32_t tmpl = 0;
  bool finished = false;
  bool failed = false;
  std::uint64_t checksum = 0;
};

struct StormOutcome {
  std::uint64_t requests = 0;
  std::vector<StormJob> jobs;
  std::vector<std::uint64_t> solo_checksums;  ///< per template
  std::uint64_t scheduled_deaths = 0;  ///< silent deaths in the fault schedule
  std::uint64_t node_losses = 0;       ///< deaths that happened
  std::uint64_t detected_losses = 0;   ///< deaths the controller declared
};

/// True when every finished job's checksum equals its template's solo
/// checksum, finished + failed equals the request count, and the
/// controller declared exactly the scheduled deaths (all detected, none
/// false). \p why names a failure.
[[nodiscard]] bool storm_ok(const StormOutcome& o, std::string* why = nullptr);

}  // namespace perfbench
