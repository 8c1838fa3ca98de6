#include "checks.hpp"

#include <map>

namespace perfbench {

void Fingerprint::add(const ghum::cache::KernelRecord& r) noexcept {
  const ghum::cache::KernelTraffic& t = r.traffic;
  add(static_cast<std::uint64_t>(r.start));
  add(static_cast<std::uint64_t>(r.duration));
  for (const std::uint64_t v :
       {t.hbm_read_bytes, t.hbm_write_bytes, t.c2c_read_bytes, t.c2c_write_bytes,
        t.ddr_read_bytes, t.ddr_write_bytes, t.cpu_remote_read_bytes,
        t.cpu_remote_write_bytes, t.l1l2_bytes, t.gpu_accesses,
        t.migration_h2d_bytes, t.migration_d2h_bytes, t.gpu_first_touch_faults,
        t.managed_faults}) {
    add(v);
  }
}

std::vector<std::size_t> failed_grid_cells(const std::vector<CellOutcome>& cells) {
  std::map<std::string, std::uint64_t> reference;
  for (const CellOutcome& c : cells) {
    if (c.status == ghum::Status::kSuccess) reference.emplace(c.group, c.checksum);
  }
  std::vector<std::size_t> failed;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellOutcome& c = cells[i];
    if (c.status != ghum::Status::kSuccess || reference.at(c.group) != c.checksum) {
      failed.push_back(i);
    }
  }
  return failed;
}

bool sweep_ok(const SweepOutcome& o, std::string* why) {
  std::string msg;
  if (o.extents > kMaxSweepExtents) {
    msg = "page table fragmented into " + std::to_string(o.extents) + " extents";
  } else if (o.rss_growth_bytes >= o.footprint / kSweepRssDivisor) {
    msg = "host RSS grew by " + std::to_string(o.rss_growth_bytes) +
          " bytes over a " + std::to_string(o.footprint) + "-byte footprint";
  }
  if (why != nullptr) *why = msg;
  return msg.empty();
}

bool storm_ok(const StormOutcome& o, std::string* why) {
  std::string msg;
  std::uint64_t finished = 0, failed = 0, mismatches = 0;
  for (const StormJob& j : o.jobs) {
    if (j.finished) {
      ++finished;
      if (j.tmpl >= o.solo_checksums.size() ||
          o.solo_checksums[j.tmpl] != j.checksum) {
        ++mismatches;
      }
    } else if (j.failed) {
      ++failed;
    }
  }
  if (mismatches != 0) {
    msg = std::to_string(mismatches) + " finished jobs differ from their solo checksum";
  } else if (finished + failed != o.requests || o.jobs.size() != o.requests) {
    msg = "finished " + std::to_string(finished) + " + failed " +
          std::to_string(failed) + " != " + std::to_string(o.requests) + " requests";
  } else if (o.node_losses != o.scheduled_deaths ||
             o.detected_losses != o.scheduled_deaths) {
    msg = "declared " + std::to_string(o.detected_losses) + " deaths of " +
          std::to_string(o.node_losses) + " losses; " +
          std::to_string(o.scheduled_deaths) + " scheduled";
  }
  if (why != nullptr) *why = msg;
  return msg.empty();
}

}  // namespace perfbench
