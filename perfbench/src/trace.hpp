#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// \file trace.hpp
/// Host-side span recorder of the benchmark. Spans are opened and closed
/// by the benchmark's own code around the calls it makes into one layer of
/// the simulator; each records its parent and the deltas of the counters
/// the caller reads at its two ends. Spans stay in memory and are written
/// once, as Chrome-trace JSON, when the run ends.

namespace perfbench {

/// Host seconds on the steady clock since an arbitrary fixed origin.
[[nodiscard]] double host_now_s();

struct Span {
  std::string name;
  std::int64_t parent = -1;  ///< index into the span list, -1 = root
  double start_s = 0;
  double end_s = 0;
  /// Counter deltas over [start_s, end_s], by counter name.
  std::vector<std::pair<std::string, double>> counters;

  [[nodiscard]] double duration_s() const noexcept { return end_s - start_s; }
};

/// Records nested spans when enabled; every call is a no-op otherwise, so
/// untraced passes read no clock on the tracer's behalf.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span whose parent is the innermost open span. Returns its id.
  std::size_t begin(std::string_view name);
  /// Closes span \p id (the innermost open one) with its counter deltas.
  /// Returns its duration in seconds (0 when disabled).
  double end(std::size_t id,
             std::vector<std::pair<std::string, double>> counters = {});

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children counted once).
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

/// Summed self time and span count per span name.
struct NameTotals {
  double self_s = 0;
  double total_s = 0;
  std::uint64_t count = 0;
};
[[nodiscard]] std::map<std::string, NameTotals> totals_by_name(
    const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" complete events, microseconds; args carry
/// the span id, parent, self time and counter deltas).
[[nodiscard]] std::string chrome_trace_json(const std::vector<Span>& spans);

}  // namespace perfbench
