#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

/// \file timeseries.hpp
/// obs::TimeSeries — a deterministic time-series flight recorder
/// (DESIGN.md Section 13). Samples a set of named integer-valued series
/// (each backed by a caller-supplied sampler callback) at a fixed cadence
/// of *simulated* time: advance(t) takes every cadence edge in
/// (last_edge, t] in order and snapshots all series at each. There is no
/// wall clock anywhere — two runs that reach the same fleet time have
/// sampled at exactly the same instants with exactly the same values, so
/// the recorder's digest is part of the fleet's bit-for-bit story.
///
/// Storage is a ring: one shared timestamp ring plus one value ring per
/// series, O(1) append, oldest samples overwritten once capacity is
/// reached (dropped() counts them). Windowed min/max/avg queries and
/// TSV/JSON export read whatever the ring still holds.

namespace ghum::obs {

/// Aggregate over the retained samples of one series in [t0, t1].
struct SeriesWindow {
  std::uint64_t count = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  std::int64_t sum = 0;

  [[nodiscard]] std::int64_t avg() const noexcept {
    return count == 0 ? 0 : sum / static_cast<std::int64_t>(count);
  }
};

class TimeSeries {
 public:
  static constexpr std::size_t kNoSeries = ~std::size_t{0};

  /// \p cadence must be > 0 and \p capacity (samples retained per series)
  /// must be > 0; both are clamped to 1 otherwise.
  explicit TimeSeries(sim::Picos cadence, std::size_t capacity = 4096);

  /// Registers a series. Samplers are invoked in registration order at
  /// every edge; they must be pure reads of simulated state (no wall
  /// clock, no RNG) or determinism is lost. Returns the series index.
  /// Registering after the first advance() keeps history aligned: the new
  /// series reads 0 for edges it missed.
  std::size_t add(std::string name, std::function<std::int64_t()> sampler);

  /// Index of a named series, or kNoSeries.
  [[nodiscard]] std::size_t find(std::string_view name) const noexcept;

  /// Samples every cadence edge in (last_edge, now]: edge times are exact
  /// multiples of the cadence, so they are independent of how callers
  /// chop the timeline into advance() calls as long as every edge is
  /// reached with the same simulated state.
  void advance(sim::Picos now);

  [[nodiscard]] sim::Picos cadence() const noexcept { return cadence_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t series_count() const noexcept {
    return series_.size();
  }
  [[nodiscard]] const std::string& name(std::size_t series) const {
    return series_[series].name;
  }
  /// Samples currently retained (<= capacity).
  [[nodiscard]] std::size_t size() const noexcept { return used_; }
  /// Samples overwritten because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  /// Time of the most recent edge sampled (-1 before the first).
  [[nodiscard]] sim::Picos last_edge() const noexcept { return last_edge_; }

  /// The i-th retained sample, oldest first (i < size()).
  [[nodiscard]] sim::Picos time_at(std::size_t i) const noexcept;
  [[nodiscard]] std::int64_t value_at(std::size_t series,
                                      std::size_t i) const noexcept;

  /// Index of the oldest retained sample with time >= \p t, or size()
  /// when there is none. Retained times ascend, so this is a binary search.
  [[nodiscard]] std::size_t first_at_or_after(sim::Picos t) const noexcept;

  /// Aggregate of one series over retained samples with t0 <= t <= t1.
  [[nodiscard]] SeriesWindow window(std::size_t series, sim::Picos t0,
                                    sim::Picos t1) const noexcept;

  /// One header row (time_ps then series names) and one row per retained
  /// sample, oldest first, tab-separated.
  [[nodiscard]] std::string to_tsv() const;
  /// {"cadence_ps":..,"dropped":..,"series":[names],"samples":[[t,v0,v1,..]]}
  /// — valid JSON (obs::json_valid) and bit-identical across equal runs.
  [[nodiscard]] std::string to_json() const;

  /// FNV-1a over every retained (time, values...) tuple plus the drop
  /// count — the recorder's contribution to the fleet digest.
  [[nodiscard]] std::uint64_t digest() const noexcept;

 private:
  struct Series {
    std::string name;
    std::function<std::int64_t()> sampler;
    std::vector<std::int64_t> ring;
  };

  /// Ring slot of retained sample \p i (oldest first).
  [[nodiscard]] std::size_t slot_of(std::size_t i) const noexcept {
    return (head_ + i) % capacity_;
  }

  sim::Picos cadence_;
  std::size_t capacity_;
  std::vector<Series> series_;
  std::vector<sim::Picos> times_;
  std::size_t head_ = 0;  ///< ring slot of the oldest retained sample
  std::size_t used_ = 0;
  std::uint64_t dropped_ = 0;
  sim::Picos last_edge_ = -1;
};

}  // namespace ghum::obs
