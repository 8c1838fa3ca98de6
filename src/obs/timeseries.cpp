#include "obs/timeseries.hpp"

#include <algorithm>
#include <sstream>

namespace ghum::obs {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void mix(std::uint64_t& h, std::uint64_t x) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

}  // namespace

TimeSeries::TimeSeries(sim::Picos cadence, std::size_t capacity)
    : cadence_(cadence > 0 ? cadence : 1),
      capacity_(capacity > 0 ? capacity : 1) {
  times_.resize(capacity_, 0);
}

std::size_t TimeSeries::add(std::string name,
                            std::function<std::int64_t()> sampler) {
  Series s;
  s.name = std::move(name);
  s.sampler = std::move(sampler);
  s.ring.resize(capacity_, 0);
  series_.push_back(std::move(s));
  return series_.size() - 1;
}

std::size_t TimeSeries::find(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < series_.size(); ++i) {
    if (series_[i].name == name) return i;
  }
  return kNoSeries;
}

void TimeSeries::advance(sim::Picos now) {
  // First edge at the first cadence multiple > last_edge_ (or >= 0 on the
  // very first call), then every multiple up to and including now.
  sim::Picos edge = last_edge_ < 0
                        ? 0
                        : sim::align_up(last_edge_ + 1, cadence_);
  for (; edge <= now; edge += cadence_) {
    const std::size_t slot = (head_ + used_) % capacity_;
    if (used_ == capacity_) {
      head_ = (head_ + 1) % capacity_;
      ++dropped_;
    }
    times_[slot] = edge;
    for (Series& s : series_) s.ring[slot] = s.sampler();
    if (used_ < capacity_) ++used_;
    last_edge_ = edge;
  }
}

sim::Picos TimeSeries::time_at(std::size_t i) const noexcept {
  return times_[slot_of(i)];
}

std::int64_t TimeSeries::value_at(std::size_t series,
                                  std::size_t i) const noexcept {
  return series_[series].ring[slot_of(i)];
}

std::size_t TimeSeries::first_at_or_after(sim::Picos t) const noexcept {
  std::size_t lo = 0;
  std::size_t hi = used_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (time_at(mid) < t) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

SeriesWindow TimeSeries::window(std::size_t series, sim::Picos t0,
                                sim::Picos t1) const noexcept {
  SeriesWindow w;
  if (series >= series_.size()) return w;
  for (std::size_t i = first_at_or_after(t0); i < used_; ++i) {
    if (time_at(i) > t1) break;
    const std::int64_t v = value_at(series, i);
    if (w.count == 0 || v < w.min) w.min = v;
    if (w.count == 0 || v > w.max) w.max = v;
    w.sum += v;
    ++w.count;
  }
  return w;
}

std::string TimeSeries::to_tsv() const {
  std::ostringstream out;
  out << "time_ps";
  for (const Series& s : series_) out << '\t' << s.name;
  out << '\n';
  for (std::size_t i = 0; i < used_; ++i) {
    out << time_at(i);
    for (std::size_t s = 0; s < series_.size(); ++s) {
      out << '\t' << value_at(s, i);
    }
    out << '\n';
  }
  return out.str();
}

std::string TimeSeries::to_json() const {
  std::ostringstream out;
  out << "{\"cadence_ps\":" << cadence_ << ",\"dropped\":" << dropped_
      << ",\"series\":[";
  for (std::size_t s = 0; s < series_.size(); ++s) {
    if (s != 0) out << ',';
    // Series names are code-chosen identifiers ([a-z0-9._-]), not
    // user-supplied strings — no escaping needed.
    out << '"' << series_[s].name << '"';
  }
  out << "],\"samples\":[";
  for (std::size_t i = 0; i < used_; ++i) {
    if (i != 0) out << ',';
    out << "\n[" << time_at(i);
    for (std::size_t s = 0; s < series_.size(); ++s) {
      out << ',' << value_at(s, i);
    }
    out << ']';
  }
  out << "\n]}\n";
  return out.str();
}

std::uint64_t TimeSeries::digest() const noexcept {
  std::uint64_t h = kFnvOffset;
  mix(h, dropped_);
  for (std::size_t i = 0; i < used_; ++i) {
    mix(h, static_cast<std::uint64_t>(time_at(i)));
    for (std::size_t s = 0; s < series_.size(); ++s) {
      mix(h, static_cast<std::uint64_t>(value_at(s, i)));
    }
  }
  return h;
}

}  // namespace ghum::obs
