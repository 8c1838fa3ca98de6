#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

double host_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t Tracer::begin(std::string_view name) {
  if (!enabled_) return 0;
  Span s;
  s.name = std::string{name};
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.start_s = host_now_s();
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

double Tracer::end(std::size_t id,
                   std::vector<std::pair<std::string, double>> counters) {
  if (!enabled_) return 0;
  Span& s = spans_.at(id);
  s.end_s = host_now_s();
  s.counters = std::move(counters);
  // Spans nest strictly: closing one also closes anything left open in it.
  while (!open_.empty() && open_.back() != id) open_.pop_back();
  if (!open_.empty()) open_.pop_back();
  return s.duration_s();
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s, s.end_s);
    }
  }
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_s;
    const double hi = spans[i].end_s;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    double cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = std::max(0.0, (hi - lo) - covered);
  }
  return out;
}

std::map<std::string, NameTotals> totals_by_name(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    NameTotals& t = out[spans[i].name];
    t.self_s += self[i];
    t.total_s += spans[i].duration_s();
    ++t.count;
  }
  return out;
}

namespace {

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

std::string chrome_trace_json(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  const double origin = spans.empty() ? 0.0 : spans.front().start_s;
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i != 0) out += ',';
    out += "{\"name\":";
    append_json_string(out, s.name);
    out += ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":";
    append_number(out, (s.start_s - origin) * 1e6);
    out += ",\"dur\":";
    append_number(out, s.duration_s() * 1e6);
    out += ",\"args\":{\"id\":" + std::to_string(i) +
           ",\"parent\":" + std::to_string(s.parent) + ",\"self_us\":";
    append_number(out, self[i] * 1e6);
    for (const auto& [k, v] : s.counters) {
      out += ',';
      append_json_string(out, k);
      out += ':';
      append_number(out, v);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

}  // namespace perfbench
