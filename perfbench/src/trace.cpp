#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <tuple>
#include <utility>

namespace perfbench {

namespace {

/// Length of the union of `intervals` clipped to [lo, hi].
template <typename T>
double coveredLength(std::vector<std::pair<T, T>>& intervals, T lo, T hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  T cur_lo = lo;
  T cur_hi = lo;
  bool open = false;
  for (auto [b, e] : intervals) {
    b = std::max(b, lo);
    e = std::min(e, hi);
    if (e <= b) continue;
    if (open && b <= cur_hi) {
      cur_hi = std::max(cur_hi, e);
      continue;
    }
    if (open) covered += static_cast<double>(cur_hi - cur_lo);
    cur_lo = b;
    cur_hi = e;
    open = true;
  }
  if (open) covered += static_cast<double>(cur_hi - cur_lo);
  return covered;
}

}  // namespace

SelfTimes selfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    }
  }
  SelfTimes out;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sim;
  std::vector<std::pair<std::int64_t, std::int64_t>> wall;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    sim.clear();
    wall.clear();
    for (const std::size_t c : children[i]) {
      sim.emplace_back(spans[c].sim_begin, spans[c].sim_end);
      wall.emplace_back(spans[c].wall_begin, spans[c].wall_end);
    }
    const auto layer = static_cast<std::size_t>(s.layer);
    if (s.sim_end > s.sim_begin) {
      out.sim_ns[layer] += static_cast<double>(s.sim_end - s.sim_begin) -
                           coveredLength(sim, s.sim_begin, s.sim_end);
    }
    if (s.wall_end > s.wall_begin) {
      out.wall_ns[layer] += static_cast<double>(s.wall_end - s.wall_begin) -
                            coveredLength(wall, s.wall_begin, s.wall_end);
    }
  }
  return out;
}

SpanRef Lane::begin(const char* name, Layer layer, SpanRef parent,
                    std::uint64_t req) {
  Entry e;
  e.span.name = name;
  e.span.layer = layer;
  e.span.lane = id_;
  e.span.req = req;
  e.span.sim_begin = pgasnb::sim::now();
  e.span.wall_begin = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - origin_)
                          .count();
  e.parent = parent;
  entries_.push_back(e);
  return {static_cast<std::int64_t>(id_),
          static_cast<std::int64_t>(entries_.size() - 1)};
}

void Lane::end(SpanRef ref) {
  Span& s = entries_[static_cast<std::size_t>(ref.index)].span;
  s.sim_end = pgasnb::sim::now();
  s.wall_end = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - origin_)
                   .count();
}

Tracer::Tracer(std::size_t lanes) : lanes_(lanes) {
  const auto origin = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    lanes_[i].id_ = static_cast<std::uint32_t>(i);
    lanes_[i].origin_ = origin;
    lanes_[i].entries_.reserve(1024);
  }
}

std::size_t Tracer::spanCount() const {
  std::size_t n = 0;
  for (const Lane& l : lanes_) n += l.entries_.size();
  return n;
}

std::vector<Span> Tracer::flatten() const {
  std::vector<std::int64_t> offset(lanes_.size(), 0);
  for (std::size_t i = 1; i < lanes_.size(); ++i) {
    offset[i] = offset[i - 1] +
                static_cast<std::int64_t>(lanes_[i - 1].entries_.size());
  }
  std::vector<Span> out;
  out.reserve(spanCount());
  for (const Lane& l : lanes_) {
    for (const Lane::Entry& e : l.entries_) {
      Span s = e.span;
      s.parent = e.parent.valid()
                     ? offset[static_cast<std::size_t>(e.parent.lane)] +
                           e.parent.index
                     : -1;
      out.push_back(s);
    }
  }
  return out;
}

bool writeChromeTrace(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
               "\"args\":{\"name\":\"simulated clock\"}},\n"
               "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\","
               "\"args\":{\"name\":\"wall clock\"}}");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double sim_ts = static_cast<double>(s.sim_begin) * 1e-3;
    const double sim_dur = static_cast<double>(s.sim_end - s.sim_begin) * 1e-3;
    const double wall_ts = static_cast<double>(s.wall_begin) * 1e-3;
    const double wall_dur =
        static_cast<double>(s.wall_end - s.wall_begin) * 1e-3;
    for (const auto& [pid, ts, dur] :
         {std::tuple{1, sim_ts, sim_dur}, std::tuple{2, wall_ts, wall_dur}}) {
      std::fprintf(f,
                   ",\n{\"ph\":\"X\",\"pid\":%d,\"tid\":%u,\"name\":\"%s\","
                   "\"cat\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                   "\"span\":%zu,\"parent\":%lld,\"req\":%llu}}",
                   pid, s.lane, s.name, toString(s.layer), ts, dur, i,
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.req));
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
