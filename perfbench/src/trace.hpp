// In-memory spans around the benchmark's calls into each library layer,
// their per-layer self time, and a Chrome trace-event writer (the file
// opens in Perfetto or chrome://tracing).
//
// Spans are recorded only in the benchmark's own code. Each client task
// writes to its own Lane, so recording takes no lock; a span's parent may
// live in another lane (a client's root span hangs off the main thread's
// timed-phase span).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/sim_clock.hpp"

namespace perfbench {

enum class Layer : std::uint8_t { bench, runtime, comm, epoch, ds };
inline constexpr std::size_t kLayers = 5;

inline const char* toString(Layer layer) {
  constexpr std::array<const char*, kLayers> names = {"bench", "runtime",
                                                      "comm", "epoch", "ds"};
  return names[static_cast<std::size_t>(layer)];
}

/// A span as it is kept in memory. `parent` indexes the flattened span list
/// (-1 for a root). `req` groups the spans of one request: a window id, an
/// op index, a locale for a client's root span, a trial for the trial span.
struct Span {
  const char* name = "";
  Layer layer = Layer::bench;
  std::int64_t parent = -1;
  std::uint32_t lane = 0;
  std::uint64_t req = 0;
  std::uint64_t sim_begin = 0;
  std::uint64_t sim_end = 0;
  std::int64_t wall_begin = 0;  // ns since the tracer was created
  std::int64_t wall_end = 0;
};

/// Reference to a recorded span: (lane, index within the lane), or none.
struct SpanRef {
  std::int64_t lane = -1;
  std::int64_t index = 0;
  bool valid() const noexcept { return lane >= 0; }
};

/// Per-layer self time on both clocks, summed over spans.
struct SelfTimes {
  std::array<double, kLayers> sim_ns{};
  std::array<double, kLayers> wall_ns{};
};

/// Self time of each span: its duration minus the part of its interval
/// that its children cover (children are clipped to the parent and their
/// overlaps counted once), summed per layer. `parent` must index `spans`.
SelfTimes selfTimes(const std::vector<Span>& spans);

class Tracer;

/// One thread's span buffer. Not thread-safe: one client task owns it.
class Lane {
 public:
  SpanRef begin(const char* name, Layer layer, SpanRef parent,
                std::uint64_t req);
  void end(SpanRef ref);

 private:
  friend class Tracer;
  struct Entry {
    Span span;
    SpanRef parent;
  };
  std::uint32_t id_ = 0;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Entry> entries_;
};

/// Owns one lane per recording thread. Lane 0 is the main thread's; client
/// task `c` records into lane c + 1.
class Tracer {
 public:
  explicit Tracer(std::size_t lanes);

  Lane& lane(std::size_t i) { return lanes_[i]; }
  std::size_t spanCount() const;

  /// All spans of all lanes, parents remapped to flat indices.
  std::vector<Span> flatten() const;

 private:
  std::vector<Lane> lanes_;
};

/// RAII span; a null lane (tracing off) records nothing.
class Scope {
 public:
  Scope(Lane* lane, const char* name, Layer layer, SpanRef parent = {},
        std::uint64_t req = 0)
      : lane_(lane) {
    if (lane_ != nullptr) ref_ = lane_->begin(name, layer, parent, req);
  }
  ~Scope() {
    if (lane_ != nullptr) lane_->end(ref_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  SpanRef ref() const noexcept { return ref_; }

 private:
  Lane* lane_;
  SpanRef ref_;
};

/// Writes `spans` as Chrome trace-event JSON: process 1 on the simulated
/// clock, process 2 on the wall clock, one thread per lane. Returns false if
/// the file cannot be written.
bool writeChromeTrace(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
