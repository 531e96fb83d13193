// The benchmark's four workloads. Each trial builds a fresh 2-locale
// Runtime, sets up, runs one closed-loop timed phase with one client task
// per locale, checks the outputs, and tears down.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "measure.hpp"
#include "trace.hpp"

namespace perfbench {

/// What one trial measured.
struct TrialOutcome {
  double setup_runtime_s = 0.0;  // wall: Runtime construction
  double setup_fill_s = 0.0;     // wall: domain/structure creation + fill
  double wall_s = 0.0;           // wall: timed phase
  double model_s = 0.0;          // simulated: timed phase
  std::uint64_t ops = 0;         // ops completed in the timed phase
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double arena_bytes = 0.0;      // sum of Arena::bytesUsed() after timing
  OpSplit split;                 // per-op simulated latency (ns)
  double quantum_ns = 0.0;       // step of simulated time (cpu_atomic_ns)
  MetricSet layer;               // per-layer scalars (counter deltas, ratios)
  /// Per-layer latency samples (simulated ns), pooled across trials.
  std::map<std::string, Histogram> samples;
  std::vector<std::string> broken;  // hard-invariant violations
  std::string config;               // RuntimeConfig::describe()
};

/// One workload of a run. Trial `index` draws its own inputs from the
/// run's seed and `index`, so a run's median averages over as many input
/// draws as it has trials, and the same seed always gives the same inputs.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs one trial; `tracer` is null for an untraced trial.
  virtual TrialOutcome trial(std::size_t index, Tracer* tracer) = 0;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workloadNames();

/// The workload `name` drawing its inputs from `seed`; null for an unknown
/// name.
std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed);

/// Simulated-time tracer lanes a trial uses: main thread + one per client.
std::size_t traceLanes();

}  // namespace perfbench
