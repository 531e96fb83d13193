// pgasnb_perfbench: runs one workload for a wall-time budget and prints
// its metrics as JSON.
//
//   pgasnb_perfbench --workload kv-read-zipf --seed 1 --seconds 10 --trace 0
//
// A run repeats whole trials (fresh Runtime, set-up, timed phase, checks,
// teardown) until --seconds have passed. It reports the median over its
// trials of each scalar, and latency percentiles over all trials' samples. With --trace 0 every trial is untraced and the end-to-end metrics
// are reported. With --trace 1 untraced and traced trials alternate: the
// per-layer metrics come from the traced trials, and the tracing overhead is
// the difference of the two kinds' timed-phase wall time. --trace-file
// writes the first traced trial's spans as Chrome trace-event JSON.
//
// Output: a `config:` line (RuntimeConfig::describe()), a `detail:` line
// holding every metric with its unit, layer and sample count, then the
// result object as the last line. Exit status 1 if a hard invariant broke,
// 2 on a usage error.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "measure.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

constexpr std::size_t kMinTrials = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "pgasnb_perfbench: %s\nusage: pgasnb_perfbench --workload "
               "<name> [--seed N] [--seconds S] [--trace 0|1] "
               "[--trace-file PATH]\nworkloads:",
               why);
  for (const std::string& w : workloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (flag == "--trace-file") {
        a.trace_file = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0 && a.seconds <= 120.0)) {
    usage("--seconds must be in (0, 120]");
  }
  return a;
}

/// Median over trials of one per-trial value.
template <typename Fn>
double medianOf(const std::vector<TrialOutcome>& trials, Fn fn) {
  std::vector<double> xs;
  xs.reserve(trials.size());
  for (const TrialOutcome& t : trials) xs.push_back(fn(t));
  return median(std::move(xs));
}

/// End-to-end metrics over untraced trials. The latency percentiles are
/// read from the remote samples of all trials pooled.
MetricSet endToEnd(const std::vector<TrialOutcome>& trials,
                   std::vector<std::string>& broken) {
  MetricSet m;
  const auto n = static_cast<std::uint64_t>(trials.size());
  m.add("sim_mops", "Mops", "e2e",
        medianOf(trials,
                 [](const TrialOutcome& t) {
                   return static_cast<double>(t.ops) / t.model_s * 1e-6;
                 }),
        n);
  Histogram remote;
  for (const TrialOutcome& t : trials) remote.merge(t.split.remote());
  for (const auto& [name, q] : {std::pair{"remote_p50_us", 0.50},
                                std::pair{"remote_p99_us", 0.99}}) {
    const Percentile p = percentile(remote, q, trials.front().quantum_ns);
    if (!p.reportable) {
      broken.push_back(std::string(name) + ": too few remote samples (" +
                       std::to_string(p.samples) + ")");
    }
    m.add(name, "us", "e2e", p.value * 1e-3, p.samples);
  }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const TrialOutcome& t : trials) {
    attempted += t.attempted;
    failed += t.failed;
  }
  m.add("success_ratio", "fraction", "e2e",
        attempted == 0 ? 0.0
                       : 1.0 - static_cast<double>(failed) /
                                   static_cast<double>(attempted),
        attempted);
  m.add("arena_peak_mib", "MiB", "e2e",
        medianOf(trials,
                 [](const TrialOutcome& t) {
                   return t.arena_bytes / (1024.0 * 1024.0);
                 }),
        n);
  m.add("setup_s", "s", "e2e",
        medianOf(trials,
                 [](const TrialOutcome& t) {
                   return t.setup_runtime_s + t.setup_fill_s;
                 }),
        n);
  return m;
}

/// Per-layer metrics over traced trials: each scalar is the median over
/// trials, each latency percentile is read from the pooled samples.
MetricSet perLayer(const std::vector<TrialOutcome>& traced,
                   const std::vector<TrialOutcome>& untraced) {
  MetricSet m;
  for (const Metric& first : traced.front().layer.all()) {
    std::vector<double> xs;
    std::uint64_t samples = 0;
    for (const TrialOutcome& t : traced) {
      const Metric* x = t.layer.find(first.name);
      xs.push_back(x != nullptr ? x->value : 0.0);
      samples += x != nullptr ? x->samples : 0;
    }
    m.add(first.name, first.unit, first.layer, median(xs), samples);
  }
  for (const auto& [key, unit, layer] :
       {std::tuple{"comm.window_join_us", "us", "comm"},
        std::tuple{"epoch.try_reclaim_us", "us", "epoch"},
        std::tuple{"stack.push_us", "us", "ds"},
        std::tuple{"stack.pop_us", "us", "ds"}}) {
    Histogram pooled;
    for (const TrialOutcome& t : traced) {
      const auto it = t.samples.find(key);
      if (it != t.samples.end()) pooled.merge(it->second);
    }
    m.addPercentiles(key, unit, layer, pooled, traced.front().quantum_ns,
                     1e-3);
  }
  m.add("ops.remote", "count", "bench",
        medianOf(traced,
                 [](const TrialOutcome& t) {
                   return static_cast<double>(t.split.remote().size());
                 }),
        traced.size());
  m.add("ops.local", "count", "bench",
        medianOf(traced,
                 [](const TrialOutcome& t) {
                   return static_cast<double>(t.split.local().size());
                 }),
        traced.size());
  const double traced_wall =
      medianOf(traced, [](const TrialOutcome& t) { return t.wall_s; });
  const double untraced_wall =
      medianOf(untraced, [](const TrialOutcome& t) { return t.wall_s; });
  m.add("trace.untraced_wall_s", "s", "trace", untraced_wall,
        untraced.size());
  m.add("trace.overhead_s", "s", "trace", traced_wall - untraced_wall,
        traced.size());
  return m;
}

/// Adds the span count and per-layer self times of one traced trial.
void addTraceMetrics(TrialOutcome& t, const std::vector<Span>& spans) {
  const SelfTimes self = selfTimes(spans);
  t.layer.add("trace.spans", "count", "trace",
              static_cast<double>(spans.size()));
  for (std::size_t l = 0; l < kLayers; ++l) {
    const char* name = toString(static_cast<Layer>(l));
    t.layer.add(std::string("trace.self_sim_ms.") + name, "ms", "trace",
                self.sim_ns[l] * 1e-6);
    t.layer.add(std::string("trace.self_wall_ms.") + name, "ms", "trace",
                self.wall_ns[l] * 1e-6);
  }
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  const std::unique_ptr<Workload> workload =
      makeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    usage(("unknown workload " + args.workload).c_str());
  }

  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  std::vector<TrialOutcome> untraced;
  std::vector<TrialOutcome> traced;
  std::vector<Span> first_trace;
  std::vector<std::string> broken;
  std::string config;
  while (broken.empty()) {
    const bool traced_turn = args.trace && untraced.size() > traced.size();
    if (traced_turn) {
      Tracer tracer(traceLanes());
      TrialOutcome t =
          workload->trial(untraced.size() + traced.size(), &tracer);
      std::vector<Span> spans = tracer.flatten();
      addTraceMetrics(t, spans);
      if (traced.empty()) first_trace = std::move(spans);
      traced.push_back(std::move(t));
    } else {
      untraced.push_back(
          workload->trial(untraced.size() + traced.size(), nullptr));
    }
    const TrialOutcome& last = traced_turn ? traced.back() : untraced.back();
    config = last.config;
    broken.insert(broken.end(), last.broken.begin(), last.broken.end());
    const bool enough_trials =
        untraced.size() >= kMinTrials &&
        (!args.trace || traced.size() >= kMinTrials);
    if (enough_trials && elapsed() >= args.seconds) break;
  }

  MetricSet reported;
  MetricSet detail;
  if (broken.empty()) {
    detail = endToEnd(untraced, broken);
    reported = args.trace ? perLayer(traced, untraced) : detail;
    if (args.trace) detail.append(reported);
  }
  for (const Metric& m : detail.all()) {
    if (!std::isfinite(m.value)) broken.push_back(m.name + " is not finite");
  }
  if (args.trace && !args.trace_file.empty() && !first_trace.empty() &&
      !writeChromeTrace(args.trace_file, first_trace)) {
    std::fprintf(stderr, "pgasnb_perfbench: cannot write %s\n",
                 args.trace_file.c_str());
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto* set : {&untraced, &traced}) {
    for (const TrialOutcome& t : *set) {
      attempted += t.attempted;
      failed += t.failed;
    }
  }
  const bool correct = broken.empty();

  std::printf("config: %s\n", config.c_str());
  std::string line = "detail: {\"workload\":" + jsonString(args.workload) +
                     ",\"seed\":" + std::to_string(args.seed) +
                     ",\"trials\":" + std::to_string(untraced.size()) +
                     ",\"traced_trials\":" + std::to_string(traced.size()) +
                     ",\"broken\":[";
  for (std::size_t i = 0; i < broken.size(); ++i) {
    if (i != 0) line += ',';
    line += jsonString(broken[i]);
  }
  line += "],\"metrics\":[";
  for (std::size_t i = 0; i < detail.all().size(); ++i) {
    const Metric& m = detail.all()[i];
    if (i != 0) line += ',';
    line += "{\"name\":" + jsonString(m.name) +
            ",\"unit\":" + jsonString(m.unit) +
            ",\"layer\":" + jsonString(m.layer) +
            ",\"value\":" + jsonNumber(m.value) +
            ",\"samples\":" + std::to_string(m.samples) + "}";
  }
  std::printf("%s]}\n", line.c_str());

  line = "{\"correct\": " + std::string(correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  if (correct) {
    for (std::size_t i = 0; i < reported.all().size(); ++i) {
      const Metric& m = reported.all()[i];
      if (i != 0) line += ", ";
      line += jsonString(m.name) +
              ": {\"value\": " + jsonNumber(m.value) +
              ", \"unit\": " + jsonString(m.unit) + "}";
    }
  }
  std::printf("%s}}\n", line.c_str());
  if (!correct) {
    for (const std::string& b : broken) {
      std::fprintf(stderr, "pgasnb_perfbench: invariant broken: %s\n",
                   b.c_str());
    }
    return 1;
  }
  return 0;
}
