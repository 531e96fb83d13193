#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <optional>

#include "inputs.hpp"
#include "pgasnb.hpp"

namespace perfbench {

using pgasnb::CommMode;
using pgasnb::DistDomain;
using pgasnb::Runtime;
namespace comm = pgasnb::comm;
namespace sim = pgasnb::sim;

namespace {

// 2 locales x 1 worker: each locale also runs a progress thread, so this is
// 4 threads on a 4-core host. Model time repeats at this size; with more
// threads than cores, progress threads apply busy_until in host arrival
// order and model time stops repeating (see README.md).
constexpr std::uint32_t kLocales = 2;
constexpr std::uint64_t kWindow = 64;           // ops per comm::OpWindow
constexpr std::uint64_t kReclaimEvery = 256;    // tryReclaim cadence
constexpr std::uint64_t kStackBurst = 8;        // pushes, then pops, per round

// kv-read-zipf: fixed capacity at load 0.25, so no segment ever resizes.
constexpr std::uint64_t kZipfKeys = 8192;
constexpr std::uint64_t kZipfCapacity = 32768;
constexpr std::uint64_t kZipfOpsPerLocale = 120'000;
constexpr double kTheta = 0.99;

// kv-insert-grow: created at half its final key count. Resize cost grows
// super-linearly with trial size, so the trial stays at the scoped size.
constexpr std::uint64_t kGrowKeys = 2048;
constexpr std::uint64_t kGrowOpsPerLocale = 25'000;

// retire-churn: Listing 5 over objects pre-allocated in setup, half of them
// on the other locale. CyclicArray<T*> holds at most 131,072 pointers per
// locale (the arena's 1 MiB largest block).
constexpr std::uint64_t kRetireObjsPerLocale = 100'000;
constexpr double kRemoteShare = 0.5;

// stack-churn: one DistStack homed on locale 0 in ugni mode.
constexpr std::uint64_t kStackRoundsPerLocale = 2'000;

// Values written to the map encode their key and writer, so a find can
// tell a value that was never written: key * 8 + tag, tag 0 = prefill,
// 1 + locale = put by that locale, kInsertTag = fresh insert.
constexpr std::uint64_t kInsertTag = 7;
std::uint64_t valueFor(std::uint64_t key, std::uint64_t tag) {
  return key * 8 + tag;
}
bool plausibleValue(std::uint64_t key, std::uint64_t v) {
  return v / 8 == key && v % 8 <= kLocales;
}

class Stopwatch {
 public:
  double elapsed() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
};

/// The run's RuntimeConfig, built from the library defaults and never from
/// the environment, so a stray PGASNB_* variable cannot change a run.
pgasnb::RuntimeConfig benchmarkConfig(CommMode mode) {
  pgasnb::RuntimeConfig cfg;
  cfg.num_locales = kLocales;
  cfg.workers_per_locale = 1;
  cfg.comm_mode = mode;
  cfg.inject_delays = true;
  cfg.latency.delay_scale = 1.0;
  cfg.arena_bytes_per_locale = std::size_t{64} << 20;
  return cfg;
}

/// What one client task saw. Each client writes only its own record.
struct Client {
  OpSplit split{kLocales};
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t inserted = 0;       // successful fresh inserts
  std::uint64_t issued = 0;         // *AsyncAggregated calls
  double issue_ns = 0.0;
  std::uint64_t pins = 0;
  double pin_ns = 0.0;
  std::uint64_t push_sum = 0;       // checksum of pushed values
  std::uint64_t pop_sum = 0;        // checksum of popped values
  std::vector<double> join_ns;      // last issue -> window closed
  std::vector<double> try_reclaim_ns;
  std::vector<double> push_ns;
  std::vector<double> pop_ns;
};

/// The frame every trial shares: Runtime construction, the timed phase's
/// clocks and counter deltas, and the per-layer metrics built from them.
class Trial {
 public:
  Trial(Tracer* tracer, CommMode mode) : tracer_(tracer) {
    root_.emplace(lane(0), "trial", Layer::bench);
    const Stopwatch w;
    {
      const Scope s(lane(0), "Runtime()", Layer::runtime, root());
      rt_ = std::make_unique<Runtime>(benchmarkConfig(mode));
    }
    out.setup_runtime_s = w.elapsed();
    out.config = rt_->config().describe();
    out.quantum_ns =
        static_cast<double>(rt_->config().latency.cpu_atomic_ns);
  }

  ~Trial() {
    {
      const Scope s(lane(0), "~Runtime()", Layer::runtime, root());
      rt_.reset();
    }
    root_.reset();
  }

  Trial(const Trial&) = delete;
  Trial& operator=(const Trial&) = delete;

  Lane* lane(std::size_t i) {
    return tracer_ == nullptr ? nullptr : &tracer_->lane(i);
  }
  SpanRef root() const { return root_->ref(); }

  /// Records the set-up time after Runtime construction, then runs `client`
  /// once per locale as the timed phase and `after` on the main thread
  /// (still timed).
  template <typename ClientFn, typename AfterFn>
  void timed(double setup_fill_s, ClientFn client, AfterFn after) {
    out.setup_fill_s = setup_fill_s;
    comm::resetCounters();  // so high-water gauges cover this phase only
    const comm::Counters before = comm::counters();
    std::array<std::uint64_t, kLocales> serviced{};
    for (std::uint32_t l = 0; l < kLocales; ++l) {
      serviced[l] = rt_->locale(l).amServiced();
    }
    const std::uint64_t sim0 = sim::now();
    const Stopwatch w;
    {
      const Scope timed(lane(0), "timed", Layer::bench, root());
      const SpanRef parent = timed.ref();
      pgasnb::coforallLocales([&] {
        const std::uint32_t here = Runtime::here();
        Lane* l = lane(here + 1);
        const Scope s(l, "client", Layer::bench, parent, here);
        client(here, clients[here], l, s.ref());
      });
      after(lane(0), parent);
    }
    out.wall_s = w.elapsed();
    out.model_s = static_cast<double>(sim::now() - sim0) * 1e-9;
    before_ = before;
    after_ = comm::counters();
    for (std::uint32_t l = 0; l < kLocales; ++l) {
      serviced_[l] = rt_->locale(l).amServiced() - serviced[l];
      out.arena_bytes +=
          static_cast<double>(rt_->locale(l).arena().bytesUsed());
    }
  }

  /// Folds the clients into the outcome and adds the per-layer metrics.
  TrialOutcome finish() {
    for (Client& c : clients) {
      out.split.merge(c.split);
      out.attempted += c.attempted;
      out.failed += c.failed;
    }
    addLayerMetrics(before_, after_, serviced_);
    return std::move(out);
  }

  void check(bool ok, const std::string& what) {
    if (!ok) out.broken.push_back(what);
  }

  TrialOutcome out;
  std::array<Client, kLocales> clients;

 private:
  void addLayerMetrics(const comm::Counters& b, const comm::Counters& a,
                       const std::array<std::uint64_t, kLocales>& serviced) {
    MetricSet& m = out.layer;
    const auto d = [](std::uint64_t after, std::uint64_t before) {
      return static_cast<double>(after - before);
    };
    const pgasnb::LatencyModel& lat = rt_->config().latency;
    double serviced_total = 0.0;
    double busy_max = 0.0;
    for (std::uint32_t l = 0; l < kLocales; ++l) {
      serviced_total += static_cast<double>(serviced[l]);
      const double busy =
          static_cast<double>(serviced[l] * lat.am_service_ns +
                              out.split.remoteTo(l) * lat.cpu_atomic_ns);
      busy_max = std::max(busy_max, busy);
    }
    m.add("runtime.am_serviced", "count", "runtime", serviced_total);
    m.addRatio("runtime.am_service_busy_frac", "fraction", "runtime",
               busy_max * 1e-9, "runtime.model_s", "s", out.model_s);
    m.add("runtime.host_wall_s", "s", "runtime", out.wall_s);
    m.addRatio("runtime.host_us_per_op", "us", "runtime", out.wall_s * 1e6,
               "runtime.ops", "count", static_cast<double>(out.ops));
    m.add("runtime.setup_runtime_s", "s", "runtime", out.setup_runtime_s);
    m.add("runtime.setup_fill_s", "s", "runtime", out.setup_fill_s);

    std::uint64_t issued = 0;
    double issue_ns = 0.0;
    std::uint64_t pins = 0;
    double pin_ns = 0.0;
    for (const Client& c : clients) {
      issued += c.issued;
      issue_ns += c.issue_ns;
      pins += c.pins;
      pin_ns += c.pin_ns;
      for (const auto& [key, xs] :
           {std::pair{"comm.window_join_us", &c.join_ns},
            std::pair{"epoch.try_reclaim_us", &c.try_reclaim_ns},
            std::pair{"stack.push_us", &c.push_ns},
            std::pair{"stack.pop_us", &c.pop_ns}}) {
        Histogram& pool = out.samples[key];
        for (const double x : *xs) pool.add(x);
      }
    }
    m.add("comm.ams", "count", "comm",
          static_cast<double>(a.totalAms() - b.totalAms()));
    m.add("comm.ops_aggregated", "count", "comm",
          d(a.ops_aggregated, b.ops_aggregated));
    m.addRatio("comm.ops_per_am", "ops/am", "comm",
               d(a.ops_aggregated, b.ops_aggregated), "comm.am_batched",
               "count", d(a.am_batched, b.am_batched));
    m.addRatio("comm.issue_ns_per_op", "ns", "comm", issue_ns, "comm.issued",
               "count", static_cast<double>(issued));
    m.add("comm.gets", "count", "comm", d(a.gets, b.gets));
    m.add("comm.backpressure_stalls", "count", "comm",
          d(a.backpressure_stalls, b.backpressure_stalls));
    m.add("comm.deferred_peak", "count", "comm",
          static_cast<double>(a.deferred_peak));
    m.add("comm.tuner_batch_resizes", "count", "comm",
          d(a.tuner_batch_resizes, b.tuner_batch_resizes));

    m.add("atomic.dcas_local", "count", "atomic",
          d(a.dcas_local, b.dcas_local));
    m.add("atomic.dcas_remote", "count", "atomic",
          d(a.dcas_remote, b.dcas_remote));
    m.add("atomic.nic_atomics", "count", "atomic",
          d(a.nic_atomics, b.nic_atomics));
    m.add("atomic.cpu_atomics", "count", "atomic",
          d(a.cpu_atomics, b.cpu_atomics));
    std::uint64_t stack_ops = 0;
    for (const Client& c : clients) {
      stack_ops += c.push_ns.size() + c.pop_ns.size();
    }
    m.addRatio("atomic.dcas_per_op", "cas/op", "atomic",
               d(a.dcas_local, b.dcas_local) +
                   d(a.dcas_remote, b.dcas_remote),
               "stack.ops", "count", static_cast<double>(stack_ops));
    m.addRatio("epoch.pin_ns", "ns", "epoch", pin_ns, "epoch.pins", "count",
               static_cast<double>(pins));
  }

  Tracer* tracer_;
  comm::Counters before_;
  comm::Counters after_;
  std::array<std::uint64_t, kLocales> serviced_{};
  std::optional<Scope> root_;
  std::unique_ptr<Runtime> rt_;
};

/// Epoch-layer metrics; `before_clear` is the stats snapshot taken after
/// the clients finished and before DistDomain::clear().
void addEpochMetrics(MetricSet& m, const pgasnb::ReclaimStats& before_clear,
                     const pgasnb::ReclaimStats& final_stats,
                     std::uint64_t try_reclaims, double clear_ns) {
  m.add("epoch.retired", "count", "epoch",
        static_cast<double>(final_stats.deferred));
  m.add("epoch.reclaimed_before_clear", "count", "epoch",
        static_cast<double>(before_clear.reclaimed));
  m.add("epoch.advances", "count", "epoch",
        static_cast<double>(before_clear.advances));
  m.add("epoch.elections_lost_local", "count", "epoch",
        static_cast<double>(before_clear.elections_lost_local));
  m.add("epoch.elections_lost_global", "count", "epoch",
        static_cast<double>(before_clear.elections_lost_global));
  m.add("epoch.scans_unsafe", "count", "epoch",
        static_cast<double>(before_clear.scans_unsafe));
  m.addRatio("epoch.advance_ratio", "advances/call", "epoch",
             static_cast<double>(before_clear.advances),
             "epoch.try_reclaim_calls", "count",
             static_cast<double>(try_reclaims));
  m.add("epoch.garbage_peak_objs", "count", "epoch",
        static_cast<double>(before_clear.max_pending));
  m.add("epoch.clear_ms", "ms", "epoch", clear_ns * 1e-6);
}

void addMapMetrics(MetricSet& m, const pgasnb::RobinHoodStats& s) {
  m.add("rh.resizes", "count", "ds", static_cast<double>(s.resizes));
  m.add("rh.migrate_chunks", "count", "ds",
        static_cast<double>(s.migrate_chunks));
  m.add("rh.migrated_entries", "count", "ds",
        static_cast<double>(s.migrated_entries));
  m.add("rh.max_displacement", "count", "ds",
        static_cast<double>(s.max_displacement));
  m.addRatio("rh.load_factor", "fraction", "ds", static_cast<double>(s.used),
             "rh.slots", "count", static_cast<double>(s.slots));
  m.add("rh.full_rejects", "count", "ds",
        static_cast<double>(s.full_rejects));
}

/// Times one tryReclaim on the simulated clock.
void timedTryReclaim(pgasnb::DistGuard& guard, Client& c, Lane* lane,
                     SpanRef parent, std::uint64_t req) {
  const std::uint64_t t0 = sim::now();
  {
    const Scope s(lane, "Guard::tryReclaim", Layer::epoch, parent, req);
    guard.tryReclaim();
  }
  c.try_reclaim_ns.push_back(static_cast<double>(sim::now() - t0));
}

/// Runs DistDomain::clear() under a span and returns its simulated ns.
double timedClear(const DistDomain& domain, Lane* lane, SpanRef parent) {
  const std::uint64_t t0 = sim::now();
  const Scope s(lane, "DistDomain::clear", Layer::epoch, parent);
  domain.clear();
  return static_cast<double>(sim::now() - t0);
}

// --- kv-read-zipf / kv-insert-grow -----------------------------------------

enum class KvKind : std::uint8_t { find, put, insert };

struct KvOp {
  std::uint64_t key;
  KvKind kind;
};

struct KvSpec {
  std::uint64_t keys;
  std::uint64_t capacity;  // 0: half of the final key count
  double find;
  double put;
  bool zipf;
  std::uint64_t ops_per_locale;
};

class KvWorkload final : public Workload {
 public:
  KvWorkload(const KvSpec& spec, std::uint64_t seed)
      : spec_(spec), seed_(seed), zipf_(spec.keys, kTheta) {}

  TrialOutcome trial(std::size_t index, Tracer* tracer) override {
    const Inputs in = inputs(index);
    Trial t(tracer, CommMode::none);
    const Stopwatch fill;
    DistDomain domain;
    pgasnb::RobinHoodMap<std::uint64_t> map;
    {
      const Scope s(t.lane(0), "setup.fill", Layer::ds, t.root());
      domain = DistDomain::create();
      const std::uint64_t capacity = spec_.capacity != 0
                                         ? spec_.capacity
                                         : (spec_.keys + in.inserts) / 2;
      map = pgasnb::RobinHoodMap<std::uint64_t>::create(capacity, domain);
      comm::OpWindow window;
      for (std::uint64_t k = 0; k < spec_.keys; ++k) {
        (void)map.insertAsyncAggregated(k, valueFor(k, 0));
      }
    }
    t.out.ops = spec_.ops_per_locale * kLocales;
    t.timed(
        fill.elapsed(),
        [&](std::uint32_t here, Client& c, Lane* lane, SpanRef parent) {
          runClient(map, in.ops[here], here, c, lane, parent);
        },
        [](Lane*, SpanRef) {});

    const pgasnb::RobinHoodStats stats = map.stats();
    std::uint64_t inserted = 0;
    for (const Client& c : t.clients) inserted += c.inserted;
    t.out.failed += stats.full_rejects;
    t.check(map.validateInvariants(), "RobinHoodMap::validateInvariants()");
    t.check(stats.used == spec_.keys + inserted,
            "map used == prefill + successful inserts");
    addMapMetrics(t.out.layer, stats);
    addEpochMetrics(t.out.layer, {}, {}, 0, 0.0);
    map.destroy();
    domain.destroy();
    return t.finish();
  }

 private:
  static void runClient(const pgasnb::RobinHoodMap<std::uint64_t>& map,
                        const std::vector<KvOp>& ops, std::uint32_t here,
                        Client& c, Lane* lane, SpanRef parent) {
    struct Pending {
      std::uint64_t op;
      std::uint64_t issue_ns;
    };
    std::vector<comm::Handle<std::optional<std::uint64_t>>> finds;
    std::vector<comm::Handle<bool>> writes;
    std::vector<Pending> find_meta;
    std::vector<Pending> write_meta;
    c.join_ns.reserve(ops.size() / kWindow + 1);
    for (std::uint64_t i = 0, window_id = 0; i < ops.size(); ++window_id) {
      const std::uint64_t n = std::min<std::uint64_t>(kWindow, ops.size() - i);
      const Scope w(lane, "window", Layer::bench, parent, window_id);
      finds.clear();
      writes.clear();
      find_meta.clear();
      write_meta.clear();
      {
        comm::OpWindow window;
        for (std::uint64_t j = i; j < i + n; ++j) {
          const KvOp& op = ops[j];
          const std::uint64_t issue = sim::now();
          switch (op.kind) {
            case KvKind::find: {
              const Scope s(lane, "RobinHoodMap::findAsyncAggregated",
                            Layer::ds, w.ref(), j);
              finds.push_back(map.findAsyncAggregated(op.key));
              find_meta.push_back({j, issue});
              break;
            }
            case KvKind::put: {
              const Scope s(lane, "RobinHoodMap::putAsyncAggregated",
                            Layer::ds, w.ref(), j);
              writes.push_back(
                  map.putAsyncAggregated(op.key, valueFor(op.key, 1 + here)));
              write_meta.push_back({j, issue});
              break;
            }
            case KvKind::insert: {
              const Scope s(lane, "RobinHoodMap::insertAsyncAggregated",
                            Layer::ds, w.ref(), j);
              writes.push_back(map.insertAsyncAggregated(
                  op.key, valueFor(op.key, kInsertTag)));
              write_meta.push_back({j, issue});
              break;
            }
          }
          c.issue_ns += static_cast<double>(sim::now() - issue);
          ++c.issued;
        }
        const std::uint64_t last_issue = sim::now();
        {
          const Scope s(lane, "OpWindow::join", Layer::comm, w.ref(),
                        window_id);
          window.join();
        }
        c.join_ns.push_back(static_cast<double>(sim::now() - last_issue));
      }
      c.attempted += n;
      for (std::size_t f = 0; f < finds.size(); ++f) {
        const KvOp& op = ops[find_meta[f].op];
        record(map, c, here, op.key, find_meta[f].issue_ns,
               finds[f].completionTime());
        const std::optional<std::uint64_t>& got = finds[f].value();
        if (!got || !plausibleValue(op.key, *got)) ++c.failed;
      }
      for (std::size_t w_i = 0; w_i < writes.size(); ++w_i) {
        const KvOp& op = ops[write_meta[w_i].op];
        record(map, c, here, op.key, write_meta[w_i].issue_ns,
               writes[w_i].completionTime());
        const bool inserted = writes[w_i].value();
        if (op.kind == KvKind::insert) {
          if (inserted) {
            ++c.inserted;
          } else {
            ++c.failed;
          }
        } else if (inserted) {
          ++c.failed;  // a put found its prefilled key missing
        }
      }
      i += n;
    }
  }

  static void record(const pgasnb::RobinHoodMap<std::uint64_t>& map,
                     Client& c, std::uint32_t here, std::uint64_t key,
                     std::uint64_t issue, std::uint64_t done) {
    c.split.record(here, map.ownerOfKey(key),
                   static_cast<double>(done - std::min(issue, done)));
  }

  struct Inputs {
    std::array<std::vector<KvOp>, kLocales> ops;
    std::uint64_t inserts = 0;
  };

  Inputs inputs(std::size_t trial) const {
    Inputs in;
    for (std::uint32_t l = 0; l < kLocales; ++l) {
      const std::uint64_t stream = trial * kLocales + l;
      Rng keys(streamSeed(seed_, Stream::keys, stream));
      Rng ops(streamSeed(seed_, Stream::ops, stream));
      // Fresh keys: disjoint per locale and from the prefilled key space.
      std::uint64_t fresh = spec_.keys + ((std::uint64_t{l} + 1) << 32);
      std::vector<KvOp>& out = in.ops[l];
      out.reserve(spec_.ops_per_locale);
      for (std::uint64_t i = 0; i < spec_.ops_per_locale; ++i) {
        const double u = ops.unit();
        const KvKind kind = u < spec_.find               ? KvKind::find
                            : u < spec_.find + spec_.put ? KvKind::put
                                                         : KvKind::insert;
        if (kind == KvKind::insert) {
          out.push_back({fresh++, kind});
          ++in.inserts;
        } else {
          out.push_back(
              {spec_.zipf ? zipf_.key(keys) : keys.below(spec_.keys), kind});
        }
      }
    }
    return in;
  }

  KvSpec spec_;
  std::uint64_t seed_;
  Zipf zipf_;
};

// --- retire-churn ------------------------------------------------------------

struct BenchObject {
  std::uint64_t payload[2] = {0xAB, 0xCD};
};

class RetireWorkload final : public Workload {
 public:
  explicit RetireWorkload(std::uint64_t seed) : seed_(seed) {}

  TrialOutcome trial(std::size_t index, Tracer* tracer) override {
    // The owner locale of each object: its index's locale, or with
    // probability kRemoteShare the other one.
    const std::uint64_t n = kRetireObjsPerLocale * kLocales;
    std::vector<std::uint32_t> target(n);
    Rng rng(streamSeed(seed_, Stream::placement, index));
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto home = static_cast<std::uint32_t>(i % kLocales);
      target[i] = home;
      if (rng.unit() < kRemoteShare) {
        target[i] = static_cast<std::uint32_t>(rng.below(kLocales - 1));
        if (target[i] >= home) ++target[i];
      }
    }
    Trial t(tracer, CommMode::none);
    const Stopwatch fill;
    DistDomain domain;
    std::optional<pgasnb::CyclicArray<BenchObject*>> objs;
    {
      const Scope s(t.lane(0), "setup.fill", Layer::epoch, t.root());
      domain = DistDomain::create();
      objs.emplace(target.size());
      for (std::uint64_t i = 0; i < target.size(); ++i) {
        (*objs)[i] = DistDomain::makeOn<BenchObject>(target[i]);
      }
    }

    t.out.ops = target.size();
    pgasnb::ReclaimStats before_clear;
    double clear_ns = 0.0;
    t.timed(
        fill.elapsed(),
        [&](std::uint32_t here, Client& c, Lane* lane, SpanRef parent) {
          runClient(domain, *objs, target, here, c, lane, parent);
        },
        [&](Lane* lane, SpanRef parent) {
          before_clear = domain.stats();
          clear_ns = timedClear(domain, lane, parent);
        });

    const pgasnb::ReclaimStats stats = domain.stats();
    std::uint64_t try_reclaims = 0;
    for (const Client& c : t.clients) try_reclaims += c.try_reclaim_ns.size();
    t.check(stats.deferred == target.size(), "retired == objects");
    t.check(stats.reclaimed == stats.deferred,
            "reclaimed == retired after clear()");
    addEpochMetrics(t.out.layer, before_clear, stats, try_reclaims, clear_ns);
    addMapMetrics(t.out.layer, {});
    objs.reset();
    domain.destroy();
    return t.finish();
  }

 private:
  /// Listing 5's loop. A retire is complete once the retiring task's next
  /// tryReclaim has returned: that call ships the task's buffered retires
  /// and runs the reclamation step over them. Retires after the last
  /// tryReclaim complete when the task's guard is released.
  static void runClient(const DistDomain& domain,
                        pgasnb::CyclicArray<BenchObject*>& objs,
                        const std::vector<std::uint32_t>& target,
                        std::uint32_t here, Client& c, Lane* lane,
                        SpanRef parent) {
    struct Open {
      std::uint32_t target;
      std::uint64_t retired_ns;
    };
    std::vector<Open> open;
    open.reserve(kReclaimEvery);
    const auto complete = [&] {
      const std::uint64_t done = sim::now();
      for (const Open& o : open) {
        c.split.record(here, o.target,
                       static_cast<double>(done - o.retired_ns));
      }
      open.clear();
    };
    const std::uint64_t count = objs.domain().localCount(here);
    c.try_reclaim_ns.reserve(count / kReclaimEvery + 1);
    {
      pgasnb::DistGuard guard = domain.attach();
      for (std::uint64_t k = 0; k < count; ++k) {
        const std::uint64_t i = objs.domain().globalIndex(here, k);
        BenchObject*& obj = objs.localAt(here, k);
        const std::uint64_t t0 = sim::now();
        {
          const Scope s(lane, "Guard::pin+retire+unpin", Layer::epoch,
                        parent, i);
          guard.pin();
          c.pin_ns += static_cast<double>(sim::now() - t0);
          open.push_back({target[i], sim::now()});
          guard.retire(obj);
          guard.unpin();
        }
        obj = nullptr;
        ++c.pins;
        ++c.attempted;
        if ((k + 1) % kReclaimEvery == 0) {
          timedTryReclaim(guard, c, lane, parent, k / kReclaimEvery);
          complete();
        }
      }
    }
    complete();
  }

  std::uint64_t seed_;
};

// --- stack-churn -------------------------------------------------------------

class StackWorkload final : public Workload {
 public:
  explicit StackWorkload(std::uint64_t seed) : seed_(seed) {}

  TrialOutcome trial(std::size_t index, Tracer* tracer) override {
    using Stack = pgasnb::DistStack<std::uint64_t>;
    std::array<std::vector<std::uint64_t>, kLocales> values;
    for (std::uint32_t l = 0; l < kLocales; ++l) {
      Rng rng(streamSeed(seed_, Stream::values, index * kLocales + l));
      values[l].resize(kStackRoundsPerLocale * kStackBurst);
      for (std::uint64_t& v : values[l]) v = rng.next();
    }
    Trial t(tracer, CommMode::ugni);
    const Stopwatch fill;
    DistDomain domain;
    Stack* stack = nullptr;
    {
      const Scope s(t.lane(0), "setup.fill", Layer::ds, t.root());
      domain = DistDomain::create();
      stack = Stack::create(domain, /*home=*/0);
    }
    t.out.ops = 2 * kStackRoundsPerLocale * kStackBurst * kLocales;
    t.timed(
        fill.elapsed(),
        [&](std::uint32_t here, Client& c, Lane* lane, SpanRef parent) {
          runClient(domain, *stack, values[here], here, c, lane, parent);
        },
        [](Lane*, SpanRef) {});

    const pgasnb::ReclaimStats before_clear = domain.stats();
    t.check(stack->emptyApprox(), "stack empty after equal pushes and pops");
    const double clear_ns = timedClear(domain, t.lane(0), t.root());
    const pgasnb::ReclaimStats stats = domain.stats();
    std::uint64_t push_sum = 0;
    std::uint64_t pop_sum = 0;
    std::uint64_t try_reclaims = 0;
    for (const Client& c : t.clients) {
      push_sum += c.push_sum;
      pop_sum += c.pop_sum;
      try_reclaims += c.try_reclaim_ns.size();
    }
    t.check(push_sum == pop_sum, "pop checksum == push checksum");
    t.check(stats.reclaimed == stats.deferred,
            "reclaimed == retired after clear()");
    addEpochMetrics(t.out.layer, before_clear, stats, try_reclaims, clear_ns);
    addMapMetrics(t.out.layer, {});
    Stack::destroy(stack);
    domain.destroy();
    return t.finish();
  }

 private:
  static void runClient(const DistDomain& domain,
                        pgasnb::DistStack<std::uint64_t>& stack,
                        const std::vector<std::uint64_t>& values,
                        std::uint32_t here, Client& c, Lane* lane,
                        SpanRef parent) {
    constexpr std::uint32_t kHome = 0;
    pgasnb::DistGuard guard = domain.attach();
    c.push_ns.reserve(values.size());
    c.pop_ns.reserve(values.size());
    std::uint64_t pops = 0;
    for (std::uint64_t r = 0; r < kStackRoundsPerLocale; ++r) {
      const Scope round(lane, "round", Layer::bench, parent, r);
      const std::uint64_t p0 = sim::now();
      guard.pin();
      c.pin_ns += static_cast<double>(sim::now() - p0);
      ++c.pins;
      for (std::uint64_t j = 0; j < kStackBurst; ++j) {
        const std::uint64_t v = values[r * kStackBurst + j];
        const std::uint64_t t0 = sim::now();
        {
          const Scope s(lane, "DistStack::push", Layer::ds, round.ref(),
                        r * kStackBurst + j);
          stack.push(guard, v);
        }
        const auto ns = static_cast<double>(sim::now() - t0);
        c.push_ns.push_back(ns);
        c.split.record(here, kHome, ns);
        c.push_sum += mix64(v);
      }
      for (std::uint64_t j = 0; j < kStackBurst; ++j) {
        const std::uint64_t t0 = sim::now();
        std::optional<std::uint64_t> got;
        {
          const Scope s(lane, "DistStack::pop", Layer::ds, round.ref(),
                        r * kStackBurst + j);
          got = stack.pop(guard);
        }
        const auto ns = static_cast<double>(sim::now() - t0);
        c.pop_ns.push_back(ns);
        c.split.record(here, kHome, ns);
        if (got) {
          c.pop_sum += mix64(*got);
        } else {
          ++c.failed;  // empty pop while this client's pushes are pending
        }
      }
      guard.unpin();
      c.attempted += 2 * kStackBurst;
      pops += kStackBurst;
      if (pops % kReclaimEvery == 0) {
        timedTryReclaim(guard, c, lane, round.ref(), pops / kReclaimEvery);
      }
    }
  }

  std::uint64_t seed_;
};

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {
      "kv-read-zipf", "kv-insert-grow", "retire-churn", "stack-churn"};
  return names;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "kv-read-zipf") {
    return std::make_unique<KvWorkload>(
        KvSpec{kZipfKeys, kZipfCapacity, 0.95, 0.05, true, kZipfOpsPerLocale},
        seed);
  }
  if (name == "kv-insert-grow") {
    return std::make_unique<KvWorkload>(
        KvSpec{kGrowKeys, 0, 0.50, 0.25, false, kGrowOpsPerLocale}, seed);
  }
  if (name == "retire-churn") return std::make_unique<RetireWorkload>(seed);
  if (name == "stack-churn") return std::make_unique<StackWorkload>(seed);
  return nullptr;
}

std::size_t traceLanes() { return kLocales + 1; }

}  // namespace perfbench
