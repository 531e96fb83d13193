// Epoch-phased batch engine over the Robin Hood KV table: pipelined vs
// phase-barriered schedules.
//
// Each cell is (mode, locales): a RobinHoodMap is prefilled, then an
// engine::EpochEngine drives E epochs of M mixed read/update operations
// (Zipfian theta=0.99 keys) through an engine::EpochClient --
//
//   * barriered -- admit | barrier+advance | initialize | barrier+advance |
//                  execute with serial spin-join windows. Every phase is a
//                  separate all-locales collective; execute joins each
//                  window_ops sub-batch before issuing the next.
//   * pipelined -- one collective per epoch: windows drain() completions
//                  mid-batch, and each lane admits+initializes
//                  epoch e+1 while e's tail is still in flight.
//
// Rows report per-epoch model-time throughput and issue->completion
// latency percentiles (LatencyRecorder reset() per epoch window); the
// notes column carries the cell aggregate for scripts/bench_json.sh.
//
// Acceptance (ISSUE 7): at 8 locales the pipelined schedule must complete
// the same epochs in <= 1/1.3 the model time of the barriered baseline
// (>= 1.3x speedup) -- the overlap hides next-epoch admit/initialize CPU
// behind in-flight communication and skips the interior phase barriers.
// PASS/FAIL is printed and FAIL exits non-zero so CI can gate on it.
//
// --epoch-sweep runs the opt-in stress grid (locales x ops-per-epoch,
// both modes) registered as `ctest -L stress` (stress_epoch_engine_sweep).
#include "bench_common.hpp"
#include "workload_gen.hpp"

#include <cinttypes>
#include <memory>
#include <vector>

namespace {

using namespace pgasnb;
using namespace pgasnb::bench;

constexpr std::uint64_t kKeySpace = 2048;  // prefilled keys per cell
constexpr std::uint64_t kCapacity = 8192;  // table slots
constexpr double kTheta = 0.99;            // YCSB default Zipf skew
constexpr double kUpdateRatio = 0.5;       // YCSB-A shape: 50/50 read/update

/// Engine tenant: Zipfian read/update mix over a RobinHoodMap. Updates
/// stage one version node per op in the initialize phase and retire it
/// under the epoch guard, so every epoch produces real EBR garbage for the
/// boundary protocol to reclaim.
class KvEngineClient : public engine::EpochClient {
 public:
  KvEngineClient(RobinHoodMap<std::uint64_t> map, std::uint32_t n_lanes)
      : map_(map) {
    lanes_.reserve(n_lanes);
    for (std::uint32_t l = 0; l < n_lanes; ++l) {
      lanes_.push_back(std::make_unique<LaneGen>(l));
    }
  }

  engine::OpRecord admit(std::uint64_t epoch, std::uint32_t lane,
                         std::uint64_t k) override {
    (void)epoch;
    (void)k;
    LaneGen& gen = *lanes_[lane];
    engine::OpRecord op;
    op.key = gen.zipf.next();
    op.kind = gen.oprng.nextDouble() < kUpdateRatio ? 1u : 0u;
    return op;
  }

  std::uint32_t ownerOf(const engine::OpRecord& op) const override {
    return map_.ownerOfKey(op.key);
  }

  void initialize(std::uint64_t epoch, DistGuard& guard,
                  std::span<engine::OpRecord> ops) override {
    for (engine::OpRecord& op : ops) {
      if (op.kind != 1) continue;
      // Stage the update's version node; the previous version becomes this
      // epoch's garbage (retired under the engine's guard, reclaimed by the
      // boundary protocol no later than epoch+1).
      auto* version = DistDomain::make<std::uint64_t>(op.key * 3 + epoch);
      op.arg = *version;
      guard.retire(version);
    }
  }

  engine::OpTicket execute(std::uint64_t epoch, engine::OpRecord& op,
                           comm::OpWindow& window) override {
    (void)epoch;
    (void)window;  // aggregated ops auto-enroll into the open window
    if (op.kind == 1) return map_.putAsyncAggregated(op.key, op.arg);
    return map_.findAsyncAggregated(op.key);
  }

 private:
  struct LaneGen {
    explicit LaneGen(std::uint32_t lane)
        : zipf(kKeySpace, kTheta, lane * 104729 + 29),
          oprng(lane * 7919 + 17) {}
    ZipfianGen zipf;
    Xoshiro256 oprng;
  };

  RobinHoodMap<std::uint64_t> map_;
  std::vector<std::unique_ptr<LaneGen>> lanes_;
};

struct CellResult {
  Measurement m;
  std::uint64_t ops = 0;
  std::vector<engine::EpochStats> stats;
};

CellResult runCell(engine::PhaseMode mode, std::uint32_t locales,
                   std::uint64_t ops_per_epoch, std::uint64_t epochs,
                   std::uint32_t workers, bool print_epochs) {
  Runtime rt(benchConfig(locales, CommMode::none, workers));
  DistDomain domain = DistDomain::create();
  auto map = RobinHoodMap<std::uint64_t>::create(kCapacity, domain);
  {
    comm::OpWindow window;
    for (std::uint64_t k = 0; k < kKeySpace; ++k) {
      (void)map.insertAsyncAggregated(k, k * 3);  // auto-enrolls
    }
  }

  KvEngineClient client(map, locales * workers);
  engine::EpochEngineConfig cfg;
  cfg.ops_per_epoch = ops_per_epoch;
  cfg.workers_per_locale = workers;
  cfg.mode = mode;
  cfg.keep_latency_samples = print_epochs;
  engine::EpochEngine eng(domain, client, cfg);

  CellResult r;
  r.m = timed([&] { r.stats = eng.run(epochs); });
  for (const auto& s : r.stats) r.ops += s.ops;

  if (print_epochs) {
    LatencyRecorder lat;  // one recorder, reset() per epoch window
    for (const auto& s : r.stats) {
      lat.reset();
      for (double ns : s.latencies_ns) lat.record(ns);
      std::printf("    [%s %2" PRIu32 "loc] epoch %" PRIu64 ": %" PRIu64
                  " ops  thr=%.2fMops  %s  reclaim=%" PRIu64 "/%" PRIu64
                  "\n",
                  engine::toString(mode), locales, s.epoch, s.ops,
                  s.throughputOps() * 1e-6, lat.summary().c_str(),
                  s.reclaim.reclaimed, s.reclaim.deferred);
    }
  }

  PGASNB_CHECK_MSG(map.validateInvariants(),
                   "epoch_engine: Robin Hood invariants violated after run");
  map.destroy();
  domain.destroy();
  return r;
}

int runSweep(const BenchOptions& opts) {
  // Stress grid: locales x ops-per-epoch, both schedules. The engine's own
  // checks (op accounting, boundary quiescence, reclamation protocol) are
  // the acceptance here; throughput rows are informational.
  FigureTable table("epoch-engine-sweep");
  const std::uint64_t epochs = 3;
  for (std::uint32_t locales : opts.localeSweep(2)) {
    for (std::uint64_t m : {std::uint64_t{1} << 10, std::uint64_t{1} << 12,
                            std::uint64_t{1} << 14}) {
      const std::uint64_t ops = opts.scaled(m);
      for (auto mode : {engine::PhaseMode::barriered,
                        engine::PhaseMode::pipelined}) {
        const CellResult r = runCell(mode, locales, ops, epochs,
                                     opts.tasks_per_locale, false);
        const double thr = r.m.model_s > 0.0
                               ? static_cast<double>(r.ops) / r.m.model_s
                               : 0.0;
        char series[64];
        std::snprintf(series, sizeof(series), "%s/M=%" PRIu64,
                      engine::toString(mode), ops);
        char notes[96];
        std::snprintf(notes, sizeof(notes), "epochs=%" PRIu64
                      " ops=%" PRIu64 " thr=%.2fMops",
                      epochs, r.ops, thr * 1e-6);
        table.addRow(series, locales, r.m, notes);
      }
    }
  }
  table.print();
  std::printf("epoch-engine sweep complete\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = BenchOptions::parse(argc, argv);
  Options raw(argc, argv);
  if (raw.boolean("epoch-sweep", false)) return runSweep(opts);

  const std::uint64_t ops_per_epoch = opts.scaled(4096);
  const std::uint64_t epochs = 4;

  FigureTable table("epoch-engine");
  double at8_model[2] = {0.0, 0.0};  // [barriered, pipelined]
  for (std::uint32_t locales = 2;
       locales <= std::min(opts.max_locales, 8u); locales *= 2) {
    for (auto mode :
         {engine::PhaseMode::barriered, engine::PhaseMode::pipelined}) {
      const CellResult r = runCell(mode, locales, ops_per_epoch, epochs,
                                   opts.tasks_per_locale, true);
      const double thr = r.m.model_s > 0.0
                             ? static_cast<double>(r.ops) / r.m.model_s
                             : 0.0;
      // Aggregate percentiles over all epochs for the summary row.
      LatencyRecorder lat;
      for (const auto& s : r.stats) {
        for (double ns : s.latencies_ns) lat.record(ns);
      }
      char notes[160];
      std::snprintf(notes, sizeof(notes),
                    "epochs=%" PRIu64 " ops=%" PRIu64 " thr=%.2fMops %s",
                    epochs, r.ops, thr * 1e-6, lat.summary().c_str());
      table.addRow(engine::toString(mode), locales, r.m, notes);
      if (locales == 8) {
        at8_model[mode == engine::PhaseMode::pipelined ? 1 : 0] =
            r.m.model_s;
      }
    }
  }
  table.print();

  if (opts.max_locales < 8) {
    std::printf("acceptance check skipped (needs --max-locales >= 8)\n");
    return 0;
  }
  const double ratio =
      at8_model[1] > 0.0 ? at8_model[0] / at8_model[1] : 0.0;
  const bool pass = ratio >= 1.3;
  std::printf(
      "\npipelined vs barriered at 8 locales: %.2fx model-time speedup "
      "(%.3fs vs %.3fs for %" PRIu64 " epochs x %" PRIu64 " ops)\n",
      ratio, at8_model[1], at8_model[0], epochs, ops_per_epoch);
  std::printf("acceptance (pipelined >= 1.3x barriered): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
