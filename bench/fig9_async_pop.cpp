// Fig. 9 (extension): async pop pipelining vs. blocking pops.
//
// A DistStack homed on locale 0 is pre-filled, then every locale drains its
// share three ways:
//   * blocking   -- pop(): each pop pays two AM round trips to the home
//                   locale (ABA head read + DCAS) plus the snapshot GET,
//                   serially.
//   * pipelined  -- popAsync(): the whole pop loop ships to the home locale
//                   (head read/CAS become processor atomics there, under
//                   the progress thread's cached guard); a window of pops
//                   is in flight at once and drains through a
//                   CompletionQueue.
//   * batched    -- popAsyncAggregated(): shipped pops additionally ride
//                   the task Aggregator, one wire+service charge per batch
//                   instead of per pop; each window's handle group resolves
//                   together. Manual flushAll() before the join (the
//                   pre-OpWindow discipline, kept as the baseline).
//   * windowed   -- the same aggregated pops owned by a comm::OpWindow:
//                   closing the window auto-flushes and joins at the max
//                   sim-time, no manual flushAll() anywhere.
//   * drained    -- the same windowed pops, plus a mid-window drain()
//                   that absorbs the ops that have already landed before
//                   the close spin-joins the rest.
//
// Acceptance (ISSUE 3): at 8 locales the async-pop path must show >= 2x
// lower simulated completion time than blocking pops. Acceptance (ISSUE 4):
// the windowed path must be at parity with the manual-flush batched path
// (auto-flush must not cost model time). Acceptance (ISSUE 5): the drained
// path must be at parity with the windowed spin-join (<= 1.05x model time
// at 8 locales -- draining mid-window must not cost model time). The
// bench prints the ratios and a PASS/FAIL verdict and exits non-zero on
// FAIL so CI can gate on them. Counters handles_chained / cq_drained ride
// in the notes column so scripts/bench_json.sh records them into
// BENCH_fig9_async_pop.json.
#include "bench_common.hpp"

#include <cinttypes>
#include <mutex>

namespace {

enum class PopMode { blocking, pipelined, batched, windowed, drained };

const char* toString(PopMode mode) {
  switch (mode) {
    case PopMode::blocking:
      return "blocking";
    case PopMode::pipelined:
      return "pipelined";
    case PopMode::batched:
      return "batched";
    case PopMode::windowed:
      return "windowed";
    case PopMode::drained:
      return "drained";
  }
  return "?";
}

struct ModeResult {
  pgasnb::bench::Measurement m;
  std::uint64_t handles_chained = 0;
  std::uint64_t cq_drained = 0;
  // Per-pop issue->completion latency (windowed mode only): the same
  // LatencyRecorder the ycsb_like harness uses, so the fig9 notes carry
  // p50/p95/p99 of the batch-resolved pops too.
  pgasnb::bench::LatencyRecorder lat;
};

ModeResult runMode(PopMode mode, std::uint32_t locales,
                   std::uint64_t pops_per_locale,
                   std::uint32_t tasks_per_locale) {
  using namespace pgasnb;
  RuntimeConfig cfg =
      bench::benchConfig(locales, CommMode::none, tasks_per_locale);
  Runtime rt(cfg);
  DistDomain domain = DistDomain::create();
  auto* stack = DistStack<std::uint64_t>::create(domain, /*home=*/0);

  const std::uint64_t total = pops_per_locale * locales;
  {
    // Seed from the home locale so the nodes (and their later retires) are
    // home-local: the bench isolates the *pop path*, not the push path.
    auto guard = domain.pin();
    for (std::uint64_t i = 0; i < total; ++i) stack->push(guard, i + 1);
  }

  const comm::Counters before = comm::counters();
  std::atomic<std::uint64_t> popped{0};
  std::mutex lat_mu;
  ModeResult result;
  result.m = bench::timed([&] {
    coforallLocales([domain, stack, mode, pops_per_locale, &popped, &lat_mu,
                     &result] {
      auto guard = domain.pin();
      std::uint64_t got = 0;
      switch (mode) {
        case PopMode::blocking: {
          for (std::uint64_t i = 0; i < pops_per_locale; ++i) {
            got += stack->pop(guard).has_value() ? 1 : 0;
          }
          break;
        }
        case PopMode::pipelined: {
          // A sliding window drained through a CompletionQueue: the
          // progress thread pushes completions, the task reissues.
          constexpr std::uint64_t kWindow = 16;
          comm::CompletionQueue cq;
          std::vector<comm::Handle<std::optional<std::uint64_t>>> slots(
              std::min(kWindow, pops_per_locale));
          std::uint64_t issued = 0;
          for (std::uint64_t s = 0; s < slots.size(); ++s, ++issued) {
            slots[s] = stack->popAsync(guard);
            cq.watch(slots[s], s);
          }
          while (auto slot = cq.next()) {
            got += slots[*slot].value().has_value() ? 1 : 0;
            if (issued < pops_per_locale) {
              slots[*slot] = stack->popAsync(guard);
              cq.watch(slots[*slot], *slot);
              ++issued;
            }
          }
          break;
        }
        case PopMode::batched: {
          constexpr std::uint64_t kWindow = 64;
          std::uint64_t remaining = pops_per_locale;
          std::vector<comm::Handle<std::optional<std::uint64_t>>> window;
          while (remaining > 0) {
            const std::uint64_t n = std::min(kWindow, remaining);
            window.clear();
            window.reserve(n);
            for (std::uint64_t i = 0; i < n; ++i) {
              window.push_back(stack->popAsyncAggregated(guard));
            }
            comm::taskAggregator().flushAll();  // ship the window
            comm::whenAll(window).wait();       // one join at the max
            for (auto& h : window) got += h.value().has_value() ? 1 : 0;
            remaining -= n;
          }
          break;
        }
        case PopMode::windowed: {
          // Same batched pops, owned by an OpWindow: no flushAll anywhere.
          // The acceptance bar below demands parity with `batched` -- the
          // convenience must be free in model time. Per-pop latency
          // (issue -> batch completion) rides the shared LatencyRecorder.
          constexpr std::uint64_t kWindow = 64;
          std::uint64_t remaining = pops_per_locale;
          std::vector<comm::Handle<std::optional<std::uint64_t>>> handles;
          std::vector<std::uint64_t> issue;
          bench::LatencyRecorder local_lat;
          local_lat.reserve(pops_per_locale);
          while (remaining > 0) {
            const std::uint64_t n = std::min(kWindow, remaining);
            handles.clear();
            handles.reserve(n);
            issue.clear();
            {
              comm::OpWindow window;
              for (std::uint64_t i = 0; i < n; ++i) {
                issue.push_back(sim::now());
                handles.push_back(stack->popAsyncAggregated(guard));
              }
            }  // close: auto-flush + join at the max sim-time
            for (std::uint64_t i = 0; i < n; ++i) {
              got += handles[i].value().has_value() ? 1 : 0;
              const std::uint64_t done = handles[i].completionTime();
              local_lat.recordSpan(std::min(issue[i], done), done);
            }
            remaining -= n;
          }
          {
            std::lock_guard<std::mutex> hold(lat_mu);
            result.lat.merge(local_lat);
          }
          break;
        }
        case PopMode::drained: {
          // Same windowed pops, drained mid-window. The acceptance bar
          // demands parity with the plain window -- the overlap must be
          // free in model time.
          constexpr std::uint64_t kWindow = 64;
          std::uint64_t remaining = pops_per_locale;
          std::vector<comm::Handle<std::optional<std::uint64_t>>> handles;
          while (remaining > 0) {
            const std::uint64_t n = std::min(kWindow, remaining);
            handles.clear();
            handles.reserve(n);
            {
              comm::OpWindow window;
              for (std::uint64_t i = 0; i < n; ++i) {
                handles.push_back(stack->popAsyncAggregated(guard));
              }
              window.drain();  // overlap: absorb the finished head now
            }  // close: spin-join the tail, same max-fold
            for (auto& h : handles) got += h.value().has_value() ? 1 : 0;
            remaining -= n;
          }
          break;
        }
      }
      popped.fetch_add(got, std::memory_order_relaxed);
    });
  });
  const comm::Counters after = comm::counters();
  result.handles_chained = after.handles_chained - before.handles_chained;
  result.cq_drained = after.cq_drained - before.cq_drained;

  PGASNB_CHECK_MSG(popped.load() == total,
                   "bench invariant: every issued pop must find a value");
  DistStack<std::uint64_t>::destroy(stack);
  domain.destroy();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pgasnb;
  using namespace pgasnb::bench;
  const BenchOptions opts = BenchOptions::parse(argc, argv);
  const std::uint64_t pops_per_locale = opts.scaled(512);

  constexpr PopMode kModes[] = {PopMode::blocking, PopMode::pipelined,
                                PopMode::batched, PopMode::windowed,
                                PopMode::drained};

  FigureTable table("fig9-async-pop");
  double at8_blocking = 0.0;
  double at8_async_best = 0.0;
  double at8_batched = 0.0;
  double at8_windowed = 0.0;
  double at8_drained = 0.0;
  for (std::uint32_t locales : opts.localeSweep(2)) {
    for (PopMode mode : kModes) {
      const ModeResult r =
          runMode(mode, locales, pops_per_locale, opts.tasks_per_locale);
      char notes[224];
      if (r.lat.count() > 0) {
        std::snprintf(notes, sizeof(notes),
                      "handles_chained=%" PRIu64 " cq_drained=%" PRIu64 " %s",
                      r.handles_chained, r.cq_drained,
                      r.lat.summary().c_str());
      } else {
        std::snprintf(notes, sizeof(notes),
                      "handles_chained=%" PRIu64 " cq_drained=%" PRIu64,
                      r.handles_chained, r.cq_drained);
      }
      table.addRow(toString(mode), locales, r.m, notes);
      if (locales == 8) {
        if (mode == PopMode::blocking) {
          at8_blocking = r.m.model_s;
        } else if (at8_async_best == 0.0 || r.m.model_s < at8_async_best) {
          at8_async_best = r.m.model_s;
        }
        if (mode == PopMode::batched) at8_batched = r.m.model_s;
        if (mode == PopMode::windowed) at8_windowed = r.m.model_s;
        if (mode == PopMode::drained) at8_drained = r.m.model_s;
      }
    }
  }
  table.print();

  if (opts.max_locales < 8) {
    std::printf("acceptance check skipped (needs --max-locales >= 8)\n");
    return 0;
  }
  const double speedup =
      at8_blocking / (at8_async_best == 0.0 ? 1.0 : at8_async_best);
  const bool pass = speedup >= 2.0;
  std::printf(
      "\nasync pop vs blocking pop at 8 locales: %.2fx lower model time "
      "(%.6fs vs %.6fs)\n",
      speedup, at8_async_best, at8_blocking);
  std::printf("acceptance (>=2x lower simulated time): %s\n",
              pass ? "PASS" : "FAIL");
  // The OpWindow path must not pay for its convenience: parity (within a
  // scheduling-noise margin) with the manual-flush batched discipline.
  const double window_ratio =
      at8_windowed / (at8_batched == 0.0 ? 1.0 : at8_batched);
  const bool window_pass = window_ratio <= 1.10;
  std::printf(
      "windowed (auto-flush) vs batched (manual flush) at 8 locales: "
      "%.3fx model time (%.6fs vs %.6fs)\n",
      window_ratio, at8_windowed, at8_batched);
  std::printf("acceptance (windowed <= 1.10x batched): %s\n",
              window_pass ? "PASS" : "FAIL");
  // The mid-window drain must not pay for its overlap either: the
  // max-fold arithmetic is identical.
  const double drain_ratio =
      at8_drained / (at8_windowed == 0.0 ? 1.0 : at8_windowed);
  const bool drain_pass = drain_ratio <= 1.05;
  std::printf(
      "drained (mid-window drain) vs windowed (close only) "
      "at 8 locales: %.3fx model time (%.6fs vs %.6fs)\n",
      drain_ratio, at8_drained, at8_windowed);
  std::printf("acceptance (drained <= 1.05x windowed): %s\n",
              drain_pass ? "PASS" : "FAIL");
  return (pass && window_pass && drain_pass) ? 0 : 1;
}
