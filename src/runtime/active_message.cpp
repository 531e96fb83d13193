#include "runtime/active_message.hpp"

#include <algorithm>

#include "runtime/runtime.hpp"
#include "runtime/sim_clock.hpp"

namespace pgasnb {

ProgressThread::ProgressThread(std::uint32_t locale_id, AmQueue& queue)
    : locale_id_(locale_id), queue_(queue), thread_([this] { run(); }) {}

ProgressThread::~ProgressThread() {
  stop_.store(true, std::memory_order_release);
  queue_.notifyAll();
  if (thread_.joinable()) thread_.join();
}

void ProgressThread::run() {
  // The progress thread permanently impersonates its locale.
  taskContext().here = locale_id_;
  taskContext().progress_thread = true;
  const LatencyModel& lat = Runtime::get().config().latency;

  AmRequest req;
  while (queue_.popOrWait(req, stop_)) {
    // FIFO queueing in simulated time: the message reaches this locale at
    // send_time + wire; service begins when the channel frees up.
    const std::uint64_t arrival = req.send_time + lat.am_wire_ns;
    const std::uint64_t start = std::max(arrival, busy_until_);
    sim::setNow(start);
    sim::charge(lat.am_service_ns);
    if (req.fn) req.fn();
    // Aggregated payload: the batch already paid its one wire+service
    // charge above; each op costs only its CPU time at the target.
    for (auto& op : req.batch) {
      sim::charge(lat.cpu_atomic_ns);
      op();
    }
    const std::uint64_t end = sim::now();
    busy_until_ = end;
    serviced_.fetch_add(1, std::memory_order_relaxed);
    if (req.on_complete) {
      // Resolves the waiting handle(s) and runs their completion waiters
      // (whenAll groups, CompletionQueue pushes); those only record join
      // times and charge nothing, so this channel's clock is unaffected.
      req.on_complete(end);
    }
    req = AmRequest{};  // drop closure state before blocking again
  }
}

}  // namespace pgasnb
