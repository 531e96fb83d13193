#include "epoch/dist_reclaim.hpp"

namespace pgasnb::detail {

void bulkDeleteScattered(const ScatterBuckets& buckets) {
  const std::uint32_t src = Runtime::here();
  auto* buckets_p = &buckets;  // coforall joins before the frame unwinds
  coforallLocales([buckets_p, src] {
    const LatencyModel& lat = Runtime::get().config().latency;
    const std::uint32_t dest = Runtime::here();
    const auto& bucket = (*buckets_p)[dest];
    if (dest != src && !bucket.empty()) {
      sim::charge(lat.bulkCost(bucket.size() * sizeof(void*) * 2));
    }
    for (const ScatterEntry& entry : bucket) {
      entry.deleter(entry.obj);
    }
  });
}

}  // namespace pgasnb::detail
