// The shell both distributed reclaim domains share.
//
// DistDomain (epoch/domain.hpp, EBR) and IntervalDomain
// (epoch/interval_manager.hpp, IBR) have one shape: a trivially copyable
// record-wrapped handle over Privatized<Impl>, which gives global-view
// access to per-locale reclamation state (paper Sec. II.C). The Impl is the
// protocol -- epochs and limbo lists, or eras and reservations. Everything
// around the protocol lives here, once:
//   * scatter buckets and the bulk delete that frees each bucket on its
//     owning locale ("Bulk transfer and delete", Listing 4);
//   * the clear() and destroy() bodies;
//   * the progress-thread guard cache behind threadGuard();
//   * the per-locale ReclaimCounters sum behind stats()/resetStats().
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "epoch/limbo_list.hpp"
#include "epoch/reclaim_stats.hpp"
#include "runtime/collectives.hpp"
#include "runtime/comm.hpp"
#include "runtime/privatization.hpp"
#include "runtime/runtime.hpp"

namespace pgasnb::detail {

/// One bucket of entries per destination locale.
using ScatterBuckets = std::vector<std::vector<ScatterEntry>>;

/// Walk a popped limbo chain: bucket every object by owning locale and
/// recycle its node. Returns the number of objects.
template <typename Pool>
std::uint64_t scatterChain(LimboNode* node, Pool& pool,
                           ScatterBuckets& buckets) {
  Runtime& rt = Runtime::get();
  std::uint64_t count = 0;
  while (node != nullptr) {
    LimboNode* next = LimboList::next(node);
    buckets[rt.localeOfAddress(node->obj)].push_back(
        ScatterEntry{node->obj, node->deleter});
    pool.release(node);
    node = next;
    ++count;
  }
  return count;
}

/// Run every bucket's deleters on the bucket's owner (one coforall, called
/// from the locale that filled the buckets). Each non-empty remote bucket
/// is charged as one aggregated bulk transfer instead of one RPC per
/// object -- the scatter list's entire purpose.
void bulkDeleteScattered(const ScatterBuckets& buckets);

/// clear(): reclaim everything regardless of the protocol's safety rule;
/// the caller guarantees no concurrent use. Tasks are quiescent, but
/// aggregated or per-op-AM retires may still be in flight: ship anything
/// this task's aggregator holds, then fence every AM queue (including this
/// locale's own -- other locales inject retires destined for us) so all of
/// them have landed. Then every locale pops all it holds
/// (`Impl::popAllRetired`, which counts and charges the pops; under EBR
/// that includes the retires still buffered in its live tokens, task and
/// progress-thread guards alike) and bulk deletes.
template <typename Impl>
void clearAll(Privatized<Impl> handle) {
  comm::taskAggregator().flushAll();
  comm::quiesceAmQueues();
  coforallLocales([handle] {
    ScatterBuckets buckets(Runtime::get().numLocales());
    handle.local().popAllRetired(buckets);
    bulkDeleteScattered(buckets);
  });
}

// ---------------------------------------------------------------------------
// Per-thread cached guards (progress-thread handler pins)
// ---------------------------------------------------------------------------
//
// An AM handler that dereferences protected nodes (DistStack::popAsync's
// pop loop, InterlockedHashTable's shipped list ops) needs a pin on the
// progress thread. Registering a fresh token per message costs pool atomics and
// allocated-list churn on the hot path; instead each thread keeps one
// *attached* guard per domain and pins/unpins it around each handler --
// Fraser-style cheap per-operation pinning restored for handlers.
//
// Lifetime: entries are keyed by (runtime generation, privatization id).
// destroyInstances() drops the domain's entry on every progress thread
// while the token pools are still alive. Entries that outlive their runtime
// (leaked domains, teardown races) are *abandoned* -- the pool died with
// the arena, so unregistering would be a use-after-free.

template <typename GuardT>
class GuardCache {
 public:
  static GuardCache& here() {
    thread_local GuardCache cache;
    return cache;
  }

  ~GuardCache() {
    for (auto& entry : entries_) {
      if (!Runtime::active() ||
          Runtime::get().generation() != entry->generation) {
        entry->guard.token().abandon();
      }
      // Otherwise the guard's destructor unregisters normally (the domain
      // is still alive on a live runtime).
    }
  }

  template <typename Domain>
  GuardT& get(const Domain& domain) {
    // Progress threads only: the drop broadcast reaches exactly the
    // progress threads, so an entry created on a task thread would outlive
    // its domain and later alias a recycled privatization slot.
    PGASNB_CHECK_MSG(taskContext().progress_thread,
                     "threadGuard(): cached guards are progress-thread "
                     "state; use domain.pin()/attach() from tasks");
    const std::uint64_t gen = Runtime::get().generation();
    const std::size_t pid = domain.privatizationId();
    // Sweep entries from dead runtimes while we're here (their token pools
    // are gone -- abandon, never unregister).
    std::erase_if(entries_, [gen](const auto& entry) {
      if (entry->generation == gen) return false;
      entry->guard.token().abandon();
      return true;
    });
    for (auto& entry : entries_) {
      if (entry->pid == pid && entry->guard.valid()) return entry->guard;
    }
    // unique_ptr entries: handed-out references stay stable across later
    // insertions and erasures (a handler can touch several domains).
    entries_.push_back(std::make_unique<Entry>(
        Entry{gen, pid, GuardT(domain.acquireToken(), /*pin_now=*/false)}));
    return entries_.back()->guard;
  }

  /// Drop (and unregister) this thread's entry for domain `pid`; the
  /// domain's instances must still be alive.
  void drop(std::size_t pid) {
    std::erase_if(entries_,
                  [pid](const auto& entry) { return entry->pid == pid; });
  }

 private:
  struct Entry {
    std::uint64_t generation = 0;
    std::size_t pid = 0;
    GuardT guard;
  };
  std::vector<std::unique_ptr<Entry>> entries_;
};

/// The calling thread's cached attached guard for `domain`: one token
/// registration per (OS thread, domain), created lazily and reused across
/// AM handlers. Progress threads only (checked).
template <typename Domain>
typename Domain::Guard& threadCachedGuard(const Domain& domain) {
  return GuardCache<typename Domain::Guard>::here().get(domain);
}

/// destroy(): clear, drop every progress thread's cached guard for the
/// domain before the per-locale instances (and their token pools) die,
/// then destroy the instances. Clearing first empties every cached guard's
/// retire buffer, so the drop's unregistration has nothing to ship. The
/// drop must traverse the AM queues -- amProgressHandle, never amSync's
/// local fast path -- because the cache lives on the progress thread, not
/// on the task thread running destroy().
template <typename GuardT, typename Impl>
void destroyInstances(Privatized<Impl>& handle) {
  clearAll(handle);
  const std::size_t pid = handle.id();
  std::vector<comm::Handle<>> drops;
  for (std::uint32_t l = 0; l < Runtime::get().numLocales(); ++l) {
    drops.push_back(comm::amProgressHandle(
        l, [pid] { GuardCache<GuardT>::here().drop(pid); }));
  }
  comm::waitAll(drops);
  handle.destroy();
}

/// stats(): the sum of every locale's counters (quiescent-exact).
template <typename Impl>
ReclaimStats sumStats(Privatized<Impl> handle) {
  ReclaimStats total;
  for (std::uint32_t l = 0; l < Runtime::get().numLocales(); ++l) {
    total += handle.instanceOn(l)->counters_.snapshot();
  }
  return total;
}

/// resetStats(): zero every locale's counters (quiescent point).
template <typename Impl>
void resetStats(Privatized<Impl> handle) {
  for (std::uint32_t l = 0; l < Runtime::get().numLocales(); ++l) {
    handle.instanceOn(l)->counters_.reset();
  }
}

}  // namespace pgasnb::detail
