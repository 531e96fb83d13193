#include "epoch/epoch_manager.hpp"

#include <vector>

#include "epoch/domain.hpp"

namespace pgasnb {

// ---------------------------------------------------------------------------
// EpochManagerImpl
// ---------------------------------------------------------------------------

EpochManagerImpl::~EpochManagerImpl() {
  // Any nodes still sitting in limbo lists belong to this pool; return them
  // so the pool can hand them back to the arena. Their payload objects were
  // reclaimed by destroy()'s clear(); if the user skipped destroy() the
  // objects leak (exactly like forgetting `delete` on an unmanaged class).
  for (auto& list : limbo_) {
    LimboNode* node = list.popAll();
    while (node != nullptr) {
      LimboNode* next = LimboList::next(node);
      node_pool_.destroyNode(node);
      node = next;
    }
  }
}

void EpochManagerImpl::unregisterToken(Token* token) {
  unpin(token);
  tokens_.release(token);
}

void EpochManagerImpl::pin(Token* token) {
  if (token->pinned()) return;
  const LatencyModel& lat = Runtime::get().config().latency;
  // Read the locale-private epoch cache (the paper's zero-communication
  // fast path), publish it, then re-validate: if an advance raced between
  // the read and the publish, chase it. The scan runs on this locale, so
  // seq_cst here orders the publish against the scanner's read.
  std::uint64_t e = locale_epoch_.load(std::memory_order_seq_cst);
  token->local_epoch.store(e, std::memory_order_seq_cst);
  sim::charge(lat.cpu_atomic_ns * 2);
  std::uint64_t current;
  while ((current = locale_epoch_.load(std::memory_order_seq_cst)) != e) {
    e = current;
    token->local_epoch.store(e, std::memory_order_seq_cst);
    sim::charge(lat.cpu_atomic_ns * 2);
  }
}

void EpochManagerImpl::unpin(Token* token) noexcept {
  token->local_epoch.store(kEpochQuiescent, std::memory_order_seq_cst);
  if (Runtime::active()) {
    sim::chargeModelOnly(Runtime::get().config().latency.cpu_atomic_ns);
  }
}

void EpochManagerImpl::deferDelete(Token* token, void* obj,
                                   ObjectDeleter deleter) {
  const std::uint64_t e = token->local_epoch.load(std::memory_order_seq_cst);
  PGASNB_CHECK_MSG(e != kEpochQuiescent,
                   "deferDelete requires a pinned token");
  LimboNode* node = node_pool_.acquire(obj, deleter);
  limbo_[limboIndexFor(e)].push(node);
  counters_.noteDeferred(1);
  // recycle-pop + exchange + link, all locale-local processor atomics
  sim::charge(Runtime::get().config().latency.cpu_atomic_ns * 3);
}

void EpochManagerImpl::insertRemoteRetire(void* obj, ObjectDeleter deleter) {
  LimboNode* node = node_pool_.acquire(obj, deleter);
  const std::uint64_t e = locale_epoch_.load(std::memory_order_seq_cst);
  limbo_[limboIndexFor(e)].push(node);
  counters_.noteDeferred(1);
  sim::charge(Runtime::get().config().latency.cpu_atomic_ns * 3);
}

void EpochManagerImpl::insertRemoteRetires(
    const std::vector<detail::ScatterEntry>& entries) {
  if (entries.empty()) return;
  // Acquire and pre-link the whole chain privately, then publish it with
  // one exchange: a batch of N retires costs the same number of limbo-list
  // atomics as a single retire.
  LimboNode* first = nullptr;
  LimboNode* last = nullptr;
  for (const detail::ScatterEntry& entry : entries) {
    LimboNode* node = node_pool_.acquire(entry.obj, entry.deleter);
    if (first == nullptr) {
      first = node;
    } else {
      last->next.store(node, std::memory_order_relaxed);
    }
    last = node;
  }
  const std::uint64_t e = locale_epoch_.load(std::memory_order_seq_cst);
  limbo_[limboIndexFor(e)].pushChain(first, last);
  counters_.noteDeferred(entries.size());
  // Node recycles (one pool pop per entry) + the single exchange.
  sim::charge(Runtime::get().config().latency.cpu_atomic_ns *
              (entries.size() + 2));
}

void EpochManagerImpl::popAllRetired(detail::ScatterBuckets& buckets) {
  for (std::uint32_t index = 0; index < kNumEpochs; ++index) {
    scatterLimboList(index, buckets);
  }
  // Each bucket holds one destination's objects, so it moves wholesale
  // into that destination's scatter bucket.
  std::uint64_t buffered = 0;
  for (Token* t = tokens_.allocatedHead(); t != nullptr;
       t = t->next_allocated) {
    for (std::uint32_t dest = 0; dest < t->pending_remote.size(); ++dest) {
      auto& entries = t->pending_remote[dest].entries;
      buffered += entries.size();
      buckets[dest].insert(buckets[dest].end(), entries.begin(),
                           entries.end());
      entries.clear();
    }
  }
  counters_.noteDeferred(buffered);
  counters_.reclaimed.fetch_add(buffered, std::memory_order_relaxed);
}

void EpochManagerImpl::scatterLimboList(std::uint32_t index,
                                        detail::ScatterBuckets& buckets) {
  LimboNode* node = limbo_[index].popAll();
  sim::charge(Runtime::get().config().latency.cpu_atomic_ns);  // the popAll
  counters_.reclaimed.fetch_add(detail::scatterChain(node, node_pool_, buckets),
                                std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// EpochToken: cross-locale retire routing
// ---------------------------------------------------------------------------

void EpochToken::deferDeleteRaw(void* obj, ObjectDeleter deleter) {
  checkHome();
  Runtime& rt = Runtime::get();
  const std::uint32_t owner = rt.localeOfAddress(obj);
  const RemoteRetirePolicy policy = rt.config().remote_retire;
  if (owner == Runtime::here() || policy == RemoteRetirePolicy::scatter) {
    // Local object, or the paper's baseline: retire into the local limbo
    // list; reclamation ships remote objects home via the scatter lists.
    handle_.local().deferDelete(token_, obj, deleter);
    return;
  }
  PGASNB_CHECK_MSG(pinned(), "deferDelete requires a pinned token");
  if (policy == RemoteRetirePolicy::per_op_am) {
    // Naive async path: one active message per retire; nobody joins it.
    auto handle = handle_;
    (void)comm::amAsyncHandle(owner, [handle, obj, deleter] {
      handle.local().insertRemoteRetire(obj, deleter);
    });
    return;
  }
  // Aggregated: buffer per destination in the Token; a full bucket becomes
  // one closure in the task's comm::Aggregator. Sub-threshold buckets wait
  // across unpins (see EpochToken).
  auto& pending = token_->pending_remote;
  if (pending.empty()) pending.resize(rt.numLocales());
  auto& bucket = pending[owner];
  if (bucket.entries.empty()) bucket.oldest_ns = sim::now();
  bucket.entries.push_back({obj, deleter});
  sim::chargeModelOnly(rt.config().latency.cpu_atomic_ns);
  if (bucket.entries.size() >= rt.config().retire_batch_size) {
    enqueueBucket(owner);
  }
}

void EpochToken::enqueueBucket(std::uint32_t dest) {
  auto& entries = token_->pending_remote[dest].entries;
  if (entries.empty()) return;
  const std::uint64_t weight = entries.size();
  auto handle = handle_;
  comm::taskAggregator().enqueue(
      dest,
      [handle, batch = std::move(entries)] {
        handle.local().insertRemoteRetires(batch);
      },
      weight);
  entries.clear();  // moved-from: back to a known-empty state
  enqueued_ = true;
}

void EpochToken::shipAged() {
  auto& pending = token_->pending_remote;
  if (pending.empty()) return;
  checkHome();
  const std::uint64_t max_age =
      Runtime::get().config().aggregator_max_batch_age_ns;
  if (max_age == 0) return;
  const std::uint64_t now = sim::now();
  for (std::uint32_t dest = 0; dest < pending.size(); ++dest) {
    if (!pending[dest].entries.empty() &&
        now - pending[dest].oldest_ns >= max_age) {
      enqueueBucket(dest);
    }
  }
}

void EpochToken::shipEnqueued() {
  if (!enqueued_) return;
  checkHome();
  // Push our closures onto the wire now, even when they are below the
  // aggregator's own threshold: left in the worker's thread-local buffer
  // they could wait until thread exit, where the destructor flush can land
  // after the domain's instances are destroyed.
  comm::taskAggregator().flushAll();
  enqueued_ = false;
}

void EpochToken::flush() {
  if (token_ == nullptr) return;
  checkHome();
  for (std::uint32_t dest = 0; dest < token_->pending_remote.size(); ++dest) {
    enqueueBucket(dest);
  }
  shipEnqueued();
}

// ---------------------------------------------------------------------------
// Reclamation driver (paper Listing 4)
// ---------------------------------------------------------------------------

namespace detail {

bool epochTryReclaim(Privatized<EpochManagerImpl> handle) {
  EpochManagerImpl& inst = handle.local();
  const LatencyModel& lat = Runtime::get().config().latency;

  // First-come-first-serve election, local then global; losers back out
  // immediately so the operation is non-blocking (Listing 4 lines 2-6).
  sim::charge(lat.cpu_atomic_ns);
  if (inst.is_setting_epoch_.exchange(1, std::memory_order_seq_cst) != 0) {
    inst.counters_.elections_lost_local.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (inst.global_->is_setting_epoch.testAndSet()) {
    inst.is_setting_epoch_.store(0, std::memory_order_seq_cst);
    inst.counters_.elections_lost_global.fetch_add(1,
                                                   std::memory_order_relaxed);
    sim::charge(lat.cpu_atomic_ns);
    return false;
  }

  // Is it safe to reclaim across all locales? (Listing 4 lines 8-21)
  // The scan is initiated asynchronously: the kick-off returns immediately,
  // the initiator's own locale scans as one of the spawned tasks, and the
  // join folds every locale's simulated scan time in at once.
  const std::uint64_t this_epoch = inst.global_->epoch.read();
  PendingAnd scan = allLocalesAndAsync([handle, this_epoch, &lat] {
    EpochManagerImpl& li = handle.local();
    for (Token* t = li.tokens_.allocatedHead(); t != nullptr;
         t = t->next_allocated) {
      sim::chargeModelOnly(lat.cpu_atomic_ns);
      const std::uint64_t e = t->local_epoch.load(std::memory_order_seq_cst);
      if (e != kEpochQuiescent && e != this_epoch) return false;
    }
    return true;
  });
  const bool safe = scan.wait();

  bool advanced = false;
  if (safe) {
    const std::uint64_t new_epoch = nextEpoch(this_epoch);
    inst.global_->epoch.write(new_epoch);
    inst.global_->advances.fetch_add(1, std::memory_order_relaxed);
    inst.counters_.advances.fetch_add(1, std::memory_order_relaxed);
    coforallLocales([handle, new_epoch] {
      EpochManagerImpl& li = handle.local();
      // Update each locale's epoch cache, then reclaim the list that is
      // now old enough: scatter it by owner, then a nested coforall deletes
      // each bucket on its owning locale (Listing 4 lines 26-54).
      li.locale_epoch_.store(new_epoch, std::memory_order_seq_cst);
      li.scatterLimboList(reclaimIndexFor(new_epoch), li.objs_to_delete_);
      bulkDeleteScattered(li.objs_to_delete_);
      for (auto& bucket : li.objs_to_delete_) bucket.clear();
    });
    advanced = true;
  } else {
    inst.counters_.scans_unsafe.fetch_add(1, std::memory_order_relaxed);
  }

  inst.global_->is_setting_epoch.clear();
  inst.is_setting_epoch_.store(0, std::memory_order_seq_cst);
  sim::charge(lat.cpu_atomic_ns);
  return advanced;
}

std::uint64_t epochAdvance(Privatized<EpochManagerImpl> handle) {
  EpochManagerImpl& inst = handle.local();
  // Epoch values cycle 1..kNumEpochs, so "moved past entry" is detected by
  // *change*, not ordering. One successful epochTryReclaim changes the
  // value; a concurrent advancer changing it also satisfies the caller
  // (the boundary needs the epoch to have moved, not to have moved by us).
  const std::uint64_t entry = inst.global_->epoch.read();
  Backoff backoff;
  while (inst.global_->epoch.read() == entry) {
    if (epochTryReclaim(handle)) break;
    // Lost the election or the scan found a lagging pinned token; both are
    // transient under the engine's boundary protocol (all engine guards
    // are unpinned between collectives, handler guards unpin per AM).
    backoff.pause();
  }
  return inst.global_->epoch.read();
}

}  // namespace detail

// ---------------------------------------------------------------------------
// DistDomain
// ---------------------------------------------------------------------------

DistDomain DistDomain::create() {
  DistDomain d;
  GlobalEpoch* global = gnewOn<GlobalEpoch>(0);
  const std::uint32_t num_locales = Runtime::get().numLocales();
  d.global_ = global;
  d.handle_ = Privatized<EpochManagerImpl>::create([global, num_locales] {
    return gnew<EpochManagerImpl>(global, num_locales);
  });
  return d;
}

void DistDomain::destroy() {
  if (!valid()) return;
  detail::destroyInstances<Guard>(handle_);
  GlobalEpoch* global = global_;
  onLocale(0, [global] { gdelete(global); });
  global_ = nullptr;
}

ReclaimStats DistDomain::stats() const { return detail::sumStats(handle_); }

void DistDomain::resetStats() const { detail::resetStats(handle_); }

}  // namespace pgasnb
