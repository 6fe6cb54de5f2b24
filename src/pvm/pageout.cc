// Page-out policy and the data-movement upcalls to segment drivers (Table 3).
//
// The data management policy (page-in and page-out decisions) belongs to the MM
// (section 3.3.3).  We implement a second-chance sweep over resident pages, with
// the referenced bits harvested from the MMU.  During a pullIn the slot holds a
// synchronization page stub; during a pushOut the page is flagged in_transit —
// both make concurrent accesses sleep until the transfer completes (section 4.1.2).
#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>
#include <vector>

#include "src/pvm/paged_vm.h"
#include "src/util/align.h"
#include "src/util/log.h"

namespace gvm {

namespace {

// Deterministic exponential backoff before the (attempt+1)-th retry of an
// upcall.  Called with the manager lock RELEASED: sleeping under the lock would
// stall every other thread in the manager.
void RetryBackoff(uint64_t backoff_us, uint64_t attempt) {
  if (backoff_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(backoff_us << attempt));
  }
}

}  // namespace

bool PagedVm::PageIsDirty(const PageDesc& page) const {
  if (page.sw_dirty) {
    return true;
  }
  for (const MappingRef& ref : page.mappings) {
    Result<MmuEntry> entry = mmu().Lookup(ref.as, ref.va);
    if (entry.ok() && entry->dirty) {
      return true;
    }
  }
  return false;
}

bool PagedVm::FreeableWithoutIO(const PageDesc& page) const {
  if (PageIsDirty(page)) {
    return false;
  }
  PvmCache& cache = *page.cache;
  // Descendant caches may still need this page's value after eviction: any
  // page covered by a history link, carrying stubs, or sitting in a cache
  // that has children must survive on the segment, so a "clean" drop is only
  // safe when the page is reproducible (from the segment or an ancestor) ...
  if (cache.pushed_pages_.contains(PageIndex(page.offset)) ||
      (!cache.temporary_ && cache.parents_.Find(page.offset) == nullptr)) {
    return true;
  }
  // ... or is a never-written zero-fill page: a later miss re-zero-fills.
  return page.stubs.empty() && cache.histories_.Find(page.offset) == nullptr &&
         cache.temporary_ && cache.parents_.Find(page.offset) == nullptr &&
         !page.sw_dirty;
}

// ---------------------------------------------------------------------------
// Pageout queues and per-address-space working sets (DESIGN.md §15)
// ---------------------------------------------------------------------------

void PagedVm::QueueRemove(PageDesc& page) {
  switch (page.queue) {
    case PageQueue::kNone:
      return;
    case PageQueue::kModified:
      modified_queue_.erase(page.queue_pos);
      break;
    case PageQueue::kStandby:
      standby_queue_.erase(page.queue_pos);
      break;
  }
  page.queue = PageQueue::kNone;
}

void PagedVm::ReconsiderQueue(PageDesc& page) {
  QueueRemove(page);
  if (!page.mappings.empty() || page.pin_count > 0 || page.in_transit) {
    return;  // only unmapped, unpinned, settled pages are reclaim candidates
  }
  if (PageIsDirty(page)) {
    page.queue = PageQueue::kModified;
    page.queue_pos = modified_queue_.insert(modified_queue_.end(), &page);
  } else {
    page.queue = PageQueue::kStandby;
    page.queue_pos = standby_queue_.insert(standby_queue_.end(), &page);
  }
}

void PagedVm::WsNoteMapped(AsId as, PageDesc& page) {
  WorkingSet& ws = working_sets_[as];
  if (ws.index.contains(&page)) {
    return;  // already tracked: a second mapping of the same space
  }
  ws.index.emplace(&page, ws.fifo.insert(ws.fifo.end(), &page));
}

void PagedVm::WsNoteUnmapped(AsId as, PageDesc& page) {
  // The page leaves the set only when its last mapping into `as` is gone (one
  // page can be mapped at several addresses of one space).
  for (const MappingRef& ref : page.mappings) {
    if (ref.as == as) {
      return;
    }
  }
  auto ws_it = working_sets_.find(as);
  if (ws_it == working_sets_.end()) {
    return;
  }
  WorkingSet& ws = ws_it->second;
  auto it = ws.index.find(&page);
  if (it == ws.index.end()) {
    return;
  }
  ws.fifo.erase(it->second);
  ws.index.erase(it);
  // Keep an empty set alive while its thrash EWMA is still nonzero: the
  // throttle's memory of an aggressor must survive a full trim.
  if (ws.fifo.empty() && ws.refault_ewma_x1000 == 0) {
    working_sets_.erase(ws_it);
  }
}

void PagedVm::OnContextDestroyed(AsId as) {
  // Every region of the space is gone, so its working set is empty.  Drop the
  // set with its thrash EWMA (which alone keeps a drained set alive above):
  // otherwise one dead entry per address space ever created stays behind.
  auto it = working_sets_.find(as);
  if (it != working_sets_.end()) {
    assert(it->second.fifo.empty());
    working_sets_.erase(it);
  }
}

void PagedVm::TrimPageFromAs(PageDesc& page, AsId as) {
  for (size_t i = page.mappings.size(); i > 0; --i) {
    if (page.mappings[i - 1].as == as) {
      // fires WsNoteUnmapped / ReconsiderQueue; demotes a covering huge span
      UnmapMapping(page, i - 1, DemoteReason::kPageout);
    }
  }
}

size_t PagedVm::ReclaimStandbyLocked(size_t target) {
  size_t freed = 0;
  // Standby reclaim is pure bookkeeping — no upcalls, so the gather (frames
  // park until one commit fence) may span the whole harvest.
  TlbGatherScope gather(&tlb());
  while (memory().free_frames() + tlb().GatherParkedFrames() < target &&
         !standby_queue_.empty()) {
    PageDesc* page = standby_queue_.front();
    QueueRemove(*page);
    if (page->pin_count > 0 || page->in_transit || !page->mappings.empty()) {
      continue;  // stale entry: rescued or pinned since it was enqueued
    }
    if (!FreeableWithoutIO(*page)) {
      // Dirtiness (or loss of reproducibility) discovered after enqueue:
      // reroute to the modified queue for a proper push.
      page->queue = PageQueue::kModified;
      page->queue_pos = modified_queue_.insert(modified_queue_.end(), page);
      continue;
    }
    ++mutable_stats().pages_paged_out;
    ++detail_.frames_reclaimed_daemon;
    FreePage(page);
    ++freed;
  }
  return freed;
}

void PagedVm::TrimWorkingSetsLocked() {
  // Snapshot the ids first: trimming erases exhausted sets out from under a
  // direct iteration.
  std::vector<AsId> spaces;
  spaces.reserve(working_sets_.size());
  for (const auto& [as, ws] : working_sets_) {
    spaces.push_back(as);
  }
  TlbGatherScope gather(&tlb());
  for (AsId as : spaces) {
    auto it = working_sets_.find(as);
    if (it == working_sets_.end()) {
      continue;
    }
    size_t limit = options_.working_set_limit_pages;  // 0 = uncapped
    const bool thrashing =
        options_.thrash_ewma_threshold > 0 &&
        it->second.refault_ewma_x1000 > options_.thrash_ewma_threshold;
    if (thrashing) {
      // Thrasher: cut to half its current size regardless of the static cap.
      const size_t half = it->second.fifo.size() / 2;
      limit = limit == 0 ? half : std::min(limit, half);
    } else if (limit == 0) {
      continue;
    }
    while (true) {
      auto re = working_sets_.find(as);
      if (re == working_sets_.end() || re->second.fifo.size() <= limit) {
        break;
      }
      PageDesc* cold = re->second.fifo.front();
      ++detail_.ws_trims;
      TrimPageFromAs(*cold, as);
      auto chk = working_sets_.find(as);
      if (chk != working_sets_.end() && !chk->second.fifo.empty() &&
          chk->second.fifo.front() == cold) {
        break;  // no progress (stale index entry): never spin
      }
    }
  }
}

PageDesc* PagedVm::PickVictim() {
  // Second-chance sweep: two passes over all caches, rotated by a cursor so
  // successive evictions spread across the system.  The first pass clears
  // referenced bits and skips recently used pages; the second takes anything
  // evictable.
  for (int pass = 0; pass < 2; ++pass) {
    bool seen_cursor = clock_cache_ == 0;
    for (int wrap = 0; wrap < 2; ++wrap) {
      for (auto& [id, cache] : caches_) {
        if (!seen_cursor) {
          if (id == clock_cache_) {
            seen_cursor = true;
          }
          continue;
        }
        // A degraded segment cannot complete a pushOut, so spending per-page
        // work on it would only burn eviction passes on doomed upcalls: skip it
        // outright in the referenced-bit pass, and in the final pass consider
        // only its clean pages (freeable without any upcall).
        if (cache->degraded_ && pass == 0) {
          continue;
        }
        for (PageDesc& page : cache->pages_) {
          if (page.pin_count > 0 || page.in_transit) {
            continue;
          }
          if (cache->degraded_ && PageIsDirty(page)) {
            continue;
          }
          if (pass == 0) {
            bool referenced = false;
            for (const MappingRef& ref : page.mappings) {
              Result<bool> bit = mmu().TestAndClearReferenced(ref.as, ref.va);
              if (bit.ok() && *bit) {
                referenced = true;
              }
            }
            if (referenced) {
              continue;  // second chance
            }
          }
          clock_cache_ = id;
          return &page;
        }
      }
      if (clock_cache_ == 0) {
        break;  // single sweep covered everything
      }
      seen_cursor = true;  // wrap around to the beginning
    }
  }
  return nullptr;
}

bool PagedVm::BalanceFreeFrames(MutexLock& lock) {
  if (options_.low_water_frames == 0) {
    return false;
  }
  // Single-sweeper gate: under pressure every faulting thread lands here at
  // once, and concurrent sweeps would stampede the clock — each evicting pages
  // the others are about to re-fault on, multiplying I/O for zero extra free
  // frames.  One thread sweeps; the rest sleep on its pass completing.
  if (sweeping_ && active_reclaimer_ != std::this_thread::get_id()) {
    ++detail_.sweep_waits;
    const uint64_t epoch = reclaim_epoch_;
    while (sweeping_ && reclaim_epoch_ == epoch) {
      sleepers_.Wait(kFrameWaitKey, mu_);
    }
    return true;  // the wait dropped the lock
  }
  const bool owned_gate = !sweeping_;
  if (owned_gate) {
    sweeping_ = true;
    active_reclaimer_ = std::this_thread::get_id();
    ++detail_.sweeps_started;
  }
  bool dropped = false;
  int safety = 0;
  while (true) {
    // Runs of clean drops batch into one gathered shootdown; their frames park
    // on the gather, so the target check counts free + parked.  The scope must
    // *close* (not merely flush) before PushOutPageLocked: a gather may never
    // span a manager-lock drop, or another thread entering the manager would
    // have its own shootdowns silently deferred onto ours.
    PageDesc* push_victim = nullptr;
    {
      TlbGatherScope gather(&tlb());
      while (memory().free_frames() + tlb().GatherParkedFrames() <
             options_.high_water_frames) {
        if (++safety > static_cast<int>(memory().frame_count()) * 4) {
          break;
        }
        PageDesc* victim = PickVictim();
        if (victim == nullptr) {
          break;  // everything is pinned or in transit
        }
        // Unmap before classifying: UnmapCollect folds the hardware dirty bit
        // into sw_dirty atomically with the translation's death.  Deciding
        // clean-vs-dirty while the page is still mapped would race a write
        // landing on a PTE the drop is about to destroy — the page would be
        // clean-dropped with acknowledged data only in its frame.
        UnmapAllMappings(*victim, DemoteReason::kPageout);
        if (FreeableWithoutIO(*victim)) {
          ++mutable_stats().pages_paged_out;
          FreePage(victim);
          continue;
        }
        push_victim = victim;  // must be written out; commit the gather first
        break;
      }
    }
    if (push_victim == nullptr) {
      break;  // target met, nothing evictable, or safety cap hit
    }
    // Must be written to the cache's own segment.
    Status s = PushOutPageLocked(lock, *push_victim->cache, *push_victim, /*free_after=*/true);
    dropped = true;  // PushOutPageLocked always releases the lock around the upcall
    if (s != Status::kOk) {
      GVM_LOG(Debug) << "pushOut failed during page-out: " << StatusName(s);
      break;
    }
    ++mutable_stats().pages_paged_out;
  }
  if (owned_gate) {
    // Pass complete (successful or not): bump the epoch and release every
    // thread parked on the gate, so each retries its allocation exactly once
    // per pass rather than sleeping forever on a failed sweep.
    sweeping_ = false;
    active_reclaimer_ = std::thread::id();
    ++reclaim_epoch_;
    sleepers_.WakeAll(kFrameWaitKey, mu_);
  }
  return dropped;
}

Status PagedVm::EnsureDriver(MutexLock& lock, PvmCache& cache) {
  if (cache.driver_ != nullptr) {
    return Status::kOk;
  }
  if (registry() == nullptr) {
    return Status::kNoSwap;  // nowhere to page this cache out to
  }
  if (cache.driver_requested_) {
    // Another thread is in the segmentCreate upcall; let the caller retry.
    return Status::kRetry;
  }
  cache.driver_requested_ = true;
  SegmentRegistry* reg = registry();
  CacheUpcallPin pin(*this, lock, cache);
  lock.unlock();
  // "With the segmentCreate upcall, the MM may declare such a cache to the upper
  // layer, so that it can be swapped out."
  SegmentDriver* driver = reg->SegmentCreate(cache);
  lock.lock();
  cache.driver_requested_ = false;
  if (driver == nullptr) {
    return Status::kNoSwap;
  }
  cache.driver_ = driver;
  return Status::kOk;
}

Status PagedVm::PushOutPageLocked(MutexLock& lock, PvmCache& cache,
                                  PageDesc& page, bool free_after) {
  if (page.pin_count > 0) {
    return Status::kLocked;
  }
  CacheUpcallPin pin(*this, lock, cache);
  QueueRemove(page);  // leaving the settled states; requeued on completion
  if (cache.driver_ == nullptr) {
    Status s = EnsureDriver(lock, cache);
    if (s == Status::kRetry) {
      return Status::kOk;  // caller rescans; the concurrent upcall will finish
    }
    if (s != Status::kOk) {
      return s;
    }
    // The lock was dropped: `page` may have been freed or changed.  The caller
    // re-derives its scan state anyway; re-find the page to be safe.
    PageDesc* again = FindOwned(cache, page.offset);
    if (again != &page) {
      return Status::kOk;
    }
  }
  const SegOffset offset = page.offset;
  page.in_transit = true;
  // Unmap now: user writes racing the push would be silently lost otherwise.
  // NOTE: this destroys the MMU dirty bits — from here on the page's dirtiness
  // lives only in sw_dirty, so every failure path below must re-assert it.
  UnmapAllMappings(page, DemoteReason::kPageout);
  ++mutable_stats().push_outs;
  SegmentDriver* driver = cache.driver_;
  Status pushed = Status::kOk;
  PageDesc* again = nullptr;
  for (uint64_t attempt = 0;; ++attempt) {
    lock.unlock();
    if (attempt > 0) {
      RetryBackoff(options_.retry_backoff_us, attempt - 1);
    }
    pushed = driver->PushOut(cache, offset, page_size());
    lock.lock();
    // Re-derive: the driver ran arbitrary code (it normally calls CopyBack).
    again = FindOwned(cache, offset);
    if (again == nullptr) {
      // The driver used MoveBack (copyBack with removal); nothing left to do.
      sleepers_.WakeAll(StubKey(cache, offset), mu_);
      return pushed;
    }
    if (pushed != Status::kBusError || attempt >= options_.io_retry_limit) {
      break;
    }
    // Transient I/O error: the page is still ours, try again.
    again->in_transit = true;
    ++detail_.io_retries;
  }
  again->in_transit = false;
  bool freed = false;
  if (pushed == Status::kOk) {
    cache.pushed_pages_.insert(PageIndex(offset));
    again->sw_dirty = false;
    // A successful write to the segment is proof of recovery.
    if (cache.pushout_failures_ > 0 || cache.degraded_) {
      // This push carried data that an earlier attempt failed to save (a
      // requeued page re-issued after the mapper came back).
      ++detail_.requests_reissued;
    }
    cache.pushout_failures_ = 0;
    cache.degraded_ = false;
    if (free_after && again->pin_count == 0) {
      FreePage(again);
      freed = true;
    }
  } else {
    if (pushed == Status::kBusError) {
      ++detail_.io_permanent_failures;
    }
    if (pushed == Status::kPortDead) {
      // The mapper actor died mid-request.  Unlike a transient I/O error it
      // will fail every subsequent push until somebody recovers it, so degrade
      // immediately instead of burning the failure budget on a dead port.
      ++detail_.mapper_crashes_observed;
      cache.pushout_failures_ = options_.degrade_after_failures;
    }
    // Requeue, never drop: re-assert sw_dirty (the MMU bits died with the unmap
    // above, so without this a page whose dirtiness lived only in hardware bits
    // would look clean and could be clean-dropped — silent data loss).  The page
    // stays resident and a later sweep or Sync() retries the push.
    again->sw_dirty = true;
    ++detail_.pushout_requeues;
    if (++cache.pushout_failures_ >= options_.degrade_after_failures && !cache.degraded_) {
      cache.degraded_ = true;
      ++detail_.degraded_segments;
      GVM_LOG(Debug) << "cache " << cache.name() << " degraded after "
                     << cache.pushout_failures_ << " consecutive pushOut failures";
    }
  }
  if (!freed) {
    // A pushed-and-kept page is a standby candidate; a failed push goes back
    // on the modified queue (sw_dirty was re-asserted above).
    ReconsiderQueue(*again);
  }
  sleepers_.WakeAll(StubKey(cache, offset), mu_);
  return pushed;
}

Status PagedVm::PullInLocked(MutexLock& lock, PvmCache& cache,
                             SegOffset page_offset, Access access) {
  assert(IsAligned(page_offset, page_size()));
  CacheUpcallPin pin(*this, lock, cache);
  MapEntry* existing = FindEntry(cache, page_offset);
  if (existing != nullptr) {
    // Someone beat us to it (or a stub is already in place): just wait it out.
    if (existing->kind == MapEntry::Kind::kSyncStub ||
        (existing->kind == MapEntry::Kind::kFrame && existing->page->in_transit)) {
      ++detail_.sync_stub_waits;
      sleepers_.Wait(StubKey(cache, page_offset), mu_);
    }
    return Status::kOk;
  }
  SegmentDriver* driver = cache.driver_;
  if (driver == nullptr) {
    return Status::kBusError;  // pushed_pages_ implies a driver; corrupted state
  }
  // "Before calling pullIn, the PVM places a synchronization page stub in the
  // global map for that page."
  MapInsert(cache, PageIndex(page_offset),
            MapEntry{.kind = MapEntry::Kind::kSyncStub, .page = nullptr, .cow = nullptr});
  ++mutable_stats().pull_ins;
  Status pulled = Status::kOk;
  for (uint64_t attempt = 0;; ++attempt) {
    lock.unlock();
    if (attempt > 0) {
      RetryBackoff(options_.retry_backoff_us, attempt - 1);
    }
    pulled = driver->PullIn(cache, page_offset, page_size(), access);
    lock.lock();
    if (pulled == Status::kOk) {
      break;
    }
    // The stub keeps the slot stable across attempts; concurrent accesses stay
    // asleep.  If the slot is no longer a stub the data arrived anyway (a racing
    // FillUp, or the driver filled before erroring): treat as recovered.
    MapEntry* entry = FindEntry(cache, page_offset);
    if (entry == nullptr || entry->kind != MapEntry::Kind::kSyncStub) {
      pulled = Status::kOk;
      break;
    }
    if (pulled != Status::kBusError || attempt >= options_.io_retry_limit) {
      break;
    }
    ++detail_.io_retries;
  }
  if (pulled != Status::kOk) {
    if (pulled == Status::kBusError) {
      ++detail_.io_permanent_failures;
    }
    if (pulled == Status::kPortDead) {
      // The mapper died under us.  Pulls carry no dirty data, so nothing is
      // lost and nothing needs requeueing — count the crash and fail the
      // faulting access fast; a re-fault after recovery will succeed.
      ++detail_.mapper_crashes_observed;
    }
    // Failed for good: remove the stub (if the driver did not fill after all) and
    // wake every sleeper so each re-derives state and observes a clean error
    // instead of hanging on a stub nobody will resolve.
    MapEntry* entry = FindEntry(cache, page_offset);
    if (entry != nullptr && entry->kind == MapEntry::Kind::kSyncStub) {
      MapErase(cache, PageIndex(page_offset));
    }
    sleepers_.WakeAll(StubKey(cache, page_offset), mu_);
    return pulled == Status::kPortDead ? Status::kPortDead : Status::kBusError;
  }
  // Synchronous drivers have already called FillUp (replacing the stub).  An
  // asynchronous driver fills later from another thread: sleep until it does.
  for (int rounds = 0; rounds < 1 << 20; ++rounds) {
    MapEntry* entry = FindEntry(cache, page_offset);
    if (entry == nullptr || entry->kind != MapEntry::Kind::kSyncStub) {
      return Status::kOk;
    }
    ++detail_.sync_stub_waits;
    sleepers_.Wait(StubKey(cache, page_offset), mu_);
  }
  return Status::kBusError;
}

Status PagedVm::PushOutRunLocked(MutexLock& lock, PvmCache& cache, SegOffset start,
                                 size_t pages) {
  assert(pages >= 1);
  CacheUpcallPin pin(*this, lock, cache);
  SegmentDriver* driver = cache.driver_;
  assert(driver != nullptr && "batch push requires a resolved driver");
  const size_t page_bytes = page_size();
  // Mark the whole run in transit before the lock drops: concurrent faults on
  // any page of the batch sleep on its stub key, and sweeps skip it.
  for (size_t i = 0; i < pages; ++i) {
    PageDesc* page = FindOwned(cache, start + i * page_bytes);
    assert(page != nullptr && "batch pages validated resident by the caller");
    QueueRemove(*page);
    page->in_transit = true;
    // NOTE: destroys the MMU dirty bits — failure paths below re-assert sw_dirty.
    UnmapAllMappings(*page, DemoteReason::kPageout);
  }
  mutable_stats().push_outs += pages;
  ++detail_.batch_pushes;
  detail_.batch_push_pages += pages;
  Status pushed = Status::kOk;
  for (uint64_t attempt = 0;; ++attempt) {
    lock.unlock();
    if (attempt > 0) {
      RetryBackoff(options_.retry_backoff_us, attempt - 1);
    }
    // ONE upcall for the whole run: the driver CopyBacks the span and issues a
    // single MapperWrite, which the journaling mapper commits as one record —
    // so the batch reaches the segment all-or-nothing.
    pushed = driver->PushOut(cache, start, pages * page_bytes);
    lock.lock();
    if (pushed != Status::kBusError || attempt >= options_.io_retry_limit) {
      break;
    }
    // Transient I/O error: re-assert in_transit on the survivors and retry.
    bool any_left = false;
    for (size_t i = 0; i < pages; ++i) {
      PageDesc* again = FindOwned(cache, start + i * page_bytes);
      if (again != nullptr) {
        again->in_transit = true;
        any_left = true;
      }
    }
    ++detail_.io_retries;
    if (!any_left) {
      break;  // the driver MoveBack'd every page; nothing to retry for
    }
  }
  // Per-page settlement, mirroring PushOutPageLocked.  Pages the driver took
  // via MoveBack are simply gone; the rest land on standby (pushed: the frame
  // is now reclaimable without I/O) or back on modified (failed: sw_dirty
  // re-asserted because the hardware dirty bits died with the unmap above).
  for (size_t i = 0; i < pages; ++i) {
    const SegOffset offset = start + i * page_bytes;
    PageDesc* again = FindOwned(cache, offset);
    if (again != nullptr) {
      again->in_transit = false;
      if (pushed == Status::kOk) {
        cache.pushed_pages_.insert(PageIndex(offset));
        again->sw_dirty = false;
      } else {
        again->sw_dirty = true;
        ++detail_.pushout_requeues;
      }
      ReconsiderQueue(*again);
    }
    sleepers_.WakeAll(StubKey(cache, offset), mu_);
  }
  if (pushed == Status::kOk) {
    if (cache.pushout_failures_ > 0 || cache.degraded_) {
      ++detail_.requests_reissued;
    }
    cache.pushout_failures_ = 0;
    cache.degraded_ = false;
  } else {
    if (pushed == Status::kBusError) {
      ++detail_.io_permanent_failures;
    }
    if (pushed == Status::kPortDead) {
      ++detail_.mapper_crashes_observed;
      cache.pushout_failures_ = options_.degrade_after_failures;
    }
    if (++cache.pushout_failures_ >= options_.degrade_after_failures && !cache.degraded_) {
      cache.degraded_ = true;
      ++detail_.degraded_segments;
      GVM_LOG(Debug) << "cache " << cache.name()
                     << " degraded after a failed batch pushOut";
    }
  }
  return pushed;
}

// ---------------------------------------------------------------------------
// The paging daemon (DESIGN.md §15)
// ---------------------------------------------------------------------------

bool PagedVm::DaemonReclaimPass(MutexLock& lock) {
  if (sweeping_ && active_reclaimer_ != std::this_thread::get_id()) {
    return false;  // a faulting thread is mid-sweep; it is doing the work
  }
  const bool owned_gate = !sweeping_;
  if (owned_gate) {
    sweeping_ = true;
    active_reclaimer_ = std::this_thread::get_id();
    ++detail_.sweeps_started;
  }
  ++detail_.daemon_passes;
  bool dropped = false;
  const size_t target = std::max<size_t>(options_.high_water_frames, 1);
  // Phase 1: harvest already-clean standby pages — zero I/O.
  ReclaimStandbyLocked(target);
  // Phase 2: demote over-limit and thrashing working sets (unmap only; the
  // unmap hooks feed the queues the next phases drain).
  TrimWorkingSetsLocked();
  // Phase 3: batched pushes off the modified queue.  The scan budget bounds
  // one pass's work: requeued failures and degraded segments must not spin it.
  FaultInjector* injector = memory().fault_injector();
  size_t scan_budget = modified_queue_.size();
  while (memory().free_frames() < target && !modified_queue_.empty() &&
         scan_budget-- > 0) {
    if (injector != nullptr &&
        injector->Check(FaultSite::kPageoutStall) != Status::kOk) {
      // Injected stall: skip this batch; the pages stay on the modified queue.
      ++detail_.pageout_stalls;
      break;
    }
    PageDesc* head = modified_queue_.front();
    QueueRemove(*head);
    if (head->pin_count > 0 || head->in_transit || !head->mappings.empty()) {
      continue;  // stale entry: rescued or pinned since it was enqueued
    }
    PvmCache& cache = *head->cache;
    if (FreeableWithoutIO(*head)) {
      ++mutable_stats().pages_paged_out;
      ++detail_.frames_reclaimed_daemon;
      FreePage(head);
      continue;
    }
    if (cache.degraded_) {
      // A dead mapper fails every push: park the page at the tail and move on;
      // recovery's Sync() re-drives the cache.
      head->queue = PageQueue::kModified;
      head->queue_pos = modified_queue_.insert(modified_queue_.end(), head);
      continue;
    }
    if (cache.driver_ == nullptr) {
      // No driver yet: the single-page path owns the segmentCreate dance.
      (void)PushOutPageLocked(lock, cache, *head, /*free_after=*/false);
      dropped = true;
      continue;
    }
    // Grow a contiguous same-cache run rightward from the head, so one upcall
    // (one IPC chunk, one WAL commit record) carries the whole cluster.
    size_t run = 1;
    const size_t max_run = std::max<size_t>(options_.pushout_batch_pages, 1);
    while (run < max_run) {
      PageDesc* next = FindOwned(cache, head->offset + run * page_size());
      if (next == nullptr || next->queue != PageQueue::kModified ||
          next->pin_count > 0 || next->in_transit || !next->mappings.empty()) {
        break;
      }
      QueueRemove(*next);
      ++run;
    }
    Status s = PushOutRunLocked(lock, cache, head->offset, run);
    dropped = true;  // PushOutRunLocked always releases the lock around the upcall
    if (s != Status::kOk) {
      break;  // the failure path requeued the pages; try again next pass
    }
  }
  // Phase 4: the pushes stocked the standby queue; harvest it.
  ReclaimStandbyLocked(target);
  // Phase 5: still below low water — fall back to the clock sweep, which also
  // reaches mapped pages the queues never see.
  if (memory().free_frames() < options_.low_water_frames) {
    if (BalanceFreeFrames(lock)) {
      dropped = true;
    }
  }
  if (owned_gate) {
    sweeping_ = false;
    active_reclaimer_ = std::thread::id();
    ++reclaim_epoch_;
    sleepers_.WakeAll(kFrameWaitKey, mu_);
  }
  return dropped;
}

void PagedVm::DaemonMain() {
  while (true) {
    {
      MutexLock latch(daemon_mu_);
      while (!daemon_kicked_ && !daemon_stop_) {
        daemon_cv_.Wait(daemon_mu_);
      }
      if (daemon_stop_) {
        return;
      }
      daemon_kicked_ = false;
    }
    MutexLock lock(mu_);
    ++detail_.daemon_wakeups;
    (void)DaemonReclaimPass(lock);
  }
}

void PagedVm::StartPageoutDaemon() {
  if (daemon_active_.load(std::memory_order_acquire)) {
    return;
  }
  daemon_kicker_.vm = this;
  {
    MutexLock latch(daemon_mu_);
    daemon_kicked_ = false;
    daemon_stop_ = false;
  }
  daemon_active_.store(true, std::memory_order_release);
  daemon_ = std::thread([this] { DaemonMain(); });
  memory().SetLowMemoryHook(&daemon_kicker_, options_.daemon_wake_frames);
}

void PagedVm::StopPageoutDaemon() {
  if (!daemon_active_.exchange(false, std::memory_order_acq_rel)) {
    return;
  }
  memory().SetLowMemoryHook(nullptr, 0);
  {
    MutexLock latch(daemon_mu_);
    daemon_stop_ = true;
    daemon_cv_.NotifyAll();
  }
  if (daemon_.joinable()) {
    daemon_.join();
  }
  // A thrash-throttled faulter may still be parked on the frame-wait key
  // expecting the daemon to wake it; with the daemon gone, nobody else will.
  // One wake suffices: a throttled thread returns to its faulting CPU after a
  // single wait, and re-faults without throttling once daemon_active_ is off.
  MutexLock lock(mu_);
  sleepers_.WakeAll(kFrameWaitKey, mu_);
}

void PagedVm::KickPageoutDaemon() {
  if (!daemon_active_.load(std::memory_order_acquire)) {
    return;
  }
  MutexLock latch(daemon_mu_);
  daemon_kicked_ = true;
  daemon_cv_.NotifyOne();
}

void PagedVm::RunPageoutPassForTest() {
  MutexLock lock(mu_);
  (void)DaemonReclaimPass(lock);
}

size_t PagedVm::ModifiedQueueLength() const {
  MutexLock lock(mu_);
  return modified_queue_.size();
}

size_t PagedVm::StandbyQueueLength() const {
  MutexLock lock(mu_);
  return standby_queue_.size();
}

size_t PagedVm::WorkingSetPages(AsId as) const {
  MutexLock lock(mu_);
  auto it = working_sets_.find(as);
  return it == working_sets_.end() ? 0 : it->second.fifo.size();
}

size_t PagedVm::WorkingSetCount() const {
  MutexLock lock(mu_);
  return working_sets_.size();
}

void PagedVm::NoteMapperRecovery(uint64_t records_replayed, uint64_t records_discarded) {
  MutexLock lock(mu_);
  ++detail_.recoveries_completed;
  detail_.journal_replays += records_replayed;
  detail_.journal_records_discarded += records_discarded;
}

}  // namespace gvm
