// PagedVm core: construction, cache creation, page materialization, the global-map
// miss walk (section 4.2.1) and the page-fault algorithms (sections 4.1.2, 4.2.2,
// 4.2.3, 4.3).
#include "src/pvm/paged_vm.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <thread>

#include "src/util/align.h"
#include "src/util/log.h"

namespace gvm {

namespace {

// Resolves the kAutoReserve sentinel: no reserve without a reclaimer entitled
// to it — the reserve only exists to break the pageout-needs-memory deadlock,
// so it is sized iff the daemon runs.
PagedVm::Options ResolvePressureOptions(PagedVm::Options options,
                                        const PhysicalMemory& memory) {
  if (options.emergency_reserve_frames == PagedVm::Options::kAutoReserve) {
    options.emergency_reserve_frames =
        options.pageout_daemon ? std::max<size_t>(2, memory.frame_count() / 64) : 0;
  }
  return options;
}

}  // namespace

PagedVm::PagedVm(PhysicalMemory& memory, Mmu& mmu, Options options)
    : BaseMm(memory, mmu, options.enable_tlb, options.shootdown_fence),
      options_(ResolvePressureOptions(options, memory)) {
  daemon_kicker_.vm = this;
  if (options_.emergency_reserve_frames > 0) {
    memory.SetEmergencyReserve(options_.emergency_reserve_frames);
  }
  if (options_.pageout_daemon) {
    StartPageoutDaemon();
  }
}

PagedVm::~PagedVm() {
  // Quiesce the daemon before any state it walks is dismantled.
  StopPageoutDaemon();
  // Tear down all caches without push-outs: the simulation is ending.
  for (auto& [id, cache] : caches_) {
    ReleasePages(*cache);
  }
  caches_.clear();
}

Result<Cache*> PagedVm::CacheCreate(SegmentDriver* driver, std::string name) {
  MutexLock lock(mu_);
  Result<PvmCache*> cache =
      CreateCacheLocked(driver, std::move(name), /*temporary=*/driver == nullptr);
  if (!cache.ok()) {
    return cache.status();
  }
  return static_cast<Cache*>(*cache);
}

Result<PvmCache*> PagedVm::CreateCacheLocked(SegmentDriver* driver, std::string name,
                                             bool temporary) {
  CacheId id = next_cache_id_++;
  auto cache = std::make_unique<PvmCache>(*this, id, std::move(name), driver, temporary);
  PvmCache* raw = cache.get();
  caches_.emplace(id, std::move(cache));
  return raw;
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

uint64_t PagedVm::StubKey(const PvmCache& cache, SegOffset offset) const {
  // Collisions only cause spurious wakeups; waiters always re-check state.
  return cache.id() * 0x9e3779b97f4a7c15ull ^ (offset / page_size());
}

MapEntry* PagedVm::FindEntry(PvmCache& cache, SegOffset page_offset) {
  return map_.Find(cache.id(), PageIndex(page_offset));
}

PageDesc* PagedVm::FindOwned(PvmCache& cache, SegOffset page_offset) {
  MapEntry* entry = FindEntry(cache, page_offset);
  if (entry == nullptr || entry->kind != MapEntry::Kind::kFrame) {
    return nullptr;
  }
  return entry->page;
}

Result<FrameIndex> PagedVm::AllocateFrame(MutexLock& lock,
                                          bool* dropped_lock) {
  // The reclaim path draws from the emergency reserve, so page-out can never
  // deadlock on needing a frame to free frames.
  const PhysicalMemory::AllocClass cls = AllocClassForThisThread();
  bool force_slow = false;
  if (FaultInjector* injector = memory().fault_injector()) {
    if (injector->Check(FaultSite::kLowMemory) != Status::kOk) {
      // Injected pressure: skip the fast path once, forcing this allocation
      // through the full reclaim machinery even when frames are plentiful.
      force_slow = true;
      ++detail_.low_memory_faults;
    }
  }
  if (!force_slow) {
    Result<FrameIndex> frame = memory().AllocateFrame(cls);
    if (frame.ok()) {
      // Keep the pool topped up in the background of this allocation, so that bursts
      // of materialization do not hit the empty-pool path on every page.
      if (options_.low_water_frames > 0 &&
          memory().free_frames() < options_.low_water_frames) {
        if (daemon_active_.load(std::memory_order_acquire)) {
          // A background reclaimer exists: wake it instead of paying for the
          // sweep on the fault path.
          KickPageoutDaemon();
        } else if (BalanceFreeFrames(lock)) {
          *dropped_lock = true;
        }
      }
      return frame;
    }
  }
  if (options_.low_water_frames == 0) {
    // Pager disabled: hard OOM is the configured contract.
    return force_slow ? Result<FrameIndex>(Status::kNoMemory)
                      : memory().AllocateFrame(cls);
  }
  // Bounded eviction-pressure loop: a dry pool is often transient (every frame
  // momentarily pinned or in transit, or a flaky allocation fault).  Each round
  // either runs a reclaim pass or — when another thread is already sweeping —
  // sleeps on its completion, so kNoMemory surfaces only after reclaim has
  // *demonstrably* failed to produce a frame this many times.
  for (uint64_t failed_rounds = 0;;) {
    if (daemon_active_.load(std::memory_order_acquire)) {
      KickPageoutDaemon();
    }
    if (BalanceFreeFrames(lock)) {
      *dropped_lock = true;
    }
    Result<FrameIndex> frame = memory().AllocateFrame(cls);
    if (frame.ok()) {
      return frame;
    }
    if (++failed_rounds > options_.alloc_retry_limit) {
      return frame;
    }
    ++detail_.alloc_pressure_retries;
    // Still dry after a pager round: typically every eviction candidate is
    // pinned or in transit behind another thread's pushOut.  Yield the lock so
    // that thread can complete and free its frame — retrying without yielding
    // exhausts the budget while starving the only thread that could refill the
    // pool (guaranteed on a single-core host).
    lock.unlock();
    std::this_thread::yield();
    lock.lock();
    *dropped_lock = true;
  }
}

Result<PageDesc*> PagedVm::MaterializePage(MutexLock& lock, PvmCache& cache,
                                           SegOffset page_offset, FrameIndex source,
                                           bool dirty, Prot max_prot) {
  assert(IsAligned(page_offset, page_size()));
  CacheUpcallPin pin(*this, lock, cache);  // the allocation may drop the lock
  bool dropped = false;
  Result<FrameIndex> frame = AllocateFrame(lock, &dropped);
  if (!frame.ok()) {
    return frame.status();
  }
  if (dropped && FindEntry(cache, page_offset) != nullptr) {
    // Someone else installed an entry while we were evicting; let the caller
    // re-derive what to do.
    memory().FreeFrame(*frame);
    return Status::kRetry;
  }
  if (source != kInvalidFrame) {
    memory().CopyFrame(*frame, source);
  } else {
    memory().ZeroFrame(*frame);
  }
  cache.pages_.emplace_back();
  auto it = std::prev(cache.pages_.end());
  PageDesc& page = *it;
  page.cache = &cache;
  page.offset = page_offset;
  page.frame = *frame;
  page.max_prot = max_prot;
  page.sw_dirty = dirty;
  page.self = it;
  MapInsert(cache, PageIndex(page_offset),
            MapEntry{.kind = MapEntry::Kind::kFrame, .page = &page, .cow = nullptr});
  AdoptInboundStubs(cache, page);
  if (dropped) {
    // The state the caller derived before calling us is stale.
    return Status::kRetry;
  }
  return &page;
}

Status PagedVm::MaterializeStubsOf(MutexLock& lock, PvmCache& cache,
                                   SegOffset page_offset) {
  const uint64_t index = PageIndex(page_offset);
  for (int rounds = 0; rounds < 4096; ++rounds) {
    // Threaded form: stubs hanging off an owned resident page.
    if (PageDesc* owned = FindOwned(cache, page_offset)) {
      if (owned->stubs.empty()) {
        return Status::kOk;
      }
      bool dropped = false;
      Status s = DetachStubs(lock, *owned, &dropped);
      if (s == Status::kRetry) {
        continue;
      }
      return s;
    }
    // Non-resident form: stubs registered in the inbound table.
    auto it = cache.inbound_stubs_.find(index);
    if (it == cache.inbound_stubs_.end() || it->second.empty()) {
      return Status::kOk;
    }
    // Resolve the current value.  If this materializes a page in `cache` itself
    // (zero fill at the walk's end), the inbound stubs get threaded onto it and
    // the threaded branch above finishes the job next round.
    bool dropped = false;
    Result<PageDesc*> value = ResolveValue(lock, cache, page_offset, &dropped);
    if (!value.ok()) {
      return value.status();
    }
    if (dropped) {
      continue;
    }
    it = cache.inbound_stubs_.find(index);
    if (it == cache.inbound_stubs_.end() || it->second.empty()) {
      continue;  // resolution already re-threaded them
    }
    // Give the stubs one shared private copy, owned by the first stub's cache
    // (mirrors DetachStubs for the non-resident form).
    CowStub* first = it->second.front();
    PvmCache& dst = *first->cache;
    const SegOffset dst_off = first->offset;
    PagePin value_pin(**value);
    Result<FrameIndex> frame = AllocateFrame(lock, &dropped);
    if (!frame.ok()) {
      return frame.status();
    }
    if (dropped) {
      memory().FreeFrame(*frame);
      continue;
    }
    memory().CopyFrame(*frame, (*value)->frame);
    MapEntry* entry = map_.Find(dst.id(), PageIndex(dst_off));
    assert(entry != nullptr && entry->kind == MapEntry::Kind::kCowStub &&
           entry->cow.get() == first);
    dst.pages_.emplace_back();
    auto page_it = std::prev(dst.pages_.end());
    PageDesc& fresh = *page_it;
    fresh.cache = &dst;
    fresh.offset = dst_off;
    fresh.frame = *frame;
    fresh.max_prot = Prot::kAll;
    fresh.sw_dirty = true;
    fresh.self = page_it;
    for (size_t i = 1; i < it->second.size(); ++i) {
      CowStub* stub = it->second[i];
      stub->src_page = &fresh;
      fresh.stubs.push_back(stub);
    }
    cache.inbound_stubs_.erase(it);
    MapSetFrame(dst, *entry, fresh);
    AdoptInboundStubs(dst, fresh);
    ++detail_.stub_resolutions;
    ++mutable_stats().cow_copies;
    sleepers_.WakeAll(StubKey(dst, dst_off), mu_);
    return Status::kOk;
  }
  return Status::kBusError;
}

void PagedVm::ThreadStub(CowStub* stub) {
  if (stub->src_page != nullptr) {
    stub->src_page->stubs.push_back(stub);
  } else {
    stub->src_cache->inbound_stubs_[PageIndex(stub->src_offset)].push_back(stub);
  }
}

void PagedVm::UnlinkStub(CowStub* stub) {
  if (stub->src_page != nullptr) {
    auto& list = stub->src_page->stubs;
    for (size_t i = 0; i < list.size(); ++i) {
      if (list[i] == stub) {
        list[i] = list.back();
        list.pop_back();
        return;
      }
    }
    return;
  }
  auto it = stub->src_cache->inbound_stubs_.find(PageIndex(stub->src_offset));
  if (it == stub->src_cache->inbound_stubs_.end()) {
    return;
  }
  auto& list = it->second;
  for (size_t i = 0; i < list.size(); ++i) {
    if (list[i] == stub) {
      list[i] = list.back();
      list.pop_back();
      break;
    }
  }
  if (list.empty()) {
    stub->src_cache->inbound_stubs_.erase(it);
  }
}

void PagedVm::AdoptInboundStubs(PvmCache& cache, PageDesc& page) {
  auto it = cache.inbound_stubs_.find(PageIndex(page.offset));
  if (it == cache.inbound_stubs_.end()) {
    return;
  }
  for (CowStub* stub : it->second) {
    stub->src_page = &page;
    page.stubs.push_back(stub);
  }
  cache.inbound_stubs_.erase(it);
}

void PagedVm::FreePage(PageDesc* page) {
  UnmapAllMappings(*page);
  // After the unmap hooks, which may have just enqueued the page: it is about
  // to die, so it must leave the pageout queues for good.
  QueueRemove(*page);
  // Per-page stubs that pointed at this page switch to the non-resident form:
  // "a pointer to the source local-cache descriptor and its offset" (section 4.3).
  // They are kept in the cache's inbound table so a re-pull re-threads them.
  if (!page->stubs.empty()) {
    auto& inbound = page->cache->inbound_stubs_[PageIndex(page->offset)];
    for (CowStub* stub : page->stubs) {
      stub->src_page = nullptr;
      stub->src_cache = page->cache;
      stub->src_offset = page->offset;
      inbound.push_back(stub);
    }
    page->stubs.clear();
  }
  PvmCache& cache = *page->cache;
  MapErase(cache, PageIndex(page->offset));
  // Inside a gather scope the unmaps above have published but not yet fenced,
  // so a reader may still be using a cached translation to this frame: park it
  // on the gather and recycle it only after commit.  Outside a gather this is
  // an immediate free (the unmaps already fenced).
  tlb().FreeFrameAfterFlush(memory(), page->frame);
  cache.pages_.erase(page->self);  // destroys *page
}

// ---------------------------------------------------------------------------
// Transparent huge pages (DESIGN.md §16)
// ---------------------------------------------------------------------------

void PagedVm::DemoteIfHuge(AsId as, Vaddr va, DemoteReason reason) {
  if (huge_spans_.empty()) {
    return;
  }
  const size_t huge_bytes = mmu().huge_page_size();
  if (huge_bytes <= page_size()) {
    return;
  }
  const Vaddr hva = AlignDown(va, huge_bytes);
  auto it = huge_spans_.find({as, hva});
  if (it == huge_spans_.end()) {
    return;
  }
  huge_spans_.erase(it);
  // Break-before-make at the wide granule: the shootdown of the span's cached
  // translation is published (and, outside an enclosing gather, fenced) before
  // this function returns, so the caller's base-granular mutations can never
  // race a CPU still holding the wide entry.
  TlbGatherScope gather(&tlb());
  if (mmu().DemoteHuge(as, hva) != Status::kOk) {
    return;  // stale record: an inner auto-split already dismantled the span
  }
  ++detail_.demotions;
  if (reason == DemoteReason::kCow) {
    ++detail_.demote_cow;
  } else if (reason == DemoteReason::kPageout) {
    ++detail_.demote_pageout;
  }
}

void PagedVm::MaybePromote(const PageFault& fault, Vaddr page_va) {
  const size_t huge_bytes = mmu().huge_page_size();
  const size_t page_bytes = page_size();
  if (!options_.transparent_huge || huge_bytes <= page_bytes) {
    return;
  }
  const size_t ratio = huge_bytes / page_bytes;
  const Vaddr hva = AlignDown(page_va, huge_bytes);
  const AsId as = fault.address_space;
  if (huge_spans_.contains({as, hva})) {
    return;  // already wide
  }
  RegionImpl* r = RelookupRegion(fault);
  if (r == nullptr || hva < r->start() || hva + huge_bytes > r->end()) {
    return;  // the span must lie inside one region (one protection, one cache)
  }
  auto rm_it = region_maps_.find(r);
  if (rm_it == region_maps_.end()) {
    return;
  }
  auto& rmap = rm_it->second;
  // Validate every base page of the span; short-circuit on the first miss so
  // a sparse region costs O(1) per fault, not O(ratio).  Each page must be the
  // span's sole owner-view: resident, settled, unpinned, stub-free, mapped
  // exactly once (here), and carrying the same effective protection — a wide
  // PTE has one protection and one dirty bit for the whole span.
  std::vector<PageDesc*> span;
  span.reserve(ratio);
  Prot prot = Prot::kNone;
  for (size_t i = 0; i < ratio; ++i) {
    const Vaddr va = hva + i * page_bytes;
    auto it = rmap.find(va);
    if (it == rmap.end()) {
      return;
    }
    PageDesc* page = it->second;
    if (page->in_transit || page->pin_count > 0 || !page->stubs.empty() ||
        page->mappings.size() != 1) {
      return;
    }
    const MappingRef& ref = page->mappings[0];
    if (ref.as != as || ref.va != va || ref.region != r ||
        ref.via_cache != page->cache) {
      return;  // foreign (ancestor) view: the owner may still diverge under it
    }
    const Prot p = EffectiveProt(*r, *page, /*foreign=*/false);
    if (i == 0) {
      prot = p;
    } else if (p != prot) {
      return;
    }
    span.push_back(page);
  }
  if (prot == Prot::kNone) {
    return;
  }
  // Already physically contiguous?  Then the collapse is pure PTE surgery.
  bool contiguous = true;
  for (size_t i = 1; i < ratio; ++i) {
    if (span[i]->frame != span[0]->frame + i) {
      contiguous = false;
      break;
    }
  }
  FrameIndex run = span[0]->frame;
  if (!contiguous) {
    Result<FrameIndex> fresh = memory().AllocateRun(ratio);
    if (!fresh.ok()) {
      return;  // fragmentation: not an error, the span just stays base-grained
    }
    run = *fresh;
  }
  {
    // Remove every base PTE of the span, harvesting its hardware dirty bit
    // atomically with the translation's death, before any frame is touched.
    // The collect mask is 64 pages wide, so a wider span goes in chunks (each
    // one ranged shootdown).  On any failure the span stays base-grained.
    TlbGatherScope gather(&tlb());
    auto restore = [&] {
      for (size_t i = 0; i < ratio; ++i) {
        (void)mmu().Map(as, hva + i * page_bytes, span[i]->frame, prot);
      }
    };
    for (size_t first = 0; first < ratio; first += 64) {
      const size_t count = std::min<size_t>(64, ratio - first);
      uint64_t dirty_mask = 0;
      if (mmu().UnmapRangeCollect(as, hva + first * page_bytes, count, &dirty_mask) !=
          Status::kOk) {
        restore();
        for (size_t i = 0; !contiguous && i < ratio; ++i) {
          memory().FreeFrame(static_cast<FrameIndex>(run + i));  // the unused fresh run
        }
        return;
      }
      for (size_t i = 0; i < count; ++i) {
        if ((dirty_mask >> i) & 1) {
          span[first + i]->sw_dirty = true;
        }
      }
    }
    if (!contiguous) {
      // The removal above is published but its fence may still be pending
      // inside this gather: commit it before touching frame contents, or a
      // CPU still holding a stale writable translation could land a write in
      // an old frame AFTER its bytes were copied out — losing the write.
      (void)gather.Flush();  // commit-only: flushing an open gather cannot fail
      for (size_t i = 0; i < ratio; ++i) {
        const FrameIndex dst = static_cast<FrameIndex>(run + i);
        memory().CopyFrame(dst, span[i]->frame);
        memory().FreeFrame(span[i]->frame);
        span[i]->frame = dst;
      }
    }
    if (mmu().MapHuge(as, hva, run, prot) != Status::kOk) {
      // Cannot happen for a validated span (alignment and the address space
      // both held under the never-dropped lock); restore base mappings so the
      // pages are not left translation-less with live MappingRefs.
      restore();
      return;
    }
  }
  huge_spans_.insert({as, hva});
  ++detail_.promotions;
}

// ---------------------------------------------------------------------------
// MMU mapping bookkeeping
// ---------------------------------------------------------------------------

void PagedVm::MapPage(RegionImpl& region, Vaddr page_va, PageDesc& page, Prot prot,
                      PvmCache& via_cache) {
  // A base-granular (re)map inside a promoted span splits it first: once the
  // inner MMU auto-splits, no later base mutation could ever reach the wide
  // cached entry, so the demotion must kill it NOW (see DemoteIfHuge).
  DemoteIfHuge(region.context().address_space(), page_va, DemoteReason::kOther);
  auto& rmap = region_maps_[&region];
  auto it = rmap.find(page_va);
  if (it != rmap.end()) {
    PageDesc* old = it->second;
    if (old == &page) {
      // Same page, new protection.
      (void)mmu().Map(region.context().address_space(), page_va, page.frame, prot);
      return;
    }
    // Replace the previous mapping (e.g. an ancestor page superseded by a private
    // copy after a write fault).  The overwriting Map below installs a different
    // frame, which starts the PTE's dirty bit clear — harvest the old page's bit
    // atomically first or a modification recorded only in hardware dies with it.
    Result<MmuEntry> removed = mmu().UnmapCollect(region.context().address_space(), page_va);
    if (removed.ok() && removed->dirty) {
      old->sw_dirty = true;
    }
    for (size_t i = 0; i < old->mappings.size(); ++i) {
      if (old->mappings[i].region == &region && old->mappings[i].va == page_va) {
        old->mappings[i] = old->mappings.back();
        old->mappings.pop_back();
        break;
      }
    }
    rmap.erase(it);
    WsNoteUnmapped(region.context().address_space(), *old);
    if (old->mappings.empty()) {
      ReconsiderQueue(*old);
    }
  }
  AsId as = region.context().address_space();
  (void)mmu().Map(as, page_va, page.frame, prot);
  page.mappings.push_back(
      MappingRef{.as = as, .va = page_va, .region = &region, .via_cache = &via_cache});
  rmap[page_va] = &page;
  // Pressure bookkeeping.  Mapping a queued page is a *soft fault*: the page
  // was rescued from the pageout queues with no mapper I/O.  The re-fault rate
  // feeds the address space's thrashing EWMA (fixed-point, x1000).
  WorkingSet& ws = working_sets_[as];
  const bool refault = page.queue != PageQueue::kNone;
  if (refault) {
    ++detail_.soft_faults;
    if (page.queue == PageQueue::kStandby) {
      ++detail_.standby_hits;
    }
    QueueRemove(page);
  }
  ws.refault_ewma_x1000 = ws.refault_ewma_x1000 * 7 / 8 + (refault ? 1000 / 8 : 0);
  WsNoteMapped(as, page);
  if (options_.working_set_limit_pages > 0) {
    // Fault-time working-set trim: evict (unmap only — no I/O here) this
    // space's coldest pages until it is back under its limit.  Never trim the
    // page just mapped, even when the limit is absurdly small.
    while (ws.fifo.size() > options_.working_set_limit_pages &&
           ws.fifo.front() != &page) {
      ++detail_.ws_trims;
      TrimPageFromAs(*ws.fifo.front(), as);
    }
  }
}

void PagedVm::UnmapMapping(PageDesc& page, size_t index, DemoteReason reason) {
  const MappingRef ref = page.mappings[index];
  // Huge-aware: removing one base page from a promoted span splits the span
  // first, so the UnmapCollect below sees a base PTE whose dirty bit already
  // carries the fanned-out span bit.
  DemoteIfHuge(ref.as, ref.va, reason);
  // Harvest the hardware dirty bit as the translation dies: a read fault on a
  // writable region maps with write permission, so the CPU can dirty the page
  // without a fault ever setting sw_dirty — after the unmap, that bit is the
  // only record of the modification.  The remove-and-read must be the MMU's
  // atomic UnmapCollect: with a separate Lookup a write can slip between the
  // probe and the unmap, and its dirty bit dies with the PTE.
  Result<MmuEntry> removed = mmu().UnmapCollect(ref.as, ref.va);
  if (removed.ok() && removed->dirty) {
    page.sw_dirty = true;
  }
  auto rm_it = region_maps_.find(ref.region);
  if (rm_it != region_maps_.end()) {
    rm_it->second.erase(ref.va);
    if (rm_it->second.empty()) {
      region_maps_.erase(rm_it);
    }
  }
  page.mappings[index] = page.mappings.back();
  page.mappings.pop_back();
  WsNoteUnmapped(ref.as, page);
  if (page.mappings.empty()) {
    ReconsiderQueue(page);
  }
}

void PagedVm::UnmapAllMappings(PageDesc& page, DemoteReason reason) {
  while (!page.mappings.empty()) {
    UnmapMapping(page, page.mappings.size() - 1, reason);
  }
}

void PagedVm::RemoveForeignMappings(PageDesc& page) {
  for (size_t i = page.mappings.size(); i > 0; --i) {
    if (page.mappings[i - 1].via_cache != page.cache) {
      UnmapMapping(page, i - 1);
    }
  }
}

void PagedVm::WriteProtectPage(PageDesc& page) {
  for (const MappingRef& ref : page.mappings) {
    // Split-on-COW: the copy machinery is about to share this page, and a wide
    // translation has ONE protection for its whole span — demote so only this
    // base page loses write access, and a later write fault copies exactly one
    // base page through the history object.
    DemoteIfHuge(ref.as, ref.va, DemoteReason::kCow);
    Prot prot = EffectiveProt(*ref.region, page, /*foreign=*/ref.via_cache != page.cache);
    (void)mmu().Protect(ref.as, ref.va, prot & ~Prot::kWrite);
  }
}

bool PagedVm::IsCowProtected(const PageDesc& page) const {
  const PvmCache& owner = *page.cache;
  // A pending history push?  (Sections 4.2.2/4.2.3: sources of a deferred copy stay
  // read-only until the original value is secured in the history object.)  The
  // original counts as secured if the history holds it resident, as a stub, or
  // pushed out on its own segment — this must mirror PushToHistory exactly, or a
  // source page would stay read-only forever and write faults would spin.
  if (const auto* frag = owner.histories_.Find(page.offset)) {
    PvmCache& history = *frag->value.cache;
    SegOffset h_off = frag->value.base + (page.offset - frag->start);
    auto* entry = const_cast<PagedVm*>(this)->map_.Find(history.id(), PageIndex(h_off));
    bool secured = entry != nullptr || history.pushed_pages_.contains(PageIndex(h_off));
    if (!secured) {
      return true;
    }
    if (entry != nullptr && entry->kind == MapEntry::Kind::kSyncStub) {
      return true;  // in transit: keep the source read-only until it settles
    }
  }
  // Per-virtual-page stubs still share this frame (section 4.3)?
  if (!page.stubs.empty()) {
    return true;
  }
  // Foreign read mappings (descendants reading through the tree) share the frame?
  for (const MappingRef& ref : page.mappings) {
    if (ref.via_cache != page.cache) {
      return true;
    }
  }
  return false;
}

Prot PagedVm::EffectiveProt(const RegionImpl& region, const PageDesc& page, bool foreign) const {
  Prot prot = region.prot() & page.max_prot;
  if (foreign || IsCowProtected(page)) {
    prot = prot & ~Prot::kWrite;
  }
  return prot;
}

// ---------------------------------------------------------------------------
// Miss resolution: the upward walk of section 4.2.1
// ---------------------------------------------------------------------------

PagedVm::Lookup PagedVm::LookupValue(PvmCache& cache, SegOffset page_offset) {
  PvmCache* cur = &cache;
  SegOffset off = page_offset;
  bool cor = false;
  // The history tree is acyclic by construction; the bound catches corruption.
  for (int depth = 0; depth < 1024; ++depth) {
    MapEntry* entry = map_.Find(cur->id(), PageIndex(off));
    if (entry != nullptr) {
      switch (entry->kind) {
        case MapEntry::Kind::kFrame:
          if (entry->page->in_transit) {
            return Lookup{.kind = Lookup::Kind::kBlocked, .source = cur, .source_offset = off};
          }
          ++detail_.ancestor_lookups;
          return Lookup{.kind = Lookup::Kind::kPage, .page = entry->page,
                        .copy_on_reference = cor};
        case MapEntry::Kind::kSyncStub:
          return Lookup{.kind = Lookup::Kind::kBlocked, .source = cur, .source_offset = off};
        case MapEntry::Kind::kCowStub: {
          CowStub* stub = entry->cow.get();
          if (stub->src_page != nullptr) {
            if (stub->src_page->in_transit) {
              return Lookup{.kind = Lookup::Kind::kBlocked,
                            .source = stub->src_page->cache,
                            .source_offset = stub->src_page->offset};
            }
            ++detail_.ancestor_lookups;
            return Lookup{.kind = Lookup::Kind::kPage, .page = stub->src_page,
                          .copy_on_reference = cor};
          }
          cur = stub->src_cache;
          off = stub->src_offset;
          continue;
        }
      }
    }
    // The authoritative copy is on this cache's own segment if it was ever pushed.
    if (cur->pushed_pages_.contains(PageIndex(off))) {
      return Lookup{.kind = Lookup::Kind::kPullIn, .source = cur, .source_offset = off};
    }
    if (const auto* frag = cur->parents_.Find(off)) {
      cor = cor || frag->value.copy_on_reference;
      off = frag->value.base + (off - frag->start);
      cur = frag->value.cache;
      continue;
    }
    if (!cur->temporary_) {
      // Permanent segment: the mapper holds the data (e.g. a file's pages).
      return Lookup{.kind = Lookup::Kind::kPullIn, .source = cur, .source_offset = off};
    }
    return Lookup{.kind = Lookup::Kind::kZeroFill, .source = cur, .source_offset = off};
  }
  // Mutual whole-range copies between two never-written segments walk in a circle;
  // no cache owns a version anywhere on it, so the logical value is zero.  Fill at
  // the starting cache so the walk terminates next time.
  GVM_LOG(Debug) << "history-tree walk hit the depth bound; treating as demand-zero";
  return Lookup{.kind = Lookup::Kind::kZeroFill, .source = &cache,
                .source_offset = page_offset};
}

Result<PageDesc*> PagedVm::ResolveValue(MutexLock& lock, PvmCache& cache,
                                        SegOffset page_offset, bool* dropped_lock) {
  for (int rounds = 0; rounds < 4096; ++rounds) {
    Lookup found = LookupValue(cache, page_offset);
    switch (found.kind) {
      case Lookup::Kind::kPage:
        return found.page;
      case Lookup::Kind::kZeroFill: {
        // No value anywhere: demand-zero in the cache where the walk ended (a
        // temporary cache with no parent), so future lookups find it.
        Result<PageDesc*> page = MaterializePage(lock, *found.source, found.source_offset,
                                                 kInvalidFrame, /*dirty=*/false, Prot::kAll);
        if (page.ok()) {
          mutable_stats().zero_fills += 1;
          return page;
        }
        if (page.status() == Status::kRetry) {
          *dropped_lock = true;
          continue;
        }
        return page.status();
      }
      case Lookup::Kind::kPullIn: {
        Status s = PullInLocked(lock, *found.source, found.source_offset, Access::kRead);
        *dropped_lock = true;
        if (s != Status::kOk) {
          return s;
        }
        continue;
      }
      case Lookup::Kind::kBlocked:
        ++detail_.sync_stub_waits;
        sleepers_.Wait(StubKey(*found.source, found.source_offset), mu_);
        *dropped_lock = true;
        continue;
    }
  }
  GVM_LOG(Error) << "ResolveValue did not converge";
  return Status::kBusError;
}

// ---------------------------------------------------------------------------
// History pushes (sections 4.2.2, 4.2.3)
// ---------------------------------------------------------------------------

Status PagedVm::PushToHistory(MutexLock& lock, PvmCache& cache,
                              PageDesc& page, bool* dropped_lock) {
  const auto* frag = cache.histories_.Find(page.offset);
  if (frag == nullptr) {
    return Status::kOk;
  }
  PvmCache& history = *frag->value.cache;
  SegOffset h_off = frag->value.base + (page.offset - frag->start);
  for (int rounds = 0; rounds < 64; ++rounds) {
    MapEntry* entry = map_.Find(history.id(), PageIndex(h_off));
    if (entry != nullptr) {
      if (entry->kind == MapEntry::Kind::kFrame && !entry->page->in_transit) {
        // "If the history object already has its own version of the page, it
        // suffices to make the page writable."
        return Status::kOk;
      }
      if (entry->kind == MapEntry::Kind::kCowStub) {
        // The history's value for this page is already defined elsewhere.
        return Status::kOk;
      }
      ++detail_.sync_stub_waits;
      sleepers_.Wait(StubKey(history, h_off), mu_);
      *dropped_lock = true;
      return Status::kRetry;  // page pointer may be stale now
    }
    // If the history's value was pushed out to its segment, it is still secured.
    if (history.pushed_pages_.contains(PageIndex(h_off))) {
      return Status::kOk;
    }
    PagePin src_pin(page);
    Result<PageDesc*> copy =
        MaterializePage(lock, history, h_off, page.frame, /*dirty=*/true, Prot::kAll);
    if (copy.ok()) {
      ++detail_.history_pushes;
      ++mutable_stats().cow_copies;
      return Status::kOk;
    }
    if (copy.status() == Status::kRetry) {
      *dropped_lock = true;
      return Status::kRetry;  // `page` may have been evicted meanwhile
    }
    return copy.status();
  }
  return Status::kBusError;
}

Status PagedVm::DetachStubs(MutexLock& lock, PageDesc& page,
                            bool* dropped_lock) {
  if (page.stubs.empty()) {
    return Status::kOk;
  }
  // Give the stubs one shared private copy of the original value: the first stub's
  // cache receives an owned page; the remaining stubs are re-threaded onto it.
  CowStub* first = page.stubs.front();
  PvmCache& dst = *first->cache;
  const SegOffset dst_off = first->offset;

  // Allocate the frame first; the stub entry keeps the slot stable even if the
  // allocation has to evict (which drops the lock).  Pin the source page: the
  // eviction may otherwise pick it as a clean victim and free it in place.
  PagePin src_pin(page);
  bool dropped = false;
  Result<FrameIndex> frame = AllocateFrame(lock, &dropped);
  if (!frame.ok()) {
    return frame.status();
  }
  if (dropped) {
    *dropped_lock = true;
    // `page` may be stale; the caller re-derives and retries (the frame is
    // returned to keep the allocator balanced).
    memory().FreeFrame(*frame);
    return Status::kRetry;
  }
  memory().CopyFrame(*frame, page.frame);

  // Swap the first stub for an owned page under the continuously-held lock.
  MapEntry* entry = map_.Find(dst.id(), PageIndex(dst_off));
  assert(entry != nullptr && entry->kind == MapEntry::Kind::kCowStub &&
         entry->cow.get() == first);
  dst.pages_.emplace_back();
  auto it = std::prev(dst.pages_.end());
  PageDesc& fresh = *it;
  fresh.cache = &dst;
  fresh.offset = dst_off;
  fresh.frame = *frame;
  fresh.max_prot = Prot::kAll;
  fresh.sw_dirty = true;
  fresh.self = it;
  // Re-thread the remaining stubs onto the fresh page.
  for (size_t i = 1; i < page.stubs.size(); ++i) {
    CowStub* stub = page.stubs[i];
    stub->src_page = &fresh;
    fresh.stubs.push_back(stub);
  }
  page.stubs.clear();
  MapSetFrame(dst, *entry, fresh);
  AdoptInboundStubs(dst, fresh);
  ++detail_.stub_resolutions;
  ++mutable_stats().cow_copies;
  sleepers_.WakeAll(StubKey(dst, dst_off), mu_);
  return Status::kOk;
}

// ---------------------------------------------------------------------------
// The write-violation algorithm (sections 4.2.2, 4.2.3, 4.3)
// ---------------------------------------------------------------------------

Result<PageDesc*> PagedVm::EnsureWritablePage(MutexLock& lock,
                                              PvmCache& cache, SegOffset page_offset,
                                              bool* dropped_lock) {
  // Taken at the first lock drop below that re-derives from `cache` afterwards.
  std::optional<CacheUpcallPin> pin;
  for (int rounds = 0; rounds < 4096; ++rounds) {
    MapEntry* entry = FindEntry(cache, page_offset);
    if (entry != nullptr && entry->kind == MapEntry::Kind::kSyncStub) {
      ++detail_.sync_stub_waits;
      sleepers_.Wait(StubKey(cache, page_offset), mu_);
      *dropped_lock = true;
      continue;
    }
    if (entry != nullptr && entry->kind == MapEntry::Kind::kFrame) {
      PageDesc* page = entry->page;
      if (page->in_transit) {
        ++detail_.sync_stub_waits;
        sleepers_.Wait(StubKey(cache, page_offset), mu_);
        *dropped_lock = true;
        continue;
      }
      // The cache owns the page.  First, honour the cache-level protection cap:
      // write access beyond it requires the getWriteAccess upcall.
      if (!ProtAllows(page->max_prot, Prot::kWrite)) {
        SegmentDriver* driver = cache.driver_;
        if (driver == nullptr) {
          return Status::kProtectionFault;
        }
        const uint64_t epoch = cache.revoke_epoch_;
        if (!pin) {
          pin.emplace(*this, lock, cache);
        }
        lock.unlock();
        Status granted = driver->GetWriteAccess(cache, page_offset, page_size());
        lock.lock();
        *dropped_lock = true;
        if (granted != Status::kOk) {
          return Status::kProtectionFault;
        }
        // A recall or invalidate that ran while the lock was dropped revoked
        // the grant we just obtained: applying it anyway would let this cache
        // write a page the driver has already handed to someone else.  Loop
        // instead; the retry re-faults through a fresh upcall.
        if (cache.revoke_epoch_ != epoch) {
          continue;
        }
        PageDesc* again = FindOwned(cache, page_offset);
        if (again != nullptr) {
          again->max_prot = again->max_prot | Prot::kWrite;
        }
        continue;
      }
      // Secure the original value in the history object, if one is owed it.
      Status pushed = PushToHistory(lock, cache, *page, dropped_lock);
      if (pushed == Status::kRetry) {
        continue;
      }
      if (pushed != Status::kOk) {
        return pushed;
      }
      // Resolve per-virtual-page stubs sharing this frame.
      Status detached = DetachStubs(lock, *page, dropped_lock);
      if (detached == Status::kRetry) {
        continue;
      }
      if (detached != Status::kOk) {
        return detached;
      }
      // Finally, revoke foreign read mappings: descendants must re-fault and find
      // the original in the history object, not watch our new value.
      RemoveForeignMappings(*page);
      page->sw_dirty = true;
      return page;
    }
    if (entry != nullptr && entry->kind == MapEntry::Kind::kCowStub) {
      // Write violation on a copy-on-write page stub (section 4.3): "a new page
      // frame is allocated with a copy of the source page, and inserted in the
      // global map in replacement of the stub."
      CowStub* stub = entry->cow.get();
      PageDesc* src;
      if (stub->src_page != nullptr) {
        if (stub->src_page->in_transit) {
          ++detail_.sync_stub_waits;
          sleepers_.Wait(StubKey(*stub->src_page->cache, stub->src_page->offset), mu_);
          *dropped_lock = true;
          continue;
        }
        src = stub->src_page;
      } else {
        bool dropped = false;
        Result<PageDesc*> resolved = ResolveValue(lock, *stub->src_cache, stub->src_offset,
                                                  &dropped);
        if (dropped) {
          *dropped_lock = true;
        }
        if (!resolved.ok()) {
          return resolved.status();
        }
        if (dropped) {
          continue;  // the stub may have changed form; re-derive
        }
        src = *resolved;
      }
      // Secure the history's claim on this page's *pre-copy* value.  (A per-page
      // copy into a history-covered range had its history satisfied when the
      // destination range was cleared; reaching here with a live history link
      // means the link was established over the stub, whose value is src's.)
      bool dropped = false;
      PagePin src_pin(*src);
      if (!pin) {
        pin.emplace(*this, lock, cache);
      }
      Result<FrameIndex> frame = AllocateFrame(lock, &dropped);
      if (!frame.ok()) {
        return frame.status();
      }
      if (dropped) {
        *dropped_lock = true;
        memory().FreeFrame(*frame);
        continue;
      }
      memory().CopyFrame(*frame, src->frame);
      UnlinkStub(stub);
      cache.pages_.emplace_back();
      auto it = std::prev(cache.pages_.end());
      PageDesc& fresh = *it;
      fresh.cache = &cache;
      fresh.offset = page_offset;
      fresh.frame = *frame;
      fresh.max_prot = Prot::kAll;
      fresh.sw_dirty = true;
      fresh.self = it;
      MapSetFrame(cache, *entry, fresh);
      AdoptInboundStubs(cache, fresh);
      ++detail_.stub_resolutions;
      ++mutable_stats().cow_copies;
      sleepers_.WakeAll(StubKey(cache, page_offset), mu_);
      continue;  // loop once more; the owned-page branch finishes the job
    }
    // No entry: the cache does not own the page.  Find the current value, give the
    // history object its copy (the section 4.2.3 complication), then materialize a
    // private writable copy.
    bool dropped = false;
    Result<PageDesc*> value = ResolveValue(lock, cache, page_offset, &dropped);
    if (dropped) {
      *dropped_lock = true;
    }
    if (!value.ok()) {
      return value.status();
    }
    if (dropped) {
      continue;
    }
    PageDesc* src = *value;
    if (src->cache == &cache && src->offset == page_offset) {
      continue;  // the walk ended at home (e.g. a zero fill landed here)
    }
    PagePin src_pin(*src);  // materialization below may evict; keep the source alive
    // Note: the owner may be this very cache at a *different* offset (mutual
    // copies between two segments produce such walks); that is an ordinary
    // ancestor value and is materialized like any other.
    // 4.2.3: "When a write violation occurs in cpy1, a copy of the page is taken
    // from src, but copyOfCpy1 must also get its own copy" — the history object of
    // a middle node receives the inherited value before the node diverges.
    if (const auto* frag = cache.histories_.Find(page_offset)) {
      PvmCache& history = *frag->value.cache;
      SegOffset h_off = frag->value.base + (page_offset - frag->start);
      MapEntry* h_entry = map_.Find(history.id(), PageIndex(h_off));
      if (h_entry == nullptr && !history.pushed_pages_.contains(PageIndex(h_off))) {
        Result<PageDesc*> h_copy = MaterializePage(lock, history, h_off, src->frame,
                                                   /*dirty=*/true, Prot::kAll);
        if (!h_copy.ok()) {
          if (h_copy.status() == Status::kRetry) {
            *dropped_lock = true;
            continue;
          }
          return h_copy.status();
        }
        ++detail_.history_pushes;
      ++mutable_stats().cow_copies;
      }
    }
    Result<PageDesc*> fresh = MaterializePage(lock, cache, page_offset, src->frame,
                                              /*dirty=*/true, Prot::kAll);
    if (!fresh.ok()) {
      if (fresh.status() == Status::kRetry) {
        *dropped_lock = true;
        continue;
      }
      return fresh.status();
    }
    ++mutable_stats().cow_copies;
    // One more pass through the owned-page branch settles stubs/foreign mappings.
    continue;
  }
  GVM_LOG(Error) << "EnsureWritablePage did not converge";
  return Status::kBusError;
}

// ---------------------------------------------------------------------------
// Fault handling (section 4.1.2)
// ---------------------------------------------------------------------------

Status PagedVm::ResolveFault(RegionImpl& region, const PageFault& fault, SegOffset page_offset,
                             MutexLock& lock) {
  RegionImpl* r = &region;
  SegOffset offset = page_offset;
  const Vaddr page_va = AlignDown(fault.address, page_size());
  Status result = Status::kOk;

  // Thrash throttle (DESIGN.md §15): while the pool sits below low water, an
  // address space whose re-fault EWMA marks it a thrasher waits out one
  // reclaim pass instead of stealing the frames its own evictions are about
  // to re-fault on.  Only engages with the daemon running (so a waker is
  // guaranteed) and never throttles the reclaimer itself; the decay below
  // bounds consecutive throttles of one space, guaranteeing progress.
  if (options_.thrash_ewma_threshold > 0 &&
      daemon_active_.load(std::memory_order_acquire) &&
      options_.low_water_frames > 0 &&
      memory().free_frames() < options_.low_water_frames &&
      active_reclaimer_ != std::this_thread::get_id()) {
    auto ws_it = working_sets_.find(region.context().address_space());
    if (ws_it != working_sets_.end() &&
        ws_it->second.refault_ewma_x1000 > options_.thrash_ewma_threshold) {
      ++detail_.thrash_throttles;
      ws_it->second.refault_ewma_x1000 = ws_it->second.refault_ewma_x1000 * 7 / 8;
      KickPageoutDaemon();
      sleepers_.Wait(kFrameWaitKey, mu_);  // drops and reacquires mu_
      return Status::kOk;  // the CPU re-faults; the region may be gone by now
    }
  }

  for (int rounds = 0; rounds < 256; ++rounds) {
    PvmCache& cache = static_cast<PvmCache&>(r->cache());
    bool dropped = false;

    if (fault.access == Access::kWrite) {
      if (cache.degraded_) {
        // Degraded segment: dirty data cannot currently reach the mapper, so
        // refuse new writes rather than accept bytes that may be lost.  Reads
        // (the else branch) are still served.
        result = Status::kBusError;
        break;
      }
      Result<PageDesc*> page = EnsureWritablePage(lock, cache, offset, &dropped);
      if (!page.ok()) {
        result = page.status();
        break;
      }
      if (!dropped) {
        MapPage(*r, page_va, **page, EffectiveProt(*r, **page, /*foreign=*/false), cache);
        result = Status::kOk;
        break;
      }
    } else {
      // Read or execute access.
      MapEntry* entry = FindEntry(cache, offset);
      if (entry != nullptr && entry->kind == MapEntry::Kind::kFrame &&
          !entry->page->in_transit) {
        PageDesc* page = entry->page;
        Prot prot = EffectiveProt(*r, *page, /*foreign=*/false);
        if (!ProtAllows(prot, AccessProt(fault.access))) {
          // The cache-level cap forbids even this read (a coherence server revoked
          // it).  Re-pull fresh data from the segment.
          if (cache.driver_ == nullptr) {
            result = Status::kProtectionFault;
            break;
          }
          FreePage(page);
          Status s = PullInLocked(lock, cache, offset, fault.access);
          if (s != Status::kOk) {
            result = s;
            break;
          }
          dropped = true;
        } else {
          MapPage(*r, page_va, *page, prot, cache);
          result = Status::kOk;
          break;
        }
      } else {
        bool inner_dropped = false;
        Result<PageDesc*> value = ResolveValue(lock, cache, offset, &inner_dropped);
        if (!value.ok()) {
          result = value.status();
          break;
        }
        if (!inner_dropped) {
          PageDesc* page = *value;
          Lookup look = LookupValue(cache, offset);
          bool via_copy_on_ref = look.copy_on_reference;
          if (via_copy_on_ref && page->cache != &cache) {
            // Copy-on-reference: materialize the private copy now instead of
            // mapping the ancestor page (section 4.2, "copy-on-reference scheme").
            Result<PageDesc*> fresh = EnsureWritablePage(lock, cache, offset, &dropped);
            if (!fresh.ok()) {
              result = fresh.status();
              break;
            }
            if (!dropped) {
              MapPage(*r, page_va, **fresh, EffectiveProt(*r, **fresh, false), cache);
              result = Status::kOk;
              break;
            }
          } else {
            bool foreign = page->cache != &cache;
            MapPage(*r, page_va, *page, EffectiveProt(*r, *page, foreign), cache);
            result = Status::kOk;
            break;
          }
        } else {
          dropped = true;
        }
      }
    }

    if (dropped) {
      // The lock was dropped somewhere: the region may be gone or replaced.
      r = RelookupRegion(fault);
      if (r == nullptr || !ProtAllows(r->prot(), AccessProt(fault.access))) {
        // Let the CPU re-fault and surface the right exception cleanly.
        result = Status::kOk;
        break;
      }
      offset = r->OffsetOf(page_va);
    }
  }

  if (result == Status::kOk && options_.pullin_cluster_pages > 1) {
    ClusterPullIns(lock, fault, page_va);
  }
  if (result == Status::kOk && HugeEnabled()) {
    // This fault may have completed a huge-aligned span: collapse it.  After
    // ClusterPullIns, so a prefetched tail can finish the span the same fault.
    MaybePromote(fault, page_va);
  }

  // kRetry is a private protocol between internal loops; by the time a fault
  // resolution returns it must have been converted into kOk or a real error.
  assert(result != Status::kRetry && "kRetry escaped ResolveFault");
  return result;  // `lock` is owned by BaseMm::HandleFault
}

// Fault-around: a fault that just resolved at `primary_va` is a strong hint of a
// sequential stream, and each neighbouring page whose value already sits in the
// mapper can be materialized now for the price of an upcall — saving a full
// fault round-trip later.  Strictly best-effort: any surprise (region replaced,
// value moved, stub appeared, free frames low) just stops the cluster.
void PagedVm::ClusterPullIns(MutexLock& lock, const PageFault& fault,
                             Vaddr primary_va) {
  const size_t page = page_size();
  for (size_t i = 1; i < options_.pullin_cluster_pages; ++i) {
    // Speculative work must never create memory pressure of its own.
    if (memory().free_frames() <= options_.high_water_frames) {
      return;
    }
    RegionImpl* r = RelookupRegion(fault);
    if (r == nullptr) {
      return;
    }
    const Vaddr va = primary_va + i * page;
    if (!r->Contains(va) || !ProtAllows(r->prot(), Prot::kRead)) {
      return;
    }
    PvmCache& cache = static_cast<PvmCache&>(r->cache());
    SegOffset offset = r->OffsetOf(va);
    Lookup look = LookupValue(cache, offset);
    if (look.kind != Lookup::Kind::kPullIn) {
      return;  // resident, zero-fill, or blocked: nothing to prefetch here
    }
    if (PullInLocked(lock, *look.source, look.source_offset, Access::kRead) != Status::kOk) {
      return;
    }
    // The upcall dropped the lock: re-derive everything before mapping.
    r = RelookupRegion(fault);
    if (r == nullptr || !r->Contains(va)) {
      return;
    }
    PvmCache& now_cache = static_cast<PvmCache&>(r->cache());
    look = LookupValue(now_cache, r->OffsetOf(va));
    if (look.kind != Lookup::Kind::kPage || look.page->in_transit) {
      continue;  // value moved while unlocked; the pull-in itself still helps
    }
    if (look.copy_on_reference && look.page->cache != &now_cache) {
      continue;  // mapping would bypass copy-on-reference materialization
    }
    const bool foreign = look.page->cache != &now_cache;
    MapPage(*r, va, *look.page, EffectiveProt(*r, *look.page, foreign), now_cache);
    ++detail_.pullin_clustered;
  }
}

// ---------------------------------------------------------------------------
// Region hooks
// ---------------------------------------------------------------------------

void PagedVm::OnRegionMapped(RegionImpl& region, MutexLock& lock) {
  (void)lock;
  static_cast<PvmCache&>(region.cache()).mapping_count_++;
}

void PagedVm::OnRegionUnmapping(RegionImpl& region) {
  auto it = region_maps_.find(&region);
  if (it != region_maps_.end()) {
    // Detach every mapped page (O(resident pages of the region), per section
    // 4.1).  The MMU side is one batched UnmapRangeCollect per *contiguous
    // resident run* (capped at the 64-page dirty-mask width), found by walking
    // the sorted rmap — never the whole VA span, which for a sparse region
    // could be astronomically larger than its resident set.  The unmap runs
    // BEFORE the bookkeeping for its pages: the collected mask is the atomic
    // dirty harvest (see UnmapMapping), and ReconsiderQueue must classify
    // modified-vs-standby only after that harvest has landed in sw_dirty.
    // Under the caller's gather (region/context teardown) all runs share one
    // fence regardless.
    const size_t page_bytes = page_size();
    const AsId as = region.context().address_space();
    std::vector<PageDesc*> run;
    Vaddr run_start = 0;
    auto flush_run = [&] {
      if (run.empty()) {
        return;
      }
      // Promoted spans intersecting the run are split first (cheap set lookups
      // when no spans exist), so the batched removal below unmaps base PTEs
      // whose dirty bits already carry the fanned-out span bit.
      for (size_t i = 0; i < run.size(); ++i) {
        DemoteIfHuge(as, run_start + i * page_bytes, DemoteReason::kOther);
      }
      uint64_t dirty_mask = 0;
      if (mmu().UnmapRangeCollect(as, run_start, run.size(), &dirty_mask) != Status::kOk) {
        // The batch failed part-way: harvest page by page instead.  Every page
        // of the run was mapped, so one whose translation is already gone went
        // with the failed batch, and its dirty bit with it — count it dirty (a
        // spurious pushOut costs I/O; a dropped dirty bit loses data).
        dirty_mask = 0;
        for (size_t i = 0; i < run.size(); ++i) {
          Result<MmuEntry> removed = mmu().UnmapCollect(as, run_start + i * page_bytes);
          if (!removed.ok() || removed->dirty) {
            dirty_mask |= uint64_t{1} << i;
          }
        }
      }
      for (size_t i = 0; i < run.size(); ++i) {
        PageDesc* page = run[i];
        if ((dirty_mask >> i) & 1) {
          page->sw_dirty = true;
        }
        const Vaddr va = run_start + i * page_bytes;
        for (size_t m = 0; m < page->mappings.size(); ++m) {
          if (page->mappings[m].region == &region && page->mappings[m].va == va) {
            page->mappings[m] = page->mappings.back();
            page->mappings.pop_back();
            break;
          }
        }
        WsNoteUnmapped(as, *page);
        if (page->mappings.empty()) {
          ReconsiderQueue(*page);
        }
      }
      run.clear();
    };
    for (auto& [va, page] : it->second) {
      if (!run.empty() &&
          (va != run_start + run.size() * page_bytes || run.size() == 64)) {
        flush_run();
      }
      if (run.empty()) {
        run_start = va;
      }
      run.push_back(page);
    }
    flush_run();
    region_maps_.erase(it);
  }
  static_cast<PvmCache&>(region.cache()).mapping_count_--;
}

void PagedVm::OnRegionSplit(RegionImpl& first, RegionImpl& second) {
  static_cast<PvmCache&>(second.cache()).mapping_count_++;
  auto it = region_maps_.find(&first);
  if (it == region_maps_.end()) {
    return;
  }
  auto& first_map = it->second;
  auto lo = first_map.lower_bound(second.start());
  if (lo == first_map.end()) {
    return;
  }
  auto& second_map = region_maps_[&second];
  for (auto move_it = lo; move_it != first_map.end(); ++move_it) {
    second_map.emplace(move_it->first, move_it->second);
    for (MappingRef& ref : move_it->second->mappings) {
      if (ref.region == &first && ref.va == move_it->first) {
        ref.region = &second;
      }
    }
  }
  first_map.erase(lo, first_map.end());
  if (first_map.empty()) {
    region_maps_.erase(&first);
  }
}

void PagedVm::OnRegionProtection(RegionImpl& region) {
  auto it = region_maps_.find(&region);
  if (it == region_maps_.end()) {
    return;
  }
  // Protections vary per page (EffectiveProt depends on page state) so the
  // mutations stay page-granular, but the fence need not: one gather commit
  // retires every downgrade in the region.  No lock is dropped in the scope.
  TlbGatherScope gather(&tlb());
  for (auto& [va, page] : it->second) {
    for (const MappingRef& ref : page->mappings) {
      if (ref.region == &region && ref.va == va) {
        // A protection split inside a promoted span demotes it: the wide
        // translation has one protection for the whole span.
        DemoteIfHuge(ref.as, va, DemoteReason::kOther);
        bool foreign = ref.via_cache != page->cache;
        (void)mmu().Protect(ref.as, va, EffectiveProt(region, *page, foreign));
        break;
      }
    }
  }
}

Status PagedVm::OnRegionLock(RegionImpl& region, MutexLock& lock) {
  // Fault in and pin every page of the region.  Pinning is necessarily O(region
  // size): every page must be resident for fault-free access.
  const size_t page = page_size();
  const bool writable = ProtAllows(region.prot(), Prot::kWrite);
  const AsId as = region.context().address_space();
  const Vaddr start = region.start();
  const Vaddr end = region.end();
  for (Vaddr va = start; va < end; va += page) {
    for (int rounds = 0;; ++rounds) {
      if (rounds > 256) {
        return Status::kBusError;
      }
      // Drive through the regular fault path.
      PageFault fault{.address_space = as, .address = va,
                      .access = writable ? Access::kWrite : Access::kRead,
                      .protection_violation = false};
      RegionImpl* r = RelookupRegion(fault);
      if (r == nullptr) {
        return Status::kNotFound;
      }
      Status s = ResolveFault(*r, fault, r->OffsetOf(AlignDown(va, page)), lock);
      if (s != Status::kOk) {
        return s;
      }
      // Pin the page now mapped at `va` (if the map settled).
      auto rm = region_maps_.find(r);
      if (rm != region_maps_.end()) {
        auto entry = rm->second.find(va);
        if (entry != rm->second.end() && !entry->second->in_transit) {
          entry->second->pin_count++;
          break;
        }
      }
    }
  }
  return Status::kOk;
}

Status PagedVm::OnRegionUnlock(RegionImpl& region) {
  auto it = region_maps_.find(&region);
  if (it == region_maps_.end()) {
    return Status::kOk;
  }
  for (auto& [va, page] : it->second) {
    if (page->pin_count > 0) {
      page->pin_count--;
    }
  }
  return Status::kOk;
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

size_t PagedVm::CacheCount() const {
  MutexLock lock(mu_);
  return caches_.size();
}

size_t PagedVm::GlobalMapEntries() const {
  MutexLock lock(mu_);
  return map_.size();
}

size_t PagedVm::SyncStubCount() const {
  MutexLock lock(mu_);
  return map_.CountKind(MapEntry::Kind::kSyncStub);
}

size_t PagedVm::CowStubCount() const {
  MutexLock lock(mu_);
  return map_.CountKind(MapEntry::Kind::kCowStub);
}

size_t PagedVm::InTransitCount() const {
  MutexLock lock(mu_);
  size_t count = 0;
  for (const auto& [id, cache] : caches_) {
    for (const PageDesc& page : cache->pages_) {
      if (page.in_transit) {
        ++count;
      }
    }
  }
  return count;
}

void PagedVm::PokeSleepers(const Cache& cache, SegOffset offset) {
  MutexLock lock(mu_);
  sleepers_.WakeAll(StubKey(static_cast<const PvmCache&>(cache), offset), mu_);
}

}  // namespace gvm
