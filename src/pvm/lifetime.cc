// Cache lifetime: destruction, "dying" sources kept alive for their descendants
// (section 4.2.5: "remaining unmodified source data must be kept until the copy is
// deleted"), reaping, and the collapse of chains of inactive history objects (the
// garbage collection the paper contrasts with Mach's shadow-object GC).
#include <cassert>
#include <vector>

#include "src/pvm/paged_vm.h"
#include "src/util/align.h"
#include "src/util/log.h"

namespace gvm {

bool PagedVm::CacheHasDependents(const PvmCache& cache) const {
  // Any cache whose parent links target `cache`?
  for (const auto& [child, fragments] : cache.inbound_parent_links_) {
    if (child != &cache) {
      return true;
    }
  }
  // Any per-page stub sourcing from `cache` (resident or not)?
  if (!cache.inbound_stubs_.empty()) {
    return true;
  }
  for (const PageDesc& page : cache.pages_) {
    if (!page.stubs.empty()) {
      return true;
    }
  }
  return false;
}

void PagedVm::DropTreeLinksTo(PvmCache& cache) {
  // Remove every history link in the system that targets `cache`: once it is gone,
  // no source owes it original values any more.  The sources' pages become
  // writable again lazily, on their next write fault.
  for (PvmCache* other : LinkingCaches(cache.inbound_history_links_, cache)) {
    std::vector<std::pair<SegOffset, uint64_t>> stale;
    other->histories_.ForEach([&](const LinkFragment& frag) {
      if (frag.value.cache == &cache) {
        stale.emplace_back(frag.start, frag.size);
      }
    });
    for (const auto& [start, size] : stale) {
      other->histories_.Erase(start, size);
    }
  }
}

void PagedVm::ReleasePages(PvmCache& cache) {
  // Teardown batch: every page's unmaps publish under one gather, the frames
  // park on it, and a single commit fence retires the lot before recycling.
  TlbGatherScope gather(&tlb());
  while (!cache.pages_.empty()) {
    FreePage(&cache.pages_.front());
  }
}

Status PagedVm::DestroyCacheLocked(MutexLock& lock, PvmCache& cache) {
  if (cache.mapping_count_ > 0) {
    return Status::kBusy;
  }
  if (cache.dying_) {
    return Status::kOk;  // double destroy is idempotent
  }
  // Push modified data of permanent (driver-backed, non-temporary) caches back to
  // their segment: "at the time of a cache ... destruction, the MM needs to save a
  // fragment of cached data" (section 3.3.3).  Temporary caches just evaporate.
  if (!cache.temporary_ && cache.driver_ != nullptr) {
    Status s = CacheFlush(lock, cache, /*discard=*/false);
    if (s != Status::kOk) {
      return s;
    }
  }
  cache.dying_ = true;
  ReapIfUnreferenced(lock, cache);
  return Status::kOk;
}

void PagedVm::ReapIfUnreferenced(MutexLock& lock, PvmCache& cache) {
  if (!cache.dying_ || cache.mapping_count_ > 0) {
    return;
  }
  if (cache.upcall_pins_ > 0) {
    // An upcall in flight re-derives state from this cache when the lock comes
    // back; the last unpin re-runs this check (CacheUpcallPin).
    cache.reap_deferred_ = true;
    return;
  }
  if (CacheHasDependents(cache)) {
    if (options_.collapse_dying_caches) {
      TryCollapse(lock, cache);
    }
    return;
  }
  // Nobody reads through this cache any more: free it, then re-examine the caches
  // it read through — they may have been waiting on us.
  std::vector<CacheId> former_parents = ParentIds(cache);
  // Clearing both lists takes this cache out of its targets' reverse tables.
  cache.parents_.Clear();
  cache.histories_.Clear();
  DropTreeLinksTo(cache);
  {
    // One gathered shootdown for the whole cache teardown (see ReleasePages).
    TlbGatherScope gather(&tlb());
    while (!cache.pages_.empty()) {
      FreePage(&cache.pages_.front());
    }
  }
  // Purge the stub entries this cache still owns (deferred-copy placeholders whose
  // value was never demanded), unlinking each from its source.  No sync stub can
  // remain: the pull-in that placed one pins the cache until it is gone.
  const CacheId id = cache.id();
  assert(cache.sync_stubs_ == 0);
  for (uint64_t index : cache.cow_stub_pages_) {
    UnlinkStub(map_.Find(id, index)->cow.get());
    map_.Erase(id, index);
  }
  cache.cow_stub_pages_.clear();
  assert(cache.inbound_parent_links_.empty() && cache.inbound_history_links_.empty());
  ++detail_.caches_reaped;
  caches_.erase(id);  // destroys `cache`
  ReapFormerParents(lock, former_parents);
}

std::vector<CacheId> PagedVm::ParentIds(const PvmCache& cache) {
  std::vector<CacheId> ids;
  cache.parents_.ForEach([&](const LinkFragment& frag) { ids.push_back(frag.value.cache->id()); });
  return ids;
}

void PagedVm::ReapFormerParents(MutexLock& lock, const std::vector<CacheId>& parents) {
  // A parent may already be gone: an earlier cascade in this loop can free it.
  for (CacheId id : parents) {
    auto it = caches_.find(id);
    if (it != caches_.end()) {
      ReapIfUnreferenced(lock, *it->second);
    }
  }
}

bool PagedVm::TryCollapse(MutexLock& lock, PvmCache& cache) {
  // Merge a dying cache into its single remaining child: transfer its pages to the
  // child (where the child lacks its own version) and splice the child's parent
  // links past it.  This is the analogue of Mach's shadow collapse, needed only in
  // the "process forks and exits while its child continues" pattern (section 4.2.5).
  if (!cache.dying_ || cache.mapping_count_ > 0) {
    return false;
  }
  // Stub dependents pin the cache (their value identity lives here).
  if (!cache.inbound_stubs_.empty()) {
    return false;
  }
  for (const PageDesc& page : cache.pages_) {
    if (page.stubs.empty() == false || page.pin_count > 0 || page.in_transit) {
      return false;
    }
  }
  // Pages already pushed to our segment cannot be handed to the child cheaply.
  if (!cache.pushed_pages_.empty()) {
    return false;
  }
  // Deferred-copy placeholders we own define our value at those offsets; the child
  // reads them through us, so splicing us out would corrupt its view.
  if (!cache.cow_stub_pages_.empty()) {
    return false;
  }
  // Exactly one child?
  const std::vector<PvmCache*> children = LinkingCaches(cache.inbound_parent_links_, cache);
  if (children.size() != 1) {
    // Several children: the tree structure is still needed.  None: the
    // ReapIfUnreferenced path handles the no-dependent case.
    return false;
  }
  PvmCache* child = children.front();

  // Collect the child's fragments that read through us, as (child range -> our
  // base offset) triples.
  struct Window {
    SegOffset child_start;
    uint64_t size;
    SegOffset our_base;
    bool copy_on_reference;
  };
  std::vector<Window> windows;
  child->parents_.ForEach([&](const LinkFragment& frag) {
    if (frag.value.cache == &cache) {
      windows.push_back(Window{frag.start, frag.size, frag.value.base,
                               frag.value.copy_on_reference});
    }
  });

  // Transfer our pages into the child where the child has no version of its own.
  std::vector<PageDesc*> to_move;
  for (PageDesc& page : cache.pages_) {
    to_move.push_back(&page);
  }
  // The per-page unmaps (moved pages and freed unreachable/diverged pages)
  // batch into one gathered shootdown; no lock is dropped in the loop.
  TlbGatherScope gather(&tlb());
  for (PageDesc* page : to_move) {
    const Window* window = nullptr;
    for (const Window& w : windows) {
      if (page->offset >= w.our_base && page->offset < w.our_base + w.size) {
        window = &w;
        break;
      }
    }
    if (window == nullptr) {
      FreePage(page);  // unreachable data
      continue;
    }
    SegOffset child_off = window->child_start + (page->offset - window->our_base);
    if (FindEntry(*child, child_off) != nullptr ||
        child->pushed_pages_.contains(PageIndex(child_off))) {
      FreePage(page);  // the child already diverged here
      continue;
    }
    UnmapAllMappings(*page);
    MapErase(cache, PageIndex(page->offset));
    page->cache = child;
    page->offset = child_off;
    page->sw_dirty = true;
    child->pages_.splice(child->pages_.end(), cache.pages_, page->self);
    page->self = std::prev(child->pages_.end());
    MapInsert(*child, PageIndex(child_off),
              MapEntry{.kind = MapEntry::Kind::kFrame, .page = page, .cow = nullptr});
    AdoptInboundStubs(*child, *page);
  }

  // Splice the child's links past us: compose each window with our own parents.
  for (const Window& w : windows) {
    child->parents_.Erase(w.child_start, w.size);
    for (const auto& ours : cache.parents_.Overlapping(w.our_base, w.size)) {
      SegOffset child_start = w.child_start + (ours.start - w.our_base);
      child->parents_.Insert(child_start, ours.size,
                             LinkTarget{ours.value.cache, ours.value.base,
                                        ours.value.copy_on_reference ||
                                            w.copy_on_reference});
    }
  }

  // History links in *other* caches targeting us must be retargeted to the child:
  // we were the snapshot-holder for the child, so originals that a source would
  // have pushed into us now belong directly in the child.  Ranges the child does
  // not read through us have no reader left and are dropped.
  for (PvmCache* other : LinkingCaches(cache.inbound_history_links_, cache)) {
    std::vector<LinkFragment> pointing;
    other->histories_.ForEach([&](const LinkFragment& frag) {
      if (frag.value.cache == &cache) {
        pointing.push_back(frag);
      }
    });
    for (const auto& frag : pointing) {
      other->histories_.Erase(frag.start, frag.size);
      // frag maps other's [start, start+size) to our offsets [base, base+size).
      for (const Window& w : windows) {
        SegOffset lo = frag.value.base > w.our_base ? frag.value.base : w.our_base;
        SegOffset hi_a = frag.value.base + frag.size;
        SegOffset hi_b = w.our_base + w.size;
        SegOffset hi = hi_a < hi_b ? hi_a : hi_b;
        if (lo >= hi) {
          continue;
        }
        SegOffset other_start = frag.start + (lo - frag.value.base);
        SegOffset child_start = w.child_start + (lo - w.our_base);
        other->histories_.Insert(other_start, hi - lo, LinkTarget{child, child_start, false});
      }
    }
  }

  // Our own history links are inert (a dying cache has no mappings, hence no
  // writes).  Cascade-reap our former parents that might only have been kept
  // alive by us.
  std::vector<CacheId> former_parents = ParentIds(cache);
  cache.histories_.Clear();
  cache.parents_.Clear();
  assert(cache.inbound_parent_links_.empty() && cache.inbound_history_links_.empty());
  ++detail_.caches_collapsed;
  caches_.erase(cache.id());
  ReapFormerParents(lock, former_parents);
  return true;
}

}  // namespace gvm
