// Introspection: a Figure 3-style rendering of history trees and a structural
// invariant walker used by the property tests.
#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/pvm/paged_vm.h"
#include "src/util/log.h"

namespace gvm {

std::vector<PvmCache*> PagedVm::ChildrenOfCache(PvmCache* parent) const {
  std::vector<PvmCache*> children;
  for (const auto& [child, fragments] : parent->inbound_parent_links_) {
    if (child != parent) {
      children.push_back(child);
    }
  }
  std::sort(children.begin(), children.end(),
            [](PvmCache* a, PvmCache* b) { return a->id() < b->id(); });
  return children;
}

std::string PagedVm::DumpTree(Cache& cache) const {
  MutexLock lock(mu_);
  auto& start = static_cast<PvmCache&>(cache);
  // Find the root by walking parent links upward from `cache`.
  PvmCache* root = &start;
  for (int depth = 0; depth < 1024; ++depth) {
    PvmCache* up = nullptr;
    root->parents_.ForEach([&](const LinkFragment& frag) {
      if (up == nullptr) {
        up = frag.value.cache;
      }
    });
    if (up == nullptr) {
      break;
    }
    root = up;
  }
  std::ostringstream out;
  std::unordered_set<const PvmCache*> visited;
  // Depth-first render.
  struct Item {
    PvmCache* cache;
    int depth;
  };
  std::vector<Item> stack{{root, 0}};
  while (!stack.empty()) {
    Item item = stack.back();
    stack.pop_back();
    if (!visited.insert(item.cache).second) {
      continue;
    }
    for (int i = 0; i < item.depth; ++i) {
      out << "  ";
    }
    out << item.cache->name() << " (id=" << item.cache->id();
    if (item.cache->dying_) {
      out << ", dying";
    }
    out << ") pages=[";
    std::vector<SegOffset> offsets;
    for (const PageDesc& page : item.cache->pages_) {
      offsets.push_back(page.offset);
    }
    std::sort(offsets.begin(), offsets.end());
    for (size_t i = 0; i < offsets.size(); ++i) {
      if (i > 0) {
        out << " ";
      }
      out << offsets[i] / page_size();
      PageDesc* page = const_cast<PagedVm*>(this)->FindOwned(*item.cache, offsets[i]);
      if (page != nullptr && IsCowProtected(*page)) {
        out << "*";  // the figure's grey (read-only protected) frames
      }
    }
    out << "]";
    bool first_hist = true;
    item.cache->histories_.ForEach([&](const LinkFragment& frag) {
      out << (first_hist ? " history={" : ", ");
      first_hist = false;
      out << frag.value.cache->name() << ":[" << frag.start / page_size() << ".."
          << (frag.end() - 1) / page_size() << "]";
    });
    if (!first_hist) {
      out << "}";
    }
    out << "\n";
    auto children = ChildrenOfCache(item.cache);
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack.push_back(Item{*it, item.depth + 1});
    }
  }
  return out.str();
}

std::string PagedVm::DumpStats() const {
  auto* self = const_cast<PagedVm*>(this);
  const Cpu::Stats cs = self->cpu().SnapshotStats();
  const Mmu::Stats ms = self->mmu().stats();
  MutexLock lock(self->mu_);
  const MmStats& mm = self->mutable_stats();  // stats() would re-lock mu_
  const PvmDetailStats& d = detail_;
  std::ostringstream out;
  out << "mm: faults=" << mm.page_faults << " prot_faults=" << mm.protection_faults
      << " zero_fills=" << mm.zero_fills << " pull_ins=" << mm.pull_ins
      << " push_outs=" << mm.push_outs << " cow_copies=" << mm.cow_copies
      << " paged_out=" << mm.pages_paged_out << "\n";
  out << "pvm: stub_waits=" << d.sync_stub_waits << " working=" << d.working_objects
      << " history_pushes=" << d.history_pushes << " per_page_stubs=" << d.per_page_stubs
      << " stub_resolutions=" << d.stub_resolutions << " ancestor_lookups=" << d.ancestor_lookups
      << " collapsed=" << d.caches_collapsed << " reaped=" << d.caches_reaped
      << " retargets=" << d.move_retargets << " link_visits=" << d.reverse_link_visits << "\n";
  out << "recovery: io_retries=" << d.io_retries << " io_permanent=" << d.io_permanent_failures
      << " pushout_requeues=" << d.pushout_requeues << " degraded=" << d.degraded_segments
      << " alloc_retries=" << d.alloc_pressure_retries
      << " pullin_clustered=" << d.pullin_clustered << "\n";
  out << "crash: mapper_crashes=" << d.mapper_crashes_observed
      << " recoveries=" << d.recoveries_completed
      << " journal_replays=" << d.journal_replays
      << " journal_discarded=" << d.journal_records_discarded
      << " reissued=" << d.requests_reissued << "\n";
  out << "tlb: hits=" << cs.tlb_hits << " huge_hits=" << cs.tlb_huge_hits
      << " misses=" << cs.tlb_misses
      << " shootdowns=" << cs.tlb_shootdowns << " shootdown_pages=" << cs.tlb_shootdown_pages
      << " shootdown_ranges=" << cs.tlb_shootdown_ranges << "\n";
  const PhysicalMemory::Stats ps = memory().stats();
  out << "huge: promotions=" << d.promotions << " demotions=" << d.demotions
      << " demote_cow=" << d.demote_cow << " demote_pageout=" << d.demote_pageout
      << " run_allocs=" << ps.run_allocations << " run_failures=" << ps.run_failures
      << "\n";
  out << "frames: allocs=" << ps.allocations << " frees=" << ps.frees
      << " magazine_hits=" << ps.magazine_hits << " refills=" << ps.magazine_refills
      << " drains=" << ps.magazine_drains << " steals=" << ps.magazine_steals
      << " reserve_grants=" << ps.reserve_grants
      << " lowmem_kicks=" << ps.low_memory_kicks << "\n";
  out << "pressure: sweeps=" << d.sweeps_started << " sweep_waits=" << d.sweep_waits
      << " daemon_wakeups=" << d.daemon_wakeups << " passes=" << d.daemon_passes
      << " daemon_reclaimed=" << d.frames_reclaimed_daemon
      << " batches=" << d.batch_pushes << "/" << d.batch_push_pages
      << " soft_faults=" << d.soft_faults << " standby_hits=" << d.standby_hits
      << " ws_trims=" << d.ws_trims << " throttles=" << d.thrash_throttles
      << " stalls=" << d.pageout_stalls << " lowmem_faults=" << d.low_memory_faults
      << " modified=" << modified_queue_.size() << " standby=" << standby_queue_.size()
      << "\n";
  out << "mmu: maps=" << ms.maps << " unmaps=" << ms.unmaps << " protects=" << ms.protects
      << " translations=" << ms.translations << " faults=" << ms.faults
      << " spaces=" << ms.spaces_created << "/" << ms.spaces_destroyed << "\n";
  return out.str();
}

Status PagedVm::CheckInvariants() const {
  MutexLock lock(mu_);
  auto* self = const_cast<PagedVm*>(this);
  bool ok = true;
  auto fail = [&ok](const std::string& what) {
    GVM_LOG(Error) << "invariant violated: " << what;
    ok = false;
  };

  std::unordered_set<const PageDesc*> all_pages;
  std::unordered_set<const PvmCache*> live_caches;
  for (const auto& [id, cache] : caches_) {
    live_caches.insert(cache.get());
  }
  std::unordered_map<const PvmCache*, ReverseLinks> expected_parent_links;
  std::unordered_map<const PvmCache*, ReverseLinks> expected_history_links;
  for (const auto& [id, cache] : caches_) {
    for (const PageDesc& page : cache->pages_) {
      all_pages.insert(&page);
      // Page descriptors point back at their cache and are in the global map.
      if (page.cache != cache.get()) {
        fail("page back-pointer does not match owning cache " + cache->name());
      }
      MapEntry* entry = self->map_.Find(cache->id(), page.offset / page_size());
      if (entry == nullptr || entry->kind != MapEntry::Kind::kFrame ||
          entry->page != &page) {
        fail("page of " + cache->name() + " missing from the global map");
      }
      if (!memory().IsAllocated(page.frame)) {
        fail("page of " + cache->name() + " references a free frame");
      }
      // A resident page must have drained its cache's inbound stub slot.
      if (cache->inbound_stubs_.contains(page.offset / page_size())) {
        fail("resident page of " + cache->name() + " has undrained inbound stubs");
      }
      // Every mapping is real and points at our frame.
      for (const MappingRef& ref : page.mappings) {
        Result<MmuEntry> mmu_entry = mmu().Lookup(ref.as, ref.va);
        if (!mmu_entry.ok() || mmu_entry->frame != page.frame) {
          fail("stale MMU mapping for page of " + cache->name());
        }
      }
      // Threaded stubs point back.
      for (const CowStub* stub : page.stubs) {
        if (stub->src_page != &page) {
          fail("stub threading mismatch on " + cache->name());
        }
      }
    }
    // Parent/history links target live caches; history links have a matching
    // reverse parent link (the shape invariant, fragment-wise).
    cache->parents_.ForEach([&](const LinkFragment& frag) {
      if (!live_caches.contains(frag.value.cache)) {
        fail("dangling parent link from " + cache->name());
        return;
      }
      ++expected_parent_links[frag.value.cache][cache.get()];
    });
    cache->histories_.ForEach([&](const LinkFragment& frag) {
      if (!live_caches.contains(frag.value.cache)) {
        fail("dangling history link from " + cache->name());
        return;
      }
      ++expected_history_links[frag.value.cache][cache.get()];
      // The history object must read back through us (or through a chain that
      // reaches us) for the linked range: check the immediate-parent property on
      // the fragment's first page.
      PvmCache* history = frag.value.cache;
      const auto* back = history->parents_.Find(frag.value.base);
      if (back == nullptr) {
        fail("history object " + history->name() + " has no parent link for range from " +
             cache->name());
      } else if (back->value.cache != cache.get()) {
        fail("history object " + history->name() + " does not read through " + cache->name());
      }
    });
    // A deferred reap must not outlive the pins that deferred it.
    if (cache->reap_deferred_ && cache->upcall_pins_ == 0) {
      fail("deferred reap of unpinned cache " + cache->name());
    }
  }
  // The reverse-link tables equal the brute-force count of every link list's
  // fragments, target by target: no linking cache is missing, none is stale.
  for (const auto& [id, cache] : caches_) {
    if (cache->inbound_parent_links_ != expected_parent_links[cache.get()]) {
      fail("reverse parent-link table of " + cache->name() + " does not match the links");
    }
    if (cache->inbound_history_links_ != expected_history_links[cache.get()]) {
      fail("reverse history-link table of " + cache->name() + " does not match the links");
    }
  }

  // Pageout-queue consistency (DESIGN.md §15): the per-page queue tag matches
  // list membership exactly, and every queued page is a settled reclaim
  // candidate — unmapped, unpinned, not in transit, and resident.
  {
    std::unordered_set<const PageDesc*> queued;
    auto check_queue = [&](const std::list<PageDesc*>& q, PageQueue tag,
                           const char* name) {
      for (const PageDesc* page : q) {
        if (!all_pages.contains(page)) {
          fail(std::string(name) + " queue holds a freed page descriptor");
          continue;
        }
        if (!queued.insert(page).second) {
          fail(std::string(name) + " queue holds a page twice / on both queues");
        }
        if (page->queue != tag) {
          fail(std::string(name) + " queue member has a mismatched queue tag");
        }
        if (!page->mappings.empty() || page->pin_count > 0 || page->in_transit) {
          fail(std::string(name) + " queue holds an unsettled page");
        }
      }
    };
    check_queue(modified_queue_, PageQueue::kModified, "modified");
    check_queue(standby_queue_, PageQueue::kStandby, "standby");
    for (const PageDesc* page : all_pages) {
      if (page->queue != PageQueue::kNone && !queued.contains(page)) {
        fail("page tagged as queued is on neither pageout queue");
      }
    }
  }
  // Working-set consistency: sets exist only for live address spaces, index
  // and FIFO agree, and every tracked page really is mapped into that space.
  for (const auto& [as, ws] : working_sets_) {
    if (!ContextLiveLocked(as)) {
      fail("working set of a destroyed address space");
    }
    if (ws.index.size() != ws.fifo.size()) {
      fail("working-set index/FIFO size mismatch");
    }
    for (const PageDesc* page : ws.fifo) {
      if (!all_pages.contains(page)) {
        fail("working set tracks a freed page descriptor");
        continue;
      }
      auto idx = ws.index.find(const_cast<PageDesc*>(page));
      if (idx == ws.index.end() || &**idx->second != page) {
        fail("working-set index entry missing or pointing at the wrong node");
      }
      bool mapped_here = false;
      for (const MappingRef& ref : page->mappings) {
        if (ref.as == as) {
          mapped_here = true;
        }
      }
      if (!mapped_here) {
        fail("working-set member has no mapping in its address space");
      }
    }
  }

  // Every global-map entry is consistent, and each cache's stub index lists
  // exactly its stub entries.
  std::unordered_map<CacheId, std::unordered_set<uint64_t>> cow_stub_pages;
  std::unordered_map<CacheId, size_t> sync_stubs;
  self->map_.ForEach([&](const GlobalMap::Key& key, const MapEntry& entry) {
    auto cache_it = caches_.find(key.cache);
    if (cache_it == caches_.end()) {
      fail("global-map entry for a dead cache");
      return;
    }
    if (entry.kind == MapEntry::Kind::kCowStub) {
      cow_stub_pages[key.cache].insert(key.page_index);
    } else if (entry.kind == MapEntry::Kind::kSyncStub) {
      ++sync_stubs[key.cache];
    }
    if (entry.kind == MapEntry::Kind::kFrame) {
      if (entry.page == nullptr || !all_pages.contains(entry.page)) {
        fail("global-map frame entry points at an unowned page descriptor");
      }
    } else if (entry.kind == MapEntry::Kind::kCowStub) {
      const CowStub& stub = *entry.cow;
      if (stub.cache != cache_it->second.get() ||
          stub.offset / page_size() != key.page_index) {
        fail("cow stub identity mismatch");
      }
      if (stub.src_page != nullptr) {
        if (!all_pages.contains(stub.src_page)) {
          fail("cow stub points at a freed source page");
        } else {
          bool threaded = false;
          for (const CowStub* t : stub.src_page->stubs) {
            if (t == &stub) {
              threaded = true;
            }
          }
          if (!threaded) {
            fail("cow stub not threaded on its source page");
          }
        }
      }
    }
  });

  for (const auto& [id, cache] : caches_) {
    if (cache->cow_stub_pages_ != cow_stub_pages[id]) {
      fail("cow-stub index of " + cache->name() + " does not match the global map");
    }
    if (cache->sync_stubs_ != sync_stubs[id]) {
      fail("sync-stub count of " + cache->name() + " does not match the global map");
    }
  }

  return ok ? Status::kOk : Status::kBusError;
}

}  // namespace gvm
