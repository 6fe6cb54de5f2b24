// PvmCache: the PVM's cache descriptor (paper section 4.1.1, Figure 2), plus the
// deferred-copy tree links of section 4.2.
//
// A cache descriptor holds an identifier of its data segment and the list of its
// currently-cached real page descriptors.  For deferred copies it additionally
// carries two fragment lists (section 4.2.4 generalization):
//   * parents_   — where cache misses are resolved, walking towards the tree root;
//   * histories_ — which cache receives original page values when this cache (a
//                  copy source) modifies a page.
//
// All operations delegate to the owning PagedVm, which holds the manager-wide lock
// and the global map.
#ifndef GVM_SRC_PVM_PVM_CACHE_H_
#define GVM_SRC_PVM_PVM_CACHE_H_

#include <cassert>
#include <list>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "src/gmi/cache.h"
#include "src/gmi/segment_driver.h"
#include "src/pvm/fragment_map.h"
#include "src/pvm/page.h"

namespace gvm {

class PagedVm;

// Value type of the parent/history fragment lists: the target cache and the offset
// in it corresponding to the fragment's start.
struct LinkTarget {
  PvmCache* cache = nullptr;
  SegOffset base = 0;
  // Parent links only: resolve misses by materializing a private copy immediately
  // (copy-on-reference) instead of mapping the ancestor page read-only.
  bool copy_on_reference = false;

  LinkTarget Advanced(uint64_t delta) const {
    return LinkTarget{cache, base + delta, copy_on_reference};
  }
  bool operator==(const LinkTarget&) const = default;
};

// Reverse-link table of a cache: for every cache holding fragments that target
// it, how many.
using ReverseLinks = std::unordered_map<PvmCache*, uint32_t>;

// FragmentMap hook that keeps the target side of a link list exact: each
// fragment of `owner`'s list targeting cache T is counted in T's `reverse`
// table, and `owner` leaves that table with its last such fragment.
struct ReverseLinkHook {
  PvmCache* owner = nullptr;
  ReverseLinks PvmCache::*reverse = nullptr;

  void Added(const LinkTarget& link) const;
  void Removed(const LinkTarget& link) const;
};

using LinkMap = FragmentMap<LinkTarget, ReverseLinkHook>;
using LinkFragment = LinkMap::Fragment;

class PvmCache final : public Cache {
 public:
  PvmCache(PagedVm& vm, CacheId id, std::string name, SegmentDriver* driver, bool temporary);
  ~PvmCache() override;

  // ---- gmi::Cache ----
  CacheId id() const override { return id_; }
  const std::string& name() const override { return name_; }
  SegmentDriver* driver() const override { return driver_; }

  [[nodiscard]] Status CopyTo(Cache& dst, SegOffset src_offset, SegOffset dst_offset, size_t size,
                CopyPolicy policy) override;
  [[nodiscard]] Status MoveTo(Cache& dst, SegOffset src_offset, SegOffset dst_offset, size_t size) override;
  [[nodiscard]] Status Read(SegOffset offset, void* buffer, size_t size) override;
  [[nodiscard]] Status Write(SegOffset offset, const void* buffer, size_t size) override;
  [[nodiscard]] Status Destroy() override;

  [[nodiscard]] Status FillUp(SegOffset offset, const void* data, size_t size,
                Prot max_prot = Prot::kAll) override;
  [[nodiscard]] Status FillZero(SegOffset offset, size_t size) override;
  [[nodiscard]] Status CopyBack(SegOffset offset, void* buffer, size_t size) override;
  [[nodiscard]] Status MoveBack(SegOffset offset, void* buffer, size_t size) override;
  [[nodiscard]] Status Flush() override;
  [[nodiscard]] Status Sync() override;
  [[nodiscard]] Status Invalidate(SegOffset offset, size_t size) override;
  [[nodiscard]] Status SetProtection(SegOffset offset, size_t size, Prot max_prot) override;
  [[nodiscard]] Status LockInMemory(SegOffset offset, size_t size) override;
  [[nodiscard]] Status Unlock(SegOffset offset, size_t size) override;

  size_t ResidentPages() const override;
  size_t MappingCount() const override;

  // ---- Tree introspection (tests, Figure 3 reproduction) ----
  // The parent cache resolving misses at `offset`, or nullptr at the tree root.
  PvmCache* ParentAt(SegOffset offset) const;
  // The history object receiving originals for writes at `offset`, or nullptr.
  PvmCache* HistoryAt(SegOffset offset) const;
  bool temporary() const { return temporary_; }
  bool dying() const { return dying_; }
  // True while repeated pushOut failures have tripped this cache into degraded
  // mode: writes are refused with kBusError, reads are still served, and the
  // first successful pushOut (e.g. a Sync() once the mapper heals) recovers it.
  bool degraded() const;

 private:
  friend class PagedVm;

  PagedVm& vm_;
  const CacheId id_;
  std::string name_;
  SegmentDriver* driver_;  // lazily assigned for temporaries (segmentCreate upcall)
  const bool temporary_;   // zero-fill on a miss with no parent and no pushed page
  bool dying_ = false;     // destroyed by its user but kept for descendants (4.2.5)
  bool driver_requested_ = false;  // segmentCreate upcall already performed

  std::list<PageDesc> pages_;  // the doubly-linked list of cached real pages
  // Reverse links (DESIGN.md §17): the caches whose parents_ (histories_) hold
  // fragments targeting this cache — its children, and the copy sources that
  // push originals into it.  Exact at all times: the hooks on parents_ and
  // histories_ maintain them, and a cache clears both lists before it is freed.
  ReverseLinks inbound_parent_links_;
  ReverseLinks inbound_history_links_;
  LinkMap parents_{ReverseLinkHook{this, &PvmCache::inbound_parent_links_}};
  LinkMap histories_{ReverseLinkHook{this, &PvmCache::inbound_history_links_}};
  // Per-page stubs in their non-resident form ("pointer to the source local-cache
  // descriptor and its offset"), indexed by source page so they can be re-threaded
  // onto the page descriptor the moment the page becomes resident again.
  // Invariant: if (this, index) is resident, inbound_stubs_ has no entry for it.
  std::unordered_map<uint64_t, std::vector<CowStub*>> inbound_stubs_;
  // Page indices whose authoritative copy lives in this cache's own segment
  // (pushed out at least once).  Lets the miss walk decide between continuing to
  // an ancestor, pulling in from our segment, and zero-filling.
  std::unordered_set<uint64_t> pushed_pages_;
  // This cache's stub entries in the global map, so that teardown and the
  // collapse check never scan the whole map: the page indices holding a
  // kCowStub, and the number of kSyncStubs.  kFrame entries are not indexed
  // (pages_ lists them).  Maintained by PagedVm::MapInsert/MapErase/MapSetFrame.
  std::unordered_set<uint64_t> cow_stub_pages_;
  size_t sync_stubs_ = 0;
  size_t mapping_count_ = 0;  // regions currently mapping this cache
  // Upcalls in flight on this cache (the manager lock is dropped around each).
  // While nonzero a reap or collapse is deferred (reap_deferred_ records that
  // one was asked for) and the last unpin re-runs it.
  uint32_t upcall_pins_ = 0;
  bool reap_deferred_ = false;
  int pushout_failures_ = 0;  // consecutive failed push-outs (reset on success)
  bool degraded_ = false;     // writes refused until a pushOut succeeds again
  // Bumped by every write-revoking setProtection and every invalidate (the
  // analogue of a TLB-shootdown generation count).  A getWriteAccess upcall
  // runs with the VM lock dropped; comparing this before and after tells the
  // write-fault path whether a recall raced the grant, in which case the
  // grant's local effect must be discarded and the access retried.
  uint64_t revoke_epoch_ = 0;
};

inline void ReverseLinkHook::Added(const LinkTarget& link) const {
  ++(link.cache->*reverse)[owner];
}

inline void ReverseLinkHook::Removed(const LinkTarget& link) const {
  ReverseLinks& table = link.cache->*reverse;
  auto it = table.find(owner);
  assert(it != table.end() && it->second > 0);
  if (--it->second == 0) {
    table.erase(it);
  }
}

}  // namespace gvm

#endif  // GVM_SRC_PVM_PVM_CACHE_H_
