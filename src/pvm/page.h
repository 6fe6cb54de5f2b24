// PVM page-level data structures (paper section 4.1.1, Figure 2):
//   * PageDesc   — the real page descriptor: back pointer to its cache, the page's
//                  offset in the segment, plus reverse mappings and threaded
//                  copy-on-write stubs.
//   * CowStub    — the per-virtual-page copy-on-write stub of section 4.3.
//   * GlobalMap  — "a single global map, hashing real page descriptors by the
//                  page's cache and its offset in the segment", where a page may be
//                  replaced by a synchronization page stub while in transit.
#ifndef GVM_SRC_PVM_PAGE_H_
#define GVM_SRC_PVM_PAGE_H_

#include <cassert>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/gmi/types.h"
#include "src/hal/types.h"

namespace gvm {

class PvmCache;
class RegionImpl;
struct PageDesc;

// One place a frame is mapped into an MMU, kept on the owning PageDesc so that
// protection downgrades and unmapping are O(mappings), independent of region size.
// `via_cache` distinguishes the owner's own regions from *foreign* mappings —
// read-only mappings installed for a copy cache that resolved a miss by looking the
// page up in an ancestor (section 4.2.2).  Foreign mappings must be torn down
// before the owner may write the page.
struct MappingRef {
  AsId as = kInvalidAsId;
  Vaddr va = 0;
  RegionImpl* region = nullptr;
  PvmCache* via_cache = nullptr;
};

// Per-virtual-page copy-on-write stub (section 4.3).  "The stub allows to find the
// corresponding source page: if the latter is in real memory, the stub contains a
// pointer to the source page descriptor; otherwise, it contains a pointer to the
// source local-cache descriptor and its offset within the source segment."
struct CowStub {
  PvmCache* cache = nullptr;   // destination cache this stub belongs to
  SegOffset offset = 0;        // destination page offset
  PageDesc* src_page = nullptr;  // resident form: threaded on src_page->stubs
  PvmCache* src_cache = nullptr;  // non-resident form
  SegOffset src_offset = 0;
};

// Which global pageout queue a page is threaded on (DESIGN.md §15).  Unmapped
// resident pages sit on the modified queue (believed dirty: must be pushed
// before the frame can be reused) or the standby queue (believed clean or
// already pushed: the frame is reclaimable immediately, and a re-fault is a
// *soft fault* — the page is rescued from the queue with no mapper I/O).
// Mapped, pinned or in-transit pages are on no queue.  Membership is advisory:
// the daemon revalidates dirtiness at pop time and requeues mismatches.
enum class PageQueue : uint8_t { kNone, kModified, kStandby };

// Real page descriptor (section 4.1.1).
struct PageDesc {
  PvmCache* cache = nullptr;  // back pointer to the cache descriptor
  SegOffset offset = 0;       // the page's offset in the segment (page aligned)
  FrameIndex frame = kInvalidFrame;
  Prot max_prot = Prot::kAll;  // cache-level cap (cache.setProtection, read-only pullIn)
  uint32_t pin_count = 0;      // lockInMemory nesting
  bool sw_dirty = false;       // known modified relative to the segment
  bool in_transit = false;     // pushOut in progress: accesses sleep, like a sync stub
  PageQueue queue = PageQueue::kNone;  // pageout queue membership ...
  std::list<PageDesc*>::iterator queue_pos;  // ... and position (valid iff queue != kNone)
  std::vector<MappingRef> mappings;
  std::vector<CowStub*> stubs;  // stubs whose source is this page ("threaded together
                                // on a list attached to its page descriptor")
  std::list<PageDesc>::iterator self;  // position in the cache's page list
};

// Pins a page across a frame allocation.  BalanceFreeFrames frees clean
// reproducible pages *without* dropping the manager lock, so a PageDesc held
// across AllocateFrame/MaterializePage can die even when `dropped_lock` stays
// false; the pin keeps it off the victim list for the duration.
class PagePin {
 public:
  explicit PagePin(PageDesc& page) : page_(page) { ++page_.pin_count; }
  ~PagePin() { --page_.pin_count; }
  PagePin(const PagePin&) = delete;
  PagePin& operator=(const PagePin&) = delete;

 private:
  PageDesc& page_;
};

// Global map entry: a resident page, a synchronization stub (data in transit), or a
// per-virtual-page copy-on-write stub.
struct MapEntry {
  enum class Kind : uint8_t { kFrame, kSyncStub, kCowStub };
  Kind kind = Kind::kFrame;
  PageDesc* page = nullptr;            // kFrame
  std::unique_ptr<CowStub> cow;        // kCowStub (owned here; threaded raw elsewhere)
};

class GlobalMap {
 public:
  struct Key {
    CacheId cache;
    uint64_t page_index;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t x = k.cache * 0x9e3779b97f4a7c15ull ^ (k.page_index + 0x7f4a7c15ull);
      x ^= x >> 33;
      return static_cast<size_t>(x);
    }
  };

  MapEntry* Find(CacheId cache, uint64_t page_index) {
    auto it = map_.find(Key{cache, page_index});
    return it == map_.end() ? nullptr : &it->second;
  }

  // Inserts and returns the entry; the slot must be empty.
  MapEntry& Insert(CacheId cache, uint64_t page_index, MapEntry entry) {
    auto [it, inserted] = map_.emplace(Key{cache, page_index}, std::move(entry));
    (void)inserted;
    return it->second;
  }

  // Removes the entry, which must exist, and returns its kind.
  MapEntry::Kind Erase(CacheId cache, uint64_t page_index) {
    auto it = map_.find(Key{cache, page_index});
    assert(it != map_.end());
    const MapEntry::Kind kind = it->second.kind;
    map_.erase(it);
    return kind;
  }

  size_t size() const { return map_.size(); }

  size_t CountKind(MapEntry::Kind kind) const {
    size_t n = 0;
    for (const auto& [key, entry] : map_) {
      if (entry.kind == kind) {
        ++n;
      }
    }
    return n;
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [key, entry] : map_) {
      fn(key, entry);
    }
  }

 private:
  std::unordered_map<Key, MapEntry, KeyHash> map_;
};

}  // namespace gvm

#endif  // GVM_SRC_PVM_PAGE_H_
