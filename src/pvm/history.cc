// History-object deferred copy (paper section 4.2) and the other copy engines.
//
// The tree construction rules implemented here:
//   * A tree is rooted at the source of a copy; successive copies add new leaves.
//   * Shape invariant: each source of a copy operation has a single immediate
//     descendant, its history object (section 4.2.1).
//   * First copy of a fragment: the destination becomes the source's history.
//   * A later copy of an already-copied fragment inserts a *working object* (w1,
//     w2, ...) between the source and its previous descendants (section 4.2.3,
//     Figures 3.c/3.d).
//   * Fragments may have different, arbitrary parents (section 4.2.4); both the
//     parent and the history attribute are fragment lists.
#include <cassert>
#include <vector>

#include "src/pvm/paged_vm.h"
#include "src/util/align.h"
#include "src/util/log.h"

namespace gvm {

Status PagedVm::CopyRange(MutexLock& lock, PvmCache& src, SegOffset src_off,
                          PvmCache& dst, SegOffset dst_off, size_t size, CopyPolicy policy) {
  if (size == 0) {
    return Status::kOk;
  }
  const size_t page = page_size();
  const bool aligned =
      IsAligned(src_off, page) && IsAligned(dst_off, page) && IsAligned(size, page);
  if (policy == CopyPolicy::kAuto) {
    if (!aligned) {
      policy = CopyPolicy::kEager;
    } else if (PagesFor(size, page) <= options_.per_page_threshold_pages) {
      policy = CopyPolicy::kPerPage;
    } else {
      policy = CopyPolicy::kHistory;
    }
  }
  if (policy == CopyPolicy::kEager) {
    return EagerCopy(lock, src, src_off, dst, dst_off, size);
  }
  if (!aligned) {
    return Status::kInvalidArgument;  // deferred techniques are page-granular
  }
  if (&src == &dst) {
    // Deferred self-copies would alias the tree; run them eagerly.
    return EagerCopy(lock, src, src_off, dst, dst_off, size);
  }
  switch (policy) {
    case CopyPolicy::kHistory:
      return HistoryCopy(lock, src, src_off, dst, dst_off, size, /*copy_on_reference=*/false);
    case CopyPolicy::kHistoryOnRef:
      return HistoryCopy(lock, src, src_off, dst, dst_off, size, /*copy_on_reference=*/true);
    case CopyPolicy::kPerPage:
      return PerPageCopy(lock, src, src_off, dst, dst_off, size);
    default:
      return Status::kInvalidArgument;
  }
}

// ---------------------------------------------------------------------------
// Destination preparation
// ---------------------------------------------------------------------------

Status PagedVm::SecureHistorySnapshots(MutexLock& lock, PvmCache& cache,
                                       SegOffset offset, size_t size) {
  // If `cache` is itself a copy source, its history object is owed the cache's
  // *current* values before they change wholesale.  We materialize them eagerly:
  // this only happens in the unusual "copy into / move out of a segment that has
  // itself been copied" pattern (see DESIGN.md), where correctness beats deferral.
  const size_t page = page_size();
  for (const auto& frag : cache.histories_.Overlapping(offset, size)) {
    PvmCache* history = frag.value.cache;
    for (SegOffset off = frag.start; off < frag.start + frag.size; off += page) {
      SegOffset h_off = frag.value.base + (off - frag.start);
      for (int rounds = 0;; ++rounds) {
        if (rounds > 4096) {
          return Status::kBusError;
        }
        MapEntry* h_entry = map_.Find(history->id(), PageIndex(h_off));
        if (h_entry != nullptr || history->pushed_pages_.contains(PageIndex(h_off))) {
          break;  // history already has its own version (or a stub defining one)
        }
        bool dropped = false;
        Result<PageDesc*> value = ResolveValue(lock, cache, off, &dropped);
        if (!value.ok()) {
          return value.status();
        }
        if (dropped) {
          continue;
        }
        PagePin value_pin(**value);
        Result<PageDesc*> copy = MaterializePage(lock, *history, h_off, (*value)->frame,
                                                 /*dirty=*/true, Prot::kAll);
        if (copy.ok()) {
          ++detail_.history_pushes;
          ++mutable_stats().cow_copies;
          break;
        }
        if (copy.status() != Status::kRetry) {
          return copy.status();
        }
      }
    }
  }
  return Status::kOk;
}

Status PagedVm::ClearDestinationRange(MutexLock& lock, PvmCache& dst,
                                      SegOffset dst_off, size_t size) {
  const size_t page = page_size();
  GVM_RETURN_IF_ERROR(SecureHistorySnapshots(lock, dst, dst_off, size));
  dst.histories_.Erase(dst_off, size);

  // Sever history links in *other* caches that point into the overwritten range:
  // dst's matching parent link to them disappears below, so the push obligation
  // disappears with it.  Leaving such links stale would let an old source push
  // originals into dst after the overwrite — corrupting the new copy.
  for (PvmCache* other : LinkingCaches(dst.inbound_history_links_, dst)) {
    std::vector<std::pair<SegOffset, uint64_t>> stale;  // in `other`'s offsets
    other->histories_.ForEach([&](const LinkFragment& frag) {
      if (frag.value.cache != &dst) {
        return;
      }
      // frag maps other's [start, start+size) to dst's [base, base+size).
      SegOffset lo = frag.value.base > dst_off ? frag.value.base : dst_off;
      SegOffset hi_a = frag.value.base + frag.size;
      SegOffset hi_b = dst_off + size;
      SegOffset hi = hi_a < hi_b ? hi_a : hi_b;
      if (lo < hi) {
        stale.emplace_back(frag.start + (lo - frag.value.base), hi - lo);
      }
    });
    for (const auto& [start, len] : stale) {
      other->histories_.Erase(start, len);
    }
  }

  // Drop the destination's own state over the range: owned pages, stubs, any
  // stale pushed-out copies, and old parent links.
  for (SegOffset off = dst_off; off < dst_off + size; off += page) {
    // Per-page stubs elsewhere that source their value from this offset must be
    // given their snapshot before the value is overwritten.
    GVM_RETURN_IF_ERROR(MaterializeStubsOf(lock, dst, off));
    for (int rounds = 0;; ++rounds) {
      if (rounds > 4096) {
        return Status::kBusError;
      }
      MapEntry* entry = FindEntry(dst, off);
      if (entry == nullptr) {
        break;
      }
      if (entry->kind == MapEntry::Kind::kFrame) {
        if (entry->page->in_transit) {
          ++detail_.sync_stub_waits;
          sleepers_.Wait(StubKey(dst, off), mu_);
          continue;
        }
        if (entry->page->pin_count > 0) {
          return Status::kLocked;
        }
        FreePage(entry->page);
        break;
      }
      if (entry->kind == MapEntry::Kind::kCowStub) {
        UnlinkStub(entry->cow.get());
        MapErase(dst, PageIndex(off));
        break;
      }
      // Sync stub: a pull-in is in flight; wait for it, then clear.
      ++detail_.sync_stub_waits;
      sleepers_.Wait(StubKey(dst, off), mu_);
    }
    dst.pushed_pages_.erase(PageIndex(off));
  }
  dst.parents_.Erase(dst_off, size);
  return Status::kOk;
}

void PagedVm::ProtectSourcePages(PvmCache& src, SegOffset src_off, size_t size) {
  // "All the pages of (the corresponding fragment of) the source are made
  // read-only" — O(resident pages), found through the global map.  This is the
  // fork/COW hot loop: gather the write-protect downgrades so the whole
  // fragment pays one shootdown fence instead of one per mapping.  Nothing in
  // the loop drops the manager lock or frees a frame.
  TlbGatherScope gather(&tlb());
  const size_t page = page_size();
  for (SegOffset off = src_off; off < src_off + size; off += page) {
    if (PageDesc* owned = FindOwned(src, off)) {
      WriteProtectPage(*owned);
      ++mutable_stats().deferred_copy_pages;
    }
  }
}

// ---------------------------------------------------------------------------
// History-object copy (section 4.2)
// ---------------------------------------------------------------------------

Status PagedVm::LinkCopy(MutexLock& lock, PvmCache& src, SegOffset src_off,
                         PvmCache& dst, SegOffset dst_off, size_t size, bool copy_on_reference) {
  (void)lock;
  // Walk the source range, alternating between sub-ranges that already have a
  // history (insert a working object) and ones that do not (direct link).
  SegOffset cur = src_off;
  const SegOffset end = src_off + size;
  while (cur < end) {
    const auto* frag = src.histories_.Find(cur);
    if (frag != nullptr) {
      // Figure 3.c: this sub-range was already copied once.  Insert a working
      // object `w` between src and its previous history H.
      const SegOffset seg_end = frag->end() < end ? frag->end() : end;
      const uint64_t len = seg_end - cur;
      PvmCache* old_history = frag->value.cache;
      const SegOffset h_base = frag->value.base + (cur - frag->start);

      Result<PvmCache*> working =
          CreateCacheLocked(nullptr, "w" + std::to_string(++working_counter_),
                            /*temporary=*/true);
      if (!working.ok()) {
        return working.status();
      }
      PvmCache* w = *working;
      ++detail_.working_objects;
      ++mutable_stats().history_objects;
      // w mirrors src's offsets for the covered range.
      w->parents_.Insert(cur, len, LinkTarget{&src, cur, false});
      // The old history H now reads through w instead of src for this range.
      for (const auto& h_frag : old_history->parents_.Overlapping(h_base, len)) {
        if (h_frag.value.cache == &src) {
          // Translate: H offsets -> src offsets == w offsets.
          old_history->parents_.Insert(h_frag.start, h_frag.size,
                                       LinkTarget{w, h_frag.value.base,
                                                  h_frag.value.copy_on_reference});
        }
      }
      // w's history is H: originals that src pushes down flow into w, and w's own
      // writes (there are none; w is MM-internal) would flow to H.
      w->histories_.Insert(cur, len, LinkTarget{old_history, h_base, false});
      // src's history for the range becomes w.
      src.histories_.Insert(cur, len, LinkTarget{w, cur, false});
      // The new copy reads through w.
      dst.parents_.Insert(dst_off + (cur - src_off), len,
                          LinkTarget{w, cur, copy_on_reference});
      cur = seg_end;
    } else {
      // Simple case (Figure 3.a): no history yet; dst becomes src's history.
      // Find where the direct sub-range ends (the next history fragment).
      SegOffset direct_end = end;
      for (const auto& next : src.histories_.Overlapping(cur, end - cur)) {
        // Find(cur) returned null, so the first overlapping fragment starts
        // strictly after cur.
        assert(next.start > cur);
        direct_end = next.start;
        break;
      }
      const uint64_t len = direct_end - cur;
      src.histories_.Insert(cur, len, LinkTarget{&dst, dst_off + (cur - src_off), false});
      dst.parents_.Insert(dst_off + (cur - src_off), len,
                          LinkTarget{&src, cur, copy_on_reference});
      cur = direct_end;
    }
  }
  return Status::kOk;
}

Status PagedVm::HistoryCopy(MutexLock& lock, PvmCache& src,
                            SegOffset src_off, PvmCache& dst, SegOffset dst_off, size_t size,
                            bool copy_on_reference) {
  GVM_RETURN_IF_ERROR(ClearDestinationRange(lock, dst, dst_off, size));
  GVM_RETURN_IF_ERROR(LinkCopy(lock, src, src_off, dst, dst_off, size, copy_on_reference));
  ProtectSourcePages(src, src_off, size);
  return Status::kOk;
}

// ---------------------------------------------------------------------------
// Per-virtual-page copy (section 4.3)
// ---------------------------------------------------------------------------

Status PagedVm::PerPageCopy(MutexLock& lock, PvmCache& src,
                            SegOffset src_off, PvmCache& dst, SegOffset dst_off, size_t size) {
  GVM_RETURN_IF_ERROR(ClearDestinationRange(lock, dst, dst_off, size));
  const size_t page = page_size();
  for (SegOffset delta = 0; delta < size; delta += page) {
    const SegOffset s_off = src_off + delta;
    const SegOffset d_off = dst_off + delta;
    for (int rounds = 0;; ++rounds) {
      if (rounds > 4096) {
        return Status::kBusError;
      }
      MapEntry* src_entry = FindEntry(src, s_off);
      auto stub = std::make_unique<CowStub>();
      stub->cache = &dst;
      stub->offset = d_off;
      if (src_entry == nullptr) {
        // Source page not resident: non-resident stub form; faults resolve it by
        // walking the source's tree (and re-thread once the page appears).
        stub->src_page = nullptr;
        stub->src_cache = &src;
        stub->src_offset = s_off;
      } else if (src_entry->kind == MapEntry::Kind::kFrame) {
        if (src_entry->page->in_transit) {
          ++detail_.sync_stub_waits;
          sleepers_.Wait(StubKey(src, s_off), mu_);
          continue;
        }
        // "For each page of the source fragment present in real memory, the PVM
        // protects the page read-only."
        WriteProtectPage(*src_entry->page);
        stub->src_page = src_entry->page;
      } else if (src_entry->kind == MapEntry::Kind::kCowStub) {
        // The source's own value is a stub; share its source.
        const CowStub& chain = *src_entry->cow;
        stub->src_page = chain.src_page;
        stub->src_cache = chain.src_cache;
        stub->src_offset = chain.src_offset;
      } else {
        ++detail_.sync_stub_waits;
        sleepers_.Wait(StubKey(src, s_off), mu_);
        continue;
      }
      CowStub* raw = stub.get();
      MapInsert(dst, PageIndex(d_off),
                MapEntry{.kind = MapEntry::Kind::kCowStub, .page = nullptr,
                         .cow = std::move(stub)});
      ThreadStub(raw);
      ++detail_.per_page_stubs;
      ++mutable_stats().deferred_copy_pages;
      break;
    }
  }
  return Status::kOk;
}

// ---------------------------------------------------------------------------
// Eager copy and move
// ---------------------------------------------------------------------------

Status PagedVm::EagerCopy(MutexLock& lock, PvmCache& src, SegOffset src_off,
                          PvmCache& dst, SegOffset dst_off, size_t size) {
  const size_t page = page_size();
  if (&src == &dst && src_off < dst_off + size && dst_off < src_off + size) {
    // Overlapping self-copy: read the whole source range first (memmove
    // semantics), then write it back.
    std::vector<std::byte> whole(size);
    GVM_RETURN_IF_ERROR(CacheRead(lock, src, src_off, whole.data(), size));
    mutable_stats().eager_copy_pages += PagesFor(size, page);
    return CacheWrite(lock, dst, dst_off, whole.data(), size);
  }
  // Transfer through a bounce buffer, page-sized pieces, honouring faults on both
  // sides.  Handles arbitrary alignment.
  std::vector<std::byte> bounce(page);
  size_t done = 0;
  while (done < size) {
    const SegOffset s = src_off + done;
    const SegOffset d = dst_off + done;
    size_t chunk = page - (s % page);
    if (chunk > size - done) {
      chunk = size - done;
    }
    if (chunk > page - (d % page)) {
      chunk = page - (d % page);
    }
    GVM_RETURN_IF_ERROR(CacheRead(lock, src, s, bounce.data(), chunk));
    GVM_RETURN_IF_ERROR(CacheWrite(lock, dst, d, bounce.data(), chunk));
    done += chunk;
    ++mutable_stats().eager_copy_pages;
  }
  return Status::kOk;
}

Status PagedVm::MoveRange(MutexLock& lock, PvmCache& src, SegOffset src_off,
                          PvmCache& dst, SegOffset dst_off, size_t size) {
  const size_t page = page_size();
  if (!IsAligned(src_off, page) || !IsAligned(dst_off, page) || !IsAligned(size, page)) {
    return Status::kInvalidArgument;
  }
  if (&src == &dst) {
    return Status::kInvalidArgument;
  }
  // The source's contents become undefined: any history object depending on the
  // source must first be made self-sufficient for the range.
  GVM_RETURN_IF_ERROR(SecureHistorySnapshots(lock, src, src_off, size));
  src.histories_.Erase(src_off, size);
  GVM_RETURN_IF_ERROR(ClearDestinationRange(lock, dst, dst_off, size));
  for (SegOffset delta = 0; delta < size; delta += page) {
    const SegOffset s_off = src_off + delta;
    const SegOffset d_off = dst_off + delta;
    // The source's value at this offset becomes undefined: satisfy any per-page
    // stubs that still source from it.
    GVM_RETURN_IF_ERROR(MaterializeStubsOf(lock, src, s_off));
    for (int rounds = 0;; ++rounds) {
      if (rounds > 4096) {
        return Status::kBusError;
      }
      MapEntry* entry = FindEntry(src, s_off);
      if (entry != nullptr && entry->kind == MapEntry::Kind::kFrame) {
        PageDesc* moving = entry->page;
        if (moving->in_transit) {
          ++detail_.sync_stub_waits;
          sleepers_.Wait(StubKey(src, s_off), mu_);
          continue;
        }
        if (moving->pin_count > 0) {
          return Status::kLocked;
        }
        // The source may owe its history the original before the page leaves.
        bool dropped = false;
        Status pushed = PushToHistory(lock, src, *moving, &dropped);
        if (pushed == Status::kRetry) {
          continue;
        }
        if (pushed != Status::kOk) {
          return pushed;
        }
        // Re-assign the real page to the destination cache — the paper's "changing
        // the real-page-to-cache assignments, rather than copying".
        UnmapAllMappings(*moving);
        // Threaded stubs keep pointing at the descriptor; its bytes are unchanged.
        MapErase(src, PageIndex(s_off));
        moving->cache = &dst;
        moving->offset = d_off;
        moving->sw_dirty = true;
        dst.pages_.splice(dst.pages_.end(), src.pages_, moving->self);
        moving->self = std::prev(dst.pages_.end());
        MapInsert(dst, PageIndex(d_off),
                  MapEntry{.kind = MapEntry::Kind::kFrame, .page = moving, .cow = nullptr});
        AdoptInboundStubs(dst, *moving);
        ++detail_.move_retargets;
        break;
      }
      if (entry != nullptr) {
        // Stub forms: wait out sync stubs; cow stubs move wholesale.
        if (entry->kind == MapEntry::Kind::kSyncStub) {
          ++detail_.sync_stub_waits;
          sleepers_.Wait(StubKey(src, s_off), mu_);
          continue;
        }
        // Cow stub: the deferred-copy placeholder itself is re-assigned to the
        // destination — the IPC receive path moves whole transit slots this way
        // without touching a byte (section 5.1.6).  Its source threading is
        // unaffected by the move.
        std::unique_ptr<CowStub> stub = std::move(entry->cow);
        MapErase(src, PageIndex(s_off));
        stub->cache = &dst;
        stub->offset = d_off;
        MapInsert(dst, PageIndex(d_off),
                  MapEntry{.kind = MapEntry::Kind::kCowStub, .page = nullptr,
                           .cow = std::move(stub)});
        ++detail_.move_retargets;
        break;
      }
      // Source page absent: its value may still be defined by an ancestor or its
      // own segment; move degenerates to a copy for this page.
      Lookup look = LookupValue(src, s_off);
      if (look.kind == Lookup::Kind::kZeroFill) {
        break;  // nothing to move; destination reads as zero (it was cleared)
      }
      bool dropped = false;
      Result<PageDesc*> value = ResolveValue(lock, src, s_off, &dropped);
      if (!value.ok()) {
        return value.status();
      }
      if (dropped) {
        continue;
      }
      PagePin value_pin(**value);
      Result<PageDesc*> copy = MaterializePage(lock, dst, d_off, (*value)->frame,
                                               /*dirty=*/true, Prot::kAll);
      if (!copy.ok()) {
        if (copy.status() == Status::kRetry) {
          continue;
        }
        return copy.status();
      }
      break;
    }
  }
  // The source's contents over the range are now undefined: sever its links.
  src.parents_.Erase(src_off, size);
  for (SegOffset delta = 0; delta < size; delta += page) {
    src.pushed_pages_.erase(PageIndex(src_off + delta));
  }
  return Status::kOk;
}

}  // namespace gvm
