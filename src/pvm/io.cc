// Explicit cache access (the read/write half of the unified cache, section 3.2)
// and the Table 4 cache-management operations: fillUp, copyBack, moveBack, flush,
// sync, invalidate, setProtection, lockInMemory.
#include <cassert>
#include <cstring>

#include "src/pvm/paged_vm.h"
#include "src/util/align.h"
#include "src/util/log.h"

namespace gvm {

Status PagedVm::CacheRead(MutexLock& lock, PvmCache& cache,
                          SegOffset offset, void* buffer, size_t size) {
  const size_t page = page_size();
  auto* out = static_cast<std::byte*>(buffer);
  size_t done = 0;
  Status result = Status::kOk;
  while (done < size) {
    const SegOffset at = offset + done;
    const SegOffset page_off = AlignDown(at, page);
    size_t chunk = page - (at - page_off);
    if (chunk > size - done) {
      chunk = size - done;
    }
    bool settled = false;
    for (int rounds = 0; rounds < 4096 && !settled; ++rounds) {
      Lookup look = LookupValue(cache, page_off);
      switch (look.kind) {
        case Lookup::Kind::kPage:
          std::memcpy(out + done, memory().FrameData(look.page->frame) + (at - page_off),
                      chunk);
          settled = true;
          break;
        case Lookup::Kind::kZeroFill:
          // Reading never-written data returns zeroes without allocating a frame.
          std::memset(out + done, 0, chunk);
          settled = true;
          break;
        case Lookup::Kind::kPullIn: {
          Status s = PullInLocked(lock, *look.source, look.source_offset, Access::kRead);
          if (s != Status::kOk) {
            result = s;
            settled = true;
          }
          break;
        }
        case Lookup::Kind::kBlocked:
          ++detail_.sync_stub_waits;
          sleepers_.Wait(StubKey(*look.source, look.source_offset), mu_);
          break;
      }
    }
    if (!settled && result == Status::kOk) {
      // Livelock cap exhausted with the page still blocked (a wedged transfer or
      // a waker that never resolves the stub).  Surface it: advancing `done`
      // here would silently skip a chunk that was never copied.
      result = Status::kBusy;
    }
    if (result != Status::kOk) {
      break;
    }
    done += chunk;
  }
  return result;
}

Status PagedVm::CacheWrite(MutexLock& lock, PvmCache& cache,
                           SegOffset offset, const void* buffer, size_t size) {
  if (cache.degraded_) {
    // Degraded segment: refuse new dirty data (see PushOutPageLocked).  Reads,
    // fillUp and the Sync()/Flush() recovery paths remain available.
    return Status::kBusError;
  }
  const size_t page = page_size();
  const auto* in = static_cast<const std::byte*>(buffer);
  size_t done = 0;
  Status result = Status::kOk;
  while (done < size) {
    const SegOffset at = offset + done;
    const SegOffset page_off = AlignDown(at, page);
    size_t chunk = page - (at - page_off);
    if (chunk > size - done) {
      chunk = size - done;
    }
    bool dropped = false;
    Result<PageDesc*> writable = EnsureWritablePage(lock, cache, page_off, &dropped);
    if (!writable.ok()) {
      result = writable.status();
      break;
    }
    std::memcpy(memory().FrameData((*writable)->frame) + (at - page_off), in + done, chunk);
    (*writable)->sw_dirty = true;
    done += chunk;
  }
  return result;
}

// ---------------------------------------------------------------------------
// fillUp / copyBack / moveBack (Table 4)
// ---------------------------------------------------------------------------

Status PagedVm::CacheFillUp(MutexLock& lock, PvmCache& cache,
                            SegOffset offset, const void* data, size_t size, Prot max_prot) {
  const size_t page = page_size();
  Status result = Status::kOk;
  if (!IsAligned(offset, page)) {
    return Status::kInvalidArgument;
  }
  const auto* in = static_cast<const std::byte*>(data);
  for (size_t done = 0; done < size && result == Status::kOk; done += page) {
    const SegOffset page_off = offset + done;
    const size_t chunk = size - done < page ? size - done : page;
    for (int rounds = 0;; ++rounds) {
      if (rounds > 4096) {
        result = Status::kBusError;
        break;
      }
      MapEntry* entry = FindEntry(cache, page_off);
      if (entry == nullptr || entry->kind == MapEntry::Kind::kSyncStub) {
        const bool was_stub = entry != nullptr;
        if (was_stub) {
          // Remove the stub so MaterializePage sees an empty slot; accesses keep
          // sleeping until we wake them with the page installed.
          MapErase(cache, PageIndex(page_off));
        }
        Result<PageDesc*> fresh =
            MaterializePage(lock, cache, page_off, kInvalidFrame, /*dirty=*/false, max_prot);
        if (!fresh.ok() && fresh.status() != Status::kRetry) {
          // Restore the stub so waiting threads are not stranded on a free slot.
          if (was_stub && FindEntry(cache, page_off) == nullptr) {
            MapInsert(cache, PageIndex(page_off),
                      MapEntry{.kind = MapEntry::Kind::kSyncStub, .page = nullptr, .cow = nullptr});
          }
          result = fresh.status();
          break;
        }
        // Whether or not the lock dropped, the page (ours or a competitor's) is
        // now installed; loop to write the bytes through the entry.
        continue;
      }
      if (entry->kind == MapEntry::Kind::kCowStub) {
        // A fill overrides a deferred-copy placeholder.
        UnlinkStub(entry->cow.get());
        MapErase(cache, PageIndex(page_off));
        continue;
      }
      PageDesc* page_desc = entry->page;
      if (page_desc->in_transit) {
        ++detail_.sync_stub_waits;
        sleepers_.Wait(StubKey(cache, page_off), mu_);
        continue;
      }
      std::byte* frame = memory().FrameData(page_desc->frame);
      std::memcpy(frame, in + done, chunk);
      if (chunk < page) {
        std::memset(frame + chunk, 0, page - chunk);
      }
      page_desc->max_prot = max_prot;
      page_desc->sw_dirty = false;  // the segment is the origin of these bytes
      sleepers_.WakeAll(StubKey(cache, page_off), mu_);
      break;
    }
  }
  return result;
}

Status PagedVm::CacheCopyBack(MutexLock& lock, PvmCache& cache,
                              SegOffset offset, void* buffer, size_t size, bool remove) {
  (void)lock;
  const size_t page = page_size();
  auto* out = static_cast<std::byte*>(buffer);
  Status result = Status::kOk;
  if (!IsAligned(offset, page)) {
    result = Status::kInvalidArgument;
  }
  for (size_t done = 0; done < size && result == Status::kOk; done += page) {
    const SegOffset page_off = offset + done;
    const size_t chunk = size - done < page ? size - done : page;
    PageDesc* owned = FindOwned(cache, page_off);
    if (owned != nullptr) {
      // copyBack is how the driver reads data during a pushOut; the page being
      // in_transit is the expected state, not a conflict.
      std::memcpy(out + done, memory().FrameData(owned->frame), chunk);
      if (remove && owned->pin_count == 0) {
        FreePage(owned);
      }
    } else {
      std::memset(out + done, 0, chunk);
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// flush / sync / invalidate / setProtection / lock (Table 4)
// ---------------------------------------------------------------------------

Status PagedVm::CacheFlush(MutexLock& lock, PvmCache& cache, bool discard) {
  // Push out every modified page; with `discard`, drop all pages afterwards.
  // Push-outs release the lock, so the scan restarts from a cursor each round.
  const size_t page = page_size();
  SegOffset cursor = 0;
  bool first = true;
  for (int rounds = 0; rounds < 1 << 20; ++rounds) {
    PageDesc* target = nullptr;
    SegOffset transit_offset = 0;
    bool transit_seen = false;
    for (PageDesc& candidate : cache.pages_) {
      if (candidate.in_transit) {
        // A push already in flight may still fail and requeue the page dirty,
        // so flush/sync may not return before it settles.  (A recall that
        // acked past an in-flight eviction push would let the directory
        // demote the owner while its dirty bytes are still on the wire — the
        // late writeback would then be refused and the data stranded.)
        transit_seen = true;
        transit_offset = candidate.offset;
        continue;
      }
      if (!first && candidate.offset < cursor) {
        continue;
      }
      if (PageIsDirty(candidate) || (discard && candidate.pin_count == 0)) {
        if (target == nullptr || candidate.offset < target->offset) {
          target = &candidate;
        }
      }
    }
    if (target == nullptr) {
      if (!transit_seen) {
        // Every dirty page is home.  That is the exact guarantee degraded mode
        // exists to restore, so a completed flush recovers the cache even when
        // it had nothing left to push — e.g. a site whose in-flight push-outs
        // died with its machine recovers with an empty cache, and the sync it
        // issues after rejoining must clear the flag, not no-op past it.
        cache.pushout_failures_ = 0;
        cache.degraded_ = false;
        return Status::kOk;
      }
      ++detail_.sync_stub_waits;
      sleepers_.Wait(StubKey(cache, transit_offset), mu_);
      // The settled page may be dirty again (failed push) and may sit below
      // the cursor: rescan from the top.
      first = true;
      cursor = 0;
      continue;
    }
    cursor = target->offset + page;
    first = false;
    if (PageIsDirty(*target)) {
      Status s = PushOutPageLocked(lock, cache, *target, /*free_after=*/discard);
      if (s != Status::kOk) {
        return s;
      }
    } else if (discard && target->pin_count == 0) {
      FreePage(target);
    }
  }
  return Status::kBusError;
}

Status PagedVm::CacheInvalidate(MutexLock& lock, PvmCache& cache,
                                SegOffset offset, size_t size) {
  const size_t page = page_size();
  ++cache.revoke_epoch_;  // any copy in this range is revoked from here on
  Status result = Status::kOk;
  for (SegOffset at = AlignDown(offset, page); at < offset + size; at += page) {
    // Invalidation revokes this cache's copy; per-page stubs sourcing from it
    // keep their snapshot by materializing first.
    Status secured = MaterializeStubsOf(lock, cache, at);
    if (secured != Status::kOk) {
      result = secured;
      break;
    }
    for (int rounds = 0;; ++rounds) {
      if (rounds > 4096) {
        result = Status::kBusError;
        break;
      }
      MapEntry* entry = FindEntry(cache, at);
      if (entry == nullptr) {
        break;
      }
      if (entry->kind == MapEntry::Kind::kFrame) {
        if (entry->page->in_transit) {
          ++detail_.sync_stub_waits;
          sleepers_.Wait(StubKey(cache, at), mu_);
          continue;
        }
        if (entry->page->pin_count > 0) {
          result = Status::kLocked;
          break;
        }
        FreePage(entry->page);
        break;
      }
      if (entry->kind == MapEntry::Kind::kCowStub) {
        UnlinkStub(entry->cow.get());
        MapErase(cache, PageIndex(at));
        break;
      }
      ++detail_.sync_stub_waits;
      sleepers_.Wait(StubKey(cache, at), mu_);
    }
    if (result != Status::kOk) {
      break;
    }
    // Note: pushed_pages_ is NOT cleared — the segment (swap or mapper) remains
    // the authoritative holder of previously saved data, and the re-pull after an
    // invalidation goes through the driver either way.
  }
  return result;
}

Status PagedVm::CacheSetProtection(MutexLock& lock, PvmCache& cache,
                                   SegOffset offset, size_t size, Prot max_prot) {
  (void)lock;
  const size_t page = page_size();
  if (!ProtAllows(max_prot, Prot::kWrite)) {
    ++cache.revoke_epoch_;  // a demote: stale write grants must not resurrect
  }
  for (SegOffset at = AlignDown(offset, page); at < offset + size; at += page) {
    if (PageDesc* owned = FindOwned(cache, at)) {
      owned->max_prot = max_prot;
      // Re-derive every mapping's hardware protection under the new cap.
      for (const MappingRef& ref : owned->mappings) {
        bool foreign = ref.via_cache != owned->cache;
        (void)mmu().Protect(ref.as, ref.va, EffectiveProt(*ref.region, *owned, foreign));
      }
    }
  }
  return Status::kOk;
}

Status PagedVm::CacheLockRange(MutexLock& lock, PvmCache& cache,
                               SegOffset offset, size_t size, bool lock_pages) {
  const size_t page = page_size();
  for (SegOffset at = AlignDown(offset, page); at < offset + size; at += page) {
    if (!lock_pages) {
      if (PageDesc* owned = FindOwned(cache, at)) {
        if (owned->pin_count > 0) {
          owned->pin_count--;
        }
      }
      continue;
    }
    // lockInMemory "may cause pullIns": resolve each page, then pin it.
    for (int rounds = 0;; ++rounds) {
      if (rounds > 4096) {
        return Status::kBusError;
      }
      bool dropped = false;
      Result<PageDesc*> resolved = ResolveValue(lock, cache, at, &dropped);
      if (!resolved.ok()) {
        return resolved.status();
      }
      if (dropped) {
        continue;
      }
      (*resolved)->pin_count++;
      break;
    }
  }
  return Status::kOk;
}

}  // namespace gvm
