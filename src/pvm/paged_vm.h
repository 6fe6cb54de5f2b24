// PagedVm — the Paged Virtual Memory manager (PVM), the paper's demand-paged
// implementation of the GMI (section 4).
//
// Characteristics reproduced from the paper:
//   * Support for large, sparse segments and address spaces: no data structure is
//     proportional to segment or address-space size, only to resident memory
//     (section 4.1).
//   * Efficient deferred copy via *history objects* for large data (section 4.2)
//     and a per-virtual-page technique for small data (section 4.3).
//   * Hardware independence: everything below the Mmu interface is replaceable
//     (SoftMmu and HashMmu both work unmodified).
//
// Locking model: one manager-wide mutex (from BaseMm).  Upcalls to segment
// drivers (pullIn, pushOut, getWriteAccess, segmentCreate) are performed with the
// lock *released*; synchronization page stubs keep concurrent accesses to the
// affected pages asleep meanwhile (section 4.1.2).
#ifndef GVM_SRC_PVM_PAGED_VM_H_
#define GVM_SRC_PVM_PAGED_VM_H_

#include <atomic>
#include <cassert>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/pvm/page.h"
#include "src/pvm/pvm_cache.h"
#include "src/sync/sleep_queue.h"
#include "src/vmbase/base_mm.h"

namespace gvm {

// Counters specific to the PVM, beyond the generic MmStats.
struct PvmDetailStats {
  uint64_t sync_stub_waits = 0;       // accesses that slept on an in-transit page
  uint64_t working_objects = 0;       // w1, w2, ... created to keep the shape invariant
  uint64_t history_pushes = 0;        // originals pushed into a history object
  uint64_t per_page_stubs = 0;        // per-virtual-page COW stubs created
  uint64_t stub_resolutions = 0;      // stubs resolved by a write (frame materialized)
  uint64_t ancestor_lookups = 0;      // cache misses resolved by walking the tree
  uint64_t caches_collapsed = 0;      // dying caches merged into their single child
  uint64_t caches_reaped = 0;         // dying caches freed outright
  uint64_t move_retargets = 0;        // pages moved by re-assigning frame-to-cache
  // Caches whose link lists teardown, collapse and copy setup walked, found
  // through the target's reverse-link tables: a job's count follows its own
  // tree, whatever else is alive (DESIGN.md §17).
  uint64_t reverse_link_visits = 0;
  // Fault-recovery accounting (see DESIGN.md "Fault model and recovery semantics").
  uint64_t io_retries = 0;             // transient-kBusError upcalls retried
  uint64_t io_permanent_failures = 0;  // kBusError upcalls that exhausted the retry budget
  uint64_t pushout_requeues = 0;       // failed push-outs re-marked dirty for a later sweep
  uint64_t degraded_segments = 0;      // caches tripped into degraded (read-only) mode
  uint64_t alloc_pressure_retries = 0; // frame allocations retried after an eviction round
  // Fault-around: adjacent resident-in-mapper pages materialized and mapped as a
  // side effect of a neighbouring fault (each one is a fault round-trip saved).
  uint64_t pullin_clustered = 0;
  // Mapper crash-recovery accounting (DESIGN.md §11).
  uint64_t mapper_crashes_observed = 0;   // upcalls that came back kPortDead
  uint64_t recoveries_completed = 0;      // NoteMapperRecovery notifications
  uint64_t journal_replays = 0;           // committed records replayed across recoveries
  uint64_t journal_records_discarded = 0; // torn/corrupt records truncated across recoveries
  uint64_t requests_reissued = 0;         // requeued pushes that later succeeded
  // Memory-pressure accounting (DESIGN.md §15).
  uint64_t sweeps_started = 0;         // threads that won the single-sweeper gate
  uint64_t sweep_waits = 0;            // threads that slept on a pass instead of sweeping
  uint64_t daemon_wakeups = 0;         // times the paging daemon woke on its latch
  uint64_t daemon_passes = 0;          // reclaim passes completed (daemon or test hook)
  uint64_t frames_reclaimed_daemon = 0;// frames freed by reclaim passes (queues, no clock)
  uint64_t batch_pushes = 0;           // multi-page pushOut batches issued
  uint64_t batch_push_pages = 0;       // pages covered by those batches
  uint64_t soft_faults = 0;            // re-faults rescued from a pageout queue, no mapper I/O
  uint64_t standby_hits = 0;           // ... of which came off the standby queue
  uint64_t ws_trims = 0;               // pages demoted from a working set by trim
  uint64_t thrash_throttles = 0;       // faults stalled by the thrash detector
  uint64_t pageout_stalls = 0;         // injected kPageoutStall hits honoured
  uint64_t low_memory_faults = 0;      // injected kLowMemory hits honoured
  // Transparent huge pages (DESIGN.md §16).
  uint64_t promotions = 0;             // spans collapsed to one huge translation
  uint64_t demotions = 0;              // spans split back to base pages ...
  uint64_t demote_cow = 0;             // ... because a COW downgrade hit the span
  uint64_t demote_pageout = 0;         // ... because reclaim evicted into the span
};

class PagedVm final : public BaseMm {
 public:
  struct Options {
    // Copies of at most this many pages use the per-virtual-page technique under
    // CopyPolicy::kAuto; larger ones use history objects (section 4: history
    // objects for "a big data segment", per-page for "an IPC message").
    size_t per_page_threshold_pages = 8;
    // Page-out starts when free frames drop below `low_water` and runs until
    // `high_water` are free.  Zero disables the pager (tests exercising hard OOM).
    size_t low_water_frames = 4;
    size_t high_water_frames = 8;
    // Merge a dying cache into its single remaining child when possible
    // (the history-chain garbage collection discussed in section 4.2.5).
    bool collapse_dying_caches = true;
    // A transient kBusError from a pullIn/pushOut upcall is retried up to this
    // many extra attempts before being treated as permanent.
    uint64_t io_retry_limit = 3;
    // Deterministic exponential backoff between upcall retries: the k-th retry
    // sleeps retry_backoff_us << k microseconds (lock released).  0 disables.
    uint64_t retry_backoff_us = 0;
    // After this many *consecutive* failed push-outs a cache is marked degraded:
    // new writes are refused with kBusError (reads still served) until a pushOut
    // succeeds again, so unsaveable dirty data stops accumulating.
    int degrade_after_failures = 3;
    // When the frame pool is dry, eviction+allocation is retried up to this many
    // extra rounds before kNoMemory surfaces (absorbs transient pile-ups where
    // every frame is momentarily pinned or in transit; the retry loop yields
    // between dry rounds so the threads holding those pages can finish).
    uint64_t alloc_retry_limit = 16;
    // Interpose the per-CPU software TLB (TlbMmu) between the manager and the
    // hardware MMU.  Off = pure delegation, for baselines and A/B benchmarks.
    bool enable_tlb = true;
    // Shootdown publication barrier for the TLB wrapper (kAuto probes the
    // host for membarrier).  The scaling bench sweeps this axis.
    TlbMmu::FenceMode shootdown_fence = TlbMmu::FenceMode::kAuto;
    // Fault-around: on a fault resolved by a pullIn, also materialize up to this
    // many - 1 following pages whose value is resident in the mapper, while free
    // frames stay above the high-water mark.  <= 1 disables clustering.  Off by
    // default so per-upcall accounting in existing tests stays exact; sequential
    // workloads (and throughput_smp) turn it on.
    size_t pullin_cluster_pages = 1;

    // ---- Memory-pressure layer (DESIGN.md §15) ----
    // Run the background paging daemon.  Off by default: background eviction
    // makes page placement nondeterministic, so only pressure worlds (storm
    // tests, the pageout bench) opt in.  When on, the constructor also installs
    // the allocator's low-memory hook and sizes the emergency reserve.
    bool pageout_daemon = false;
    // Free-frame level at or below which the allocator's low-memory hook kicks
    // the daemon.  Kept below low_water_frames so deterministic single-thread
    // tests reach the synchronous balance path before the daemon ever wakes.
    size_t daemon_wake_frames = 2;
    // Per-address-space working-set cap, in pages.  0 = uncapped: no fault-time
    // trim, and reclaim passes trim only detected thrashers.
    size_t working_set_limit_pages = 0;
    // Upper bound on one daemon batch pushOut, in pages.  The default (8 pages)
    // keeps a 4 KiB-page batch inside one IPC chunk (Message::kMaxBytes), so
    // the journalled swap mapper commits the whole batch with one WAL record.
    size_t pushout_batch_pages = 8;
    // Re-fault-rate EWMA (fixed point, x1000: 1000 = every mapped page is a
    // rescue off a pageout queue) above which an address space counts as
    // thrashing — reclaim trims it to half its working set first, and its
    // faults are throttled while the pool sits below low water.  0 disables.
    uint64_t thrash_ewma_threshold = 0;
    // Frames withheld from normal allocation for the reclaim path (forwarded
    // to PhysicalMemory::SetEmergencyReserve).  kAutoReserve sizes it from the
    // frame count when the daemon is on, 0 otherwise — no reserve without a
    // reclaimer entitled to it.
    static constexpr size_t kAutoReserve = static_cast<size_t>(-1);
    size_t emergency_reserve_frames = kAutoReserve;

    // ---- Transparent huge pages (DESIGN.md §16) ----
    // Fault-time promotion to the MMU's second granule: when a fault leaves a
    // huge-aligned span of the region fully mapped with uniform protection,
    // migrate it onto a contiguous frame run and replace the base PTEs with
    // one wide translation.  Off by default: promotion changes frame placement
    // and per-page counters, so only huge-aware worlds (benches, §16 tests)
    // opt in.  A no-op when the MMU reports no second granule.
    bool transparent_huge = false;
  };

  PagedVm(PhysicalMemory& memory, Mmu& mmu) : PagedVm(memory, mmu, Options{}) {}
  PagedVm(PhysicalMemory& memory, Mmu& mmu, Options options);
  ~PagedVm() override;

  // ---- MemoryManager ----
  Result<Cache*> CacheCreate(SegmentDriver* driver, std::string name) override;
  const char* name() const override { return "PVM"; }
  // A crashed mapper finished recovery: fold the journal-replay counts into the
  // detail stats.  (Degraded caches exit via the next successful pushOut, which
  // the segment manager triggers by Sync()ing the affected caches.)
  void NoteMapperRecovery(uint64_t records_replayed,
                          uint64_t records_discarded) override GVM_EXCLUDES(mu_);

  // Snapshot of the PVM-specific counters, taken under the manager lock
  // (returned by value: debug dumps and benches read these concurrently).
  PvmDetailStats detail_stats() const GVM_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return detail_;
  }

  // ---- Introspection for tests, figures, and benchmarks ----
  size_t CacheCount() const;
  size_t GlobalMapEntries() const;
  size_t SyncStubCount() const;
  size_t CowStubCount() const;
  // Pages currently flagged in_transit (must be zero once the system quiesces,
  // even after injected failures).
  size_t InTransitCount() const;
  // Test hook: wake every thread sleeping on (cache, offset)'s stub key without
  // changing any state.  SleepQueue::Wait permits spurious wakeups by contract,
  // so this merely provokes the re-check path sleepers must already handle.
  void PokeSleepers(const Cache& cache, SegOffset offset);

  // ---- Paging daemon control (pageout.cc; DESIGN.md §15) ----
  // Start/stop the background daemon (both idempotent).  Stop joins the thread
  // and uninstalls the allocator hook, so it MUST run before the nucleus and
  // mappers this manager pages through are destroyed; worlds that outlive
  // their mappers hold a guard whose destructor calls it (the PagedVm
  // destructor also stops the daemon, as a backstop for same-lifetime worlds).
  void StartPageoutDaemon();
  void StopPageoutDaemon();
  // Wake the daemon if it is running (cheap, callable under any lock below
  // Rank::kPageoutDaemon; the allocator's low-memory hook lands here).
  void KickPageoutDaemon();
  // Deterministic test hook: run one full reclaim pass (standby harvest,
  // working-set trim, batched modified-queue pushes, fallback clock sweep) on
  // the calling thread, exactly as a daemon wakeup would.
  void RunPageoutPassForTest();
  // Queue/working-set introspection for tests and the bench.
  size_t ModifiedQueueLength() const;
  size_t StandbyQueueLength() const;
  size_t WorkingSetPages(AsId as) const;
  // Address spaces with a working-set table (only live spaces have one).
  size_t WorkingSetCount() const;
  // Renders the history tree reachable from `cache` in the notation of Figure 3.
  std::string DumpTree(Cache& cache) const;
  // One-page human-readable dump of MM, detail, MMU and TLB counters.
  std::string DumpStats() const;
  // Walks every structural invariant (tree shape, reverse-map consistency, global
  // map consistency); returns kOk or fails fast with a log of the violation.
  [[nodiscard]] Status CheckInvariants() const;

 protected:
  // ---- BaseMm hooks ----
  [[nodiscard]] Status ResolveFault(RegionImpl& region, const PageFault& fault, SegOffset page_offset,
                      MutexLock& lock) override GVM_REQUIRES(mu_);
  void OnRegionMapped(RegionImpl& region, MutexLock& lock) override GVM_REQUIRES(mu_);
  void OnRegionUnmapping(RegionImpl& region) override GVM_REQUIRES(mu_);
  void OnContextDestroyed(AsId as) override GVM_REQUIRES(mu_);
  void OnRegionSplit(RegionImpl& first, RegionImpl& second) override GVM_REQUIRES(mu_);
  void OnRegionProtection(RegionImpl& region) override GVM_REQUIRES(mu_);
  [[nodiscard]] Status OnRegionLock(RegionImpl& region, MutexLock& lock) override GVM_REQUIRES(mu_);
  [[nodiscard]] Status OnRegionUnlock(RegionImpl& region) override GVM_REQUIRES(mu_);

 private:
  friend class PvmCache;

  // ---- Small helpers (lock held) ----
  uint64_t PageIndex(SegOffset offset) const { return offset / page_size(); }
  uint64_t StubKey(const PvmCache& cache, SegOffset offset) const;
  PageDesc* FindOwned(PvmCache& cache, SegOffset page_offset) GVM_REQUIRES(mu_);
  MapEntry* FindEntry(PvmCache& cache, SegOffset page_offset) GVM_REQUIRES(mu_);

  // Global-map edits.  Every insert, erase and in-place stub resolution goes
  // through these, which keep the owning cache's stub index
  // (PvmCache::cow_stub_pages_, sync_stubs_) exact; kFrame entries cost no
  // index operation.
  MapEntry& MapInsert(PvmCache& cache, uint64_t page_index, MapEntry entry) GVM_REQUIRES(mu_) {
    NoteStubEntry(cache, page_index, entry.kind, /*added=*/true);
    return map_.Insert(cache.id(), page_index, std::move(entry));
  }
  void MapErase(PvmCache& cache, uint64_t page_index) GVM_REQUIRES(mu_) {
    NoteStubEntry(cache, page_index, map_.Erase(cache.id(), page_index), /*added=*/false);
  }
  // `entry`, a kCowStub of `cache`, becomes the resident page `page` in place.
  void MapSetFrame(PvmCache& cache, MapEntry& entry, PageDesc& page) GVM_REQUIRES(mu_) {
    assert(entry.kind == MapEntry::Kind::kCowStub && page.cache == &cache);
    NoteStubEntry(cache, PageIndex(page.offset), entry.kind, /*added=*/false);
    entry.kind = MapEntry::Kind::kFrame;
    entry.page = &page;
    entry.cow.reset();
  }
  static void NoteStubEntry(PvmCache& cache, uint64_t page_index, MapEntry::Kind kind,
                            bool added) {
    if (kind == MapEntry::Kind::kCowStub) {
      if (added) {
        cache.cow_stub_pages_.insert(page_index);
      } else {
        cache.cow_stub_pages_.erase(page_index);
      }
    } else if (kind == MapEntry::Kind::kSyncStub) {
      cache.sync_stubs_ += added ? 1 : -1;
    }
  }

  // Allocate a frame, evicting if the pool is dry and page-out is enabled.  May
  // drop the lock (page-out upcalls); `*dropped_lock` reports that.
  Result<FrameIndex> AllocateFrame(MutexLock& lock, bool* dropped_lock) GVM_REQUIRES(mu_);

  // Create a page owned by `cache` at `page_offset` holding a copy of frame
  // `source` (kInvalidFrame means zero-fill; the caller pins the source page).
  // May drop the lock to evict; on any drop it re-checks that the slot is
  // still empty and returns kRetry to make the caller retry.
  Result<PageDesc*> MaterializePage(MutexLock& lock, PvmCache& cache,
                                    SegOffset page_offset, FrameIndex source, bool dirty,
                                    Prot max_prot) GVM_REQUIRES(mu_);

  void FreePage(PageDesc* page) GVM_REQUIRES(mu_);  // unmaps, unthreads stubs, frees the frame

  // ---- Transparent huge pages (DESIGN.md §16) ----
  // Why a demotion was counted (for the detail stats split).
  enum class DemoteReason { kOther, kCow, kPageout };
  // True when this manager runs the second granule: opted in AND the MMU has one.
  bool HugeEnabled() const {
    return options_.transparent_huge && mmu().huge_page_size() > page_size();
  }
  // If `va` falls inside a promoted span of `as`, split it back to base pages
  // (under a TlbGatherScope; the wide translation dies before the caller
  // mutates any base page of the span) and drop the span record.  Callers
  // invoke this before ANY base-granular MMU mutation inside the span — the
  // inner MMU would auto-split anyway, but routing through here keeps the
  // span set exact and the demotion counters attributed.
  void DemoteIfHuge(AsId as, Vaddr va, DemoteReason reason) GVM_REQUIRES(mu_);
  // Fault-time promotion: if the huge-aligned span around `page_va` is fully
  // mapped by one region with uniform protection, collapse it to one wide
  // translation (migrating the pages onto a contiguous frame run first when
  // they are not already contiguous).  Never drops the manager lock; failure
  // to promote (fragmentation, mixed state) is silent — the span stays on
  // base pages.
  void MaybePromote(const PageFault& fault, Vaddr page_va) GVM_REQUIRES(mu_);

  // ---- MMU mapping bookkeeping ----
  void MapPage(RegionImpl& region, Vaddr page_va, PageDesc& page, Prot prot,
               PvmCache& via_cache) GVM_REQUIRES(mu_);
  void UnmapMapping(PageDesc& page, size_t index,
                    DemoteReason reason = DemoteReason::kOther) GVM_REQUIRES(mu_);
  void UnmapAllMappings(PageDesc& page,
                        DemoteReason reason = DemoteReason::kOther) GVM_REQUIRES(mu_);
  // Remove mappings installed through caches other than the owner (descendant
  // reads through the tree) — required before the owner's value may change.
  void RemoveForeignMappings(PageDesc& page) GVM_REQUIRES(mu_);
  // Downgrade every mapping of `page` to read-only (copy source protection).
  void WriteProtectPage(PageDesc& page) GVM_REQUIRES(mu_);
  // The protection a mapping of `page` through `region` may carry right now.
  Prot EffectiveProt(const RegionImpl& region, const PageDesc& page, bool foreign) const;
  // True when the owner cache must not write `page` without history bookkeeping.
  bool IsCowProtected(const PageDesc& page) const;

  // ---- Miss resolution (the tree walk of section 4.2.1) ----
  // Outcome of looking for the current value of (cache, page_offset).
  struct Lookup {
    enum class Kind {
      kPage,      // value found: `page` (owner may be an ancestor)
      kZeroFill,  // no value anywhere: demand-zero in `cache`
      kPullIn,    // value lives in `source`'s segment at `source_offset`
      kBlocked,   // a sync stub was hit; caller must wait and retry
    };
    Kind kind = Kind::kZeroFill;
    PageDesc* page = nullptr;
    PvmCache* source = nullptr;
    SegOffset source_offset = 0;
    bool copy_on_reference = false;  // a kCopyOnReference parent link was crossed
  };
  Lookup LookupValue(PvmCache& cache, SegOffset page_offset) GVM_REQUIRES(mu_);

  // Ensure the current value of (cache, page_offset) is resident somewhere,
  // performing pullIn/zero-fill as needed.  Returns the page, or kBusy if the lock
  // was dropped (caller retries), or a hard error.
  Result<PageDesc*> ResolveValue(MutexLock& lock, PvmCache& cache,
                                 SegOffset page_offset, bool* dropped_lock) GVM_REQUIRES(mu_);

  // Ensure (cache, page_offset) has a private, writable page owned by `cache`,
  // doing all history bookkeeping (section 4.2) and stub resolution (section 4.3).
  Result<PageDesc*> EnsureWritablePage(MutexLock& lock, PvmCache& cache,
                                       SegOffset page_offset, bool* dropped_lock) GVM_REQUIRES(mu_);

  // Push the original value of an owned page into the history object covering it,
  // if one exists and lacks its own version (sections 4.2.2 / 4.2.3).
  [[nodiscard]] Status PushToHistory(MutexLock& lock, PvmCache& cache, PageDesc& page,
                       bool* dropped_lock) GVM_REQUIRES(mu_);

  // Detach all per-page stubs threaded on `page` before its value changes: give
  // them one shared copy of the original value (section 4.3 write-violation rule).
  [[nodiscard]] Status DetachStubs(MutexLock& lock, PageDesc& page, bool* dropped_lock) GVM_REQUIRES(mu_);

  // Ensure no per-page stub still *depends* on the value of (cache, page_offset):
  // called before that value is overwritten wholesale (copy-into, move-out,
  // invalidate).  Threaded stubs are detached via DetachStubs; non-resident-form
  // stubs get a materialized shared copy of the current value.
  [[nodiscard]] Status MaterializeStubsOf(MutexLock& lock, PvmCache& cache,
                            SegOffset page_offset) GVM_REQUIRES(mu_);

  // ---- Per-page stub link maintenance ----
  // Attach `stub` to its source: threaded on the page descriptor when resident,
  // registered in the source cache's inbound table otherwise.
  void ThreadStub(CowStub* stub) GVM_REQUIRES(mu_);
  // Detach `stub` from whichever source link it currently has.
  void UnlinkStub(CowStub* stub) GVM_REQUIRES(mu_);
  // A page of `cache` just became resident: re-thread the stubs that were waiting
  // on it in non-resident form.
  void AdoptInboundStubs(PvmCache& cache, PageDesc& page) GVM_REQUIRES(mu_);

  // ---- Upcalls (drop the lock internally) ----
  [[nodiscard]] Status PullInLocked(MutexLock& lock, PvmCache& cache,
                      SegOffset page_offset, Access access) GVM_REQUIRES(mu_);
  // Fault-around (see Options::pullin_cluster_pages): after the primary fault at
  // `primary_va` resolved, opportunistically pull in and map following pages.
  void ClusterPullIns(MutexLock& lock, const PageFault& fault,
                      Vaddr primary_va) GVM_REQUIRES(mu_);
  [[nodiscard]] Status PushOutPageLocked(MutexLock& lock, PvmCache& cache, PageDesc& page,
                           bool free_after) GVM_REQUIRES(mu_);
  // Assign a segment to an MM-created/temporary cache via segmentCreate.
  [[nodiscard]] Status EnsureDriver(MutexLock& lock, PvmCache& cache) GVM_REQUIRES(mu_);

  // ---- Copy engines (called from PvmCache, lock held) ----
  [[nodiscard]] Status CopyRange(MutexLock& lock, PvmCache& src, SegOffset src_off,
                   PvmCache& dst, SegOffset dst_off, size_t size, CopyPolicy policy) GVM_REQUIRES(mu_);
  [[nodiscard]] Status EagerCopy(MutexLock& lock, PvmCache& src, SegOffset src_off,
                   PvmCache& dst, SegOffset dst_off, size_t size) GVM_REQUIRES(mu_);
  [[nodiscard]] Status HistoryCopy(MutexLock& lock, PvmCache& src, SegOffset src_off,
                     PvmCache& dst, SegOffset dst_off, size_t size, bool copy_on_reference) GVM_REQUIRES(mu_);
  [[nodiscard]] Status PerPageCopy(MutexLock& lock, PvmCache& src, SegOffset src_off,
                     PvmCache& dst, SegOffset dst_off, size_t size) GVM_REQUIRES(mu_);
  [[nodiscard]] Status MoveRange(MutexLock& lock, PvmCache& src, SegOffset src_off,
                   PvmCache& dst, SegOffset dst_off, size_t size) GVM_REQUIRES(mu_);

  // Discard `dst`'s own state over [dst_off, dst_off+size) prior to its logical
  // overwrite by a copy: owned pages are first offered to dst's history.
  [[nodiscard]] Status ClearDestinationRange(MutexLock& lock, PvmCache& dst,
                               SegOffset dst_off, size_t size) GVM_REQUIRES(mu_);

  // Before `cache`'s contents over the range change wholesale (copy-into or move
  // source), materialize its current values into any history object covering the
  // range, making the history self-sufficient.
  [[nodiscard]] Status SecureHistorySnapshots(MutexLock& lock, PvmCache& cache,
                                SegOffset offset, size_t size) GVM_REQUIRES(mu_);

  // Write-protect the owned pages of `src` in a range (copy source preparation).
  void ProtectSourcePages(PvmCache& src, SegOffset src_off, size_t size) GVM_REQUIRES(mu_);

  // ---- History-tree surgery (history.cc) ----
  // Link dst as the deferred copy of src over the given fragments, inserting a
  // working object when src already has a history there (section 4.2.3).
  [[nodiscard]] Status LinkCopy(MutexLock& lock, PvmCache& src, SegOffset src_off,
                  PvmCache& dst, SegOffset dst_off, size_t size, bool copy_on_reference) GVM_REQUIRES(mu_);

  // ---- Cache lifetime ----
  Result<PvmCache*> CreateCacheLocked(SegmentDriver* driver, std::string name,
                                      bool temporary) GVM_REQUIRES(mu_);
  [[nodiscard]] Status DestroyCacheLocked(MutexLock& lock, PvmCache& cache) GVM_REQUIRES(mu_);
  bool CacheHasDependents(const PvmCache& cache) const GVM_REQUIRES(mu_);
  // Distinct caches whose parent links target `parent`, sorted by id.
  std::vector<PvmCache*> ChildrenOfCache(PvmCache* parent) const GVM_REQUIRES(mu_);
  // The caches named in one of `self`'s reverse-link tables, `self` excluded,
  // copied out so the caller may edit their links while walking them.  Counted
  // in reverse_link_visits.
  std::vector<PvmCache*> LinkingCaches(const ReverseLinks& table,
                                       const PvmCache& self) GVM_REQUIRES(mu_) {
    std::vector<PvmCache*> out;
    out.reserve(table.size());
    for (const auto& [other, fragments] : table) {
      if (other != &self) {
        out.push_back(other);
      }
    }
    detail_.reverse_link_visits += out.size();
    return out;
  }
  // Free a dying cache whose last dependent vanished; cascades to its ancestors.
  void ReapIfUnreferenced(MutexLock& lock, PvmCache& cache) GVM_REQUIRES(mu_);
  // Ids of the caches `cache`'s parent links target (one per fragment), taken
  // before the links are cleared, and the reap cascade over them.
  static std::vector<CacheId> ParentIds(const PvmCache& cache);
  void ReapFormerParents(MutexLock& lock, const std::vector<CacheId>& parents) GVM_REQUIRES(mu_);
  // Holds a cache across a site that drops the manager lock (an upcall, or a
  // frame allocation that may evict): a reap asked for meanwhile is deferred
  // and re-run by the last unpin, so the site may re-derive state from the
  // cache once the lock is back.  Code after the pin's scope must not touch
  // the cache unless something else keeps it alive.
  class CacheUpcallPin {
   public:
    CacheUpcallPin(PagedVm& vm, MutexLock& lock, PvmCache& cache) GVM_REQUIRES(vm.mu_)
        : vm_(vm), lock_(lock), cache_(cache) {
      ++cache_.upcall_pins_;
    }
    ~CacheUpcallPin() GVM_REQUIRES(vm_.mu_) {
      if (--cache_.upcall_pins_ == 0 && cache_.reap_deferred_) {
        cache_.reap_deferred_ = false;
        vm_.ReapIfUnreferenced(lock_, cache_);
      }
    }
    CacheUpcallPin(const CacheUpcallPin&) = delete;
    CacheUpcallPin& operator=(const CacheUpcallPin&) = delete;

   private:
    PagedVm& vm_;
    MutexLock& lock_;
    PvmCache& cache_;
  };
  // Merge a dying cache into its single child if possible (section 4.2.5 GC).
  bool TryCollapse(MutexLock& lock, PvmCache& cache) GVM_REQUIRES(mu_);
  void DropTreeLinksTo(PvmCache& cache) GVM_REQUIRES(mu_);
  void ReleasePages(PvmCache& cache) GVM_REQUIRES(mu_);  // free all pages, stubs and map entries

  // ---- Explicit I/O and cache management (io.cc) ----
  [[nodiscard]] Status CacheRead(MutexLock& lock, PvmCache& cache, SegOffset offset,
                   void* buffer, size_t size) GVM_REQUIRES(mu_);
  [[nodiscard]] Status CacheWrite(MutexLock& lock, PvmCache& cache, SegOffset offset,
                    const void* buffer, size_t size) GVM_REQUIRES(mu_);
  [[nodiscard]] Status CacheFillUp(MutexLock& lock, PvmCache& cache, SegOffset offset,
                     const void* data, size_t size, Prot max_prot) GVM_REQUIRES(mu_);
  [[nodiscard]] Status CacheCopyBack(MutexLock& lock, PvmCache& cache, SegOffset offset,
                       void* buffer, size_t size, bool remove) GVM_REQUIRES(mu_);
  [[nodiscard]] Status CacheFlush(MutexLock& lock, PvmCache& cache, bool discard) GVM_REQUIRES(mu_);
  [[nodiscard]] Status CacheInvalidate(MutexLock& lock, PvmCache& cache, SegOffset offset,
                         size_t size) GVM_REQUIRES(mu_);
  [[nodiscard]] Status CacheSetProtection(MutexLock& lock, PvmCache& cache,
                            SegOffset offset, size_t size, Prot max_prot) GVM_REQUIRES(mu_);
  [[nodiscard]] Status CacheLockRange(MutexLock& lock, PvmCache& cache, SegOffset offset,
                        size_t size, bool lock_pages) GVM_REQUIRES(mu_);

  // ---- Page-out (pageout.cc) ----
  // Keep the free-frame pool above the low-water mark.  Serialized behind the
  // single-sweeper gate: the thread that wins the gate sweeps, every other
  // caller sleeps on frame availability until the pass completes.  Returns
  // true if the lock was dropped at any point.
  bool BalanceFreeFrames(MutexLock& lock) GVM_REQUIRES(mu_);
  PageDesc* PickVictim() GVM_REQUIRES(mu_);
  bool PageIsDirty(const PageDesc& page) const;

  // ---- Memory-pressure layer (pageout.cc; DESIGN.md §15) ----
  // True when `page` can be freed with no upcall and no data loss: clean and
  // reproducible from its segment / an ancestor / zero-fill.  The single
  // arbiter for clean drops — the clock sweep and the standby harvest both
  // route through it.
  bool FreeableWithoutIO(const PageDesc& page) const GVM_REQUIRES(mu_);
  // Re-derive `page`'s pageout-queue membership after a state change: unmapped
  // unpinned resident pages land on modified (dirty) or standby (clean).
  void ReconsiderQueue(PageDesc& page) GVM_REQUIRES(mu_);
  void QueueRemove(PageDesc& page) GVM_REQUIRES(mu_);
  // Working-set index maintenance, driven from MapPage / UnmapMapping.
  void WsNoteMapped(AsId as, PageDesc& page) GVM_REQUIRES(mu_);
  void WsNoteUnmapped(AsId as, PageDesc& page) GVM_REQUIRES(mu_);
  // Demote `page` from `as`'s working set: unmap its mappings in that address
  // space only (no I/O — the queue hooks pick the page up for the daemon).
  void TrimPageFromAs(PageDesc& page, AsId as) GVM_REQUIRES(mu_);
  // Free standby-queue heads (no I/O) until `target` frames are free; returns
  // the number freed.  Never drops the lock.
  size_t ReclaimStandbyLocked(size_t target) GVM_REQUIRES(mu_);
  // Trim every over-limit working set, thrashers (EWMA above threshold) first
  // and hardest.  Never drops the lock.
  void TrimWorkingSetsLocked() GVM_REQUIRES(mu_);
  // Push `pages` contiguous dirty resident pages of `cache` starting at
  // `start` in ONE driver pushOut (one IPC chunk, one WAL commit record).
  // Per-page bookkeeping mirrors PushOutPageLocked; drops the lock.
  Status PushOutRunLocked(MutexLock& lock, PvmCache& cache, SegOffset start,
                          size_t pages) GVM_REQUIRES(mu_);
  // One full reclaim pass under the sweeper gate; returns true if the lock was
  // dropped.  Shared by the daemon thread and RunPageoutPassForTest.
  bool DaemonReclaimPass(MutexLock& lock) GVM_REQUIRES(mu_);
  void DaemonMain();
  PhysicalMemory::AllocClass AllocClassForThisThread() const GVM_REQUIRES(mu_) {
    return active_reclaimer_ == std::this_thread::get_id()
               ? PhysicalMemory::AllocClass::kEmergency
               : PhysicalMemory::AllocClass::kNormal;
  }

  const Options options_;  // pressure sentinels resolved by the constructor
  CacheId next_cache_id_ GVM_GUARDED_BY(mu_) = 1;
  std::unordered_map<CacheId, std::unique_ptr<PvmCache>> caches_ GVM_GUARDED_BY(mu_);
  GlobalMap map_ GVM_GUARDED_BY(mu_);
  SleepQueue sleepers_;
  // Per-region table of mapped pages, for O(resident) unmap/protect of a region.
  std::unordered_map<RegionImpl*, std::map<Vaddr, PageDesc*>> region_maps_ GVM_GUARDED_BY(mu_);
  // Round-robin page-out cursor (cache id, page offset), clock-style.
  CacheId clock_cache_ GVM_GUARDED_BY(mu_) = 0;
  SegOffset clock_offset_ GVM_GUARDED_BY(mu_) = 0;
  PvmDetailStats detail_ GVM_GUARDED_BY(mu_);
  uint32_t working_counter_ GVM_GUARDED_BY(mu_) = 0;  // names w1, w2, ... for working objects
  // Promoted spans, keyed by (address space, huge-aligned VA).  The record is
  // advisory: an inner auto-split can outrun it, so DemoteIfHuge tolerates a
  // stale entry (DemoteHuge returns kNotFound) and merely erases it.
  std::set<std::pair<AsId, Vaddr>> huge_spans_ GVM_GUARDED_BY(mu_);

  // ---- Memory-pressure state (DESIGN.md §15) ----
  // Per-address-space working set: FIFO of resident pages the space has mapped
  // (front = oldest) plus a lookup index.  Invariant: a page is in ws[as] iff
  // it carries at least one mapping in `as`.
  struct WorkingSet {
    std::list<PageDesc*> fifo;
    std::unordered_map<PageDesc*, std::list<PageDesc*>::iterator> index;
    // Re-fault-rate EWMA, fixed point x1000 (alpha = 1/8): rises when mapped
    // pages keep being rescued off the pageout queues (evicted too recently).
    uint64_t refault_ewma_x1000 = 0;
  };
  std::map<AsId, WorkingSet> working_sets_ GVM_GUARDED_BY(mu_);
  // Global pageout queues (front = oldest candidate).  PageDesc::queue +
  // queue_pos mirror membership; splices between caches keep pointers stable.
  std::list<PageDesc*> modified_queue_ GVM_GUARDED_BY(mu_);
  std::list<PageDesc*> standby_queue_ GVM_GUARDED_BY(mu_);
  // Single-sweeper gate: while a reclaim pass runs, other allocators sleep on
  // kFrameWaitKey instead of stampeding the clock; every completed pass bumps
  // the epoch and wakes them, whether or not it freed anything.
  bool sweeping_ GVM_GUARDED_BY(mu_) = false;
  uint64_t reclaim_epoch_ GVM_GUARDED_BY(mu_) = 0;
  std::thread::id active_reclaimer_ GVM_GUARDED_BY(mu_);
  // SleepQueue key for frame-availability waits.  Far outside the StubKey
  // range in practice; a collision only causes spurious wakeups.
  static constexpr uint64_t kFrameWaitKey = ~0ull;

  // Paging-daemon wake latch.  Rank kPageoutDaemon sits above kMmManager and
  // the frame locks so Kick works from under any of them; the daemon never
  // holds the latch while taking another lock.
  Mutex daemon_mu_{Rank::kPageoutDaemon, "PagedVm::daemon_mu_"};
  CondVar daemon_cv_;
  bool daemon_kicked_ GVM_GUARDED_BY(daemon_mu_) = false;
  bool daemon_stop_ GVM_GUARDED_BY(daemon_mu_) = false;
  std::atomic<bool> daemon_active_{false};  // cheap pre-latch check for Kick
  std::thread daemon_;  // gvm-lint: allow(annotation-coverage): joined by StopPageoutDaemon
  // Allocator low-water hook: kicks the daemon from the allocating thread.
  struct DaemonKicker final : PhysicalMemory::LowMemoryHook {
    PagedVm* vm = nullptr;
    void OnLowMemory() override { vm->KickPageoutDaemon(); }
  };
  DaemonKicker daemon_kicker_;  // gvm-lint: allow(annotation-coverage): written once in the constructor, before the hook is installed
};

}  // namespace gvm

#endif  // GVM_SRC_PVM_PAGED_VM_H_
