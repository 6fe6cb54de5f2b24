// BaseMm: context/region machinery shared by the three GMI implementations.
//
// The paper's GMI operations on contexts and regions (Table 2) are policy-free —
// finding the region for a fault address, splitting, sorted region lists — so the
// PVM, the Mach-style shadow baseline and the minimal real-time MM share this code
// and differ only in cache implementation and fault resolution, which are the
// subclass hooks below.
//
// Locking: one manager-wide mutex (`mu_`, rank kMmManager, a TSA capability).
// Public GMI entry points and the fault handler acquire it; subclass hooks are
// called with it held (GVM_REQUIRES below, re-stated on every override since
// thread-safety attributes are not inherited).  Subclasses must release it —
// via the MutexLock they are handed — around upcalls to segment drivers.
#ifndef GVM_SRC_VMBASE_BASE_MM_H_
#define GVM_SRC_VMBASE_BASE_MM_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/gmi/memory_manager.h"
#include "src/hal/cpu.h"
#include "src/hal/mmu.h"
#include "src/hal/phys_memory.h"
#include "src/hal/tlb.h"
#include "src/sync/annotated_mutex.h"

namespace gvm {

class BaseMm;

// Concrete Region shared by all managers.
class RegionImpl final : public Region {
 public:
  RegionImpl(BaseMm& mm, class ContextImpl& context, Vaddr start, uint64_t size, Prot prot,
             Cache& cache, SegOffset offset);

  Result<Region*> Split(uint64_t offset) override;
  [[nodiscard]] Status SetProtection(Prot prot) override;
  [[nodiscard]] Status LockInMemory() override;
  [[nodiscard]] Status Unlock() override;
  RegionStatus GetStatus() const override;
  [[nodiscard]] Status Destroy() override;

  // Accessors used by the managers (with the MM lock held).
  Vaddr start() const { return start_; }
  uint64_t size() const { return size_; }
  Vaddr end() const { return start_ + size_; }
  Prot prot() const { return prot_; }
  Cache& cache() const { return *cache_; }
  SegOffset offset() const { return offset_; }
  bool locked() const { return locked_; }
  ContextImpl& context() const { return context_; }

  bool Contains(Vaddr va) const { return va >= start_ && va < start_ + size_; }
  // Segment offset corresponding to a virtual address inside the region.
  SegOffset OffsetOf(Vaddr va) const { return offset_ + (va - start_); }
  // Virtual address corresponding to a segment offset, if the offset falls inside
  // the window this region maps.
  bool VaOf(SegOffset seg_offset, Vaddr* out) const;

 private:
  friend class BaseMm;

  // All mutable fields below are protected by mm_.mu_; the accessors above are
  // documented-discipline (annotating them would force REQUIRES onto every
  // const read path without adding real checking power — the writers all go
  // through BaseMm, which is annotated).
  BaseMm& mm_;
  ContextImpl& context_;
  Vaddr start_;
  uint64_t size_;
  Prot prot_;
  Cache* cache_;
  SegOffset offset_;
  bool locked_ = false;
};

// Concrete Context shared by all managers.
class ContextImpl final : public Context {
 public:
  ContextImpl(BaseMm& mm, AsId as);
  ~ContextImpl() override;

  std::vector<RegionStatus> GetRegionList() const override;
  Result<Region*> FindRegion(Vaddr va) override;
  void Switch() override;
  [[nodiscard]] Status Destroy() override;
  AsId address_space() const override { return as_; }

 private:
  friend class BaseMm;
  friend class RegionImpl;

  // Find with the MM lock already held.
  RegionImpl* FindRegionLocked(Vaddr va);

  BaseMm& mm_;
  AsId as_;
  // Regions sorted by start address (the paper's per-context sorted region
  // list).  Guarded by the manager-wide mutex; accessed via the BaseMm
  // friendship from annotated REQUIRES(mu_) code.
  std::map<Vaddr, std::unique_ptr<RegionImpl>> regions_;
};

class BaseMm : public MemoryManager {
 public:
  // The manager interposes a per-CPU software TLB (TlbMmu) between itself and
  // `mmu`: all translations and table mutations go through the TLB wrapper so
  // unmaps/downgrades are shot down before they are observable.  `enable_tlb`
  // false degrades the wrapper to pure delegation (for baselines and A/B runs).
  // `fence` selects the shootdown publication barrier (kAuto probes the host);
  // benchmarks sweep it to compare membarrier against per-read fences.
  BaseMm(PhysicalMemory& memory, Mmu& mmu, bool enable_tlb = true,
         TlbMmu::FenceMode fence = TlbMmu::FenceMode::kAuto);
  ~BaseMm() override;

  // ---- MemoryManager ----
  Result<Context*> ContextCreate() override GVM_EXCLUDES(mu_);
  Result<Region*> RegionCreate(Context& context, Vaddr address, uint64_t size, Prot prot,
                               Cache& cache, SegOffset offset) override GVM_EXCLUDES(mu_);
  void BindSegmentRegistry(SegmentRegistry* registry) override { registry_ = registry; }
  Cpu& cpu() override { return cpu_; }
  MmStats stats() const override GVM_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return stats_;
  }
  void ResetStats() override GVM_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    stats_ = MmStats{};
  }

  // ---- FaultHandler ----
  [[nodiscard]] Status HandleFault(const PageFault& fault) override GVM_EXCLUDES(mu_);

  PhysicalMemory& memory() { return memory_; }
  const PhysicalMemory& memory() const { return memory_; }
  Mmu& mmu() { return mmu_; }
  const Mmu& mmu() const { return mmu_; }
  // The software TLB fronting the hardware MMU (observability / benchmarks).
  TlbMmu& tlb() { return tlb_mmu_; }
  const TlbMmu& tlb() const { return tlb_mmu_; }
  size_t page_size() const { return memory_.page_size(); }

  // Number of live contexts (for leak checks in tests).
  size_t ContextCount() const GVM_EXCLUDES(mu_);

 protected:
  // ---- Subclass hooks (MM lock held unless noted) ----

  // Resolve one page fault: `page_offset` is the page-aligned offset of the fault
  // within the region's cache.  kOk means "mapping installed, retry the access".
  // `lock` is the guard HandleFault owns; implementations that must upcall to a
  // segment driver drop and retake it through `lock` (see PagedVm::PullInLocked).
  [[nodiscard]] virtual Status ResolveFault(RegionImpl& region, const PageFault& fault,
                              SegOffset page_offset, MutexLock& lock) GVM_REQUIRES(mu_) = 0;

  // A region was mapped over `cache` / is about to be unmapped.  Subclasses track
  // mapping counts and tear down MMU state for resident pages (O(resident), never
  // O(region size) — the size-independence property of section 4.1).
  // OnRegionMapped receives the caller's guard: the minimal MM eagerly loads
  // the region's pages, dropping the lock around each driver upcall.
  virtual void OnRegionMapped(RegionImpl& region, MutexLock& lock) GVM_REQUIRES(mu_) = 0;
  virtual void OnRegionUnmapping(RegionImpl& region) GVM_REQUIRES(mu_) = 0;

  // The context owning address space `as` is being destroyed; its regions are
  // already gone.  Subclasses drop any per-address-space state they keep.
  virtual void OnContextDestroyed(AsId as) GVM_REQUIRES(mu_) { (void)as; }

  // `first` was split; `second` is the new upper half.  Subclasses migrate their
  // per-region bookkeeping (mapped-page tables) for addresses now owned by `second`.
  virtual void OnRegionSplit(RegionImpl& first, RegionImpl& second) GVM_REQUIRES(mu_) = 0;

  // Apply a protection change to the pages of `region` currently in the MMU.
  virtual void OnRegionProtection(RegionImpl& region) GVM_REQUIRES(mu_) = 0;

  // Pin / unpin the region's pages (lockInMemory may need to fault pages in, so it
  // may release and retake the lock via `lock`).
  [[nodiscard]] virtual Status OnRegionLock(RegionImpl& region, MutexLock& lock) GVM_REQUIRES(mu_) = 0;
  [[nodiscard]] virtual Status OnRegionUnlock(RegionImpl& region) GVM_REQUIRES(mu_) = 0;

  // Re-derive the region for a fault after the lock was dropped (the region may
  // have been destroyed or replaced in the meantime).  Lock must be held.
  RegionImpl* RelookupRegion(const PageFault& fault) GVM_REQUIRES(mu_);

  SegmentRegistry* registry() { return registry_; }
  // True while a context owns address space `as` (invariant checkers).
  bool ContextLiveLocked(AsId as) const GVM_REQUIRES(mu_) { return contexts_.contains(as); }
  MmStats& mutable_stats() GVM_REQUIRES(mu_) { return stats_; }
  ContextImpl* current_context() GVM_REQUIRES(mu_) { return current_context_; }

  // Stats bump helpers used by subclasses.
  void CountFault(const PageFault& fault) GVM_REQUIRES(mu_);

  // The manager-wide mutex.  Protected (not private) so subclasses name it
  // directly in GUARDED_BY/REQUIRES annotations — TSA unifies the capability
  // expression `mu_` across BaseMm and its subclasses.
  mutable Mutex mu_{Rank::kMmManager, "BaseMm::mu_"};

 private:
  friend class ContextImpl;
  friend class RegionImpl;

  [[nodiscard]] Status DestroyContextLocked(ContextImpl& context) GVM_REQUIRES(mu_);
  [[nodiscard]] Status DestroyRegionLocked(RegionImpl& region) GVM_REQUIRES(mu_);
  Result<Region*> SplitRegionLocked(RegionImpl& region, uint64_t offset) GVM_REQUIRES(mu_);

  PhysicalMemory& memory_;
  TlbMmu tlb_mmu_;  // wraps the constructor's Mmu; declared before mmu_/cpu_ (gvm-lint: allow(annotation-coverage): internally synchronized)
  Mmu& mmu_;        // == tlb_mmu_: every manager MMU call goes through the TLB
  Cpu cpu_;  // gvm-lint: allow(annotation-coverage): internally synchronized (per-CPU state + TlbMmu)
  SegmentRegistry* registry_ = nullptr;  // gvm-lint: allow(annotation-coverage): bound once during single-threaded bring-up
  std::unordered_map<AsId, std::unique_ptr<ContextImpl>> contexts_ GVM_GUARDED_BY(mu_);
  ContextImpl* current_context_ GVM_GUARDED_BY(mu_) = nullptr;
  MmStats stats_ GVM_GUARDED_BY(mu_);
};

}  // namespace gvm

#endif  // GVM_SRC_VMBASE_BASE_MM_H_
