// The hardware MMU interface — the boundary between the machine-independent PVM and
// its (small) machine-dependent part (paper section 3.1 / 4, Table 5).
//
// Two implementations are provided, mirroring the paper's portability claim (the
// PVM was ported to the Sun-3 MMU, the Motorola PMMU, a custom Telmat MMU and the
// iAPX 386 by rewriting only this layer):
//   * SoftMmu — two-level page tables, in the style of the PMMU / i386.
//   * HashMmu — a hashed/inverted page table, in the style of custom MMUs.
//
// Both are split the SunOS-VM way: one generic HAT core (hat.h) implements
// this whole contract — sharding and locking, stats, the referenced/dirty
// rules and the huge granule — over a per-port page-table store that only
// creates and destroys spaces and finds, inserts and erases PTEs.  The store
// is a template argument, so the split costs the walk no indirect call; a new
// MMU is a new store.
//
// The interface deals in page-aligned virtual addresses and page frames only; all
// policy (what to map, when, with which protection) lives above it.
#ifndef GVM_SRC_HAL_MMU_H_
#define GVM_SRC_HAL_MMU_H_

#include <cstdint>

#include "src/hal/types.h"
#include "src/util/result.h"

namespace gvm {

// Non-owning reference to a callable invoked with the translated frame while the
// translation is held valid.  A plain {context, thunk} pair rather than a
// std::function: the CPU constructs one per simulated load/store, and a
// std::function whose captures exceed its small-buffer optimisation would
// heap-allocate on every access.  The referenced callable must outlive the call.
class FrameBodyRef {
 public:
  template <typename F>
  FrameBodyRef(const F& f)  // NOLINT(google-explicit-constructor)
      : ctx_(const_cast<void*>(static_cast<const void*>(&f))),
        fn_([](void* ctx, FrameIndex frame) { (*static_cast<const F*>(ctx))(frame); }) {}
  void operator()(FrameIndex frame) const { fn_(ctx_, frame); }

 private:
  void* ctx_;
  void (*fn_)(void*, FrameIndex);
};

// One translation entry as seen by software.
//
// `huge` is reported per base page: a Lookup inside a huge span returns the
// base-page view (frame = span base + page offset) with huge = true, and an
// UnmapCollect that had to split a huge span first reports huge = true so the
// caller (TlbMmu) knows to invalidate the wide cached entry too.
struct MmuEntry {
  FrameIndex frame = kInvalidFrame;
  Prot prot = Prot::kNone;
  bool referenced = false;  // set by the hardware on any successful translation
  bool dirty = false;       // set by the hardware on a successful write
  bool huge = false;        // translation is (or was, for UnmapCollect) part of a huge span
};

// Out-parameter of TranslateAndAccessInfo: tells a caching layer (TlbMmu) what
// kind of entry the walk found, so it can cache one wide entry instead of N
// base entries.  `huge_frame` is the frame of the span's first base page.
struct MmuTranslateInfo {
  bool huge = false;
  FrameIndex huge_frame = kInvalidFrame;
};

class Mmu {
 public:
  struct Stats {
    uint64_t maps = 0;
    uint64_t unmaps = 0;
    uint64_t protects = 0;
    uint64_t translations = 0;
    uint64_t faults = 0;
    uint64_t spaces_created = 0;
    uint64_t spaces_destroyed = 0;
  };

  virtual ~Mmu() = default;

  virtual Result<AsId> CreateAddressSpace() = 0;
  // Destroys the space and all its mappings.
  [[nodiscard]] virtual Status DestroyAddressSpace(AsId as) = 0;

  // Installs/replaces the translation for the page containing `va`.
  //
  // Re-mapping a page with the frame it already translates to is a protection
  // change in place and must preserve the referenced/dirty bits; installing a
  // different frame starts them clear.  TlbMmu depends on this: it does not
  // shoot down on a same-frame, non-downgrading re-map, so a cached write
  // entry stays live — if the re-map wiped the dirty bit, an actively-written
  // page would look clean to eviction and be dropped without write-back.
  [[nodiscard]] virtual Status Map(AsId as, Vaddr va, FrameIndex frame, Prot prot) = 0;

  // Removes the translation for the page containing `va` (no-op if absent).
  [[nodiscard]] virtual Status Unmap(AsId as, Vaddr va) = 0;

  // Removes the translation for the page containing `va` and returns the entry
  // it removed (kNotFound if there was none).  Unlike a Lookup-then-Unmap
  // pair, reading the referenced/dirty bits and destroying the entry are one
  // atomic step: with the two-call form a write can translate in the gap,
  // setting a dirty bit on a PTE the Unmap then wipes — and an eviction that
  // harvested "clean" from the Lookup would drop acknowledged data.  Every
  // eviction-side unmap must use this form.
  [[nodiscard]] virtual Result<MmuEntry> UnmapCollect(AsId as, Vaddr va) = 0;

  // Batched UnmapCollect over `count` consecutive pages (count <= 64): bit i
  // of *dirty_mask is set iff page i had a dirty translation; pages without a
  // translation are skipped.  The default loops UnmapCollect — each page's
  // harvest stays atomic; batching only changes who pays the invalidation.
  // Implementations with cross-CPU invalidation costs (TlbMmu) override it to
  // cover the run with one ranged shootdown, like UnmapRange.
  [[nodiscard]] virtual Status UnmapRangeCollect(AsId as, Vaddr va, size_t count,
                                                 uint64_t* dirty_mask) {
    const size_t page = page_size();
    uint64_t mask = 0;
    for (size_t i = 0; i < count && i < 64; ++i) {
      Result<MmuEntry> removed = UnmapCollect(as, va + i * page);
      if (removed.ok() && removed->dirty) {
        mask |= uint64_t{1} << i;
      }
    }
    *dirty_mask = mask;
    return Status::kOk;
  }

  // Changes the protection of an existing translation.  kNotFound if unmapped.
  [[nodiscard]] virtual Status Protect(AsId as, Vaddr va, Prot prot) = 0;

  // Removes the translations for `count` consecutive pages starting at the page
  // containing `va`; pages without a translation are skipped.  The default just
  // loops Unmap.  Implementations that pay a cross-CPU invalidation per unmap
  // (TlbMmu) override this to batch the whole run into one shootdown — the
  // software analogue of a ranged TLBI/invlpgb instead of a per-page IPI storm.
  [[nodiscard]] virtual Status UnmapRange(AsId as, Vaddr va, size_t count) {
    const size_t page = page_size();
    for (size_t i = 0; i < count; ++i) {
      Status s = Unmap(as, va + i * page);
      if (s != Status::kOk) {
        return s;
      }
    }
    return Status::kOk;
  }

  // Changes the protection of `count` consecutive pages to `prot`.  Unlike the
  // single-page Protect, pages without a translation are skipped rather than
  // reported: a range operation's caller names a span, not a residency set.
  // Same batching contract as UnmapRange.
  [[nodiscard]] virtual Status ProtectRange(AsId as, Vaddr va, size_t count, Prot prot) {
    const size_t page = page_size();
    for (size_t i = 0; i < count; ++i) {
      Status s = Protect(as, va + i * page, prot);
      if (s != Status::kOk && s != Status::kNotFound) {
        return s;
      }
    }
    return Status::kOk;
  }

  // Hardware translation: returns the frame if the access is permitted, updating
  // referenced/dirty bits; otherwise returns kSegmentationFault (no mapping) or
  // kProtectionFault (mapping present, protection insufficient).
  virtual Result<FrameIndex> Translate(AsId as, Vaddr va, Access access) = 0;

  // Translation plus the physical access as one unit: hardware never lets a
  // store land in a frame after the kernel has finished unmapping the page
  // (TLB-shootdown semantics), so `body(frame)` must run while the translation
  // is still guaranteed valid.  Implementations with internal locking hold it
  // across both steps; the default is the unsynchronized two-step form.
  virtual Result<FrameIndex> TranslateAndAccess(AsId as, Vaddr va, Access access,
                                                FrameBodyRef body) {
    Result<FrameIndex> frame = Translate(as, va, access);
    if (frame.ok()) {
      body(*frame);
    }
    return frame;
  }

  // ---- Second translation granule (transparent large pages) ----------------
  //
  // An implementation MAY support one additional power-of-two granule of
  // huge_page_size() bytes (0 = unsupported).  A huge mapping covers a
  // huge-aligned virtual span with a contiguous physical frame run (base frame
  // + i for base page i) under one protection, with ONE shared referenced and
  // ONE shared dirty bit for the whole span.
  //
  // Base-granule operations (Map/Protect/Unmap/UnmapCollect and the range
  // forms) on an address inside a huge span transparently DEMOTE the span
  // first — the span is replaced by its base-page PTEs (frame = base + i,
  // protection copied, the shared referenced/dirty bits fanned out to every
  // base PTE) — and then apply.  The fan-out is what keeps the UnmapCollect
  // dirty-harvest contract honest: a write that translated through the wide
  // entry dirtied the whole span, so after the split every base page it could
  // have landed in reports dirty.  UnmapCollect reports huge = true on the
  // removed entry when it split a span, so TlbMmu widens the invalidation.

  // Size in bytes of the second granule; 0 if the implementation has none.
  virtual size_t huge_page_size() const { return 0; }

  // Installs one huge translation at huge-aligned `va`, mapping the span to
  // the contiguous frame run starting at `frame`.  Replaces any base-page
  // translations inside the span.  Like Map, re-mapping the span with the
  // frame run it already translates to preserves the shared referenced/dirty
  // bits; a different run starts them clear.  Either way the referenced and
  // dirty bits of every base PTE the span supersedes are ORed into the shared
  // pair, so a write recorded only in a base PTE is never silently dropped.
  // kInvalidArgument if `va` is not huge-aligned; kUnsupported if
  // huge_page_size() == 0.
  [[nodiscard]] virtual Status MapHuge(AsId as, Vaddr va, FrameIndex frame, Prot prot) {
    (void)as;
    (void)va;
    (void)frame;
    (void)prot;
    return Status::kUnsupported;
  }

  // Splits the huge span containing `va` into its base-page translations
  // (frame = base + i, shared referenced/dirty fanned out).  kNotFound if no
  // huge translation covers `va`.  The caller owns TLB invalidation.
  [[nodiscard]] virtual Status DemoteHuge(AsId as, Vaddr va) {
    (void)as;
    (void)va;
    return Status::kNotFound;
  }

  // TranslateAndAccess plus entry-kind reporting, for caching layers that can
  // hold wide entries.  The default reports "not huge"; implementations with
  // a second granule override it alongside TranslateAndAccess.
  virtual Result<FrameIndex> TranslateAndAccessInfo(AsId as, Vaddr va, Access access,
                                                    FrameBodyRef body, MmuTranslateInfo* info) {
    *info = MmuTranslateInfo{};
    return TranslateAndAccess(as, va, access, body);
  }

  // Software inspection of an entry, without touching referenced/dirty bits.
  virtual Result<MmuEntry> Lookup(AsId as, Vaddr va) const = 0;

  // Reads and clears the referenced bit (for clock-style page replacement).
  // Returns kNotFound if the page is unmapped.
  virtual Result<bool> TestAndClearReferenced(AsId as, Vaddr va) = 0;

  virtual size_t page_size() const = 0;

  // Returned by value: implementations aggregate internal (possibly sharded)
  // counters into a snapshot, so concurrent callers never share storage.
  virtual Stats stats() const = 0;
  virtual void ResetStats() = 0;

  // Human-readable implementation name, for Table 5-style reporting.
  virtual const char* name() const = 0;
};

}  // namespace gvm

#endif  // GVM_SRC_HAL_MMU_H_
