// Hat: the machine-independent half of the MMU layer (the HAT core), in the
// SunOS VM split between a generic hardware-address-translation layer and
// small per-architecture page-table drivers.
//
// The core implements the whole mmu.h contract once: address-space sharding
// and the shard locks, Mmu::Stats, the same-frame / same-run preservation of
// the referenced and dirty bits, the huge granule (shared bits, fan-out on
// split, auto-demotion before base-granule ops, the huge fallback of the walk)
// and the collect forms.  A port supplies only its page-table Store, chosen at
// compile time so the walk makes no indirect call:
//
//   using Space;  using Table;     // one address space's tables; one shard's
//   Space* FindSpace(Table&, AsId) const;
//   void   CreateSpace(Table&, AsId) const;
//   bool   DestroySpace(Table&, AsId) const;         // false if not live
//   HatPte* FindBase(Space&, uint64_t vpn) const;    // null if unmapped
//   HatPte& InsertBase(Space&, uint64_t vpn) const;  // fresh slot: frame = kInvalidFrame
//   bool   EraseBase(Space&, uint64_t vpn, HatPte* old) const;  // false if unmapped
//   ...and FindHuge / InsertHuge / EraseHuge, the same over huge vpns.
//
// All Store calls run under the owning shard's lock.  A port is a Store plus
// a constructor and a name (SoftMmu: two-level tables; HashMmu: hashed
// (as, vpn) tables); each explicitly instantiates Hat<Store> in its .cc.
#ifndef GVM_SRC_HAL_HAT_H_
#define GVM_SRC_HAL_HAT_H_

#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>

#include "src/hal/mmu.h"
#include "src/sync/annotated_mutex.h"
#include "src/util/align.h"

namespace gvm {

// One translation as a Store holds it: a base page, or a huge span whose
// frame is the first of its contiguous run and whose bits are shared.
struct HatPte {
  FrameIndex frame = kInvalidFrame;
  Prot prot = Prot::kNone;
  bool referenced = false;
  bool dirty = false;
};

template <typename Store>
class Hat : public Mmu {
 public:
  // Number of independent lock shards; address spaces hash onto them by id.
  static constexpr size_t kLockShards = 16;

  Result<AsId> CreateAddressSpace() override {
    const AsId as = next_as_.fetch_add(1, std::memory_order_relaxed);
    Shard& shard = ShardFor(as);
    WriterLock guard(shard.mu);
    store_.CreateSpace(shard.table, as);
    ++shard.stats.spaces_created;
    return as;
  }

  [[nodiscard]] Status DestroyAddressSpace(AsId as) override {
    Shard& shard = ShardFor(as);
    WriterLock guard(shard.mu);
    if (!store_.DestroySpace(shard.table, as)) {
      return Status::kNotFound;
    }
    ++shard.stats.spaces_destroyed;
    return Status::kOk;
  }

  // Same-frame re-map is a protection change in place: the bits survive (the
  // Mmu::Map contract TlbMmu's write-hit path relies on).  A fresh slot has
  // frame = kInvalidFrame, so its bits start clear.
  [[nodiscard]] Status Map(AsId as, Vaddr va, FrameIndex frame, Prot prot) override {
    Shard& shard = ShardFor(as);
    WriterLock guard(shard.mu);
    Space* space = store_.FindSpace(shard.table, as);
    if (space == nullptr) {
      return Status::kNotFound;
    }
    Split(*space, va);
    HatPte& pte = store_.InsertBase(*space, Vpn(va));
    const bool same_frame = pte.frame == frame;
    pte = HatPte{.frame = frame,
                 .prot = prot,
                 .referenced = same_frame && pte.referenced,
                 .dirty = same_frame && pte.dirty};
    ++shard.stats.maps;
    return Status::kOk;
  }

  [[nodiscard]] Status Unmap(AsId as, Vaddr va) override {
    bool live = false;
    (void)Remove(as, va, &live);  // an unmapped page is a no-op
    return live ? Status::kOk : Status::kNotFound;
  }

  [[nodiscard]] Result<MmuEntry> UnmapCollect(AsId as, Vaddr va) override {
    bool live = false;
    return Remove(as, va, &live);
  }

  [[nodiscard]] Status Protect(AsId as, Vaddr va, Prot prot) override {
    Shard& shard = ShardFor(as);
    WriterLock guard(shard.mu);
    Space* space = store_.FindSpace(shard.table, as);
    if (space == nullptr) {
      return Status::kNotFound;
    }
    Split(*space, va);
    HatPte* pte = store_.FindBase(*space, Vpn(va));
    if (pte == nullptr) {
      return Status::kNotFound;
    }
    pte->prot = prot;
    ++shard.stats.protects;
    return Status::kOk;
  }

  Result<FrameIndex> Translate(AsId as, Vaddr va, Access access) override {
    return Walk(as, va, access, [](FrameIndex) {}, nullptr);
  }

  Result<FrameIndex> TranslateAndAccess(AsId as, Vaddr va, Access access,
                                        FrameBodyRef body) override {
    return Walk(as, va, access, body, nullptr);
  }

  Result<FrameIndex> TranslateAndAccessInfo(AsId as, Vaddr va, Access access, FrameBodyRef body,
                                            MmuTranslateInfo* info) override {
    *info = MmuTranslateInfo{};
    return Walk(as, va, access, body, info);
  }

  // A huge span answers with its per-base-page view, without demoting.
  Result<MmuEntry> Lookup(AsId as, Vaddr va) const override {
    Shard& shard = ShardFor(as);
    ReaderLock guard(shard.mu);
    bool huge = false;
    const HatPte* pte = FindAny(shard, as, va, &huge);
    if (pte == nullptr) {
      return Status::kNotFound;
    }
    return MmuEntry{.frame = huge ? SpanFrame(*pte, va) : pte->frame,
                    .prot = pte->prot,
                    .referenced = pte->referenced,
                    .dirty = pte->dirty,
                    .huge = huge};
  }

  // Inside a span the bit is shared: clearing it through any page clears the
  // span (the clock treats the span as one unit of reuse).
  Result<bool> TestAndClearReferenced(AsId as, Vaddr va) override {
    Shard& shard = ShardFor(as);
    WriterLock guard(shard.mu);
    bool huge = false;
    HatPte* pte = FindAny(shard, as, va, &huge);
    if (pte == nullptr) {
      return Status::kNotFound;
    }
    const bool was = pte->referenced;
    pte->referenced = false;
    return was;
  }

  size_t huge_page_size() const override { return ratio_ > 1 ? page_size_ * ratio_ : 0; }

  // The span's shared bits: kept on a same-run re-map, clear on a new run,
  // and in both cases ORed with the bits of every base PTE it supersedes.
  [[nodiscard]] Status MapHuge(AsId as, Vaddr va, FrameIndex frame, Prot prot) override {
    if (ratio_ <= 1) {
      return Status::kUnsupported;
    }
    if ((va & (huge_page_size() - 1)) != 0) {
      return Status::kInvalidArgument;
    }
    Shard& shard = ShardFor(as);
    WriterLock guard(shard.mu);
    Space* space = store_.FindSpace(shard.table, as);
    if (space == nullptr) {
      return Status::kNotFound;
    }
    HatPte& span = store_.InsertHuge(*space, Hvpn(va));
    const bool same_run = span.frame == frame;
    span = HatPte{.frame = frame,
                  .prot = prot,
                  .referenced = same_run && span.referenced,
                  .dirty = same_run && span.dirty};
    for (size_t i = 0; i < ratio_; ++i) {
      HatPte old;
      if (store_.EraseBase(*space, Vpn(va) + i, &old)) {
        span.referenced = span.referenced || old.referenced;
        span.dirty = span.dirty || old.dirty;
      }
    }
    ++shard.stats.maps;
    return Status::kOk;
  }

  [[nodiscard]] Status DemoteHuge(AsId as, Vaddr va) override {
    Shard& shard = ShardFor(as);
    WriterLock guard(shard.mu);
    Space* space = store_.FindSpace(shard.table, as);
    return space != nullptr && Split(*space, va) ? Status::kOk : Status::kNotFound;
  }

  size_t page_size() const override { return page_size_; }

  // Aggregates the per-shard counters; a consistent total only at quiescence.
  Stats stats() const override {
    Stats out;
    for (Shard& shard : shards_) {
      ReaderLock guard(shard.mu);
      out.maps += shard.stats.maps;
      out.unmaps += shard.stats.unmaps;
      out.protects += shard.stats.protects;
      out.translations += shard.stats.translations;
      out.faults += shard.stats.faults;
      out.spaces_created += shard.stats.spaces_created;
      out.spaces_destroyed += shard.stats.spaces_destroyed;
    }
    return out;
  }

  void ResetStats() override {
    for (Shard& shard : shards_) {
      WriterLock guard(shard.mu);
      shard.stats = Stats{};
    }
  }

 protected:
  // `huge_pages` is the second granule in base pages (power of two); 0 picks
  // the default of 512KB / page_size, and a value <= 1 disables huge pages.
  Hat(size_t page_size, size_t huge_pages, Store store)
      : store_(store),
        page_size_(page_size),
        page_shift_(static_cast<unsigned>(std::countr_zero(page_size))),
        ratio_(ResolveHugeRatio(page_size, huge_pages)),
        huge_shift_(static_cast<unsigned>(std::countr_zero(ratio_))) {
    assert(IsPowerOfTwo(page_size));
  }

  // Runs `read(space)` with `as`'s shard held shared; space is null if `as`
  // is not live.  For port-specific inspection (SoftMmu::LeafTableCount).
  template <typename F>
  auto ReadSpace(AsId as, F read) const {
    Shard& shard = ShardFor(as);
    ReaderLock guard(shard.mu);
    return read(static_cast<const Space*>(store_.FindSpace(shard.table, as)));
  }

 private:
  using Space = typename Store::Space;

  // Hardware walks PTEs atomically with respect to kernel updates; the model
  // gets the same property from the shard lock.  The core never calls out
  // while holding one, so the kernel-lock -> MMU-lock order is acyclic, and no
  // operation ever holds two shards at once (all shards share rank kMmuShard,
  // so the lock-rank validator aborts if one ever does).  Read-only operations
  // (Lookup, stats, ReadSpace) take the shard shared.
  struct alignas(64) Shard {
    mutable SharedMutex mu{Rank::kMmuShard, "Hat::Shard::mu"};
    typename Store::Table table GVM_GUARDED_BY(mu);
    Stats stats GVM_GUARDED_BY(mu);
  };

  static size_t ResolveHugeRatio(size_t page_size, size_t huge_pages) {
    const size_t ratio = huge_pages != 0 ? huge_pages : (512 * 1024) / page_size;
    assert(ratio <= 1 || IsPowerOfTwo(ratio));
    return ratio <= 1 ? 1 : ratio;
  }

  uint64_t Vpn(Vaddr va) const { return va >> page_shift_; }
  uint64_t Hvpn(Vaddr va) const { return Vpn(va) >> huge_shift_; }
  FrameIndex SpanFrame(const HatPte& span, Vaddr va) const {
    return static_cast<FrameIndex>(span.frame + (Vpn(va) & (ratio_ - 1)));
  }
  Shard& ShardFor(AsId as) const { return shards_[as % kLockShards]; }

  // The base PTE for `va`, else the huge span covering it (*huge = true).
  HatPte* FindAny(Shard& shard, AsId as, Vaddr va, bool* huge) const
      GVM_REQUIRES_SHARED(shard.mu) {
    Space* space = store_.FindSpace(shard.table, as);
    if (space == nullptr) {
      return nullptr;
    }
    if (HatPte* pte = store_.FindBase(*space, Vpn(va))) {
      return pte;
    }
    HatPte* span = ratio_ > 1 ? store_.FindHuge(*space, Hvpn(va)) : nullptr;
    *huge = span != nullptr;
    return span;
  }

  // Demotes the span covering `va`, if any, into base PTEs that carry its
  // protection and its shared bits (a write through the wide entry could have
  // landed in any of them).  Every base-granule op calls this first.
  bool Split(Space& space, Vaddr va) const {
    HatPte span;
    if (ratio_ <= 1 || !store_.EraseHuge(space, Hvpn(va), &span)) {
      return false;
    }
    for (size_t i = 0; i < ratio_; ++i) {
      HatPte& pte = store_.InsertBase(space, (Hvpn(va) << huge_shift_) + i);
      pte = span;
      pte.frame = static_cast<FrameIndex>(span.frame + i);
    }
    return true;
  }

  // Removes the base PTE for `va` (demoting a covering span first) and
  // returns it, flagged huge if a span was split.  *live: `as` exists.
  Result<MmuEntry> Remove(AsId as, Vaddr va, bool* live) {
    Shard& shard = ShardFor(as);
    WriterLock guard(shard.mu);
    Space* space = store_.FindSpace(shard.table, as);
    *live = space != nullptr;
    if (space == nullptr) {
      return Status::kNotFound;
    }
    const bool was_huge = Split(*space, va);
    HatPte old;
    if (!store_.EraseBase(*space, Vpn(va), &old)) {
      return Status::kNotFound;
    }
    ++shard.stats.unmaps;
    return MmuEntry{.frame = old.frame,
                    .prot = old.prot,
                    .referenced = old.referenced,
                    .dirty = old.dirty,
                    .huge = was_huge};
  }

  // Translation plus access under one exclusive hold of the shard: the walk
  // sets referenced/dirty, and `body` runs while the translation is valid.
  template <typename Body>
  Result<FrameIndex> Walk(AsId as, Vaddr va, Access access, const Body& body,
                          MmuTranslateInfo* info) {
    Shard& shard = ShardFor(as);
    WriterLock guard(shard.mu);
    ++shard.stats.translations;
    bool huge = false;
    HatPte* pte = FindAny(shard, as, va, &huge);
    if (pte == nullptr || !ProtAllows(pte->prot, AccessProt(access))) {
      ++shard.stats.faults;
      return pte == nullptr ? Status::kSegmentationFault : Status::kProtectionFault;
    }
    pte->referenced = true;
    pte->dirty = pte->dirty || access == Access::kWrite;
    const FrameIndex frame = huge ? SpanFrame(*pte, va) : pte->frame;
    if (huge && info != nullptr) {
      info->huge = true;
      info->huge_frame = pte->frame;
    }
    body(frame);
    return frame;
  }

  const Store store_;
  const size_t page_size_;
  const unsigned page_shift_;
  const size_t ratio_;  // base pages per huge page; 1 means disabled
  const unsigned huge_shift_;
  std::atomic<AsId> next_as_{0};
  mutable std::array<Shard, kLockShards> shards_;
};

}  // namespace gvm

#endif  // GVM_SRC_HAL_HAT_H_
