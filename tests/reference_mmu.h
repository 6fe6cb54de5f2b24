// ReferenceMmu: the mmu.h contract written out in the plainest possible way,
// as the oracle for the HAL differential test (hal_diff_test.cc).
//
// Ordered maps, no sharding, no locking, no shared code with the real ports:
// every rule of mmu.h is one visible statement here, so a divergence between
// this model and SoftMmu/HashMmu points at the port, not at a shared helper.
// Single-threaded use only.
#ifndef GVM_TESTS_REFERENCE_MMU_H_
#define GVM_TESTS_REFERENCE_MMU_H_

#include <map>

#include "src/hal/mmu.h"

namespace gvm {

class ReferenceMmu final : public Mmu {
 public:
  // `huge_ratio` is the second granule in base pages, already resolved (the
  // ports' 0 = "default" is not modelled); <= 1 disables huge pages.
  ReferenceMmu(size_t page_size, size_t huge_ratio)
      : page_size_(page_size), ratio_(huge_ratio > 1 ? huge_ratio : 1) {}

  Result<AsId> CreateAddressSpace() override {
    const AsId as = next_as_++;
    spaces_[as];
    return as;
  }

  [[nodiscard]] Status DestroyAddressSpace(AsId as) override {
    return spaces_.erase(as) != 0 ? Status::kOk : Status::kNotFound;
  }

  [[nodiscard]] Status Map(AsId as, Vaddr va, FrameIndex frame, Prot prot) override {
    Space* space = Find(as);
    if (space == nullptr) {
      return Status::kNotFound;
    }
    Split(*space, va);
    auto it = space->base.find(Vpn(va));
    const bool same_frame = it != space->base.end() && it->second.frame == frame;
    Pte pte{.frame = frame, .prot = prot};
    if (same_frame) {
      pte.referenced = it->second.referenced;
      pte.dirty = it->second.dirty;
    }
    space->base[Vpn(va)] = pte;
    return Status::kOk;
  }

  [[nodiscard]] Status Unmap(AsId as, Vaddr va) override {
    Space* space = Find(as);
    if (space == nullptr) {
      return Status::kNotFound;
    }
    Split(*space, va);
    space->base.erase(Vpn(va));
    return Status::kOk;
  }

  [[nodiscard]] Result<MmuEntry> UnmapCollect(AsId as, Vaddr va) override {
    Space* space = Find(as);
    if (space == nullptr) {
      return Status::kNotFound;
    }
    const bool was_huge = Split(*space, va);
    auto it = space->base.find(Vpn(va));
    if (it == space->base.end()) {
      return Status::kNotFound;
    }
    MmuEntry removed = Entry(it->second, it->second.frame, was_huge);
    space->base.erase(it);
    return removed;
  }

  [[nodiscard]] Status Protect(AsId as, Vaddr va, Prot prot) override {
    Space* space = Find(as);
    if (space == nullptr) {
      return Status::kNotFound;
    }
    Split(*space, va);
    auto it = space->base.find(Vpn(va));
    if (it == space->base.end()) {
      return Status::kNotFound;
    }
    it->second.prot = prot;
    return Status::kOk;
  }

  Result<FrameIndex> Translate(AsId as, Vaddr va, Access access) override {
    MmuTranslateInfo info;
    return TranslateAndAccessInfo(as, va, access, [](FrameIndex) {}, &info);
  }

  Result<FrameIndex> TranslateAndAccess(AsId as, Vaddr va, Access access,
                                        FrameBodyRef body) override {
    MmuTranslateInfo info;
    return TranslateAndAccessInfo(as, va, access, body, &info);
  }

  Result<FrameIndex> TranslateAndAccessInfo(AsId as, Vaddr va, Access access, FrameBodyRef body,
                                            MmuTranslateInfo* info) override {
    *info = MmuTranslateInfo{};
    Space* space = Find(as);
    if (space == nullptr) {
      return Status::kSegmentationFault;
    }
    Pte* pte = nullptr;
    FrameIndex frame = kInvalidFrame;
    if (auto it = space->base.find(Vpn(va)); it != space->base.end()) {
      pte = &it->second;
      frame = pte->frame;
    } else if (auto hit = space->huge.find(Hvpn(va)); hit != space->huge.end()) {
      pte = &hit->second;
      frame = Offset(*pte, va);
      info->huge = true;
      info->huge_frame = pte->frame;
    } else {
      return Status::kSegmentationFault;
    }
    if (!ProtAllows(pte->prot, AccessProt(access))) {
      *info = MmuTranslateInfo{};
      return Status::kProtectionFault;
    }
    pte->referenced = true;
    pte->dirty = pte->dirty || access == Access::kWrite;
    body(frame);
    return frame;
  }

  size_t huge_page_size() const override { return ratio_ > 1 ? ratio_ * page_size_ : 0; }

  // Supersedes the span's base PTEs, ORing their referenced/dirty bits into
  // the span's shared pair; a same-run re-map keeps the span's own bits.
  [[nodiscard]] Status MapHuge(AsId as, Vaddr va, FrameIndex frame, Prot prot) override {
    if (ratio_ <= 1) {
      return Status::kUnsupported;
    }
    if (va % huge_page_size() != 0) {
      return Status::kInvalidArgument;
    }
    Space* space = Find(as);
    if (space == nullptr) {
      return Status::kNotFound;
    }
    Pte span{.frame = frame, .prot = prot};
    if (auto it = space->huge.find(Hvpn(va)); it != space->huge.end() && it->second.frame == frame) {
      span.referenced = it->second.referenced;
      span.dirty = it->second.dirty;
    }
    for (size_t i = 0; i < ratio_; ++i) {
      auto it = space->base.find(Vpn(va) + i);
      if (it != space->base.end()) {
        span.referenced = span.referenced || it->second.referenced;
        span.dirty = span.dirty || it->second.dirty;
        space->base.erase(it);
      }
    }
    space->huge[Hvpn(va)] = span;
    return Status::kOk;
  }

  [[nodiscard]] Status DemoteHuge(AsId as, Vaddr va) override {
    Space* space = ratio_ > 1 ? Find(as) : nullptr;
    return space != nullptr && Split(*space, va) ? Status::kOk : Status::kNotFound;
  }

  Result<MmuEntry> Lookup(AsId as, Vaddr va) const override {
    auto sit = spaces_.find(as);
    if (sit == spaces_.end()) {
      return Status::kNotFound;
    }
    const Space& space = sit->second;
    if (auto it = space.base.find(Vpn(va)); it != space.base.end()) {
      return Entry(it->second, it->second.frame, false);
    }
    if (auto it = space.huge.find(Hvpn(va)); it != space.huge.end()) {
      return Entry(it->second, Offset(it->second, va), true);
    }
    return Status::kNotFound;
  }

  Result<bool> TestAndClearReferenced(AsId as, Vaddr va) override {
    Space* space = Find(as);
    if (space == nullptr) {
      return Status::kNotFound;
    }
    Pte* pte = nullptr;
    if (auto it = space->base.find(Vpn(va)); it != space->base.end()) {
      pte = &it->second;
    } else if (auto hit = space->huge.find(Hvpn(va)); hit != space->huge.end()) {
      pte = &hit->second;
    } else {
      return Status::kNotFound;
    }
    const bool was = pte->referenced;
    pte->referenced = false;
    return was;
  }

  size_t page_size() const override { return page_size_; }
  Stats stats() const override { return Stats{}; }
  void ResetStats() override {}
  const char* name() const override { return "ReferenceMmu"; }

 private:
  struct Pte {
    FrameIndex frame = kInvalidFrame;
    Prot prot = Prot::kNone;
    bool referenced = false;
    bool dirty = false;
  };
  struct Space {
    std::map<uint64_t, Pte> base;  // by vpn
    std::map<uint64_t, Pte> huge;  // by huge vpn; frame = first frame of the run
  };

  uint64_t Vpn(Vaddr va) const { return va / page_size_; }
  uint64_t Hvpn(Vaddr va) const { return Vpn(va) / ratio_; }
  FrameIndex Offset(const Pte& span, Vaddr va) const {
    return static_cast<FrameIndex>(span.frame + Vpn(va) % ratio_);
  }
  static MmuEntry Entry(const Pte& pte, FrameIndex frame, bool huge) {
    return MmuEntry{.frame = frame,
                    .prot = pte.prot,
                    .referenced = pte.referenced,
                    .dirty = pte.dirty,
                    .huge = huge};
  }
  Space* Find(AsId as) {
    auto it = spaces_.find(as);
    return it == spaces_.end() ? nullptr : &it->second;
  }
  // Replaces the span covering `va` by its base PTEs, each carrying the
  // span's protection and its shared referenced/dirty bits.
  bool Split(Space& space, Vaddr va) {
    auto it = space.huge.find(Hvpn(va));
    if (ratio_ <= 1 || it == space.huge.end()) {
      return false;
    }
    const Pte span = it->second;
    space.huge.erase(it);
    for (size_t i = 0; i < ratio_; ++i) {
      Pte pte = span;
      pte.frame = static_cast<FrameIndex>(span.frame + i);
      space.base[Hvpn(va) * ratio_ + i] = pte;
    }
    return true;
  }

  const size_t page_size_;
  const size_t ratio_;
  AsId next_as_ = 0;
  std::map<AsId, Space> spaces_;
};

}  // namespace gvm

#endif  // GVM_TESTS_REFERENCE_MMU_H_
