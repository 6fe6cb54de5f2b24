#include "src/vmbase/base_mm.h"

#include <cassert>

#include "src/util/align.h"
#include "src/util/log.h"

namespace gvm {

// ---------------------------------------------------------------------------
// RegionImpl
// ---------------------------------------------------------------------------

RegionImpl::RegionImpl(BaseMm& mm, ContextImpl& context, Vaddr start, uint64_t size, Prot prot,
                       Cache& cache, SegOffset offset)
    : mm_(mm),
      context_(context),
      start_(start),
      size_(size),
      prot_(prot),
      cache_(&cache),
      offset_(offset) {}

bool RegionImpl::VaOf(SegOffset seg_offset, Vaddr* out) const {
  if (seg_offset < offset_ || seg_offset >= offset_ + size_) {
    return false;
  }
  *out = start_ + (seg_offset - offset_);
  return true;
}

Result<Region*> RegionImpl::Split(uint64_t offset) {
  MutexLock lock(mm_.mu_);
  return mm_.SplitRegionLocked(*this, offset);
}

Status RegionImpl::SetProtection(Prot prot) {
  MutexLock lock(mm_.mu_);
  prot_ = prot;
  mm_.OnRegionProtection(*this);
  return Status::kOk;
}

Status RegionImpl::LockInMemory() {
  MutexLock lock(mm_.mu_);
  Status s = mm_.OnRegionLock(*this, lock);
  if (s == Status::kOk) {
    locked_ = true;
  }
  return s;
}

Status RegionImpl::Unlock() {
  MutexLock lock(mm_.mu_);
  if (!locked_) {
    return Status::kOk;
  }
  locked_ = false;
  return mm_.OnRegionUnlock(*this);
}

RegionStatus RegionImpl::GetStatus() const {
  return RegionStatus{
      .address = start_,
      .size = size_,
      .protection = prot_,
      .cache = cache_,
      .offset = offset_,
      .locked = locked_,
  };
}

Status RegionImpl::Destroy() {
  MutexLock lock(mm_.mu_);
  return mm_.DestroyRegionLocked(*this);
}

// ---------------------------------------------------------------------------
// ContextImpl
// ---------------------------------------------------------------------------

ContextImpl::ContextImpl(BaseMm& mm, AsId as) : mm_(mm), as_(as) {}

ContextImpl::~ContextImpl() = default;

std::vector<RegionStatus> ContextImpl::GetRegionList() const {
  MutexLock lock(mm_.mu_);
  std::vector<RegionStatus> list;
  list.reserve(regions_.size());
  for (const auto& [start, region] : regions_) {
    list.push_back(region->GetStatus());
  }
  return list;
}

RegionImpl* ContextImpl::FindRegionLocked(Vaddr va) {
  // regions_ is keyed by start address; the candidate is the last region whose
  // start is <= va (the paper's sorted-list search, with a tree instead).
  auto it = regions_.upper_bound(va);
  if (it == regions_.begin()) {
    return nullptr;
  }
  --it;
  RegionImpl* region = it->second.get();
  return region->Contains(va) ? region : nullptr;
}

Result<Region*> ContextImpl::FindRegion(Vaddr va) {
  MutexLock lock(mm_.mu_);
  RegionImpl* region = FindRegionLocked(va);
  if (region == nullptr) {
    return Status::kNotFound;
  }
  return static_cast<Region*>(region);
}

void ContextImpl::Switch() {
  MutexLock lock(mm_.mu_);
  mm_.current_context_ = this;
}

Status ContextImpl::Destroy() {
  MutexLock lock(mm_.mu_);
  return mm_.DestroyContextLocked(*this);
}

// ---------------------------------------------------------------------------
// BaseMm
// ---------------------------------------------------------------------------

BaseMm::BaseMm(PhysicalMemory& memory, Mmu& mmu, bool enable_tlb, TlbMmu::FenceMode fence)
    : memory_(memory), tlb_mmu_(mmu, enable_tlb, fence), mmu_(tlb_mmu_), cpu_(memory, tlb_mmu_) {
  assert(memory.page_size() == mmu.page_size());
  cpu_.BindFaultHandler(this);
}

BaseMm::~BaseMm() = default;

Result<Context*> BaseMm::ContextCreate() {
  MutexLock lock(mu_);
  Result<AsId> as = mmu_.CreateAddressSpace();
  if (!as.ok()) {
    return as.status();
  }
  auto context = std::make_unique<ContextImpl>(*this, *as);
  Context* raw = context.get();
  contexts_.emplace(*as, std::move(context));
  return raw;
}

Result<Region*> BaseMm::RegionCreate(Context& context, Vaddr address, uint64_t size, Prot prot,
                                     Cache& cache, SegOffset offset) {
  const size_t page = page_size();
  if (size == 0 || !IsAligned(address, page) || !IsAligned(size, page) ||
      !IsAligned(offset, page)) {
    return Status::kInvalidArgument;
  }
  MutexLock lock(mu_);
  auto& impl = static_cast<ContextImpl&>(context);
  // Reject overlap with an existing region.
  auto next = impl.regions_.lower_bound(address);
  if (next != impl.regions_.end() && next->second->start() < address + size) {
    return Status::kAlreadyExists;
  }
  if (next != impl.regions_.begin()) {
    auto prev = std::prev(next);
    if (prev->second->end() > address) {
      return Status::kAlreadyExists;
    }
  }
  auto region = std::make_unique<RegionImpl>(*this, impl, address, size, prot, cache, offset);
  RegionImpl* raw = region.get();
  impl.regions_.emplace(address, std::move(region));
  OnRegionMapped(*raw, lock);
  return static_cast<Region*>(raw);
}

Status BaseMm::HandleFault(const PageFault& fault) {
  MutexLock lock(mu_);
  auto ctx_it = contexts_.find(fault.address_space);
  if (ctx_it == contexts_.end()) {
    return Status::kSegmentationFault;
  }
  RegionImpl* region = ctx_it->second->FindRegionLocked(fault.address);
  if (region == nullptr) {
    // Section 4.1.2: "If the region is not found, the PVM raises the
    // 'segmentation fault' exception."
    return Status::kSegmentationFault;
  }
  if (!ProtAllows(region->prot(), AccessProt(fault.access))) {
    return Status::kProtectionFault;
  }
  CountFault(fault);
  const Vaddr page_va = AlignDown(fault.address, page_size());
  const SegOffset page_offset = region->OffsetOf(page_va);
  // ResolveFault runs with the lock held; implementations that must upcall to a
  // segment driver release it internally (see PagedVm::PullInLocked).
  return ResolveFault(*region, fault, page_offset, lock);
}

RegionImpl* BaseMm::RelookupRegion(const PageFault& fault) {
  auto ctx_it = contexts_.find(fault.address_space);
  if (ctx_it == contexts_.end()) {
    return nullptr;
  }
  return ctx_it->second->FindRegionLocked(fault.address);
}

void BaseMm::CountFault(const PageFault& fault) {
  ++stats_.page_faults;
  if (fault.protection_violation) {
    ++stats_.protection_faults;
  }
}

Status BaseMm::DestroyContextLocked(ContextImpl& context) {
  // Destroy all regions first (unmaps resident pages), then the address space.
  // The whole teardown (process exit, exec replace) is one gathered shootdown:
  // condemning the address space up front folds every region's unmaps into a
  // single per-AS generation bump paid once at scope exit, with one fence.
  // Nothing in the region hooks drops the manager lock, which the gather
  // contract requires.
  TlbGatherScope gather(&tlb_mmu_);
  tlb_mmu_.GatherCondemnAddressSpace(context.as_);
  while (!context.regions_.empty()) {
    RegionImpl& region = *context.regions_.begin()->second;
    Status s = DestroyRegionLocked(region);
    if (s != Status::kOk) {
      return s;
    }
  }
  OnContextDestroyed(context.as_);
  (void)mmu_.DestroyAddressSpace(context.as_);
  if (current_context_ == &context) {
    current_context_ = nullptr;
  }
  contexts_.erase(context.as_);  // deletes `context`
  return Status::kOk;
}

Status BaseMm::DestroyRegionLocked(RegionImpl& region) {
  if (region.locked()) {
    return Status::kLocked;
  }
  // Standalone region destroy pays one gathered shootdown; under an outer
  // gather (context teardown) this only nests.
  TlbGatherScope gather(&tlb_mmu_);
  OnRegionUnmapping(region);
  region.context_.regions_.erase(region.start());  // deletes `region`
  return Status::kOk;
}

Result<Region*> BaseMm::SplitRegionLocked(RegionImpl& region, uint64_t offset) {
  const size_t page = page_size();
  if (offset == 0 || offset >= region.size() || !IsAligned(offset, page)) {
    return Status::kInvalidArgument;
  }
  if (region.locked()) {
    return Status::kLocked;
  }
  ContextImpl& context = region.context_;
  auto second =
      std::make_unique<RegionImpl>(*this, context, region.start() + offset,
                                   region.size() - offset, region.prot(), region.cache(),
                                   region.offset() + offset);
  RegionImpl* raw = second.get();
  region.size_ = offset;
  context.regions_.emplace(raw->start(), std::move(second));
  // No MMU changes needed: both halves keep identical cache/protection state.
  // Subclasses migrate per-region bookkeeping and keep mapping counts balanced.
  OnRegionSplit(region, *raw);
  return static_cast<Region*>(raw);
}

size_t BaseMm::ContextCount() const {
  MutexLock lock(mu_);
  return contexts_.size();
}

}  // namespace gvm
