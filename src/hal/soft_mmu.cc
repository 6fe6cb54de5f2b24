#include "src/hal/soft_mmu.h"

#include <cassert>

namespace gvm {

template class Hat<SoftPageTables>;

SoftPageTables::Space* SoftPageTables::FindSpace(Table& table, AsId as) const {
  auto it = table.find(as);
  return it == table.end() ? nullptr : &it->second;
}

HatPte* SoftPageTables::FindBase(Space& space, uint64_t vpn) const {
  auto it = space.directory.find(vpn >> leaf_bits_);
  if (it == space.directory.end()) {
    return nullptr;
  }
  HatPte& pte = it->second->entries[Slot(vpn)];
  return pte.frame != kInvalidFrame ? &pte : nullptr;
}

HatPte& SoftPageTables::InsertBase(Space& space, uint64_t vpn) const {
  std::unique_ptr<Leaf>& leaf = space.directory[vpn >> leaf_bits_];
  if (leaf == nullptr) {
    leaf = std::make_unique<Leaf>();
    leaf->entries.resize(size_t{1} << leaf_bits_);
  }
  HatPte& pte = leaf->entries[Slot(vpn)];
  if (pte.frame == kInvalidFrame) {
    ++leaf->valid_count;
  }
  return pte;
}

bool SoftPageTables::EraseBase(Space& space, uint64_t vpn, HatPte* old) const {
  auto it = space.directory.find(vpn >> leaf_bits_);
  if (it == space.directory.end()) {
    return false;
  }
  HatPte& pte = it->second->entries[Slot(vpn)];
  if (pte.frame == kInvalidFrame) {
    return false;
  }
  *old = pte;
  pte = HatPte{};
  if (--it->second->valid_count == 0) {
    space.directory.erase(it);  // reclaim empty leaf tables
  }
  return true;
}

HatPte* SoftPageTables::FindHuge(Space& space, uint64_t hvpn) const {
  auto it = space.huge.find(hvpn);
  return it == space.huge.end() ? nullptr : &it->second;
}

bool SoftPageTables::EraseHuge(Space& space, uint64_t hvpn, HatPte* old) const {
  auto it = space.huge.find(hvpn);
  if (it == space.huge.end()) {
    return false;
  }
  *old = it->second;
  space.huge.erase(it);
  return true;
}

SoftMmu::SoftMmu(size_t page_size, unsigned leaf_bits, size_t huge_pages)
    : Hat(page_size, huge_pages, SoftPageTables(leaf_bits)) {
  assert(leaf_bits >= 1 && leaf_bits <= 20);
}

size_t SoftMmu::LeafTableCount(AsId as) const {
  return ReadSpace(as, [](const SoftPageTables::Space* space) {
    return space == nullptr ? size_t{0} : space->directory.size();
  });
}

}  // namespace gvm
