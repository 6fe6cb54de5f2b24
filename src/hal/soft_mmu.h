// SoftMmu: a two-level page-table MMU port (PMMU / i386 style) over the HAT
// core (hat.h), which owns the locking, the stats and every rule of the mmu.h
// contract.  This port is only its page-table store.
//
// The top level is a sparse map from "directory" index to a leaf table of PTEs, so
// that an address space with a handful of mappings spread across a huge virtual
// range costs only a few leaf tables — the size-independence property of section
// 4.1 holds at the hardware-model level too.  Empty leaf tables are reclaimed.
#ifndef GVM_SRC_HAL_SOFT_MMU_H_
#define GVM_SRC_HAL_SOFT_MMU_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/hal/hat.h"

namespace gvm {

// The two-level store (see hat.h for the Store contract).  A leaf slot is
// empty while its frame is kInvalidFrame.
class SoftPageTables {
 public:
  struct Leaf {
    std::vector<HatPte> entries;
    size_t valid_count = 0;
  };
  struct Space {
    std::unordered_map<uint64_t, std::unique_ptr<Leaf>> directory;
    std::unordered_map<uint64_t, HatPte> huge;  // keyed by huge vpn
  };
  using Table = std::unordered_map<AsId, Space>;

  explicit SoftPageTables(unsigned leaf_bits) : leaf_bits_(leaf_bits) {}

  Space* FindSpace(Table& table, AsId as) const;
  void CreateSpace(Table& table, AsId as) const { table.emplace(as, Space{}); }
  bool DestroySpace(Table& table, AsId as) const { return table.erase(as) != 0; }
  HatPte* FindBase(Space& space, uint64_t vpn) const;
  HatPte& InsertBase(Space& space, uint64_t vpn) const;
  bool EraseBase(Space& space, uint64_t vpn, HatPte* old) const;
  HatPte* FindHuge(Space& space, uint64_t hvpn) const;
  HatPte& InsertHuge(Space& space, uint64_t hvpn) const { return space.huge[hvpn]; }
  bool EraseHuge(Space& space, uint64_t hvpn, HatPte* old) const;

 private:
  uint64_t Slot(uint64_t vpn) const { return vpn & ((uint64_t{1} << leaf_bits_) - 1); }

  unsigned leaf_bits_;
};

extern template class Hat<SoftPageTables>;

class SoftMmu final : public Hat<SoftPageTables> {
 public:
  // `page_size` must be a power of two.  `leaf_bits` is the number of VPN bits
  // resolved by a leaf table (default 10, i.e. 1024 PTEs per leaf).
  // `huge_pages` is the second granule in base pages (power of two); 0 picks
  // the default of 512KB / page_size, and a value <= 1 disables huge pages.
  explicit SoftMmu(size_t page_size, unsigned leaf_bits = 10, size_t huge_pages = 0);

  const char* name() const override { return "SoftMmu(two-level)"; }

  // Number of leaf tables currently allocated in `as` (for size-independence tests).
  size_t LeafTableCount(AsId as) const;
};

}  // namespace gvm

#endif  // GVM_SRC_HAL_SOFT_MMU_H_
