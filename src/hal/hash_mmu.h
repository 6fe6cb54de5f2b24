// HashMmu: an inverted/hashed page-table MMU port, in the style of the custom MMU
// of the Telmat T3000 mentioned in the paper's portability table (Table 5).
//
// A hash maps (address space, virtual page number) to a PTE.  Like SoftMmu it
// is only a page-table store under the HAT core (hat.h), so it is behaviourally
// identical to SoftMmu; the PVM runs unmodified on either, which is the paper's
// portability claim made executable.
#ifndef GVM_SRC_HAL_HASH_MMU_H_
#define GVM_SRC_HAL_HASH_MMU_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/hal/hat.h"

namespace gvm {

// The hashed store (see hat.h for the Store contract): one shard's base and
// huge PTEs live in two hashes keyed by (as, vpn) and (as, huge vpn).
class HashPageTables {
 public:
  using Key = std::pair<AsId, uint64_t>;
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<uint64_t>()((static_cast<uint64_t>(k.first) << 40) ^ k.second);
    }
  };
  using Hash = std::unordered_map<Key, HatPte, KeyHash>;
  struct Table;
  // One address space: its key and its shard's hashes, plus the sets of
  // mapped vpns that let teardown avoid scanning the whole hash (real
  // inverted-page-table systems keep similar lists).
  struct Space {
    AsId as;
    Table* table;
    std::unordered_set<uint64_t> pages;
    std::unordered_set<uint64_t> huge_pages;
  };
  struct Table {
    std::unordered_map<AsId, Space> spaces;
    Hash base;
    Hash huge;
  };

  Space* FindSpace(Table& table, AsId as) const;
  void CreateSpace(Table& table, AsId as) const {
    table.spaces.emplace(as, Space{as, &table, {}, {}});
  }
  bool DestroySpace(Table& table, AsId as) const;
  HatPte* FindBase(Space& space, uint64_t vpn) const { return Find(space.table->base, space, vpn); }
  HatPte& InsertBase(Space& space, uint64_t vpn) const {
    space.pages.insert(vpn);
    return space.table->base[{space.as, vpn}];
  }
  bool EraseBase(Space& space, uint64_t vpn, HatPte* old) const {
    return Erase(space.table->base, space.pages, space, vpn, old);
  }
  HatPte* FindHuge(Space& space, uint64_t hvpn) const { return Find(space.table->huge, space, hvpn); }
  HatPte& InsertHuge(Space& space, uint64_t hvpn) const {
    space.huge_pages.insert(hvpn);
    return space.table->huge[{space.as, hvpn}];
  }
  bool EraseHuge(Space& space, uint64_t hvpn, HatPte* old) const {
    return Erase(space.table->huge, space.huge_pages, space, hvpn, old);
  }

 private:
  static HatPte* Find(Hash& hash, const Space& space, uint64_t key);
  static bool Erase(Hash& hash, std::unordered_set<uint64_t>& keys, const Space& space,
                    uint64_t key, HatPte* old);
};

extern template class Hat<HashPageTables>;

class HashMmu final : public Hat<HashPageTables> {
 public:
  // `huge_pages` is the second granule in base pages (power of two); 0 picks
  // the default of 512KB / page_size, and a value <= 1 disables huge pages.
  explicit HashMmu(size_t page_size, size_t huge_pages = 0)
      : Hat(page_size, huge_pages, HashPageTables{}) {}

  const char* name() const override { return "HashMmu(inverted)"; }
};

}  // namespace gvm

#endif  // GVM_SRC_HAL_HASH_MMU_H_
