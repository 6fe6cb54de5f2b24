#include "src/hal/hash_mmu.h"

namespace gvm {

template class Hat<HashPageTables>;

HashPageTables::Space* HashPageTables::FindSpace(Table& table, AsId as) const {
  auto it = table.spaces.find(as);
  return it == table.spaces.end() ? nullptr : &it->second;
}

bool HashPageTables::DestroySpace(Table& table, AsId as) const {
  auto it = table.spaces.find(as);
  if (it == table.spaces.end()) {
    return false;
  }
  for (uint64_t vpn : it->second.pages) {
    table.base.erase({as, vpn});
  }
  for (uint64_t hvpn : it->second.huge_pages) {
    table.huge.erase({as, hvpn});
  }
  table.spaces.erase(it);
  return true;
}

HatPte* HashPageTables::Find(Hash& hash, const Space& space, uint64_t key) {
  auto it = hash.find({space.as, key});
  return it == hash.end() ? nullptr : &it->second;
}

bool HashPageTables::Erase(Hash& hash, std::unordered_set<uint64_t>& keys, const Space& space,
                           uint64_t key, HatPte* old) {
  auto it = hash.find({space.as, key});
  if (it == hash.end()) {
    return false;
  }
  *old = it->second;
  hash.erase(it);
  keys.erase(key);
  return true;
}

}  // namespace gvm
