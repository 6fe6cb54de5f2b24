// FragmentMap: sorted, non-overlapping byte ranges with a value per range.
//
// Section 4.2.4 of the paper generalizes the "parent" attribute of a cache
// descriptor to "a list of parent descriptors.  Each such descriptor holds the
// start offset and size of a fragment, and a pointer to the parent local-cache
// descriptor.  The list is sorted by this offset."  FragmentMap is exactly that
// structure; the PVM instantiates it for parent links and history links.
//
// Inserting a range replaces whatever previously overlapped it (a new copy into a
// segment logically overwrites the older deferred-copy source for that fragment).
//
// An optional Hooks type observes every fragment that enters or leaves the map:
// Added(value) and Removed(value) run once each per fragment, and a split or trim
// counts as the old fragment leaving and its surviving pieces entering (a left
// piece that keeps its start and value stays put and is neither).  The PVM uses
// this to keep each link target's reverse-link table exact (pvm_cache.h).
#ifndef GVM_SRC_PVM_FRAGMENT_MAP_H_
#define GVM_SRC_PVM_FRAGMENT_MAP_H_

#include <cassert>
#include <cstdint>
#include <map>
#include <vector>

#include "src/hal/types.h"

namespace gvm {

struct NoFragmentHooks {
  template <typename V>
  void Added(const V& /*value*/) const {}
  template <typename V>
  void Removed(const V& /*value*/) const {}
};

template <typename V, typename Hooks = NoFragmentHooks>
class FragmentMap {
 public:
  struct Fragment {
    SegOffset start = 0;
    uint64_t size = 0;
    V value{};

    SegOffset end() const { return start + size; }
  };

  FragmentMap() = default;
  explicit FragmentMap(Hooks hooks) : hooks_(hooks) {}
  // Copies would enter fragments without running Added.
  FragmentMap(const FragmentMap&) = delete;
  FragmentMap& operator=(const FragmentMap&) = delete;

  bool empty() const { return frags_.empty(); }
  size_t fragment_count() const { return frags_.size(); }

  // The fragment containing `offset`, or nullptr.
  const Fragment* Find(SegOffset offset) const {
    auto it = FindIter(offset);
    return it == frags_.end() ? nullptr : &it->second;
  }
  Fragment* Find(SegOffset offset) {
    auto it = FindIter(offset);
    return it == frags_.end() ? nullptr : &it->second;
  }

  // Insert [start, start+size) -> value, truncating/splitting anything that
  // previously overlapped the range.
  void Insert(SegOffset start, uint64_t size, V value) {
    assert(size > 0);
    Erase(start, size);
    Emplace(Fragment{.start = start, .size = size, .value = value});
  }

  // Remove any coverage of [start, start+size), splitting boundary fragments.
  void Erase(SegOffset start, uint64_t size) {
    assert(size > 0);
    const SegOffset end = start + size;
    // Handle a fragment straddling `start` from the left.
    auto it = frags_.lower_bound(start);
    if (it != frags_.begin()) {
      auto prev = std::prev(it);
      Fragment& f = prev->second;
      if (f.end() > start) {
        // Keep the left part [f.start, start); re-add the right tail beyond `end`.
        Fragment tail = f;
        f.size = start - f.start;
        if (tail.end() > end) {
          uint64_t cut = end - tail.start;
          Emplace(Fragment{.start = end, .size = tail.end() - end,
                           .value = Advance(tail.value, cut)});
        }
      }
    }
    // Remove/trim fragments starting inside [start, end).
    it = frags_.lower_bound(start);
    while (it != frags_.end() && it->second.start < end) {
      Fragment f = it->second;
      hooks_.Removed(f.value);
      it = frags_.erase(it);
      if (f.end() > end) {
        uint64_t cut = end - f.start;
        Emplace(Fragment{.start = end, .size = f.end() - end,
                         .value = Advance(f.value, cut)});
        break;
      }
    }
  }

  // All fragments overlapping [start, start+size), clipped to that range.
  std::vector<Fragment> Overlapping(SegOffset start, uint64_t size) const {
    std::vector<Fragment> out;
    const SegOffset end = start + size;
    auto it = frags_.lower_bound(start);
    if (it != frags_.begin()) {
      auto prev = std::prev(it);
      if (prev->second.end() > start) {
        out.push_back(Clip(prev->second, start, end));
      }
    }
    for (; it != frags_.end() && it->second.start < end; ++it) {
      out.push_back(Clip(it->second, start, end));
    }
    return out;
  }

  // Iterate every fragment in order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [start, frag] : frags_) {
      fn(frag);
    }
  }

  void Clear() {
    for (const auto& [start, frag] : frags_) {
      hooks_.Removed(frag.value);
    }
    frags_.clear();
  }

 private:
  void Emplace(const Fragment& frag) {
    hooks_.Added(frag.value);
    frags_.emplace(frag.start, frag);
  }

  // Values that carry a base offset must shift it when a fragment is clipped from
  // the left; value types opt in by providing `V Advanced(uint64_t delta) const`.
  template <typename T>
  static auto AdvanceImpl(const T& v, uint64_t delta, int) -> decltype(v.Advanced(delta)) {
    return v.Advanced(delta);
  }
  template <typename T>
  static T AdvanceImpl(const T& v, uint64_t /*delta*/, long) {  // NOLINT
    return v;
  }
  static V Advance(const V& v, uint64_t delta) { return AdvanceImpl(v, delta, 0); }

  static Fragment Clip(const Fragment& f, SegOffset start, SegOffset end) {
    SegOffset s = f.start > start ? f.start : start;
    SegOffset e = f.end() < end ? f.end() : end;
    assert(s < e);
    return Fragment{.start = s, .size = e - s, .value = Advance(f.value, s - f.start)};
  }

  typename std::map<SegOffset, Fragment>::const_iterator FindIter(SegOffset offset) const {
    auto it = frags_.upper_bound(offset);
    if (it == frags_.begin()) {
      return frags_.end();
    }
    --it;
    return it->second.end() > offset ? it : frags_.end();
  }
  typename std::map<SegOffset, Fragment>::iterator FindIter(SegOffset offset) {
    auto it = frags_.upper_bound(offset);
    if (it == frags_.begin()) {
      return frags_.end();
    }
    --it;
    return it->second.end() > offset ? it : frags_.end();
  }

  std::map<SegOffset, Fragment> frags_;
  [[no_unique_address]] Hooks hooks_{};
};

}  // namespace gvm

#endif  // GVM_SRC_PVM_FRAGMENT_MAP_H_
