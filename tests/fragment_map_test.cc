// FragmentMap is the bedrock of the section 4.2.4 per-fragment parent/history
// lists; these tests pin down its replace/split/clip semantics exactly.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/pvm/fragment_map.h"

namespace gvm {
namespace {

struct Target {
  int id = 0;
  SegOffset base = 0;

  Target Advanced(uint64_t delta) const { return Target{id, base + delta}; }
  bool operator==(const Target&) const = default;
};

using Map = FragmentMap<Target>;

TEST(FragmentMapTest, EmptyFindsNothing) {
  Map map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Find(0), nullptr);
  EXPECT_EQ(map.Find(1000), nullptr);
}

TEST(FragmentMapTest, InsertAndFindBoundaries) {
  Map map;
  map.Insert(100, 50, Target{1, 0});
  EXPECT_EQ(map.Find(99), nullptr);
  ASSERT_NE(map.Find(100), nullptr);
  EXPECT_EQ(map.Find(100)->value.id, 1);
  ASSERT_NE(map.Find(149), nullptr);
  EXPECT_EQ(map.Find(150), nullptr);
}

TEST(FragmentMapTest, InsertReplacesOverlap) {
  Map map;
  map.Insert(0, 100, Target{1, 0});
  map.Insert(40, 20, Target{2, 0});
  ASSERT_NE(map.Find(0), nullptr);
  EXPECT_EQ(map.Find(0)->value.id, 1);
  EXPECT_EQ(map.Find(39)->value.id, 1);
  EXPECT_EQ(map.Find(40)->value.id, 2);
  EXPECT_EQ(map.Find(59)->value.id, 2);
  EXPECT_EQ(map.Find(60)->value.id, 1);
  EXPECT_EQ(map.fragment_count(), 3u);
}

TEST(FragmentMapTest, SplitAdvancesValueBase) {
  Map map;
  // Fragment [0,100) maps to target offsets starting at 1000.
  map.Insert(0, 100, Target{1, 1000});
  // Punch a hole in the middle.
  map.Erase(40, 20);
  // Left part keeps its base; right tail is advanced by the cut (60).
  ASSERT_NE(map.Find(10), nullptr);
  EXPECT_EQ(map.Find(10)->value.base, 1000u);
  EXPECT_EQ(map.Find(40), nullptr);
  EXPECT_EQ(map.Find(59), nullptr);
  ASSERT_NE(map.Find(60), nullptr);
  EXPECT_EQ(map.Find(60)->value.base, 1060u);
  EXPECT_EQ(map.Find(60)->start, 60u);
  EXPECT_EQ(map.Find(60)->size, 40u);
}

TEST(FragmentMapTest, EraseAcrossMultipleFragments) {
  Map map;
  map.Insert(0, 10, Target{1, 0});
  map.Insert(10, 10, Target{2, 0});
  map.Insert(20, 10, Target{3, 0});
  map.Erase(5, 20);  // cuts into 1, removes 2, cuts into 3
  EXPECT_EQ(map.Find(4)->value.id, 1);
  EXPECT_EQ(map.Find(5), nullptr);
  EXPECT_EQ(map.Find(24), nullptr);
  EXPECT_EQ(map.Find(25)->value.id, 3);
  EXPECT_EQ(map.Find(25)->value.base, 5u);  // advanced by the clip
}

TEST(FragmentMapTest, OverlappingClipsToRange) {
  Map map;
  map.Insert(0, 100, Target{1, 500});
  auto overlaps = map.Overlapping(30, 40);
  ASSERT_EQ(overlaps.size(), 1u);
  EXPECT_EQ(overlaps[0].start, 30u);
  EXPECT_EQ(overlaps[0].size, 40u);
  EXPECT_EQ(overlaps[0].value.base, 530u);  // advanced by 30
}

TEST(FragmentMapTest, OverlappingSpanningSeveral) {
  Map map;
  map.Insert(0, 10, Target{1, 0});
  map.Insert(20, 10, Target{2, 0});
  map.Insert(40, 10, Target{3, 0});
  auto overlaps = map.Overlapping(5, 40);  // [5, 45)
  ASSERT_EQ(overlaps.size(), 3u);
  EXPECT_EQ(overlaps[0].value.id, 1);
  EXPECT_EQ(overlaps[0].start, 5u);
  EXPECT_EQ(overlaps[0].size, 5u);
  EXPECT_EQ(overlaps[1].value.id, 2);
  EXPECT_EQ(overlaps[1].size, 10u);
  EXPECT_EQ(overlaps[2].value.id, 3);
  EXPECT_EQ(overlaps[2].start, 40u);
  EXPECT_EQ(overlaps[2].size, 5u);
}

TEST(FragmentMapTest, InsertOverExactRangeReplaces) {
  Map map;
  map.Insert(0, 10, Target{1, 0});
  map.Insert(0, 10, Target{2, 0});
  EXPECT_EQ(map.fragment_count(), 1u);
  EXPECT_EQ(map.Find(5)->value.id, 2);
}

TEST(FragmentMapTest, InsertCoveringEverythingReplacesAll) {
  Map map;
  map.Insert(10, 10, Target{1, 0});
  map.Insert(30, 10, Target{2, 0});
  map.Insert(0, 100, Target{3, 0});
  EXPECT_EQ(map.fragment_count(), 1u);
  EXPECT_EQ(map.Find(15)->value.id, 3);
  EXPECT_EQ(map.Find(35)->value.id, 3);
}

TEST(FragmentMapTest, ForEachIsSorted) {
  Map map;
  map.Insert(50, 10, Target{2, 0});
  map.Insert(0, 10, Target{1, 0});
  map.Insert(90, 10, Target{3, 0});
  std::vector<SegOffset> starts;
  map.ForEach([&](const Map::Fragment& f) { starts.push_back(f.start); });
  ASSERT_EQ(starts.size(), 3u);
  EXPECT_EQ(starts[0], 0u);
  EXPECT_EQ(starts[1], 50u);
  EXPECT_EQ(starts[2], 90u);
}

// Counts, per target id, the fragments a hooked map holds.
struct CountingHooks {
  std::map<int, int>* live = nullptr;
  void Added(const Target& t) const { ++(*live)[t.id]; }
  void Removed(const Target& t) const {
    if (--(*live)[t.id] == 0) {
      live->erase(t.id);
    }
  }
};

TEST(FragmentMapTest, HooksSeeEveryFragmentEnterAndLeave) {
  std::map<int, int> live;
  FragmentMap<Target, CountingHooks> map(CountingHooks{&live});
  auto expect_counts_match = [&] {
    std::map<int, int> present;
    map.ForEach([&](const auto& f) { ++present[f.value.id]; });
    EXPECT_EQ(live, present);
  };
  map.Insert(0, 100, Target{1, 0});
  map.Insert(200, 100, Target{2, 0});
  expect_counts_match();
  map.Insert(40, 20, Target{3, 0});   // splits 1 into two pieces around 3
  expect_counts_match();
  map.Erase(90, 150);                 // trims 1's tail and 2's head
  expect_counts_match();
  map.Insert(0, 300, Target{2, 0});   // swallows everything
  expect_counts_match();
  EXPECT_EQ(live, (std::map<int, int>{{2, 1}}));
  map.Clear();
  EXPECT_TRUE(live.empty());
}

}  // namespace
}  // namespace gvm
