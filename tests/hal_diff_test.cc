// HAL differential test: seeded random operation sequences run through the
// plain map-based ReferenceMmu (tests/reference_mmu.h) and one real port at a
// time, comparing every returned Status and entry and, after each operation
// window, every referenced and dirty bit of every page in play.
//
// The sequences cover every Mmu verb — the single-page mutations, the range
// and collect forms, translation in all three shapes, the huge granule
// (promotion over live base pages, demotion, auto-demotion by base-granule
// ops) and address-space destruction — at huge ratios 4 and 128, so spans
// both narrower and wider than the 64-page collect mask are exercised.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "src/hal/hash_mmu.h"
#include "src/hal/soft_mmu.h"
#include "tests/reference_mmu.h"

namespace gvm {
namespace {

constexpr size_t kPage = 4096;
constexpr size_t kSpans = 3;        // virtual window, in huge spans
constexpr int kOpsPerSeed = 3000;
constexpr int kSweepEvery = 50;     // full bit comparison cadence, in ops

struct DiffParam {
  const char* port;
  size_t ratio;
  std::function<std::unique_ptr<Mmu>(size_t ratio)> make;
};

// Print the port name, not the raw bytes (which hold per-process pointers), so
// the discovered test names are the same in every build.
void PrintTo(const DiffParam& param, std::ostream* os) { *os << param.port; }

std::string Describe(const Result<MmuEntry>& r) {
  if (!r.ok()) {
    return std::string(StatusName(r.status()));
  }
  return "frame=" + std::to_string(r->frame) + " prot=" + std::to_string(static_cast<int>(r->prot)) +
         " ref=" + std::to_string(r->referenced) + " dirty=" + std::to_string(r->dirty) +
         " huge=" + std::to_string(r->huge);
}

bool Same(const Result<MmuEntry>& a, const Result<MmuEntry>& b) {
  if (a.status() != b.status()) {
    return false;
  }
  return !a.ok() || (a->frame == b->frame && a->prot == b->prot &&
                     a->referenced == b->referenced && a->dirty == b->dirty &&
                     a->huge == b->huge);
}

template <typename T>
bool SameValue(const Result<T>& a, const Result<T>& b) {
  return a.status() == b.status() && (!a.ok() || *a == *b);
}

class HalDiffTest : public ::testing::TestWithParam<DiffParam> {
 protected:
  // Runs one seeded sequence; stops at the first divergence.
  void RunSeed(uint64_t seed) {
    const size_t ratio = GetParam().ratio;
    ReferenceMmu ref(kPage, ratio);
    std::unique_ptr<Mmu> port = GetParam().make(ratio);
    ASSERT_EQ(port->huge_page_size(), ref.huge_page_size());
    std::mt19937_64 rng(seed);
    const size_t window = kSpans * ratio;

    // Two live spaces plus the id of the last destroyed one (ops on a dead
    // space must fail alike).
    std::vector<AsId> spaces;
    for (int i = 0; i < 2; ++i) {
      Result<AsId> a = ref.CreateAddressSpace();
      Result<AsId> b = port->CreateAddressSpace();
      ASSERT_TRUE(SameValue(a, b));
      spaces.push_back(*a);
    }
    AsId dead = 1000;

    auto pick_space = [&]() { return rng() % 16 == 0 ? dead : spaces[rng() % spaces.size()]; };
    // Pages cluster on span edges and the 64-page mask boundary, so splits,
    // supersessions and re-maps of the same page are frequent.
    auto pick_vpn = [&]() -> uint64_t {
      const uint64_t span = rng() % kSpans;
      const uint64_t hot[] = {0, 1, ratio / 2, ratio - 1, 63 % ratio, 64 % ratio};
      const uint64_t off = rng() % 2 == 0 ? hot[rng() % 6] : rng() % ratio;
      return span * ratio + off;
    };
    // A small frame pool so same-frame and same-run re-maps happen.
    auto pick_frame = [&](uint64_t vpn) {
      return static_cast<FrameIndex>(rng() % 2 == 0 ? vpn : vpn + ratio * (1 + rng() % 2));
    };
    auto pick_prot = [&]() {
      const Prot prots[] = {Prot::kRead, Prot::kReadWrite, Prot::kAll, Prot::kReadExecute,
                            Prot::kNone};
      return prots[rng() % 5];
    };
    auto pick_access = [&]() {
      const Access accesses[] = {Access::kRead, Access::kWrite, Access::kExecute};
      return accesses[rng() % 3];
    };

    for (int step = 0; step < kOpsPerSeed; ++step) {
      const AsId as = pick_space();
      const uint64_t vpn = pick_vpn();
      const Vaddr va = vpn * kPage;
      const std::string where = "seed " + std::to_string(seed) + " step " +
                                std::to_string(step) + " as " + std::to_string(as) + " vpn " +
                                std::to_string(vpn);
      switch (rng() % 17) {
        case 0:
        case 1: {
          const FrameIndex frame = pick_frame(vpn);
          const Prot prot = pick_prot();
          ASSERT_EQ(ref.Map(as, va, frame, prot), port->Map(as, va, frame, prot)) << where;
          break;
        }
        case 2:
          ASSERT_EQ(ref.Unmap(as, va), port->Unmap(as, va)) << where;
          break;
        case 3: {
          Result<MmuEntry> a = ref.UnmapCollect(as, va);
          Result<MmuEntry> b = port->UnmapCollect(as, va);
          ASSERT_TRUE(Same(a, b)) << where << ": " << Describe(a) << " vs " << Describe(b);
          break;
        }
        case 4: {
          const size_t count = 1 + rng() % 64;
          uint64_t mask_a = 0;
          uint64_t mask_b = 0;
          ASSERT_EQ(ref.UnmapRangeCollect(as, va, count, &mask_a),
                    port->UnmapRangeCollect(as, va, count, &mask_b))
              << where;
          ASSERT_EQ(mask_a, mask_b) << where;
          break;
        }
        case 5: {
          const Prot prot = pick_prot();
          ASSERT_EQ(ref.Protect(as, va, prot), port->Protect(as, va, prot)) << where;
          break;
        }
        case 6: {
          const size_t count = 1 + rng() % (ratio + 2);
          ASSERT_EQ(ref.UnmapRange(as, va, count), port->UnmapRange(as, va, count)) << where;
          break;
        }
        case 7: {
          const size_t count = 1 + rng() % (ratio + 2);
          const Prot prot = pick_prot();
          ASSERT_EQ(ref.ProtectRange(as, va, count, prot), port->ProtectRange(as, va, count, prot))
              << where;
          break;
        }
        case 8:
        case 9: {
          const Access access = pick_access();
          ASSERT_TRUE(SameValue(ref.Translate(as, va, access), port->Translate(as, va, access)))
              << where;
          break;
        }
        case 10: {
          const Access access = pick_access();
          FrameIndex seen_a = kInvalidFrame;
          FrameIndex seen_b = kInvalidFrame;
          Result<FrameIndex> a =
              ref.TranslateAndAccess(as, va, access, [&](FrameIndex f) { seen_a = f; });
          Result<FrameIndex> b =
              port->TranslateAndAccess(as, va, access, [&](FrameIndex f) { seen_b = f; });
          ASSERT_TRUE(SameValue(a, b)) << where;
          ASSERT_EQ(seen_a, seen_b) << where;  // body runs exactly on success
          break;
        }
        case 11: {
          const Access access = pick_access();
          MmuTranslateInfo info_a;
          MmuTranslateInfo info_b;
          FrameIndex seen_a = kInvalidFrame;
          FrameIndex seen_b = kInvalidFrame;
          Result<FrameIndex> a = ref.TranslateAndAccessInfo(
              as, va, access, [&](FrameIndex f) { seen_a = f; }, &info_a);
          Result<FrameIndex> b = port->TranslateAndAccessInfo(
              as, va, access, [&](FrameIndex f) { seen_b = f; }, &info_b);
          ASSERT_TRUE(SameValue(a, b)) << where;
          ASSERT_EQ(seen_a, seen_b) << where;
          ASSERT_EQ(info_a.huge, info_b.huge) << where;
          ASSERT_EQ(info_a.huge_frame, info_b.huge_frame) << where;
          break;
        }
        case 12: {
          Result<MmuEntry> a = ref.Lookup(as, va);
          Result<MmuEntry> b = port->Lookup(as, va);
          ASSERT_TRUE(Same(a, b)) << where << ": " << Describe(a) << " vs " << Describe(b);
          break;
        }
        case 13:
          ASSERT_TRUE(SameValue(ref.TestAndClearReferenced(as, va),
                                port->TestAndClearReferenced(as, va)))
              << where;
          break;
        case 14:
        case 15: {
          // Mostly aligned (promotion over whatever base pages are live),
          // sometimes not (kInvalidArgument must agree too).
          const Vaddr hva = rng() % 8 == 0 ? va : (vpn / ratio) * ratio * kPage;
          const FrameIndex run = static_cast<FrameIndex>((rng() % 3) * ratio);
          const Prot prot = pick_prot();
          ASSERT_EQ(ref.MapHuge(as, hva, run, prot), port->MapHuge(as, hva, run, prot)) << where;
          break;
        }
        case 16:
          if (rng() % 8 == 0) {
            // Destroy one space and replace it; the old id stays dead.
            const size_t victim = rng() % spaces.size();
            ASSERT_EQ(ref.DestroyAddressSpace(spaces[victim]),
                      port->DestroyAddressSpace(spaces[victim]))
                << where;
            ASSERT_EQ(ref.DestroyAddressSpace(spaces[victim]),
                      port->DestroyAddressSpace(spaces[victim]))
                << where;
            dead = spaces[victim];
            Result<AsId> a = ref.CreateAddressSpace();
            Result<AsId> b = port->CreateAddressSpace();
            ASSERT_TRUE(SameValue(a, b)) << where;
            spaces[victim] = *a;
          } else {
            ASSERT_EQ(ref.DemoteHuge(as, va), port->DemoteHuge(as, va)) << where;
          }
          break;
      }
      if (step % kSweepEvery == kSweepEvery - 1 || step == kOpsPerSeed - 1) {
        for (AsId s : spaces) {
          for (uint64_t p = 0; p < window; ++p) {
            Result<MmuEntry> a = ref.Lookup(s, p * kPage);
            Result<MmuEntry> b = port->Lookup(s, p * kPage);
            ASSERT_TRUE(Same(a, b)) << where << " sweep as " << s << " vpn " << p << ": "
                                    << Describe(a) << " vs " << Describe(b);
          }
        }
      }
    }
  }
};

TEST_P(HalDiffTest, SeededSequencesMatchTheReference) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RunSeed(seed);
    if (HasFatalFailure()) {
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ports, HalDiffTest,
    ::testing::Values(
        DiffParam{"soft_r4", 4,
                  [](size_t r) -> std::unique_ptr<Mmu> {
                    return std::make_unique<SoftMmu>(kPage, 6, r);
                  }},
        DiffParam{"soft_r128", 128,
                  [](size_t r) -> std::unique_ptr<Mmu> {
                    return std::make_unique<SoftMmu>(kPage, 6, r);
                  }},
        DiffParam{"hash_r4", 4,
                  [](size_t r) -> std::unique_ptr<Mmu> { return std::make_unique<HashMmu>(kPage, r); }},
        DiffParam{"hash_r128", 128,
                  [](size_t r) -> std::unique_ptr<Mmu> {
                    return std::make_unique<HashMmu>(kPage, r);
                  }}),
    [](const ::testing::TestParamInfo<DiffParam>& info) { return std::string(info.param.port); });

}  // namespace
}  // namespace gvm
