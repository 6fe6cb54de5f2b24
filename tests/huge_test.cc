// Transparent huge pages (DESIGN.md §16): the second MMU granule and its
// promotion/demotion life cycle.
//
// Layer by layer: the inner MMUs' huge contract (per-page Lookup view, shared
// referenced/dirty bits with demotion fan-out, auto-demote on base-granule
// ops, the UnmapCollect huge report), the TLB's mixed-size caching (wide
// entries serving whole spans, every demotion path killing the wide entry),
// the PagedVm policy (fault-time promotion, split-on-COW demotion that still
// copies exactly one base page, pageout demotion before harvest), and — the
// part that earns its keep — a seeded 64-thread mixed-size stale-translation
// hunter racing promotion, split-on-COW demotion and condemned-AS teardown.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <ostream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/hal/cpu.h"
#include "src/hal/hash_mmu.h"
#include "src/hal/phys_memory.h"
#include "src/hal/soft_mmu.h"
#include "src/hal/tlb.h"
#include "src/pvm/paged_vm.h"
#include "tests/test_util.h"

namespace gvm {
namespace {

constexpr size_t kPage = 4096;
constexpr size_t kRatio = 4;  // test granule: 4 base pages per huge span
// The shipped geometry: the default 512KB granule over 4KB pages, wider than
// the 64-page mask of UnmapRangeCollect.
constexpr size_t kWideRatio = 128;

Vaddr PageVa(uint64_t vpn) { return vpn * kPage; }

// ---------------------------------------------------------------------------
// Inner-MMU huge contract, over both implementations.
// ---------------------------------------------------------------------------

struct MmuFactory {
  const char* name;
  size_t ratio;  // huge span, in base pages
  std::function<std::unique_ptr<Mmu>(size_t huge_pages)> make;
};

// Print the name, not the raw bytes (which hold per-process pointers), so the
// discovered test names are the same in every build.
void PrintTo(const MmuFactory& factory, std::ostream* os) { *os << factory.name; }

class HugeMmuTest : public ::testing::TestWithParam<MmuFactory> {
 protected:
  size_t ratio() const { return GetParam().ratio; }
  std::unique_ptr<Mmu> MakeMmu() { return GetParam().make(ratio()); }
  std::unique_ptr<Mmu> MakeMmu(size_t huge_pages) { return GetParam().make(huge_pages); }
};

TEST_P(HugeMmuTest, DisabledGranuleReportsUnsupported) {
  auto mmu = MakeMmu(/*huge_pages=*/1);  // <= 1 disables the second granule
  EXPECT_EQ(mmu->huge_page_size(), 0u);
  AsId as = *mmu->CreateAddressSpace();
  EXPECT_EQ(mmu->MapHuge(as, 0, 0, Prot::kRead), Status::kUnsupported);
  EXPECT_EQ(mmu->DemoteHuge(as, 0), Status::kNotFound);
}

TEST_P(HugeMmuTest, MapHugeRejectsUnalignedVa) {
  auto mmu = MakeMmu();
  ASSERT_EQ(mmu->huge_page_size(), ratio() * kPage);
  AsId as = *mmu->CreateAddressSpace();
  EXPECT_EQ(mmu->MapHuge(as, PageVa(1), 0, Prot::kRead), Status::kInvalidArgument);
  EXPECT_EQ(mmu->MapHuge(as, PageVa(ratio()), 8, Prot::kRead), Status::kOk);
}

TEST_P(HugeMmuTest, LookupShowsPerBasePageViewWithoutDemoting) {
  auto mmu = MakeMmu();
  AsId as = *mmu->CreateAddressSpace();
  ASSERT_EQ(mmu->MapHuge(as, 0, 16, Prot::kReadWrite), Status::kOk);
  for (size_t i = 0; i < ratio(); ++i) {
    Result<MmuEntry> entry = mmu->Lookup(as, PageVa(i));
    ASSERT_TRUE(entry.ok());
    EXPECT_EQ(entry->frame, static_cast<FrameIndex>(16 + i));
    EXPECT_EQ(entry->prot, Prot::kReadWrite);
    EXPECT_TRUE(entry->huge);
  }
  // The audit view must not have split the span: a translation through any
  // page still resolves (and the entry still reports huge).
  EXPECT_EQ(*mmu->Translate(as, PageVa(2), Access::kRead), 18u);
  EXPECT_TRUE(mmu->Lookup(as, PageVa(0))->huge);
}

TEST_P(HugeMmuTest, SpanSharesOneReferencedAndOneDirtyBit) {
  auto mmu = MakeMmu();
  AsId as = *mmu->CreateAddressSpace();
  ASSERT_EQ(mmu->MapHuge(as, 0, 4, Prot::kReadWrite), Status::kOk);
  // A write through page 3 dirties the whole span: page 0's view reports it.
  ASSERT_TRUE(mmu->Translate(as, PageVa(3), Access::kWrite).ok());
  EXPECT_TRUE(mmu->Lookup(as, PageVa(0))->dirty);
  EXPECT_TRUE(mmu->Lookup(as, PageVa(2))->referenced);
  // The clock's clear through any page clears the span once.
  EXPECT_TRUE(*mmu->TestAndClearReferenced(as, PageVa(1)));
  EXPECT_FALSE(*mmu->TestAndClearReferenced(as, PageVa(3)));
}

TEST_P(HugeMmuTest, DemoteFansSharedBitsOutToEveryBasePte) {
  auto mmu = MakeMmu();
  AsId as = *mmu->CreateAddressSpace();
  ASSERT_EQ(mmu->MapHuge(as, 0, 8, Prot::kReadWrite), Status::kOk);
  ASSERT_TRUE(mmu->Translate(as, PageVa(1), Access::kWrite).ok());

  ASSERT_EQ(mmu->DemoteHuge(as, PageVa(2)), Status::kOk);  // any page of the span
  for (size_t i = 0; i < ratio(); ++i) {
    Result<MmuEntry> entry = mmu->Lookup(as, PageVa(i));
    ASSERT_TRUE(entry.ok());
    EXPECT_FALSE(entry->huge);
    EXPECT_EQ(entry->frame, static_cast<FrameIndex>(8 + i));
    EXPECT_EQ(entry->prot, Prot::kReadWrite);
    // The write through the wide entry could have landed in any base page of
    // the span: after the split every one of them must report dirty.
    EXPECT_TRUE(entry->dirty);
    EXPECT_TRUE(entry->referenced);
  }
  EXPECT_EQ(mmu->DemoteHuge(as, PageVa(0)), Status::kNotFound);  // already split
}

TEST_P(HugeMmuTest, BaseGranuleOpsInsideSpanAutoDemote) {
  auto mmu = MakeMmu();
  AsId as = *mmu->CreateAddressSpace();
  ASSERT_EQ(mmu->MapHuge(as, 0, 12, Prot::kReadWrite), Status::kOk);
  // Unmapping one base page splits the span and removes just that page.
  ASSERT_EQ(mmu->Unmap(as, PageVa(1)), Status::kOk);
  EXPECT_EQ(mmu->Lookup(as, PageVa(1)).status(), Status::kNotFound);
  for (size_t i : {size_t{0}, size_t{2}, size_t{3}}) {
    Result<MmuEntry> entry = mmu->Lookup(as, PageVa(i));
    ASSERT_TRUE(entry.ok());
    EXPECT_FALSE(entry->huge);
    EXPECT_EQ(entry->frame, static_cast<FrameIndex>(12 + i));
  }
  // A protection change on one page splits too, leaving the others untouched.
  ASSERT_EQ(mmu->MapHuge(as, PageVa(ratio()), 20, Prot::kReadWrite), Status::kOk);
  ASSERT_EQ(mmu->Protect(as, PageVa(ratio() + 1), Prot::kRead), Status::kOk);
  EXPECT_EQ(mmu->Lookup(as, PageVa(ratio() + 1))->prot, Prot::kRead);
  EXPECT_EQ(mmu->Lookup(as, PageVa(ratio()))->prot, Prot::kReadWrite);
  EXPECT_FALSE(mmu->Lookup(as, PageVa(ratio()))->huge);
}

TEST_P(HugeMmuTest, UnmapCollectReportsTheSplitAndTheFannedDirt) {
  auto mmu = MakeMmu();
  AsId as = *mmu->CreateAddressSpace();
  ASSERT_EQ(mmu->MapHuge(as, 0, 4, Prot::kReadWrite), Status::kOk);
  ASSERT_TRUE(mmu->Translate(as, PageVa(3), Access::kWrite).ok());

  // Collecting page 0 splits the span; the removed entry must carry both the
  // fanned-out dirty bit and the huge flag (TlbMmu widens its invalidation
  // exactly when that flag is set).
  Result<MmuEntry> removed = mmu->UnmapCollect(as, PageVa(0));
  ASSERT_TRUE(removed.ok());
  EXPECT_TRUE(removed->huge);
  EXPECT_TRUE(removed->dirty);
  EXPECT_EQ(removed->frame, 4u);
  // The rest of the span survived as base pages; a second collect is plain.
  Result<MmuEntry> second = mmu->UnmapCollect(as, PageVa(1));
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->huge);
  EXPECT_TRUE(second->dirty);  // fan-out happened at the split
}

TEST_P(HugeMmuTest, SameRunRemapKeepsBitsDifferentRunClearsThem) {
  auto mmu = MakeMmu();
  AsId as = *mmu->CreateAddressSpace();
  ASSERT_EQ(mmu->MapHuge(as, 0, 4, Prot::kReadWrite), Status::kOk);
  ASSERT_TRUE(mmu->Translate(as, PageVa(0), Access::kWrite).ok());
  // Same frame run: a protection change in place, bits survive.
  ASSERT_EQ(mmu->MapHuge(as, 0, 4, Prot::kRead), Status::kOk);
  EXPECT_TRUE(mmu->Lookup(as, PageVa(0))->dirty);
  EXPECT_EQ(mmu->Lookup(as, PageVa(0))->prot, Prot::kRead);
  // Different run: fresh translation, bits start clear.
  ASSERT_EQ(mmu->MapHuge(as, 0, 8, Prot::kReadWrite), Status::kOk);
  EXPECT_FALSE(mmu->Lookup(as, PageVa(0))->dirty);
}

std::unique_ptr<Mmu> MakeSoft(size_t huge_pages) {
  return std::make_unique<SoftMmu>(kPage, 10, huge_pages);
}
std::unique_ptr<Mmu> MakeHash(size_t huge_pages) {
  return std::make_unique<HashMmu>(kPage, huge_pages);
}

INSTANTIATE_TEST_SUITE_P(Mmus, HugeMmuTest,
                         ::testing::Values(MmuFactory{"soft", kRatio, MakeSoft},
                                           MmuFactory{"hash", kRatio, MakeHash},
                                           MmuFactory{"soft_r128", kWideRatio, MakeSoft},
                                           MmuFactory{"hash_r128", kWideRatio, MakeHash}),
                         [](const ::testing::TestParamInfo<MmuFactory>& info) {
                           return info.param.name;
                         });

// ---------------------------------------------------------------------------
// TlbMmu: wide entries and the demotion shootdown rules.
// ---------------------------------------------------------------------------

TEST(TlbHugeTest, OneWideEntryServesTheWholeSpan) {
  SoftMmu inner(kPage, 10, kRatio);
  TlbMmu tlb(inner);
  AsId as = *tlb.CreateAddressSpace();
  ASSERT_EQ(tlb.MapHuge(as, 0, 4, Prot::kRead), Status::kOk);

  // First touch misses and fills ONE wide entry; the remaining pages of the
  // span hit through it without ever walking the inner tables again.
  EXPECT_EQ(*tlb.Translate(as, PageVa(0), Access::kRead), 4u);
  const uint64_t walks = inner.stats().translations;
  for (size_t i = 0; i < kRatio; ++i) {
    EXPECT_EQ(*tlb.Translate(as, PageVa(i), Access::kRead),
              static_cast<FrameIndex>(4 + i));
  }
  EXPECT_EQ(inner.stats().translations, walks);
  TlbMmu::TlbStats stats = tlb.tlb_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.huge_hits, kRatio);
  EXPECT_EQ(stats.hits, stats.huge_hits);  // breakdown: every hit was wide
}

TEST(TlbHugeTest, DemotionKillsTheWideEntryImmediately) {
  SoftMmu inner(kPage, 10, kRatio);
  TlbMmu tlb(inner);
  AsId as = *tlb.CreateAddressSpace();
  ASSERT_EQ(tlb.MapHuge(as, 0, 4, Prot::kRead), Status::kOk);
  ASSERT_TRUE(tlb.Translate(as, PageVa(1), Access::kRead).ok());  // cache wide

  ASSERT_EQ(tlb.DemoteHuge(as, PageVa(1)), Status::kOk);
  // After the split the inner MMU no longer reports huge for the span, so a
  // surviving wide entry could NEVER be invalidated by later base-granule
  // mutations — it must already be dead.  Unmap page 1 at base granule and
  // prove the old wide translation cannot resurrect it.
  ASSERT_EQ(tlb.Unmap(as, PageVa(1)), Status::kOk);
  EXPECT_EQ(tlb.Translate(as, PageVa(1), Access::kRead).status(),
            Status::kSegmentationFault);
  EXPECT_EQ(*tlb.Translate(as, PageVa(0), Access::kRead), 4u);  // rest intact
}

TEST(TlbHugeTest, BaseMapInsideSpanNeverLeavesAStaleWideEntry) {
  SoftMmu inner(kPage, 10, kRatio);
  TlbMmu tlb(inner);
  AsId as = *tlb.CreateAddressSpace();
  ASSERT_EQ(tlb.MapHuge(as, 0, 4, Prot::kRead), Status::kOk);
  ASSERT_TRUE(tlb.Translate(as, PageVa(2), Access::kRead).ok());  // cache wide

  // Remapping one page at base granule auto-splits the span inside the inner
  // MMU; the cached wide entry must die with it even though the new mapping
  // itself is a fresh fill (normally a no-shootdown case).
  ASSERT_EQ(tlb.Map(as, PageVa(2), 30, Prot::kRead), Status::kOk);
  EXPECT_EQ(*tlb.Translate(as, PageVa(2), Access::kRead), 30u);
  EXPECT_EQ(*tlb.Translate(as, PageVa(3), Access::kRead), 7u);
}

TEST(TlbHugeTest, ProtectionSplitShootsTheWideEntry) {
  SoftMmu inner(kPage, 10, kRatio);
  TlbMmu tlb(inner);
  AsId as = *tlb.CreateAddressSpace();
  ASSERT_EQ(tlb.MapHuge(as, 0, 4, Prot::kReadWrite), Status::kOk);
  ASSERT_TRUE(tlb.Translate(as, PageVa(0), Access::kWrite).ok());  // cache wide

  // The COW shape: write-protecting one page splits the span.  A stale wide
  // entry would keep serving writes to the whole span — including the page
  // that was just downgraded.
  ASSERT_EQ(tlb.Protect(as, PageVa(1), Prot::kRead), Status::kOk);
  EXPECT_EQ(tlb.Translate(as, PageVa(1), Access::kWrite).status(),
            Status::kProtectionFault);
  EXPECT_EQ(*tlb.Translate(as, PageVa(0), Access::kWrite), 4u);  // still writable
}

TEST(TlbHugeTest, AddressSpaceTeardownRetiresWideEntries) {
  SoftMmu inner(kPage, 10, kRatio);
  TlbMmu tlb(inner);
  AsId as = *tlb.CreateAddressSpace();
  ASSERT_EQ(tlb.MapHuge(as, 0, 4, Prot::kRead), Status::kOk);
  ASSERT_TRUE(tlb.Translate(as, PageVa(1), Access::kRead).ok());  // cache wide
  ASSERT_EQ(tlb.DestroyAddressSpace(as), Status::kOk);
  EXPECT_EQ(tlb.Translate(as, PageVa(1), Access::kRead).status(),
            Status::kSegmentationFault);
}

// ---------------------------------------------------------------------------
// PagedVm: fault-time promotion, split-on-COW demotion, pageout demotion.
// ---------------------------------------------------------------------------

struct PvmHugeWorld {
  PhysicalMemory memory;
  SoftMmu mmu;
  PagedVm vm;
  TestSwapRegistry registry;
  Context* ctx;

  PvmHugeWorld(size_t ratio, size_t frames, PagedVm::Options options = MakeOptions())
      : memory(frames, kPage), mmu(kPage, 10, ratio), vm(memory, mmu, options),
        registry(kPage) {
    vm.BindSegmentRegistry(&registry);
    ctx = *vm.ContextCreate();
  }

  static PagedVm::Options MakeOptions() {
    PagedVm::Options options;
    options.transparent_huge = true;
    return options;
  }
};

constexpr Vaddr kBase = 0x100000;  // huge-aligned for both test ratios

// Each PVM case runs twice with one body: at the test granule as
// PvmHugeTest.<name> and at the shipped 128-page granule as
// PvmHugeWideTest.<name>.  World sizes scale with the ratio.
#define PVM_HUGE_TEST(name)                               \
  void name##Body(size_t ratio);                          \
  TEST(PvmHugeTest, name) { name##Body(kRatio); }         \
  TEST(PvmHugeWideTest, name) { name##Body(kWideRatio); } \
  void name##Body(size_t ratio)

PVM_HUGE_TEST(SequentialTouchPromotesEveryFullSpan) {
  PvmHugeWorld world(ratio, 16 * ratio);
  Cache* cache = *world.vm.CacheCreate(nullptr, "zero");
  const size_t pages = 4 * ratio;
  Region* region = *world.vm.RegionCreate(*world.ctx, kBase, pages * kPage,
                                          Prot::kReadWrite, *cache, 0);
  AsId as = world.ctx->address_space();
  for (size_t p = 0; p < pages; ++p) {
    uint64_t value = 0xAB00 + p;
    ASSERT_EQ(world.vm.cpu().Write(as, kBase + p * kPage, &value, sizeof(value)),
              Status::kOk);
  }
  EXPECT_EQ(world.vm.detail_stats().promotions, 4u);
  // The MMU really holds wide translations with contiguous frame runs.
  for (size_t p = 0; p < pages; ++p) {
    Result<MmuEntry> entry = world.mmu.Lookup(as, kBase + p * kPage);
    ASSERT_TRUE(entry.ok());
    EXPECT_TRUE(entry->huge) << "page " << p;
  }
  // Data survived any promotion-time frame migration.
  for (size_t p = 0; p < pages; ++p) {
    uint64_t got = 0;
    ASSERT_EQ(world.vm.cpu().Read(as, kBase + p * kPage, &got, sizeof(got)),
              Status::kOk);
    EXPECT_EQ(got, 0xAB00 + p) << "page " << p;
  }
  EXPECT_EQ(world.vm.CheckInvariants(), Status::kOk);
  (void)region->Destroy();
  // Teardown demotes the spans before unmapping their base pages.
  EXPECT_EQ(world.vm.detail_stats().demotions, 4u);
  (void)cache->Destroy();
  EXPECT_EQ(world.vm.CheckInvariants(), Status::kOk);
}

PVM_HUGE_TEST(PartialSpanNeverPromotes) {
  PvmHugeWorld world(ratio, 16 * ratio);
  Cache* cache = *world.vm.CacheCreate(nullptr, "partial");
  Region* region = *world.vm.RegionCreate(*world.ctx, kBase, 2 * ratio * kPage,
                                          Prot::kReadWrite, *cache, 0);
  AsId as = world.ctx->address_space();
  // Touch all but one page of each span.
  for (size_t p = 0; p < 2 * ratio; ++p) {
    if (p % ratio == ratio - 1) {
      continue;
    }
    uint64_t value = p;
    ASSERT_EQ(world.vm.cpu().Write(as, kBase + p * kPage, &value, sizeof(value)),
              Status::kOk);
  }
  EXPECT_EQ(world.vm.detail_stats().promotions, 0u);
  (void)region->Destroy();
  (void)cache->Destroy();
}

PVM_HUGE_TEST(CowWriteDemotesTheSpanButCopiesExactlyOneBasePage) {
  PvmHugeWorld world(ratio, 16 * ratio);
  Cache* src = *world.vm.CacheCreate(nullptr, "src");
  const size_t pages = ratio;
  Region* region = *world.vm.RegionCreate(*world.ctx, kBase, pages * kPage,
                                          Prot::kReadWrite, *src, 0);
  AsId as = world.ctx->address_space();
  for (size_t p = 0; p < pages; ++p) {
    uint64_t value = 0xC0DE + p;
    ASSERT_EQ(world.vm.cpu().Write(as, kBase + p * kPage, &value, sizeof(value)),
              Status::kOk);
  }
  ASSERT_EQ(world.vm.detail_stats().promotions, 1u);

  // Deferred copy write-protects the source: split-on-COW demotion.
  Cache* copy = *world.vm.CacheCreate(nullptr, "copy");
  ASSERT_EQ(src->CopyTo(*copy, 0, 0, pages * kPage, CopyPolicy::kHistory),
            Status::kOk);
  EXPECT_GE(world.vm.detail_stats().demote_cow, 1u);
  EXPECT_FALSE(world.mmu.Lookup(as, kBase)->huge);

  // One write to one page of the now-base-granule span...
  const uint64_t history_before = world.vm.detail_stats().history_pushes;
  uint64_t value = 0xFEED;
  ASSERT_EQ(world.vm.cpu().Write(as, kBase + kPage, &value, sizeof(value)),
            Status::kOk);
  // ...pushes exactly that one base page into the history object, not the span.
  EXPECT_EQ(world.vm.detail_stats().history_pushes, history_before + 1);

  // The copy still reads the old bytes everywhere; the source sees the write.
  Region* copy_region = *world.vm.RegionCreate(*world.ctx, kBase + 0x100000,
                                               pages * kPage, Prot::kRead, *copy, 0);
  for (size_t p = 0; p < pages; ++p) {
    uint64_t got = 0;
    ASSERT_EQ(world.vm.cpu().Read(as, kBase + 0x100000 + p * kPage, &got, sizeof(got)),
              Status::kOk);
    EXPECT_EQ(got, 0xC0DE + p) << "copy page " << p;
  }
  uint64_t got = 0;
  ASSERT_EQ(world.vm.cpu().Read(as, kBase + kPage, &got, sizeof(got)), Status::kOk);
  EXPECT_EQ(got, 0xFEED);
  EXPECT_EQ(world.vm.CheckInvariants(), Status::kOk);
  (void)copy_region->Destroy();
  (void)region->Destroy();
  (void)copy->Destroy();
  (void)src->Destroy();
}

PVM_HUGE_TEST(PageoutDemotesTheSpanBeforeHarvestingItsPages) {
  PagedVm::Options options = PvmHugeWorld::MakeOptions();
  options.low_water_frames = ratio;
  options.high_water_frames = 2 * ratio;
  PvmHugeWorld world(ratio, 6 * ratio, options);
  Cache* cache = *world.vm.CacheCreate(nullptr, "evict");
  const size_t pages = 4 * ratio;  // 4 spans committed over 6 spans of frames
  Region* region = *world.vm.RegionCreate(*world.ctx, kBase, pages * kPage,
                                          Prot::kReadWrite, *cache, 0);
  AsId as = world.ctx->address_space();
  for (size_t p = 0; p < pages; ++p) {
    uint64_t value = 0x9000 + p;
    ASSERT_EQ(world.vm.cpu().Write(as, kBase + p * kPage, &value, sizeof(value)),
              Status::kOk);
  }
  ASSERT_GT(world.vm.detail_stats().promotions, 0u);

  // A second region's faults push the pool below the low-water mark; reclaim
  // must demote promoted spans before unmapping their base pages.
  Cache* filler = *world.vm.CacheCreate(nullptr, "filler");
  Region* filler_region = *world.vm.RegionCreate(*world.ctx, kBase + 0x400000,
                                                 3 * ratio * kPage, Prot::kReadWrite,
                                                 *filler, 0);
  for (size_t p = 0; p < 3 * ratio; ++p) {
    uint64_t value = p;
    ASSERT_EQ(world.vm.cpu().Write(as, kBase + 0x400000 + p * kPage, &value,
                                   sizeof(value)),
              Status::kOk);
  }
  EXPECT_GT(world.vm.detail_stats().demote_pageout, 0u);

  // Every acknowledged byte survives eviction and pull-back.
  for (size_t p = 0; p < pages; ++p) {
    uint64_t got = 0;
    ASSERT_EQ(world.vm.cpu().Read(as, kBase + p * kPage, &got, sizeof(got)),
              Status::kOk);
    EXPECT_EQ(got, 0x9000 + p) << "page " << p;
  }
  EXPECT_EQ(world.vm.CheckInvariants(), Status::kOk);
  (void)filler_region->Destroy();
  (void)region->Destroy();
  (void)filler->Destroy();
  (void)cache->Destroy();
}

PVM_HUGE_TEST(OptOutWorldNeverPromotes) {
  PagedVm::Options options;  // transparent_huge defaults to false
  PhysicalMemory memory(16 * ratio, kPage);
  SoftMmu mmu(kPage, 10, ratio);
  PagedVm vm(memory, mmu, options);
  TestSwapRegistry registry(kPage);
  vm.BindSegmentRegistry(&registry);
  Context* ctx = *vm.ContextCreate();
  Cache* cache = *vm.CacheCreate(nullptr, "off");
  Region* region =
      *vm.RegionCreate(*ctx, kBase, 2 * ratio * kPage, Prot::kReadWrite, *cache, 0);
  AsId as = ctx->address_space();
  for (size_t p = 0; p < 2 * ratio; ++p) {
    uint64_t value = p;
    ASSERT_EQ(vm.cpu().Write(as, kBase + p * kPage, &value, sizeof(value)), Status::kOk);
  }
  EXPECT_EQ(vm.detail_stats().promotions, 0u);
  EXPECT_FALSE(mmu.Lookup(as, kBase)->huge);
  (void)region->Destroy();
  (void)cache->Destroy();
}

// Promotion of a span wider than the 64-page collect mask must harvest the
// dirty bit of every base page.  Page 100 is written through its own base
// mapping before the span is promoted; if promotion drops that bit, pageout
// later treats the page as clean and discards the write.
TEST(PvmHugeWideTest, PromotionKeepsWritesBeyondTheCollectMask) {
  const size_t ratio = kWideRatio;
  PagedVm::Options options = PvmHugeWorld::MakeOptions();
  options.low_water_frames = ratio / 4;
  options.high_water_frames = ratio / 2;
  PvmHugeWorld world(ratio, 2 * ratio, options);
  Cache* cache = *world.vm.CacheCreate(nullptr, "span");
  Region* region = *world.vm.RegionCreate(*world.ctx, kBase, ratio * kPage,
                                          Prot::kReadWrite, *cache, 0);
  AsId as = world.ctx->address_space();
  uint64_t scratch = 0;
  for (size_t p = 0; p + 1 < ratio; ++p) {
    ASSERT_EQ(world.vm.cpu().Read(as, kBase + p * kPage, &scratch, sizeof(scratch)),
              Status::kOk);
  }
  const uint32_t marker = 0xDEADBEEF;
  ASSERT_EQ(world.vm.cpu().Write(as, kBase + 100 * kPage, &marker, sizeof(marker)), Status::kOk);
  ASSERT_EQ(world.vm.cpu().Read(as, kBase + (ratio - 1) * kPage, &scratch, sizeof(scratch)),
            Status::kOk);
  ASSERT_EQ(world.vm.detail_stats().promotions, 1u);

  // Filler traffic pushes the promoted span out through pageout.
  Cache* filler = *world.vm.CacheCreate(nullptr, "filler");
  Region* filler_region = *world.vm.RegionCreate(*world.ctx, kBase + 0x400000,
                                                 3 * ratio * kPage, Prot::kReadWrite,
                                                 *filler, 0);
  for (size_t p = 0; p < 3 * ratio; ++p) {
    uint64_t value = p;
    ASSERT_EQ(world.vm.cpu().Write(as, kBase + 0x400000 + p * kPage, &value, sizeof(value)),
              Status::kOk);
  }
  EXPECT_GE(world.vm.detail_stats().demote_pageout, 1u);

  uint32_t got = 0;
  ASSERT_EQ(world.vm.cpu().Read(as, kBase + 100 * kPage, &got, sizeof(got)), Status::kOk);
  EXPECT_EQ(got, marker);
  EXPECT_EQ(world.vm.CheckInvariants(), Status::kOk);
  (void)filler_region->Destroy();
  (void)region->Destroy();
  (void)filler->Destroy();
  (void)cache->Destroy();
}

// ---------------------------------------------------------------------------
// The 64-thread mixed-size stale-translation hunter.
//
// Spans of kHunterRatio base pages double-buffered over two contiguous frame
// runs each.  The mutator races three span life-cycle shapes against 63
// readers: promotion (MapHuge over the live base mappings), split-on-COW
// demotion (write-protect of one page inside the span), and migration /
// condemned-AS teardown (frames retired and poisoned after the shootdown
// commits).  A reader observing poison through a successful access means a
// wide or base translation outlived its shootdown.  Run under TSan in CI.
// ---------------------------------------------------------------------------

uint64_t LoadFrameWord(const std::byte* p) {
  uint64_t v;
  __atomic_load(reinterpret_cast<const uint64_t*>(p), &v, __ATOMIC_RELAXED);
  return v;
}
void StoreFrameWord(std::byte* p, uint64_t v) {
  __atomic_store(reinterpret_cast<uint64_t*>(p), &v, __ATOMIC_RELAXED);
}

TEST(HugeStaleHunterTest, MixedSizeShootdownsNeverLeakStaleHitsAt64Threads) {
  constexpr size_t kHunterRatio = 8;  // span size in base pages
  constexpr size_t kSpans = 4;
  constexpr size_t kPages = kSpans * kHunterRatio;
  constexpr int kReaders = 63;  // + the mutator = 64 threads
  constexpr int kMutations = 140;
  constexpr uint64_t kGood = 0x600D600D600D600Dull;
  constexpr uint64_t kPoison = 0xDEADDEADDEADDEADull;

  PhysicalMemory memory(2 * kPages + 4, kPage);
  SoftMmu inner(kPage, 10, kHunterRatio);
  TlbMmu tlb(inner, /*enabled=*/true, TlbMmu::FenceMode::kFenced);
  std::atomic<AsId> current_as{*tlb.CreateAddressSpace()};

  // Two contiguous frame runs per span; `run[s]` selects the live one.  The
  // whole live run carries kGood; a retired run is poisoned only after the
  // shootdown that unmapped it has committed.
  int run[kSpans];
  bool promoted[kSpans];
  auto run_frame = [](size_t span, int buddy) {
    return static_cast<FrameIndex>((span * 2 + static_cast<size_t>(buddy)) *
                                   kHunterRatio);
  };
  AsId as0 = current_as.load();
  for (size_t s = 0; s < kSpans; ++s) {
    run[s] = 0;
    promoted[s] = false;
    for (size_t i = 0; i < kHunterRatio; ++i) {
      StoreFrameWord(memory.FrameData(run_frame(s, 0) + i), kGood);
      ASSERT_EQ(tlb.Map(as0, PageVa(s * kHunterRatio + i), run_frame(s, 0) + i,
                        Prot::kReadWrite),
                Status::kOk);
    }
  }

  std::atomic<bool> done{false};
  std::atomic<uint64_t> stale_observations{0};
  std::atomic<uint64_t> good_hits{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937_64 rng(7000 + r);  // seeded: reproducible interleavings
      while (!done.load(std::memory_order_relaxed)) {
        const AsId as = current_as.load(std::memory_order_acquire);
        const size_t p = rng() % kPages;
        uint64_t value = 0;
        const auto body = [&](FrameIndex frame) {
          value = LoadFrameWord(memory.FrameData(frame));
        };
        Result<FrameIndex> f =
            tlb.TranslateAndAccess(as, PageVa(p), Access::kRead, FrameBodyRef(body));
        // Faults are expected around unmaps, splits and AS swaps; observing
        // poison through a *successful* access never is.
        if (f.ok()) {
          if (value == kPoison) {
            stale_observations.fetch_add(1, std::memory_order_relaxed);
          } else if (value == kGood) {
            good_hits.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  std::mt19937_64 rng(99);
  for (int i = 0; i < kMutations; ++i) {
    AsId as = current_as.load();
    const size_t s = rng() % kSpans;
    const Vaddr span_va = PageVa(s * kHunterRatio);
    if (i % 10 == 9) {
      // Condemned teardown over a mix of promoted and base-mapped spans.
      {
        TlbGatherScope gather(&tlb);
        tlb.GatherCondemnAddressSpace(as);
        for (size_t p = 0; p < kPages; ++p) {
          (void)tlb.Unmap(as, PageVa(p));  // auto-demotes spans as it goes
        }
        ASSERT_EQ(tlb.DestroyAddressSpace(as), Status::kOk);
      }
      // Commit done: poison every live frame, rebuild base-mapped on buddies.
      AsId fresh = *tlb.CreateAddressSpace();
      for (size_t t = 0; t < kSpans; ++t) {
        for (size_t i2 = 0; i2 < kHunterRatio; ++i2) {
          StoreFrameWord(memory.FrameData(run_frame(t, run[t]) + i2), kPoison);
        }
        run[t] ^= 1;
        promoted[t] = false;
        for (size_t i2 = 0; i2 < kHunterRatio; ++i2) {
          StoreFrameWord(memory.FrameData(run_frame(t, run[t]) + i2), kGood);
          ASSERT_EQ(tlb.Map(fresh, PageVa(t * kHunterRatio + i2),
                            run_frame(t, run[t]) + i2, Prot::kReadWrite),
                    Status::kOk);
        }
      }
      current_as.store(fresh, std::memory_order_release);
    } else if (!promoted[s]) {
      // Promotion: collapse the live base run into one wide translation.
      ASSERT_EQ(tlb.MapHuge(as, span_va, run_frame(s, run[s]), Prot::kReadWrite),
                Status::kOk);
      promoted[s] = true;
    } else if (rng() % 2 == 0) {
      // Split-on-COW shape: write-protect one page inside the promoted span.
      // The span splits; the wide entry must die before Protect returns.
      const size_t inner_page = rng() % kHunterRatio;
      ASSERT_EQ(tlb.Protect(as, span_va + inner_page * kPage, Prot::kRead),
                Status::kOk);
      promoted[s] = false;
      // Restore writability (plain upgrades, no shootdown needed).
      ASSERT_EQ(tlb.Protect(as, span_va + inner_page * kPage, Prot::kReadWrite),
                Status::kOk);
    } else {
      // Migration: retire the promoted span wholesale onto its buddy run.
      // UnmapRange auto-demotes; after it returns no translation — wide or
      // base — may touch the old run.
      ASSERT_EQ(tlb.UnmapRange(as, span_va, kHunterRatio), Status::kOk);
      for (size_t i2 = 0; i2 < kHunterRatio; ++i2) {
        StoreFrameWord(memory.FrameData(run_frame(s, run[s]) + i2), kPoison);
      }
      run[s] ^= 1;
      promoted[s] = false;
      for (size_t i2 = 0; i2 < kHunterRatio; ++i2) {
        StoreFrameWord(memory.FrameData(run_frame(s, run[s]) + i2), kGood);
        ASSERT_EQ(tlb.Map(as, PageVa(s * kHunterRatio + i2),
                          run_frame(s, run[s]) + i2, Prot::kReadWrite),
                  Status::kOk);
      }
    }
  }
  // End on an all-promoted world, then keep it live until the readers have
  // demonstrably run AND demonstrably hit through a wide entry — on a loaded
  // host the readers can starve through the whole mutation window, so the
  // anti-vacuity evidence must be collectable after it.
  {
    AsId as = current_as.load();
    for (size_t s = 0; s < kSpans; ++s) {
      if (!promoted[s]) {
        ASSERT_EQ(tlb.MapHuge(as, PageVa(s * kHunterRatio),
                              run_frame(s, run[s]), Prot::kReadWrite),
                  Status::kOk);
        promoted[s] = true;
      }
    }
  }
  for (int spin = 0; spin < 2000000 &&
                     (good_hits.load() == 0 || tlb.tlb_stats().huge_hits == 0);
       ++spin) {
    std::this_thread::yield();
  }
  done = true;
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_EQ(stale_observations.load(), 0u);
  EXPECT_GT(good_hits.load(), 0u);
  // Wide entries must actually have been exercised for the hunt to mean much.
  EXPECT_GT(tlb.tlb_stats().huge_hits, 0u);
}

}  // namespace
}  // namespace gvm
