// History-object deferred copy (section 4.2): the Figure 3 scenarios, the 4.2.3
// complication, successive copies with working objects, source-deleted-first
// semantics (4.2.5), copy-on-reference, and the per-virtual-page technique (4.3).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/hal/soft_mmu.h"
#include "src/pvm/paged_vm.h"
#include "tests/test_util.h"

namespace gvm {
namespace {

constexpr size_t kPage = 4096;

class PvmHistoryTest : public ::testing::Test {
 protected:
  PvmHistoryTest() : memory_(256, kPage), mmu_(kPage), vm_(memory_, mmu_), registry_(kPage) {
    vm_.BindSegmentRegistry(&registry_);
    context_ = *vm_.ContextCreate();
  }

  // Make a temporary cache whose pages 0..n-1 hold a recognizable pattern, fully
  // resident, via a scratch region.
  Cache* MakeFilledCache(const std::string& name, int pages, char tag) {
    Cache* cache = *vm_.CacheCreate(nullptr, name);
    std::vector<char> data(kPage);
    for (int i = 0; i < pages; ++i) {
      std::memset(data.data(), tag + i, kPage);
      EXPECT_EQ(cache->Write(i * kPage, data.data(), kPage), Status::kOk);
    }
    return cache;
  }

  char ReadByte(Cache& cache, SegOffset offset) {
    char c = 0;
    EXPECT_EQ(cache.Read(offset, &c, 1), Status::kOk);
    return c;
  }

  void WriteByte(Cache& cache, SegOffset offset, char value) {
    EXPECT_EQ(cache.Write(offset, &value, 1), Status::kOk);
  }

  // Write through a mapping (exercises the MMU fault path rather than the
  // explicit-I/O path).
  void MapAndWrite(Cache& cache, SegOffset offset, char value) {
    Region* region = *vm_.RegionCreate(*context_, 0xA00000, kPage, Prot::kReadWrite, cache,
                                       offset / kPage * kPage);
    ASSERT_EQ(vm_.cpu().Write(context_->address_space(), 0xA00000 + offset % kPage, &value, 1),
              Status::kOk);
    ASSERT_EQ(region->Destroy(), Status::kOk);
  }

  PhysicalMemory memory_;
  SoftMmu mmu_;
  PagedVm vm_;
  TestSwapRegistry registry_;
  Context* context_ = nullptr;
};

// ---------------------------------------------------------------------------
// Figure 3.a: the simple case
// ---------------------------------------------------------------------------

TEST_F(PvmHistoryTest, Fig3aSimpleCopyOnWrite) {
  Cache* src = MakeFilledCache("src", 3, 'a');  // pages hold 'a', 'b', 'c'
  Cache* cpy1 = *vm_.CacheCreate(nullptr, "cpy1");

  // Deferred copy of pages 1..3 (the figure copies a 3-page fragment).
  ASSERT_EQ(src->CopyTo(*cpy1, 0, 0, 3 * kPage, CopyPolicy::kHistory), Status::kOk);
  size_t frames_after_copy = memory_.used_frames();

  // cpy1 is src's history; cpy1's parent is src.
  auto* src_pvm = static_cast<PvmCache*>(src);
  auto* cpy1_pvm = static_cast<PvmCache*>(cpy1);
  EXPECT_EQ(src_pvm->HistoryAt(0), cpy1_pvm);
  EXPECT_EQ(cpy1_pvm->ParentAt(0), src_pvm);

  // A cache miss on page 0 in cpy1 is resolved by looking it up in src — without
  // allocating a frame.
  EXPECT_EQ(ReadByte(*cpy1, 0), 'a');
  EXPECT_EQ(memory_.used_frames(), frames_after_copy);

  // "Page 2 has been updated in src": the original goes to cpy1's frame.
  WriteByte(*src, kPage + 10, 'B');
  EXPECT_EQ(ReadByte(*src, kPage + 10), 'B');
  EXPECT_EQ(ReadByte(*cpy1, kPage + 10), 'b');  // cpy1 sees the original
  EXPECT_EQ(ReadByte(*cpy1, kPage), 'b');

  // "Page 3 has been updated in cpy1": a private frame in cpy1.
  WriteByte(*cpy1, 2 * kPage, 'C');
  EXPECT_EQ(ReadByte(*cpy1, 2 * kPage), 'C');
  EXPECT_EQ(ReadByte(*src, 2 * kPage), 'c');  // src is untouched

  EXPECT_EQ(vm_.CheckInvariants(), Status::kOk);
  EXPECT_GE(vm_.detail_stats().history_pushes, 1u);
}

TEST_F(PvmHistoryTest, CopyDeletedFirstIsTheCheapCase) {
  // "When the copy segment is deleted, its cache may simply be discarded.  This is
  // the normal case in Unix."
  Cache* src = MakeFilledCache("src", 2, 'a');
  Cache* cpy1 = *vm_.CacheCreate(nullptr, "cpy1");
  ASSERT_EQ(src->CopyTo(*cpy1, 0, 0, 2 * kPage, CopyPolicy::kHistory), Status::kOk);
  WriteByte(*src, 0, 'X');  // push one original into cpy1
  size_t caches_before = vm_.CacheCount();
  ASSERT_EQ(cpy1->Destroy(), Status::kOk);
  EXPECT_EQ(vm_.CacheCount(), caches_before - 1);
  // src is fully functional and writable without faults piling up.
  EXPECT_EQ(ReadByte(*src, 0), 'X');
  WriteByte(*src, kPage, 'Y');
  EXPECT_EQ(ReadByte(*src, kPage), 'Y');
  EXPECT_EQ(vm_.CheckInvariants(), Status::kOk);
}

TEST_F(PvmHistoryTest, SourceDeletedFirstKeepsDataForCopy) {
  // Section 4.2.5: "remaining unmodified source data must be kept until the copy
  // is deleted" (parent exits, child continues).
  Cache* src = MakeFilledCache("src", 2, 'a');
  Cache* cpy1 = *vm_.CacheCreate(nullptr, "cpy1");
  ASSERT_EQ(src->CopyTo(*cpy1, 0, 0, 2 * kPage, CopyPolicy::kHistory), Status::kOk);
  ASSERT_EQ(src->Destroy(), Status::kOk);
  // cpy1 still reads src's data.
  EXPECT_EQ(ReadByte(*cpy1, 0), 'a');
  EXPECT_EQ(ReadByte(*cpy1, kPage), 'b');
  WriteByte(*cpy1, 0, 'Z');
  EXPECT_EQ(ReadByte(*cpy1, 0), 'Z');
  EXPECT_EQ(vm_.CheckInvariants(), Status::kOk);
  // Deleting the copy finally reaps the dying source.
  ASSERT_EQ(cpy1->Destroy(), Status::kOk);
  EXPECT_EQ(vm_.CacheCount(), 0u);
  EXPECT_EQ(memory_.used_frames(), 0u);
}

// ---------------------------------------------------------------------------
// Figure 3.b: copy of a copy (the 4.2.3 complication)
// ---------------------------------------------------------------------------

TEST_F(PvmHistoryTest, Fig3bCopyOfCopy) {
  Cache* src = MakeFilledCache("src", 3, 'a');
  Cache* cpy1 = *vm_.CacheCreate(nullptr, "cpy1");
  ASSERT_EQ(src->CopyTo(*cpy1, 0, 0, 3 * kPage, CopyPolicy::kHistory), Status::kOk);

  // "Page 2 of src is modified."
  WriteByte(*src, kPage, 'B');

  // "Then cpy1 is copied-on-write to copyOfCpy1."
  Cache* copy_of_cpy1 = *vm_.CacheCreate(nullptr, "copyOfCpy1");
  ASSERT_EQ(cpy1->CopyTo(*copy_of_cpy1, 0, 0, 3 * kPage, CopyPolicy::kHistory), Status::kOk);

  auto* cpy1_pvm = static_cast<PvmCache*>(cpy1);
  EXPECT_EQ(cpy1_pvm->HistoryAt(0), static_cast<PvmCache*>(copy_of_cpy1));

  // "Page 3 of cpy1 is modified: both src and copyOfCpy1 get a page frame with the
  // original value."  (src keeps its own original; our structures let src keep the
  // page and give copyOfCpy1 its snapshot.)
  WriteByte(*cpy1, 2 * kPage, 'C');
  EXPECT_EQ(ReadByte(*cpy1, 2 * kPage), 'C');
  EXPECT_EQ(ReadByte(*src, 2 * kPage), 'c');
  EXPECT_EQ(ReadByte(*copy_of_cpy1, 2 * kPage), 'c');  // the 4.2.3 complication

  // "Page 1 of both copies is read from src."
  EXPECT_EQ(ReadByte(*cpy1, 0), 'a');
  EXPECT_EQ(ReadByte(*copy_of_cpy1, 0), 'a');

  // "Page 2 of copyOfCpy1 is read from cpy1" (the original of src's update).
  EXPECT_EQ(ReadByte(*copy_of_cpy1, kPage), 'b');
  EXPECT_EQ(ReadByte(*cpy1, kPage), 'b');
  EXPECT_EQ(ReadByte(*src, kPage), 'B');

  EXPECT_EQ(vm_.CheckInvariants(), Status::kOk);
}

// ---------------------------------------------------------------------------
// Figures 3.c / 3.d: second and third copies insert working objects
// ---------------------------------------------------------------------------

TEST_F(PvmHistoryTest, Fig3cSecondCopyInsertsWorkingObject) {
  Cache* src = MakeFilledCache("src", 4, 'a');  // 'a' 'b' 'c' 'd'
  Cache* cpy1 = *vm_.CacheCreate(nullptr, "cpy1");
  ASSERT_EQ(src->CopyTo(*cpy1, 0, 0, 4 * kPage, CopyPolicy::kHistory), Status::kOk);

  Cache* cpy2 = *vm_.CacheCreate(nullptr, "cpy2");
  ASSERT_EQ(src->CopyTo(*cpy2, 0, 0, 4 * kPage, CopyPolicy::kHistory), Status::kOk);
  EXPECT_EQ(vm_.detail_stats().working_objects, 1u);

  // Tree shape: src -> w1 -> {cpy1, cpy2}.
  auto* src_pvm = static_cast<PvmCache*>(src);
  auto* cpy1_pvm = static_cast<PvmCache*>(cpy1);
  auto* cpy2_pvm = static_cast<PvmCache*>(cpy2);
  PvmCache* w1 = src_pvm->HistoryAt(0);
  ASSERT_NE(w1, nullptr);
  EXPECT_NE(w1, cpy1_pvm);
  EXPECT_NE(w1, cpy2_pvm);
  EXPECT_EQ(cpy1_pvm->ParentAt(0), w1);
  EXPECT_EQ(cpy2_pvm->ParentAt(0), w1);
  EXPECT_EQ(w1->ParentAt(0), src_pvm);

  // "The following pages have been modified: page 3 of src, page 3 of cpy1, and
  // page 4 of cpy2."
  WriteByte(*src, 2 * kPage, 'C');   // original 'c' goes into w1
  WriteByte(*cpy1, 2 * kPage, '3');  // private copy in cpy1
  WriteByte(*cpy2, 3 * kPage, '4');  // private copy in cpy2

  // Everyone sees the right bytes.
  EXPECT_EQ(ReadByte(*src, 2 * kPage), 'C');
  EXPECT_EQ(ReadByte(*cpy1, 2 * kPage), '3');
  EXPECT_EQ(ReadByte(*cpy2, 2 * kPage), 'c');  // via w1
  EXPECT_EQ(ReadByte(*cpy2, 3 * kPage), '4');
  EXPECT_EQ(ReadByte(*cpy1, 3 * kPage), 'd');  // via w1 -> src
  EXPECT_EQ(ReadByte(*src, 3 * kPage), 'd');
  EXPECT_EQ(ReadByte(*cpy1, 0), 'a');
  EXPECT_EQ(ReadByte(*cpy2, 0), 'a');

  EXPECT_EQ(vm_.CheckInvariants(), Status::kOk);
}

TEST_F(PvmHistoryTest, Fig3dThirdCopyStacksWorkingObjects) {
  Cache* src = MakeFilledCache("src", 2, 'a');
  Cache* cpy1 = *vm_.CacheCreate(nullptr, "cpy1");
  Cache* cpy2 = *vm_.CacheCreate(nullptr, "cpy2");
  Cache* cpy3 = *vm_.CacheCreate(nullptr, "cpy3");
  ASSERT_EQ(src->CopyTo(*cpy1, 0, 0, 2 * kPage, CopyPolicy::kHistory), Status::kOk);
  ASSERT_EQ(src->CopyTo(*cpy2, 0, 0, 2 * kPage, CopyPolicy::kHistory), Status::kOk);
  ASSERT_EQ(src->CopyTo(*cpy3, 0, 0, 2 * kPage, CopyPolicy::kHistory), Status::kOk);
  EXPECT_EQ(vm_.detail_stats().working_objects, 2u);  // w1 and w2

  // Values diverge at src only; all copies see originals.
  WriteByte(*src, 0, 'X');
  EXPECT_EQ(ReadByte(*cpy1, 0), 'a');
  EXPECT_EQ(ReadByte(*cpy2, 0), 'a');
  EXPECT_EQ(ReadByte(*cpy3, 0), 'a');
  EXPECT_EQ(ReadByte(*src, 0), 'X');

  // Each copy can diverge independently.
  WriteByte(*cpy1, 0, '1');
  WriteByte(*cpy2, 0, '2');
  EXPECT_EQ(ReadByte(*cpy1, 0), '1');
  EXPECT_EQ(ReadByte(*cpy2, 0), '2');
  EXPECT_EQ(ReadByte(*cpy3, 0), 'a');
  EXPECT_EQ(vm_.CheckInvariants(), Status::kOk);
}

TEST_F(PvmHistoryTest, WriteBetweenSuccessiveCopiesSnapshotsCorrectly) {
  // src is copied, modified, copied again: the two copies must see different
  // snapshots.
  Cache* src = MakeFilledCache("src", 1, 'a');
  Cache* cpy1 = *vm_.CacheCreate(nullptr, "cpy1");
  ASSERT_EQ(src->CopyTo(*cpy1, 0, 0, kPage, CopyPolicy::kHistory), Status::kOk);
  WriteByte(*src, 0, 'b');  // original 'a' lands in cpy1
  Cache* cpy2 = *vm_.CacheCreate(nullptr, "cpy2");
  ASSERT_EQ(src->CopyTo(*cpy2, 0, 0, kPage, CopyPolicy::kHistory), Status::kOk);
  WriteByte(*src, 0, 'c');  // original 'b' lands in w1

  EXPECT_EQ(ReadByte(*cpy1, 0), 'a');
  EXPECT_EQ(ReadByte(*cpy2, 0), 'b');
  EXPECT_EQ(ReadByte(*src, 0), 'c');
  EXPECT_EQ(vm_.CheckInvariants(), Status::kOk);
}

// ---------------------------------------------------------------------------
// Fragments (4.2.4)
// ---------------------------------------------------------------------------

TEST_F(PvmHistoryTest, FragmentCopiesFromDifferentSources) {
  // Copy different fragments from two different sources into one destination:
  // "individual fragments may have different, arbitrary, parents."
  Cache* src_a = MakeFilledCache("srcA", 2, 'a');
  Cache* src_b = MakeFilledCache("srcB", 2, 'p');
  Cache* dst = *vm_.CacheCreate(nullptr, "dst");
  ASSERT_EQ(src_a->CopyTo(*dst, 0, 0, 2 * kPage, CopyPolicy::kHistory), Status::kOk);
  ASSERT_EQ(src_b->CopyTo(*dst, 0, 2 * kPage, 2 * kPage, CopyPolicy::kHistory), Status::kOk);

  EXPECT_EQ(ReadByte(*dst, 0), 'a');
  EXPECT_EQ(ReadByte(*dst, kPage), 'b');
  EXPECT_EQ(ReadByte(*dst, 2 * kPage), 'p');
  EXPECT_EQ(ReadByte(*dst, 3 * kPage), 'q');

  auto* dst_pvm = static_cast<PvmCache*>(dst);
  EXPECT_EQ(dst_pvm->ParentAt(0), static_cast<PvmCache*>(src_a));
  EXPECT_EQ(dst_pvm->ParentAt(2 * kPage), static_cast<PvmCache*>(src_b));

  WriteByte(*src_a, 0, 'X');
  WriteByte(*src_b, 0, 'Y');
  EXPECT_EQ(ReadByte(*dst, 0), 'a');
  EXPECT_EQ(ReadByte(*dst, 2 * kPage), 'p');
  EXPECT_EQ(vm_.CheckInvariants(), Status::kOk);
}

TEST_F(PvmHistoryTest, CopyIntoMiddleOfExistingCopy) {
  // Overwrite the middle fragment of an existing deferred copy (section 4.2.4).
  Cache* src_a = MakeFilledCache("srcA", 4, 'a');  // a b c d
  Cache* src_b = MakeFilledCache("srcB", 1, 'z');
  Cache* dst = *vm_.CacheCreate(nullptr, "dst");
  ASSERT_EQ(src_a->CopyTo(*dst, 0, 0, 4 * kPage, CopyPolicy::kHistory), Status::kOk);
  ASSERT_EQ(src_b->CopyTo(*dst, 0, kPage, kPage, CopyPolicy::kHistory), Status::kOk);

  EXPECT_EQ(ReadByte(*dst, 0), 'a');
  EXPECT_EQ(ReadByte(*dst, kPage), 'z');  // replaced fragment
  EXPECT_EQ(ReadByte(*dst, 2 * kPage), 'c');
  EXPECT_EQ(ReadByte(*dst, 3 * kPage), 'd');
  EXPECT_EQ(vm_.CheckInvariants(), Status::kOk);
}

TEST_F(PvmHistoryTest, CopyIntoSegmentThatIsACopySource) {
  // dst was copied to child; then dst's range is overwritten by a new copy.  The
  // child must keep dst's ORIGINAL values (materialized into it during the clear).
  Cache* src = MakeFilledCache("src", 2, 'a');
  Cache* dst = MakeFilledCache("dst", 2, 'm');  // 'm' 'n'
  Cache* child = *vm_.CacheCreate(nullptr, "child");
  ASSERT_EQ(dst->CopyTo(*child, 0, 0, 2 * kPage, CopyPolicy::kHistory), Status::kOk);
  ASSERT_EQ(src->CopyTo(*dst, 0, 0, 2 * kPage, CopyPolicy::kHistory), Status::kOk);

  EXPECT_EQ(ReadByte(*dst, 0), 'a');
  EXPECT_EQ(ReadByte(*dst, kPage), 'b');
  EXPECT_EQ(ReadByte(*child, 0), 'm');  // the pre-overwrite snapshot
  EXPECT_EQ(ReadByte(*child, kPage), 'n');
  EXPECT_EQ(vm_.CheckInvariants(), Status::kOk);
}

// ---------------------------------------------------------------------------
// Copy-on-reference
// ---------------------------------------------------------------------------

TEST_F(PvmHistoryTest, CopyOnReferenceMaterializesOnFirstTouch) {
  Cache* src = MakeFilledCache("src", 2, 'a');
  Cache* cpy = *vm_.CacheCreate(nullptr, "cor");
  ASSERT_EQ(src->CopyTo(*cpy, 0, 0, 2 * kPage, CopyPolicy::kHistoryOnRef), Status::kOk);

  // Map the copy and read through the mapping: the page is materialized privately
  // rather than shared read-only.
  Region* region =
      *vm_.RegionCreate(*context_, 0x200000, 2 * kPage, Prot::kReadWrite, *cpy, 0);
  (void)region;
  AsId as = context_->address_space();
  char c = 0;
  ASSERT_EQ(vm_.cpu().Read(as, 0x200000, &c, 1), Status::kOk);
  EXPECT_EQ(c, 'a');
  EXPECT_EQ(static_cast<Cache*>(cpy)->ResidentPages(), 1u);  // private frame exists

  // Because the page is private, a subsequent write does not fault again.
  uint64_t faults = vm_.stats().page_faults;
  ASSERT_EQ(vm_.cpu().Write(as, 0x200000, &c, 1), Status::kOk);
  EXPECT_EQ(vm_.stats().page_faults, faults);
  EXPECT_EQ(vm_.CheckInvariants(), Status::kOk);
}

// ---------------------------------------------------------------------------
// Per-virtual-page copy (4.3)
// ---------------------------------------------------------------------------

TEST_F(PvmHistoryTest, PerPageCopyBasics) {
  Cache* src = MakeFilledCache("src", 3, 'a');
  Cache* dst = *vm_.CacheCreate(nullptr, "dst");
  ASSERT_EQ(src->CopyTo(*dst, 0, 0, 3 * kPage, CopyPolicy::kPerPage), Status::kOk);
  EXPECT_EQ(vm_.CowStubCount(), 3u);
  EXPECT_EQ(vm_.detail_stats().per_page_stubs, 3u);

  // Reads are satisfied through the stubs (source pages, no copies).
  size_t frames = memory_.used_frames();
  EXPECT_EQ(ReadByte(*dst, 0), 'a');
  EXPECT_EQ(ReadByte(*dst, kPage), 'b');
  EXPECT_EQ(memory_.used_frames(), frames);

  // "When a write violation occurs on a copy-on-write page stub, a new page frame
  // is allocated with a copy of the source page."
  WriteByte(*dst, kPage, 'B');
  EXPECT_EQ(ReadByte(*dst, kPage), 'B');
  EXPECT_EQ(ReadByte(*src, kPage), 'b');
  EXPECT_EQ(vm_.CowStubCount(), 2u);
  EXPECT_EQ(vm_.detail_stats().stub_resolutions, 1u);
  EXPECT_EQ(vm_.CheckInvariants(), Status::kOk);
}

TEST_F(PvmHistoryTest, PerPageSourceWriteDetachesStubs) {
  Cache* src = MakeFilledCache("src", 1, 'a');
  Cache* dst1 = *vm_.CacheCreate(nullptr, "dst1");
  Cache* dst2 = *vm_.CacheCreate(nullptr, "dst2");
  ASSERT_EQ(src->CopyTo(*dst1, 0, 0, kPage, CopyPolicy::kPerPage), Status::kOk);
  ASSERT_EQ(src->CopyTo(*dst2, 0, 0, kPage, CopyPolicy::kPerPage), Status::kOk);

  // Source write must first give the stubs the original value.
  WriteByte(*src, 0, 'X');
  EXPECT_EQ(ReadByte(*src, 0), 'X');
  EXPECT_EQ(ReadByte(*dst1, 0), 'a');
  EXPECT_EQ(ReadByte(*dst2, 0), 'a');
  EXPECT_EQ(vm_.CheckInvariants(), Status::kOk);
}

TEST_F(PvmHistoryTest, PerPageStubSurvivesSourceEviction) {
  // Stub source page evicted to swap: the stub flips to its non-resident form and
  // resolution pulls the page back in.
  PhysicalMemory small(8, kPage);
  SoftMmu mmu(kPage);
  PagedVm::Options options;
  options.low_water_frames = 2;
  options.high_water_frames = 3;
  PagedVm vm(small, mmu, options);
  TestSwapRegistry registry(kPage);
  vm.BindSegmentRegistry(&registry);

  Cache* src = *vm.CacheCreate(nullptr, "src");
  std::vector<char> page_data(kPage, 's');
  ASSERT_EQ(src->Write(0, page_data.data(), kPage), Status::kOk);
  Cache* dst = *vm.CacheCreate(nullptr, "dst");
  ASSERT_EQ(src->CopyTo(*dst, 0, 0, kPage, CopyPolicy::kPerPage), Status::kOk);

  // Churn memory to evict the source page.
  Cache* churn = *vm.CacheCreate(nullptr, "churn");
  std::vector<char> junk(kPage, 'j');
  for (int i = 0; i < 12; ++i) {
    ASSERT_EQ(churn->Write(i * kPage, junk.data(), kPage), Status::kOk);
  }
  // The stub still resolves (write materializes a private copy).
  char v = 0;
  ASSERT_EQ(dst->Read(0, &v, 1), Status::kOk);
  EXPECT_EQ(v, 's');
  char w = 'D';
  ASSERT_EQ(dst->Write(10, &w, 1), Status::kOk);
  ASSERT_EQ(dst->Read(10, &v, 1), Status::kOk);
  EXPECT_EQ(v, 'D');
  ASSERT_EQ(src->Read(10, &v, 1), Status::kOk);
  EXPECT_EQ(v, 's');
  EXPECT_EQ(vm.CheckInvariants(), Status::kOk);
}

// ---------------------------------------------------------------------------
// Move semantics
// ---------------------------------------------------------------------------

TEST_F(PvmHistoryTest, MoveRetargetsFramesInsteadOfCopying) {
  Cache* src = MakeFilledCache("src", 4, 'a');
  Cache* dst = *vm_.CacheCreate(nullptr, "dst");
  uint64_t copies_before = memory_.stats().frame_copies;
  ASSERT_EQ(src->MoveTo(*dst, 0, 0, 4 * kPage), Status::kOk);
  EXPECT_EQ(memory_.stats().frame_copies, copies_before);  // zero bytes copied
  EXPECT_EQ(vm_.detail_stats().move_retargets, 4u);
  EXPECT_EQ(ReadByte(*dst, 0), 'a');
  EXPECT_EQ(ReadByte(*dst, 3 * kPage), 'd');
  EXPECT_EQ(static_cast<Cache*>(src)->ResidentPages(), 0u);
  EXPECT_EQ(vm_.CheckInvariants(), Status::kOk);
}

// ---------------------------------------------------------------------------
// Deferred copy through mappings (the Unix fork shape)
// ---------------------------------------------------------------------------

TEST_F(PvmHistoryTest, ForkLikeMappedCowBothDirections) {
  // Parent's "data segment" mapped and resident; child created by deferred copy;
  // both processes write through their mappings.
  Cache* parent_cache = *vm_.CacheCreate(nullptr, "parent");
  Region* parent_region = *vm_.RegionCreate(*context_, 0x300000, 4 * kPage,
                                            Prot::kReadWrite, *parent_cache, 0);
  (void)parent_region;
  AsId parent_as = context_->address_space();
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(vm_.cpu().Store<uint32_t>(parent_as, 0x300000 + i * kPage, 0xAA00 + i),
              Status::kOk);
  }

  const uint64_t frame_copies_before = memory_.stats().frame_copies;
  const uint64_t cow_copies_before = vm_.stats().cow_copies;
  Context* child_ctx = *vm_.ContextCreate();
  Cache* child_cache = *vm_.CacheCreate(nullptr, "child");
  ASSERT_EQ(parent_cache->CopyTo(*child_cache, 0, 0, 4 * kPage, CopyPolicy::kHistory),
            Status::kOk);
  ASSERT_TRUE(vm_.RegionCreate(*child_ctx, 0x300000, 4 * kPage, Prot::kReadWrite,
                               *child_cache, 0)
                  .ok());
  AsId child_as = child_ctx->address_space();

  // Child reads see parent values (shared read-only frames).
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(*vm_.cpu().Load<uint32_t>(child_as, 0x300000 + i * kPage), 0xAA00u + i);
  }
  // Parent writes page 0: child still sees the original.
  ASSERT_EQ(vm_.cpu().Store<uint32_t>(parent_as, 0x300000, 0xBEEF), Status::kOk);
  EXPECT_EQ(*vm_.cpu().Load<uint32_t>(child_as, 0x300000), 0xAA00u);
  EXPECT_EQ(*vm_.cpu().Load<uint32_t>(parent_as, 0x300000), 0xBEEFu);

  // Child writes page 1: parent still sees the original.
  ASSERT_EQ(vm_.cpu().Store<uint32_t>(child_as, 0x300000 + kPage, 0xCAFE), Status::kOk);
  EXPECT_EQ(*vm_.cpu().Load<uint32_t>(parent_as, 0x300000 + kPage), 0xAA01u);
  EXPECT_EQ(*vm_.cpu().Load<uint32_t>(child_as, 0x300000 + kPage), 0xCAFEu);

  // Page 2, untouched, is physically shared.
  EXPECT_GE(vm_.stats().cow_copies, 2u);
  // Every COW copy is one physical frame copy, counted in the same place.
  EXPECT_EQ(memory_.stats().frame_copies - frame_copies_before,
            vm_.stats().cow_copies - cow_copies_before);
  EXPECT_EQ(vm_.CheckInvariants(), Status::kOk);
  ASSERT_EQ(child_ctx->Destroy(), Status::kOk);
  ASSERT_EQ(child_cache->Destroy(), Status::kOk);
  EXPECT_EQ(vm_.CheckInvariants(), Status::kOk);
}

TEST_F(PvmHistoryTest, RepeatedForkExitDoesNotAccumulateCaches) {
  // The paper's point against Mach's shadow chains: a shell forking repeatedly
  // must not build up garbage (section 4.2.5, problem 1).
  Cache* parent = MakeFilledCache("parent", 2, 'a');
  size_t baseline = vm_.CacheCount();
  for (int round = 0; round < 10; ++round) {
    Cache* child = *vm_.CacheCreate(nullptr, "child" + std::to_string(round));
    ASSERT_EQ(parent->CopyTo(*child, 0, 0, 2 * kPage, CopyPolicy::kHistory), Status::kOk);
    WriteByte(*parent, 0, static_cast<char>('A' + round));
    char c = ReadByte(*child, 0);
    EXPECT_EQ(c, round == 0 ? 'a' : static_cast<char>('A' + round - 1));
    ASSERT_EQ(child->Destroy(), Status::kOk);
  }
  // All children and any working objects were reclaimed.
  EXPECT_EQ(vm_.CacheCount(), baseline);
  EXPECT_EQ(vm_.CheckInvariants(), Status::kOk);
}

TEST_F(PvmHistoryTest, ForkChainWithExitsCollapses) {
  // Child forks and exits while its own child continues, repeatedly: the dying
  // middle caches collapse into their single live child (4.2.5, destination GC).
  Cache* generation = MakeFilledCache("gen0", 2, 'a');
  for (int i = 1; i <= 6; ++i) {
    Cache* next = *vm_.CacheCreate(nullptr, "gen" + std::to_string(i));
    ASSERT_EQ(generation->CopyTo(*next, 0, 0, 2 * kPage, CopyPolicy::kHistory), Status::kOk);
    WriteByte(*next, 0, static_cast<char>('0' + i));
    ASSERT_EQ(generation->Destroy(), Status::kOk);
    generation = next;
  }
  EXPECT_EQ(ReadByte(*generation, 0), '6');
  EXPECT_EQ(ReadByte(*generation, kPage), 'b');
  // Collapse keeps the cache count bounded (the live leaf plus at most a couple of
  // still-condemned ancestors, not one per generation).
  EXPECT_GE(vm_.detail_stats().caches_collapsed + vm_.detail_stats().caches_reaped, 4u);
  EXPECT_LE(vm_.CacheCount(), 3u);
  EXPECT_EQ(vm_.CheckInvariants(), Status::kOk);
}

TEST_F(PvmHistoryTest, AutoPolicyPicksTechniqueBySize) {
  PagedVm::Options options;
  // Default threshold: 8 pages.
  PhysicalMemory mem(128, kPage);
  SoftMmu mmu(kPage);
  PagedVm vm(mem, mmu, options);
  Cache* small_src = *vm.CacheCreate(nullptr, "small");
  Cache* small_dst = *vm.CacheCreate(nullptr, "small_dst");
  std::vector<char> buf(kPage, 'x');
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(small_src->Write(i * kPage, buf.data(), kPage), Status::kOk);
  }
  ASSERT_EQ(small_src->CopyTo(*small_dst, 0, 0, 2 * kPage, CopyPolicy::kAuto), Status::kOk);
  EXPECT_EQ(vm.detail_stats().per_page_stubs, 2u);  // small -> per-page

  Cache* big_src = *vm.CacheCreate(nullptr, "big");
  Cache* big_dst = *vm.CacheCreate(nullptr, "big_dst");
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(big_src->Write(i * kPage, buf.data(), kPage), Status::kOk);
  }
  ASSERT_EQ(big_src->CopyTo(*big_dst, 0, 0, 16 * kPage, CopyPolicy::kAuto), Status::kOk);
  EXPECT_EQ(vm.detail_stats().per_page_stubs, 2u);  // unchanged: big used history
  EXPECT_EQ(static_cast<PvmCache*>(big_src)->HistoryAt(0),
            static_cast<PvmCache*>(big_dst));
}

TEST_F(PvmHistoryTest, EagerCopyForUnalignedRanges) {
  Cache* src = MakeFilledCache("src", 2, 'a');
  Cache* dst = *vm_.CacheCreate(nullptr, "dst");
  // Unaligned copy must fall back to eager and still be correct.
  ASSERT_EQ(src->CopyTo(*dst, 100, 50, kPage, CopyPolicy::kAuto), Status::kOk);
  EXPECT_EQ(ReadByte(*dst, 50), 'a');
  EXPECT_EQ(ReadByte(*dst, 50 + kPage - 101), 'a');
  EXPECT_EQ(ReadByte(*dst, 50 + kPage - 100), 'b');
  EXPECT_EQ(vm_.CheckInvariants(), Status::kOk);
}

TEST_F(PvmHistoryTest, DumpTreeShowsStructure) {
  Cache* src = MakeFilledCache("src", 2, 'a');
  Cache* cpy1 = *vm_.CacheCreate(nullptr, "cpy1");
  Cache* cpy2 = *vm_.CacheCreate(nullptr, "cpy2");
  ASSERT_EQ(src->CopyTo(*cpy1, 0, 0, 2 * kPage, CopyPolicy::kHistory), Status::kOk);
  ASSERT_EQ(src->CopyTo(*cpy2, 0, 0, 2 * kPage, CopyPolicy::kHistory), Status::kOk);
  std::string dump = vm_.DumpTree(*src);
  EXPECT_NE(dump.find("src"), std::string::npos);
  EXPECT_NE(dump.find("cpy1"), std::string::npos);
  EXPECT_NE(dump.find("cpy2"), std::string::npos);
  EXPECT_NE(dump.find("w1"), std::string::npos);
  EXPECT_NE(dump.find("history={"), std::string::npos);
}

}  // namespace
}  // namespace gvm
