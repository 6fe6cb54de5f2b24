// PVM cache lifetime bookkeeping: the reverse-link tables and stub index that
// make teardown and copy setup keyed lookups (DESIGN.md §17), working sets that
// die with their address space, caches pinned across upcalls, and the dirty
// harvest of a region unmap whose batched MMU call fails.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/hal/soft_mmu.h"
#include "src/pvm/paged_vm.h"
#include "tests/test_util.h"

namespace gvm {
namespace {

constexpr size_t kPage = 4096;
constexpr size_t kPages = 4;

void WritePages(Cache& cache, size_t pages, char tag) {
  std::vector<char> data(kPage);
  for (size_t i = 0; i < pages; ++i) {
    std::memset(data.data(), tag + static_cast<int>(i), kPage);
    ASSERT_EQ(cache.Write(i * kPage, data.data(), kPage), Status::kOk);
  }
}

// The detail counters one fork/exec/exit job moved.
struct JobCost {
  uint64_t link_visits = 0;
  uint64_t reaped = 0;
  uint64_t collapsed = 0;
};

// One process lifetime at the PVM level, in a world holding `unrelated` other
// live caches (copied in pairs, so they carry parent and history links too):
// fork (deferred copy of the parent's data), a write in the child, exec (the
// image is copied over the child's data), the parent exits while the child
// runs (its data collapses into the child), then the child exits.
JobCost RunJob(size_t unrelated) {
  PhysicalMemory memory(64, kPage);
  SoftMmu mmu(kPage);
  PagedVm vm(memory, mmu);
  Cache* previous = nullptr;
  for (size_t i = 0; i < unrelated; ++i) {
    Cache* cache = *vm.CacheCreate(nullptr, "other" + std::to_string(i));
    if (i % 2 == 1) {
      EXPECT_EQ(previous->CopyTo(*cache, 0, 0, kPages * kPage, CopyPolicy::kHistory),
                Status::kOk);
    }
    previous = cache;
  }
  Cache* image = *vm.CacheCreate(nullptr, "image");
  WritePages(*image, kPages, 'i');
  Cache* parent_data = *vm.CacheCreate(nullptr, "parent");
  WritePages(*parent_data, kPages, 'p');
  Context* child = *vm.ContextCreate();
  const AsId as = child->address_space();
  const PvmDetailStats before = vm.detail_stats();

  // fork
  Cache* child_data = *vm.CacheCreate(nullptr, "child");
  EXPECT_EQ(parent_data->CopyTo(*child_data, 0, 0, kPages * kPage, CopyPolicy::kHistory),
            Status::kOk);
  Region* region =
      *vm.RegionCreate(*child, 0x10000, kPages * kPage, Prot::kReadWrite, *child_data, 0);
  char c = 'w';
  EXPECT_EQ(vm.cpu().Write(as, 0x10000, &c, 1), Status::kOk);
  // exec: a second deferred copy over the first; the child's data keeps the
  // parent's unmodified pages alive through the new tree.
  EXPECT_EQ(region->Destroy(), Status::kOk);
  Cache* exec_data = *vm.CacheCreate(nullptr, "exec");
  EXPECT_EQ(child_data->CopyTo(*exec_data, 0, 0, kPages * kPage, CopyPolicy::kHistory),
            Status::kOk);
  EXPECT_EQ(image->CopyTo(*exec_data, kPage, kPage, kPage, CopyPolicy::kHistory), Status::kOk);
  EXPECT_EQ(child_data->Destroy(), Status::kOk);
  region = *vm.RegionCreate(*child, 0x10000, kPages * kPage, Prot::kReadWrite, *exec_data, 0);
  EXPECT_EQ(vm.cpu().Read(as, 0x10000 + 2 * kPage, &c, 1), Status::kOk);
  EXPECT_EQ(c, 'p' + 2);
  // The parent exits while the child runs.
  EXPECT_EQ(parent_data->Destroy(), Status::kOk);
  EXPECT_EQ(vm.CheckInvariants(), Status::kOk);
  // The child exits.
  EXPECT_EQ(child->Destroy(), Status::kOk);
  EXPECT_EQ(exec_data->Destroy(), Status::kOk);
  EXPECT_EQ(vm.CheckInvariants(), Status::kOk);

  const PvmDetailStats after = vm.detail_stats();
  return JobCost{after.reverse_link_visits - before.reverse_link_visits,
                 after.caches_reaped - before.caches_reaped,
                 after.caches_collapsed - before.caches_collapsed};
}

TEST(PvmLifetimeTest, JobTeardownVisitsOnlyItsOwnTree) {
  const JobCost alone = RunJob(1);
  const JobCost crowded = RunJob(2000);
  // Not vacuous: the job reaps and collapses, and those walk reverse links.
  EXPECT_GT(alone.link_visits, 0u);
  EXPECT_GT(alone.reaped, 0u);
  EXPECT_GT(alone.collapsed, 0u);
  EXPECT_EQ(alone.link_visits, crowded.link_visits);
  EXPECT_EQ(alone.reaped, crowded.reaped);
  EXPECT_EQ(alone.collapsed, crowded.collapsed);
}

TEST(PvmLifetimeTest, ReverseLinksTrackWorkingObjectsAndCollapse) {
  PhysicalMemory memory(64, kPage);
  SoftMmu mmu(kPage);
  PagedVm vm(memory, mmu);
  Cache* src = *vm.CacheCreate(nullptr, "src");
  WritePages(*src, kPages, 's');
  // Three copies of one range: each later one inserts a working object.
  std::vector<Cache*> copies;
  for (int i = 0; i < 3; ++i) {
    copies.push_back(*vm.CacheCreate(nullptr, "c" + std::to_string(i)));
    ASSERT_EQ(src->CopyTo(*copies.back(), 0, 0, kPages * kPage, CopyPolicy::kHistory),
              Status::kOk);
    ASSERT_EQ(vm.CheckInvariants(), Status::kOk);
  }
  // Overlapping partial copies split fragments on both sides of the links.
  ASSERT_EQ(copies[0]->CopyTo(*copies[2], kPage, 2 * kPage, kPage, CopyPolicy::kHistory),
            Status::kOk);
  ASSERT_EQ(copies[1]->Write(0, "x", 1), Status::kOk);
  ASSERT_EQ(vm.CheckInvariants(), Status::kOk);
  // Tear the tree down in an order that collapses and cascades.
  ASSERT_EQ(src->Destroy(), Status::kOk);
  ASSERT_EQ(vm.CheckInvariants(), Status::kOk);
  for (Cache* copy : copies) {
    char c = 0;
    ASSERT_EQ(copy->Read(3 * kPage, &c, 1), Status::kOk);
    EXPECT_EQ(c, 's' + 3);
    ASSERT_EQ(copy->Destroy(), Status::kOk);
    ASSERT_EQ(vm.CheckInvariants(), Status::kOk);
  }
  EXPECT_GT(vm.detail_stats().caches_reaped, 0u);
}

TEST(PvmLifetimeTest, ReapPurgesPerPageStubsThroughTheIndex) {
  PhysicalMemory memory(64, kPage);
  SoftMmu mmu(kPage);
  PagedVm vm(memory, mmu);
  Cache* src = *vm.CacheCreate(nullptr, "src");
  WritePages(*src, 2, 's');
  Cache* dst = *vm.CacheCreate(nullptr, "dst");
  ASSERT_EQ(src->CopyTo(*dst, 0, 0, 2 * kPage, CopyPolicy::kPerPage), Status::kOk);
  EXPECT_EQ(vm.CowStubCount(), 2u);
  ASSERT_EQ(dst->Destroy(), Status::kOk);
  EXPECT_EQ(vm.CowStubCount(), 0u);
  EXPECT_EQ(vm.CheckInvariants(), Status::kOk);
  // The stubs are unthreaded from their source: it collapses nothing and
  // reaps at once.
  ASSERT_EQ(src->Destroy(), Status::kOk);
  EXPECT_EQ(vm.CacheCount(), 0u);
}

TEST(PvmLifetimeTest, WorkingSetsDieWithTheirAddressSpace) {
  PhysicalMemory memory(64, kPage);
  SoftMmu mmu(kPage);
  PagedVm vm(memory, mmu);
  Cache* shared = *vm.CacheCreate(nullptr, "text");
  WritePages(*shared, kPages, 't');
  for (int i = 0; i < 1000; ++i) {
    Context* child = *vm.ContextCreate();
    ASSERT_TRUE(vm.RegionCreate(*child, 0x10000, kPages * kPage, Prot::kRead, *shared, 0).ok());
    for (size_t p = 0; p < kPages; ++p) {
      char c = 0;
      ASSERT_EQ(vm.cpu().Read(child->address_space(), 0x10000 + p * kPage, &c, 1),
                Status::kOk);
    }
    EXPECT_EQ(vm.WorkingSetCount(), 1u);
    ASSERT_EQ(child->Destroy(), Status::kOk);
  }
  // Every child after the first re-mapped pages its predecessor left on the
  // pageout queues, so every dead space had a nonzero thrash EWMA.
  EXPECT_GE(vm.detail_stats().soft_faults, 999u * kPages);
  EXPECT_EQ(vm.WorkingSetCount(), 0u);
  EXPECT_EQ(vm.CheckInvariants(), Status::kOk);
}

// A swap driver that destroys the cache it is pushing out, from inside the
// upcall, once armed.
class DestroyingDriver final : public TestStoreDriver {
 public:
  using TestStoreDriver::TestStoreDriver;
  Status PushOut(Cache& cache, SegOffset offset, size_t size) override {
    if (!armed) {
      return TestStoreDriver::PushOut(cache, offset, size);
    }
    ++destroys;
    EXPECT_EQ(cache.Destroy(), Status::kOk);
    return Status::kOk;
  }
  bool armed = false;
  int destroys = 0;
};

class DestroyingRegistry final : public SegmentRegistry {
 public:
  SegmentDriver* SegmentCreate(Cache& cache) override {
    (void)cache;
    return &driver;
  }
  DestroyingDriver driver{kPage};
};

class PushOutDestroyTest : public ::testing::Test {
 protected:
  static PagedVm::Options Options() {
    PagedVm::Options options;
    options.low_water_frames = 4;
    options.high_water_frames = 8;
    return options;
  }
  PushOutDestroyTest() : memory_(32, kPage), mmu_(kPage), vm_(memory_, mmu_, Options()) {
    vm_.BindSegmentRegistry(&registry_);
    cache_ = *vm_.CacheCreate(nullptr, "victim");
    context_ = *vm_.ContextCreate();
  }
  // Dirty enough pages through a mapping to leave the pool under the
  // high-water mark; unmapped, they wait on the modified queue for a pass.
  void DirtyPages(char tag) {
    constexpr size_t kDirty = 26;
    Region* region =
        *vm_.RegionCreate(*context_, 0x10000, kDirty * kPage, Prot::kReadWrite, *cache_, 0);
    for (size_t p = 0; p < kDirty; ++p) {
      ASSERT_EQ(vm_.cpu().Write(context_->address_space(), 0x10000 + p * kPage, &tag, 1),
                Status::kOk);
    }
    ASSERT_EQ(region->Destroy(), Status::kOk);
    ASSERT_LT(memory_.free_frames(), 8u);
    ASSERT_GT(vm_.ModifiedQueueLength(), 0u);
  }
  void ExpectCacheReaped() {
    EXPECT_EQ(registry_.driver.destroys, 1);
    EXPECT_EQ(vm_.CacheCount(), 0u);
    EXPECT_EQ(vm_.InTransitCount(), 0u);
    EXPECT_EQ(vm_.detail_stats().caches_reaped, 1u);
    EXPECT_EQ(vm_.CheckInvariants(), Status::kOk);
  }

  PhysicalMemory memory_;
  SoftMmu mmu_;
  PagedVm vm_;
  DestroyingRegistry registry_;
  Cache* cache_ = nullptr;
  Context* context_ = nullptr;
};

TEST_F(PushOutDestroyTest, SinglePagePushOutDefersTheReap) {
  // The cache has no driver yet, so the pass takes the single-page path
  // (segmentCreate, then pushOut); the destroy lands inside the pushOut.
  DirtyPages('a');
  registry_.driver.armed = true;
  vm_.RunPageoutPassForTest();
  ExpectCacheReaped();
}

TEST_F(PushOutDestroyTest, BatchPushOutDefersTheReap) {
  // A first pass binds the driver and cleans the pages; re-dirtied, they go
  // out through the batched path, whose upcall destroys the cache.
  DirtyPages('a');
  vm_.RunPageoutPassForTest();
  ASSERT_GT(vm_.detail_stats().batch_pushes, 0u);
  const uint64_t batches = vm_.detail_stats().batch_pushes;
  DirtyPages('b');
  registry_.driver.armed = true;
  vm_.RunPageoutPassForTest();
  EXPECT_GT(vm_.detail_stats().batch_pushes, batches);
  ExpectCacheReaped();
}

// Delegates to SoftMmu, except that the batched unmap-and-harvest fails after
// removing the run's first translation, whose dirty bit it loses.
class FailingRangeCollectMmu final : public Mmu {
 public:
  explicit FailingRangeCollectMmu(size_t page_size) : inner_(page_size) {}
  Result<AsId> CreateAddressSpace() override { return inner_.CreateAddressSpace(); }
  Status DestroyAddressSpace(AsId as) override { return inner_.DestroyAddressSpace(as); }
  Status Map(AsId as, Vaddr va, FrameIndex frame, Prot prot) override {
    return inner_.Map(as, va, frame, prot);
  }
  Status Unmap(AsId as, Vaddr va) override { return inner_.Unmap(as, va); }
  Result<MmuEntry> UnmapCollect(AsId as, Vaddr va) override {
    return inner_.UnmapCollect(as, va);
  }
  Status UnmapRangeCollect(AsId as, Vaddr va, size_t count, uint64_t* dirty_mask) override {
    (void)count;
    ++range_failures;
    (void)inner_.UnmapCollect(as, va);
    *dirty_mask = 0;
    return Status::kBusError;
  }
  Status Protect(AsId as, Vaddr va, Prot prot) override { return inner_.Protect(as, va, prot); }
  Result<FrameIndex> Translate(AsId as, Vaddr va, Access access) override {
    return inner_.Translate(as, va, access);
  }
  Result<MmuEntry> Lookup(AsId as, Vaddr va) const override { return inner_.Lookup(as, va); }
  Result<bool> TestAndClearReferenced(AsId as, Vaddr va) override {
    return inner_.TestAndClearReferenced(as, va);
  }
  size_t page_size() const override { return inner_.page_size(); }
  Stats stats() const override { return inner_.stats(); }
  void ResetStats() override { inner_.ResetStats(); }
  const char* name() const override { return "failing-range-collect"; }

  int range_failures = 0;

 private:
  SoftMmu inner_;
};

TEST(PvmLifetimeTest, RegionUnmapKeepsDirtyBitsWhenTheRangeHarvestFails) {
  PhysicalMemory memory(64, kPage);
  FailingRangeCollectMmu mmu(kPage);
  PagedVm::Options options;
  options.enable_tlb = false;  // the manager's range calls reach the MMU above
  PagedVm vm(memory, mmu, options);
  TestStoreDriver driver(kPage);
  Cache* file = *vm.CacheCreate(&driver, "file");
  Context* context = *vm.ContextCreate();
  const AsId as = context->address_space();
  Region* region =
      *vm.RegionCreate(*context, 0x10000, kPages * kPage, Prot::kReadWrite, *file, 0);
  // Read faults map the pulled-in pages writable; the writes that follow take
  // no fault, so only the MMU's dirty bits record them.
  for (size_t p = 0; p < kPages; ++p) {
    char c = 0;
    ASSERT_EQ(vm.cpu().Read(as, 0x10000 + p * kPage, &c, 1), Status::kOk);
    c = static_cast<char>('A' + p);
    ASSERT_EQ(vm.cpu().Write(as, 0x10000 + p * kPage, &c, 1), Status::kOk);
  }
  ASSERT_EQ(vm.stats().page_faults, kPages);  // no write fault set sw_dirty
  ASSERT_EQ(region->Destroy(), Status::kOk);
  EXPECT_EQ(mmu.range_failures, 1);
  ASSERT_EQ(file->Sync(), Status::kOk);
  for (size_t p = 0; p < kPages; ++p) {
    ASSERT_TRUE(driver.HasPage(p * kPage)) << p;
    EXPECT_EQ(static_cast<char>(driver.PageData(p * kPage)[0]), static_cast<char>('A' + p));
  }
  EXPECT_EQ(vm.CheckInvariants(), Status::kOk);
}

}  // namespace
}  // namespace gvm
