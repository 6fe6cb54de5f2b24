// Hardware-model tests: physical memory, both MMU implementations (parameterized —
// the PVM portability claim starts here), and the CPU access path.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <ostream>

#include "src/hal/cpu.h"
#include "src/hal/hash_mmu.h"
#include "src/hal/phys_memory.h"
#include "src/hal/soft_mmu.h"

namespace gvm {
namespace {

constexpr size_t kPage = 4096;

TEST(PhysicalMemoryTest, AllocateFreeCycle) {
  PhysicalMemory mem(4, kPage);
  EXPECT_EQ(mem.free_frames(), 4u);
  auto f0 = mem.AllocateFrame();
  ASSERT_TRUE(f0.ok());
  EXPECT_EQ(mem.free_frames(), 3u);
  EXPECT_TRUE(mem.IsAllocated(*f0));
  mem.FreeFrame(*f0);
  EXPECT_EQ(mem.free_frames(), 4u);
  EXPECT_FALSE(mem.IsAllocated(*f0));
}

TEST(PhysicalMemoryTest, ExhaustionReturnsNoMemory) {
  PhysicalMemory mem(2, kPage);
  ASSERT_TRUE(mem.AllocateFrame().ok());
  ASSERT_TRUE(mem.AllocateFrame().ok());
  EXPECT_EQ(mem.AllocateFrame().status(), Status::kNoMemory);
}

TEST(PhysicalMemoryTest, FramesAreDistinctStorage) {
  PhysicalMemory mem(2, kPage);
  FrameIndex a = *mem.AllocateFrame();
  FrameIndex b = *mem.AllocateFrame();
  std::memset(mem.FrameData(a), 0xAA, kPage);
  std::memset(mem.FrameData(b), 0x55, kPage);
  EXPECT_EQ(static_cast<unsigned char>(mem.FrameData(a)[0]), 0xAAu);
  EXPECT_EQ(static_cast<unsigned char>(mem.FrameData(b)[kPage - 1]), 0x55u);
}

TEST(PhysicalMemoryTest, CopyAndZeroFrame) {
  PhysicalMemory mem(2, kPage);
  FrameIndex a = *mem.AllocateFrame();
  FrameIndex b = *mem.AllocateFrame();
  std::memset(mem.FrameData(a), 0x7F, kPage);
  mem.CopyFrame(b, a);
  EXPECT_EQ(std::memcmp(mem.FrameData(a), mem.FrameData(b), kPage), 0);
  mem.ZeroFrame(a);
  EXPECT_EQ(static_cast<unsigned char>(mem.FrameData(a)[100]), 0u);
  EXPECT_EQ(mem.stats().frame_copies, 1u);
  EXPECT_EQ(mem.stats().zero_fills, 1u);
}

// ---------------------------------------------------------------------------
// Both MMU models must behave identically: parameterized over factories.
// ---------------------------------------------------------------------------

using MmuFactory = std::function<std::unique_ptr<Mmu>(size_t)>;

struct MmuPort {
  const char* name;
  MmuFactory make;
};

// gtest prints a parameter's raw bytes by default, which for a pointer-bearing
// struct differ in every process; print the port's name so the discovered
// test names are the same in every build.
void PrintTo(const MmuPort& port, std::ostream* os) { *os << port.name; }

class MmuTest : public ::testing::TestWithParam<MmuPort> {
 protected:
  void SetUp() override { mmu_ = GetParam().make(kPage); }
  std::unique_ptr<Mmu> mmu_;
};

TEST_P(MmuTest, MapTranslateUnmap) {
  AsId as = *mmu_->CreateAddressSpace();
  EXPECT_EQ(mmu_->Translate(as, 0x1000, Access::kRead).status(), Status::kSegmentationFault);
  ASSERT_EQ(mmu_->Map(as, 0x1000, 7, Prot::kReadWrite), Status::kOk);
  EXPECT_EQ(*mmu_->Translate(as, 0x1000, Access::kRead), 7u);
  EXPECT_EQ(*mmu_->Translate(as, 0x1FFF, Access::kWrite), 7u);  // same page
  ASSERT_EQ(mmu_->Unmap(as, 0x1000), Status::kOk);
  EXPECT_EQ(mmu_->Translate(as, 0x1000, Access::kRead).status(), Status::kSegmentationFault);
}

TEST_P(MmuTest, ProtectionFaults) {
  AsId as = *mmu_->CreateAddressSpace();
  ASSERT_EQ(mmu_->Map(as, 0, 3, Prot::kRead), Status::kOk);
  EXPECT_TRUE(mmu_->Translate(as, 0, Access::kRead).ok());
  EXPECT_EQ(mmu_->Translate(as, 0, Access::kWrite).status(), Status::kProtectionFault);
  EXPECT_EQ(mmu_->Translate(as, 0, Access::kExecute).status(), Status::kProtectionFault);
  ASSERT_EQ(mmu_->Protect(as, 0, Prot::kReadWrite), Status::kOk);
  EXPECT_TRUE(mmu_->Translate(as, 0, Access::kWrite).ok());
}

TEST_P(MmuTest, ReferencedAndDirtyBits) {
  AsId as = *mmu_->CreateAddressSpace();
  ASSERT_EQ(mmu_->Map(as, 0x2000, 1, Prot::kReadWrite), Status::kOk);
  MmuEntry entry = *mmu_->Lookup(as, 0x2000);
  EXPECT_FALSE(entry.referenced);
  EXPECT_FALSE(entry.dirty);
  ASSERT_TRUE(mmu_->Translate(as, 0x2000, Access::kRead).ok());
  entry = *mmu_->Lookup(as, 0x2000);
  EXPECT_TRUE(entry.referenced);
  EXPECT_FALSE(entry.dirty);
  ASSERT_TRUE(mmu_->Translate(as, 0x2000, Access::kWrite).ok());
  entry = *mmu_->Lookup(as, 0x2000);
  EXPECT_TRUE(entry.dirty);
  // Test-and-clear drives the clock hand.
  EXPECT_TRUE(*mmu_->TestAndClearReferenced(as, 0x2000));
  EXPECT_FALSE(*mmu_->TestAndClearReferenced(as, 0x2000));
}

TEST_P(MmuTest, SameFrameRemapPreservesReferencedAndDirty) {
  AsId as = *mmu_->CreateAddressSpace();
  ASSERT_EQ(mmu_->Map(as, 0x4000, 7, Prot::kReadWrite), Status::kOk);
  ASSERT_TRUE(mmu_->Translate(as, 0x4000, Access::kWrite).ok());
  ASSERT_TRUE((*mmu_->Lookup(as, 0x4000)).dirty);

  // Re-mapping the same frame is a protection change in place: the
  // accessed/modified bits must survive (TlbMmu's write-hit path depends on a
  // same-frame, non-downgrading re-map not wiping the dirty bit).
  ASSERT_EQ(mmu_->Map(as, 0x4000, 7, Prot::kAll), Status::kOk);
  MmuEntry entry = *mmu_->Lookup(as, 0x4000);
  EXPECT_TRUE(entry.referenced);
  EXPECT_TRUE(entry.dirty);

  // Installing a different frame is a fresh mapping: bits start clear.
  ASSERT_EQ(mmu_->Map(as, 0x4000, 8, Prot::kReadWrite), Status::kOk);
  entry = *mmu_->Lookup(as, 0x4000);
  EXPECT_FALSE(entry.referenced);
  EXPECT_FALSE(entry.dirty);
}

TEST_P(MmuTest, AddressSpaceIsolation) {
  AsId a = *mmu_->CreateAddressSpace();
  AsId b = *mmu_->CreateAddressSpace();
  ASSERT_EQ(mmu_->Map(a, 0x5000, 11, Prot::kRead), Status::kOk);
  EXPECT_TRUE(mmu_->Translate(a, 0x5000, Access::kRead).ok());
  EXPECT_EQ(mmu_->Translate(b, 0x5000, Access::kRead).status(), Status::kSegmentationFault);
}

TEST_P(MmuTest, DestroyAddressSpaceDropsMappings) {
  AsId as = *mmu_->CreateAddressSpace();
  ASSERT_EQ(mmu_->Map(as, 0x3000, 2, Prot::kRead), Status::kOk);
  ASSERT_EQ(mmu_->DestroyAddressSpace(as), Status::kOk);
  EXPECT_EQ(mmu_->Map(as, 0x3000, 2, Prot::kRead), Status::kNotFound);
  EXPECT_EQ(mmu_->DestroyAddressSpace(as), Status::kNotFound);
}

TEST_P(MmuTest, SparseHugeAddresses) {
  AsId as = *mmu_->CreateAddressSpace();
  // Map pages scattered over a 2^40 range: must work and stay cheap.
  for (uint64_t i = 0; i < 64; ++i) {
    Vaddr va = (i * 0x40000000ull) + 0x1000;
    ASSERT_EQ(mmu_->Map(as, va, static_cast<FrameIndex>(i), Prot::kRead), Status::kOk);
  }
  for (uint64_t i = 0; i < 64; ++i) {
    Vaddr va = (i * 0x40000000ull) + 0x1000;
    EXPECT_EQ(*mmu_->Translate(as, va, Access::kRead), i);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMmus, MmuTest,
    ::testing::Values(
        MmuPort{"SoftMmu",
                [](size_t page) -> std::unique_ptr<Mmu> {
                  return std::make_unique<SoftMmu>(page);
                }},
        MmuPort{"HashMmu",
                [](size_t page) -> std::unique_ptr<Mmu> {
                  return std::make_unique<HashMmu>(page);
                }}),
    [](const auto& info) { return info.param.name; });

TEST(SoftMmuTest, LeafTablesAreReclaimed) {
  SoftMmu mmu(kPage, /*leaf_bits=*/4);
  AsId as = *mmu.CreateAddressSpace();
  ASSERT_EQ(mmu.Map(as, 0x0000, 0, Prot::kRead), Status::kOk);
  ASSERT_EQ(mmu.Map(as, 0x100000, 1, Prot::kRead), Status::kOk);
  EXPECT_EQ(mmu.LeafTableCount(as), 2u);
  ASSERT_EQ(mmu.Unmap(as, 0x100000), Status::kOk);
  EXPECT_EQ(mmu.LeafTableCount(as), 1u);
}

// ---------------------------------------------------------------------------
// CPU access path
// ---------------------------------------------------------------------------

class CountingHandler : public FaultHandler {
 public:
  CountingHandler(Mmu& mmu, PhysicalMemory& mem) : mmu_(mmu), mem_(mem) {}

  Status HandleFault(const PageFault& fault) override {
    ++faults;
    if (fail_with != Status::kOk) {
      return fail_with;
    }
    auto frame = mem_.AllocateFrame();
    if (!frame.ok()) {
      return frame.status();
    }
    mem_.ZeroFrame(*frame);
    Vaddr page_va = fault.address & ~(mem_.page_size() - 1);
    return mmu_.Map(fault.address_space, page_va, *frame, Prot::kAll);
  }

  int faults = 0;
  Status fail_with = Status::kOk;

 private:
  Mmu& mmu_;
  PhysicalMemory& mem_;
};

TEST(CpuTest, DemandZeroThroughFaultHandler) {
  PhysicalMemory mem(8, kPage);
  SoftMmu mmu(kPage);
  Cpu cpu(mem, mmu);
  CountingHandler handler(mmu, mem);
  cpu.BindFaultHandler(&handler);
  AsId as = *mmu.CreateAddressSpace();

  uint32_t value = 0xdeadbeef;
  ASSERT_EQ(cpu.Write(as, 0x1000, &value, sizeof(value)), Status::kOk);
  EXPECT_EQ(handler.faults, 1);
  uint32_t back = 0;
  ASSERT_EQ(cpu.Read(as, 0x1000, &back, sizeof(back)), Status::kOk);
  EXPECT_EQ(back, value);
  EXPECT_EQ(handler.faults, 1);  // second access hits the installed mapping
}

TEST(CpuTest, AccessSpanningPages) {
  PhysicalMemory mem(8, kPage);
  SoftMmu mmu(kPage);
  Cpu cpu(mem, mmu);
  CountingHandler handler(mmu, mem);
  cpu.BindFaultHandler(&handler);
  AsId as = *mmu.CreateAddressSpace();

  std::vector<char> data(kPage * 2, 'x');
  ASSERT_EQ(cpu.Write(as, kPage / 2, data.data(), data.size()), Status::kOk);
  EXPECT_EQ(handler.faults, 3);  // touches three pages
  std::vector<char> back(data.size());
  ASSERT_EQ(cpu.Read(as, kPage / 2, back.data(), back.size()), Status::kOk);
  EXPECT_EQ(back, data);
}

TEST(CpuTest, UnrecoverableFaultSurfaces) {
  PhysicalMemory mem(2, kPage);
  SoftMmu mmu(kPage);
  Cpu cpu(mem, mmu);
  CountingHandler handler(mmu, mem);
  handler.fail_with = Status::kSegmentationFault;
  cpu.BindFaultHandler(&handler);
  AsId as = *mmu.CreateAddressSpace();
  char c = 0;
  EXPECT_EQ(cpu.Read(as, 0x9000, &c, 1), Status::kSegmentationFault);
}

TEST(CpuTest, TypedLoadStore) {
  PhysicalMemory mem(4, kPage);
  SoftMmu mmu(kPage);
  Cpu cpu(mem, mmu);
  CountingHandler handler(mmu, mem);
  cpu.BindFaultHandler(&handler);
  AsId as = *mmu.CreateAddressSpace();
  ASSERT_EQ(cpu.Store<uint64_t>(as, 0x4000, 0x0123456789abcdefull), Status::kOk);
  EXPECT_EQ(*cpu.Load<uint64_t>(as, 0x4000), 0x0123456789abcdefull);
}

}  // namespace
}  // namespace gvm
