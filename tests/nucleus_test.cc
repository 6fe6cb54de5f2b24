// Nucleus layer: IPC, mappers (both transports), segment manager with segment
// caching (section 5.1.3), the rgn* operations (5.1.4), and the transit-segment
// IPC data path (5.1.6).
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "src/hal/soft_mmu.h"
#include "src/nucleus/nucleus.h"
#include "src/pvm/paged_vm.h"

namespace gvm {
namespace {

constexpr size_t kPage = 4096;

TEST(IpcTest, SendReceiveFifo) {
  Ipc ipc;
  PortId port = ipc.PortCreate();
  for (int i = 0; i < 3; ++i) {
    Message m;
    m.operation = 100 + i;
    ASSERT_EQ(ipc.Send(port, std::move(m)), Status::kOk);
  }
  EXPECT_EQ(ipc.QueueDepth(port), 3u);
  for (int i = 0; i < 3; ++i) {
    Result<Message> m = ipc.Receive(port);
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(m->operation, 100u + i);
  }
}

TEST(IpcTest, MessageSizeLimit) {
  // "Messages are of limited size (64 Kbytes in the current implementation)."
  Ipc ipc;
  PortId port = ipc.PortCreate();
  Message m;
  m.data.resize(Message::kMaxBytes + 1);
  EXPECT_EQ(ipc.Send(port, std::move(m)), Status::kInvalidArgument);
  Message fits;
  fits.data.resize(Message::kMaxBytes);
  EXPECT_EQ(ipc.Send(port, std::move(fits)), Status::kOk);
}

TEST(IpcTest, SendToUnknownPortFails) {
  Ipc ipc;
  Message m;
  EXPECT_EQ(ipc.Send(12345, std::move(m)), Status::kNotFound);
}

TEST(IpcTest, CrossThreadReceive) {
  Ipc ipc;
  PortId port = ipc.PortCreate();
  std::thread receiver([&] {
    Result<Message> m = ipc.Receive(port);  // blocks until the send below
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(m->operation, 7u);
  });
  Message m;
  m.operation = 7;
  ASSERT_EQ(ipc.Send(port, std::move(m)), Status::kOk);
  receiver.join();
}

class NucleusTest : public ::testing::Test {
 protected:
  NucleusTest()
      : memory_(256, kPage),
        mmu_(kPage),
        vm_(memory_, mmu_),
        nucleus_(vm_),
        swap_(kPage),
        files_(kPage),
        swap_server_(nucleus_.ipc(), swap_),
        file_server_(nucleus_.ipc(), files_) {
    nucleus_.BindDefaultMapper(&swap_server_);
    nucleus_.RegisterMapper(&file_server_);
  }

  Capability FileCapability(const std::string& name, const std::string& contents) {
    auto key = files_.CreateFile(name, contents.data(), contents.size());
    EXPECT_TRUE(key.ok());
    return Capability{file_server_.port(), *key};
  }

  PhysicalMemory memory_;
  SoftMmu mmu_;
  PagedVm vm_;
  Nucleus nucleus_;
  SwapMapper swap_;
  FileMapper files_;
  MapperServer swap_server_;
  MapperServer file_server_;
};

TEST_F(NucleusTest, RgnAllocateGivesZeroFilledMemory) {
  Actor* actor = *nucleus_.ActorCreate("a");
  ASSERT_TRUE(actor->RgnAllocate(0x10000, 4 * kPage, Prot::kReadWrite).ok());
  uint64_t v = 1;
  ASSERT_EQ(actor->Read(0x10000 + kPage, &v, sizeof(v)), Status::kOk);
  EXPECT_EQ(v, 0u);
  v = 42;
  ASSERT_EQ(actor->Write(0x10000, &v, sizeof(v)), Status::kOk);
  uint64_t back = 0;
  ASSERT_EQ(actor->Read(0x10000, &back, sizeof(back)), Status::kOk);
  EXPECT_EQ(back, 42u);
  ASSERT_EQ(nucleus_.ActorDestroy(actor), Status::kOk);
}

TEST_F(NucleusTest, RgnMapReadsThroughFileMapper) {
  std::string contents(2 * kPage, 'f');
  contents[kPage] = 'G';
  Capability file = FileCapability("/bin/tool", contents);
  Actor* actor = *nucleus_.ActorCreate("a");
  ASSERT_TRUE(actor->RgnMap(0x400000, 2 * kPage, Prot::kReadExecute, file, 0).ok());
  char c = 0;
  ASSERT_EQ(actor->Read(0x400000 + kPage, &c, 1), Status::kOk);
  EXPECT_EQ(c, 'G');
  EXPECT_GE(files_.reads, 1);
  // The region is execute-protected but not writable.
  EXPECT_EQ(actor->Write(0x400000, &c, 1), Status::kProtectionFault);
}

TEST_F(NucleusTest, RgnMapSharesOneLocalCache) {
  // "a given segment may be mapped into any number of regions, allocated to any
  // number of contexts" — through ONE local cache (the segment manager's table).
  Capability file = FileCapability("/bin/shared", std::string(kPage, 's'));
  Actor* a = *nucleus_.ActorCreate("a");
  Actor* b = *nucleus_.ActorCreate("b");
  ASSERT_TRUE(a->RgnMap(0x400000, kPage, Prot::kRead, file, 0).ok());
  ASSERT_TRUE(b->RgnMap(0x800000, kPage, Prot::kRead, file, 0).ok());
  EXPECT_EQ(nucleus_.segment_manager().stats().caches_created, 1u);
  char c = 0;
  ASSERT_EQ(a->Read(0x400000, &c, 1), Status::kOk);
  EXPECT_EQ(c, 's');
  // b's read hits the shared cache: no extra mapper read.
  int reads_before = files_.reads;
  ASSERT_EQ(b->Read(0x800000, &c, 1), Status::kOk);
  EXPECT_EQ(files_.reads, reads_before);
}

TEST_F(NucleusTest, RgnInitIsACopyNotASharing) {
  std::string contents(kPage, 'o');
  Capability file = FileCapability("/data/base", contents);
  Actor* actor = *nucleus_.ActorCreate("a");
  ASSERT_TRUE(
      actor->RgnInit(0x500000, kPage, Prot::kReadWrite, file, 0, CopyPolicy::kHistory).ok());
  char c = 0;
  ASSERT_EQ(actor->Read(0x500000, &c, 1), Status::kOk);
  EXPECT_EQ(c, 'o');
  // Writing the region must not write the file.
  c = 'X';
  ASSERT_EQ(actor->Write(0x500000, &c, 1), Status::kOk);
  EXPECT_EQ(files_.writes, 0);
  ASSERT_EQ(actor->Read(0x500000, &c, 1), Status::kOk);
  EXPECT_EQ(c, 'X');
}

TEST_F(NucleusTest, SegmentCachingSpeedsReacquisition) {
  // Section 5.1.3: releasing a segment keeps its cache; re-acquiring hits it and
  // the data is still resident (no mapper traffic).
  Capability file = FileCapability("/bin/make", std::string(4 * kPage, 'm'));
  Actor* actor = *nucleus_.ActorCreate("a");
  Region* region = *actor->RgnMap(0x400000, 4 * kPage, Prot::kRead, file, 0);
  char c = 0;
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(actor->Read(0x400000 + i * kPage, &c, 1), Status::kOk);
  }
  int reads_after_first = files_.reads;
  ASSERT_EQ(actor->RgnFree(region), Status::kOk);
  EXPECT_EQ(nucleus_.segment_manager().CachedSegmentCount(), 1u);

  // "exec" again: remap and touch — all cache hits.
  ASSERT_TRUE(actor->RgnMap(0x400000, 4 * kPage, Prot::kRead, file, 0).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(actor->Read(0x400000 + i * kPage, &c, 1), Status::kOk);
  }
  EXPECT_EQ(files_.reads, reads_after_first);
  EXPECT_GE(nucleus_.segment_manager().stats().cache_hits, 1u);
}

TEST_F(NucleusTest, SegmentCachePoolIsBounded) {
  Nucleus::Options options;
  options.segment_manager.cache_capacity = 2;
  PhysicalMemory memory(256, kPage);
  SoftMmu mmu(kPage);
  PagedVm vm(memory, mmu);
  Nucleus nucleus(vm, options);
  SwapMapper swap(kPage);
  FileMapper files(kPage);
  MapperServer swap_server(nucleus.ipc(), swap);
  MapperServer file_server(nucleus.ipc(), files);
  nucleus.BindDefaultMapper(&swap_server);
  nucleus.RegisterMapper(&file_server);

  Actor* actor = *nucleus.ActorCreate("a");
  for (int i = 0; i < 5; ++i) {
    std::string name = "/f" + std::to_string(i);
    auto key = files.CreateFile(name, name.data(), name.size());
    Capability cap{file_server.port(), *key};
    Region* region = *actor->RgnMap(0x400000, kPage, Prot::kRead, cap, 0);
    ASSERT_EQ(actor->RgnFree(region), Status::kOk);
  }
  EXPECT_LE(nucleus.segment_manager().CachedSegmentCount(), 2u);
  EXPECT_GE(nucleus.segment_manager().stats().caches_discarded, 3u);
  EXPECT_EQ(nucleus.segment_manager().CheckInvariants(), Status::kOk);
}

TEST_F(NucleusTest, SegmentIndexesFollowAcquireReleaseChurn) {
  // Acquire, re-acquire (segment-cache hits), add references, release out of
  // order and evict: the keyed indexes and the LRU pool stay exact throughout.
  SegmentManager& segments = nucleus_.segment_manager();
  std::vector<Capability> files;
  for (int i = 0; i < 40; ++i) {
    files.push_back(FileCapability("/churn" + std::to_string(i), "x"));
  }
  std::vector<Cache*> held;
  for (size_t round = 0; round < 3; ++round) {
    // Overlapping windows: each round re-acquires part of the last one's files.
    for (size_t i = round * 10; i < round * 10 + 20; ++i) {
      held.push_back(*segments.AcquireCache(files[i]));
      if (i % 3 == 0) {
        segments.AddRef(held.back());
        held.push_back(held.back());
      }
    }
    Cache* temp = *segments.AcquireTemporaryCache("churn-temp");
    ASSERT_TRUE(segments.LocalCacheCapability(temp).ok());
    ASSERT_EQ(segments.CheckInvariants(), Status::kOk);
    segments.Release(temp);
    for (size_t i = round % 2; i < held.size(); i += 2) {
      segments.Release(held[i]);
    }
    for (size_t i = 1 - round % 2; i < held.size(); i += 2) {
      segments.Release(held[i]);
    }
    held.clear();
    ASSERT_EQ(segments.CheckInvariants(), Status::kOk);
  }
  EXPECT_GT(segments.stats().cache_hits, 0u);
  EXPECT_GT(segments.stats().caches_discarded, 0u);
  EXPECT_LE(segments.CachedSegmentCount(), 16u);
}

TEST_F(NucleusTest, SwapBackedPageoutThroughDefaultMapper) {
  // Small memory: anonymous pages must be pushed to swap segments allocated
  // lazily from the default mapper.
  PhysicalMemory memory(8, kPage);
  SoftMmu mmu(kPage);
  PagedVm::Options vm_options;
  vm_options.low_water_frames = 2;
  vm_options.high_water_frames = 3;
  PagedVm vm(memory, mmu, vm_options);
  Nucleus nucleus(vm);
  SwapMapper swap(kPage);
  MapperServer swap_server(nucleus.ipc(), swap);
  nucleus.BindDefaultMapper(&swap_server);

  Actor* actor = *nucleus.ActorCreate("a");
  ASSERT_TRUE(actor->RgnAllocate(0x10000, 12 * kPage, Prot::kReadWrite).ok());
  for (int i = 0; i < 12; ++i) {
    uint32_t v = 0xBEEF0000u + i;
    ASSERT_EQ(actor->Write(0x10000 + i * kPage, &v, sizeof(v)), Status::kOk);
  }
  EXPECT_GE(swap.SegmentCount(), 1u);
  EXPECT_GE(nucleus.segment_manager().stats().temp_segments, 1u);
  for (int i = 0; i < 12; ++i) {
    uint32_t v = 0;
    ASSERT_EQ(actor->Read(0x10000 + i * kPage, &v, sizeof(v)), Status::kOk);
    EXPECT_EQ(v, 0xBEEF0000u + i) << i;
  }
  EXPECT_EQ(nucleus.segment_manager().CheckInvariants(), Status::kOk);
}

TEST_F(NucleusTest, ForkRecipeFromActor) {
  // The section 5.1.5 fork recipe: share text, copy data.
  Capability text = FileCapability("/bin/sh", std::string(2 * kPage, 't'));
  Actor* parent = *nucleus_.ActorCreate("parent");
  ASSERT_TRUE(parent->RgnMap(0x400000, 2 * kPage, Prot::kReadExecute, text, 0).ok());
  ASSERT_TRUE(parent->RgnAllocate(0x600000, 2 * kPage, Prot::kReadWrite).ok());
  uint32_t v = 0x11;
  ASSERT_EQ(parent->Write(0x600000, &v, sizeof(v)), Status::kOk);

  Actor* child = *nucleus_.ActorCreate("child");
  ASSERT_TRUE(
      child->RgnMapFromActor(0x400000, 2 * kPage, Prot::kReadExecute, *parent, 0x400000)
          .ok());
  ASSERT_TRUE(child
                  ->RgnInitFromActor(0x600000, 2 * kPage, Prot::kReadWrite, *parent,
                                     0x600000, CopyPolicy::kHistory)
                  .ok());
  // Text is shared (one cache).
  char c = 0;
  ASSERT_EQ(child->Read(0x400000, &c, 1), Status::kOk);
  EXPECT_EQ(c, 't');
  // Data is copy-on-write.
  uint32_t got = 0;
  ASSERT_EQ(child->Read(0x600000, &got, sizeof(got)), Status::kOk);
  EXPECT_EQ(got, 0x11u);
  uint32_t child_value = 0x22;
  ASSERT_EQ(child->Write(0x600000, &child_value, sizeof(child_value)), Status::kOk);
  ASSERT_EQ(parent->Read(0x600000, &got, sizeof(got)), Status::kOk);
  EXPECT_EQ(got, 0x11u);
  ASSERT_EQ(nucleus_.ActorDestroy(child), Status::kOk);
  ASSERT_EQ(nucleus_.ActorDestroy(parent), Status::kOk);
  EXPECT_EQ(vm_.CheckInvariants(), Status::kOk);
}

TEST_F(NucleusTest, TransitSegmentIpcAlignedUsesDeferredCopyAndMove) {
  Actor* sender = *nucleus_.ActorCreate("send");
  Actor* receiver = *nucleus_.ActorCreate("recv");
  ASSERT_TRUE(sender->RgnAllocate(0x10000, 4 * kPage, Prot::kReadWrite).ok());
  ASSERT_TRUE(receiver->RgnAllocate(0x20000, 4 * kPage, Prot::kReadWrite).ok());
  std::vector<char> payload(2 * kPage, 'p');
  payload[kPage] = 'Q';
  ASSERT_EQ(sender->Write(0x10000, payload.data(), payload.size()), Status::kOk);

  PortId port = nucleus_.ipc().PortCreate();
  uint64_t moves_before = vm_.detail_stats().move_retargets;
  ASSERT_EQ(nucleus_.MsgSendFromRegion(*sender, port, 1, 0x10000, payload.size()),
            Status::kOk);
  Result<Message> m = nucleus_.MsgReceiveToRegion(*receiver, port, 0x20000, 4 * kPage);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->arg1, payload.size());

  std::vector<char> got(payload.size());
  ASSERT_EQ(receiver->Read(0x20000, got.data(), got.size()), Status::kOk);
  EXPECT_EQ(got, payload);
  // The receive used move semantics (page retargeting).
  EXPECT_GT(vm_.detail_stats().move_retargets, moves_before);
  // All transit slots free again.
  EXPECT_EQ(nucleus_.transit().FreeSlots(), 8u);
  EXPECT_EQ(vm_.CheckInvariants(), Status::kOk);
}

TEST_F(NucleusTest, TransitSegmentIpcUnalignedFallsBackToBcopy) {
  Actor* sender = *nucleus_.ActorCreate("send");
  Actor* receiver = *nucleus_.ActorCreate("recv");
  ASSERT_TRUE(sender->RgnAllocate(0x10000, kPage, Prot::kReadWrite).ok());
  ASSERT_TRUE(receiver->RgnAllocate(0x20000, kPage, Prot::kReadWrite).ok());
  const char payload[] = "short unaligned message";
  ASSERT_EQ(sender->Write(0x10000 + 100, payload, sizeof(payload)), Status::kOk);

  PortId port = nucleus_.ipc().PortCreate();
  ASSERT_EQ(nucleus_.MsgSendFromRegion(*sender, port, 2, 0x10000 + 100, sizeof(payload)),
            Status::kOk);
  Result<Message> m = nucleus_.MsgReceiveToRegion(*receiver, port, 0x20000 + 8, kPage - 8);
  ASSERT_TRUE(m.ok());
  char got[sizeof(payload)] = {};
  ASSERT_EQ(receiver->Read(0x20000 + 8, got, sizeof(got)), Status::kOk);
  EXPECT_STREQ(got, payload);
}

TEST_F(NucleusTest, IpcTransportModeServesMappersOverPorts) {
  // The fully message-based mapper transport with a served port (threaded).
  Nucleus::Options options;
  options.segment_manager.use_ipc_transport = true;
  PhysicalMemory memory(64, kPage);
  SoftMmu mmu(kPage);
  PagedVm vm(memory, mmu);
  Nucleus nucleus(vm, options);
  FileMapper files(kPage);
  MapperServer file_server(nucleus.ipc(), files);
  nucleus.RegisterMapper(&file_server);
  file_server.Start();

  std::string contents(kPage, 'T');
  auto key = files.CreateFile("/t", contents.data(), contents.size());
  Capability cap{file_server.port(), *key};
  Actor* actor = *nucleus.ActorCreate("a");
  ASSERT_TRUE(actor->RgnMap(0x400000, kPage, Prot::kRead, cap, 0).ok());
  char c = 0;
  ASSERT_EQ(actor->Read(0x400000, &c, 1), Status::kOk);
  EXPECT_EQ(c, 'T');
  EXPECT_GE(file_server.requests_served(), 1u);
  file_server.Stop();
}

TEST_F(NucleusTest, LocalCacheCapabilityRoundTrip) {
  Capability file = FileCapability("/cap", std::string(kPage, 'c'));
  Result<Cache*> cache = nucleus_.segment_manager().AcquireCache(file);
  ASSERT_TRUE(cache.ok());
  Result<Capability> local = nucleus_.segment_manager().LocalCacheCapability(*cache);
  ASSERT_TRUE(local.ok());
  Result<Cache*> resolved = nucleus_.segment_manager().ResolveLocalCache(*local);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(*resolved, *cache);
  // A forged capability does not resolve.
  Capability forged{local->port, local->key + 999};
  EXPECT_FALSE(nucleus_.segment_manager().ResolveLocalCache(forged).ok());
  nucleus_.segment_manager().Release(*cache);
}

}  // namespace
}  // namespace gvm
