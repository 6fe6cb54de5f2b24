// Chorus/MIX (section 5.1.5): Unix processes on the Nucleus — exec layout, real
// program execution through the simulated MMU, fork with copy-on-write, exec with
// segment caching, wait/exit.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/hal/soft_mmu.h"
#include "src/mix/process_manager.h"
#include "src/pvm/paged_vm.h"

namespace gvm {
namespace {

constexpr size_t kPage = 4096;

class MixTest : public ::testing::Test {
 protected:
  MixTest()
      : memory_(512, kPage),
        mmu_(kPage),
        vm_(memory_, mmu_),
        nucleus_(vm_),
        swap_(kPage),
        files_(kPage),
        swap_server_(nucleus_.ipc(), swap_),
        file_server_(nucleus_.ipc(), files_),
        pm_(nucleus_, files_, file_server_.port()) {
    nucleus_.BindDefaultMapper(&swap_server_);
    nucleus_.RegisterMapper(&file_server_);
  }

  PhysicalMemory memory_;
  SoftMmu mmu_;
  PagedVm vm_;
  Nucleus nucleus_;
  SwapMapper swap_;
  FileMapper files_;
  MapperServer swap_server_;
  MapperServer file_server_;
  ProcessManager pm_;
};

// A program that writes "hi" to the console and exits with status 7.
VmAssembler HelloProgram() {
  VmAssembler assembler;
  // Store 'h','i' into the data segment, then write(dataBase, 2) and exit(7).
  assembler.Li32(2, static_cast<uint32_t>(ProcessLayout::kDataBase));
  assembler.Emit(VmOp::kLi, 3, 0, 'h');
  assembler.Emit(VmOp::kStb, 3, 2, 0);
  assembler.Emit(VmOp::kLi, 3, 0, 'i');
  assembler.Emit(VmOp::kStb, 3, 2, 1);
  assembler.Emit(VmOp::kMov, 0, 2);       // r0 = buffer
  assembler.Emit(VmOp::kLi, 1, 0, 2);     // r1 = len
  assembler.Emit(VmOp::kSys, 0, 0, static_cast<int16_t>(VmSys::kWrite));
  assembler.Emit(VmOp::kLi, 0, 0, 7);
  assembler.Emit(VmOp::kSys, 0, 0, static_cast<int16_t>(VmSys::kExit));
  return assembler;
}

TEST_F(MixTest, SpawnRunsAProgramToCompletion) {
  ASSERT_EQ(pm_.InstallProgram("/bin/hello", HelloProgram(), {}, kPage, 4 * kPage),
            Status::kOk);
  Result<Pid> pid = pm_.Spawn("/bin/hello");
  ASSERT_TRUE(pid.ok());
  Result<VmStop> stop = pm_.Run(*pid, 1000);
  ASSERT_TRUE(stop.ok());
  EXPECT_EQ(*stop, VmStop::kHalted);
  Process* proc = pm_.Find(*pid);
  ASSERT_NE(proc, nullptr);
  EXPECT_EQ(proc->console, "hi");
  EXPECT_EQ(proc->vm.exit_status, 7);
  EXPECT_EQ(proc->state, ProcState::kZombie);
  // The program really paged its text in from the file mapper.
  EXPECT_GE(files_.reads, 1);
}

TEST_F(MixTest, InitializedDataSegment) {
  // A program reading its initialized data: data[0..7] preloaded with 0x0123...,
  // program loads it and exits with (value & 0x7fff).
  std::vector<std::byte> data(16);
  uint64_t magic = 0x1122334455667788ull;
  std::memcpy(data.data(), &magic, sizeof(magic));
  VmAssembler assembler;
  assembler.Li32(2, static_cast<uint32_t>(ProcessLayout::kDataBase));
  assembler.Emit(VmOp::kLd, 0, 2, 0);  // r0 = data[0]
  // exit(r0 & 0xff) -- mask by storing byte and reloading.
  assembler.Emit(VmOp::kStb, 0, 2, 8);
  assembler.Emit(VmOp::kLdb, 0, 2, 8);
  assembler.Emit(VmOp::kSys, 0, 0, static_cast<int16_t>(VmSys::kExit));
  ASSERT_EQ(pm_.InstallProgram("/bin/data", assembler, data, kPage, kPage), Status::kOk);
  Pid pid = *pm_.Spawn("/bin/data");
  ASSERT_TRUE(pm_.Run(pid, 100).ok());
  EXPECT_EQ(pm_.Find(pid)->vm.exit_status, 0x88);
}

// A program that forks: the child writes 'C' into data[0] and exits with the
// value it read back; the parent waits... (no wait syscall: parent just reads
// data[0] after, exits with it) — demonstrating fork + COW isolation in-VM.
VmAssembler ForkProgram() {
  VmAssembler a;
  a.Li32(2, static_cast<uint32_t>(ProcessLayout::kDataBase));
  a.Emit(VmOp::kLi, 3, 0, 'P');
  a.Emit(VmOp::kStb, 3, 2, 0);                                  // data[0] = 'P'
  a.Emit(VmOp::kSys, 0, 0, static_cast<int16_t>(VmSys::kFork)); // r0 = child? pid : 0
  size_t branch = a.Here();
  a.Emit(VmOp::kBnez, 0, 0, 0);  // parent jumps ahead (patched)
  // Child path: overwrite data[0] with 'C', exit(data[0]).
  a.Emit(VmOp::kLi, 3, 0, 'C');
  a.Emit(VmOp::kStb, 3, 2, 0);
  a.Emit(VmOp::kLdb, 0, 2, 0);
  a.Emit(VmOp::kSys, 0, 0, static_cast<int16_t>(VmSys::kExit));
  // Parent path: spin a little (sheduler fairness), then exit(data[0]).
  size_t parent = a.Here();
  a.Emit(VmOp::kLi, 4, 0, 50);
  size_t loop = a.Here();
  a.Emit(VmOp::kAddi, 4, 0, -1);
  size_t back = a.Here();
  a.Emit(VmOp::kBnez, 4, 0, 0);
  a.PatchBranch(back, loop);
  a.Emit(VmOp::kLdb, 0, 2, 0);
  a.Emit(VmOp::kSys, 0, 0, static_cast<int16_t>(VmSys::kExit));
  a.PatchBranch(branch, parent);
  return a;
}

TEST_F(MixTest, ForkGivesChildACopyOnWriteImage) {
  ASSERT_EQ(pm_.InstallProgram("/bin/forker", ForkProgram(), {}, kPage, 4 * kPage),
            Status::kOk);
  Pid root = *pm_.Spawn("/bin/forker");
  pm_.RunAll(100, 100000);
  // Both processes exited; the child saw its own 'C', the parent kept 'P'.
  Process* parent = pm_.Find(root);
  ASSERT_NE(parent, nullptr);
  EXPECT_EQ(parent->state, ProcState::kZombie);
  EXPECT_EQ(parent->vm.exit_status, 'P');
  Result<std::pair<Pid, int>> reaped = pm_.Wait(root);
  ASSERT_TRUE(reaped.ok());
  EXPECT_EQ(reaped->second, 'C');
  EXPECT_GE(vm_.stats().cow_copies, 1u);  // the fork really was deferred
  EXPECT_EQ(vm_.CheckInvariants(), Status::kOk);
}

TEST_F(MixTest, ForkSharesTextThroughOneCache) {
  ASSERT_EQ(pm_.InstallProgram("/bin/forker", ForkProgram(), {}, kPage, 4 * kPage),
            Status::kOk);
  Pid root = *pm_.Spawn("/bin/forker");
  ASSERT_TRUE(pm_.Run(root, 10).ok());  // run up to the fork
  int reads_before_fork = files_.reads;
  Result<Pid> child = pm_.Fork(root);
  ASSERT_TRUE(child.ok());
  // Child executes: instruction fetches hit the shared text cache — no new
  // mapper reads for text.
  ASSERT_TRUE(pm_.Run(*child, 5).ok());
  EXPECT_EQ(files_.reads, reads_before_fork);
}

TEST_F(MixTest, ExecReplacesTheImage) {
  ASSERT_EQ(pm_.InstallProgram("/bin/hello", HelloProgram(), {}, kPage, 4 * kPage),
            Status::kOk);
  VmAssembler exiter;
  exiter.Emit(VmOp::kLi, 0, 0, 3);
  exiter.Emit(VmOp::kSys, 0, 0, static_cast<int16_t>(VmSys::kExit));
  ASSERT_EQ(pm_.InstallProgram("/bin/exiter", exiter, {}, kPage, kPage), Status::kOk);

  Pid pid = *pm_.Spawn("/bin/exiter");
  ASSERT_EQ(pm_.Exec(pid, "/bin/hello"), Status::kOk);
  ASSERT_TRUE(pm_.Run(pid, 1000).ok());
  EXPECT_EQ(pm_.Find(pid)->console, "hi");
  EXPECT_EQ(pm_.Find(pid)->vm.exit_status, 7);
}

TEST_F(MixTest, RepeatedExecHitsTheSegmentCache) {
  // Section 5.1.3: "This segment caching strategy has a very significant impact on
  // the performance of program loading (Unix exec) when the same programs are
  // loaded frequently, such as occurs during a large make."
  ASSERT_EQ(pm_.InstallProgram("/bin/cc", HelloProgram(), {}, kPage, kPage), Status::kOk);
  // First run: cold.
  Pid first = *pm_.Spawn("/bin/cc");
  ASSERT_TRUE(pm_.Run(first, 1000).ok());
  int cold_reads = files_.reads;
  ASSERT_TRUE(pm_.Wait(0).ok() || true);
  // Nine more runs of the same program: text pull-ins all hit the kept cache.
  for (int i = 0; i < 9; ++i) {
    Pid pid = *pm_.Spawn("/bin/cc");
    ASSERT_TRUE(pm_.Run(pid, 1000).ok());
  }
  // Only the per-exec header reads (cache hits too) — no repeated text reads.
  EXPECT_EQ(files_.reads, cold_reads);
  EXPECT_GE(nucleus_.segment_manager().stats().cache_hits, 9u);
  EXPECT_EQ(nucleus_.segment_manager().CheckInvariants(), Status::kOk);
}

TEST_F(MixTest, SbrkGrowsWithinReserve) {
  VmAssembler a;
  a.Emit(VmOp::kLi, 0, 0, 64);
  a.Emit(VmOp::kSys, 0, 0, static_cast<int16_t>(VmSys::kSbrk));  // r0 = old brk
  a.Emit(VmOp::kMov, 2, 0);
  a.Emit(VmOp::kLi, 3, 0, 99);
  a.Emit(VmOp::kStb, 3, 2, 0);  // *old_brk = 99
  a.Emit(VmOp::kLdb, 0, 2, 0);
  a.Emit(VmOp::kSys, 0, 0, static_cast<int16_t>(VmSys::kExit));
  ASSERT_EQ(pm_.InstallProgram("/bin/sbrk", a, {}, 4 * kPage, kPage), Status::kOk);
  Pid pid = *pm_.Spawn("/bin/sbrk");
  ASSERT_TRUE(pm_.Run(pid, 100).ok());
  EXPECT_EQ(pm_.Find(pid)->vm.exit_status, 99);
}

TEST_F(MixTest, SegfaultTurnsIntoExit) {
  VmAssembler a;
  a.Li32(2, 0x00000044);  // unmapped low address
  a.Emit(VmOp::kLd, 0, 2, 0);
  a.Emit(VmOp::kSys, 0, 0, static_cast<int16_t>(VmSys::kExit));
  ASSERT_EQ(pm_.InstallProgram("/bin/crash", a, {}, kPage, kPage), Status::kOk);
  Pid pid = *pm_.Spawn("/bin/crash");
  pm_.RunAll(100, 1000);
  EXPECT_EQ(pm_.Find(pid)->state, ProcState::kZombie);
  EXPECT_EQ(pm_.Find(pid)->vm.exit_status, -11);
}

TEST_F(MixTest, ForkStormMemoryIsReclaimed) {
  // A shell-like loop: fork, child exits, parent continues — ten generations.
  ASSERT_EQ(pm_.InstallProgram("/bin/sh", HelloProgram(), {}, kPage, 2 * kPage), Status::kOk);
  Pid shell = *pm_.Spawn("/bin/sh");
  // Touch the data/stack so the fork has resident pages to defer.
  Process* proc = pm_.Find(shell);
  uint32_t v = 42;
  ASSERT_EQ(proc->actor->Write(ProcessLayout::kDataBase, &v, sizeof(v)), Status::kOk);

  size_t frames_baseline = memory_.used_frames();
  for (int i = 0; i < 10; ++i) {
    Result<Pid> child = pm_.Fork(shell);
    ASSERT_TRUE(child.ok());
    // The child writes one page, then exits.
    Process* child_proc = pm_.Find(*child);
    uint32_t w = i;
    ASSERT_EQ(child_proc->actor->Write(ProcessLayout::kDataBase, &w, sizeof(w)), Status::kOk);
    ASSERT_EQ(pm_.Exit(*child, 0), Status::kOk);
    ASSERT_TRUE(pm_.Wait(shell).ok());
  }
  // Memory does not accumulate across generations (the paper's anti-shadow-chain
  // argument): within a small bound of the baseline.
  EXPECT_LE(memory_.used_frames(), frames_baseline + 4);
  EXPECT_EQ(vm_.CheckInvariants(), Status::kOk);
  EXPECT_EQ(nucleus_.segment_manager().CheckInvariants(), Status::kOk);
}

// The PVM work of one fork/exec/exit/wait job, as detail-counter deltas.
struct JobWork {
  uint64_t link_visits = 0;
  uint64_t reaped = 0;
  uint64_t collapsed = 0;
  bool operator==(const JobWork&) const = default;
};

TEST_F(MixTest, JobWorkIgnoresUnrelatedLiveCaches) {
  // The caches a job's copy setup and teardown visit follow the job's own
  // history tree, however many unrelated caches are alive (DESIGN.md §17).
  ASSERT_EQ(pm_.InstallProgram("/bin/sh", HelloProgram(), {}, kPage, 2 * kPage), Status::kOk);
  ASSERT_EQ(pm_.InstallProgram("/bin/cc", HelloProgram(), {}, kPage, kPage), Status::kOk);
  Pid shell = *pm_.Spawn("/bin/sh");
  uint32_t v = 42;
  ASSERT_EQ(pm_.Find(shell)->actor->Write(ProcessLayout::kDataBase, &v, sizeof(v)),
            Status::kOk);
  auto run_job = [&] {
    const PvmDetailStats before = vm_.detail_stats();
    Result<Pid> child = pm_.Fork(shell);
    EXPECT_TRUE(child.ok());
    EXPECT_EQ(pm_.Exec(*child, "/bin/cc"), Status::kOk);
    EXPECT_TRUE(pm_.Run(*child, 1000).ok());
    EXPECT_TRUE(pm_.Wait(shell).ok());
    const PvmDetailStats after = vm_.detail_stats();
    return JobWork{after.reverse_link_visits - before.reverse_link_visits,
                   after.caches_reaped - before.caches_reaped,
                   after.caches_collapsed - before.caches_collapsed};
  };
  auto add_unrelated = [&](size_t n) {
    for (size_t i = 0; i < n; ++i) {
      Cache* cache = *vm_.CacheCreate(nullptr, "unrelated");
      Cache* source = *vm_.CacheCreate(nullptr, "unrelated-src");
      EXPECT_EQ(source->CopyTo(*cache, 0, 0, 4 * kPage, CopyPolicy::kHistory), Status::kOk);
    }
  };
  (void)run_job();  // warm the segment cache
  add_unrelated(1);
  const JobWork few = run_job();
  add_unrelated(1000);
  const JobWork many = run_job();
  EXPECT_GT(few.link_visits, 0u);
  EXPECT_GT(few.reaped, 0u);
  EXPECT_EQ(few, many);
  EXPECT_EQ(vm_.CheckInvariants(), Status::kOk);
  EXPECT_EQ(nucleus_.segment_manager().CheckInvariants(), Status::kOk);
}

}  // namespace
}  // namespace gvm
