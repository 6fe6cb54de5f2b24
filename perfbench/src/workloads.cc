#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <memory>
#include <thread>

#include "src/hal/phys_memory.h"
#include "src/hal/soft_mmu.h"
#include "src/mix/process_manager.h"
#include "src/nucleus/journal_mapper.h"
#include "src/nucleus/nucleus.h"
#include "src/pvm/paged_vm.h"
#include "src/util/rng.h"

namespace perfbench {
namespace {

using gvm::Actor;
using gvm::Cache;
using gvm::Capability;
using gvm::Context;
using gvm::CopyPolicy;
using gvm::FileMapper;
using gvm::JournaledSwapMapper;
using gvm::JournalStore;
using gvm::Mapper;
using gvm::MapperServer;
using gvm::Nucleus;
using gvm::PagedVm;
using gvm::PhysicalMemory;
using gvm::Pid;
using gvm::ProcessLayout;
using gvm::ProcessManager;
using gvm::Prot;
using gvm::Region;
using gvm::Rng;
using gvm::SegmentManager;
using gvm::SoftMmu;
using gvm::Status;
using gvm::Vaddr;
using gvm::VmAssembler;
using gvm::VmOp;
using gvm::VmStop;
using gvm::VmSys;

constexpr size_t kPage = 4096;
constexpr size_t kSpanCapacity = size_t{1} << 22;  // per thread, traced rounds only

double SecondsSince(uint64_t start_ns) { return static_cast<double>(NowNs() - start_ns) / 1e9; }

// CPU time of the calling thread, which leaves out time a hypervisor took the
// CPU away (steal).
double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// Page faults the calling thread has taken from the host kernel.
uint64_t ThreadHostFaults() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return static_cast<uint64_t>(usage.ru_minflt + usage.ru_majflt);
}

uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  return x ^ (x >> 33);
}

// ---------------------------------------------------------------------------
// Worlds
// ---------------------------------------------------------------------------

// Every workload runs with the TLB on, transparent huge pages on and the paging
// daemon off: reclaim runs synchronously in the faulting client, so eviction
// does not depend on thread timing.
PagedVm::Options BaseOptions() {
  PagedVm::Options options;
  options.enable_tlb = true;
  options.transparent_huge = true;
  options.pageout_daemon = false;
  return options;
}

// Physical memory, MMU and manager.  Traced worlds put a TimingMmu between the
// manager's TLB and the MMU, and a TimingFaultHandler in front of the manager.
// `huge_pages` is the MMU's second granule in base pages (0 = its default,
// 512 KiB).
struct VmWorld {
  VmWorld(size_t frames, const PagedVm::Options& opts, bool traced, size_t huge_pages = 0)
      : options(opts),
        memory(std::make_unique<PhysicalMemory>(frames, kPage)),
        soft_mmu(std::make_unique<SoftMmu>(kPage, 10, huge_pages)) {
    gvm::Mmu* mmu = soft_mmu.get();
    if (traced) {
      timing_mmu = std::make_unique<TimingMmu>(*soft_mmu);
      mmu = timing_mmu.get();
    }
    vm = std::make_unique<PagedVm>(*memory, *mmu, options);
    if (traced) {
      timing_faults = std::make_unique<TimingFaultHandler>(*vm);
      vm->cpu().BindFaultHandler(timing_faults.get());
    }
  }

  void RecordConfig(Config& config) const {
    config["page_size"] = std::to_string(kPage);
    config["frames"] = std::to_string(memory->frame_count());
    config["tlb"] = vm->tlb().enabled() ? "on" : "off";
    config["transparent_huge"] =
        options.transparent_huge && vm->mmu().huge_page_size() > kPage ? "on" : "off";
    config["huge_page_size"] = std::to_string(vm->mmu().huge_page_size());
    config["pageout_daemon"] = options.pageout_daemon ? "on" : "off";
    config["pullin_cluster_pages"] = std::to_string(options.pullin_cluster_pages);
    config["working_set_limit_pages"] = std::to_string(options.working_set_limit_pages);
    config["low_water_frames"] = std::to_string(options.low_water_frames);
    config["high_water_frames"] = std::to_string(options.high_water_frames);
  }

  // The decorator's counts cover the world's whole life; the round reports
  // them over the timed window only.
  void MarkWindowStart() {
    if (timing_mmu != nullptr) {
      for (size_t m = 0; m < static_cast<size_t>(MmuMethod::kCount); ++m) {
        mmu_calls_at_start[m] = timing_mmu->calls(static_cast<MmuMethod>(m));
      }
    }
  }
  void CollectTrace(RoundResult& r) const {
    if (timing_mmu != nullptr) {
      for (size_t m = 0; m < static_cast<size_t>(MmuMethod::kCount); ++m) {
        r.mmu_calls[m] = timing_mmu->calls(static_cast<MmuMethod>(m)) - mmu_calls_at_start[m];
      }
    }
  }

  PagedVm::Options options;
  std::unique_ptr<PhysicalMemory> memory;
  std::unique_ptr<SoftMmu> soft_mmu;
  std::unique_ptr<TimingMmu> timing_mmu;
  std::unique_ptr<PagedVm> vm;
  std::unique_ptr<TimingFaultHandler> timing_faults;
  uint64_t mmu_calls_at_start[static_cast<size_t>(MmuMethod::kCount)] = {};
};

// A mapper behind its server, optionally behind a TimingMapper.
struct ServedMapper {
  ServedMapper(gvm::Ipc& ipc, Mapper& mapper, bool traced) {
    Mapper* served = &mapper;
    if (traced) {
      timing = std::make_unique<TimingMapper>(mapper);
      served = timing.get();
    }
    server = std::make_unique<MapperServer>(ipc, *served);
  }
  uint64_t total_bytes() const {
    return timing == nullptr ? 0 : timing->read_bytes() + timing->write_bytes();
  }
  void MarkWindowStart() { bytes_at_start = total_bytes(); }
  // Payload bytes since MarkWindowStart().
  uint64_t bytes() const { return total_bytes() - bytes_at_start; }

  std::unique_ptr<TimingMapper> timing;
  std::unique_ptr<MapperServer> server;
  uint64_t bytes_at_start = 0;
};

Counters Snapshot(PagedVm& vm, const SegmentManager* segments, const JournalStore* journal) {
  Counters c;
  const gvm::MmStats mm = vm.stats();
  c["mm.page_faults"] = mm.page_faults;
  c["mm.protection_faults"] = mm.protection_faults;
  c["mm.cow_copies"] = mm.cow_copies;
  c["mm.zero_fills"] = mm.zero_fills;
  c["mm.pull_ins"] = mm.pull_ins;
  c["mm.push_outs"] = mm.push_outs;
  c["mm.pages_paged_out"] = mm.pages_paged_out;
  c["mm.history_objects"] = mm.history_objects;
  c["mm.deferred_copy_pages"] = mm.deferred_copy_pages;
  c["mm.eager_copy_pages"] = mm.eager_copy_pages;
  const gvm::PvmDetailStats d = vm.detail_stats();
  c["pvm.history_pushes"] = d.history_pushes;
  c["pvm.per_page_stubs"] = d.per_page_stubs;
  c["pvm.caches_collapsed"] = d.caches_collapsed;
  c["pvm.caches_reaped"] = d.caches_reaped;
  c["pvm.pullin_clustered"] = d.pullin_clustered;
  c["pvm.soft_faults"] = d.soft_faults;
  c["pvm.standby_hits"] = d.standby_hits;
  c["pvm.ws_trims"] = d.ws_trims;
  c["pvm.sweeps_started"] = d.sweeps_started;
  c["pvm.batch_pushes"] = d.batch_pushes;
  c["pvm.batch_push_pages"] = d.batch_push_pages;
  c["pvm.promotions"] = d.promotions;
  c["pvm.demotions"] = d.demotions;
  c["pvm.demote_cow"] = d.demote_cow;
  c["pvm.demote_pageout"] = d.demote_pageout;
  const gvm::Cpu::Stats cpu = vm.cpu().SnapshotStats();
  c["cpu.reads"] = cpu.reads;
  c["cpu.writes"] = cpu.writes;
  c["cpu.faults_taken"] = cpu.faults_taken;
  c["tlb.hits"] = cpu.tlb_hits;
  c["tlb.misses"] = cpu.tlb_misses;
  c["tlb.huge_hits"] = cpu.tlb_huge_hits;
  c["tlb.shootdowns"] = cpu.tlb_shootdowns;
  c["tlb.shootdown_pages"] = cpu.tlb_shootdown_pages;
  const PhysicalMemory::Stats frames = vm.memory().stats();
  c["frames.allocations"] = frames.allocations;
  c["frames.frees"] = frames.frees;
  c["frames.zero_fills"] = frames.zero_fills;
  c["frames.copies"] = frames.frame_copies;
  c["frames.magazine_hits"] = frames.magazine_hits;
  c["frames.magazine_refills"] = frames.magazine_refills;
  c["frames.magazine_steals"] = frames.magazine_steals;
  c["frames.run_allocations"] = frames.run_allocations;
  if (segments != nullptr) {
    const SegmentManager::Stats s = segments->stats();
    c["segments.lookups"] = s.lookups;
    c["segments.cache_hits"] = s.cache_hits;
    c["segments.caches_created"] = s.caches_created;
    c["segments.mapper_reads"] = s.mapper_reads;
    c["segments.mapper_writes"] = s.mapper_writes;
    c["segments.temp_segments"] = s.temp_segments;
  }
  if (journal != nullptr) {
    c["journal.bytes"] = journal->JournalBytes();
  }
  return c;
}

Counters Delta(const Counters& after, const Counters& before) {
  Counters d;
  for (const auto& [key, value] : after) {
    auto it = before.find(key);
    d[key] = value - (it == before.end() ? 0 : it->second);
  }
  return d;
}

void Fail(RoundResult& r, const std::string& what) {
  ++r.failed;
  if (r.first_error.empty()) {
    r.first_error = what;
  }
}

// The timed window of a single-client workload: `ops` calls of op(i), each
// timed on its own; frames in use sampled at every op boundary.  op(i)
// returns an empty string on success, else what went wrong.
template <typename Op>
void RunTimed(RoundResult& r, uint64_t ops, const VmWorld& world, bool traced, Op&& op) {
  std::unique_ptr<SpanBuffer> buffer;
  if (traced) {
    buffer = std::make_unique<SpanBuffer>(kSpanCapacity);
    buffer->Arm();
  }
  r.lat_ns.resize(ops);
  uint64_t peak = 0;
  const uint64_t start = NowNs();
  const double cpu_start = ThreadCpuSeconds();
  const uint64_t faults_start = ThreadHostFaults();
  for (uint64_t i = 0; i < ops; ++i) {
    const uint64_t t0 = NowNs();
    std::string error;
    {
      if (buffer != nullptr) {
        buffer->SetOp(static_cast<uint32_t>(i));
      }
      ScopedSpan span(SpanKind::kOp);
      error = op(i);
    }
    r.lat_ns[i] = NowNs() - t0;
    peak = std::max<uint64_t>(peak, world.memory->used_frames());
    if (!error.empty()) {
      Fail(r, error);
    }
  }
  r.timed_cpu_s = ThreadCpuSeconds() - cpu_start;
  r.host_faults = ThreadHostFaults() - faults_start;
  r.timed_s = SecondsSince(start);
  r.ops = ops;
  r.sim_frames_peak = peak;
  if (buffer != nullptr) {
    SpanBuffer::Disarm();
    r.spans_dropped = buffer->dropped();
    r.spans.push_back(buffer->spans());
  }
}

// ---------------------------------------------------------------------------
// make: a fork/exec build storm through the MIX process manager
// ---------------------------------------------------------------------------

constexpr int kPrograms = 24;          // more programs than the segment cache keeps
constexpr size_t kSegmentCache = 16;   // SegmentManager::Options::cache_capacity
constexpr int kShellDataPages = 6;
constexpr uint64_t kMakeWarmupJobs = 3000;
constexpr uint64_t kMakeJobs = 10000;
constexpr uint64_t kRunBudget = 10000;  // instructions; every program halts well before
constexpr size_t kMessageOffset = 64;   // console text lives in data page 0
constexpr size_t kMessageBytes = 8;

int ProgramTextPages(int i) { return 1 + i % 3; }
int ProgramDataPages(int i) { return 1 + i % 4; }
int64_t ProgramWord(int i, int page) { return (i + 1) * 100 + page + 1; }
int64_t ShellWord(int page) { return 5000 + page; }  // written by the shell after spawn

std::string ProgramPath(int i) { return "/bin/p" + std::to_string(i); }
std::string ProgramMessage(int i) {
  char text[kMessageBytes + 1];
  std::snprintf(text, sizeof(text), "job:p%02d\n", i);
  return std::string(text, kMessageBytes);
}
const std::string kShellMessage = "job:sh!\n";
// The shell's job counter: a word of its data segment that no program reads.
constexpr Vaddr kJobCounterVa = ProcessLayout::kDataBase + kPage + 8;

// Pads to the next text page and jumps there, so the next instructions fault
// in one more text page.
void NextTextPage(VmAssembler& a) {
  const size_t words_per_page = kPage / 4;
  const size_t jump = a.Here();
  a.Emit(VmOp::kJmp);
  const size_t target = (jump / words_per_page + 1) * words_per_page;
  while (a.Here() < target) {
    a.Emit(VmOp::kHalt);
  }
  a.PatchBranch(jump, target);
}

void EmitConsoleWrite(VmAssembler& a) {
  a.Li32(0, static_cast<uint32_t>(ProcessLayout::kDataBase + kMessageOffset));
  a.Emit(VmOp::kLi, 1, 0, static_cast<int16_t>(kMessageBytes));
  a.Emit(VmOp::kSys, 0, 0, static_cast<int16_t>(VmSys::kWrite));
}

// Program i: sums one word of each initialized data page, stores the sum in
// the demand-zero tail page and on the stack, reads it back, writes its
// message to the console and halts with the sum in r0.  Its text is spread
// over ProgramTextPages(i) pages, each of which it executes.
VmAssembler ProgramText(int i) {
  const int text_pages = ProgramTextPages(i);
  const int data_pages = ProgramDataPages(i);
  VmAssembler a;
  a.Li32(2, static_cast<uint32_t>(ProcessLayout::kDataBase));
  a.Emit(VmOp::kLi, 6, 0, 0);
  for (int p = 0; p < data_pages; ++p) {
    a.Emit(VmOp::kLd, 5, 2, static_cast<int16_t>(p * kPage));
    a.Emit(VmOp::kAdd, 6, 5);
  }
  if (text_pages >= 2) {
    NextTextPage(a);
  }
  a.Emit(VmOp::kSt, 6, 2, static_cast<int16_t>(data_pages * kPage));
  a.Emit(VmOp::kLd, 7, 2, static_cast<int16_t>(data_pages * kPage));
  a.Emit(VmOp::kSt, 7, 15, -8);
  a.Emit(VmOp::kLd, 6, 15, -8);
  if (text_pages >= 3) {
    NextTextPage(a);
  }
  EmitConsoleWrite(a);
  a.Emit(VmOp::kMov, 0, 6);
  a.Emit(VmOp::kHalt);
  return a;
}

int64_t ProgramStatus(int i) {
  int64_t sum = 0;
  for (int p = 0; p < ProgramDataPages(i); ++p) {
    sum += ProgramWord(i, p);
  }
  return sum;
}

// The shell body a subshell runs: sums one word of every inherited data page,
// increments every other one (a COW write into the page the shell dirtied),
// writes the shell message and halts with the sum.
VmAssembler ShellText() {
  VmAssembler a;
  a.Li32(2, static_cast<uint32_t>(ProcessLayout::kDataBase));
  a.Emit(VmOp::kLi, 6, 0, 0);
  for (int p = 0; p < kShellDataPages; ++p) {
    a.Emit(VmOp::kLd, 5, 2, static_cast<int16_t>(p * kPage));
    a.Emit(VmOp::kAdd, 6, 5);
    if (p % 2 == 0) {
      a.Emit(VmOp::kAddi, 5, 0, 1);
      a.Emit(VmOp::kSt, 5, 2, static_cast<int16_t>(p * kPage));
    }
  }
  EmitConsoleWrite(a);
  a.Emit(VmOp::kMov, 0, 6);
  a.Emit(VmOp::kHalt);
  return a;
}

int64_t ShellStatus() {
  int64_t sum = 0;
  for (int p = 0; p < kShellDataPages; ++p) {
    sum += ShellWord(p);
  }
  return sum;
}

// An initialized data image: word 0 of page p is word(p); the console message
// follows in page 0.
template <typename Word>
std::vector<std::byte> DataImage(int pages, const std::string& message, Word word) {
  std::vector<std::byte> data(static_cast<size_t>(pages) * kPage);
  for (int p = 0; p < pages; ++p) {
    const int64_t value = word(p);
    std::memcpy(data.data() + static_cast<size_t>(p) * kPage, &value, sizeof(value));
  }
  std::memcpy(data.data() + kMessageOffset, message.data(), message.size());
  return data;
}

struct MakeWorld {
  MakeWorld(bool traced, uint64_t seed)
      : vm(4096, BaseOptions(), traced),
        nucleus(*vm.vm, NucleusOptions()),
        swap(kPage),
        files(kPage),
        swap_server(nucleus.ipc(), swap, traced),
        file_server(nucleus.ipc(), files, traced),
        pm(nucleus, files, file_server.server->port()),
        rng(Mix64(seed) + 1) {
    nucleus.BindDefaultMapper(swap_server.server.get());
    nucleus.RegisterMapper(file_server.server.get());
    // Skewed (1/rank) popularity over the programs.
    double total = 0;
    for (int i = 0; i < kPrograms; ++i) {
      total += 1.0 / (i + 1);
      cdf.push_back(total);
    }
    for (double& c : cdf) {
      c /= total;
    }
  }

  static Nucleus::Options NucleusOptions() {
    Nucleus::Options options;
    options.segment_manager.cache_capacity = kSegmentCache;
    options.segment_manager.use_ipc_transport = false;
    return options;
  }

  Status Install() {
    for (int i = 0; i < kPrograms; ++i) {
      const int data_pages = ProgramDataPages(i);
      GVM_RETURN_IF_ERROR(pm.InstallProgram(
          ProgramPath(i), ProgramText(i),
          DataImage(data_pages, ProgramMessage(i), [i](int p) { return ProgramWord(i, p); }),
          (data_pages + 1) * kPage, 2 * kPage));
    }
    GVM_RETURN_IF_ERROR(pm.InstallProgram(
        "/bin/sh", ShellText(),
        DataImage(kShellDataPages, kShellMessage, [](int p) { return int64_t{1000} + p; }),
        kShellDataPages * kPage, 2 * kPage));
    gvm::Result<Pid> spawned = pm.Spawn("/bin/sh");
    if (!spawned.ok()) {
      return spawned.status();
    }
    shell = *spawned;
    // The shell dirties its whole data segment, so every fork defers the copy
    // of resident, modified pages.
    Actor& actor = *pm.Find(shell)->actor;
    for (int p = 0; p < kShellDataPages; ++p) {
      const int64_t value = ShellWord(p);
      GVM_RETURN_IF_ERROR(
          actor.Write(ProcessLayout::kDataBase + static_cast<size_t>(p) * kPage, &value,
                      sizeof(value)));
    }
    return Status::kOk;
  }

  int PickProgram() {
    const double u = static_cast<double>(rng.Next() >> 11) * 0x1.0p-53;
    return static_cast<int>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  }

  // One job: fork the shell, which then bumps its job counter (a write into a
  // page the child still shares, so the original moves into a history
  // object); the child either execs a program (three jobs in four) or runs as
  // a subshell; it runs to its halt, exits, and the shell reaps it.  Checks
  // the exit status and the console bytes.
  std::string Job() {
    const bool subshell = rng.Below(4) == 0;
    const int program = subshell ? -1 : std::min(PickProgram(), kPrograms - 1);
    gvm::Result<Pid> child = Status::kInvalidArgument;
    {
      ScopedSpan span(SpanKind::kFork);
      child = pm.Fork(shell);
    }
    if (!child.ok()) {
      return "fork failed";
    }
    ++jobs;
    if (pm.Find(shell)->actor->Write(kJobCounterVa, &jobs, sizeof(jobs)) != Status::kOk) {
      return "shell write failed";
    }
    if (!subshell) {
      ScopedSpan span(SpanKind::kExec);
      if (pm.Exec(*child, ProgramPath(program)) != Status::kOk) {
        return "exec failed";
      }
    }
    gvm::Result<VmStop> stop = Status::kInvalidArgument;
    {
      ScopedSpan span(SpanKind::kRun);
      stop = pm.Run(*child, kRunBudget);
    }
    if (!stop.ok() || *stop != VmStop::kHalted) {
      return "job did not halt";
    }
    gvm::Process* proc = pm.Find(*child);
    const int status = static_cast<int>(proc->vm.regs[0]);
    const bool console_ok =
        proc->console == (subshell ? kShellMessage : ProgramMessage(program));
    steps += proc->steps_executed;
    {
      ScopedSpan span(SpanKind::kExit);
      if (pm.Exit(*child, status) != Status::kOk) {
        return "exit failed";
      }
    }
    gvm::Result<std::pair<Pid, int>> reaped = Status::kInvalidArgument;
    {
      ScopedSpan span(SpanKind::kWait);
      reaped = pm.Wait(shell);
    }
    if (!reaped.ok() || reaped->first != *child) {
      return "wait did not reap the job";
    }
    if (reaped->second != (subshell ? ShellStatus() : ProgramStatus(program))) {
      return "wrong exit status";
    }
    if (!console_ok) {
      return "wrong console bytes";
    }
    return "";
  }

  VmWorld vm;
  Nucleus nucleus;
  gvm::SwapMapper swap;
  FileMapper files;
  ServedMapper swap_server;
  ServedMapper file_server;
  ProcessManager pm;
  Rng rng;
  std::vector<double> cdf;
  Pid shell = 0;
  uint64_t jobs = 0;
  uint64_t steps = 0;
};

RoundResult MakeRound(const RoundOptions& options) {
  RoundResult r;
  const uint64_t setup_start = NowNs();
  MakeWorld w(options.traced, options.seed);
  if (Status s = w.Install(); s != Status::kOk) {
    Fail(r, "install failed: " + std::string(gvm::StatusName(s)));
    return r;
  }
  r.warmup_ops = kMakeWarmupJobs;
  for (uint64_t i = 0; i < kMakeWarmupJobs; ++i) {
    if (std::string e = w.Job(); !e.empty()) {
      Fail(r, "warm-up: " + e);
    }
  }
  r.setup_s = SecondsSince(setup_start);

  Counters before = Snapshot(*w.vm.vm, &w.nucleus.segment_manager(), nullptr);
  w.vm.MarkWindowStart();
  w.swap_server.MarkWindowStart();
  w.file_server.MarkWindowStart();
  before["mix.steps"] = w.steps;
  RunTimed(r, kMakeJobs, w.vm, options.traced, [&](uint64_t) { return w.Job(); });
  w.vm.CollectTrace(r);
  r.mapper_bytes = w.swap_server.bytes() + w.file_server.bytes();
  Counters after = Snapshot(*w.vm.vm, &w.nucleus.segment_manager(), nullptr);
  after["mix.steps"] = w.steps;
  r.delta = Delta(after, before);
  uint64_t counter = 0;
  if (w.pm.Find(w.shell)->actor->Read(kJobCounterVa, &counter, sizeof(counter)) != Status::kOk ||
      counter != w.jobs) {
    Fail(r, "shell job counter lost");
  }

  r.invariants_ok = w.vm.vm->CheckInvariants() == Status::kOk;
  r.page_size = kPage;
  w.vm.RecordConfig(r.config);
  r.config["segment_cache_capacity"] = std::to_string(kSegmentCache);
  r.config["programs"] = std::to_string(kPrograms);
  r.config["ops_per_round"] = std::to_string(kMakeJobs);
  r.config["warmup_ops"] = std::to_string(kMakeWarmupJobs);
  r.config["mapper_dispatch"] = "in-process";
  return r;
}

// ---------------------------------------------------------------------------
// pageout_scan: a hot/cold buffer pool at 2x overcommit
// ---------------------------------------------------------------------------

constexpr size_t kPoolHeapPages = 2048;   // swap-backed, read-write
constexpr size_t kPoolFilePages = 2048;   // file-backed, read-only, scanned
constexpr size_t kPoolFrames = 2048;      // (heap + file) / frames = 2x overcommit
constexpr size_t kPoolHotPages = 512;     // the hot set: the first quarter of the heap
constexpr size_t kPoolAccesses = 8;       // accesses per request
constexpr size_t kSlots = 4;              // 8-byte slots used per page, 1 KiB apart
constexpr uint64_t kPoolWarmupOps = 5000;
constexpr uint64_t kPoolOps = 10000;
constexpr Vaddr kHeapBase = 0x10000000;
constexpr Vaddr kFileBase = 0x40000000;

Vaddr SlotVa(Vaddr base, size_t page, size_t slot) { return base + page * kPage + slot * 1024; }
uint64_t FileWord(uint64_t seed, size_t page, size_t slot) {
  return Mix64(seed ^ (page * kSlots + slot + 1));
}

struct PoolWorld {
  PoolWorld(bool traced, uint64_t seed_in)
      : vm(kPoolFrames, Options(), traced),
        nucleus(*vm.vm, MakeWorld::NucleusOptions()),
        store(kPage),
        swap(store),
        files(kPage),
        swap_server(nucleus.ipc(), swap, traced),
        file_server(nucleus.ipc(), files, traced),
        seed(seed_in),
        rng(Mix64(seed_in) + 2),
        oracle(kPoolHeapPages * kSlots, 0) {
    nucleus.BindDefaultMapper(swap_server.server.get());
    nucleus.RegisterMapper(file_server.server.get());
  }

  // Reclaim keeps 32..64 frames free.  The working-set cap of half the frames
  // makes faults trim the pool's oldest pages onto the pageout queues, so a
  // re-fault can be rescued from a queue (a soft fault) before reclaim takes
  // the frame.  Fault-around is on, as for any sequential reader.
  static PagedVm::Options Options() {
    PagedVm::Options options = BaseOptions();
    options.low_water_frames = kPoolFrames / 64;
    options.high_water_frames = kPoolFrames / 32;
    options.pullin_cluster_pages = 8;
    options.working_set_limit_pages = kPoolFrames / 2;
    return options;
  }

  Status Build() {
    std::vector<std::byte> image(kPoolFilePages * kPage);
    for (size_t p = 0; p < kPoolFilePages; ++p) {
      for (size_t s = 0; s < kSlots; ++s) {
        const uint64_t value = FileWord(seed, p, s);
        std::memcpy(image.data() + p * kPage + s * 1024, &value, sizeof(value));
      }
    }
    gvm::Result<uint64_t> key = files.CreateFile("/data/cold", image.data(), image.size());
    if (!key.ok()) {
      return key.status();
    }
    gvm::Result<Actor*> created = nucleus.ActorCreate("pool");
    if (!created.ok()) {
      return created.status();
    }
    actor = *created;
    if (gvm::Result<Region*> heap =
            actor->RgnAllocate(kHeapBase, kPoolHeapPages * kPage, Prot::kReadWrite);
        !heap.ok()) {
      return heap.status();
    }
    const Capability file{file_server.server->port(), *key};
    if (gvm::Result<Region*> mapped =
            actor->RgnMap(kFileBase, kPoolFilePages * kPage, Prot::kRead, file, 0);
        !mapped.ok()) {
      return mapped.status();
    }
    // Preload: every heap slot gets a value, so evicted heap pages are dirty.
    for (size_t p = 0; p < kPoolHeapPages; ++p) {
      for (size_t s = 0; s < kSlots; ++s) {
        const uint64_t value = Mix64(seed + p * kSlots + s);
        GVM_RETURN_IF_ERROR(actor->Write(SlotVa(kHeapBase, p, s), &value, sizeof(value)));
        oracle[p * kSlots + s] = value;
      }
    }
    return Status::kOk;
  }

  // One request: one in five scans the next kPoolAccesses pages of the cold
  // file (clean pages; reclaim drops them without I/O); the rest make
  // kPoolAccesses accesses to the heap, nine in ten into the hot set, a
  // quarter of them writes.  Every read is checked against the last
  // acknowledged write (heap) or the file image (file).
  std::string Request() {
    if (rng.Below(5) == 0) {
      for (size_t k = 0; k < kPoolAccesses; ++k) {
        const size_t slot = k % kSlots;
        uint64_t value = 0;
        if (actor->Read(SlotVa(kFileBase, cursor, slot), &value, sizeof(value)) != Status::kOk) {
          return "file read failed";
        }
        if (value != FileWord(seed, cursor, slot)) {
          return "file read returned wrong data";
        }
        cursor = (cursor + 1) % kPoolFilePages;
      }
      return "";
    }
    for (size_t k = 0; k < kPoolAccesses; ++k) {
      const uint64_t r = rng.Next();
      const size_t page = (r % 10) < 9 ? (r >> 8) % kPoolHotPages : (r >> 8) % kPoolHeapPages;
      const size_t slot = (r >> 4) % kSlots;
      uint64_t& expected = oracle[page * kSlots + slot];
      if (((r >> 40) & 3) == 0) {
        const uint64_t value = rng.Next();
        if (actor->Write(SlotVa(kHeapBase, page, slot), &value, sizeof(value)) != Status::kOk) {
          return "heap write failed";
        }
        expected = value;
      } else {
        uint64_t value = 0;
        if (actor->Read(SlotVa(kHeapBase, page, slot), &value, sizeof(value)) != Status::kOk) {
          return "heap read failed";
        }
        if (value != expected) {
          return "heap read did not return the last write";
        }
      }
    }
    return "";
  }

  VmWorld vm;
  Nucleus nucleus;
  JournalStore store;
  JournaledSwapMapper swap;
  FileMapper files;
  ServedMapper swap_server;
  ServedMapper file_server;
  const uint64_t seed;
  Rng rng;
  std::vector<uint64_t> oracle;
  Actor* actor = nullptr;
  size_t cursor = 0;
};

RoundResult PageoutScanRound(const RoundOptions& options) {
  RoundResult r;
  const uint64_t setup_start = NowNs();
  PoolWorld w(options.traced, options.seed);
  if (Status s = w.Build(); s != Status::kOk) {
    Fail(r, "build failed: " + std::string(gvm::StatusName(s)));
    return r;
  }
  r.warmup_ops = kPoolWarmupOps;
  for (uint64_t i = 0; i < kPoolWarmupOps; ++i) {
    if (std::string e = w.Request(); !e.empty()) {
      Fail(r, "warm-up: " + e);
    }
  }
  r.setup_s = SecondsSince(setup_start);

  const Counters before = Snapshot(*w.vm.vm, &w.nucleus.segment_manager(), &w.store);
  w.vm.MarkWindowStart();
  w.swap_server.MarkWindowStart();
  w.file_server.MarkWindowStart();
  RunTimed(r, kPoolOps, w.vm, options.traced, [&](uint64_t) { return w.Request(); });
  w.vm.CollectTrace(r);
  r.mapper_bytes = w.swap_server.bytes() + w.file_server.bytes();
  r.delta = Delta(Snapshot(*w.vm.vm, &w.nucleus.segment_manager(), &w.store), before);

  r.invariants_ok = w.vm.vm->CheckInvariants() == Status::kOk;
  r.page_size = kPage;
  w.vm.RecordConfig(r.config);
  r.config["heap_pages"] = std::to_string(kPoolHeapPages);
  r.config["file_pages"] = std::to_string(kPoolFilePages);
  r.config["ops_per_round"] = std::to_string(kPoolOps);
  r.config["warmup_ops"] = std::to_string(kPoolWarmupOps);
  r.config["mapper_dispatch"] = "in-process";
  // Destroy the actor while its mappers are still served.
  if (w.nucleus.ActorDestroy(w.actor) != Status::kOk) {
    Fail(r, "actor teardown failed");
  }
  return r;
}

// ---------------------------------------------------------------------------
// hot_access: a resident heap larger than the TLB's wide-entry reach
// ---------------------------------------------------------------------------

// The heap is twice the TLB's wide-entry reach.  The world scales the huge
// granule down to 16 KiB (reach: 256 entries x 16 KiB = 4 MiB) so that the heap
// is 8 MiB: at the default 512 KiB granule the heap would be 256 MiB, and the op
// time would follow the host's cache misses more than the simulated TLB.
constexpr size_t kHotHugePages = 4;
constexpr size_t kHotPages = 2048;
constexpr size_t kHotFrames = kHotPages + kHotPages / 16;  // slack for promotion runs
constexpr size_t kHotAccesses = 64;
constexpr uint64_t kHotWarmupOps = 5000;
constexpr uint64_t kHotOps = 30000;

struct HotWorld {
  HotWorld(bool traced, uint64_t seed)
      : vm(kHotFrames, BaseOptions(), traced, kHotHugePages),
        rng(Mix64(seed) + 3),
        oracle(kHotPages * kSlots, 0) {}

  Status Build() {
    gvm::Result<Context*> created = vm.vm->ContextCreate();
    if (!created.ok()) {
      return created.status();
    }
    context = *created;
    as = context->address_space();
    gvm::Result<Cache*> cache = vm.vm->CacheCreate(nullptr, "heap");
    if (!cache.ok()) {
      return cache.status();
    }
    heap = *cache;
    if (gvm::Result<Region*> region = vm.vm->RegionCreate(*context, kHeapBase, kHotPages * kPage,
                                                          Prot::kReadWrite, *heap, 0);
        !region.ok()) {
      return region.status();
    }
    // Fault in the whole heap; full spans are promoted to huge pages.
    for (size_t p = 0; p < kHotPages; ++p) {
      for (size_t s = 0; s < kSlots; ++s) {
        const uint64_t value = Mix64(p * kSlots + s);
        GVM_RETURN_IF_ERROR(vm.vm->cpu().Write(as, SlotVa(kHeapBase, p, s), &value, sizeof(value)));
        oracle[p * kSlots + s] = value;
      }
    }
    return Status::kOk;
  }

  // One op: kHotAccesses 8-byte accesses, a quarter of them writes, to pages
  // drawn with density falling linearly from the heap's base (page = n * u^2).
  std::string Op() {
    gvm::Cpu& cpu = vm.vm->cpu();
    for (size_t k = 0; k < kHotAccesses; ++k) {
      const uint64_t r = rng.Next();
      const uint64_t u = r >> 48;  // 16 bits
      const size_t page = static_cast<size_t>((u * u * kHotPages) >> 32);
      const size_t slot = r & (kSlots - 1);
      uint64_t& expected = oracle[page * kSlots + slot];
      if (((r >> 2) & 3) == 0) {
        const uint64_t value = Mix64(r);
        if (cpu.Write(as, SlotVa(kHeapBase, page, slot), &value, sizeof(value)) != Status::kOk) {
          return "write failed";
        }
        expected = value;
      } else {
        uint64_t value = 0;
        if (cpu.Read(as, SlotVa(kHeapBase, page, slot), &value, sizeof(value)) != Status::kOk) {
          return "read failed";
        }
        if (value != expected) {
          return "read did not return the last write";
        }
      }
    }
    return "";
  }

  VmWorld vm;
  Rng rng;
  std::vector<uint64_t> oracle;
  Context* context = nullptr;
  gvm::AsId as = gvm::kInvalidAsId;
  Cache* heap = nullptr;
};

RoundResult HotAccessRound(const RoundOptions& options) {
  RoundResult r;
  const uint64_t setup_start = NowNs();
  HotWorld w(options.traced, options.seed);
  if (Status s = w.Build(); s != Status::kOk) {
    Fail(r, "build failed: " + std::string(gvm::StatusName(s)));
    return r;
  }
  r.warmup_ops = kHotWarmupOps;
  for (uint64_t i = 0; i < kHotWarmupOps; ++i) {
    if (std::string e = w.Op(); !e.empty()) {
      Fail(r, "warm-up: " + e);
    }
  }
  r.setup_s = SecondsSince(setup_start);

  const Counters before = Snapshot(*w.vm.vm, nullptr, nullptr);
  w.vm.MarkWindowStart();
  RunTimed(r, kHotOps, w.vm, options.traced, [&](uint64_t) { return w.Op(); });
  w.vm.CollectTrace(r);
  r.delta = Delta(Snapshot(*w.vm.vm, nullptr, nullptr), before);

  r.invariants_ok = w.vm.vm->CheckInvariants() == Status::kOk;
  r.page_size = kPage;
  w.vm.RecordConfig(r.config);
  r.config["heap_pages"] = std::to_string(kHotPages);
  r.config["ops_per_round"] = std::to_string(kHotOps);
  r.config["warmup_ops"] = std::to_string(kHotWarmupOps);
  r.config["setup_promotions"] = std::to_string(w.vm.vm->detail_stats().promotions);
  if (w.context->Destroy() != Status::kOk || w.heap->Destroy() != Status::kOk) {
    Fail(r, "teardown failed");
  }
  return r;
}

// ---------------------------------------------------------------------------
// fault_storm: concurrent region lifecycles, one address space per client
// ---------------------------------------------------------------------------

// Two clients: enough to contend on the manager lock, the frame magazines and
// the shootdown drains, while leaving the rest of a 4-CPU host free.  With a
// third client the per-op tail followed the host's IPI latency (p99 2.5-5.6 ms
// between runs of one build) rather than the manager.
constexpr int kStormThreads = 2;
constexpr size_t kStormPages = 64;
constexpr size_t kStormFrames = 4096;
constexpr uint64_t kStormWarmupOps = 100;
constexpr uint64_t kStormOps = 500;  // per client thread
constexpr Vaddr kStormSrc = 0x20000000;
constexpr Vaddr kStormDst = 0x30000000;

struct StormClient {
  PagedVm* vm = nullptr;
  Context* context = nullptr;
  gvm::AsId as = gvm::kInvalidAsId;
  uint64_t seed = 0;
  int id = 0;
  RoundResult result;  // per-client share: latencies, failures, spans
  uint64_t peak = 0;

  uint64_t Word(uint64_t op, size_t page) const {
    return Mix64(seed ^ (static_cast<uint64_t>(id) << 48) ^ (op << 16) ^ page);
  }

  // One op: create a region, zero-fill-touch every page, make a deferred copy,
  // write every fourth page of the copy, check that the source and the
  // untouched copy pages still read the original values, destroy both.
  std::string Op(uint64_t op) {
    gvm::Cpu& cpu = vm->cpu();
    const size_t bytes = kStormPages * kPage;
    Cache* src = nullptr;
    Cache* dst = nullptr;
    Region* src_region = nullptr;
    Region* dst_region = nullptr;
    {
      ScopedSpan span(SpanKind::kRegionOp);
      gvm::Result<Cache*> cache = vm->CacheCreate(nullptr, "src");
      if (!cache.ok()) {
        return "cache create failed";
      }
      src = *cache;
      gvm::Result<Region*> region =
          vm->RegionCreate(*context, kStormSrc, bytes, Prot::kReadWrite, *src, 0);
      if (!region.ok()) {
        return "region create failed";
      }
      src_region = *region;
    }
    for (size_t p = 0; p < kStormPages; ++p) {
      const uint64_t value = Word(op, p);
      if (cpu.Write(as, kStormSrc + p * kPage + (p % kSlots) * 1024, &value, sizeof(value)) !=
          Status::kOk) {
        return "source write failed";
      }
    }
    {
      ScopedSpan span(SpanKind::kRegionOp);
      gvm::Result<Cache*> cache = vm->CacheCreate(nullptr, "dst");
      if (!cache.ok()) {
        return "copy cache create failed";
      }
      dst = *cache;
      if (src->CopyTo(*dst, 0, 0, bytes, CopyPolicy::kHistory) != Status::kOk) {
        return "deferred copy failed";
      }
      gvm::Result<Region*> region =
          vm->RegionCreate(*context, kStormDst, bytes, Prot::kReadWrite, *dst, 0);
      if (!region.ok()) {
        return "copy region create failed";
      }
      dst_region = *region;
    }
    for (size_t p = 0; p < kStormPages; p += 4) {
      const uint64_t value = ~Word(op, p);
      if (cpu.Write(as, kStormDst + p * kPage + (p % kSlots) * 1024, &value, sizeof(value)) !=
          Status::kOk) {
        return "copy write failed";
      }
    }
    for (size_t p = 0; p < kStormPages; ++p) {
      uint64_t value = 0;
      if (cpu.Read(as, kStormSrc + p * kPage + (p % kSlots) * 1024, &value, sizeof(value)) !=
              Status::kOk ||
          value != Word(op, p)) {
        return "source changed under the copy's writes";
      }
      if (p % 4 == 1) {
        if (cpu.Read(as, kStormDst + p * kPage + (p % kSlots) * 1024, &value, sizeof(value)) !=
                Status::kOk ||
            value != Word(op, p)) {
          return "copy lost the source value";
        }
      }
    }
    {
      ScopedSpan span(SpanKind::kRegionOp);
      if (dst_region->Destroy() != Status::kOk || src_region->Destroy() != Status::kOk ||
          dst->Destroy() != Status::kOk || src->Destroy() != Status::kOk) {
        return "teardown failed";
      }
    }
    return "";
  }
};

RoundResult FaultStormRound(const RoundOptions& options) {
  RoundResult r;
  const uint64_t setup_start = NowNs();
  VmWorld world(kStormFrames, BaseOptions(), options.traced);
  const int threads = std::max(1, options.threads);
  std::vector<StormClient> clients(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    StormClient& c = clients[static_cast<size_t>(t)];
    c.vm = world.vm.get();
    c.seed = options.seed;
    c.id = t;
    gvm::Result<Context*> context = world.vm->ContextCreate();
    if (!context.ok()) {
      Fail(r, "context create failed");
      return r;
    }
    c.context = *context;
    c.as = c.context->address_space();
  }

  // Each client warms up on its own thread, then all wait for the start flag;
  // the timed window runs from the flag until the last client finishes.
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (StormClient& c : clients) {
    workers.emplace_back([&c, &ready, &go, traced = options.traced] {
      for (uint64_t i = 0; i < kStormWarmupOps; ++i) {
        if (std::string e = c.Op(i); !e.empty()) {
          Fail(c.result, "warm-up: " + e);
        }
      }
      std::unique_ptr<SpanBuffer> buffer;
      if (traced) {
        buffer = std::make_unique<SpanBuffer>(kSpanCapacity / 4);
      }
      c.result.lat_ns.resize(kStormOps);
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      if (buffer != nullptr) {
        buffer->Arm();
      }
      for (uint64_t i = 0; i < kStormOps; ++i) {
        const uint64_t t0 = NowNs();
        std::string error;
        {
          if (buffer != nullptr) {
            buffer->SetOp(static_cast<uint32_t>(i));
          }
          ScopedSpan span(SpanKind::kOp);
          error = c.Op(kStormWarmupOps + i);
        }
        c.result.lat_ns[i] = NowNs() - t0;
        c.peak = std::max<uint64_t>(c.peak, c.vm->memory().used_frames());
        if (!error.empty()) {
          Fail(c.result, error);
        }
      }
      if (buffer != nullptr) {
        SpanBuffer::Disarm();
        c.result.spans_dropped = buffer->dropped();
        c.result.spans.push_back(buffer->spans());
      }
    });
  }
  while (ready.load(std::memory_order_acquire) < threads) {
    std::this_thread::yield();
  }
  r.setup_s = SecondsSince(setup_start);
  const Counters before = Snapshot(*world.vm, nullptr, nullptr);
  world.MarkWindowStart();
  const uint64_t start = NowNs();
  go.store(true, std::memory_order_release);
  for (std::thread& t : workers) {
    t.join();
  }
  r.timed_s = SecondsSince(start);
  world.CollectTrace(r);
  r.delta = Delta(Snapshot(*world.vm, nullptr, nullptr), before);

  for (StormClient& c : clients) {
    r.ops += kStormOps;
    r.warmup_ops += kStormWarmupOps;
    r.failed += c.result.failed;
    if (r.first_error.empty()) {
      r.first_error = c.result.first_error;
    }
    r.lat_ns.insert(r.lat_ns.end(), c.result.lat_ns.begin(), c.result.lat_ns.end());
    r.sim_frames_peak = std::max(r.sim_frames_peak, c.peak);
    r.spans_dropped += c.result.spans_dropped;
    for (std::vector<Span>& s : c.result.spans) {
      r.spans.push_back(std::move(s));
    }
    if (c.context->Destroy() != Status::kOk) {
      Fail(r, "context teardown failed");
    }
  }
  r.invariants_ok = world.vm->CheckInvariants() == Status::kOk;
  r.page_size = kPage;
  world.RecordConfig(r.config);
  r.config["threads"] = std::to_string(threads);
  r.config["region_pages"] = std::to_string(kStormPages);
  r.config["ops_per_round"] = std::to_string(kStormOps * static_cast<uint64_t>(threads));
  r.config["warmup_ops"] = std::to_string(kStormWarmupOps * static_cast<uint64_t>(threads));
  return r;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"make", &MakeRound, 1},
      {"pageout_scan", &PageoutScanRound, 1},
      {"hot_access", &HotAccessRound, 1},
      {"fault_storm", &FaultStormRound, kStormThreads},
  };
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

}  // namespace perfbench
