// The benchmark's workloads.  Each one runs in rounds: a round builds a fresh
// world from the seed (set-up), brings it to steady state (warm-up), then runs a
// fixed number of ops in a closed loop (the timed window) and checks every
// result.  A fresh world per round keeps every round's work and memory
// identical, so rounds of one seed repeat each other exactly.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

// Structural counters (counts of work done), keyed "<layer>.<counter>".
using Counters = std::map<std::string, uint64_t>;

// World configuration as built, recorded with every result.
using Config = std::map<std::string, std::string>;

struct RoundOptions {
  uint64_t seed = 1;
  bool traced = false;   // decorators installed and spans recorded
  int threads = 1;       // client threads (fault_storm only)
};

struct RoundResult {
  double setup_s = 0;       // world build + preload + warm-up
  double timed_s = 0;       // the timed window
  // Single-client workloads: the client's CPU time and the page faults it
  // took from the kernel the benchmark runs on, over the timed window.
  double timed_cpu_s = 0;
  uint64_t host_faults = 0;
  uint64_t ops = 0;         // timed ops
  uint64_t warmup_ops = 0;  // ops run (and checked) during set-up
  uint64_t failed = 0;      // ops, timed or not, that failed or returned a wrong result
  std::string first_error;
  std::vector<uint64_t> lat_ns;  // every op's latency
  Counters delta;                // structural counters over the timed window
  uint64_t sim_frames_peak = 0;  // frames in use, high-water at op boundaries
  size_t page_size = 0;
  bool invariants_ok = true;
  Config config;
  // Traced rounds only.
  std::vector<std::vector<Span>> spans;  // one buffer per client thread
  uint64_t spans_dropped = 0;
  uint64_t mmu_calls[static_cast<size_t>(MmuMethod::kCount)] = {};
  uint64_t mapper_bytes = 0;  // request + reply payload crossing the mapper boundary
};

struct Workload {
  const char* name;
  RoundResult (*run_round)(const RoundOptions& options);
  // Client threads.  With more than one, only the manager's own counts repeat
  // exactly between rounds (TLB and magazine traffic depend on interleaving).
  int default_threads;
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
