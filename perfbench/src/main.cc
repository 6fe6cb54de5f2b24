// perfbench: runs one workload of the end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <dir>]
//   perfbench --selftest [--seed <n>]
//
// Runs rounds of one workload (see workloads.h) until --seconds have passed and
// at least three rounds are done, and prints one JSON object: the metrics, the
// per-round figures, the structural counters and the world configuration.
// With --trace 0 the metrics are the end-to-end ones, from the untraced rounds
// after the process's first three, with every timing scaled by the host's
// speed measured between rounds (see host_speed.h).
// With --trace 1 the run alternates untraced and traced rounds and reports the
// per-layer metrics: counter ratios from the untraced rounds, span self times
// from the traced ones, and the tracing overhead between the two.
//
// --selftest runs one untraced and one traced round of every single-client
// workload on the same seed and checks that the structural counters agree:
// the decorators must not change what the program does.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "host_speed.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kMinRounds = 3;
// The first rounds of a process grow its heap, faulting in pages from the
// kernel that later rounds reuse; they are checked but left out of the
// end-to-end timings.
constexpr size_t kProcessWarmupRounds = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool selftest = false;
};

// Linear-interpolated quantile of a sorted sample.
double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Quantile(values, 0.5);
}

double OpsPerSecond(const RoundResult& r) {
  return r.timed_s > 0 ? static_cast<double>(r.ops) / r.timed_s : 0;
}

double MiB(uint64_t frames, size_t page_size) {
  return static_cast<double>(frames) * static_cast<double>(page_size) / (1024.0 * 1024.0);
}

// What a run keeps of a round: its latency samples and spans are reduced as
// soon as the round ends, so the process does not grow with the round count.
struct RoundSummary {
  double setup_s = 0;
  double timed_s = 0;
  double timed_cpu_s = 0;
  uint64_t host_faults = 0;
  double reference_ns = 0;  // the host's speed around the round (--trace 0)
  double ops_per_s = 0;
  uint64_t ops = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double p50_us = 0;
  double p99_us = 0;
  size_t samples = 0;
  double sim_mem_mib = 0;
  size_t page_size = 0;
  bool invariants_ok = true;
  std::string first_error;
  Counters delta;
  Config config;
};

RoundSummary Summarize(const RoundResult& r) {
  std::vector<double> us;
  us.reserve(r.lat_ns.size());
  for (uint64_t ns : r.lat_ns) {
    us.push_back(static_cast<double>(ns) / 1e3);
  }
  std::sort(us.begin(), us.end());
  RoundSummary s;
  s.setup_s = r.setup_s;
  s.timed_s = r.timed_s;
  s.timed_cpu_s = r.timed_cpu_s;
  s.host_faults = r.host_faults;
  s.ops_per_s = OpsPerSecond(r);
  s.ops = r.ops;
  s.attempted = r.ops + r.warmup_ops;
  s.failed = r.failed;
  s.p50_us = Quantile(us, 0.5);
  s.p99_us = Quantile(us, 0.99);
  s.samples = us.size();
  s.sim_mem_mib = MiB(r.sim_frames_peak, r.page_size);
  s.page_size = r.page_size;
  s.invariants_ok = r.invariants_ok;
  s.first_error = r.first_error;
  s.delta = r.delta;
  s.config = r.config;
  return s;
}

// ---- JSON output ----

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Appends `item` to a comma-separated list.
void Append(std::string& list, const std::string& item) {
  if (!list.empty()) {
    list += ", ";
  }
  list += item;
}

class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& value) {
    Append(body_, JsonString(key) + ": " + value);
    return *this;
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    return Raw(key, JsonString(value));
  }
  JsonObject& Num(const std::string& key, double value) { return Raw(key, JsonNumber(value)); }
  JsonObject& Int(const std::string& key, uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---- Metrics ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Each timing is the median over the run's rounds of the round's value
// scaled to the quiet host: a round's times are divided by the host's
// slowdown around it (the reference kernel's time over kReferenceQuietNs),
// its throughput multiplied by it.  The unscaled medians and the median
// reference time are reported as well, under `_raw` names.
std::vector<Metric> EndToEndMetrics(const std::vector<RoundSummary>& rounds) {
  std::vector<double> ops, p50, p99, setup, sim, reference;
  std::vector<double> ops_raw, p50_raw, p99_raw, setup_raw;
  for (const RoundSummary& r : rounds) {
    const double slowdown = r.reference_ns / kReferenceQuietNs;
    ops.push_back(r.ops_per_s * slowdown);
    p50.push_back(r.p50_us / slowdown);
    p99.push_back(r.p99_us / slowdown);
    setup.push_back(r.setup_s / slowdown);
    sim.push_back(r.sim_mem_mib);
    reference.push_back(r.reference_ns);
    ops_raw.push_back(r.ops_per_s);
    p50_raw.push_back(r.p50_us);
    p99_raw.push_back(r.p99_us);
    setup_raw.push_back(r.setup_s);
  }
  return {
      {"ops_per_s", Median(ops), "1/s"},
      {"lat_p50_us", Median(p50), "us"},
      {"lat_p99_us", Median(p99), "us"},
      {"setup_s", Median(setup), "s"},
      {"peak_rss_mib", PeakRssMib(), "MiB"},
      {"sim_mem_peak_mib", Median(sim), "MiB"},
      {"ops_per_s_raw", Median(ops_raw), "1/s"},
      {"lat_p50_us_raw", Median(p50_raw), "us"},
      {"lat_p99_us_raw", Median(p99_raw), "us"},
      {"setup_s_raw", Median(setup_raw), "s"},
      {"host_reference_ns", Median(reference), "ns"},
  };
}

// Span aggregates per kind over a set of traced rounds.
struct KindStats {
  uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
  std::vector<double> durations_ns;
};

struct TraceSummary {
  std::array<KindStats, static_cast<size_t>(SpanKind::kCount)> kinds;
  uint64_t ops = 0;
  uint64_t spans = 0;
  uint64_t dropped = 0;
  uint64_t mmu_calls[static_cast<size_t>(MmuMethod::kCount)] = {};
  uint64_t mapper_bytes = 0;
  std::vector<double> ops_per_s;

  KindStats& kind(SpanKind k) { return kinds[static_cast<size_t>(k)]; }
  const KindStats& kind(SpanKind k) const { return kinds[static_cast<size_t>(k)]; }
};

// A span's self time is its duration minus the time its child spans cover;
// children of one span never overlap (one thread, nested calls).
void AddTrace(const RoundResult& r, TraceSummary& t) {
  t.ops += r.ops;
  t.dropped += r.spans_dropped;
  t.mapper_bytes += r.mapper_bytes;
  t.ops_per_s.push_back(OpsPerSecond(r));
  for (size_t m = 0; m < static_cast<size_t>(MmuMethod::kCount); ++m) {
    t.mmu_calls[m] += r.mmu_calls[m];
  }
  for (const std::vector<Span>& spans : r.spans) {
    std::vector<uint64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent != 0) {
        child_ns[s.parent - 1] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double ns = static_cast<double>(s.end_ns - s.start_ns);
      KindStats& k = t.kind(s.kind);
      ++k.count;
      k.total_ns += ns;
      k.self_ns += ns - static_cast<double>(child_ns[i]);
      if (s.kind != SpanKind::kOp && s.kind != SpanKind::kMmu) {
        k.durations_ns.push_back(ns);
      }
    }
    t.spans += spans.size();
  }
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double DurationQuantileUs(KindStats k, double q) {
  std::sort(k.durations_ns.begin(), k.durations_ns.end());
  return Quantile(k.durations_ns, q) / 1e3;
}

double MeanUs(const KindStats& k) { return Ratio(k.total_ns, static_cast<double>(k.count)) / 1e3; }

std::vector<Metric> PerLayerMetrics(const std::vector<RoundSummary>& untraced,
                                    const TraceSummary& traced, const TraceSummary* single,
                                    bool counters_match) {
  // Counter ratios over every untraced round.
  Counters sum;
  double ops = 0;
  for (const RoundSummary& r : untraced) {
    ops += static_cast<double>(r.ops);
    for (const auto& [key, value] : r.delta) {
      sum[key] += value;
    }
  }
  auto c = [&](const char* key) {
    auto it = sum.find(key);
    return it == sum.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto per_op = [&](const char* key) { return Ratio(c(key), ops); };
  const double rounds = static_cast<double>(untraced.size());
  const double lookups = c("tlb.hits") + c("tlb.misses");

  const double tops = static_cast<double>(traced.ops);
  auto self_per_op = [&](SpanKind k) { return Ratio(traced.kind(k).self_ns, tops) / 1e3; };
  auto share = [&](SpanKind k) {
    return Ratio(traced.kind(k).total_ns, traced.kind(SpanKind::kOp).total_ns);
  };
  uint64_t mmu_total = 0;
  for (uint64_t n : traced.mmu_calls) {
    mmu_total += n;
  }
  auto mmu_per_op = [&](MmuMethod m) {
    return Ratio(static_cast<double>(traced.mmu_calls[static_cast<size_t>(m)]), tops);
  };
  const double page_size = static_cast<double>(untraced.front().page_size);

  std::vector<Metric> m = {
      // hal: Cpu / TlbMmu
      {"hal.tlb_hit_ratio", Ratio(c("tlb.hits"), lookups), "ratio"},
      {"hal.tlb_huge_hit_ratio", Ratio(c("tlb.huge_hits"), lookups), "ratio"},
      {"hal.tlb_misses_per_op", per_op("tlb.misses"), "1/op"},
      // hal: SoftMmu, seen through the TimingMmu decorator
      {"hal.mmu_calls_per_op", Ratio(static_cast<double>(mmu_total), tops), "1/op"},
      {"hal.mmu_translate_per_op", mmu_per_op(MmuMethod::kTranslate), "1/op"},
      {"hal.mmu_map_per_op", mmu_per_op(MmuMethod::kMap), "1/op"},
      {"hal.mmu_unmap_per_op", mmu_per_op(MmuMethod::kUnmap), "1/op"},
      {"hal.mmu_protect_per_op", mmu_per_op(MmuMethod::kProtect), "1/op"},
      {"hal.mmu_huge_per_op", mmu_per_op(MmuMethod::kHuge), "1/op"},
      {"hal.mmu_query_per_op", mmu_per_op(MmuMethod::kQuery), "1/op"},
      {"hal.mmu_space_per_op", mmu_per_op(MmuMethod::kSpace), "1/op"},
      {"hal.mmu_self_us", self_per_op(SpanKind::kMmu), "us/op"},
      // hal: PhysicalMemory and shootdowns
      {"hal.magazine_hit_ratio", Ratio(c("frames.magazine_hits"), c("frames.allocations")),
       "ratio"},
      {"hal.frame_allocs_per_op", per_op("frames.allocations"), "1/op"},
      {"hal.frame_copies_per_op", per_op("frames.copies"), "1/op"},
      {"hal.shootdowns_per_fault", Ratio(c("tlb.shootdowns"), c("mm.page_faults")), "ratio"},
      {"hal.shootdown_pages_per_op", per_op("tlb.shootdown_pages"), "1/op"},
      // vmbase: the fault path as a whole (handler entry to return)
      {"vmbase.fault_p50_us", DurationQuantileUs(traced.kind(SpanKind::kFault), 0.5), "us"},
      {"vmbase.fault_p99_us", DurationQuantileUs(traced.kind(SpanKind::kFault), 0.99), "us"},
      // pvm: fault resolution and deferred copy
      {"pvm.fault_self_us", self_per_op(SpanKind::kFault), "us/op"},
      {"pvm.region_ops_self_us", self_per_op(SpanKind::kRegionOp), "us/op"},
      {"pvm.faults_per_op", per_op("mm.page_faults"), "1/op"},
      {"pvm.zero_fills_per_op", per_op("mm.zero_fills"), "1/op"},
      {"pvm.cow_copies_per_op", per_op("mm.cow_copies"), "1/op"},
      {"pvm.history_pushes_per_op", per_op("pvm.history_pushes"), "1/op"},
      {"pvm.deferred_copy_pages_per_op", per_op("mm.deferred_copy_pages"), "1/op"},
      {"pvm.caches_collapsed_per_op", per_op("pvm.caches_collapsed"), "1/op"},
      {"pvm.promotions", Ratio(c("pvm.promotions"), rounds), "count"},
      {"pvm.demote_cow", Ratio(c("pvm.demote_cow"), rounds), "count"},
      // pvm: pageout
      {"pvm.soft_fault_ratio", Ratio(c("pvm.soft_faults"), c("pvm.soft_faults") + c("mm.pull_ins")),
       "ratio"},
      {"pvm.pages_paged_out_per_op", per_op("mm.pages_paged_out"), "1/op"},
      {"pvm.pull_ins_per_op", per_op("mm.pull_ins"), "1/op"},
      {"pvm.push_outs_per_op", per_op("mm.push_outs"), "1/op"},
      {"pvm.pullin_clustered_per_op", per_op("pvm.pullin_clustered"), "1/op"},
      {"pvm.ws_trims_per_op", per_op("pvm.ws_trims"), "1/op"},
      {"pvm.sweeps_per_op", per_op("pvm.sweeps_started"), "1/op"},
      {"pvm.demote_pageout", Ratio(c("pvm.demote_pageout"), rounds), "count"},
      // nucleus: segment manager, mappers, journal
      {"nucleus.segcache_hit_ratio", Ratio(c("segments.cache_hits"), c("segments.lookups")),
       "ratio"},
      {"nucleus.mapper_reads_per_op", per_op("segments.mapper_reads"), "1/op"},
      {"nucleus.mapper_writes_per_op", per_op("segments.mapper_writes"), "1/op"},
      {"nucleus.mapper_read_us", MeanUs(traced.kind(SpanKind::kMapperRead)), "us"},
      {"nucleus.mapper_write_us", MeanUs(traced.kind(SpanKind::kMapperWrite)), "us"},
      {"nucleus.journal_bytes_per_op", per_op("journal.bytes"), "B/op"},
      {"nucleus.ipc_bytes_per_op", Ratio(static_cast<double>(traced.mapper_bytes), tops), "B/op"},
      {"io_pages_per_op", Ratio(static_cast<double>(traced.mapper_bytes) / page_size, tops),
       "1/op"},
      // mix: the process manager calls of one job
      {"mix.fork_us", DurationQuantileUs(traced.kind(SpanKind::kFork), 0.5), "us"},
      {"mix.exec_us", DurationQuantileUs(traced.kind(SpanKind::kExec), 0.5), "us"},
      {"mix.run_us", DurationQuantileUs(traced.kind(SpanKind::kRun), 0.5), "us"},
      {"mix.exit_us", DurationQuantileUs(traced.kind(SpanKind::kExit), 0.5), "us"},
      {"mix.wait_us", DurationQuantileUs(traced.kind(SpanKind::kWait), 0.5), "us"},
      {"mix.fork_share", share(SpanKind::kFork), "ratio"},
      {"mix.exec_share", share(SpanKind::kExec), "ratio"},
      {"mix.run_share", share(SpanKind::kRun), "ratio"},
      {"mix.exit_share", share(SpanKind::kExit), "ratio"},
      {"mix.wait_share", share(SpanKind::kWait), "ratio"},
      {"mix.steps_per_job", per_op("mix.steps"), "1/op"},
      // the trace itself
      {"trace.op_self_us", self_per_op(SpanKind::kOp), "us/op"},
      {"trace.spans_per_op", Ratio(static_cast<double>(traced.spans), tops), "1/op"},
      {"trace.spans_dropped", static_cast<double>(traced.dropped), "count"},
      {"trace.counters_match", counters_match ? 1.0 : 0.0, "bool"},
  };
  if (single != nullptr) {
    // Multi-client workloads only: the mean fault at their client count minus
    // the same at one client.
    m.push_back({"vmbase.fault_contention_us",
                 MeanUs(traced.kind(SpanKind::kFault)) - MeanUs(single->kind(SpanKind::kFault)),
                 "us"});
  }
  std::vector<double> untraced_ops;
  for (const RoundSummary& r : untraced) {
    untraced_ops.push_back(r.ops_per_s);
  }
  m.push_back({"trace.ops_per_s", Median(traced.ops_per_s), "1/s"});
  m.push_back({"trace.overhead_ratio", Ratio(Median(untraced_ops), Median(traced.ops_per_s)),
               "ratio"});
  return m;
}

// Counters that must repeat exactly between rounds of one seed.
Counters Comparable(const Workload& w, const Counters& c) {
  if (w.default_threads == 1) {
    return c;
  }
  Counters out;
  for (const auto& [key, value] : c) {
    if (key.rfind("mm.", 0) == 0 || key.rfind("pvm.", 0) == 0) {
      out[key] = value;
    }
  }
  return out;
}

std::string DescribeMismatch(const Counters& a, const Counters& b) {
  for (const auto& [key, value] : a) {
    auto it = b.find(key);
    const uint64_t other = it == b.end() ? 0 : it->second;
    if (other != value) {
      return key + ": " + std::to_string(value) + " vs " + std::to_string(other);
    }
  }
  return "";
}

void WriteSpans(const std::string& path, const RoundResult& r, uint32_t max_ops) {
  std::ofstream out(path);
  out << "thread,op,span,parent,kind,start_ns,end_ns\n";
  for (size_t t = 0; t < r.spans.size(); ++t) {
    const std::vector<Span>& spans = r.spans[t];
    const uint64_t origin = spans.empty() ? 0 : spans.front().start_ns;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.op >= max_ops) {
        break;
      }
      out << t << ',' << s.op << ',' << i + 1 << ',' << s.parent << ',' << SpanKindName(s.kind)
          << ',' << s.start_ns - origin << ',' << s.end_ns - origin << '\n';
    }
  }
}

int Run(const Args& args) {
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: refusing to report timings from a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  const uint64_t start = NowNs();
  auto elapsed = [&] { return static_cast<double>(NowNs() - start) / 1e9; };
  RoundOptions options;
  options.seed = args.seed;
  options.threads = w->default_threads;

  std::vector<RoundSummary> untraced;
  std::vector<RoundSummary> traced;
  std::vector<RoundSummary> single;  // multi-client workloads, traced at one client
  TraceSummary trace;
  TraceSummary trace_single;
  auto round = [&](bool traced_round, int threads, std::vector<RoundSummary>& into,
                   TraceSummary* summary) {
    options.traced = traced_round;
    options.threads = threads;
    const RoundResult r = w->run_round(options);
    if (summary != nullptr) {
      AddTrace(r, *summary);
      if (!args.trace_out.empty() && summary == &trace) {
        WriteSpans(args.trace_out + "/spans-" + w->name + ".csv", r, 50);
      }
    }
    into.push_back(Summarize(r));
  };
  if (!args.trace) {
    // The host's speed before every round and after the last; a round is
    // scaled by the mean of the two measurements around it.
    HostSpeed host;
    std::vector<double> reference_ns = {host.MeasureNs()};
    while (untraced.size() < kProcessWarmupRounds + kMinRounds || elapsed() < args.seconds) {
      round(false, w->default_threads, untraced, nullptr);
      reference_ns.push_back(host.MeasureNs());
    }
    if (*std::min_element(reference_ns.begin(), reference_ns.end()) <= 0) {
      std::fprintf(stderr, "perfbench: the host speed helper failed\n");
      return 4;
    }
    for (size_t i = 0; i < untraced.size(); ++i) {
      untraced[i].reference_ns = (reference_ns[i] + reference_ns[i + 1]) / 2;
    }
  } else {
    // Alternate untraced and traced rounds so both see the same host state.
    while (traced.size() < 2 || elapsed() < args.seconds) {
      round(false, w->default_threads, untraced, nullptr);
      round(true, w->default_threads, traced, &trace);
      if (w->default_threads > 1) {
        round(true, 1, single, &trace_single);
      }
    }
  }

  // Correctness: every op, every invariant check, and exact repetition of the
  // structural counters across rounds of this seed.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  const Counters reference = Comparable(*w, untraced.front().delta);
  bool counters_repeat = true;
  for (const std::vector<RoundSummary>* set : {&untraced, &traced, &single}) {
    for (const RoundSummary& r : *set) {
      attempted += r.attempted;
      failed += r.failed;
      if (!r.first_error.empty()) {
        errors.push_back(r.first_error);
      }
      if (!r.invariants_ok) {
        errors.push_back("CheckInvariants failed");
      }
      if (set != &single) {
        if (std::string diff = DescribeMismatch(reference, Comparable(*w, r.delta));
            !diff.empty()) {
          counters_repeat = false;
          errors.push_back("structural counters differ between rounds: " + diff);
        }
      }
    }
  }
  const bool correct = errors.empty() && failed == 0;

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = EndToEndMetrics(
        std::vector<RoundSummary>(untraced.begin() + kProcessWarmupRounds, untraced.end()));
  } else {
    metrics = PerLayerMetrics(untraced, trace, single.empty() ? nullptr : &trace_single,
                              counters_repeat);
  }

  JsonObject metric_json;
  for (const Metric& m : metrics) {
    metric_json.Raw(m.name, JsonObject().Num("value", m.value).Str("unit", m.unit).str());
  }
  JsonObject config;
  for (const auto& [key, value] : untraced.front().config) {
    config.Str(key, value);
  }
  std::string rounds_json;
  auto add_rounds = [&](const std::vector<RoundSummary>& set, const char* phase) {
    for (const RoundSummary& r : set) {
      JsonObject o;
      o.Str("phase", phase)
          .Num("setup_s", r.setup_s)
          .Num("timed_s", r.timed_s)
          .Num("timed_cpu_s", r.timed_cpu_s)
          .Int("host_faults", r.host_faults)
          .Num("reference_ns", r.reference_ns)
          .Int("ops", r.ops)
          .Int("failed", r.failed)
          .Num("ops_per_s", r.ops_per_s)
          .Num("lat_p50_us", r.p50_us)
          .Num("lat_p99_us", r.p99_us)
          .Int("latency_samples", r.samples)
          .Num("sim_mem_peak_mib", r.sim_mem_mib);
      Append(rounds_json, o.str());
    }
  };
  if (!args.trace) {
    add_rounds({untraced.begin(), untraced.begin() + kProcessWarmupRounds}, "process_warmup");
    add_rounds({untraced.begin() + kProcessWarmupRounds, untraced.end()}, "untraced");
  } else {
    add_rounds(untraced, "untraced");
  }
  add_rounds(traced, "traced");
  add_rounds(single, "traced_1_thread");
  JsonObject counters;
  for (const auto& [key, value] : untraced.front().delta) {
    counters.Int(key, value);
  }
  std::string errors_json;
  for (const std::string& e : errors) {
    Append(errors_json, JsonString(e));
  }

  JsonObject out;
  out.Str("workload", w->name)
      .Int("seed", args.seed)
      .Int("trace", args.trace ? 1 : 0)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("compiler", PERFBENCH_COMPILER)
      .Int("hardware_threads", std::thread::hardware_concurrency())
      .Raw("correct", correct ? "true" : "false")
      .Int("attempted", attempted)
      .Int("failed", failed)
      .Raw("errors", "[" + errors_json + "]")
      .Raw("metrics", metric_json.str())
      .Raw("config", config.str())
      .Raw("rounds", "[" + rounds_json + "]")
      .Raw("counters_first_round", counters.str());
  std::printf("%s\n", out.str().c_str());
  return 0;
}

int SelfTest(uint64_t seed) {
  int failures = 0;
  for (const Workload& w : Workloads()) {
    if (w.default_threads != 1) {
      continue;  // multi-client counters depend on interleaving
    }
    RoundOptions options;
    options.seed = seed;
    const RoundResult plain = w.run_round(options);
    options.traced = true;
    const RoundResult traced = w.run_round(options);
    const std::string diff = DescribeMismatch(plain.delta, traced.delta);
    const bool ok = diff.empty() && plain.delta.size() == traced.delta.size() &&
                    plain.failed == 0 && traced.failed == 0 && plain.invariants_ok &&
                    traced.invariants_ok && !traced.spans.empty() &&
                    !traced.spans.front().empty();
    std::printf("%-14s %s%s%s\n", w.name, ok ? "ok" : "FAILED", diff.empty() ? "" : ": ",
                diff.c_str());
    failures += ok ? 0 : 1;
  }
  return failures == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (arg == "--selftest") {
      args->selftest = true;
      continue;
    }
    if ((v = value()) == nullptr) {
      return false;
    }
    if (arg == "--workload") {
      args->workload = v;
    } else if (arg == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      args->seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      args->trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--trace-out") {
      args->trace_out = v;
    } else {
      return false;
    }
  }
  return args->selftest || !args->workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Every allocation comes from the heap, and freed memory stays there: after
  // the first rounds each round reuses the pages the last one freed, so a timed
  // window takes no page faults from the host kernel (the journal alone would
  // fault in some 18,000 pages a round), and peak RSS is that of one round.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <dir>]\n       perfbench --selftest [--seed <n>]\n");
    return 2;
  }
  if (args.selftest) {
    return perfbench::SelfTest(args.seed);
  }
  return perfbench::Run(args);
}
