// Table 5 — "Chorus Memory Management Components Sizes".
//
// The paper reports lines of C++ per component, split into the machine-
// independent part (Nucleus MM part + PVM machine-independent, 3700 lines total)
// and the (small) MMU-dependent parts (790–1120 lines per port).  Its claim: the
// machine-dependent layer is a small fraction, which is what makes ports cheap
// ("about one man-month of work to port to a new MMU").
//
// We regenerate the same table over this repository: per-component line counts,
// with the MMU ports playing the role of the machine-dependent parts and the
// HAT core they share (src/hal/hat.h) reported as its own row.  The shape
// checks assert the paper's claim — each port is small (at most 250 lines)
// and a small fraction of the machine-independent whole — and a failed check
// makes the program exit non-zero, so the claim is gated as a ctest entry.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"

#ifndef GVM_SOURCE_DIR
#define GVM_SOURCE_DIR "."
#endif

namespace gvm {
namespace bench {
namespace {

namespace fs = std::filesystem;

struct Component {
  std::string label;
  std::vector<std::string> paths;  // relative to the source root
};

size_t CountLines(const fs::path& file) {
  std::ifstream in(file);
  size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    ++lines;
  }
  return lines;
}

size_t ComponentLines(const Component& component) {
  size_t total = 0;
  for (const std::string& rel : component.paths) {
    fs::path path = fs::path(GVM_SOURCE_DIR) / rel;
    if (fs::is_regular_file(path)) {
      total += CountLines(path);
      continue;
    }
    if (!fs::is_directory(path)) {
      continue;
    }
    for (const auto& entry : fs::directory_iterator(path)) {
      if (!entry.is_regular_file()) {
        continue;
      }
      auto ext = entry.path().extension();
      if (ext == ".h" || ext == ".cc") {
        total += CountLines(entry.path());
      }
    }
  }
  return total;
}

// Returns the number of failed shape checks.
int Run() {
  std::printf("==========================================================================\n");
  std::printf("Table 5: memory management component sizes\n");
  std::printf("==========================================================================\n");
  std::printf(
      "Paper (lines of C++, including headers and comments):\n"
      "  Machine-independent:  Nucleus MM part 1820, PVM machine-independent 1980\n"
      "                        -> total 3700\n"
      "  MMU-dependent ports:  Sun 790, PMMU 1120, iAPX 386 980\n\n");

  std::vector<Component> independent = {
      {"GMI (generic interface)", {"src/gmi"}},
      {"MM common (contexts/regions)", {"src/vmbase"}},
      {"PVM: machine-independent", {"src/pvm"}},
      {"Nucleus MM part", {"src/nucleus"}},
  };
  const Component core = {"HAT core (shared by every port)", {"src/hal/hat.h"}};
  std::vector<Component> dependent = {
      {"MMU port: SoftMmu (two-level)", {"src/hal/soft_mmu.h", "src/hal/soft_mmu.cc"}},
      {"MMU port: HashMmu (inverted)", {"src/hal/hash_mmu.h", "src/hal/hash_mmu.cc"}},
  };
  std::vector<Component> other = {
      {"Mach-style baseline (shadow)", {"src/shadow"}},
      {"Minimal real-time MM", {"src/minimal"}},
      {"Chorus/MIX (Unix layer)", {"src/mix"}},
      {"Distributed shared memory", {"src/dsm"}},
      {"Hardware substrate (rest of hal)",
       {"src/hal/phys_memory.h", "src/hal/phys_memory.cc", "src/hal/cpu.h", "src/hal/cpu.cc",
        "src/hal/mmu.h", "src/hal/tlb.h", "src/hal/tlb.cc", "src/hal/types.h",
        "src/hal/types.cc"}},
  };

  size_t independent_total = 0;
  std::printf("This repository (lines of C++, including headers and comments):\n");
  std::printf("  Machine-independent part:\n");
  for (const Component& component : independent) {
    size_t lines = ComponentLines(component);
    independent_total += lines;
    std::printf("    %-38s %6zu lines\n", component.label.c_str(), lines);
  }
  std::printf("    %-38s %6zu lines\n", "total", independent_total);
  std::printf("  MMU layer, machine-independent half:\n");
  std::printf("    %-38s %6zu lines\n", core.label.c_str(), ComponentLines(core));
  std::printf("  MMU-dependent part (one page-table store per 'port'):\n");
  std::vector<size_t> dependent_lines;
  for (const Component& component : dependent) {
    size_t lines = ComponentLines(component);
    dependent_lines.push_back(lines);
    std::printf("    %-38s %6zu lines\n", component.label.c_str(), lines);
  }
  std::printf("  Other subsystems (beyond the paper's table):\n");
  for (const Component& component : other) {
    size_t lines = ComponentLines(component);
    std::printf("    %-38s %6zu lines\n", component.label.c_str(), lines);
  }

  std::printf("\nShape checks:\n");
  ShapeCheck check;
  for (size_t i = 0; i < dependent.size(); ++i) {
    // Paper ratio: ~790-1120 machine-dependent vs 3700 machine-independent
    // (21%-30%).  Claim: the machine-dependent part is a small fraction.
    check.Expect(dependent_lines[i] * 2 < independent_total,
                (dependent[i].label + " is <50% of the machine-independent part").c_str());
    // A new MMU costs only its page-table store: the line budget per port.
    check.Expect(dependent_lines[i] <= 250, (dependent[i].label + " is <= 250 lines").c_str());
  }
  std::printf("\n");
  return check.failed;
}

}  // namespace
}  // namespace bench
}  // namespace gvm

int main() { return gvm::bench::Run() == 0 ? 0 : 1; }
