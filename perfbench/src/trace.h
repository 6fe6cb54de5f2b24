// Tracing for the benchmark's traced runs: an in-memory span recorder and the
// decorators that time calls into the layers below the benchmark.
//
// All of it sits in the benchmark's own files and reaches the system only
// through its public interfaces:
//   * TimingMmu wraps the hardware Mmu the manager is built on, so it sits
//     under the manager's TlbMmu and sees exactly the TLB-miss walks and the
//     table mutations (hal);
//   * TimingFaultHandler is bound as the Cpu's fault handler in front of the
//     manager, so it times every fault the manager resolves (vmbase + pvm);
//   * TimingMapper wraps a mapper behind its MapperServer, so it times every
//     request the segment manager sends (nucleus);
//   * ScopedSpan marks the benchmark's own calls (one op, fork/exec/run/...).
//
// A span records its kind, start, end, parent span and op id.  Spans go into a
// per-thread buffer that is only armed during the timed window of a traced
// round; with no buffer armed a ScopedSpan costs one thread-local load.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "src/hal/cpu.h"
#include "src/hal/mmu.h"
#include "src/nucleus/mapper.h"

namespace perfbench {

enum class SpanKind : uint8_t {
  kOp,            // one benchmark op (the root of every other span)
  kFork,          // mix: ProcessManager::Fork
  kExec,          // mix: ProcessManager::Exec
  kRun,           // mix: ProcessManager::Run
  kExit,          // mix: ProcessManager::Exit
  kWait,          // mix: ProcessManager::Wait
  kRegionOp,      // gmi: context/region/cache lifecycle calls
  kFault,         // vmbase: FaultHandler::HandleFault on the manager
  kMmu,           // hal: any call on the hardware Mmu
  kMapperRead,    // nucleus: Mapper::Read
  kMapperWrite,   // nucleus: Mapper::Write / WriteSeq
  kCount,
};

const char* SpanKindName(SpanKind kind);

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint32_t parent = 0;  // index + 1 into the same buffer; 0 = root
  uint32_t op = 0;
  SpanKind kind = SpanKind::kOp;
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// One thread's spans.  Capacity is reserved up front so recording never
// allocates; spans past capacity are counted as dropped, never recorded.
class SpanBuffer {
 public:
  explicit SpanBuffer(size_t capacity) { spans_.reserve(capacity); }

  // Arms / disarms recording on the calling thread.
  void Arm();
  static void Disarm();
  static SpanBuffer* Current();

  void SetOp(uint32_t op) { op_ = op; }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

  // Returns the span's index + 1, or 0 when it was dropped.
  uint32_t Begin(SpanKind kind) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return 0;
    }
    spans_.push_back(Span{NowNs(), 0, current_, op_, kind});
    current_ = static_cast<uint32_t>(spans_.size());
    return current_;
  }
  void End(uint32_t id) {
    if (id == 0) {
      return;
    }
    Span& span = spans_[id - 1];
    span.end_ns = NowNs();
    current_ = span.parent;
  }

 private:
  std::vector<Span> spans_;
  uint32_t current_ = 0;
  uint32_t op_ = 0;
  uint64_t dropped_ = 0;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind) : buffer_(SpanBuffer::Current()) {
    if (buffer_ != nullptr) {
      id_ = buffer_->Begin(kind);
    }
  }
  ~ScopedSpan() {
    if (buffer_ != nullptr) {
      buffer_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buffer_;
  uint32_t id_ = 0;
};

// Calls into the hardware Mmu, counted by method.
enum class MmuMethod : uint8_t {
  kTranslate,   // Translate / TranslateAndAccess(Info): the TLB-miss walk
  kMap,         // Map
  kUnmap,       // Unmap / UnmapCollect / UnmapRange / UnmapRangeCollect
  kProtect,     // Protect / ProtectRange
  kHuge,        // MapHuge / DemoteHuge
  kQuery,       // Lookup / TestAndClearReferenced
  kSpace,       // CreateAddressSpace / DestroyAddressSpace
  kCount,
};

class TimingMmu final : public gvm::Mmu {
 public:
  explicit TimingMmu(gvm::Mmu& inner) : inner_(inner) {}

  uint64_t calls(MmuMethod method) const {
    return calls_[static_cast<size_t>(method)].load(std::memory_order_relaxed);
  }

  gvm::Result<gvm::AsId> CreateAddressSpace() override;
  [[nodiscard]] gvm::Status DestroyAddressSpace(gvm::AsId as) override;
  [[nodiscard]] gvm::Status Map(gvm::AsId as, gvm::Vaddr va, gvm::FrameIndex frame,
                                gvm::Prot prot) override;
  [[nodiscard]] gvm::Status Unmap(gvm::AsId as, gvm::Vaddr va) override;
  [[nodiscard]] gvm::Result<gvm::MmuEntry> UnmapCollect(gvm::AsId as, gvm::Vaddr va) override;
  [[nodiscard]] gvm::Status UnmapRangeCollect(gvm::AsId as, gvm::Vaddr va, size_t count,
                                              uint64_t* dirty_mask) override;
  [[nodiscard]] gvm::Status Protect(gvm::AsId as, gvm::Vaddr va, gvm::Prot prot) override;
  [[nodiscard]] gvm::Status UnmapRange(gvm::AsId as, gvm::Vaddr va, size_t count) override;
  [[nodiscard]] gvm::Status ProtectRange(gvm::AsId as, gvm::Vaddr va, size_t count,
                                         gvm::Prot prot) override;
  gvm::Result<gvm::FrameIndex> Translate(gvm::AsId as, gvm::Vaddr va,
                                         gvm::Access access) override;
  gvm::Result<gvm::FrameIndex> TranslateAndAccess(gvm::AsId as, gvm::Vaddr va,
                                                  gvm::Access access,
                                                  gvm::FrameBodyRef body) override;
  size_t huge_page_size() const override { return inner_.huge_page_size(); }
  [[nodiscard]] gvm::Status MapHuge(gvm::AsId as, gvm::Vaddr va, gvm::FrameIndex frame,
                                    gvm::Prot prot) override;
  [[nodiscard]] gvm::Status DemoteHuge(gvm::AsId as, gvm::Vaddr va) override;
  gvm::Result<gvm::FrameIndex> TranslateAndAccessInfo(gvm::AsId as, gvm::Vaddr va,
                                                      gvm::Access access,
                                                      gvm::FrameBodyRef body,
                                                      gvm::MmuTranslateInfo* info) override;
  gvm::Result<gvm::MmuEntry> Lookup(gvm::AsId as, gvm::Vaddr va) const override;
  gvm::Result<bool> TestAndClearReferenced(gvm::AsId as, gvm::Vaddr va) override;
  size_t page_size() const override { return inner_.page_size(); }
  Stats stats() const override { return inner_.stats(); }
  void ResetStats() override { inner_.ResetStats(); }
  const char* name() const override { return inner_.name(); }

 private:
  void Count(MmuMethod method) const {
    calls_[static_cast<size_t>(method)].fetch_add(1, std::memory_order_relaxed);
  }

  gvm::Mmu& inner_;
  mutable std::atomic<uint64_t> calls_[static_cast<size_t>(MmuMethod::kCount)] = {};
};

class TimingFaultHandler final : public gvm::FaultHandler {
 public:
  explicit TimingFaultHandler(gvm::FaultHandler& inner) : inner_(inner) {}
  [[nodiscard]] gvm::Status HandleFault(const gvm::PageFault& fault) override {
    ScopedSpan span(SpanKind::kFault);
    return inner_.HandleFault(fault);
  }

 private:
  gvm::FaultHandler& inner_;
};

class TimingMapper final : public gvm::Mapper {
 public:
  explicit TimingMapper(gvm::Mapper& inner) : inner_(inner) {}

  uint64_t read_bytes() const { return read_bytes_.load(std::memory_order_relaxed); }
  uint64_t write_bytes() const { return write_bytes_.load(std::memory_order_relaxed); }

  [[nodiscard]] gvm::Status Read(uint64_t key, gvm::SegOffset offset, size_t size,
                                 std::vector<std::byte>* out) override;
  [[nodiscard]] gvm::Status Write(uint64_t key, gvm::SegOffset offset, const std::byte* data,
                                  size_t size) override;
  [[nodiscard]] gvm::Status WriteSeq(uint64_t key, gvm::SegOffset offset,
                                     const std::byte* data, size_t size,
                                     uint64_t seq) override;
  gvm::Result<uint64_t> AllocateTemporary(size_t size_hint) override {
    return inner_.AllocateTemporary(size_hint);
  }
  gvm::Result<uint64_t> AllocateTemporarySeq(size_t size_hint, uint64_t seq) override {
    return inner_.AllocateTemporarySeq(size_hint, seq);
  }
  bool ConsumeCrash() override { return inner_.ConsumeCrash(); }
  bool thread_safe_dispatch() const override { return inner_.thread_safe_dispatch(); }
  [[nodiscard]] gvm::Status Free(uint64_t key) override { return inner_.Free(key); }
  [[nodiscard]] gvm::Status GetWriteAccess(uint64_t key, gvm::SegOffset offset,
                                           size_t size) override {
    return inner_.GetWriteAccess(key, offset, size);
  }
  gvm::Prot FillProtection(uint64_t key, gvm::SegOffset offset, size_t size) override {
    return inner_.FillProtection(key, offset, size);
  }

 private:
  gvm::Mapper& inner_;
  std::atomic<uint64_t> read_bytes_{0};
  std::atomic<uint64_t> write_bytes_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
