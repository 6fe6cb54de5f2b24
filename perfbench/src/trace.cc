#include "trace.h"

namespace perfbench {

namespace {
thread_local SpanBuffer* t_buffer = nullptr;
}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOp:
      return "op";
    case SpanKind::kFork:
      return "mix.fork";
    case SpanKind::kExec:
      return "mix.exec";
    case SpanKind::kRun:
      return "mix.run";
    case SpanKind::kExit:
      return "mix.exit";
    case SpanKind::kWait:
      return "mix.wait";
    case SpanKind::kRegionOp:
      return "gmi.region_op";
    case SpanKind::kFault:
      return "vmbase.fault";
    case SpanKind::kMmu:
      return "hal.mmu";
    case SpanKind::kMapperRead:
      return "nucleus.mapper_read";
    case SpanKind::kMapperWrite:
      return "nucleus.mapper_write";
    case SpanKind::kCount:
      break;
  }
  return "?";
}

void SpanBuffer::Arm() { t_buffer = this; }
void SpanBuffer::Disarm() { t_buffer = nullptr; }
SpanBuffer* SpanBuffer::Current() { return t_buffer; }

// ---- TimingMmu: count, span, forward ----

gvm::Result<gvm::AsId> TimingMmu::CreateAddressSpace() {
  Count(MmuMethod::kSpace);
  ScopedSpan span(SpanKind::kMmu);
  return inner_.CreateAddressSpace();
}

gvm::Status TimingMmu::DestroyAddressSpace(gvm::AsId as) {
  Count(MmuMethod::kSpace);
  ScopedSpan span(SpanKind::kMmu);
  return inner_.DestroyAddressSpace(as);
}

gvm::Status TimingMmu::Map(gvm::AsId as, gvm::Vaddr va, gvm::FrameIndex frame, gvm::Prot prot) {
  Count(MmuMethod::kMap);
  ScopedSpan span(SpanKind::kMmu);
  return inner_.Map(as, va, frame, prot);
}

gvm::Status TimingMmu::Unmap(gvm::AsId as, gvm::Vaddr va) {
  Count(MmuMethod::kUnmap);
  ScopedSpan span(SpanKind::kMmu);
  return inner_.Unmap(as, va);
}

gvm::Result<gvm::MmuEntry> TimingMmu::UnmapCollect(gvm::AsId as, gvm::Vaddr va) {
  Count(MmuMethod::kUnmap);
  ScopedSpan span(SpanKind::kMmu);
  return inner_.UnmapCollect(as, va);
}

gvm::Status TimingMmu::UnmapRangeCollect(gvm::AsId as, gvm::Vaddr va, size_t count,
                                         uint64_t* dirty_mask) {
  Count(MmuMethod::kUnmap);
  ScopedSpan span(SpanKind::kMmu);
  return inner_.UnmapRangeCollect(as, va, count, dirty_mask);
}

gvm::Status TimingMmu::Protect(gvm::AsId as, gvm::Vaddr va, gvm::Prot prot) {
  Count(MmuMethod::kProtect);
  ScopedSpan span(SpanKind::kMmu);
  return inner_.Protect(as, va, prot);
}

gvm::Status TimingMmu::UnmapRange(gvm::AsId as, gvm::Vaddr va, size_t count) {
  Count(MmuMethod::kUnmap);
  ScopedSpan span(SpanKind::kMmu);
  return inner_.UnmapRange(as, va, count);
}

gvm::Status TimingMmu::ProtectRange(gvm::AsId as, gvm::Vaddr va, size_t count, gvm::Prot prot) {
  Count(MmuMethod::kProtect);
  ScopedSpan span(SpanKind::kMmu);
  return inner_.ProtectRange(as, va, count, prot);
}

gvm::Result<gvm::FrameIndex> TimingMmu::Translate(gvm::AsId as, gvm::Vaddr va,
                                                  gvm::Access access) {
  Count(MmuMethod::kTranslate);
  ScopedSpan span(SpanKind::kMmu);
  return inner_.Translate(as, va, access);
}

gvm::Result<gvm::FrameIndex> TimingMmu::TranslateAndAccess(gvm::AsId as, gvm::Vaddr va,
                                                           gvm::Access access,
                                                           gvm::FrameBodyRef body) {
  Count(MmuMethod::kTranslate);
  ScopedSpan span(SpanKind::kMmu);
  return inner_.TranslateAndAccess(as, va, access, body);
}

gvm::Status TimingMmu::MapHuge(gvm::AsId as, gvm::Vaddr va, gvm::FrameIndex frame,
                               gvm::Prot prot) {
  Count(MmuMethod::kHuge);
  ScopedSpan span(SpanKind::kMmu);
  return inner_.MapHuge(as, va, frame, prot);
}

gvm::Status TimingMmu::DemoteHuge(gvm::AsId as, gvm::Vaddr va) {
  Count(MmuMethod::kHuge);
  ScopedSpan span(SpanKind::kMmu);
  return inner_.DemoteHuge(as, va);
}

gvm::Result<gvm::FrameIndex> TimingMmu::TranslateAndAccessInfo(gvm::AsId as, gvm::Vaddr va,
                                                               gvm::Access access,
                                                               gvm::FrameBodyRef body,
                                                               gvm::MmuTranslateInfo* info) {
  Count(MmuMethod::kTranslate);
  ScopedSpan span(SpanKind::kMmu);
  return inner_.TranslateAndAccessInfo(as, va, access, body, info);
}

gvm::Result<gvm::MmuEntry> TimingMmu::Lookup(gvm::AsId as, gvm::Vaddr va) const {
  Count(MmuMethod::kQuery);
  ScopedSpan span(SpanKind::kMmu);
  return inner_.Lookup(as, va);
}

gvm::Result<bool> TimingMmu::TestAndClearReferenced(gvm::AsId as, gvm::Vaddr va) {
  Count(MmuMethod::kQuery);
  ScopedSpan span(SpanKind::kMmu);
  return inner_.TestAndClearReferenced(as, va);
}

// ---- TimingMapper ----

gvm::Status TimingMapper::Read(uint64_t key, gvm::SegOffset offset, size_t size,
                               std::vector<std::byte>* out) {
  ScopedSpan span(SpanKind::kMapperRead);
  read_bytes_.fetch_add(size, std::memory_order_relaxed);
  return inner_.Read(key, offset, size, out);
}

gvm::Status TimingMapper::Write(uint64_t key, gvm::SegOffset offset, const std::byte* data,
                                size_t size) {
  ScopedSpan span(SpanKind::kMapperWrite);
  write_bytes_.fetch_add(size, std::memory_order_relaxed);
  return inner_.Write(key, offset, data, size);
}

gvm::Status TimingMapper::WriteSeq(uint64_t key, gvm::SegOffset offset, const std::byte* data,
                                   size_t size, uint64_t seq) {
  ScopedSpan span(SpanKind::kMapperWrite);
  write_bytes_.fetch_add(size, std::memory_order_relaxed);
  return inner_.WriteSeq(key, offset, data, size, seq);
}

}  // namespace perfbench
