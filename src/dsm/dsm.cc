#include "src/dsm/dsm.h"

#include <cassert>
#include <cstring>
#include <utility>

#include "src/nucleus/journal_record.h"
#include "src/util/align.h"
#include "src/util/log.h"

namespace gvm {

namespace {

// Directory WAL record types (the type byte is a per-journal namespace; these
// never meet the swap mapper's).
constexpr uint8_t kWalState = 1;          // offset = page; payload = owner, sharers
constexpr uint8_t kWalData = 2;           // offset = byte offset; payload = bytes
constexpr uint8_t kWalSiteDeath = 3;      // key = site id
constexpr uint8_t kWalSiteRecovered = 4;  // key = site id; payload = drained count

constexpr uint64_t kNoOwnerWire = ~0ull;

// LatchRange waits this many 100ms rounds for a conflicting transition before
// aborting with kBusy (see the deadlock-avoidance note at LatchRange).
constexpr int kLatchDeadlineRounds = 20;

}  // namespace

// The per-site mapper for shared segments: forwards reads/writes to the home
// directory and implements the getWriteAccess hook with the invalidation
// protocol.  Every operation is one SimNet call; transport failures (loss past
// the retransmit budget, partitions, a dead home) surface as kTimeout /
// kPortDead to the faulting site, which aborts that access without touching
// authoritative state.
class CoherentMapper final : public Mapper {
 public:
  CoherentMapper(DsmCluster& cluster, DsmSite& site) : cluster_(cluster), site_(site) {}

  Status Read(uint64_t key, SegOffset offset, size_t size,
              std::vector<std::byte>* out) override {
    NetMessage m;
    m.op = NetOp::kReadReq;
    m.key = key;
    m.offset = offset;
    m.size = size;
    Result<NetMessage> reply = cluster_.net().Call(site_.id(), kHomeNode, std::move(m));
    if (!reply.ok()) {
      return reply.status();
    }
    if (reply->status != Status::kOk) {
      return reply->status;
    }
    *out = std::move(reply->payload);
    return Status::kOk;
  }

  Status Write(uint64_t key, SegOffset offset, const std::byte* data, size_t size) override {
    NetMessage m;
    m.op = NetOp::kWriteBack;
    m.key = key;
    m.offset = offset;
    m.size = size;
    m.payload.assign(data, data + size);
    Result<NetMessage> reply = cluster_.net().Call(site_.id(), kHomeNode, std::move(m));
    if (!reply.ok()) {
      return reply.status();
    }
    if (reply->status == Status::kPermissionDenied) {
      // The home refused the bytes because this site is no longer the owner:
      // by definition our copy is stale (a transition raced the push) and the
      // authoritative bytes live at home.  Dropping the write here lets the
      // push-out retire the page cleanly instead of requeueing a writeback the
      // directory will refuse forever.
      return Status::kOk;
    }
    return reply->status;
  }

  Status GetWriteAccess(uint64_t key, SegOffset offset, size_t size) override {
    NetMessage m;
    m.op = NetOp::kAcquireWrite;
    m.key = key;
    m.offset = offset;
    m.size = size;
    Result<NetMessage> reply = cluster_.net().Call(site_.id(), kHomeNode, std::move(m));
    if (!reply.ok()) {
      return reply.status();
    }
    return reply->status;
  }

  Prot FillProtection(uint64_t key, SegOffset offset, size_t size) override {
    (void)size;
    NetMessage m;
    m.op = NetOp::kFillProtQuery;
    m.key = key;
    m.offset = offset;
    Result<NetMessage> reply = cluster_.net().Call(site_.id(), kHomeNode, std::move(m));
    if (!reply.ok() || reply->status != Status::kOk) {
      // Unreachable home: fill read-only, so the first write re-faults and
      // retries the protocol rather than writing an unowned page.
      return Prot::kReadExecute;
    }
    return static_cast<Prot>(reply->arg);
  }

  // Directory operations recall other sites, whose push-outs re-enter their
  // own servers: serve locks held across that nesting would form a lock-order
  // cycle with the segment managers, so coherent dispatch stays lock-free.
  bool thread_safe_dispatch() const override { return true; }

 private:
  DsmCluster& cluster_;
  DsmSite& site_;
};

// ---------------------------------------------------------------------------
// DsmSite
// ---------------------------------------------------------------------------

DsmSite::DsmSite(DsmCluster& cluster, SiteId id, size_t frames, size_t page_size)
    : cluster_(cluster), id_(id) {
  memory_ = std::make_unique<PhysicalMemory>(frames, page_size);
  mmu_ = std::make_unique<SoftMmu>(page_size);
  PagedVm::Options options;
  options.low_water_frames = 4;
  options.high_water_frames = 8;
  vm_ = std::make_unique<PagedVm>(*memory_, *mmu_, options);
  nucleus_ = std::make_unique<Nucleus>(*vm_);
  swap_ = std::make_unique<SwapMapper>(page_size);
  swap_server_ = std::make_unique<MapperServer>(nucleus_->ipc(), *swap_);
  nucleus_->BindDefaultMapper(swap_server_.get());
  coherent_ = std::make_unique<CoherentMapper>(cluster, *this);
  coherent_server_ = std::make_unique<MapperServer>(nucleus_->ipc(), *coherent_);
  nucleus_->RegisterMapper(coherent_server_.get());
  actor_ = *nucleus_->ActorCreate("site" + std::to_string(id));
}

DsmSite::~DsmSite() = default;

Result<Region*> DsmSite::MapShared(const std::string& segment_name, Vaddr va, uint64_t size,
                                   Prot prot) {
  Result<uint64_t> key = cluster_.LookupSegment(segment_name);
  if (!key.ok()) {
    return key.status();
  }
  Capability capability{coherent_server_->port(), *key};
  Result<Region*> region = actor_->RgnMap(va, size, prot, capability, 0);
  if (region.ok()) {
    Result<Region*> r = region;
    RegionStatus status = (*r)->GetStatus();
    shared_caches_[*key] = status.cache;
  }
  return region;
}

Status DsmSite::SyncShared() {
  Status result = Status::kOk;
  for (auto& [key, cache] : shared_caches_) {
    Status s = cache->Sync();
    if (s != Status::kOk && result == Status::kOk) {
      result = s;
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// DsmCluster: directory and protocol
// ---------------------------------------------------------------------------

DsmCluster::DsmCluster(size_t page_size) : page_size_(page_size), net_(0x5eed) {
  net_.Register(kHomeNode, [this](const NetMessage& request, NetMessage* reply) {
    HandleHomeMessage(request, reply);
  });
}

DsmCluster::~DsmCluster() {
  // Sites die before the directory and the net: a teardown-time cache flush
  // must still find the home side alive.
  JoinTeardowns(-1);
  sites_.clear();
}

DsmSite* DsmCluster::AddSite(size_t frames) {
  SiteId id = static_cast<SiteId>(sites_.size());
  assert(id < 64 && "sharer bitmaps hold 64 sites");
  sites_.push_back(std::make_unique<DsmSite>(*this, id, frames, page_size_));
  DsmSite* site = sites_.back().get();
  net_.Register(id, [this, site](const NetMessage& request, NetMessage* reply) {
    HandleSiteMessage(site, request, reply);
  });
  return site;
}

void DsmCluster::BindFaultInjector(FaultInjector* injector) {
  injector_.store(injector, std::memory_order_release);
  net_.BindFaultInjector(injector);
}

Status DsmCluster::CreateSharedSegment(const std::string& name, uint64_t size) {
  MutexLock lock(dir_mu_);
  if (names_.contains(name)) {
    return Status::kAlreadyExists;
  }
  uint64_t key = next_key_++;
  names_[name] = key;
  Segment& segment = segments_[key];
  segment.key = key;
  segment.size = AlignUp(size, page_size_);
  return Status::kOk;
}

DsmCluster::Segment* DsmCluster::FindSegment(uint64_t key) {
  auto it = segments_.find(key);
  return it == segments_.end() ? nullptr : &it->second;
}

Result<uint64_t> DsmCluster::LookupSegment(const std::string& name) {
  MutexLock lock(dir_mu_);
  auto it = names_.find(name);
  if (it == names_.end()) {
    return Status::kNotFound;
  }
  return it->second;
}

// ---------------------------------------------------------------------------
// Net handlers
// ---------------------------------------------------------------------------

void DsmCluster::HandleHomeMessage(const NetMessage& request, NetMessage* reply) {
  switch (request.op) {
    case NetOp::kReadReq:
      reply->status = DirectoryRead(request.src, request.key, request.offset,
                                    request.size, &reply->payload);
      return;
    case NetOp::kWriteBack:
      reply->status = DirectoryWriteBack(request.src, request.key, request.offset,
                                         request.payload.data(), request.payload.size());
      return;
    case NetOp::kAcquireWrite:
      reply->status = DirectoryAcquireWrite(request.src, request.key, request.offset,
                                            request.size);
      return;
    case NetOp::kFillProtQuery:
      reply->arg = static_cast<uint64_t>(
          DirectoryFillProt(request.src, request.key, request.offset));
      reply->status = Status::kOk;
      return;
    case NetOp::kSiteRecovered: {
      const SiteId site = static_cast<SiteId>(request.key);
      // Refuse while a crash of this very site is mid-teardown: clearing the
      // death mark now would race the crash writing it (see CrashSite).  The
      // check is safe against the announcement itself being stale — a dead
      // requester's retransmit hits the dedup cache, never this handler.
      if ((crashing_sites_.load(std::memory_order_acquire) & SiteBit(site)) != 0 ||
          net_.NodeDead(site)) {
        reply->status = Status::kBusy;
        return;
      }
      reply->arg = DirectorySiteRecovered(site);
      reply->status = Status::kOk;
      return;
    }
    default:
      reply->status = Status::kInvalidArgument;
      return;
  }
}

void DsmCluster::HandleSiteMessage(DsmSite* site, const NetMessage& request,
                                   NetMessage* reply) {
  FaultInjector* injector = injector_.load(std::memory_order_acquire);
  switch (request.op) {
    case NetOp::kRecall: {
      // The owner dying right here loses its uncommitted stores: they were
      // never acknowledged home, so the home's last committed bytes stay
      // authoritative and nothing is corrupted.
      if (injector != nullptr &&
          injector->Check(FaultSite::kCrashSiteMidRecall) != Status::kOk) {
        CrashSiteFromHandler(site->id());
        reply->status = Status::kPortDead;
        return;
      }
      auto it = site->shared_caches_.find(request.key);
      if (it == site->shared_caches_.end()) {
        reply->status = Status::kOk;  // nothing cached here
        return;
      }
      Status s = it->second->Sync();  // dirty pages travel home (kWriteBack)
      if (s == Status::kOk) {
        s = it->second->SetProtection(request.offset, request.size, Prot::kReadExecute);
      }
      // Dying *after* the writeback committed but before the ack: the data
      // survives at home; the lost ack makes the home treat us as demoted.
      if (injector != nullptr &&
          injector->Check(FaultSite::kCrashSiteBeforeAck) != Status::kOk) {
        CrashSiteFromHandler(site->id());
        reply->status = Status::kPortDead;
        return;
      }
      reply->status = s;
      return;
    }
    case NetOp::kInvalidate: {
      auto it = site->shared_caches_.find(request.key);
      if (it == site->shared_caches_.end()) {
        reply->status = Status::kOk;
        return;
      }
      reply->status = it->second->Invalidate(request.offset, request.size);
      return;
    }
    default:
      reply->status = Status::kInvalidArgument;
      return;
  }
}

// ---------------------------------------------------------------------------
// Range transitions
// ---------------------------------------------------------------------------

Status DsmCluster::LatchRange(Segment* segment, SegOffset offset, size_t size,
                              SegOffset* first, SegOffset* end) {
  *first = AlignDown(offset, page_size_);
  *end = AlignUp(offset + size, page_size_);
  // All-or-nothing: wait until no page of the range is mid-transition, then
  // claim every page.  The wait carries a deadline because a cycle through the
  // sites is possible: the latch holder may be invalidating a page another
  // thread holds in transit, while that thread's fill waits right here for our
  // latch.  Timing out aborts *this* transition (kBusy), which fails the fill,
  // clears its transit stub and unblocks the holder — the cluster-level
  // equivalent of deadlock-avoidance by victim abort.
  for (int round = 0;; ++round) {
    bool all_free = true;
    for (SegOffset at = *first; at < *end; at += page_size_) {
      auto it = segment->pages.find(at);
      if (it != segment->pages.end() && it->second.busy) {
        all_free = false;
        break;
      }
    }
    if (all_free) {
      break;
    }
    if (round >= kLatchDeadlineRounds) {
      return Status::kBusy;
    }
    dir_cv_.WaitFor(dir_mu_, 100'000);
  }
  for (SegOffset at = *first; at < *end; at += page_size_) {
    segment->pages[at].busy = true;
  }
  return Status::kOk;
}

void DsmCluster::UnlatchRange(Segment* segment, SegOffset first, SegOffset end) {
  for (SegOffset at = first; at < end; at += page_size_) {
    PageDir& dir = segment->pages[at];
    dir.busy = false;
    // A site death that raced this transition skipped its latched pages; the
    // latch holder finishes the scrub so no dead site lingers in the directory.
    bool changed = false;
    if (dir.owner != -1 && (dead_sites_ & SiteBit(dir.owner)) != 0) {
      dir.owner = -1;
      changed = true;
    }
    uint64_t live = dir.sharers & ~dead_sites_;
    if (live != dir.sharers) {
      dir.sharers = live;
      changed = true;
    }
    if (changed) {
      WalAppendState(segment->key, at, dir);
    }
  }
  dir_cv_.NotifyAll();
}

std::vector<DsmCluster::RangeOp> DsmCluster::PlanEvictions(Segment* segment,
                                                           SegOffset first, SegOffset end,
                                                           SiteId except,
                                                           bool want_exclusive) {
  std::vector<RangeOp> ops;
  // Recalls: one message per (owner, contiguous page run).
  RangeOp run;
  auto flush_run = [&] {
    if (run.target != -1) {
      ops.push_back(run);
    }
    run.target = -1;
  };
  for (SegOffset at = first; at < end; at += page_size_) {
    const PageDir& dir = segment->pages[at];
    SiteId owner = dir.owner;
    if (owner == except || (owner != -1 && (dead_sites_ & SiteBit(owner)) != 0)) {
      owner = -1;  // nothing to recall (it is the requester, or it is dead)
    }
    if (owner == run.target && run.target != -1 && at == run.offset + run.size) {
      run.size += page_size_;
      continue;
    }
    flush_run();
    if (owner != -1) {
      run = RangeOp{owner, at, page_size_, /*recall=*/true};
    }
  }
  flush_run();
  if (!want_exclusive) {
    return ops;
  }
  // Exclusive grants also invalidate every remaining copy: one message per
  // (site, contiguous page run) over owner-or-sharer pages.
  for (SiteId target = 0; target < static_cast<SiteId>(sites_.size()); ++target) {
    if (target == except || (dead_sites_ & SiteBit(target)) != 0) {
      continue;
    }
    run.target = -1;
    for (SegOffset at = first; at < end; at += page_size_) {
      const PageDir& dir = segment->pages[at];
      bool has_copy = dir.owner == target || (dir.sharers & SiteBit(target)) != 0;
      if (has_copy && run.target != -1 && at == run.offset + run.size) {
        run.size += page_size_;
        continue;
      }
      flush_run();
      if (has_copy) {
        run = RangeOp{target, at, page_size_, /*recall=*/false};
      }
    }
    flush_run();
  }
  return ops;
}

Status DsmCluster::SendRangeOp(uint64_t key, const RangeOp& op) {
  NetMessage m;
  m.op = op.recall ? NetOp::kRecall : NetOp::kInvalidate;
  m.key = key;
  m.offset = op.offset;
  m.size = op.size;
  const uint64_t pages = op.size / page_size_;
  if (op.recall) {
    recall_messages_.fetch_add(1, std::memory_order_relaxed);
    recalls_.fetch_add(pages, std::memory_order_relaxed);
  } else {
    invalidate_messages_.fetch_add(1, std::memory_order_relaxed);
    invalidations_.fetch_add(pages, std::memory_order_relaxed);
  }
  Result<NetMessage> reply = net_.Call(kHomeNode, op.target, std::move(m));
  if (!reply.ok()) {
    return reply.status();
  }
  return reply->status;
}

Status DsmCluster::DirectoryRead(SiteId reader, uint64_t key, SegOffset offset, size_t size,
                                 std::vector<std::byte>* out) {
  SegOffset first = 0;
  SegOffset end = 0;
  std::vector<RangeOp> ops;
  {
    MutexLock lock(dir_mu_);
    Segment* segment = FindSegment(key);
    if (segment == nullptr) {
      return Status::kNotFound;
    }
    // A site the directory holds dead (crashed, re-join not yet announced)
    // cannot be recorded as a sharer, so it gets no copy: an untracked copy
    // would escape every later invalidation and serve stale bytes for good.
    if ((dead_sites_ & SiteBit(reader)) != 0) {
      return Status::kPortDead;
    }
    Status latched = LatchRange(segment, offset, size, &first, &end);
    if (latched != Status::kOk) {
      transitions_aborted_.fetch_add(1, std::memory_order_relaxed);
      return latched;
    }
    ops = PlanEvictions(segment, first, end, reader, /*want_exclusive=*/false);
  }

  // Recall current owners home (their dirty bytes arrive as nested
  // writebacks).  dir_mu_ is NOT held here: the latch owns the range.
  Status failure = Status::kOk;
  for (const RangeOp& op : ops) {
    Status s = SendRangeOp(key, op);
    if (s == Status::kPortDead) {
      continue;  // the owner died: its committed bytes are already home
    }
    if (s != Status::kOk) {
      failure = s;  // partition / loss budget: abort the transition cleanly
      break;
    }
  }

  MutexLock lock(dir_mu_);
  Segment* segment = FindSegment(key);
  if (failure == Status::kOk && (dead_sites_ & SiteBit(reader)) != 0) {
    failure = Status::kPortDead;  // the reader died during the recalls
  }
  if (failure != Status::kOk) {
    transitions_aborted_.fetch_add(1, std::memory_order_relaxed);
    UnlatchRange(segment, first, end);
    return failure;
  }
  for (SegOffset at = first; at < end; at += page_size_) {
    PageDir& dir = segment->pages[at];
    PageDir before = dir;
    if (dir.owner != -1 && dir.owner != reader) {
      // Demoted by the recall above: the old owner keeps a read-only copy.
      if ((dead_sites_ & SiteBit(dir.owner)) == 0) {
        dir.sharers |= SiteBit(dir.owner);
      }
      dir.owner = -1;
    }
    if (dir.owner != reader) {
      dir.sharers |= SiteBit(reader);
    }
    if (before.owner != dir.owner || before.sharers != dir.sharers) {
      WalAppendState(key, at, dir);
    }
    read_faults_.fetch_add(1, std::memory_order_relaxed);
  }
  // Serve the authoritative bytes.
  out->assign(size, std::byte{0});
  for (size_t done = 0; done < size; done += page_size_) {
    auto data = segment->data.find(AlignDown(offset + done, page_size_));
    if (data != segment->data.end()) {
      std::memcpy(out->data() + done, data->second.data(),
                  std::min(page_size_, size - done));
    }
  }
  UnlatchRange(segment, first, end);
  return Status::kOk;
}

Status DsmCluster::DirectoryWriteBack(SiteId writer, uint64_t key, SegOffset offset,
                                      const std::byte* data, size_t size) {
  MutexLock lock(dir_mu_);
  Segment* segment = FindSegment(key);
  if (segment == nullptr) {
    return Status::kNotFound;
  }
  // Only the current owner of every touched page may commit bytes: a late
  // writeback from a demoted or dead site is refused, so a crash mid-recall
  // can never corrupt the authoritative data.
  for (SegOffset at = AlignDown(offset, page_size_); at < offset + size; at += page_size_) {
    auto it = segment->pages.find(at);
    if (it == segment->pages.end() || it->second.owner != writer) {
      writebacks_rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::kPermissionDenied;
    }
  }
  for (size_t done = 0; done < size; done += page_size_) {
    SegOffset page = AlignDown(offset + done, page_size_);
    size_t chunk = std::min(page_size_, size - done);
    auto& bytes = segment->data[page];
    if (bytes.empty()) {
      bytes.assign(page_size_, std::byte{0});
    }
    std::memcpy(bytes.data() + (offset + done - page), data + done, chunk);
    WalAppendData(key, offset + done, data + done, chunk);
  }
  return Status::kOk;
}

Status DsmCluster::DirectoryAcquireWrite(SiteId writer, uint64_t key, SegOffset offset,
                                         size_t size) {
  SegOffset first = 0;
  SegOffset end = 0;
  std::vector<RangeOp> ops;
  {
    MutexLock lock(dir_mu_);
    Segment* segment = FindSegment(key);
    if (segment == nullptr) {
      return Status::kNotFound;
    }
    Status latched = LatchRange(segment, offset, size, &first, &end);
    if (latched != Status::kOk) {
      transitions_aborted_.fetch_add(1, std::memory_order_relaxed);
      return latched;
    }
    ops = PlanEvictions(segment, first, end, writer, /*want_exclusive=*/true);
  }

  Status failure = Status::kOk;
  for (const RangeOp& op : ops) {
    Status s = SendRangeOp(key, op);
    if (s == Status::kPortDead) {
      continue;  // a dead site holds no copies worth invalidating
    }
    if (s != Status::kOk) {
      // Exclusivity needs every invalidation acknowledged; a partitioned or
      // lossy link aborts the grant rather than risking two writers.
      failure = s;
      break;
    }
  }

  MutexLock lock(dir_mu_);
  Segment* segment = FindSegment(key);
  if (failure != Status::kOk) {
    transitions_aborted_.fetch_add(1, std::memory_order_relaxed);
    UnlatchRange(segment, first, end);
    return failure;
  }
  const bool writer_dead = (dead_sites_ & SiteBit(writer)) != 0;
  if (writer_dead) {
    // The requester died while its grant was in flight: park it for the
    // SiteRecovered drain instead of recording a dead owner.
    pending_grants_[writer].push_back(PendingGrant{key, first, end - first});
    pending_grants_recorded_.fetch_add(1, std::memory_order_relaxed);
  }
  for (SegOffset at = first; at < end; at += page_size_) {
    PageDir& dir = segment->pages[at];
    PageDir before = dir;
    dir.owner = writer_dead ? -1 : writer;
    dir.sharers = 0;
    if (before.owner != dir.owner || before.sharers != dir.sharers) {
      WalAppendState(key, at, dir);
    }
    if (!writer_dead) {
      write_grants_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  UnlatchRange(segment, first, end);
  return writer_dead ? Status::kPortDead : Status::kOk;
}

Prot DsmCluster::DirectoryFillProt(SiteId reader, uint64_t key, SegOffset offset) {
  MutexLock lock(dir_mu_);
  Segment* segment = FindSegment(key);
  if (segment == nullptr) {
    return Prot::kAll;
  }
  auto it = segment->pages.find(AlignDown(offset, page_size_));
  // Owners get writable fills; readers get read-only copies so their first
  // write raises the getWriteAccess upcall.
  if (it != segment->pages.end() && it->second.owner == reader) {
    return Prot::kAll;
  }
  return Prot::kReadExecute;
}

// ---------------------------------------------------------------------------
// Cross-site crash recovery
// ---------------------------------------------------------------------------

Status DsmCluster::CrashSite(SiteId site) {
  Status begun = BeginCrash(site);
  if (begun != Status::kOk) {
    return begun;
  }
  FinishCrash(site);
  return Status::kOk;
}

void DsmCluster::CrashSiteFromHandler(SiteId site) {
  if (BeginCrash(site) != Status::kOk) {
    return;  // already dead or dying
  }
  // An earlier teardown of this site still in the map has already finished:
  // BeginCrash succeeds only once the crashing bit it releases last is clear.
  std::thread previous;
  {
    MutexLock lock(dir_mu_);
    previous = std::exchange(teardowns_[site], std::thread([this, site] { FinishCrash(site); }));
  }
  if (previous.joinable()) {
    previous.join();
  }
}

void DsmCluster::JoinTeardowns(SiteId site) {
  std::vector<std::thread> joining;
  {
    MutexLock lock(dir_mu_);
    for (auto it = teardowns_.begin(); it != teardowns_.end();) {
      if (site == -1 || it->first == site) {
        joining.push_back(std::move(it->second));
        it = teardowns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (std::thread& thread : joining) {
    thread.join();
  }
}

Status DsmCluster::BeginCrash(SiteId site) {
  if (site < 0 || site >= static_cast<SiteId>(sites_.size())) {
    return Status::kNotFound;
  }
  // Claim the lifecycle bit for the entire teardown.  The port death below and
  // the directory's death mark in FinishCrash are separated by the cache wipe —
  // plenty of time for a concurrent RecoverSite to sneak a kSiteRecovered
  // through and clear a death mark that has not been written yet, stranding
  // the site as directory-dead on a live network.  While the bit is up the
  // home refuses re-join announcements; a second crasher backs off.
  const uint64_t bit = SiteBit(site);
  if ((crashing_sites_.fetch_or(bit, std::memory_order_acq_rel) & bit) != 0) {
    return Status::kAlreadyExists;
  }
  if (net_.NodeDead(site)) {
    crashing_sites_.fetch_and(~bit, std::memory_order_release);
    return Status::kAlreadyExists;
  }
  // Off the net first: in-flight calls to or from the site fail fast with
  // kPortDead from this point on.
  net_.SetNodeDead(site, true);
  site_crashes_.fetch_add(1, std::memory_order_relaxed);
  return Status::kOk;
}

void DsmCluster::FinishCrash(SiteId site) {
  const uint64_t bit = SiteBit(site);
  // The machine's memory is gone: discard every cached page (invalidate, not
  // flush — uncommitted dirty bytes die with the site, exactly like RAM).
  DsmSite* s = sites_[site].get();
  std::vector<std::pair<Cache*, uint64_t>> wipes;
  {
    MutexLock lock(dir_mu_);
    for (auto& [key, cache] : s->shared_caches_) {
      Segment* segment = FindSegment(key);
      wipes.emplace_back(cache, segment != nullptr ? segment->size : 0);
    }
  }
  for (auto& [cache, size] : wipes) {
    (void)cache->Invalidate(0, size);
  }

  {
    MutexLock lock(dir_mu_);
    dead_sites_ |= SiteBit(site);
    for (auto& [key, segment] : segments_) {
      for (auto& [page, dir] : segment.pages) {
        if (dir.busy) {
          continue;  // the latch-holding transition scrubs at unlatch time
        }
        PageDir before = dir;
        if (dir.owner == site) {
          dir.owner = -1;  // home's last committed bytes stay authoritative
        }
        dir.sharers &= ~SiteBit(site);
        if (before.owner != dir.owner || before.sharers != dir.sharers) {
          WalAppendState(key, page, dir);
        }
      }
    }
  }
  WalAppendEvent(kWalSiteDeath, static_cast<uint64_t>(site), 0);
  crashing_sites_.fetch_and(~bit, std::memory_order_release);
}

Result<uint64_t> DsmCluster::RecoverSite(SiteId site) {
  if (site < 0 || site >= static_cast<SiteId>(sites_.size())) {
    return Status::kNotFound;
  }
  JoinTeardowns(site);
  if (!net_.NodeDead(site)) {
    return Status::kAlreadyExists;  // not crashed
  }
  if ((crashing_sites_.load(std::memory_order_acquire) & SiteBit(site)) != 0) {
    // CrashSite is still tearing the machine down; bringing the port back up
    // mid-wipe would let recalls reach a half-dead cache.  Retry later.
    return Status::kBusy;
  }
  net_.SetNodeDead(site, false);
  // Announce the re-join over the protocol itself; the home drains the grants
  // parked by our death exactly once (a lost ack retransmits under the same
  // sequence number and hits the dedup cache, not a second drain).
  NetMessage m;
  m.op = NetOp::kSiteRecovered;
  m.key = static_cast<uint64_t>(site);
  Result<NetMessage> reply = net_.Call(site, kHomeNode, std::move(m));
  if (!reply.ok()) {
    // The re-join announcement never got through (partition): the site stays
    // down, and a later RecoverSite retry re-announces safely.
    net_.SetNodeDead(site, true);
    return reply.status();
  }
  if (reply->status != Status::kOk) {
    // The home refused: a crash raced this recovery and is mid-teardown.  Go
    // back down; the next attempt lands after the crash completes.
    net_.SetNodeDead(site, true);
    return reply->status;
  }
  return reply->arg;
}

bool DsmCluster::SiteCrashed(SiteId site) const { return net_.NodeDead(site); }

uint64_t DsmCluster::DirectorySiteRecovered(SiteId site) {
  MutexLock lock(dir_mu_);
  dead_sites_ &= ~SiteBit(site);
  uint64_t drained = 0;
  auto it = pending_grants_.find(site);
  if (it != pending_grants_.end()) {
    // Drain = discard: the faulting thread that wanted each grant saw its
    // error long ago, and the crash wiped the cache the grant would have
    // filled.  The swap makes a re-delivered drain a no-op.
    drained = it->second.size();
    pending_grants_.erase(it);
  }
  pending_grants_drained_.fetch_add(drained, std::memory_order_relaxed);
  site_recoveries_.fetch_add(1, std::memory_order_relaxed);
  WalAppendEvent(kWalSiteRecovered, static_cast<uint64_t>(site), drained);
  return drained;
}

// ---------------------------------------------------------------------------
// WAL
// ---------------------------------------------------------------------------

void DsmCluster::WalAppendState(uint64_t key, SegOffset page, const PageDir& dir) {
  std::vector<std::byte> payload;
  journal::PutU64(&payload, dir.owner < 0 ? kNoOwnerWire : static_cast<uint64_t>(dir.owner));
  journal::PutU64(&payload, dir.sharers);
  MutexLock lock(wal_mu_);
  std::vector<std::byte> record = journal::SerializeRecord(
      kWalState, ++wal_seq_, key, page, payload.data(), payload.size());
  wal_.insert(wal_.end(), record.begin(), record.end());
  wal_records_.fetch_add(1, std::memory_order_relaxed);
}

void DsmCluster::WalAppendData(uint64_t key, SegOffset page, const std::byte* bytes,
                               size_t size) {
  MutexLock lock(wal_mu_);
  std::vector<std::byte> record =
      journal::SerializeRecord(kWalData, ++wal_seq_, key, page, bytes, size);
  wal_.insert(wal_.end(), record.begin(), record.end());
  wal_records_.fetch_add(1, std::memory_order_relaxed);
}

void DsmCluster::WalAppendEvent(uint8_t type, uint64_t site, uint64_t arg) {
  std::vector<std::byte> payload;
  journal::PutU64(&payload, arg);
  MutexLock lock(wal_mu_);
  std::vector<std::byte> record =
      journal::SerializeRecord(type, ++wal_seq_, site, 0, payload.data(), payload.size());
  wal_.insert(wal_.end(), record.begin(), record.end());
  wal_records_.fetch_add(1, std::memory_order_relaxed);
}

uint64_t DsmCluster::WalRecordCount() const {
  return wal_records_.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Shadow oracle
// ---------------------------------------------------------------------------

Status DsmCluster::OracleCheck(std::string* diagnostic) {
  auto fail = [&](std::string message) {
    if (diagnostic != nullptr) {
      *diagnostic = std::move(message);
    }
    return Status::kBusError;
  };

  JoinTeardowns(-1);
  MutexLock lock(dir_mu_);
  std::vector<std::byte> wal_copy;
  {
    MutexLock wal_lock(wal_mu_);
    wal_copy = wal_;
  }

  // Replay the WAL from empty into a shadow directory + shadow byte store.
  struct ShadowPage {
    SiteId owner = -1;
    uint64_t sharers = 0;
  };
  std::map<std::pair<uint64_t, SegOffset>, ShadowPage> shadow_pages;
  std::map<uint64_t, std::vector<std::byte>> shadow_data;
  {
    // Size the shadow byte stores from the live segment table (creation is
    // not journaled; only transitions and commits are).
    for (const auto& [key, segment] : segments_) {
      shadow_data[key].assign(segment.size, std::byte{0});
    }
  }
  uint64_t last_seq = 0;
  size_t pos = 0;
  while (pos < wal_copy.size()) {
    journal::RecordView record;
    if (!journal::ParseRecord(wal_copy, pos, &record)) {
      return fail("WAL: torn or corrupt record at byte " + std::to_string(pos));
    }
    if (record.seq != last_seq + 1) {
      return fail("WAL: sequence gap at record " + std::to_string(record.seq));
    }
    last_seq = record.seq;
    switch (record.type) {
      case kWalState: {
        if (record.payload_size != 16) {
          return fail("WAL: short state payload at seq " + std::to_string(record.seq));
        }
        uint64_t owner = journal::GetU64(record.payload);
        ShadowPage& page = shadow_pages[{record.key, record.offset}];
        page.owner = owner == kNoOwnerWire ? -1 : static_cast<SiteId>(owner);
        page.sharers = journal::GetU64(record.payload + 8);
        break;
      }
      case kWalData: {
        auto it = shadow_data.find(record.key);
        if (it == shadow_data.end() ||
            record.offset + record.payload_size > it->second.size()) {
          return fail("WAL: data record outside segment at seq " +
                      std::to_string(record.seq));
        }
        std::memcpy(it->second.data() + record.offset, record.payload,
                    record.payload_size);
        break;
      }
      case kWalSiteDeath:
      case kWalSiteRecovered:
        break;  // audit markers; the per-page state records carry the effects
      default:
        return fail("WAL: unknown record type " + std::to_string(record.type));
    }
    pos += record.total_bytes;
  }

  // Structural invariants + shadow comparison over the live directory.
  const uint64_t site_mask =
      sites_.size() >= 64 ? ~0ull : (1ull << sites_.size()) - 1;
  for (const auto& [key, segment] : segments_) {
    for (const auto& [page, dir] : segment.pages) {
      std::string where =
          "key " + std::to_string(key) + " page " + std::to_string(page);
      if (dir.busy) {
        return fail("latch stuck: " + where + " still busy on a quiesced cluster");
      }
      if (dir.owner != -1 && dir.sharers != 0) {
        return fail("single-writer violated: " + where + " owned by site " +
                    std::to_string(dir.owner) + " with sharer bitmap " +
                    std::to_string(dir.sharers));
      }
      if ((dir.sharers & ~site_mask) != 0) {
        return fail("sharer bitmap names nonexistent sites: " + where);
      }
      if (dir.owner != -1 && (dead_sites_ & SiteBit(dir.owner)) != 0) {
        return fail("dead site owns a page: " + where);
      }
      if ((dir.sharers & dead_sites_) != 0) {
        return fail("dead site shares a page: " + where);
      }
      ShadowPage shadow;
      auto it = shadow_pages.find({key, page});
      if (it != shadow_pages.end()) {
        shadow = it->second;
      }
      if (shadow.owner != dir.owner || shadow.sharers != dir.sharers) {
        return fail("WAL replay diverges from live directory: " + where +
                    " live owner " + std::to_string(dir.owner) + "/sharers " +
                    std::to_string(dir.sharers) + " vs replayed owner " +
                    std::to_string(shadow.owner) + "/sharers " +
                    std::to_string(shadow.sharers));
      }
    }
    // Committed bytes: replaying every journaled writeback must reproduce the
    // authoritative store exactly — no committed store lost, none invented.
    const std::vector<std::byte>& replayed = shadow_data[key];
    for (SegOffset at = 0; at < segment.size; at += page_size_) {
      auto data = segment.data.find(at);
      const std::byte* live = data != segment.data.end() ? data->second.data() : nullptr;
      for (size_t i = 0; i < page_size_; ++i) {
        std::byte live_byte = live != nullptr ? live[i] : std::byte{0};
        if (replayed[at + i] != live_byte) {
          return fail("committed bytes diverge from WAL replay: key " +
                      std::to_string(key) + " offset " + std::to_string(at + i));
        }
      }
    }
  }
  return Status::kOk;
}

// ---------------------------------------------------------------------------
// Stats and introspection
// ---------------------------------------------------------------------------

DsmCluster::Stats DsmCluster::stats() const {
  SimNet::Stats net = net_.stats();
  Stats s;
  s.read_faults = read_faults_.load(std::memory_order_relaxed);
  s.write_grants = write_grants_.load(std::memory_order_relaxed);
  s.invalidations = invalidations_.load(std::memory_order_relaxed);
  s.recalls = recalls_.load(std::memory_order_relaxed);
  s.network_messages = net.messages;
  s.network_bytes = net.bytes;
  s.network_drops = net.drops;
  s.network_retransmits = net.retransmits;
  s.dedup_replays = net.dedup_replays;
  s.recall_messages = recall_messages_.load(std::memory_order_relaxed);
  s.invalidate_messages = invalidate_messages_.load(std::memory_order_relaxed);
  s.wal_records = wal_records_.load(std::memory_order_relaxed);
  s.writebacks_rejected = writebacks_rejected_.load(std::memory_order_relaxed);
  s.transitions_aborted = transitions_aborted_.load(std::memory_order_relaxed);
  s.site_crashes = site_crashes_.load(std::memory_order_relaxed);
  s.site_recoveries = site_recoveries_.load(std::memory_order_relaxed);
  s.pending_grants_recorded = pending_grants_recorded_.load(std::memory_order_relaxed);
  s.pending_grants_drained = pending_grants_drained_.load(std::memory_order_relaxed);
  return s;
}

SiteId DsmCluster::OwnerOf(const std::string& name, SegOffset page_offset) {
  Result<uint64_t> key = LookupSegment(name);
  if (!key.ok()) {
    return -1;
  }
  MutexLock lock(dir_mu_);
  Segment* segment = FindSegment(*key);
  if (segment == nullptr) {
    return -1;
  }
  auto it = segment->pages.find(AlignDown(page_offset, page_size_));
  return it == segment->pages.end() ? -1 : it->second.owner;
}

std::set<SiteId> DsmCluster::ReadersOf(const std::string& name, SegOffset page_offset) {
  Result<uint64_t> key = LookupSegment(name);
  if (!key.ok()) {
    return {};
  }
  MutexLock lock(dir_mu_);
  Segment* segment = FindSegment(*key);
  if (segment == nullptr) {
    return {};
  }
  auto it = segment->pages.find(AlignDown(page_offset, page_size_));
  std::set<SiteId> readers;
  if (it == segment->pages.end()) {
    return readers;
  }
  for (SiteId site = 0; site < static_cast<SiteId>(sites_.size()); ++site) {
    if ((it->second.sharers & SiteBit(site)) != 0) {
      readers.insert(site);
    }
  }
  return readers;
}

}  // namespace gvm
