#include "src/nucleus/segment_manager.h"

#include <cassert>
#include <chrono>
#include <thread>
#include <vector>

#include "src/util/log.h"

namespace gvm {

// The per-cache SegmentDriver: transforms GMI upcalls into mapper IPC requests
// (section 5.1.2: "the segment manager transforms a GMI upcall into IPC upcalls to
// the corresponding segment mapper").  Drivers run on any faulting thread with
// the MM lock dropped; the segment slot they share with the manager is read and
// written only through SnapshotSegment/AdoptTempSegment (under the manager lock).
class SegmentManagerDriver final : public SegmentDriver {
 public:
  SegmentManagerDriver(SegmentManager& manager, std::shared_ptr<Capability> segment)
      : manager_(manager), segment_(std::move(segment)) {}

  Status PullIn(Cache& cache, SegOffset offset, size_t size, Access access_mode) override {
    (void)access_mode;
    Capability segment = manager_.SnapshotSegment(segment_);
    std::vector<std::byte> data;
    Prot max_prot = Prot::kAll;
    Status s = manager_.MapperRead(segment, offset, size, &data, &max_prot);
    if (s != Status::kOk) {
      return s;
    }
    // "The mapper replies with a message containing the required data"; the
    // manager hands it to the MM with fillUp, carrying the mapper's access cap.
    return cache.FillUp(offset, data.data(), data.size(), max_prot);
  }

  Status GetWriteAccess(Cache& cache, SegOffset offset, size_t size) override {
    (void)cache;
    return manager_.MapperWriteAccess(manager_.SnapshotSegment(segment_), offset, size);
  }

  Status PushOut(Cache& cache, SegOffset offset, size_t size) override {
    // Temporary caches get their swap segment on the first pushOut ("the segment
    // manager waits for the first pushOut upcall for such a temporary cache to
    // allocate it a 'swap' temporary segment with a default mapper").  Two
    // threads can race the first pushOut; AdoptTempSegment keeps the winner's
    // segment and frees the loser's.
    Capability segment = manager_.SnapshotSegment(segment_);
    if (!segment.valid()) {
      Result<Capability> fresh = manager_.MapperAllocTemp(0);
      if (!fresh.ok()) {
        return fresh.status() == Status::kPortDead ? Status::kPortDead
                                                   : Status::kNoSwap;
      }
      segment = manager_.AdoptTempSegment(segment_, *fresh);
    }
    std::vector<std::byte> data(size);
    Status s = cache.CopyBack(offset, data.data(), size);
    if (s != Status::kOk) {
      return s;
    }
    return manager_.MapperWrite(segment, offset, data.data(), size);
  }

 private:
  SegmentManager& manager_;
  std::shared_ptr<Capability> segment_;
};

SegmentManager::SegmentManager(MemoryManager& mm, Ipc& ipc, Options options)
    : mm_(mm), ipc_(ipc), options_(options), local_port_(ipc.PortCreate()) {
  mm_.BindSegmentRegistry(this);
}

SegmentManager::~SegmentManager() = default;

void SegmentManager::BindDefaultMapper(MapperServer* server) {
  MutexLock lock(mu_);
  default_mapper_ = server;
  mappers_[server->port()] = server;
}

void SegmentManager::RegisterMapper(MapperServer* server) {
  MutexLock lock(mu_);
  mappers_[server->port()] = server;
}

// ---------------------------------------------------------------------------
// Mapper RPC
// ---------------------------------------------------------------------------

Capability SegmentManager::SnapshotSegment(
    const std::shared_ptr<Capability>& slot) const {
  MutexLock lock(mu_);
  return *slot;
}

Capability SegmentManager::AdoptTempSegment(const std::shared_ptr<Capability>& slot,
                                            const Capability& fresh) {
  Capability winner;
  bool lost = false;
  {
    MutexLock lock(mu_);
    if (slot->valid()) {
      winner = *slot;
      lost = true;
    } else {
      *slot = fresh;
      winner = fresh;
      ++stats_.temp_segments;
    }
  }
  if (lost) {
    (void)MapperFree(fresh);
  }
  return winner;
}

Result<Message> SegmentManager::MapperCall(PortId port, Message request) {
  if (options_.use_ipc_transport) {
    // Full message transport: requires the mapper's serve loop to be running.
    // Call() death-links the reply port to the mapper and bounds the round trip,
    // so a crash mid-request surfaces as kPortDead (and a wedged mapper as
    // kTimeout) instead of a hang.
    return ipc_.Call(port, std::move(request), options_.rpc_deadline_us);
  }
  MapperServer* server = nullptr;
  {
    MutexLock lock(mu_);
    auto it = mappers_.find(port);
    if (it == mappers_.end()) {
      return Status::kNotFound;
    }
    server = it->second;
  }
  // Serve() is the in-process analogue of the full transport: it refuses with
  // kPortDead once the server crashed, and a crash site firing mid-dispatch
  // kills the server and eats the reply.
  return server->Serve(request);
}

Result<Message> SegmentManager::RetryingMapperCall(FaultSite site, PortId port,
                                                   const Message& request) {
  // Mapper operations are idempotent — reads, sequence-numbered writes and
  // allocations — so a transient failure is absorbed by re-issuing the
  // *identical* call (same Message, same sequence number: a mapper that applied
  // the original but lost the ack deduplicates the re-issue).  kBusError
  // (transport or mapper I/O) and kTimeout (deadline) are the possibly-transient
  // statuses; kPortDead means the mapper is gone until somebody recovers it, so
  // retrying here would only stall the kernel — fail fast instead.  kNoSwap,
  // kNotFound etc. are answers, not line noise.
  FaultInjector* injector = injector_.load(std::memory_order_acquire);
  for (uint64_t attempt = 0;; ++attempt) {
    Status s = injector == nullptr ? Status::kOk : injector->Check(site);
    if (s == Status::kOk) {
      Result<Message> reply = MapperCall(port, Message(request));
      if (reply.ok() && reply->status == static_cast<int32_t>(Status::kOk)) {
        return reply;
      }
      s = reply.ok() ? static_cast<Status>(reply->status) : reply.status();
    }
    if (s == Status::kPortDead) {
      MutexLock lock(mu_);
      ++stats_.rpc_port_deaths;
      return s;
    }
    if (s != Status::kBusError && s != Status::kTimeout) {
      return s;
    }
    if (attempt >= options_.io_retry_limit) {
      MutexLock lock(mu_);
      ++stats_.io_permanent_failures;
      return s;
    }
    {
      MutexLock lock(mu_);
      ++stats_.io_retries;
      if (s == Status::kTimeout) {
        ++stats_.rpc_timeouts;
      }
    }
    if (options_.retry_backoff_us > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.retry_backoff_us << attempt));
    }
  }
}

Status SegmentManager::MapperRead(const Capability& segment, SegOffset offset, size_t size,
                                  std::vector<std::byte>* out, Prot* max_prot) {
  {
    MutexLock lock(mu_);
    ++stats_.mapper_reads;
  }
  Message request;
  request.operation = static_cast<uint64_t>(MapperOp::kRead);
  request.subject = segment;
  request.arg0 = offset;
  request.arg1 = size;
  Result<Message> reply = RetryingMapperCall(FaultSite::kMapperRead, segment.port, request);
  if (!reply.ok()) {
    return reply.status();
  }
  if (max_prot != nullptr) {
    *max_prot = static_cast<Prot>(reply->arg0);
  }
  *out = std::move(reply->data);
  return Status::kOk;
}

Status SegmentManager::MapperWrite(const Capability& segment, SegOffset offset,
                                   const std::byte* data, size_t size) {
  {
    MutexLock lock(mu_);
    ++stats_.mapper_writes;
  }
  // Large push-outs are chunked to the IPC message limit.  Each chunk is one
  // logical RPC with its own sequence number, re-used verbatim across retries.
  for (size_t done = 0; done < size; done += Message::kMaxBytes) {
    size_t chunk = std::min(Message::kMaxBytes, size - done);
    Message request;
    request.operation = static_cast<uint64_t>(MapperOp::kWrite);
    request.subject = segment;
    request.arg0 = offset + done;
    request.arg2 = next_rpc_seq_.fetch_add(1, std::memory_order_relaxed);
    request.data.assign(data + done, data + done + chunk);
    Result<Message> reply =
        RetryingMapperCall(FaultSite::kMapperWrite, segment.port, request);
    if (!reply.ok()) {
      return reply.status();
    }
  }
  return Status::kOk;
}

Status SegmentManager::MapperWriteAccess(const Capability& segment, SegOffset offset,
                                         size_t size) {
  if (!segment.valid()) {
    return Status::kOk;  // temporary without a swap segment yet: always writable
  }
  Message request;
  request.operation = static_cast<uint64_t>(MapperOp::kWriteAccess);
  request.subject = segment;
  request.arg0 = offset;
  request.arg1 = size;
  Result<Message> reply =
      RetryingMapperCall(FaultSite::kMapperWrite, segment.port, request);
  if (!reply.ok()) {
    return reply.status();
  }
  return Status::kOk;
}

Result<Capability> SegmentManager::MapperAllocTemp(size_t size_hint) {
  PortId port = kInvalidPort;
  {
    MutexLock lock(mu_);
    if (default_mapper_ == nullptr) {
      return Status::kNoSwap;
    }
    port = default_mapper_->port();
  }
  Message request;
  request.operation = static_cast<uint64_t>(MapperOp::kAllocTemp);
  request.arg0 = size_hint;
  request.arg2 = next_rpc_seq_.fetch_add(1, std::memory_order_relaxed);
  Result<Message> reply =
      RetryingMapperCall(FaultSite::kMapperAllocTemp, port, request);
  if (!reply.ok()) {
    return reply.status();
  }
  return reply->subject;
}

Status SegmentManager::MapperFree(const Capability& segment) {
  Message request;
  request.operation = static_cast<uint64_t>(MapperOp::kFree);
  request.subject = segment;
  Result<Message> reply =
      RetryingMapperCall(FaultSite::kMapperWrite, segment.port, request);
  return reply.ok() ? Status::kOk : reply.status();
}

// ---------------------------------------------------------------------------
// Cache acquisition and the segment cache (section 5.1.3)
// ---------------------------------------------------------------------------

SegmentManager::Entry* SegmentManager::FindBySegment(const Capability& segment) {
  auto it = by_segment_.find(segment);
  return it == by_segment_.end() ? nullptr : it->second;
}

SegmentManager::Entry* SegmentManager::FindByCache(Cache* cache) {
  auto it = by_cache_.find(cache);
  return it == by_cache_.end() ? nullptr : it->second;
}

SegmentManager::Entry* SegmentManager::NewEntryLocked() {
  entries_.emplace_back();
  Entry* entry = &entries_.back();
  entry->self = std::prev(entries_.end());
  return entry;
}

void SegmentManager::IndexEntryLocked(Entry* entry) {
  by_cache_[entry->cache] = entry;
  if (!entry->temporary) {
    by_segment_[*entry->segment] = entry;
  }
}

void SegmentManager::LruRemoveLocked(Entry* entry) {
  if (entry->pooled()) {
    unreferenced_.erase(entry->lru_pos);
  }
}

Result<Cache*> SegmentManager::AcquireCache(const Capability& segment) {
  MutexLock lock(mu_);
  ++stats_.lookups;
  if (Entry* entry = FindBySegment(segment)) {
    // Segment caching hit: "the manager first checks if there is a cache already
    // kept for it."
    if (entry->refs == 0) {
      LruRemoveLocked(entry);
      ++stats_.cache_hits;
    }
    entry->refs++;
    return entry->cache;
  }
  Entry* entry = NewEntryLocked();
  *entry->segment = segment;
  entry->refs = 1;
  entry->temporary = false;
  entry->driver = std::make_unique<SegmentManagerDriver>(*this, entry->segment);
  Result<Cache*> cache =
      mm_.CacheCreate(entry->driver.get(), "seg:" + std::to_string(segment.key));
  if (!cache.ok()) {
    entries_.pop_back();
    return cache.status();
  }
  entry->cache = *cache;
  IndexEntryLocked(entry);
  ++stats_.caches_created;
  return entry->cache;
}

Result<Cache*> SegmentManager::AcquireTemporaryCache(std::string name) {
  MutexLock lock(mu_);
  Entry* entry = NewEntryLocked();
  entry->refs = 1;
  entry->temporary = true;
  entry->driver = std::make_unique<SegmentManagerDriver>(*this, entry->segment);
  // Temporary caches are created unbound (zero-filled on demand); the MM calls
  // SegmentCreate when it first needs to page them out.
  Result<Cache*> cache = mm_.CacheCreate(nullptr, std::move(name));
  if (!cache.ok()) {
    entries_.pop_back();
    return cache.status();
  }
  entry->cache = *cache;
  IndexEntryLocked(entry);
  ++stats_.caches_created;
  ++temp_counter_;
  return entry->cache;
}

void SegmentManager::AddRef(Cache* cache) {
  MutexLock lock(mu_);
  Entry* entry = FindByCache(cache);
  assert(entry != nullptr);
  if (entry->refs == 0) {
    LruRemoveLocked(entry);
  }
  entry->refs++;
}

void SegmentManager::Release(Cache* cache) {
  // Collect the caches to destroy under the lock, destroy them after releasing
  // it: Cache::Destroy may push dirty pages out, which re-enters this manager
  // through the driver upcalls.
  std::vector<Cache*> doomed;
  {
    MutexLock lock(mu_);
    Entry* entry = FindByCache(cache);
    if (entry == nullptr) {
      return;
    }
    assert(entry->refs > 0);
    if (--entry->refs > 0) {
      return;
    }
    if (entry->temporary) {
      // Unreferenced temporary data is garbage; discard immediately.
      doomed.push_back(DetachEntryLocked(entry));
    } else {
      // Keep the unreferenced cache "as long as possible" (section 5.1.3).
      entry->lru_pos = unreferenced_.insert(unreferenced_.end(), entry);
      while (unreferenced_.size() > options_.cache_capacity) {
        doomed.push_back(DetachEntryLocked(unreferenced_.front()));
        ++stats_.caches_discarded;
      }
    }
  }
  for (Cache* victim : doomed) {
    if (victim != nullptr) {
      (void)victim->Destroy();
    }
  }
}

Cache* SegmentManager::DetachEntryLocked(Entry* entry) {
  Cache* cache = entry->cache;
  // The memory manager may still hold the cache in a "dying" state (section
  // 4.2.5), and dying caches keep using their driver for swap pull-ins.  Park the
  // driver in the graveyard instead of freeing it.  The swap segment itself is
  // likewise retained (dying caches may page against it); both are reclaimed when
  // the manager is torn down.
  driver_graveyard_.push_back(std::move(entry->driver));
  LruRemoveLocked(entry);
  auto by_cache = by_cache_.find(cache);
  if (by_cache != by_cache_.end() && by_cache->second == entry) {
    by_cache_.erase(by_cache);
  }
  if (!entry->temporary) {
    by_segment_.erase(*entry->segment);
  }
  entries_.erase(entry->self);
  return cache;
}

SegmentDriver* SegmentManager::SegmentCreate(Cache& cache) {
  // The MM created a cache unilaterally (history/working object) or a temporary
  // cache needs backing: register it and hand out a driver whose swap segment is
  // allocated lazily on the first pushOut.
  MutexLock lock(mu_);
  if (Entry* existing = FindByCache(&cache)) {
    return existing->driver.get();
  }
  Entry* entry = NewEntryLocked();
  entry->cache = &cache;
  entry->refs = 0;  // MM-owned; lifetime is the MM's business
  entry->temporary = true;
  entry->driver = std::make_unique<SegmentManagerDriver>(*this, entry->segment);
  IndexEntryLocked(entry);
  return entry->driver.get();
}

// ---------------------------------------------------------------------------
// Mapper crash recovery (DESIGN.md §11)
// ---------------------------------------------------------------------------

void SegmentManager::MapperRecovered(MapperServer* server, uint64_t records_replayed,
                                     uint64_t records_discarded) {
  std::vector<Cache*> affected;
  {
    MutexLock lock(mu_);
    ++stats_.recoveries;
    for (Entry& entry : entries_) {
      if (entry.cache == nullptr) {
        continue;
      }
      // Valid capability: routed by port.  Invalid capability: an unbacked
      // temporary whose first pushOut would go to the default mapper — if that
      // is the one that crashed, it may be sitting degraded on a failed
      // first-pushOut and needs the same re-drive.
      const bool routed = entry.segment->valid()
                              ? entry.segment->port == server->port()
                              : server == default_mapper_;
      if (routed) {
        affected.push_back(entry.cache);
      }
    }
  }
  // Sync() re-issues every requeued dirty page (pushOut); the first success
  // clears the cache's degraded flag and wakes the threads sleeping on its
  // pages.  Caches with nothing dirty are a no-op.  A still-failing sync leaves
  // the cache degraded — recovery is only complete when the pushes land.
  for (Cache* cache : affected) {
    Status s = cache->Sync();
    if (s != Status::kOk) {
      GVM_LOG(Debug) << "post-recovery sync failed: " << StatusName(s);
    }
  }
  mm_.NoteMapperRecovery(records_replayed, records_discarded);
}

Result<Capability> SegmentManager::LocalCacheCapability(Cache* cache) {
  MutexLock lock(mu_);
  Entry* entry = FindByCache(cache);
  if (entry == nullptr) {
    return Status::kNotFound;
  }
  if (entry->local_key == 0) {
    entry->local_key = next_local_key_++;
  }
  return Capability{local_port_, entry->local_key};
}

Result<Cache*> SegmentManager::ResolveLocalCache(const Capability& cap) {
  if (cap.port != local_port_) {
    return Status::kPermissionDenied;
  }
  MutexLock lock(mu_);
  for (Entry& entry : entries_) {
    if (entry.local_key == cap.key) {
      return entry.cache;
    }
  }
  return Status::kNotFound;
}

size_t SegmentManager::CachedSegmentCount() const {
  MutexLock lock(mu_);
  return unreferenced_.size();
}

Status SegmentManager::CheckInvariants() const {
  MutexLock lock(mu_);
  bool ok = true;
  auto fail = [&ok](const char* what) {
    GVM_LOG(Error) << "segment manager invariant violated: " << what;
    ok = false;
  };
  size_t permanent = 0;
  size_t pooled = 0;
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    const Entry& entry = *it;
    if (entry.self != it) {
      fail("entry's stored position is stale");
    }
    auto by_cache = by_cache_.find(entry.cache);
    if (by_cache == by_cache_.end() || by_cache->second != &entry) {
      fail("entry missing from the cache index");
    }
    if (!entry.temporary) {
      ++permanent;
      auto by_segment = by_segment_.find(*entry.segment);
      if (by_segment == by_segment_.end() || by_segment->second != &entry) {
        fail("permanent entry missing from the segment index");
      }
    }
    if (entry.pooled()) {
      ++pooled;
      if (*entry.lru_pos != &entry) {
        fail("pooled entry has a stale LRU position");
      }
    }
  }
  if (by_cache_.size() != entries_.size() || by_segment_.size() != permanent) {
    fail("an index holds an entry that entries_ does not");
  }
  if (pooled != unreferenced_.size()) {
    fail("the LRU pool holds an entry that is not an idle permanent one");
  }
  return ok ? Status::kOk : Status::kBusError;
}

}  // namespace gvm
