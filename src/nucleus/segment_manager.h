// The segment manager: the Nucleus interface between mappers and a GMI
// implementation (paper section 5.1.2).
//
// "The segment manager maps each segment used on the site to a GMI local-cache.
// Given a segment capability, the segment manager either finds the corresponding
// local-cache if it exists, or assigns one."  It translates GMI upcalls (pullIn /
// pushOut / getWriteAccess, Table 3) into IPC requests to the segment's mapper,
// allocates temporary local-caches (backed lazily by a default mapper's swap
// segments on the first pushOut), and implements the *segment caching* strategy of
// section 5.1.3: unreferenced caches are kept as long as there is room, which is
// what makes repeated execs of the same program fast.
//
// Crash recovery (DESIGN.md §11): every state-changing RPC carries a monotonic
// sequence number (Message::arg2) so a crash-safe mapper can deduplicate
// re-issued requests; RPCs are bounded by a deadline and death-linked to the
// mapper's port, so a mapper crash surfaces as kPortDead instead of a hang; and
// MapperRecovered() re-drives every cache routed to a recovered mapper so
// requeued dirty pages drain and degraded segments exit.
#ifndef GVM_SRC_NUCLEUS_SEGMENT_MANAGER_H_
#define GVM_SRC_NUCLEUS_SEGMENT_MANAGER_H_

#include <atomic>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/fault/fault_injector.h"
#include "src/gmi/memory_manager.h"
#include "src/nucleus/ipc.h"
#include "src/nucleus/mapper.h"
#include "src/sync/annotated_mutex.h"

namespace gvm {

class SegmentManager : public SegmentRegistry {
 public:
  struct Options {
    // Maximum number of unreferenced local caches kept alive (segment caching).
    size_t cache_capacity = 16;
    // Route mapper traffic through IPC messages and a served port (true) or call
    // the mapper server's dispatcher in-process (false).  Both exercise the same
    // wire protocol; the threaded mode additionally exercises real concurrency.
    bool use_ipc_transport = false;
    // Mapper RPC retry policy: a transient kBusError (failed transport or mapper
    // I/O error) or kTimeout (deadline expired; the request may or may not have
    // been applied — the sequence number makes re-issue safe) is retried up to
    // this many extra attempts before it is treated as permanent and propagated.
    uint64_t io_retry_limit = 3;
    // Deterministic exponential backoff between attempts: the k-th retry sleeps
    // retry_backoff_us << k microseconds.  0 disables sleeping (tests).
    uint64_t retry_backoff_us = 0;
    // Bound on one IPC-transport RPC round trip, in microseconds (0 = forever).
    // With the death link a crashed mapper fails callers immediately; the
    // deadline additionally covers a mapper that is alive but wedged.
    uint64_t rpc_deadline_us = 500'000;
  };

  struct Stats {
    uint64_t lookups = 0;
    uint64_t cache_hits = 0;        // segment-caching hits (section 5.1.3)
    uint64_t caches_created = 0;
    uint64_t caches_discarded = 0;  // evicted from the unreferenced pool
    uint64_t mapper_reads = 0;
    uint64_t mapper_writes = 0;
    uint64_t temp_segments = 0;     // swap segments allocated on first pushOut
    uint64_t io_retries = 0;            // transient RPC attempts retried
    uint64_t io_permanent_failures = 0; // transient errors that exhausted the retry budget
    uint64_t rpc_timeouts = 0;          // RPC attempts that hit the deadline
    uint64_t rpc_port_deaths = 0;       // RPCs failed fast because the mapper's port died
    uint64_t recoveries = 0;            // MapperRecovered() notifications processed
  };

  SegmentManager(MemoryManager& mm, Ipc& ipc) : SegmentManager(mm, ipc, Options{}) {}
  SegmentManager(MemoryManager& mm, Ipc& ipc, Options options);
  ~SegmentManager() override;

  // Register the default mapper (provides temporary/"swap" segments).  The
  // server's port becomes the default-mapper port.
  void BindDefaultMapper(MapperServer* server) GVM_EXCLUDES(mu_);
  // Register an additional mapper server so its port can be resolved.
  void RegisterMapper(MapperServer* server) GVM_EXCLUDES(mu_);

  // Optional fault injection on the mapper RPC sites (kMapperRead, kMapperWrite,
  // kMapperAllocTemp).  Null disables injection; the injector must outlive this
  // manager.  Injected faults go through the same retry policy as real ones.
  void BindFaultInjector(FaultInjector* injector) {
    injector_.store(injector, std::memory_order_release);
  }

  // Find or create the local cache for a segment capability.  Takes a reference;
  // pair with Release().  (The paper's rgnMap path.)
  Result<Cache*> AcquireCache(const Capability& segment) GVM_EXCLUDES(mu_);

  // Create a temporary local cache (the paper's rgnAllocate path): zero-filled,
  // acquires a swap segment from the default mapper on first pushOut.
  Result<Cache*> AcquireTemporaryCache(std::string name) GVM_EXCLUDES(mu_);

  // Drop a reference.  Unreferenced permanent caches enter the segment cache;
  // unreferenced temporary caches are destroyed (their contents are meaningless
  // once unreferenced).
  void Release(Cache* cache) GVM_EXCLUDES(mu_);

  // Take an additional reference on a cache returned by Acquire* earlier.
  void AddRef(Cache* cache) GVM_EXCLUDES(mu_);

  // ---- SegmentRegistry (GMI upcall, Table 3 segmentCreate) ----
  SegmentDriver* SegmentCreate(Cache& cache) override GVM_EXCLUDES(mu_);

  // A registered mapper server crashed, had its durable state recovered
  // (journal replayed), and was restarted on the same port.  Re-drives every
  // cache whose segment routes to that mapper — Sync() re-issues the requeued
  // dirty pages (same sequence numbers, so an applied-but-unacked write is
  // deduplicated) and a successful push clears degraded mode and wakes
  // sleepers — then reports the recovery to the memory manager.
  void MapperRecovered(MapperServer* server, uint64_t records_replayed,
                       uint64_t records_discarded) GVM_EXCLUDES(mu_);

  // Local-cache capability (section 5.1.2): lets remote mappers invoke cache
  // control operations through this manager.
  Result<Capability> LocalCacheCapability(Cache* cache) GVM_EXCLUDES(mu_);
  Result<Cache*> ResolveLocalCache(const Capability& cap) GVM_EXCLUDES(mu_);

  // Snapshot by value: RPC paths bump counters concurrently under mu_.
  Stats stats() const GVM_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return stats_;
  }
  size_t CachedSegmentCount() const GVM_EXCLUDES(mu_);  // unreferenced pool size
  // Recomputes the lookup indexes and the LRU pool from entries_ by brute
  // force; kOk, or kBusError with the mismatch logged.
  [[nodiscard]] Status CheckInvariants() const GVM_EXCLUDES(mu_);
  MemoryManager& mm() { return mm_; }

 private:
  friend class SegmentManagerDriver;

  struct Entry {
    // Shared with the driver: a memory manager may keep a "dying" cache (and thus
    // its driver) alive for deferred-copy descendants after the entry is gone.
    std::shared_ptr<Capability> segment = std::make_shared<Capability>();
    Cache* cache = nullptr;
    std::unique_ptr<SegmentDriver> driver;
    int refs = 0;
    bool temporary = false;
    uint64_t local_key = 0;      // key of the local-cache capability
    std::list<Entry>::iterator self;  // position in entries_
    // Position in unreferenced_, valid while the entry is pooled (pooled()).
    std::list<Entry*>::iterator lru_pos;
    // Exactly the idle permanent entries sit in the segment-cache pool.
    bool pooled() const { return !temporary && refs == 0; }
  };
  // Segment-cache key: a capability's (port, key).
  struct SegmentHash {
    size_t operator()(const Capability& c) const {
      return std::hash<uint64_t>()(c.key * 0x9e3779b97f4a7c15ull ^ c.port);
    }
  };

  // Mapper RPC used by the drivers (marshals into the wire protocol).  All are
  // called with mu_ released: an RPC may block for a full deadline.
  [[nodiscard]] Status MapperRead(const Capability& segment, SegOffset offset, size_t size,
                    std::vector<std::byte>* out, Prot* max_prot = nullptr)
      GVM_EXCLUDES(mu_);
  [[nodiscard]] Status MapperWrite(const Capability& segment, SegOffset offset, const std::byte* data,
                     size_t size) GVM_EXCLUDES(mu_);
  [[nodiscard]] Status MapperWriteAccess(const Capability& segment, SegOffset offset, size_t size)
      GVM_EXCLUDES(mu_);
  Result<Capability> MapperAllocTemp(size_t size_hint) GVM_EXCLUDES(mu_);
  [[nodiscard]] Status MapperFree(const Capability& segment) GVM_EXCLUDES(mu_);
  Result<Message> MapperCall(PortId port, Message request) GVM_EXCLUDES(mu_);
  // One logical RPC under the retry policy: evaluates the injection site, issues
  // the call, retries transient kBusError/kTimeout with deterministic backoff
  // (re-using the request verbatim, sequence number included), fails fast on
  // kPortDead, and guarantees reply->status == kOk on success.
  Result<Message> RetryingMapperCall(FaultSite site, PortId port, const Message& request)
      GVM_EXCLUDES(mu_);

  // Capability snapshot/adoption for the drivers (the segment slot is shared
  // mutable state once push-outs run concurrently).
  Capability SnapshotSegment(const std::shared_ptr<Capability>& slot) const
      GVM_EXCLUDES(mu_);
  // First-pushOut race resolution: install `fresh` into the slot unless another
  // thread won; the loser's segment is freed back to the mapper.  Returns the
  // capability the slot ended up holding.
  Capability AdoptTempSegment(const std::shared_ptr<Capability>& slot,
                              const Capability& fresh) GVM_EXCLUDES(mu_);

  Entry* FindBySegment(const Capability& segment) GVM_REQUIRES(mu_);
  Entry* FindByCache(Cache* cache) GVM_REQUIRES(mu_);
  // Appends a fresh entry to entries_; IndexEntryLocked enters it in the
  // lookup tables once its cache exists.
  Entry* NewEntryLocked() GVM_REQUIRES(mu_);
  void IndexEntryLocked(Entry* entry) GVM_REQUIRES(mu_);
  // O(1) removal of a pooled entry from the unreferenced LRU pool.
  void LruRemoveLocked(Entry* entry) GVM_REQUIRES(mu_);
  // Unlinks the entry from the tables and parks its driver in the graveyard,
  // returning the cache to destroy *after* mu_ is released (Cache::Destroy may
  // re-enter this manager through pushOut upcalls).
  Cache* DetachEntryLocked(Entry* entry) GVM_REQUIRES(mu_);

  MemoryManager& mm_;
  Ipc& ipc_;
  const Options options_;
  std::atomic<FaultInjector*> injector_{nullptr};
  // Monotonic sequence numbers stamped into Message::arg2, one per *logical*
  // state-changing RPC (retries re-use the number: that is what makes them
  // idempotent against a mapper that applied the request but lost the ack).
  std::atomic<uint64_t> next_rpc_seq_{1};

  // Rank kSegmentManager sits below every lock the manager can reach while
  // held: the MM manager lock (CacheCreate/Destroy), the mapper serve lock and
  // stores (in-process RPC), and Ipc (transport RPC).
  mutable Mutex mu_{Rank::kSegmentManager, "SegmentManager::mu_"};
  MapperServer* default_mapper_ GVM_GUARDED_BY(mu_) = nullptr;
  std::map<PortId, MapperServer*> mappers_ GVM_GUARDED_BY(mu_);
  std::list<Entry> entries_ GVM_GUARDED_BY(mu_);
  // Keyed indexes over entries_, so acquire, release and segmentCreate cost
  // the same however many segments are live.  by_segment_ holds permanent
  // entries only (temporaries are never looked up by segment).
  std::unordered_map<Cache*, Entry*> by_cache_ GVM_GUARDED_BY(mu_);
  std::unordered_map<Capability, Entry*, SegmentHash> by_segment_ GVM_GUARDED_BY(mu_);
  // Drivers of destroyed entries, kept alive for dying caches that still
  // reference them (see Entry::segment).
  std::vector<std::unique_ptr<SegmentDriver>> driver_graveyard_ GVM_GUARDED_BY(mu_);
  // Unreferenced entries in LRU order (front = oldest), for segment caching.
  std::list<Entry*> unreferenced_ GVM_GUARDED_BY(mu_);
  const PortId local_port_;  // port identifying this manager's capabilities
  uint64_t next_local_key_ GVM_GUARDED_BY(mu_) = 1;
  uint64_t temp_counter_ GVM_GUARDED_BY(mu_) = 0;
  Stats stats_ GVM_GUARDED_BY(mu_);
};

}  // namespace gvm

#endif  // GVM_SRC_NUCLEUS_SEGMENT_MANAGER_H_
