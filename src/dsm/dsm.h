// Distributed coherent virtual memory over the GMI (paper section 3.3.3):
//
//   "A segment server may need to control some aspects of caching.  For instance,
//    to implement distributed coherent virtual memory [Li & Hudak], it needs to
//    flush and/or lock the cache at times.  The GMI provides operations flush,
//    sync, invalidate and setProtection to control the cache state."
//
// This module builds exactly that: a cluster of simulated *sites*, each running
// its own memory manager and Nucleus, sharing segments kept coherent by a
// home-based single-writer/multiple-reader write-invalidate protocol.  The
// protocol is implemented entirely with the GMI/mapper machinery:
//   * reads pull pages in with a read-only fill protection;
//   * a write triggers the getWriteAccess upcall; the home directory then recalls
//     the data from the current owner (cache.sync + cache.setProtection) and
//     invalidates the other readers (cache.invalidate) before granting;
//   * dirty pages flow home through ordinary pushOut/mapper-write traffic.
//
// Unlike the original in-process toy, every protocol step now crosses SimNet
// (src/dsm/net.h): a lossy, partitionable, latency-injected simulated
// interconnect with per-link sequence numbers and receiver-side dedup, so
// recalls and invalidation acks are idempotently re-issuable.  The home keeps
// a real per-segment directory — owner + sharer *bitmap* per page, transitions
// batched into one message per contiguous per-site range — and journals every
// state transition and committed writeback through a write-ahead log built on
// the same checksummed record machinery as the journaled swap mapper
// (src/nucleus/journal_record.h).  Whole sites can crash (their caches and
// uncommitted stores are lost; the home's last committed bytes stay
// authoritative) and later re-join, at which point the directory drains the
// grants left pending by the death exactly once.  DESIGN.md section 12 has the
// full protocol walkthrough and the oracle invariants OracleCheck() enforces.
#ifndef GVM_SRC_DSM_DSM_H_
#define GVM_SRC_DSM_DSM_H_

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/dsm/net.h"
#include "src/fault/fault_injector.h"
#include "src/hal/phys_memory.h"
#include "src/hal/soft_mmu.h"
#include "src/nucleus/nucleus.h"
#include "src/pvm/paged_vm.h"

namespace gvm {

using SiteId = int;

class DsmCluster;

// One machine in the cluster: its own physical memory, MMU, PVM and Nucleus.
class DsmSite {
 public:
  DsmSite(DsmCluster& cluster, SiteId id, size_t frames, size_t page_size);
  ~DsmSite();

  SiteId id() const { return id_; }
  Nucleus& nucleus() { return *nucleus_; }
  PagedVm& vm() { return *vm_; }
  Actor& actor() { return *actor_; }

  // Map a shared segment into this site's actor.
  Result<Region*> MapShared(const std::string& segment_name, Vaddr va, uint64_t size,
                            Prot prot);

  // Push every dirty shared page home through the protocol.  While a link is
  // down, writebacks fail and the PVM trips the cache into degraded mode
  // (writes refused so dirty data cannot silently accumulate); after the
  // network heals, one successful sync clears that state — the site-level
  // "recover after the partition" step.
  [[nodiscard]] Status SyncShared();

  // Typed accessors against the site's actor (the "application").
  [[nodiscard]] Status Read(Vaddr va, void* buffer, size_t size) { return actor_->Read(va, buffer, size); }
  [[nodiscard]] Status Write(Vaddr va, const void* buffer, size_t size) {
    return actor_->Write(va, buffer, size);
  }
  template <typename T>
  Result<T> Load(Vaddr va) {
    T value{};
    Status s = Read(va, &value, sizeof(T));
    if (s != Status::kOk) {
      return s;
    }
    return value;
  }
  template <typename T>
  [[nodiscard]] Status Store(Vaddr va, T value) {
    return Write(va, &value, sizeof(T));
  }

 private:
  friend class DsmCluster;
  friend class CoherentMapper;

  DsmCluster& cluster_;
  SiteId id_;
  std::unique_ptr<PhysicalMemory> memory_;
  std::unique_ptr<SoftMmu> mmu_;
  std::unique_ptr<PagedVm> vm_;
  std::unique_ptr<Nucleus> nucleus_;
  std::unique_ptr<SwapMapper> swap_;
  std::unique_ptr<MapperServer> swap_server_;
  std::unique_ptr<class CoherentMapper> coherent_;
  std::unique_ptr<MapperServer> coherent_server_;
  Actor* actor_ = nullptr;
  // Shared-segment key -> the site's local cache (held referenced while mapped).
  std::map<uint64_t, Cache*> shared_caches_;
};

// The home directory of the shared segments: per-page owner and sharer bitmap,
// plus the authoritative bytes.  Plays the role of Li & Hudak's manager, but
// reached only through SimNet messages and journaling every transition.
class DsmCluster {
 public:
  struct Stats {
    uint64_t read_faults = 0;        // pages served to readers
    uint64_t write_grants = 0;       // ownership transfers
    uint64_t invalidations = 0;      // remote copies invalidated (pages)
    uint64_t recalls = 0;            // dirty ranges recalled from an owner
    uint64_t network_messages = 0;   // simulated protocol messages delivered
    uint64_t network_bytes = 0;      // simulated wire bytes for those messages
    uint64_t network_drops = 0;      // delivery attempts lost in transit
    uint64_t network_retransmits = 0;  // extra attempts forced by loss
    uint64_t dedup_replays = 0;      // acks replayed from the dedup cache
    uint64_t recall_messages = 0;    // batched kRecall messages sent
    uint64_t invalidate_messages = 0;  // batched kInvalidate messages sent
    uint64_t wal_records = 0;        // directory WAL records appended
    uint64_t writebacks_rejected = 0;  // writebacks refused (not the owner)
    uint64_t transitions_aborted = 0;  // range transitions undone (net/death)
    uint64_t site_crashes = 0;
    uint64_t site_recoveries = 0;
    uint64_t pending_grants_recorded = 0;  // grants parked by a target's death
    uint64_t pending_grants_drained = 0;   // grants drained at SiteRecovered
  };

  explicit DsmCluster(size_t page_size);
  ~DsmCluster();

  DsmSite* AddSite(size_t frames = 256);
  DsmSite* site(SiteId id) { return sites_[id].get(); }
  size_t SiteCount() const { return sites_.size(); }

  // Create a shared segment of `size` bytes, initially zero.
  [[nodiscard]] Status CreateSharedSegment(const std::string& name, uint64_t size);

  // Snapshot of the protocol counters (safe to call concurrently with traffic).
  Stats stats() const GVM_EXCLUDES(dir_mu_);
  size_t page_size() const { return page_size_; }

  // The simulated interconnect: tests drive partitions, link policies and
  // seeded loss through it directly.
  SimNet& net() { return net_; }

  // Arms kNetDeliver/kNetPartition on the net and kCrashSite* in the sites'
  // protocol handlers.  Null disarms; the injector must outlive the cluster.
  void BindFaultInjector(FaultInjector* injector);

  // --- cross-site crash recovery -------------------------------------------
  //
  // CrashSite models the whole machine dying: its cached (and uncommitted
  // dirty) pages are lost, its node drops off the net, and the directory
  // clears its owner/sharer bits — the home's last *committed* bytes stay
  // authoritative.  Grants that were in flight toward the dead site are
  // parked.  RecoverSite re-joins the node and sends kSiteRecovered to the
  // home, which drains the parked grants exactly once (the drained count comes
  // back; a second recovery without a new crash drains zero).  A crash
  // injected inside a protocol handler tears the site down on a separate
  // thread (see CrashSiteFromHandler); RecoverSite and OracleCheck wait for
  // that teardown before they look at the site.
  [[nodiscard]] Status CrashSite(SiteId site) GVM_EXCLUDES(dir_mu_);
  Result<uint64_t> RecoverSite(SiteId site) GVM_EXCLUDES(dir_mu_);
  bool SiteCrashed(SiteId site) const GVM_EXCLUDES(dir_mu_);

  // --- shadow oracle --------------------------------------------------------
  //
  // Verifies, on a quiesced cluster, that (a) every page satisfies the
  // single-writer invariant (an owned page has no sharers), (b) only live
  // sites appear in the directory, (c) no transition latch is stuck, and
  // (d) replaying the WAL from empty reproduces exactly the live directory
  // state *and* the authoritative bytes — i.e. no committed store was lost
  // and no uncommitted store leaked in.  Returns kOk or fills *diagnostic.
  [[nodiscard]] Status OracleCheck(std::string* diagnostic = nullptr) GVM_EXCLUDES(dir_mu_);

  uint64_t WalRecordCount() const GVM_EXCLUDES(wal_mu_);

  // Introspection for tests: current owner of a page (-1 if none) and reader set.
  SiteId OwnerOf(const std::string& name, SegOffset page_offset) GVM_EXCLUDES(dir_mu_);
  std::set<SiteId> ReadersOf(const std::string& name, SegOffset page_offset)
      GVM_EXCLUDES(dir_mu_);

 private:
  friend class DsmSite;
  friend class CoherentMapper;

  // Per-page directory line.  Sharers are a bitmap (site ids are dense and
  // small); `busy` latches the page while a range transition is in flight so
  // conflicting transitions serialize without holding dir_mu_ across sends.
  struct PageDir {
    SiteId owner = -1;       // site with write access, or -1
    uint64_t sharers = 0;    // bitmap of sites holding read-only copies
    bool busy = false;
  };
  struct Segment {
    uint64_t key = 0;
    uint64_t size = 0;
    std::map<SegOffset, std::vector<std::byte>> data;  // authoritative bytes
    std::map<SegOffset, PageDir> pages;
  };
  // One batched home->site control message: a contiguous page range.
  struct RangeOp {
    SiteId target = -1;
    SegOffset offset = 0;
    uint64_t size = 0;
    bool recall = false;  // recall (sync + demote) vs plain invalidate
  };
  // A write grant parked because its target site died mid-transition.
  struct PendingGrant {
    uint64_t key = 0;
    SegOffset offset = 0;
    uint64_t size = 0;
  };

  static uint64_t SiteBit(SiteId site) { return 1ull << site; }

  Segment* FindSegment(uint64_t key) GVM_REQUIRES(dir_mu_);
  Result<uint64_t> LookupSegment(const std::string& name) GVM_EXCLUDES(dir_mu_);

  // Directory entry points (run in the home node's net handler, no locks held).
  [[nodiscard]] Status DirectoryRead(SiteId reader, uint64_t key, SegOffset offset, size_t size,
                       std::vector<std::byte>* out) GVM_EXCLUDES(dir_mu_);
  [[nodiscard]] Status DirectoryWriteBack(SiteId writer, uint64_t key, SegOffset offset,
                            const std::byte* data, size_t size) GVM_EXCLUDES(dir_mu_);
  [[nodiscard]] Status DirectoryAcquireWrite(SiteId writer, uint64_t key, SegOffset offset,
                               size_t size) GVM_EXCLUDES(dir_mu_);
  Prot DirectoryFillProt(SiteId reader, uint64_t key, SegOffset offset)
      GVM_EXCLUDES(dir_mu_);
  uint64_t DirectorySiteRecovered(SiteId site) GVM_EXCLUDES(dir_mu_);

  // Latch [offset, offset+size) of `segment` busy (waiting out conflicting
  // transitions), collect the batched recalls/invalidates the transition
  // needs, and return the page-aligned range.  dir_mu_ is held on entry and
  // exit; the latch protects the range after dir_mu_ drops.  Returns kBusy if
  // a conflicting transition outlasts the deadline (cross-site deadlock
  // avoidance: the aborted waiter unwinds a fill the latch holder may be
  // blocked on).
  [[nodiscard]] Status LatchRange(Segment* segment, SegOffset offset, size_t size,
                    SegOffset* first, SegOffset* end) GVM_REQUIRES(dir_mu_);
  void UnlatchRange(Segment* segment, SegOffset first, SegOffset end)
      GVM_REQUIRES(dir_mu_);
  // Group the recalls/invalidates a transition needs into one RangeOp per
  // (site, contiguous page run) — the "one message per region op" batching.
  std::vector<RangeOp> PlanEvictions(Segment* segment, SegOffset first, SegOffset end,
                                     SiteId except, bool want_exclusive)
      GVM_REQUIRES(dir_mu_);
  // Send one batched control message; returns the remote status.
  [[nodiscard]] Status SendRangeOp(uint64_t key, const RangeOp& op) GVM_EXCLUDES(dir_mu_);

  // Site-node handler bodies (run on the delivering thread, no locks held).
  void HandleSiteMessage(DsmSite* site, const NetMessage& request, NetMessage* reply);

  // A site crash in two steps.  BeginCrash claims the site's crashing bit,
  // takes its node off the net (calls to or from it fail fast from then on)
  // and counts the death; FinishCrash wipes its caches, marks it dead in the
  // directory and releases the bit.  The wipe waits for the site's fills in
  // flight, and those complete only once their network calls unwind.
  [[nodiscard]] Status BeginCrash(SiteId site) GVM_EXCLUDES(dir_mu_);
  void FinishCrash(SiteId site) GVM_EXCLUDES(dir_mu_);
  // The crash fault sites fire inside a recall, on a thread that may itself be
  // mid-fill at another site; two such crashes waiting on each other's fills
  // would deadlock.  So the handler only runs BeginCrash and hands FinishCrash
  // to a teardown thread.
  void CrashSiteFromHandler(SiteId site) GVM_EXCLUDES(dir_mu_);
  // Join the teardown thread of `site`, or of every site when `site` is -1.
  void JoinTeardowns(SiteId site) GVM_EXCLUDES(dir_mu_);
  void HandleHomeMessage(const NetMessage& request, NetMessage* reply);

  // WAL: append a state record for one page (owner + sharers) or a data
  // record (committed page bytes).  Appends happen under dir_mu_; wal_mu_
  // (rank kClient) nests inside it.
  void WalAppendState(uint64_t key, SegOffset page, const PageDir& dir)
      GVM_REQUIRES(dir_mu_) GVM_EXCLUDES(wal_mu_);
  void WalAppendData(uint64_t key, SegOffset page, const std::byte* bytes,
                     size_t size) GVM_REQUIRES(dir_mu_) GVM_EXCLUDES(wal_mu_);
  void WalAppendEvent(uint8_t type, uint64_t site, uint64_t arg)
      GVM_EXCLUDES(wal_mu_);

  const size_t page_size_;
  SimNet net_;  // gvm-lint: allow(annotation-coverage): internally synchronized (SimNet::mu_)
  std::atomic<FaultInjector*> injector_{nullptr};

  // Topology is fixed at construction; per-site state synchronizes itself.
  std::vector<std::unique_ptr<DsmSite>> sites_;  // gvm-lint: allow(annotation-coverage): immutable after construction

  // The home directory proper.  Entered only from net-handler context (no
  // kernel lock held); never held across a network send — range transitions
  // drop it and rely on the per-page busy latch instead.
  mutable Mutex dir_mu_{Rank::kDsmDirectory, "DsmCluster::dir_mu_"};
  CondVar dir_cv_;  // signalled when a busy latch clears
  std::map<std::string, uint64_t> names_ GVM_GUARDED_BY(dir_mu_);
  std::map<uint64_t, Segment> segments_ GVM_GUARDED_BY(dir_mu_);
  uint64_t next_key_ GVM_GUARDED_BY(dir_mu_) = 1;
  uint64_t dead_sites_ GVM_GUARDED_BY(dir_mu_) = 0;  // bitmap
  std::map<SiteId, std::vector<PendingGrant>> pending_grants_ GVM_GUARDED_BY(dir_mu_);
  // Teardown threads started by CrashSiteFromHandler, not yet joined.
  std::map<SiteId, std::thread> teardowns_ GVM_GUARDED_BY(dir_mu_);
  // Per-site teardown-in-progress bitmap.  CrashSite raises a site's bit for
  // the whole crash sequence (port death, cache wipe, directory scrub); the
  // home refuses kSiteRecovered while it is up, so a racing RecoverSite can
  // never clear the directory's death mark *before* the crash records it —
  // which would strand the site as directory-dead on a live network.
  std::atomic<uint64_t> crashing_sites_{0};

  // Directory write-ahead log (in-memory byte stream of checksummed records,
  // same format as the journaled swap mapper's store).
  mutable Mutex wal_mu_{Rank::kClient, "DsmCluster::wal_mu_"};
  std::vector<std::byte> wal_ GVM_GUARDED_BY(wal_mu_);
  uint64_t wal_seq_ GVM_GUARDED_BY(wal_mu_) = 0;

  // Protocol counters: plain atomics so handler threads bump them without a
  // lock and stats() can snapshot them concurrently.
  std::atomic<uint64_t> read_faults_{0};
  std::atomic<uint64_t> write_grants_{0};
  std::atomic<uint64_t> invalidations_{0};
  std::atomic<uint64_t> recalls_{0};
  std::atomic<uint64_t> recall_messages_{0};
  std::atomic<uint64_t> invalidate_messages_{0};
  std::atomic<uint64_t> wal_records_{0};
  std::atomic<uint64_t> writebacks_rejected_{0};
  std::atomic<uint64_t> transitions_aborted_{0};
  std::atomic<uint64_t> site_crashes_{0};
  std::atomic<uint64_t> site_recoveries_{0};
  std::atomic<uint64_t> pending_grants_recorded_{0};
  std::atomic<uint64_t> pending_grants_drained_{0};
};

}  // namespace gvm

#endif  // GVM_SRC_DSM_DSM_H_
