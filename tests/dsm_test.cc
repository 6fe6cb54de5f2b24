// Distributed coherent virtual memory built on the GMI cache-control operations
// (section 3.3.3).  These tests drive mapped shared memory from multiple simulated
// sites and check single-writer/multiple-reader coherence — first on a perfect
// network, then through SimNet loss/partition/crash chaos with the shadow
// oracle (DESIGN.md §12) auditing every run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/dsm/dsm.h"
#include "src/dsm/net.h"
#include "src/fault/fault_injector.h"
#include "tests/dsm_harness.h"

namespace gvm {
namespace {

constexpr size_t kPage = 4096;
constexpr Vaddr kBase = 0x10000000;

class DsmTest : public ::testing::Test {
 protected:
  DsmTest() : cluster_(kPage) {
    a_ = cluster_.AddSite();
    b_ = cluster_.AddSite();
    EXPECT_EQ(cluster_.CreateSharedSegment("shm", 8 * kPage), Status::kOk);
    EXPECT_TRUE(a_->MapShared("shm", kBase, 8 * kPage, Prot::kReadWrite).ok());
    EXPECT_TRUE(b_->MapShared("shm", kBase, 8 * kPage, Prot::kReadWrite).ok());
  }

  DsmCluster cluster_;
  DsmSite* a_;
  DsmSite* b_;
};

TEST_F(DsmTest, WriteOnOneSiteVisibleOnAnother) {
  ASSERT_EQ(a_->Store<uint64_t>(kBase, 0xABCDEF), Status::kOk);
  Result<uint64_t> got = b_->Load<uint64_t>(kBase);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 0xABCDEFu);
}

TEST_F(DsmTest, OwnershipMovesToTheWriter) {
  ASSERT_EQ(a_->Store<uint64_t>(kBase, 1), Status::kOk);
  EXPECT_EQ(cluster_.OwnerOf("shm", 0), a_->id());
  // B writes the same page: ownership must transfer and A must be invalidated.
  ASSERT_EQ(b_->Store<uint64_t>(kBase, 2), Status::kOk);
  EXPECT_EQ(cluster_.OwnerOf("shm", 0), b_->id());
  EXPECT_GE(cluster_.stats().invalidations, 1u);
  // A sees B's write.
  EXPECT_EQ(*a_->Load<uint64_t>(kBase), 2u);
}

TEST_F(DsmTest, ReadersShareWithoutInvalidation) {
  ASSERT_EQ(a_->Store<uint64_t>(kBase, 7), Status::kOk);
  uint64_t invalidations = cluster_.stats().invalidations;
  // Both sites read: read sharing, no invalidations.
  EXPECT_EQ(*a_->Load<uint64_t>(kBase), 7u);
  EXPECT_EQ(*b_->Load<uint64_t>(kBase), 7u);
  EXPECT_EQ(*b_->Load<uint64_t>(kBase + 8), 0u);
  EXPECT_EQ(cluster_.stats().invalidations, invalidations);
  auto readers = cluster_.ReadersOf("shm", 0);
  EXPECT_TRUE(readers.contains(b_->id()));
}

TEST_F(DsmTest, PingPongCounter) {
  // The classic DSM ping-pong: two sites increment a shared counter in turns.
  // Every increment after a remote one costs an ownership transfer.
  for (int round = 0; round < 10; ++round) {
    DsmSite* site = (round % 2 == 0) ? a_ : b_;
    Result<uint64_t> value = site->Load<uint64_t>(kBase);
    ASSERT_TRUE(value.ok());
    ASSERT_EQ(site->Store<uint64_t>(kBase, *value + 1), Status::kOk);
  }
  EXPECT_EQ(*a_->Load<uint64_t>(kBase), 10u);
  EXPECT_GE(cluster_.stats().write_grants, 10u);
  EXPECT_GE(cluster_.stats().network_messages, 20u);
}

TEST_F(DsmTest, FalseSharingVsDisjointPages) {
  // Disjoint pages: each site owns its page; after warm-up, no more protocol
  // traffic for local writes.
  ASSERT_EQ(a_->Store<uint64_t>(kBase, 1), Status::kOk);
  ASSERT_EQ(b_->Store<uint64_t>(kBase + kPage, 1), Status::kOk);
  uint64_t messages_after_warmup = cluster_.stats().network_messages;
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(a_->Store<uint64_t>(kBase, i), Status::kOk);
    ASSERT_EQ(b_->Store<uint64_t>(kBase + kPage, i), Status::kOk);
  }
  EXPECT_EQ(cluster_.stats().network_messages, messages_after_warmup);

  // Same page ("false sharing"): every alternation costs messages.
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(a_->Store<uint64_t>(kBase + 2 * kPage, i), Status::kOk);
    ASSERT_EQ(b_->Store<uint64_t>(kBase + 2 * kPage + 8, i), Status::kOk);
  }
  EXPECT_GT(cluster_.stats().network_messages, messages_after_warmup);
  // Coherence held anyway: the last writer's value wins on both.
  EXPECT_EQ(*a_->Load<uint64_t>(kBase + 2 * kPage + 8), 9u);
}

TEST_F(DsmTest, ThreeSites) {
  DsmSite* c = cluster_.AddSite();
  ASSERT_TRUE(c->MapShared("shm", kBase, 8 * kPage, Prot::kReadWrite).ok());
  ASSERT_EQ(a_->Store<uint64_t>(kBase, 0x111), Status::kOk);
  EXPECT_EQ(*b_->Load<uint64_t>(kBase), 0x111u);
  EXPECT_EQ(*c->Load<uint64_t>(kBase), 0x111u);
  // C writes: both A and B get invalidated.
  uint64_t invalidations = cluster_.stats().invalidations;
  ASSERT_EQ(c->Store<uint64_t>(kBase, 0x333), Status::kOk);
  EXPECT_GE(cluster_.stats().invalidations, invalidations + 2);
  EXPECT_EQ(*a_->Load<uint64_t>(kBase), 0x333u);
  EXPECT_EQ(*b_->Load<uint64_t>(kBase), 0x333u);
}

TEST_F(DsmTest, SequentialConsistencyStressAlternating) {
  // A long alternating schedule over several pages; a per-page "last write wins"
  // model checks every read on both sites.
  std::vector<uint64_t> model(4, 0);
  for (int step = 0; step < 200; ++step) {
    DsmSite* site = (step % 3 == 0) ? b_ : a_;
    size_t page = step % 4;
    Vaddr va = kBase + page * kPage;
    if (step % 2 == 0) {
      uint64_t value = 0x5000 + step;
      ASSERT_EQ(site->Store<uint64_t>(va, value), Status::kOk);
      model[page] = value;
    } else {
      Result<uint64_t> got = site->Load<uint64_t>(va);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(*got, model[page]) << "step " << step;
    }
  }
  EXPECT_EQ(a_->vm().CheckInvariants(), Status::kOk);
  EXPECT_EQ(b_->vm().CheckInvariants(), Status::kOk);
}

TEST_F(DsmTest, WalJournalsTransitionsAndOraclePasses) {
  for (int round = 0; round < 6; ++round) {
    DsmSite* site = (round % 2 == 0) ? a_ : b_;
    ASSERT_EQ(site->Store<uint64_t>(kBase, static_cast<uint64_t>(round)), Status::kOk);
  }
  EXPECT_GT(cluster_.WalRecordCount(), 0u);
  std::string diagnostic;
  EXPECT_EQ(cluster_.OracleCheck(&diagnostic), Status::kOk) << diagnostic;
}

TEST_F(DsmTest, StatsSnapshotIsConcurrencySafe) {
  // stats() returns a value snapshot; reading it while traffic runs must not
  // tear or race (TSan is the real judge here).
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      DsmCluster::Stats s = cluster_.stats();
      EXPECT_GE(s.network_messages, last);  // counters only grow
      last = s.network_messages;
    }
  });
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(a_->Store<uint64_t>(kBase, static_cast<uint64_t>(i)), Status::kOk);
    ASSERT_TRUE(b_->Load<uint64_t>(kBase).ok());
  }
  stop.store(true, std::memory_order_release);
  reader.join();
}

TEST_F(DsmTest, WriteBackFromNonOwnerIsRejected) {
  ASSERT_EQ(a_->Store<uint64_t>(kBase, 0xAA), Status::kOk);
  // Forge a writeback from B for a page A owns: the directory must refuse it
  // rather than let a stale or malicious site corrupt authoritative bytes.
  NetMessage forged;
  forged.op = NetOp::kWriteBack;
  forged.key = 1;  // first created segment
  forged.offset = 0;
  forged.size = cluster_.page_size();
  forged.payload.assign(cluster_.page_size(), std::byte{0x5A});
  Result<NetMessage> reply = cluster_.net().Call(b_->id(), kHomeNode, std::move(forged));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->status, Status::kPermissionDenied);
  EXPECT_GE(cluster_.stats().writebacks_rejected, 1u);
  EXPECT_EQ(*a_->Load<uint64_t>(kBase), 0xAAu);
}

// ---------------------------------------------------------------------------
// SimNet: loss, retransmission, dedup, partitions, node death
// ---------------------------------------------------------------------------

TEST(SimNetTest, DropIsAbsorbedByRetransmitWithExactlyOnceDelivery) {
  SimNet net(7);
  std::atomic<int> handled{0};
  net.Register(kHomeNode, [&](const NetMessage& m, NetMessage* r) {
    handled.fetch_add(1);
    r->arg = m.arg * 2;
  });
  net.Register(0, [](const NetMessage&, NetMessage*) {});
  FaultInjector injector(3);
  ASSERT_TRUE(injector.ApplySpec("netdeliver:nth:1"));
  net.BindFaultInjector(&injector);
  NetMessage m;
  m.op = NetOp::kReadReq;
  m.arg = 21;
  Result<NetMessage> reply = net.Call(0, kHomeNode, std::move(m));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->arg, 42u);
  // Whichever half the seeded drop ate (request or reply), the handler ran
  // exactly once and the caller still got its answer.
  EXPECT_EQ(handled.load(), 1);
  SimNet::Stats stats = net.stats();
  EXPECT_EQ(stats.drops, 1u);
  EXPECT_GE(stats.retransmits, 1u);
}

TEST(SimNetTest, HeavyLossNeverDuplicatesHandlerEffects) {
  SimNet net(11);
  std::atomic<int> handled{0};
  net.Register(kHomeNode, [&](const NetMessage&, NetMessage*) { handled.fetch_add(1); });
  net.Register(0, [](const NetMessage&, NetMessage*) {});
  FaultInjector injector(5);
  ASSERT_TRUE(injector.ApplySpec("netdeliver:prob:40:seed=5"));
  net.BindFaultInjector(&injector);
  constexpr int kCalls = 60;
  int delivered = 0;
  for (int i = 0; i < kCalls; ++i) {
    if (net.Call(0, kHomeNode, NetMessage{}).ok()) {
      ++delivered;
    }
  }
  // 40% per-attempt loss with 16 attempts: every call should get through, and
  // dedup must pin handler executions to one per *logical* call even though
  // many attempts were retransmissions of already-handled sequence numbers.
  EXPECT_EQ(delivered, kCalls);
  EXPECT_EQ(handled.load(), kCalls);
  EXPECT_GT(net.stats().drops, 0u);
}

TEST(SimNetTest, PartitionTimesOutThenHealsAndInjectedPartitionPersists) {
  SimNet net(1);
  net.Register(kHomeNode, [](const NetMessage&, NetMessage*) {});
  net.Register(0, [](const NetMessage&, NetMessage*) {});
  net.Partition(0, kHomeNode);
  Result<NetMessage> cut = net.Call(0, kHomeNode, NetMessage{});
  EXPECT_EQ(cut.status(), Status::kTimeout);
  EXPECT_GT(net.stats().partition_rejects, 0u);
  net.Heal(0, kHomeNode);
  EXPECT_TRUE(net.Call(0, kHomeNode, NetMessage{}).ok());

  // An injector-driven partition behaves like an explicit one: it stays down
  // until healed, it does not flicker per message.
  FaultInjector injector(9);
  ASSERT_TRUE(injector.ApplySpec("netpart:nth:1"));
  net.BindFaultInjector(&injector);
  EXPECT_EQ(net.Call(0, kHomeNode, NetMessage{}).status(), Status::kTimeout);
  EXPECT_EQ(net.stats().partitions_injected, 1u);
  EXPECT_EQ(net.Call(0, kHomeNode, NetMessage{}).status(), Status::kTimeout);
  net.HealAll();
  EXPECT_TRUE(net.Call(0, kHomeNode, NetMessage{}).ok());
}

TEST(SimNetTest, DeadNodeFailsFastBothDirections) {
  SimNet net(1);
  net.Register(kHomeNode, [](const NetMessage&, NetMessage*) {});
  net.Register(0, [](const NetMessage&, NetMessage*) {});
  net.SetNodeDead(0, true);
  EXPECT_EQ(net.Call(0, kHomeNode, NetMessage{}).status(), Status::kPortDead);
  EXPECT_EQ(net.Call(kHomeNode, 0, NetMessage{}).status(), Status::kPortDead);
  net.SetNodeDead(0, false);
  EXPECT_TRUE(net.Call(0, kHomeNode, NetMessage{}).ok());
}

// ---------------------------------------------------------------------------
// Cross-site crash recovery
// ---------------------------------------------------------------------------

class DsmRecoveryTest : public DsmTest {};

TEST_F(DsmRecoveryTest, CrashLosesUncommittedKeepsCommitted) {
  // Commit 1 home (B's read recalls it), then write 2 without committing.
  ASSERT_EQ(a_->Store<uint64_t>(kBase, 1), Status::kOk);
  EXPECT_EQ(*b_->Load<uint64_t>(kBase), 1u);
  ASSERT_EQ(a_->Store<uint64_t>(kBase, 2), Status::kOk);  // cached at A only
  ASSERT_EQ(cluster_.CrashSite(a_->id()), Status::kOk);
  EXPECT_TRUE(cluster_.SiteCrashed(a_->id()));
  // The uncommitted 2 died with A; the committed 1 is authoritative.
  EXPECT_EQ(*b_->Load<uint64_t>(kBase), 1u);
  Result<uint64_t> drained = cluster_.RecoverSite(a_->id());
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(*a_->Load<uint64_t>(kBase), 1u);  // A re-joins with home's view
  std::string diagnostic;
  EXPECT_EQ(cluster_.OracleCheck(&diagnostic), Status::kOk) << diagnostic;
}

TEST_F(DsmRecoveryTest, InjectedCrashMidRecallLosesOnlyUncommittedData) {
  FaultInjector injector(1);
  cluster_.BindFaultInjector(&injector);
  ASSERT_EQ(a_->Store<uint64_t>(kBase, 5), Status::kOk);  // A owns, 5 uncommitted
  ASSERT_TRUE(injector.ApplySpec("crashsiterecall:nth:1"));
  // B's read recalls A; A dies *before* syncing: the recall fails with
  // kPortDead, the home serves its last committed bytes (still zero).
  EXPECT_EQ(*b_->Load<uint64_t>(kBase), 0u);
  EXPECT_TRUE(cluster_.SiteCrashed(a_->id()));
  EXPECT_EQ(cluster_.stats().site_crashes, 1u);
  ASSERT_TRUE(cluster_.RecoverSite(a_->id()).ok());
  EXPECT_EQ(*a_->Load<uint64_t>(kBase), 0u);
  std::string diagnostic;
  EXPECT_EQ(cluster_.OracleCheck(&diagnostic), Status::kOk) << diagnostic;
}

TEST_F(DsmRecoveryTest, InjectedCrashBeforeAckKeepsCommittedWriteback) {
  FaultInjector injector(1);
  cluster_.BindFaultInjector(&injector);
  ASSERT_EQ(a_->Store<uint64_t>(kBase, 7), Status::kOk);
  ASSERT_TRUE(injector.ApplySpec("crashsiteack:nth:1"));
  // A dies *after* its writeback committed but before the recall ack: the ack
  // is lost, the data is not — B reads the recalled 7.
  EXPECT_EQ(*b_->Load<uint64_t>(kBase), 7u);
  EXPECT_TRUE(cluster_.SiteCrashed(a_->id()));
  ASSERT_TRUE(cluster_.RecoverSite(a_->id()).ok());
  EXPECT_EQ(*a_->Load<uint64_t>(kBase), 7u);
  std::string diagnostic;
  EXPECT_EQ(cluster_.OracleCheck(&diagnostic), Status::kOk) << diagnostic;
}

TEST_F(DsmRecoveryTest, PendingGrantDrainedExactlyOnceOnRejoin) {
  // Warm A as a sharer first (so its store goes straight to kAcquireWrite,
  // not a read fill), then slow the home<->B link: invalidating sharer B gives
  // a wide window in which A's grant is in flight; crash A inside it.
  ASSERT_EQ(b_->Store<uint64_t>(kBase, 1), Status::kOk);  // B owns page 0
  ASSERT_EQ(*a_->Load<uint64_t>(kBase), 1u);              // A and B now share it
  SimNet::LinkPolicy slow;
  slow.latency_us = 200'000;  // wide enough for the crash below on a loaded machine
  cluster_.net().SetLinkPolicy(kHomeNode, b_->id(), slow);
  const uint64_t invalidations_before = cluster_.stats().invalidate_messages;
  std::thread writer([&] {
    (void)a_->Store<uint64_t>(kBase, 2);  // fails: A dies mid-transition
  });
  // Crash A once its grant is in flight, i.e. once the home has latched the
  // page and sent B the slow invalidation.  A fixed sleep here raced the
  // writer thread's start on a loaded machine: A died before asking.
  for (int i = 0; i < 2000 && cluster_.stats().invalidate_messages == invalidations_before;
       ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  ASSERT_EQ(cluster_.CrashSite(a_->id()), Status::kOk);
  writer.join();
  cluster_.net().SetLinkPolicy(kHomeNode, b_->id(), SimNet::LinkPolicy{});

  ASSERT_GE(cluster_.stats().pending_grants_recorded, 1u);
  Result<uint64_t> first = cluster_.RecoverSite(a_->id());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, cluster_.stats().pending_grants_recorded);
  // A second crash/recovery cycle must not re-drain anything: the drain is
  // exactly-once per death.
  ASSERT_EQ(cluster_.CrashSite(a_->id()), Status::kOk);
  Result<uint64_t> second = cluster_.RecoverSite(a_->id());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, 0u);
  EXPECT_EQ(*a_->Load<uint64_t>(kBase), 1u);  // B's committed value survived
  std::string diagnostic;
  EXPECT_EQ(cluster_.OracleCheck(&diagnostic), Status::kOk) << diagnostic;
}

TEST_F(DsmRecoveryTest, PartitionAbortsTransitionWithoutSplitBrain) {
  ASSERT_EQ(a_->Store<uint64_t>(kBase, 3), Status::kOk);  // A owns page 0
  cluster_.net().Partition(kHomeNode, a_->id());
  // B cannot take ownership while the home cannot reach A: the grant must
  // abort (no second writer), not proceed on stale state.
  EXPECT_NE(b_->Store<uint64_t>(kBase, 4), Status::kOk);
  EXPECT_GE(cluster_.stats().transitions_aborted, 1u);
  EXPECT_EQ(cluster_.OwnerOf("shm", 0), a_->id());
  cluster_.net().HealAll();
  ASSERT_EQ(b_->Store<uint64_t>(kBase, 4), Status::kOk);
  EXPECT_EQ(cluster_.OwnerOf("shm", 0), b_->id());
  EXPECT_EQ(*a_->Load<uint64_t>(kBase), 4u);
  std::string diagnostic;
  EXPECT_EQ(cluster_.OracleCheck(&diagnostic), Status::kOk) << diagnostic;
}

// ---------------------------------------------------------------------------
// Multithreaded coherence hunters
// ---------------------------------------------------------------------------

TEST(DsmHunterTest, ConcurrentWritersOnAdjacentPages) {
  // One writer thread per site, each hammering its own page — all pages
  // adjacent, so every eviction/recall brushes against its neighbours'
  // transitions.  Each thread verifies its own read-back; the oracle audits
  // the directory afterwards.
  constexpr size_t kSmallPage = 512;
  DsmCluster cluster(kSmallPage);
  constexpr int kSites = 4;
  std::vector<DsmSite*> sites;
  for (int i = 0; i < kSites; ++i) {
    sites.push_back(cluster.AddSite(64));
  }
  const Vaddr base = 0x20000000;
  ASSERT_EQ(cluster.CreateSharedSegment("adj", kSites * kSmallPage), Status::kOk);
  for (DsmSite* site : sites) {
    ASSERT_TRUE(site->MapShared("adj", base, kSites * kSmallPage, Prot::kReadWrite).ok());
  }
  std::vector<std::string> failures(kSites);
  std::vector<std::thread> threads;
  for (int s = 0; s < kSites; ++s) {
    threads.emplace_back([&, s] {
      Vaddr va = base + static_cast<size_t>(s) * kSmallPage;
      for (uint64_t i = 1; i <= 150; ++i) {
        if (sites[static_cast<size_t>(s)]->Store<uint64_t>(va, i) != Status::kOk) {
          failures[static_cast<size_t>(s)] = "store failed";
          return;
        }
        Result<uint64_t> got = sites[static_cast<size_t>(s)]->Load<uint64_t>(va);
        if (!got.ok() || *got != i) {
          failures[static_cast<size_t>(s)] =
              "read-back diverged at iteration " + std::to_string(i);
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (int s = 0; s < kSites; ++s) {
    EXPECT_TRUE(failures[static_cast<size_t>(s)].empty())
        << "site " << s << ": " << failures[static_cast<size_t>(s)];
  }
  std::string diagnostic;
  EXPECT_EQ(cluster.OracleCheck(&diagnostic), Status::kOk) << diagnostic;
}

TEST(DsmHunterTest, ReaderStormDuringRecalls) {
  // Two sites ping-pong ownership of one page (constant recalls) while a
  // third site's reader threads storm loads of it.  With a single
  // monotonically-increasing writer value, every reader must observe a
  // non-decreasing sequence — a stale regression means an invalidation or
  // recall was lost.
  constexpr size_t kSmallPage = 512;
  DsmCluster cluster(kSmallPage);
  DsmSite* w1 = cluster.AddSite(64);
  DsmSite* w2 = cluster.AddSite(64);
  DsmSite* r = cluster.AddSite(64);
  const Vaddr base = 0x30000000;
  ASSERT_EQ(cluster.CreateSharedSegment("storm", 2 * kSmallPage), Status::kOk);
  for (DsmSite* site : {w1, w2, r}) {
    ASSERT_TRUE(site->MapShared("storm", base, 2 * kSmallPage, Prot::kReadWrite).ok());
  }
  std::atomic<bool> stop{false};
  std::string writer_failure;
  std::thread writer([&] {
    for (uint64_t i = 1; i <= 120; ++i) {
      DsmSite* site = (i % 2 == 0) ? w1 : w2;
      if (site->Store<uint64_t>(base, i) != Status::kOk) {
        writer_failure = "ping-pong store failed at " + std::to_string(i);
        break;
      }
    }
    stop.store(true, std::memory_order_release);
  });
  constexpr int kReaders = 3;
  std::vector<std::string> reader_failures(kReaders);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      uint64_t last = 0;
      while (!stop.load(std::memory_order_acquire)) {
        Result<uint64_t> got = r->Load<uint64_t>(base);
        if (!got.ok()) {
          reader_failures[static_cast<size_t>(t)] = "load failed mid-storm";
          return;
        }
        if (*got < last) {
          reader_failures[static_cast<size_t>(t)] =
              "value regressed from " + std::to_string(last) + " to " +
              std::to_string(*got);
          return;
        }
        last = *got;
      }
    });
  }
  writer.join();
  for (std::thread& thread : readers) {
    thread.join();
  }
  EXPECT_TRUE(writer_failure.empty()) << writer_failure;
  for (int t = 0; t < kReaders; ++t) {
    EXPECT_TRUE(reader_failures[static_cast<size_t>(t)].empty())
        << "reader " << t << ": " << reader_failures[static_cast<size_t>(t)];
  }
  EXPECT_EQ(*r->Load<uint64_t>(base), 120u);
  std::string diagnostic;
  EXPECT_EQ(cluster.OracleCheck(&diagnostic), Status::kOk) << diagnostic;
}

// ---------------------------------------------------------------------------
// Seeded chaos: loss/partition matrices and crash storms, oracle-audited
// ---------------------------------------------------------------------------

TEST(DsmChaosTest, SeededDropAndPartitionMatrix) {
  // >= 8 seeded runs across a loss/partition matrix; each run must end with
  // every committed store intact and the WAL replay matching the live
  // directory bit-for-bit.
  const std::vector<std::vector<std::string>> spec_matrix = {
      {"netdeliver:prob:5:seed=2"},
      {"netdeliver:prob:15:seed=3"},
      {"netdeliver:prob:10:seed=4", "netpart:prob:1:seed=4"},
      {"netdeliver:prob:20:seed=5:latency=50"},
  };
  int runs = 0;
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    for (const auto& specs : spec_matrix) {
      DsmChaosConfig config;
      config.seed = seed;
      config.fault_specs = specs;
      config.sites = 3;
      config.threads_per_site = 2;
      config.steps_per_thread = 120;
      config.partition_storm = true;
      DsmChaosReport report = RunDsmChaos(config);
      ASSERT_TRUE(report.ok) << report.failure;
      EXPECT_GT(report.committed_stores, 0u);
      ++runs;
    }
  }
  EXPECT_GE(runs, 8);
}

TEST(DsmChaosTest, CrashStormWithLossAndRejoins) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    DsmChaosConfig config;
    config.seed = seed;
    config.fault_specs = {"netdeliver:prob:8:seed=" + std::to_string(seed),
                          "crashsiterecall:prob:4:seed=" + std::to_string(seed)};
    config.sites = 4;
    config.threads_per_site = 2;
    config.steps_per_thread = 100;
    config.crash_storm = true;
    config.partition_storm = true;
    DsmChaosReport report = RunDsmChaos(config);
    ASSERT_TRUE(report.ok) << report.failure;
    EXPECT_GT(report.committed_stores, 0u);
  }
}

// Crash-at-every-message-boundary sweep: run the same seeded workload with the
// fault site armed at hit 1, 2, 3, ... until a run completes without the plan
// firing — i.e. the boundary index walked past the last message of the run.
// Every intermediate run must satisfy the oracle.
void BoundarySweep(const std::string& site, int max_boundaries) {
  int n = 1;
  for (; n <= max_boundaries; ++n) {
    DsmChaosConfig config;
    config.seed = 42;
    config.fault_specs = {site + ":nth:" + std::to_string(n)};
    config.sites = 2;
    config.threads_per_site = 1;
    config.steps_per_thread = 10;
    config.pages = 4;
    DsmChaosReport report = RunDsmChaos(config);
    ASSERT_TRUE(report.ok) << site << " at boundary " << n << ": " << report.failure;
    if (report.faults_injected == 0) {
      break;  // the workload has fewer than n boundaries: sweep complete
    }
  }
  EXPECT_LE(n, max_boundaries) << site << " sweep did not converge";
}

TEST(DsmChaosTest, CrashSweepAtEveryRecallBoundaryMidRecall) {
  BoundarySweep("crashsiterecall", 200);
}

TEST(DsmChaosTest, CrashSweepAtEveryRecallBoundaryBeforeAck) {
  BoundarySweep("crashsiteack", 200);
}

TEST(DsmChaosTest, DropSweepAtEveryDeliveryBoundary) {
  BoundarySweep("netdeliver", 2000);
}

}  // namespace
}  // namespace gvm
