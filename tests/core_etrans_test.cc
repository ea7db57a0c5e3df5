// eTrans engine unit tests: descriptor handling, executor selection,
// ownership semantics, chunking, and lease behavior.

#include "src/core/etrans.h"

#include <gtest/gtest.h>

#include "src/core/runtime.h"

namespace unifab {
namespace {

ClusterConfig TwoFamCluster() {
  ClusterConfig cfg;
  cfg.num_hosts = 2;
  cfg.num_fams = 2;
  cfg.num_faas = 0;
  return cfg;
}

class ETransTest : public ::testing::Test {
 protected:
  ETransTest() : cluster_(TwoFamCluster()), runtime_(&cluster_, RuntimeOptions{}) {}

  Cluster cluster_;
  UniFabricRuntime runtime_;
};

TEST_F(ETransTest, ValidateAndSizeSumsSegments) {
  ETransDescriptor d;
  d.src = {Segment{1, 0, 100}, Segment{1, 4096, 200}};
  d.dst = {Segment{2, 0, 300}};
  EXPECT_EQ(ETransEngine::ValidateAndSize(d), 300u);
}

TEST_F(ETransTest, MultiSegmentScatterGatherMovesEverything) {
  ETransDescriptor d;
  // Gather two host regions into one FAM region, then a split destination.
  d.src = {Segment{cluster_.host(0)->id(), 0, 8192},
           Segment{cluster_.host(0)->id(), 1 << 20, 8192}};
  d.dst = {Segment{cluster_.fam(0)->id(), 0, 4096},
           Segment{cluster_.fam(0)->id(), 1 << 16, 12288}};
  d.immediate = true;
  d.attributes.throttled = false;

  TransferFuture f = runtime_.etrans()->Submit(runtime_.host_agent(0), d);
  cluster_.engine().Run();
  ASSERT_TRUE(f.Ready());
  EXPECT_EQ(f.Value().bytes, 16384u);
  EXPECT_EQ(runtime_.host_agent(0)->stats().bytes_moved, 16384u);
}

TEST_F(ETransTest, ChunkSizeControlsTransactionCount) {
  ETransDescriptor d;
  d.src = {Segment{cluster_.host(0)->id(), 0, 64 * 1024}};
  d.dst = {Segment{cluster_.fam(0)->id(), 0, 64 * 1024}};
  d.immediate = true;
  d.attributes.throttled = false;
  d.attributes.chunk_bytes = 16 * 1024;  // 4 chunks

  runtime_.etrans()->Submit(runtime_.host_agent(0), d);
  cluster_.engine().Run();
  // Each chunk is one fabric write transaction (source side is local DRAM).
  EXPECT_EQ(cluster_.host(0)->fha()->stats().writes_completed, 4u);
}

TEST_F(ETransTest, ExecutorOwnershipSkipsInitiatorNotification) {
  ETransDescriptor d;
  d.src = {Segment{cluster_.fam(0)->id(), 0, 4096}};
  d.dst = {Segment{cluster_.fam(0)->id(), 1 << 20, 4096}};
  d.ownership = Ownership::kExecutor;
  d.attributes.throttled = false;

  TransferFuture f = runtime_.etrans()->Submit(runtime_.host_agent(0), d);
  cluster_.engine().Run();
  // Work happened on the FAM agent, but nobody fulfilled the initiator's
  // future: completion belongs to the executor.
  EXPECT_EQ(runtime_.fam_agent(0)->stats().jobs_executed, 1u);
  EXPECT_FALSE(f.Ready());
}

TEST_F(ETransTest, InitiatorOwnershipNotifiesAcrossFabric) {
  ETransDescriptor d;
  d.src = {Segment{cluster_.fam(1)->id(), 0, 4096}};
  d.dst = {Segment{cluster_.fam(1)->id(), 1 << 20, 4096}};
  d.ownership = Ownership::kInitiator;
  d.attributes.throttled = false;

  TransferFuture f = runtime_.etrans()->Submit(runtime_.host_agent(1), d);
  cluster_.engine().Run();
  ASSERT_TRUE(f.Ready());
  EXPECT_TRUE(f.Value().ok);
  EXPECT_EQ(f.Value().bytes, 4096u);
}

TEST_F(ETransTest, FamAgentCannotExecuteForeignSegments) {
  // FAM0's controller cannot touch FAM1's memory: the engine must fall back
  // to a host agent.
  ETransDescriptor d;
  d.src = {Segment{cluster_.fam(0)->id(), 0, 4096}};
  d.dst = {Segment{cluster_.fam(1)->id(), 0, 4096}};
  d.attributes.throttled = false;

  EXPECT_FALSE(runtime_.fam_agent(0)->CanExecute(d));
  EXPECT_TRUE(runtime_.host_agent(0)->CanExecute(d));

  TransferFuture f = runtime_.etrans()->Submit(runtime_.host_agent(0), d);
  cluster_.engine().Run();
  ASSERT_TRUE(f.Ready());
  EXPECT_EQ(runtime_.fam_agent(0)->stats().jobs_executed, 0u);
  EXPECT_EQ(runtime_.host_agent(0)->stats().jobs_executed, 1u);
}

TEST_F(ETransTest, ThrottledJobsRenewLeasesOnLongTransfers) {
  // A transfer paced at 500 MB/s for 4 MiB takes ~8 ms >> the 100 us lease,
  // so the agent must renew repeatedly.
  ETransDescriptor d;
  d.src = {Segment{cluster_.host(0)->id(), 0, 4 << 20}};
  d.dst = {Segment{cluster_.fam(0)->id(), 0, 4 << 20}};
  d.attributes.throttled = true;
  d.attributes.request_mbps = 500.0;

  TransferFuture f = runtime_.etrans()->Submit(runtime_.host_agent(0), d);
  cluster_.engine().Run();
  ASSERT_TRUE(f.Ready());
  EXPECT_GT(runtime_.arbiter()->stats().reservations, 10u);
}

TEST_F(ETransTest, PacingApproximatesGrantedRate) {
  ETransDescriptor d;
  d.src = {Segment{cluster_.host(0)->id(), 0, 2 << 20}};
  d.dst = {Segment{cluster_.fam(0)->id(), 0, 2 << 20}};
  d.attributes.throttled = true;
  d.attributes.request_mbps = 1000.0;  // 2 MiB at 1 GB/s ~ 2.1 ms

  const Tick t0 = cluster_.engine().Now();
  TransferFuture f = runtime_.etrans()->Submit(runtime_.host_agent(0), d);
  cluster_.engine().Run();
  ASSERT_TRUE(f.Ready());
  const double ms = ToMs(f.Value().completed_at - t0);
  EXPECT_GT(ms, 1.9);
  EXPECT_LT(ms, 2.6);
}

TEST_F(ETransTest, ConcurrentJobsOnOneAgentAllComplete) {
  int done = 0;
  for (int i = 0; i < 6; ++i) {
    ETransDescriptor d;
    d.src = {Segment{cluster_.host(0)->id(), static_cast<std::uint64_t>(i) << 20, 32 * 1024}};
    d.dst = {Segment{cluster_.fam(i % 2)->id(), static_cast<std::uint64_t>(i) << 20,
                     32 * 1024}};
    d.immediate = true;
    d.attributes.throttled = false;
    TransferFuture f = runtime_.etrans()->Submit(runtime_.host_agent(0), d);
    f.Then([&done](const TransferResult&) { ++done; });
  }
  cluster_.engine().Run();
  EXPECT_EQ(done, 6);
  EXPECT_EQ(runtime_.host_agent(0)->stats().jobs_executed, 6u);
}

TEST_F(ETransTest, StatsAccumulateBytes) {
  ETransDescriptor d;
  d.src = {Segment{cluster_.host(0)->id(), 0, 10000}};
  d.dst = {Segment{cluster_.fam(0)->id(), 0, 10000}};
  d.immediate = true;
  d.attributes.throttled = false;
  runtime_.etrans()->Submit(runtime_.host_agent(0), d);
  cluster_.engine().Run();
  EXPECT_EQ(runtime_.etrans()->stats().bytes_requested, 10000u);
  EXPECT_EQ(runtime_.host_agent(0)->stats().bytes_moved, 10000u);
  EXPECT_EQ(runtime_.host_agent(0)->stats().job_latency_us.Count(), 1u);
}

// --- Failure recovery: deadlines, backoff retries, terminal status. -------

TEST(ETransBackoffTest, LeaseBackoffIsMonotoneAndCapped) {
  EXPECT_EQ(MigrationAgent::LeaseBackoff(0), FromUs(5.0));
  EXPECT_EQ(MigrationAgent::LeaseBackoff(1), FromUs(10.0));
  for (int r = 1; r < 8; ++r) {
    EXPECT_GE(MigrationAgent::LeaseBackoff(r), MigrationAgent::LeaseBackoff(r - 1));
  }
  // The cap holds for any retry count, including ones that would overflow a
  // naive 5us << retries.
  EXPECT_EQ(MigrationAgent::LeaseBackoff(5), FromUs(100.0));
  EXPECT_EQ(MigrationAgent::LeaseBackoff(50), MigrationAgent::LeaseBackoff(6));
  EXPECT_LE(MigrationAgent::LeaseBackoff(1000), FromUs(100.0));
}

TEST(ETransBackoffTest, AttemptDeadlineScalesWithSizeAndRate) {
  ETransDescriptor small;
  small.src = {Segment{1, 0, 4096}};
  small.dst = {Segment{2, 0, 4096}};
  ETransDescriptor big = small;
  big.src[0].bytes = 4 << 20;
  big.dst[0].bytes = 4 << 20;

  const Tick floor = small.attributes.deadline_floor;
  EXPECT_GE(MigrationAgent::AttemptDeadline(small, 8000.0), floor);
  EXPECT_GT(MigrationAgent::AttemptDeadline(big, 8000.0),
            MigrationAgent::AttemptDeadline(small, 8000.0));
  // Slower pacing leaves proportionally more time.
  EXPECT_GT(MigrationAgent::AttemptDeadline(big, 500.0),
            MigrationAgent::AttemptDeadline(big, 8000.0));
}

TEST_F(ETransTest, UnreachableDestinationAbortsAfterRetries) {
  // Kill FAM0's only uplink permanently: every chunk write black-holes, so
  // each attempt dies (MSHR timeout or job watchdog) until retries run out.
  cluster_.fabric().LinkTo(cluster_.fam(0)->id())->Fail();

  ETransDescriptor d;
  d.src = {Segment{cluster_.host(0)->id(), 0, 4096}};
  d.dst = {Segment{cluster_.fam(0)->id(), 0, 4096}};
  d.attributes.throttled = false;
  d.ownership = Ownership::kInitiator;

  TransferFuture f = runtime_.etrans()->Submit(runtime_.host_agent(0), d);
  cluster_.engine().Run();

  ASSERT_TRUE(f.Ready());  // terminal, not wedged
  EXPECT_FALSE(f.Value().ok);
  EXPECT_EQ(f.Value().status, TransferStatus::kAborted);
  const auto& rec = runtime_.etrans()->recovery_stats();
  EXPECT_EQ(rec.jobs_aborted, 1u);
  EXPECT_EQ(rec.retries,
            static_cast<std::uint64_t>(runtime_.etrans()->recovery_config().max_retries));
  EXPECT_EQ(rec.attempt_failures, rec.retries + 1);
  EXPECT_EQ(rec.jobs_recovered, 0u);
}

TEST_F(ETransTest, TransientLinkFailureRecoversViaRetry) {
  Link* uplink = cluster_.fabric().LinkTo(cluster_.fam(0)->id());
  uplink->Fail();
  cluster_.engine().ScheduleAt(FromUs(500.0), [uplink] { uplink->Recover(); });

  ETransDescriptor d;
  d.src = {Segment{cluster_.host(0)->id(), 0, 4096}};
  d.dst = {Segment{cluster_.fam(0)->id(), 0, 4096}};
  d.attributes.throttled = false;
  d.ownership = Ownership::kInitiator;

  TransferFuture f = runtime_.etrans()->Submit(runtime_.host_agent(0), d);
  cluster_.engine().Run();

  ASSERT_TRUE(f.Ready());
  EXPECT_TRUE(f.Value().ok);
  EXPECT_EQ(f.Value().status, TransferStatus::kOk);
  EXPECT_EQ(f.Value().bytes, 4096u);
  const auto& rec = runtime_.etrans()->recovery_stats();
  EXPECT_EQ(rec.jobs_recovered, 1u);
  EXPECT_GE(rec.retries, 1u);
  // Every retry reroutes first.
  EXPECT_EQ(rec.reroutes, rec.retries);
  EXPECT_EQ(rec.jobs_aborted, 0u);
  EXPECT_EQ(rec.time_to_recover_us.Count(), 1u);
}

TEST_F(ETransTest, RemoteDelegationTimesOutWhenExecutorUnreachable) {
  // FAM1-local copy delegates to FAM1's controller agent, but its uplink is
  // dead before the job message is even sent: the engine-side watchdog (not
  // the executor's) must terminate the future.
  cluster_.fabric().LinkTo(cluster_.fam(1)->id())->Fail();

  ETransDescriptor d;
  d.src = {Segment{cluster_.fam(1)->id(), 0, 4096}};
  d.dst = {Segment{cluster_.fam(1)->id(), 1 << 20, 4096}};
  d.attributes.throttled = false;
  d.ownership = Ownership::kInitiator;

  TransferFuture f = runtime_.etrans()->Submit(runtime_.host_agent(0), d);
  cluster_.engine().Run();

  ASSERT_TRUE(f.Ready());
  EXPECT_FALSE(f.Value().ok);
  EXPECT_EQ(f.Value().status, TransferStatus::kAborted);
  // The executor never ran anything; the failure was detected initiator-side.
  EXPECT_EQ(runtime_.fam_agent(1)->stats().jobs_executed, 0u);
  EXPECT_GT(runtime_.etrans()->recovery_stats().jobs_aborted, 0u);
}

// Futures unit behavior.
TEST(FutureTest, ThenAfterFulfillRunsImmediately) {
  DistFuture<int> f;
  f.Fulfill(7);
  int got = 0;
  f.Then([&](const int& v) { got = v; });
  EXPECT_EQ(got, 7);
  EXPECT_TRUE(f.Ready());
  EXPECT_EQ(f.Value(), 7);
}

TEST(FutureTest, MultipleContinuationsAllFire) {
  DistFuture<int> f;
  int sum = 0;
  f.Then([&](const int& v) { sum += v; });
  f.Then([&](const int& v) { sum += v * 10; });
  f.Fulfill(3);
  EXPECT_EQ(sum, 33);
}

TEST(FutureTest, CopiesShareState) {
  DistFuture<int> a;
  DistFuture<int> b = a;
  int got = 0;
  b.Then([&](const int& v) { got = v; });
  a.Fulfill(5);
  EXPECT_EQ(got, 5);
  EXPECT_EQ(a.ownership(), Ownership::kInitiator);
  b.set_ownership(Ownership::kDetached);
  EXPECT_EQ(a.ownership(), Ownership::kDetached);
}

}  // namespace
}  // namespace unifab
