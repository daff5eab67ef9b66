// Locks the benchmark testbed's qualitative results into the test suite:
// the orderings the paper reports must hold on every build, so a cost-
// model or caching regression fails fast here rather than silently
// skewing EXPERIMENTS.md.
#include <gtest/gtest.h>

#include "bench/testbed.h"
#include "bench/workloads.h"

namespace {

using bench::Config;
using bench::Testbed;

double FchownLatencySeconds(Config config) {
  Testbed tb(config);
  std::string dir = tb.WorkDir();
  auto file = tb.vfs()->Open(tb.user(), dir + "/t", vfs::OpenFlags::CreateRw());
  EXPECT_TRUE(file.ok());
  nfs::Sattr chown;
  chown.uid = 4242;
  sim::Stopwatch watch(tb.clock());
  for (int i = 0; i < 50; ++i) {
    (void)file->SetAttr(chown);
  }
  return watch.elapsed_seconds() / 50;
}

TEST(BenchSmokeTest, Fig5LatencyOrdering) {
  double udp = FchownLatencySeconds(Config::kNfsUdp);
  double tcp = FchownLatencySeconds(Config::kNfsTcp);
  double sfs = FchownLatencySeconds(Config::kSfs);
  double sfs_nocrypt = FchownLatencySeconds(Config::kSfsNoCrypt);
  EXPECT_LT(udp, tcp);
  EXPECT_LT(tcp, sfs_nocrypt);
  EXPECT_LT(sfs_nocrypt, sfs);
  // The paper's headline ratio: SFS ~4x NFS/UDP on latency.
  EXPECT_GT(sfs / udp, 3.0);
  EXPECT_LT(sfs / udp, 5.0);
  // Encryption is a small fraction of the extra latency (§4.2).
  EXPECT_LT((sfs - sfs_nocrypt) / (sfs - udp), 0.2);
}

double SeqReadSeconds(Config config, size_t mb) {
  Testbed tb(config);
  std::string dir = tb.WorkDir();
  bench::Check(tb.vfs()->Open(tb.user(), dir + "/s", vfs::OpenFlags::CreateRw()).status(),
               "create");
  bench::Check(tb.vfs()->Truncate(tb.user(), dir + "/s", mb << 20), "truncate");
  tb.DropClientCaches();
  auto file = tb.vfs()->Open(tb.user(), dir + "/s", vfs::OpenFlags::ReadOnly());
  EXPECT_TRUE(file.ok());
  sim::Stopwatch watch(tb.clock());
  for (uint64_t off = 0; off < (mb << 20); off += 8192) {
    (void)file->Pread(off, 8192);
  }
  return watch.elapsed_seconds();
}

TEST(BenchSmokeTest, Fig5ThroughputOrdering) {
  double udp = SeqReadSeconds(Config::kNfsUdp, 8);
  double tcp = SeqReadSeconds(Config::kNfsTcp, 8);
  double sfs = SeqReadSeconds(Config::kSfs, 8);
  double sfs_nocrypt = SeqReadSeconds(Config::kSfsNoCrypt, 8);
  EXPECT_LT(udp, tcp);
  EXPECT_LT(tcp, sfs_nocrypt);
  EXPECT_LT(sfs_nocrypt, sfs);  // Encryption visibly caps streaming.
  // SFS streams at roughly 2-3x less than NFS/UDP (paper: 9.3 vs 4.1).
  EXPECT_GT(sfs / udp, 1.7);
  EXPECT_LT(sfs / udp, 3.5);
}

TEST(BenchSmokeTest, CleanRunReportsZeroRetransmissionsViaRegistry) {
  // The loss-masking machinery must be invisible on a clean link: the
  // registry aggregates that the benchmarks report (link retransmissions,
  // unmatched replies, duplicate-cache hits) all read zero.
  for (Config config : {Config::kNfsUdp, Config::kSfs}) {
    Testbed tb(config);
    std::string dir = tb.WorkDir();
    bench::WriteFile(&tb, dir + "/clean", bench::Content(16 * 1024, /*seed=*/7));
    tb.DropClientCaches();
    bench::ReadFile(&tb, dir + "/clean");
    EXPECT_GT(tb.WireMessages(), 0u) << bench::ConfigName(config);
    EXPECT_EQ(tb.Retransmissions(), 0u) << bench::ConfigName(config);
    EXPECT_EQ(tb.DrcHits(), 0u) << bench::ConfigName(config);
    EXPECT_EQ(tb.registry()->CounterValue("link.retransmissions"), 0u)
        << bench::ConfigName(config);
    EXPECT_EQ(tb.registry()->CounterValue("rpc.client.unmatched_replies"), 0u)
        << bench::ConfigName(config);
    EXPECT_EQ(tb.registry()->CounterValue("link.drops"), 0u) << bench::ConfigName(config);
  }
}

TEST(BenchSmokeTest, MabOrderingAndCachingAblation) {
  auto total = [](Config c) {
    Testbed tb(c);
    return bench::RunMab(&tb).total();
  };
  double local = total(Config::kLocal);
  double udp = total(Config::kNfsUdp);
  double sfs = total(Config::kSfs);
  double nocache = total(Config::kSfsNoCache);
  double nocrypt = total(Config::kSfsNoCrypt);
  EXPECT_LT(local, udp);
  EXPECT_LT(udp, sfs);
  EXPECT_LT(sfs, nocache);   // Enhanced caching earns its keep.
  EXPECT_LT(nocrypt, sfs);   // Encryption costs a little.
  // SFS within ~25% of NFS/UDP on application workloads (paper: 11%).
  EXPECT_LT(sfs / udp, 1.25);
}

TEST(BenchSmokeTest, LfsSmallFileShapes) {
  Testbed udp(Config::kNfsUdp);
  bench::LfsSmallResult nfs_result = bench::RunLfsSmall(&udp, 200);
  Testbed sfs(Config::kSfs);
  bench::LfsSmallResult sfs_result = bench::RunLfsSmall(&sfs, 200);
  // Read phase: latency-bound, SFS ~3-4x slower.
  EXPECT_GT(sfs_result.read / nfs_result.read, 2.0);
  EXPECT_LT(sfs_result.read / nfs_result.read, 6.0);
  // Unlink phase: disk-bound, near parity (within 40%).
  EXPECT_LT(sfs_result.unlink / nfs_result.unlink, 1.4);
  // Create phase: attribute caching keeps SFS in NFS's neighborhood.
  EXPECT_LT(sfs_result.create / nfs_result.create, 1.6);
}

}  // namespace
