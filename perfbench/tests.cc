// The benchmark's own tests: the percentile rules, the generated inputs,
// and proof that the observers are invisible to the program.
//
//   python3 perfbench/run.py --selftest
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/nfs/memfs.h"
#include "src/sim/clock.h"
#include "src/sim/disk.h"

namespace perfbench {
namespace {

TEST(Percentile, NearestRankWithSampleCounts) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) {
    v.push_back(i);
  }
  std::vector<double> copy = v;
  const Quantile p50 = Percentile(&copy, 0.5);
  EXPECT_EQ(p50.value, 50);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_EQ(p50.beyond, 50u);
  EXPECT_TRUE(p50.legal());
  copy = v;
  const Quantile p99 = Percentile(&copy, 0.99);
  EXPECT_EQ(p99.value, 99);
  EXPECT_EQ(p99.beyond, 1u);
  EXPECT_FALSE(p99.legal());
}

TEST(Percentile, NeverLegalWithFewerThanTenSamplesBeyond) {
  EXPECT_EQ(MinSamples(0.99), 1000u);
  EXPECT_EQ(MinSamples(0.5), 20u);
  for (size_t n : {MinSamples(0.99) - 1, MinSamples(0.99)}) {
    std::vector<double> v(n, 1.0);
    const Quantile p = Percentile(&v, 0.99);
    EXPECT_EQ(p.legal(), p.beyond >= kMinBeyond);
    EXPECT_EQ(p.legal(), n >= 1000);
  }
  std::vector<double> empty;
  EXPECT_FALSE(Percentile(&empty, 0.5).legal());
}

// nfs_fleet latency: host ns per op over consecutive batches of
// kFleetBatch completions; a trailing partial batch is dropped.
TEST(BatchLatency, DefinitionIsPinned) {
  ASSERT_EQ(kFleetBatch, 128u);
  BatchLatency batches(kFleetBatch, /*start_ns=*/1000);
  uint64_t t = 1000;
  for (size_t i = 0; i < kFleetBatch; ++i) {
    batches.Complete(t += 10);
  }
  for (size_t i = 0; i < kFleetBatch; ++i) {
    batches.Complete(t += 30);
  }
  for (size_t i = 0; i < kFleetBatch - 1; ++i) {
    batches.Complete(t += 1000);
  }
  ASSERT_EQ(batches.per_op_ns().size(), 2u);
  EXPECT_DOUBLE_EQ(batches.per_op_ns()[0], 10.0);
  EXPECT_DOUBLE_EQ(batches.per_op_ns()[1], 30.0);
}

// Reference slices and paused stretches are not active time, so a set-up
// or pass is not charged for the benchmark's own work.
TEST(SpeedScale, SlicesAndPausesAreNotActiveTime) {
  SpeedScale timer;
  const uint64_t started = HostNs();
  while (timer.ActiveNs() < 3 * kRefEveryNs) {
    timer.Tick();
  }
  timer.Pause();
  for (const uint64_t t0 = HostNs(); HostNs() - t0 < kRefEveryNs;) {
  }
  timer.Resume();
  timer.EndWindow();
  const double wall = static_cast<double>(HostNs() - started);
  EXPECT_GE(timer.window(), 3u);
  EXPECT_GE(timer.RawNs(), 3.0 * kRefEveryNs);
  // Neither the pause nor the slices (about kRefSliceNs each) count.
  EXPECT_LE(timer.RawNs(),
            wall - kRefEveryNs - static_cast<double>(timer.window()) * kRefSliceNs / 2);
  EXPECT_GT(timer.NormalizedNs(), 0.0);
}

TEST(Content, MisplacedOrStaleBlocksDiffer) {
  const util::Bytes block = Content(7, 3, 2, 65536);
  EXPECT_EQ(block, Content(7, 3, 2, 65536));
  EXPECT_NE(block, Content(7, 4, 2, 65536));  // Misplaced: another block's bytes.
  EXPECT_NE(block, Content(7, 3, 1, 65536));  // Stale: an older version.
  EXPECT_NE(block, Content(8, 3, 2, 65536));  // Another seed.
  EXPECT_EQ(Content(7, 3, 2, 1000).size(), 1000u);
}

TEST(Observers, WireTapForwardsBytesUnchanged) {
  WireTap tap;
  const util::Bytes request = Content(1, 1, 1, 333);
  const util::Bytes response = Content(1, 2, 1, 77);
  auto forwarded = tap.OnRequest(request);
  ASSERT_TRUE(forwarded.ok());
  EXPECT_EQ(*forwarded, request);
  auto returned = tap.OnResponse(response);
  ASSERT_TRUE(returned.ok());
  EXPECT_EQ(*returned, response);
  EXPECT_FALSE(tap.DuplicateRequest());
  EXPECT_EQ(tap.requests, 1u);
  EXPECT_EQ(tap.message_bytes, (std::vector<double>{333, 77}));
}

class ReverseService : public sim::Service {
 public:
  util::Result<util::Bytes> Handle(const util::Bytes& request) override {
    return util::Bytes(request.rbegin(), request.rend());
  }
};

TEST(Observers, TimedServiceForwardsBytesUnchanged) {
  ReverseService inner;
  TimedService timed(&inner);
  const util::Bytes request = Content(2, 1, 1, 100);
  auto direct = inner.Handle(request);
  auto wrapped = timed.Handle(request);
  ASSERT_TRUE(direct.ok() && wrapped.ok());
  EXPECT_EQ(*wrapped, *direct);
  EXPECT_EQ(timed.calls, 1u);
}

TEST(Observers, TimedFsForwardsCallsUnchanged) {
  sim::Clock clock;
  sim::Disk disk(&clock, sim::DiskProfile::Ibm18Es());
  nfs::MemFs memfs(&clock, &disk, nfs::MemFs::Options{});
  TimedFs timed(&memfs);
  const nfs::Credentials root = nfs::Credentials::User(0);
  nfs::FileHandle fh;
  nfs::Fattr attr;
  ASSERT_EQ(timed.Create(memfs.root_handle(), "f", root, nfs::Sattr{}, &fh, &attr), nfs::Stat::kOk);
  const util::Bytes data = Content(3, 1, 1, 5000);
  ASSERT_EQ(timed.Write(fh, root, 0, data, true, &attr), nfs::Stat::kOk);
  util::Bytes via_timed;
  util::Bytes direct;
  bool eof = false;
  ASSERT_EQ(timed.Read(fh, root, 0, 8192, &via_timed, &eof), nfs::Stat::kOk);
  ASSERT_EQ(memfs.Read(fh, root, 0, 8192, &direct, &eof), nfs::Stat::kOk);
  EXPECT_EQ(via_timed, data);
  EXPECT_EQ(direct, data);
  EXPECT_EQ(timed.WriteVerf(), memfs.WriteVerf());
  EXPECT_EQ(timed.calls, 3u);
}

PassResult OraclePass(const std::string& name, uint64_t seed, Mode mode) {
  std::unique_ptr<Workload> workload = MakeWorkload(name, seed, mode);
  SpeedScale timer;
  workload->Setup(&timer);
  return workload->Run(0, /*oracle_only=*/true);
}

void ExpectClean(const PassResult& pass) {
  EXPECT_TRUE(pass.errors.empty()) << (pass.errors.empty() ? "" : pass.errors.front());
  EXPECT_EQ(pass.ok, pass.attempted);
  EXPECT_TRUE(pass.ledger_ok);
}

class EveryWorkload : public ::testing::TestWithParam<std::string> {};

// The sizes keep every reported p99 legal: the oracle prefix has enough
// ops for the virtual p99, and the timed phase always runs on until it
// has enough host samples for op_p99_us.
TEST_P(EveryWorkload, SizesKeepP99Legal) {
  std::unique_ptr<Workload> workload = MakeWorkload(GetParam(), 1, Mode::kPlain);
  EXPECT_GE(workload->oracle_ops(), MinSamples(0.99));
  SpeedScale timer;
  workload->Setup(&timer);
  PassResult pass = workload->Run(0, /*oracle_only=*/false);
  ExpectClean(pass);
  EXPECT_TRUE(Percentile(&pass.op_host_ns, 0.99).legal());
  EXPECT_TRUE(Percentile(&pass.oracle.op_virt_ns, 0.99).legal());
}

// Same seed: byte-identical virtual time, traced or not.  Another seed:
// other inputs, every op still correct.
TEST_P(EveryWorkload, DeterministicAndObserversInvisible) {
  const PassResult plain = OraclePass(GetParam(), 11, Mode::kPlain);
  const PassResult again = OraclePass(GetParam(), 11, Mode::kPlain);
  const PassResult observed = OraclePass(GetParam(), 11, Mode::kObserved);
  const PassResult other = OraclePass(GetParam(), 12, Mode::kPlain);
  for (const PassResult* pass : {&plain, &again, &observed, &other}) {
    ExpectClean(*pass);
  }
  EXPECT_EQ(plain.oracle.virt_ns, again.oracle.virt_ns);
  EXPECT_EQ(plain.oracle.op_virt_ns, again.oracle.op_virt_ns);
  EXPECT_EQ(plain.oracle.virt_ns, observed.oracle.virt_ns);
  EXPECT_EQ(plain.oracle.op_virt_ns, observed.oracle.op_virt_ns);
  EXPECT_EQ(plain.oracle.wire_messages, observed.oracle.wire_messages);
  EXPECT_GT(plain.oracle.wire_messages, 0u);
  // Every virt_* metric moves with the inputs.
  EXPECT_NE(plain.oracle.virt_ns, other.oracle.virt_ns);
  for (double q : {0.5, 0.99}) {
    std::vector<double> a = plain.oracle.op_virt_ns;
    std::vector<double> b = other.oracle.op_virt_ns;
    EXPECT_NE(Percentile(&a, q).value, Percentile(&b, q).value) << "q=" << q;
  }
  EXPECT_FALSE(observed.layers.empty());
}

INSTANTIATE_TEST_SUITE_P(Workloads, EveryWorkload, ::testing::ValuesIn(WorkloadNames()));

}  // namespace
}  // namespace perfbench
