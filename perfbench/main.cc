// Benchmark driver: runs one named workload with a seed and prints every
// metric by name and unit, then one JSON result line.
//
//   perfbench --workload sfs_small --seed 7 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics from an untraced pass.
// --trace 1 reports the per-layer metrics: it runs an untraced pass and an
// observed pass of seconds/2 each (their ratio is trace.overhead, and their
// virtual-time oracles must agree exactly), then the oracle prefix once
// more with the program's span collector on.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "perfbench/bench.h"

namespace {

using perfbench::Mode;
using perfbench::PassResult;

// Set-ups per measured run; setup_s is the median of their
// speed-normalized times, each timed on its own SpeedScale.
constexpr int kSetupRuns = 7;

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},       {"ops_per_s", "1/s"},     {"mb_per_s", "MB/s"},
    {"op_p50_us", "us"},    {"op_p99_us", "us"},      {"ok_op_ratio", "ratio"},
    {"peak_rss_mb", "MB"},  {"virt_s", "s"},          {"virt_op_p50_us", "us"},
    {"virt_op_p99_us", "us"},
};

constexpr Metric kPerLayer[] = {
    {"vfs.open.host_us", "us"},
    {"vfs.open.calls", "count"},
    {"vfs.close.host_us", "us"},
    {"vfs.close.calls", "count"},
    {"vfs.pread.host_us", "us"},
    {"vfs.pread.calls", "count"},
    {"vfs.pwrite.host_us", "us"},
    {"vfs.pwrite.calls", "count"},
    {"vfs.unlink.host_us", "us"},
    {"vfs.unlink.calls", "count"},
    {"vfs.stat.host_us", "us"},
    {"vfs.stat.calls", "count"},
    {"nfs.cache.rpcs_per_op", "rpc/op"},
    {"nfs.cache.commits_per_op", "rpc/op"},
    {"sfs.client.host_us_per_rpc", "us"},
    {"sfs.server.host_us_per_rpc", "us"},
    {"sfs.wire.msgs_per_op", "msg/op"},
    {"sfs.wire.bytes_per_op", "B/op"},
    {"sfs.wire.msg_bytes_p50", "B"},
    {"sfs.audit.records_per_op", "rec/op"},
    {"sfs.handshake.host_us", "us"},
    {"sfs.post_handshake.host_us", "us"},
    {"crypto.chan.host_us_per_msg", "us"},
    {"crypto.chan.share", "ratio"},
    {"crypto.pk.host_us_per_connect", "us"},
    {"crypto.pk.share", "ratio"},
    {"rpc.dispatch.host_ns_per_call", "ns"},
    {"rpc.retransmissions", "count"},
    {"rpc.drc_hits", "count"},
    {"rpc.shed", "count"},
    {"nfs.memfs.host_ns_per_call", "ns"},
    {"sim.events_per_op", "event/op"},
    {"sim.loop.host_ns_per_op", "ns"},
    {"sim.host.queue_wait_us_p50", "us"},
    {"sim.host.queue_wait_us_p99", "us"},
    {"virt.share.link", "ratio"},
    {"virt.share.crypto", "ratio"},
    {"virt.share.disk", "ratio"},
    {"virt.share.cpu", "ratio"},
    {"virt.share.syscall", "ratio"},
    {"virt.share.wait", "ratio"},
    {"virt.share.app", "ratio"},
    {"virt.share.queue", "ratio"},
    {"virt.crit.vfs.us_per_op", "us"},
    {"virt.crit.nfs.cache.us_per_op", "us"},
    {"virt.crit.rpc.us_per_op", "us"},
    {"virt.crit.sfs.chan.us_per_op", "us"},
    {"virt.crit.sim.link.us_per_op", "us"},
    {"virt.crit.sim.host.us_per_op", "us"},
    {"virt.crit.sim.disk.us_per_op", "us"},
    {"trace.overhead", "ratio"},
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;
  std::map<std::string, size_t> samples;

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
  }

  void Add(const std::string& name, double value, size_t n) {
    values[name] = value;
    samples[name] = n;
  }

  // Adds a percentile; one with fewer than kMinBeyond samples above it
  // fails the run's check.
  void AddPercentile(const std::string& name, std::vector<double> samples_ns, double q) {
    const perfbench::Quantile p = perfbench::Percentile(&samples_ns, q);
    Check(p.legal(), name + ": only " + std::to_string(p.beyond) + " of " +
                         std::to_string(p.samples) + " samples beyond it");
    Add(name, p.value / 1000.0, p.samples);
  }

  void CheckPass(const PassResult& pass, const char* label) {
    for (const std::string& error : pass.errors) {
      Check(false, std::string(label) + ": " + error);
    }
    Check(pass.ok == pass.attempted, std::string(label) + ": " +
                                         std::to_string(pass.attempted - pass.ok) +
                                         " ops failed their output check");
    Check(pass.ledger_ok, std::string(label) + ": time.<category>_ns do not sum to time.total_ns");
    attempted += pass.attempted;
    failed += pass.attempted - pass.ok;
  }

  // Prints a table with sample counts, then the JSON result line.
  void Print(const Metric* metrics, size_t count) {
    std::string body;
    for (size_t i = 0; i < count; ++i) {
      double value = values.count(metrics[i].name) != 0 ? values[metrics[i].name] : 0.0;
      if (!std::isfinite(value)) {
        Check(false, std::string(metrics[i].name) + " is not finite");
        value = 0;
      }
      char buf[512];
      std::snprintf(buf, sizeof(buf), "%-34s %16.6f %-8s n=%zu\n", metrics[i].name, value,
                    metrics[i].unit, samples[metrics[i].name]);
      std::fputs(buf, stdout);
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name, value, metrics[i].unit);
      body += buf;
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), body.c_str());
  }
};

std::unique_ptr<perfbench::Workload> Make(const std::string& name, uint64_t seed, Mode mode) {
  auto workload = perfbench::MakeWorkload(name, seed, mode);
  if (workload == nullptr) {
    throw std::invalid_argument("unknown workload " + name);
  }
  return workload;
}

// Sets up a workload whose set-up time is not reported.
void SetUp(perfbench::Workload* workload) {
  perfbench::SpeedScale timer;
  workload->Setup(&timer);
}

bool SameOracle(const perfbench::Oracle& a, const perfbench::Oracle& b) {
  return a.virt_ns == b.virt_ns && a.op_virt_ns == b.op_virt_ns &&
         a.wire_messages == b.wire_messages;
}

void EndToEnd(const std::string& name, uint64_t seed, double seconds) {
  Report report;
  std::vector<double> setup_ns;
  std::unique_ptr<perfbench::Workload> workload;
  for (int r = 0; r < kSetupRuns; ++r) {
    workload.reset();
    workload = Make(name, seed, Mode::kPlain);
    perfbench::SpeedScale timer;
    workload->Setup(&timer);
    timer.EndWindow();
    setup_ns.push_back(timer.NormalizedNs());
  }
  PassResult pass = workload->Run(seconds, /*oracle_only=*/false);
  report.CheckPass(pass, "timed phase");

  report.Add("setup_s", perfbench::Percentile(&setup_ns, 0.5).value * 1e-9, setup_ns.size());
  report.Add("ops_per_s", static_cast<double>(pass.attempted) / pass.host_s, pass.attempted);
  report.Add("mb_per_s", static_cast<double>(pass.payload_bytes) / pass.host_s / 1e6,
             pass.attempted);
  report.AddPercentile("op_p50_us", pass.op_host_ns, 0.50);
  report.AddPercentile("op_p99_us", pass.op_host_ns, 0.99);
  report.Add("ok_op_ratio",
             pass.attempted == 0 ? 0.0
                                 : static_cast<double>(pass.ok) / static_cast<double>(pass.attempted),
             pass.attempted);
  report.Add("virt_s", static_cast<double>(pass.oracle.virt_ns) * 1e-9,
             pass.oracle.op_virt_ns.size());
  report.AddPercentile("virt_op_p50_us", pass.oracle.op_virt_ns, 0.50);
  report.AddPercentile("virt_op_p99_us", pass.oracle.op_virt_ns, 0.99);
  report.Add("peak_rss_mb", pass.peak_rss_mb, 1);
  report.Print(kEndToEnd, std::size(kEndToEnd));
}

void Traced(const std::string& name, uint64_t seed, double seconds) {
  Report report;
  auto plain_workload = Make(name, seed, Mode::kPlain);
  SetUp(plain_workload.get());
  const PassResult plain = plain_workload->Run(seconds / 2, false);
  plain_workload.reset();
  report.CheckPass(plain, "untraced pass");

  auto observed_workload = Make(name, seed, Mode::kObserved);
  SetUp(observed_workload.get());
  PassResult observed = observed_workload->Run(seconds / 2, false);
  observed_workload.reset();
  report.CheckPass(observed, "observed pass");
  report.Check(SameOracle(plain.oracle, observed.oracle),
               "observers changed virtual time or wire message counts");

  auto span_workload = Make(name, seed, Mode::kSpans);
  SetUp(span_workload.get());
  const PassResult spans = span_workload->Run(0, /*oracle_only=*/true);
  span_workload.reset();
  report.CheckPass(spans, "span pass");

  for (const auto& [metric, value] : observed.layers) {
    report.Add(metric, value, observed.attempted);
  }
  for (const auto& [metric, value] : spans.layers) {
    report.Add(metric, value, spans.attempted);
  }
  const double plain_rate = static_cast<double>(plain.attempted) / plain.host_s;
  const double observed_rate = static_cast<double>(observed.attempted) / observed.host_s;
  report.Add("trace.overhead", 1.0 - observed_rate / plain_rate, observed.attempted);
  report.Print(kPerLayer, std::size(kPerLayer));
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      break;
    }
    args[argv[i] + 2] = argv[i + 1];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (args.count(required) == 0) {
      std::fprintf(stderr,
                   "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n");
      return 2;
    }
  }
  try {
    const uint64_t seed = std::stoull(args["seed"]);
    const double seconds = std::stod(args["seconds"]);
    if (args["trace"] == "0") {
      EndToEnd(args["workload"], seed, seconds);
    } else if (args["trace"] == "1") {
      Traced(args["workload"], seed, seconds);
    } else {
      throw std::invalid_argument("--trace must be 0 or 1");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
