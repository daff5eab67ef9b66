// Standalone observability report: runs the mixed workload on the main
// remote configurations and dumps each testbed's full registry snapshot
// as JSON — per-procedure latency histograms, byte counters, and the
// link/crypto/disk/CPU time split (docs/OBSERVABILITY.md).
//
// Usage: obs_report [--text] [--timeline] [--bench_json_dir=<dir>]
//                   [--sfs_cost_model=<profile>]
//   --text      human-readable SnapshotText() instead of JSON, with a
//               gauge section and a trace-ring footer.
//   --timeline  append the windowed telemetry timeline (virtual-time
//               tracks + episode annotations) for each configuration;
//               implies the text rendering for the timeline itself.
//   --bench_json_dir, --sfs_cost_model  as for every bench binary: where
//               BENCH_obs_report.json goes (default ".") and which cost
//               model the testbeds charge.
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/obs_report.h"

int main(int argc, char** argv) {
  bool text = false;
  bool timeline = false;
  std::string json_dir = ".";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--text") == 0) {
      text = true;
    } else if (std::strcmp(argv[i], "--timeline") == 0) {
      timeline = true;
    } else if (!bench::ConsumeBenchFlag(argv[i], &json_dir)) {
      std::fprintf(stderr,
                   "usage: %s [--text] [--timeline] [--bench_json_dir=<dir>] "
                   "[--sfs_cost_model=<profile>]\n",
                   argv[0]);
      return 2;
    }
  }

  if (!text && !timeline) {
    bench::BenchReport report("obs_report");
    report.set_profile(bench::ActiveCostModel().profile);
    std::fputs(bench::ObsReportJson(&report).c_str(), stdout);
    report.WriteTo(json_dir);
    return 0;
  }
  for (bench::Config config :
       {bench::Config::kNfsUdp, bench::Config::kSfs, bench::Config::kSfsNoCrypt}) {
    std::string timeline_text;
    std::string snapshot =
        bench::RunObsWorkload(config, text, /*elapsed_virtual_ns=*/nullptr,
                              timeline ? &timeline_text : nullptr);
    if (text) {
      std::printf("=== %s ===\n%s\n", bench::ConfigName(config), snapshot.c_str());
    }
    if (timeline) {
      std::printf("=== %s timeline ===\n%s\n", bench::ConfigName(config),
                  timeline_text.c_str());
    }
  }
  return 0;
}
