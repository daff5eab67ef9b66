// Shared observability-report workload: one testbed, a small mixed
// workload that exercises the common NFS procedures (LOOKUP, GETATTR,
// READ, WRITE, CREATE), then the registry's full JSON snapshot.
//
// Used by the standalone bench/obs_report binary and by fig5_micro's
// --obs flag, so both emit the same per-procedure breakdown shape.
#ifndef SFS_BENCH_OBS_REPORT_H_
#define SFS_BENCH_OBS_REPORT_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/testbed.h"
#include "bench/workloads.h"

namespace bench {

// Runs the mixed workload on a fresh testbed of `config` and returns
// Testbed::ObsSnapshotJson() — counters, per-procedure histograms, and
// the time.<category>_ns split refreshed from the clock's ledger.
// `text` swaps the JSON snapshot for the human-readable SnapshotText().
// `elapsed_virtual_ns`, when non-null, receives the workload's total
// virtual duration (for the BENCH_obs_report.json rows).
// `timeline_text`, when non-null, enables the testbed telemetry
// timeline (100 ms virtual windows) and receives its ToText rendering
// (obs_report --timeline).  Text mode attaches a small registry-backed
// trace ring so the footer can report overwrite pressure
// (trace.ring.dropped) alongside the gauges.
inline std::string RunObsWorkload(Config config, bool text = false,
                                  uint64_t* elapsed_virtual_ns = nullptr,
                                  std::string* timeline_text = nullptr) {
  Testbed tb(config);
  std::string dir = tb.WorkDir();
  if (timeline_text != nullptr) {
    tb.EnableTimeline(100'000'000);
  }
  std::unique_ptr<obs::RingBufferSink> ring;
  if (text) {
    ring = std::make_unique<obs::RingBufferSink>(256, tb.registry());
    tb.registry()->tracer().AddSink(ring.get());
  }
  const uint64_t workload_start_ns = tb.clock()->now_ns();

  // Write phase: CREATE + WRITE (+ the LOOKUPs of path resolution).
  const util::Bytes content = Content(32 * 1024, /*seed=*/99);
  for (int i = 0; i < 8; ++i) {
    WriteFile(&tb, dir + "/f" + std::to_string(i), content);
  }

  // Cold-cache read phase: LOOKUP + GETATTR + READ against the server.
  tb.DropClientCaches();
  for (int i = 0; i < 8; ++i) {
    std::string path = dir + "/f" + std::to_string(i);
    CheckResult(tb.vfs()->Stat(tb.user(), path), "stat");
    ReadFile(&tb, path);
  }
  // GETATTR phase: fstat an already-open handle after the attribute
  // lease/timeout expires, so revalidation needs a bare GETATTR (a
  // path stat would re-LOOKUP instead).
  auto probe = CheckResult(
      tb.vfs()->Open(tb.user(), dir + "/f0", vfs::OpenFlags::ReadOnly()), "open probe");
  for (int i = 0; i < 4; ++i) {
    tb.clock()->Advance(61'000'000'000, obs::TimeCategory::kApp);  // > lease + timeout.
    CheckResult(probe.Stat(), "fstat");
  }

  if (elapsed_virtual_ns != nullptr) {
    *elapsed_virtual_ns = tb.clock()->now_ns() - workload_start_ns;
  }
  if (timeline_text != nullptr) {
    *timeline_text = tb.FinalizeTimeline()->ToText();
  }
  if (text) {
    tb.clock()->ExportTimeCounters(tb.registry());
    std::string out = tb.registry()->SnapshotText();
    // Footer: trace-ring pressure.  The counter only counts overwrites,
    // so a run whose events fit the ring reports 0 dropped.
    tb.registry()->tracer().RemoveSink(ring.get());
    char footer[128];
    std::snprintf(footer, sizeof(footer),
                  "trace ring: %llu events seen (capacity 256), %llu dropped\n",
                  static_cast<unsigned long long>(ring->total_events()),
                  static_cast<unsigned long long>(
                      tb.registry()->CounterValue("trace.ring.dropped")));
    out += footer;
    return out;
  }
  return tb.ObsSnapshotJson();
}

// Emits {"config_name": <snapshot>, ...} for each named configuration.
// `report`, when non-null, gains one row per configuration carrying the
// workload's virtual elapsed time.
inline std::string ObsReportJson(class BenchReport* report = nullptr);

// --- Machine-readable benchmark results ---------------------------------
//
// Every bench/ binary writes BENCH_<name>.json next to its console
// output so tools/bench_compare.py can diff two checkouts without
// scraping tables.  Google-benchmark binaries capture their runs
// through JsonCaptureReporter; custom-main tools (obs_report,
// span_report) add rows by hand with BenchReport::Add.

struct BenchRun {
  std::string name;
  double real_time_s = 0.0;
  double cpu_time_s = 0.0;
  uint64_t iterations = 0;
  std::string label;
  bool error = false;
  std::vector<std::pair<std::string, double>> counters;
};

inline std::string BenchJsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {}

  void Add(BenchRun run) { runs_.push_back(std::move(run)); }

  // Attaches an obs::Timeline::ToJson() blob under `run_name` in the
  // report's top-level "timelines" section (docs/OBSERVABILITY.md §8).
  // A second timeline for the same run name replaces the first, so a
  // re-iterated benchmark keeps its last run's timeline.
  void AddTimeline(const std::string& run_name, std::string timeline_json) {
    for (auto& [name, json] : timelines_) {
      if (name == run_name) {
        json = std::move(timeline_json);
        return;
      }
    }
    timelines_.emplace_back(run_name, std::move(timeline_json));
  }

  const std::string& name() const { return name_; }
  bool empty() const { return runs_.empty(); }

  // Which sim::CostModel profile the runs were produced under
  // ("p3-550" or "calibrated"); emitted so compared results are known
  // to share a profile.
  void set_profile(std::string profile) { profile_ = std::move(profile); }

  std::string ToJson() const {
    std::string out = "{\n";
    out += "  \"bench\": \"" + BenchJsonEscape(name_) + "\",\n";
    out += "  \"schema\": 1,\n";
    if (!profile_.empty()) {
      out += "  \"profile\": \"" + BenchJsonEscape(profile_) + "\",\n";
    }
    out += "  \"runs\": [";
    bool first = true;
    for (const BenchRun& run : runs_) {
      out += first ? "\n" : ",\n";
      first = false;
      char buf[64];
      out += "    {\"name\": \"" + BenchJsonEscape(run.name) + "\"";
      std::snprintf(buf, sizeof(buf), ", \"real_time_s\": %.9g", run.real_time_s);
      out += buf;
      std::snprintf(buf, sizeof(buf), ", \"cpu_time_s\": %.9g", run.cpu_time_s);
      out += buf;
      std::snprintf(buf, sizeof(buf), ", \"iterations\": %llu",
                    static_cast<unsigned long long>(run.iterations));
      out += buf;
      out += std::string(", \"error\": ") + (run.error ? "true" : "false");
      if (!run.label.empty()) {
        out += ", \"label\": \"" + BenchJsonEscape(run.label) + "\"";
      }
      if (!run.counters.empty()) {
        out += ", \"counters\": {";
        bool first_counter = true;
        for (const auto& [counter_name, value] : run.counters) {
          if (!first_counter) {
            out += ", ";
          }
          first_counter = false;
          out += "\"" + BenchJsonEscape(counter_name) + "\": ";
          std::snprintf(buf, sizeof(buf), "%.9g", value);
          out += buf;
        }
        out += "}";
      }
      out += "}";
    }
    out += "\n  ]";
    if (!timelines_.empty()) {
      out += ",\n  \"timelines\": {";
      bool first_tl = true;
      for (const auto& [run_name, json] : timelines_) {
        out += first_tl ? "\n" : ",\n";
        first_tl = false;
        // `json` is already a serialized JSON object (Timeline::ToJson).
        out += "    \"" + BenchJsonEscape(run_name) + "\": " + json;
      }
      out += "\n  }";
    }
    out += "\n}\n";
    return out;
  }

  // Writes BENCH_<name>.json into `dir`; returns false (with a note on
  // stderr) if the file cannot be created.
  bool WriteTo(const std::string& dir = ".") const {
    std::string path = dir + "/BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    std::string json = ToJson();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  std::string profile_;
  std::vector<BenchRun> runs_;
  std::vector<std::pair<std::string, std::string>> timelines_;
};

// Staging area for timelines produced inside google-benchmark run
// bodies, which have no handle on the BenchReport: a BM function calls
// RecordTimeline(run_name, timeline.ToJson()) and BenchJsonMain drains
// the pending set into the report after the run.
inline std::vector<std::pair<std::string, std::string>>& PendingTimelines() {
  static std::vector<std::pair<std::string, std::string>> pending;
  return pending;
}

inline void RecordTimeline(std::string run_name, std::string timeline_json) {
  PendingTimelines().emplace_back(std::move(run_name),
                                  std::move(timeline_json));
}

inline std::string ObsReportJson(BenchReport* report) {
  std::string out = "{\n";
  bool first = true;
  for (Config config : {Config::kNfsUdp, Config::kSfs, Config::kSfsNoCrypt}) {
    if (!first) {
      out += ",\n";
    }
    first = false;
    out += "\"";
    out += ConfigName(config);
    out += "\": ";
    uint64_t elapsed_ns = 0;
    out += RunObsWorkload(config, /*text=*/false, &elapsed_ns);
    if (report != nullptr) {
      BenchRun run;
      run.name = std::string("ObsWorkload/") + ConfigName(config);
      run.real_time_s = static_cast<double>(elapsed_ns) * 1e-9;
      run.iterations = 1;
      report->Add(std::move(run));
    }
  }
  out += "\n}\n";
  return out;
}

// Console reporter that also captures each run into a BenchReport, so
// the binary keeps its human-readable table and gains the JSON file.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCaptureReporter(BenchReport* report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration) {
        continue;  // Skip aggregate (mean/stddev) synthetic rows.
      }
      BenchRun r;
      r.name = run.benchmark_name();
      r.iterations = static_cast<uint64_t>(run.iterations);
      const double iters = run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      r.real_time_s = run.real_accumulated_time / iters;
      r.cpu_time_s = run.cpu_accumulated_time / iters;
      r.label = run.report_label;
      r.error = run.error_occurred;
      for (const auto& [counter_name, counter] : run.counters) {
        r.counters.emplace_back(counter_name, static_cast<double>(counter.value));
      }
      report_->Add(std::move(r));
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  BenchReport* report_;
};

// Consumes the two flags every bench binary shares: --bench_json_dir=<dir>
// picks the directory BENCH_<name>.json is written to, and
// --sfs_cost_model=<profile> selects the cost model ("p3-550" or
// "calibrated") by setting SFS_COST_MODEL before the first testbed is
// built.  Returns false, consuming nothing, for any other argument.
inline bool ConsumeBenchFlag(const char* arg, std::string* out_dir) {
  constexpr const char kDirFlag[] = "--bench_json_dir=";
  constexpr const char kCostFlag[] = "--sfs_cost_model=";
  if (std::strncmp(arg, kDirFlag, sizeof(kDirFlag) - 1) == 0) {
    *out_dir = arg + sizeof(kDirFlag) - 1;
    return true;
  }
  if (std::strncmp(arg, kCostFlag, sizeof(kCostFlag) - 1) == 0) {
    setenv("SFS_COST_MODEL", arg + sizeof(kCostFlag) - 1, /*overwrite=*/1);
    return true;
  }
  return false;
}

// Drop-in replacement for BENCHMARK_MAIN(): runs the registered
// benchmarks with console output, then writes BENCH_<bench_name>.json.
// The ConsumeBenchFlag flags are stripped before google-benchmark sees
// the argument list.
inline int BenchJsonMain(int argc, char** argv, const char* bench_name) {
  std::string out_dir = ".";
  std::vector<char*> pass;
  pass.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (!ConsumeBenchFlag(argv[i], &out_dir)) {
      pass.push_back(argv[i]);
    }
  }
  int pass_argc = static_cast<int>(pass.size());
  benchmark::Initialize(&pass_argc, pass.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, pass.data())) {
    return 1;
  }
  BenchReport report(bench_name);
  report.set_profile(ActiveCostModel().profile);
  JsonCaptureReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  for (auto& [run_name, json] : PendingTimelines()) {
    report.AddTimeline(run_name, std::move(json));
  }
  PendingTimelines().clear();
  report.WriteTo(out_dir);
  return 0;
}

#define SFS_BENCH_JSON_MAIN(bench_name)                         \
  int main(int argc, char** argv) {                             \
    return bench::BenchJsonMain(argc, argv, bench_name);        \
  }

}  // namespace bench

#endif  // SFS_BENCH_OBS_REPORT_H_
