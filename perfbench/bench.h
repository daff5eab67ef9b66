// The repository benchmark: four workloads driven through the public APIs
// of vfs, sfs, nfs, rpc and sim, measured on two clocks.
//
//   host time     steady_clock around calls into the program (what this
//                 build costs on this machine);
//   virtual time  the simulated P-III/100 Mbit testbed's sim::Clock, which
//                 is deterministic for a seed and so acts as a refactoring
//                 oracle.
//
// Everything here observes the program from the outside: timing around
// public calls, pass-through observers at the program's own substitution
// points (sim::Interposer, sim::Service, nfs::FileSystemApi), and the
// counters, histograms and spans the program already emits.  README.md in
// this directory records why each workload exists and what it predicts.
#ifndef SFS_PERFBENCH_BENCH_H_
#define SFS_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/nfs/api.h"
#include "src/obs/metrics.h"
#include "src/sim/network.h"
#include "src/util/bytes.h"

namespace perfbench {

inline uint64_t HostNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// --- Host speed ----------------------------------------------------------------

// The shared VM this runs on changes speed by tens of percent over
// seconds: a Rabin decrypt timed in 100 ms windows ranged from 53 to 91
// µs within one 15 s run.  Host time is therefore reported normalized.
// Every kRefEveryNs of a set-up or timed phase a SpeedScale pauses it and
// runs a fixed reference loop for about kRefSliceNs; each host interval
// between two slices is scaled by the mean of their speed factors.  In the
// same 100 ms windows the normalized decrypt time varied 6-7% instead of
// 18%.
inline constexpr uint64_t kRefEveryNs = 10'000'000;
inline constexpr uint64_t kRefSliceNs = 1'000'000;

// Resident size of the reference slice's pointer-chasing array.  It stays
// resident once the first slice has run, and is subtracted from the
// process's peak RSS so peak_rss_mb is the program's own figure.
inline constexpr size_t kRefChaseBytes = size_t{32} << 20;

// Runs one reference slice and returns its speed factor: the reference
// work's nominal time over its measured time.  Below 1 the machine is
// running slow, and host intervals around the slice are scaled down.
double ReferenceSlice();

// Speed-normalized host time over a stretch of work split into windows by
// reference slices.  Construction runs the first slice; the caller calls
// Tick() between steps of the work, which ends the open window with a
// slice once kRefEveryNs have passed since the last one.  Slices and
// Pause()d stretches are not active time.  Window k lies between slices k
// and k + 1.
class SpeedScale {
 public:
  SpeedScale();
  void Tick();
  // Ends the open window now, with a slice.
  void EndWindow();
  void Pause() { pause_start_ns_ = HostNs(); }
  void Resume() { paused_ns_ += HostNs() - pause_start_ns_; }

  // Active host ns since construction.
  uint64_t ActiveNs() const { return HostNs() - start_ns_ - paused_ns_; }
  // Index of the open window.
  size_t window() const { return window_ns_.size(); }
  // Speed factor of an ended window.
  double Scale(size_t k) const { return (factors_[k] + factors_[k + 1]) / 2; }
  // Raw and normalized active ns of the ended windows from `first` on.
  double RawNs(size_t first = 0) const;
  double NormalizedNs(size_t first = 0) const;

 private:
  uint64_t start_ns_ = 0;
  uint64_t paused_ns_ = 0;
  uint64_t pause_start_ns_ = 0;
  uint64_t last_slice_ns_ = 0;
  uint64_t window_start_ = 0;
  std::vector<double> factors_;      // One per reference slice.
  std::vector<uint64_t> window_ns_;  // Active ns of each ended window.
};

// --- Percentiles -------------------------------------------------------------

// A percentile is reported only when at least this many samples lie above
// it; below that it is a property of a handful of outliers.
inline constexpr size_t kMinBeyond = 10;

struct Quantile {
  double value = 0;
  size_t samples = 0;  // Sample count the percentile was taken over.
  size_t beyond = 0;   // Samples strictly above the nearest rank.
  bool legal() const { return beyond >= kMinBeyond; }
};

// Nearest-rank percentile: the sample of rank ceil(q * n) after sorting
// (`samples` is sorted in place).  Check legal() before reporting it.
Quantile Percentile(std::vector<double>* samples, double q);

// Smallest sample count for which the q-percentile is legal.
size_t MinSamples(double q);

// nfs_fleet latency.  Its ops are interleaved on one event loop, so no op
// has a host latency of its own; the benchmark instead reports host
// nanoseconds per op over consecutive batches of kFleetBatch completions,
// each batch measured from the previous batch's last completion (the
// first from the start of the timed phase).  A trailing partial batch is
// dropped.
inline constexpr size_t kFleetBatch = 128;

class BatchLatency {
 public:
  BatchLatency(size_t batch, uint64_t start_ns) : batch_(batch), mark_ns_(start_ns) {}
  void Complete(uint64_t now_ns) {
    if (++pending_ == batch_) {
      per_op_ns_.push_back(static_cast<double>(now_ns - mark_ns_) / static_cast<double>(batch_));
      mark_ns_ = now_ns;
      pending_ = 0;
    }
  }
  const std::vector<double>& per_op_ns() const { return per_op_ns_; }

 private:
  size_t batch_;
  uint64_t mark_ns_;
  size_t pending_ = 0;
  std::vector<double> per_op_ns_;
};

// --- Generated inputs --------------------------------------------------------

// splitmix64 finalizer: the benchmark's only source of randomness, so a
// seed fixes every input.
uint64_t Mix(uint64_t a, uint64_t b);

// File content as a function of (seed, key, version) only.  A block read
// back is compared with the bytes of the version last written to it, so a
// misplaced block (wrong key) or a stale one (old version) fails.
util::Bytes Content(uint64_t seed, uint64_t key, uint64_t version, size_t len);

// --- Pass-through observers ----------------------------------------------------

// Installed on SFS mount links.  Forwards every message unchanged and
// records, in host time, when each request left the client and each
// response left the server (the service runs in between), plus wire sizes.
class WireTap : public sim::Interposer {
 public:
  util::Result<util::Bytes> OnRequest(util::Bytes request) override;
  util::Result<util::Bytes> OnResponse(util::Bytes response) override;

  // Marks the start of a workload op (for the handshake split).
  void BeginOp() { first_sealed_ns_ = 0; }
  // Host time the op's first sealed (kMsgEncrypted) request left; 0 = none.
  uint64_t first_sealed_ns() const { return first_sealed_ns_; }

  uint64_t requests = 0;
  uint64_t server_ns = 0;  // OnRequest -> OnResponse, summed.
  std::vector<double> message_bytes;  // Every message, both directions.
  // Plaintext length of every sealed message, both directions.
  std::vector<uint32_t> sealed_plaintext;

 private:
  void Note(const util::Bytes& message);
  uint64_t request_ns_ = 0;
  uint64_t first_sealed_ns_ = 0;
};

// Wraps a server endpoint (an rpc::Dispatcher) and times Handle().
class TimedService : public sim::Service {
 public:
  explicit TimedService(sim::Service* inner) : inner_(inner) {}
  util::Result<util::Bytes> Handle(const util::Bytes& request) override;
  uint64_t calls = 0;
  uint64_t ns = 0;

 private:
  sim::Service* inner_;
};

// Sits between NfsProgram and MemFs and times every call.
class TimedFs : public nfs::FileSystemApi {
 public:
  explicit TimedFs(nfs::FileSystemApi* inner) : inner_(inner) {}
  nfs::Stat GetAttr(const nfs::FileHandle& fh, nfs::Fattr* attr) override;
  nfs::Stat SetAttr(const nfs::FileHandle& fh, const nfs::Credentials& cred,
                    const nfs::Sattr& sattr, nfs::Fattr* attr) override;
  nfs::Stat Lookup(const nfs::FileHandle& dir, const std::string& name,
                   const nfs::Credentials& cred, nfs::FileHandle* out,
                   nfs::Fattr* attr) override;
  nfs::Stat Access(const nfs::FileHandle& fh, const nfs::Credentials& cred, uint32_t want,
                   uint32_t* allowed) override;
  nfs::Stat ReadLink(const nfs::FileHandle& fh, const nfs::Credentials& cred,
                     std::string* target) override;
  nfs::Stat Read(const nfs::FileHandle& fh, const nfs::Credentials& cred, uint64_t offset,
                 uint32_t count, util::Bytes* data, bool* eof) override;
  nfs::Stat Write(const nfs::FileHandle& fh, const nfs::Credentials& cred, uint64_t offset,
                  const util::Bytes& data, bool stable, nfs::Fattr* attr) override;
  nfs::Stat Create(const nfs::FileHandle& dir, const std::string& name,
                   const nfs::Credentials& cred, const nfs::Sattr& sattr,
                   nfs::FileHandle* out, nfs::Fattr* attr) override;
  nfs::Stat Mkdir(const nfs::FileHandle& dir, const std::string& name,
                  const nfs::Credentials& cred, uint32_t mode, nfs::FileHandle* out,
                  nfs::Fattr* attr) override;
  nfs::Stat Symlink(const nfs::FileHandle& dir, const std::string& name,
                    const std::string& target, const nfs::Credentials& cred,
                    nfs::FileHandle* out, nfs::Fattr* attr) override;
  nfs::Stat Remove(const nfs::FileHandle& dir, const std::string& name,
                   const nfs::Credentials& cred) override;
  nfs::Stat Rmdir(const nfs::FileHandle& dir, const std::string& name,
                  const nfs::Credentials& cred) override;
  nfs::Stat Rename(const nfs::FileHandle& from_dir, const std::string& from_name,
                   const nfs::FileHandle& to_dir, const std::string& to_name,
                   const nfs::Credentials& cred) override;
  nfs::Stat Link(const nfs::FileHandle& target, const nfs::FileHandle& dir,
                 const std::string& name, const nfs::Credentials& cred) override;
  nfs::Stat ReadDir(const nfs::FileHandle& dir, const nfs::Credentials& cred, uint64_t cookie,
                    uint32_t max_entries, std::vector<nfs::DirEntry>* entries,
                    bool* eof) override;
  nfs::Stat FsStat(const nfs::FileHandle& fh, uint64_t* total_bytes,
                   uint64_t* used_bytes) override;
  nfs::Stat Commit(const nfs::FileHandle& fh) override;
  uint64_t WriteVerf() const override { return inner_->WriteVerf(); }
  nfs::Stat Open(const nfs::FileHandle& fh, const nfs::Credentials& cred) override;
  nfs::Stat Close(const nfs::FileHandle& fh, const nfs::Credentials& cred) override;

  uint64_t calls = 0;
  uint64_t ns = 0;

 private:
  template <typename Fn>
  nfs::Stat Time(Fn fn) {
    const uint64_t t0 = HostNs();
    const nfs::Stat s = fn();
    ns += HostNs() - t0;
    ++calls;
    return s;
  }
  nfs::FileSystemApi* inner_;
};

// --- Workloads ---------------------------------------------------------------

// kPlain measures end-to-end metrics; kObserved adds the pass-through
// observers and host timers for per-layer metrics; kSpans turns on the
// program's span collector for virtual critical-path attribution.  Spans
// append a trace context to every RPC, so kSpans changes wire sizes and
// therefore virtual time; kObserved must not change either.
enum class Mode { kPlain, kObserved, kSpans };

// Virtual-time results over a workload's oracle prefix: the first
// oracle_ops() ops of the timed phase, a fixed amount of work for a seed.
struct Oracle {
  uint64_t virt_ns = 0;
  std::vector<double> op_virt_ns;
  uint64_t wire_messages = 0;
  uint64_t cat_ns[obs::kTimeCategoryCount] = {};
};

struct PassResult {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  double host_s = 0;      // Timed phase, speed-normalized.
  double raw_host_s = 0;  // The same, as the steady clock read it.
  uint64_t payload_bytes = 0;
  std::vector<double> op_host_ns;  // Speed-normalized.
  Oracle oracle;
  // Peak RSS of the process when the oracle prefix completed, less the
  // reference slice's array.  Later growth (the SFS server's in-memory
  // audit log grows with every RPC) would scale with host speed, not with
  // the inputs.
  double peak_rss_mb = 0;
  // time.<category>_ns counters summed to time.total_ns at the end.
  bool ledger_ok = false;
  std::vector<std::string> errors;
  std::map<std::string, double> layers;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Everything before the timed phase: keys, machines, file set, mounts
  // and one warm-up pass.  Ticks `timer` between its steps.
  virtual void Setup(SpeedScale* timer) = 0;
  // The timed phase: ops in a closed loop until `seconds` of host time
  // have passed, the oracle prefix is complete and there are enough host
  // latency samples for a legal p99 (oracle_only: just the oracle prefix).
  virtual PassResult Run(double seconds, bool oracle_only) = 0;
  virtual size_t oracle_ops() const = 0;
};

const std::vector<std::string>& WorkloadNames();
// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed, Mode mode);

}  // namespace perfbench

#endif  // SFS_PERFBENCH_BENCH_H_
