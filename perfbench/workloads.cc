// The four benchmark workloads.  See README.md for why each exists and
// which layers it loads.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>
#include <stdexcept>

#include "perfbench/bench.h"
#include "src/agent/agent.h"
#include "src/auth/authserver.h"
#include "src/crypto/prng.h"
#include "src/nfs/memfs.h"
#include "src/nfs/program.h"
#include "src/nfs/types.h"
#include "src/obs/span.h"
#include "src/rpc/rpc.h"
#include "src/sfs/client.h"
#include "src/sfs/proto.h"
#include "src/sfs/server.h"
#include "src/sfs/session.h"
#include "src/sim/clock.h"
#include "src/sim/cost_model.h"
#include "src/sim/disk.h"
#include "src/sim/event.h"
#include "src/vfs/vfs.h"
#include "src/xdr/xdr.h"

namespace perfbench {

// --- Percentiles and inputs ---------------------------------------------------

Quantile Percentile(std::vector<double>* samples, double q) {
  Quantile out;
  out.samples = samples->size();
  if (samples->empty()) {
    return out;
  }
  std::sort(samples->begin(), samples->end());
  const size_t n = samples->size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  out.value = (*samples)[rank - 1];
  out.beyond = n - rank;
  return out;
}

size_t MinSamples(double q) {
  for (size_t n = 1;; ++n) {
    std::vector<double> v(n, 0.0);
    if (Percentile(&v, q).legal()) {
      return n;
    }
  }
}

namespace {

// Nominal times are the loops' typical times on the 4-core VM the bounds in
// BENCHMARK.json were measured on, so normalized figures stay close to raw
// ones there.
constexpr double kNominalNsPerCoreUnit = 740.0;
constexpr double kNominalNsPerMemoryUnit = 25400.0;

// Runs `unit` until `budget_ns` have passed; returns nominal over measured
// time per unit.
template <typename Unit>
double TimeUnits(uint64_t budget_ns, double nominal_ns_per_unit, Unit unit) {
  const uint64_t t0 = HostNs();
  uint64_t units = 0;
  uint64_t elapsed = 0;
  do {
    unit(units++);
    elapsed = HostNs() - t0;
  } while (elapsed < budget_ns);
  return nominal_ns_per_unit * static_cast<double>(units) / static_cast<double>(elapsed);
}

}  // namespace

double ReferenceSlice() {
  // Core: 256 multiply-xorshift updates of an L1-resident table per unit.
  static std::vector<uint64_t> table(4096, 1);
  const double core = TimeUnits(kRefSliceNs / 2, kNominalNsPerCoreUnit, [](uint64_t unit) {
    for (size_t i = 0; i < 256; ++i) {
      const size_t j = (i * 40503 + unit) & 4095;
      table[j] = Mix(table[j], i);
    }
  });
  // Memory: 64 dependent loads per unit along one random cycle through a
  // 32 MB array (larger than every private cache; it lives in the shared
  // L3, where other tenants' traffic shows).
  static const std::vector<uint32_t> next = [] {
    std::vector<uint32_t> cycle(kRefChaseBytes / sizeof(uint32_t));
    std::iota(cycle.begin(), cycle.end(), 0);
    // Sattolo's shuffle: a uniformly random permutation that is one cycle.
    for (size_t i = cycle.size() - 1; i > 0; --i) {
      std::swap(cycle[i], cycle[Mix(0x5eed, i) % i]);
    }
    return cycle;
  }();
  static uint32_t at = 0;
  const double memory = TimeUnits(kRefSliceNs / 2, kNominalNsPerMemoryUnit, [](uint64_t) {
    for (int i = 0; i < 64; ++i) {
      at = next[at];
    }
  });
  return std::sqrt(core * memory);
}

SpeedScale::SpeedScale() {
  factors_.push_back(ReferenceSlice());
  start_ns_ = HostNs();
  last_slice_ns_ = start_ns_;
}

void SpeedScale::Tick() {
  if (HostNs() - last_slice_ns_ >= kRefEveryNs) {
    EndWindow();
  }
}

void SpeedScale::EndWindow() {
  const uint64_t now = HostNs();
  const uint64_t active = now - start_ns_ - paused_ns_;
  window_ns_.push_back(active - window_start_);
  factors_.push_back(ReferenceSlice());
  last_slice_ns_ = HostNs();
  // Everything from `now` on was the slice, so the windows add up to the
  // active time exactly.
  paused_ns_ += last_slice_ns_ - now;
  window_start_ = active;
}

double SpeedScale::RawNs(size_t first) const {
  double ns = 0;
  for (size_t k = first; k < window_ns_.size(); ++k) {
    ns += static_cast<double>(window_ns_[k]);
  }
  return ns;
}

double SpeedScale::NormalizedNs(size_t first) const {
  double ns = 0;
  for (size_t k = first; k < window_ns_.size(); ++k) {
    ns += static_cast<double>(window_ns_[k]) * Scale(k);
  }
  return ns;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4568bULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

util::Bytes Content(uint64_t seed, uint64_t key, uint64_t version, size_t len) {
  util::Bytes out(len);
  uint64_t state = Mix(Mix(seed, key), version);
  for (size_t i = 0; i < len; i += 8) {
    state = Mix(state, i);
    const size_t n = std::min<size_t>(8, len - i);
    std::memcpy(out.data() + i, &state, n);
  }
  return out;
}

// --- Observers ----------------------------------------------------------------

void WireTap::Note(const util::Bytes& message) {
  message_bytes.push_back(static_cast<double>(message.size()));
  // Sealed frames are xdr(type, opaque(xdr(wire seqno, opaque(sealed)))),
  // and a sealed body is length || plaintext || 20-byte MAC.
  xdr::Decoder frame(message);
  auto type = frame.GetUint32();
  if (!type.ok() || *type != sfs::kMsgEncrypted) {
    return;
  }
  auto payload = frame.GetOpaque();
  if (!payload.ok()) {
    return;
  }
  xdr::Decoder inner(*payload);
  auto seqno = inner.GetUint32();
  auto sealed = inner.GetOpaque();
  if (seqno.ok() && sealed.ok() && sealed->size() >= 24) {
    sealed_plaintext.push_back(static_cast<uint32_t>(sealed->size() - 24));
  }
}

util::Result<util::Bytes> WireTap::OnRequest(util::Bytes request) {
  request_ns_ = HostNs();
  ++requests;
  if (first_sealed_ns_ == 0 && request.size() >= 4 && request[0] == 0 && request[1] == 0 &&
      request[2] == 0 && request[3] == sfs::kMsgEncrypted) {
    first_sealed_ns_ = request_ns_;
  }
  Note(request);
  return request;
}

util::Result<util::Bytes> WireTap::OnResponse(util::Bytes response) {
  server_ns += HostNs() - request_ns_;
  Note(response);
  return response;
}

util::Result<util::Bytes> TimedService::Handle(const util::Bytes& request) {
  const uint64_t t0 = HostNs();
  auto reply = inner_->Handle(request);
  ns += HostNs() - t0;
  ++calls;
  return reply;
}

nfs::Stat TimedFs::GetAttr(const nfs::FileHandle& fh, nfs::Fattr* attr) {
  return Time([&] { return inner_->GetAttr(fh, attr); });
}
nfs::Stat TimedFs::SetAttr(const nfs::FileHandle& fh, const nfs::Credentials& cred,
                           const nfs::Sattr& sattr, nfs::Fattr* attr) {
  return Time([&] { return inner_->SetAttr(fh, cred, sattr, attr); });
}
nfs::Stat TimedFs::Lookup(const nfs::FileHandle& dir, const std::string& name,
                          const nfs::Credentials& cred, nfs::FileHandle* out,
                          nfs::Fattr* attr) {
  return Time([&] { return inner_->Lookup(dir, name, cred, out, attr); });
}
nfs::Stat TimedFs::Access(const nfs::FileHandle& fh, const nfs::Credentials& cred,
                          uint32_t want, uint32_t* allowed) {
  return Time([&] { return inner_->Access(fh, cred, want, allowed); });
}
nfs::Stat TimedFs::ReadLink(const nfs::FileHandle& fh, const nfs::Credentials& cred,
                            std::string* target) {
  return Time([&] { return inner_->ReadLink(fh, cred, target); });
}
nfs::Stat TimedFs::Read(const nfs::FileHandle& fh, const nfs::Credentials& cred,
                        uint64_t offset, uint32_t count, util::Bytes* data, bool* eof) {
  return Time([&] { return inner_->Read(fh, cred, offset, count, data, eof); });
}
nfs::Stat TimedFs::Write(const nfs::FileHandle& fh, const nfs::Credentials& cred,
                         uint64_t offset, const util::Bytes& data, bool stable,
                         nfs::Fattr* attr) {
  return Time([&] { return inner_->Write(fh, cred, offset, data, stable, attr); });
}
nfs::Stat TimedFs::Create(const nfs::FileHandle& dir, const std::string& name,
                          const nfs::Credentials& cred, const nfs::Sattr& sattr,
                          nfs::FileHandle* out, nfs::Fattr* attr) {
  return Time([&] { return inner_->Create(dir, name, cred, sattr, out, attr); });
}
nfs::Stat TimedFs::Mkdir(const nfs::FileHandle& dir, const std::string& name,
                         const nfs::Credentials& cred, uint32_t mode, nfs::FileHandle* out,
                         nfs::Fattr* attr) {
  return Time([&] { return inner_->Mkdir(dir, name, cred, mode, out, attr); });
}
nfs::Stat TimedFs::Symlink(const nfs::FileHandle& dir, const std::string& name,
                           const std::string& target, const nfs::Credentials& cred,
                           nfs::FileHandle* out, nfs::Fattr* attr) {
  return Time([&] { return inner_->Symlink(dir, name, target, cred, out, attr); });
}
nfs::Stat TimedFs::Remove(const nfs::FileHandle& dir, const std::string& name,
                          const nfs::Credentials& cred) {
  return Time([&] { return inner_->Remove(dir, name, cred); });
}
nfs::Stat TimedFs::Rmdir(const nfs::FileHandle& dir, const std::string& name,
                         const nfs::Credentials& cred) {
  return Time([&] { return inner_->Rmdir(dir, name, cred); });
}
nfs::Stat TimedFs::Rename(const nfs::FileHandle& from_dir, const std::string& from_name,
                          const nfs::FileHandle& to_dir, const std::string& to_name,
                          const nfs::Credentials& cred) {
  return Time([&] { return inner_->Rename(from_dir, from_name, to_dir, to_name, cred); });
}
nfs::Stat TimedFs::Link(const nfs::FileHandle& target, const nfs::FileHandle& dir,
                        const std::string& name, const nfs::Credentials& cred) {
  return Time([&] { return inner_->Link(target, dir, name, cred); });
}
nfs::Stat TimedFs::ReadDir(const nfs::FileHandle& dir, const nfs::Credentials& cred,
                           uint64_t cookie, uint32_t max_entries,
                           std::vector<nfs::DirEntry>* entries, bool* eof) {
  return Time([&] { return inner_->ReadDir(dir, cred, cookie, max_entries, entries, eof); });
}
nfs::Stat TimedFs::FsStat(const nfs::FileHandle& fh, uint64_t* total_bytes,
                          uint64_t* used_bytes) {
  return Time([&] { return inner_->FsStat(fh, total_bytes, used_bytes); });
}
nfs::Stat TimedFs::Commit(const nfs::FileHandle& fh) {
  return Time([&] { return inner_->Commit(fh); });
}
nfs::Stat TimedFs::Open(const nfs::FileHandle& fh, const nfs::Credentials& cred) {
  return Time([&] { return inner_->Open(fh, cred); });
}
nfs::Stat TimedFs::Close(const nfs::FileHandle& fh, const nfs::Credentials& cred) {
  return Time([&] { return inner_->Close(fh, cred); });
}

namespace {

constexpr size_t kCats = obs::kTimeCategoryCount;
constexpr size_t kRabinBits = 512;
constexpr uint64_t kAppNs = 20'000;

const sim::CostModel& Costs() {
  static const sim::CostModel kCosts = sim::CostModel::PentiumIII550();
  return kCosts;
}

// Seeded Fisher-Yates permutation of [0, n).
std::vector<uint32_t> Permutation(size_t n, uint64_t seed) {
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[Mix(seed, i) % i]);
  }
  return order;
}

void Require(bool ok, const std::string& what) {
  if (!ok) {
    throw std::runtime_error("setup failed: " + what);
  }
}

void SpansOn(obs::Registry* registry, sim::Clock* clock) {
  registry->spans().Enable(
      [clock] { return clock->now_ns(); },
      [clock](uint64_t out[kCats]) {
        const sim::Clock::CategorySnapshot charged = clock->categories();
        for (size_t i = 0; i < kCats; ++i) {
          out[i] = charged.ns[i];
        }
      },
      size_t{1} << 21);
}

// Sum of a per-procedure counter over every NFS3 procedure.
uint64_t Nfs3Counter(const obs::Registry& registry, const std::string& prefix,
                     const std::string& suffix) {
  uint64_t total = 0;
  for (uint32_t proc = 0; proc <= nfs::kProcCommit; ++proc) {
    total += registry.CounterValue(prefix + nfs::ProcName(proc) + suffix);
  }
  return total;
}

// Registry counters read at the start and end of a timed pass.
struct Counters {
  uint64_t audit_records = 0;
  uint64_t nfs3_calls = 0;
  uint64_t nfs3_commits = 0;
  uint64_t retransmissions = 0;
  uint64_t drc_hits = 0;
  uint64_t shed = 0;
  uint64_t events = 0;

  static Counters Read(const obs::Registry& r, sim::Clock* clock) {
    Counters c;
    c.audit_records = r.CounterValue("audit.records");
    c.nfs3_calls = Nfs3Counter(r, "rpc.client.NFS3.", ".calls");
    c.nfs3_commits = r.CounterValue("rpc.client.NFS3.COMMIT.calls");
    c.retransmissions =
        r.CounterValue("link.retransmissions") + r.CounterValue("rpc.client.stale_retries");
    c.drc_hits = r.CounterValue("server.drc_hits");
    c.shed = r.CounterValue("server.shed");
    c.events = clock->events()->dispatched();
    return c;
  }
};

double Per(double num, uint64_t den) { return den == 0 ? 0.0 : num / static_cast<double>(den); }

// Collects one pass: per-op host latency (or per-batch, on the fleet),
// payload, failures, and the virtual-time oracle over the first
// `oracle_ops` ops.  Host time is `timer`'s active time, and at Finish()
// every interval is scaled by the speed factor of its window.  A pass
// timed on its own SpeedScale covers exactly the pass; a warm-up pass
// inside a set-up shares the set-up's.
class Recorder {
 public:
  Recorder(SpeedScale* timer, sim::Clock* clock, obs::Registry* registry, double seconds,
           size_t oracle_ops, bool oracle_only, bool batched)
      : timer_(timer),
        clock_(clock),
        registry_(registry),
        seconds_(seconds),
        oracle_ops_(oracle_ops),
        oracle_only_(oracle_only),
        batched_(batched),
        batch_(kFleetBatch, 0) {}

  void Start() {
    first_window_ = timer_->window();
    start_active_ns_ = timer_->ActiveNs();
    oracle_start_ns_ = clock_->now_ns();
    oracle_start_msgs_ = registry_->CounterValue("link.messages");
    oracle_start_cats_ = clock_->categories();
  }

  void Op(uint64_t host_ns, uint64_t virt_start_ns, bool ok, uint64_t payload,
          const char* error) {
    const uint64_t now_virt = clock_->now_ns();
    ++result_.attempted;
    if (ok) {
      ++result_.ok;
      result_.payload_bytes += payload;
    } else {
      Fail(error);
    }
    if (batched_) {
      const size_t batches = batch_.per_op_ns().size();
      batch_.Complete(Active());
      if (batch_.per_op_ns().size() != batches) {
        sample_window_.push_back(timer_->window());
      }
    } else {
      result_.op_host_ns.push_back(static_cast<double>(host_ns));
      sample_window_.push_back(timer_->window());
    }
    if (result_.attempted <= oracle_ops_) {
      Oracle& o = result_.oracle;
      o.op_virt_ns.push_back(static_cast<double>(now_virt - virt_start_ns));
      if (result_.attempted == oracle_ops_) {
        struct rusage usage;
        getrusage(RUSAGE_SELF, &usage);
        result_.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0 -
                              static_cast<double>(kRefChaseBytes >> 20);
        o.virt_ns = now_virt - oracle_start_ns_;
        o.wire_messages = registry_->CounterValue("link.messages") - oracle_start_msgs_;
        const sim::Clock::CategorySnapshot end = clock_->categories();
        for (size_t i = 0; i < kCats; ++i) {
          o.cat_ns[i] = end.ns[i] - oracle_start_cats_.ns[i];
        }
      }
    }
  }

  // Called between ops: runs a reference slice when one is due, and says
  // whether the pass is over.
  bool Done() {
    if (done_) {
      return true;
    }
    timer_->Tick();
    static const size_t kP99Samples = MinSamples(0.99);
    const size_t host_samples = batched_ ? batch_.per_op_ns().size() : result_.op_host_ns.size();
    if (result_.attempted < oracle_ops_ || (!oracle_only_ && host_samples < kP99Samples)) {
      return false;
    }
    done_ = oracle_only_ || static_cast<double>(Active()) >= seconds_ * 1e9;
    return done_;
  }

  // Excludes host time from the timed phase (the connect workload's
  // client-pool rebuild, which is key generation real sfscd never pays
  // per mount).
  void Pause() { timer_->Pause(); }
  void Resume() { timer_->Resume(); }

  void Fail(const std::string& error) {
    if (result_.errors.size() < 8) {
      result_.errors.push_back(error);
    }
  }

  PassResult Finish() {
    timer_->EndWindow();
    result_.host_s = timer_->NormalizedNs(first_window_) * 1e-9;
    result_.raw_host_s = timer_->RawNs(first_window_) * 1e-9;
    if (batched_) {
      result_.op_host_ns = batch_.per_op_ns();
    }
    for (size_t i = 0; i < result_.op_host_ns.size(); ++i) {
      result_.op_host_ns[i] *= timer_->Scale(sample_window_[i]);
    }
    if (result_.attempted < oracle_ops_) {
      result_.errors.push_back("timed phase ended before the oracle prefix");
    }
    clock_->ExportTimeCounters(registry_);
    uint64_t sum = 0;
    for (size_t i = 0; i < kCats; ++i) {
      sum += registry_->CounterValue(std::string("time.") +
                                     obs::TimeCategoryName(static_cast<obs::TimeCategory>(i)) +
                                     "_ns");
    }
    result_.ledger_ok = sum == registry_->CounterValue("time.total_ns");
    return std::move(result_);
  }

 private:
  uint64_t Active() const { return timer_->ActiveNs() - start_active_ns_; }

  SpeedScale* timer_;
  sim::Clock* clock_;
  obs::Registry* registry_;
  double seconds_;
  size_t oracle_ops_;
  bool oracle_only_;
  bool batched_;
  bool done_ = false;
  size_t first_window_ = 0;
  uint64_t start_active_ns_ = 0;
  std::vector<size_t> sample_window_;  // Window each host sample ended in.
  uint64_t oracle_start_ns_ = 0;
  uint64_t oracle_start_msgs_ = 0;
  sim::Clock::CategorySnapshot oracle_start_cats_;
  BatchLatency batch_;
  PassResult result_;
};

// Virtual-time shares from the clock ledger over the oracle prefix.
void AddVirtualShares(const Oracle& oracle, std::map<std::string, double>* layers) {
  static const std::pair<const char*, obs::TimeCategory> kShares[] = {
      {"link", obs::TimeCategory::kLink},       {"crypto", obs::TimeCategory::kCrypto},
      {"disk", obs::TimeCategory::kDisk},       {"cpu", obs::TimeCategory::kCpu},
      {"syscall", obs::TimeCategory::kSyscall}, {"wait", obs::TimeCategory::kWait},
      {"app", obs::TimeCategory::kApp},         {"queue", obs::TimeCategory::kQueue},
  };
  for (const auto& [name, cat] : kShares) {
    (*layers)[std::string("virt.share.") + name] =
        Per(static_cast<double>(oracle.cat_ns[static_cast<size_t>(cat)]), oracle.virt_ns);
  }
}

// Virtual critical-path time per op, by span layer, over the oracle prefix.
void AddCriticalPath(const obs::SpanCollector& spans, uint64_t ops,
                     std::map<std::string, double>* layers) {
  for (const char* layer :
       {"vfs", "nfs.cache", "rpc", "sfs.chan", "sim.link", "sim.host", "sim.disk"}) {
    uint64_t total = 0;
    for (const obs::CriticalPathRow& row : obs::CriticalPathByName(spans.finished(), layer)) {
      total += row.total_ns;
    }
    (*layers)[std::string("virt.crit.") + layer + ".us_per_op"] =
        Per(static_cast<double>(total) / 1000.0, ops);
  }
}

double P50(std::vector<double> v) { return Percentile(&v, 0.5).value; }

// --- SFS machines -------------------------------------------------------------

enum VfsCall { kOpen, kClose, kPread, kPwrite, kUnlink, kStat, kVfsCalls };
constexpr const char* kVfsCallNames[kVfsCalls] = {"open",   "close",  "pread",
                                                  "pwrite", "unlink", "stat"};

// One SFS file server machine.
struct ServerBox {
  auth::AuthServer auth;
  std::unique_ptr<sfs::SfsServer> server;
  std::string root;  // Self-certifying pathname.
};

// One client machine: sfscd, the kernel's VFS over a local root file
// system, and one user's agent.
struct ClientBox {
  std::unique_ptr<sim::Disk> disk;
  std::unique_ptr<nfs::MemFs> local;
  std::unique_ptr<sfs::SfsClient> sfscd;
  std::unique_ptr<vfs::Vfs> vfs;
  std::unique_ptr<agent::Agent> agent;
  vfs::UserContext user;
};

// Shared machinery of the three SFS workloads: machines on one virtual
// clock, the wire tap, host timers around vfs calls, and the per-layer
// metrics they all report.
class SfsWorkload : public Workload {
 public:
  SfsWorkload(uint64_t seed, Mode mode) : seed_(seed), mode_(mode) {}

  PassResult Run(double seconds, bool oracle_only) override {
    if (mode_ == Mode::kSpans) {
      SpansOn(&registry_, &clock_);
    }
    for (auto& samples : vfs_ns_) {
      samples.clear();
    }
    const Counters before = Counters::Read(registry_, &clock_);
    const size_t tap_messages = tap_.message_bytes.size();
    const size_t tap_sealed = tap_.sealed_plaintext.size();
    const uint64_t tap_server_ns = tap_.server_ns;
    const uint64_t tap_requests = tap_.requests;
    handshake_ns_.clear();
    post_handshake_ns_.clear();

    SpeedScale timer;
    Recorder rec(&timer, &clock_, &registry_, seconds, oracle_ops(), oracle_only,
                 /*batched=*/false);
    rec.Start();
    while (Cycle(&rec)) {
    }
    PassResult result = rec.Finish();
    const double host_ns = result.raw_host_s * 1e9;
    const uint64_t ops = result.attempted;
    std::map<std::string, double>& layers = result.layers;

    if (mode_ == Mode::kSpans) {
      AddCriticalPath(registry_.spans(), ops, &layers);
      return result;
    }
    if (mode_ != Mode::kObserved) {
      return result;
    }
    AddVirtualShares(result.oracle, &layers);
    for (size_t call = 0; call < kVfsCalls; ++call) {
      const std::string name = std::string("vfs.") + kVfsCallNames[call];
      layers[name + ".calls"] = static_cast<double>(vfs_ns_[call].size());
      layers[name + ".host_us"] = P50(vfs_ns_[call]) / 1000.0;
    }
    const Counters after = Counters::Read(registry_, &clock_);
    layers["nfs.cache.rpcs_per_op"] = Per(static_cast<double>(after.nfs3_calls - before.nfs3_calls), ops);
    layers["nfs.cache.commits_per_op"] =
        Per(static_cast<double>(after.nfs3_commits - before.nfs3_commits), ops);

    const uint64_t rpcs = tap_.requests - tap_requests;
    const double server_ns = static_cast<double>(tap_.server_ns - tap_server_ns);
    layers["sfs.server.host_us_per_rpc"] = Per(server_ns / 1000.0, rpcs);
    layers["sfs.client.host_us_per_rpc"] = Per((host_ns - server_ns) / 1000.0, rpcs);
    const std::vector<double> sizes(tap_.message_bytes.begin() + static_cast<long>(tap_messages),
                                    tap_.message_bytes.end());
    layers["sfs.wire.msgs_per_op"] = Per(static_cast<double>(sizes.size()), ops);
    layers["sfs.wire.bytes_per_op"] =
        Per(std::accumulate(sizes.begin(), sizes.end(), 0.0), ops);
    layers["sfs.wire.msg_bytes_p50"] = P50(sizes);
    layers["sfs.audit.records_per_op"] =
        Per(static_cast<double>(after.audit_records - before.audit_records), ops);
    layers["sfs.handshake.host_us"] = P50(handshake_ns_) / 1000.0;
    layers["sfs.post_handshake.host_us"] = P50(post_handshake_ns_) / 1000.0;
    layers["rpc.retransmissions"] = static_cast<double>(after.retransmissions - before.retransmissions);
    layers["rpc.drc_hits"] = static_cast<double>(after.drc_hits - before.drc_hits);
    layers["rpc.shed"] = static_cast<double>(after.shed - before.shed);
    layers["sim.events_per_op"] = Per(static_cast<double>(after.events - before.events), ops);

    // Replay this pass's own channel traffic through the public cipher.
    const std::vector<uint32_t> sealed(tap_.sealed_plaintext.begin() + static_cast<long>(tap_sealed),
                                       tap_.sealed_plaintext.end());
    const double chan_ns = ReplayChannel(sealed);
    layers["crypto.chan.host_us_per_msg"] = Per(chan_ns / 1000.0, sealed.size());
    layers["crypto.chan.share"] = chan_ns / host_ns;
    AddPublicKeyReplay(result, &layers);
    return result;
  }

 protected:
  // Runs one workload cycle, stopping early (and returning false) once
  // the recorder says the pass is done.
  virtual bool Cycle(Recorder* rec) = 0;
  virtual void AddPublicKeyReplay(const PassResult&, std::map<std::string, double>*) {}

  std::unique_ptr<ServerBox> MakeServer(const std::string& location, uint64_t key) {
    auto box = std::make_unique<ServerBox>();
    sfs::SfsServer::Options options;
    options.location = location;
    options.key_bits = kRabinBits;
    options.prng_seed = Mix(seed_, key);
    options.registry = &registry_;
    box->server = std::make_unique<sfs::SfsServer>(&clock_, &Costs(), options, &box->auth);
    box->root = box->server->Path().FullPath();
    servers_by_location_[location] = box->server.get();
    return box;
  }

  std::unique_ptr<ClientBox> MakeClient(uint32_t uid, uint64_t key,
                                        const crypto::RabinPrivateKey& user_key) {
    auto box = std::make_unique<ClientBox>();
    box->disk = std::make_unique<sim::Disk>(&clock_, sim::DiskProfile::Ibm18Es(), &registry_);
    box->local = std::make_unique<nfs::MemFs>(&clock_, box->disk.get(), nfs::MemFs::Options{});
    sfs::SfsClient::Options options;
    options.ephemeral_key_bits = kRabinBits;
    options.prng_seed = Mix(seed_, key);
    options.registry = &registry_;
    box->sfscd = std::make_unique<sfs::SfsClient>(
        &clock_, &Costs(),
        [this](const std::string& location) -> sfs::SfsServer* {
          auto it = servers_by_location_.find(location);
          return it == servers_by_location_.end() ? nullptr : it->second;
        },
        options);
    if (mode_ == Mode::kObserved) {
      box->sfscd->set_interposer(&tap_);
    }
    box->vfs = std::make_unique<vfs::Vfs>(&clock_, &Costs(), &registry_);
    box->vfs->MountRoot(box->local.get(), box->local->root_handle());
    box->vfs->EnableSfs(box->sfscd.get());
    box->agent = std::make_unique<agent::Agent>("u" + std::to_string(uid));
    box->agent->AddPrivateKey(user_key);
    box->user = vfs::UserContext::For(uid, box->agent.get());
    return box;
  }

  static void RegisterUser(ServerBox* server, uint32_t uid, const crypto::RabinPrivateKey& key) {
    auth::PublicUserRecord record;
    record.name = "u" + std::to_string(uid);
    record.public_key = key.public_key().Serialize();
    record.credentials = nfs::Credentials::User(uid, {uid});
    Require(server->auth.RegisterUser(record).ok(), "register user");
  }

  crypto::RabinPrivateKey UserKey(uint64_t key) {
    crypto::Prng prng(Mix(seed_, key));
    return crypto::RabinPrivateKey::Generate(&prng, kRabinBits);
  }

  // Times a vfs call when observing.
  template <typename Fn>
  auto TimeVfs(VfsCall call, Fn fn) {
    if (mode_ != Mode::kObserved) {
      return fn();
    }
    const uint64_t t0 = HostNs();
    auto result = fn();
    vfs_ns_[call].push_back(static_cast<double>(HostNs() - t0));
    return result;
  }

  // One timed op: `fn` does the work and returns whether every call
  // succeeded and returned the expected bytes.
  void TimedOp(Recorder* rec, uint64_t payload, const std::function<bool(const char**)>& fn) {
    const char* error = "";
    if (mode_ == Mode::kObserved) {
      tap_.BeginOp();
    }
    const uint64_t virt0 = clock_.now_ns();
    // Up to kAppNs of simulated application CPU per op, drawn from the
    // seed, so every virtual percentile moves with the inputs instead of
    // sitting on one op type's fixed cost.
    clock_.Advance(Mix(seed_, ++app_draws_) % kAppNs, obs::TimeCategory::kApp);
    const uint64_t t0 = HostNs();
    const bool ok = fn(&error);
    const uint64_t t1 = HostNs();
    rec->Op(t1 - t0, virt0, ok, payload, error);
    if (mode_ == Mode::kObserved && split_handshake_ && tap_.first_sealed_ns() != 0) {
      handshake_ns_.push_back(static_cast<double>(tap_.first_sealed_ns() - t0));
      post_handshake_ns_.push_back(static_cast<double>(t1 - tap_.first_sealed_ns()));
    }
  }

  // Reads [0, expected.size()) of `path` with open/pread/close and
  // compares the bytes.
  bool ReadAndCheck(ClientBox* c, const std::string& path, const util::Bytes& expected,
                    const char** error) {
    auto file = TimeVfs(kOpen, [&] { return c->vfs->Open(c->user, path, vfs::OpenFlags::ReadOnly()); });
    if (!file.ok()) {
      *error = "open for read failed";
      return false;
    }
    auto data = TimeVfs(kPread, [&] { return file->Pread(0, static_cast<uint32_t>(expected.size())); });
    const bool closed = TimeVfs(kClose, [&] { return file->Close(); }).ok();
    if (!data.ok() || !closed) {
      *error = "read failed";
      return false;
    }
    if (*data != expected) {
      *error = "read returned wrong bytes";
      return false;
    }
    return true;
  }

  uint64_t seed_;
  Mode mode_;
  // Declared first: every component caches pointers into it.
  obs::Registry registry_;
  sim::Clock clock_;
  std::map<std::string, sfs::SfsServer*> servers_by_location_;
  WireTap tap_;
  // Ops mount afresh, so each splits at its first sealed request into
  // handshake and post-handshake host time.
  bool split_handshake_ = false;
  uint64_t app_draws_ = 0;
  std::vector<double> vfs_ns_[kVfsCalls];
  std::vector<double> handshake_ns_;
  std::vector<double> post_handshake_ns_;

 private:
  static double ReplayChannel(const std::vector<uint32_t>& plaintext_sizes) {
    crypto::Prng prng(uint64_t{0xc4a7});
    const util::Bytes key = prng.RandomBytes(20);
    sfs::ChannelCipher seal(key);
    sfs::ChannelCipher open(key);
    const util::Bytes buffer = prng.RandomBytes(256 * 1024);
    uint64_t ns = 0;
    for (uint32_t size : plaintext_sizes) {
      const util::Bytes plaintext(buffer.begin(),
                                  buffer.begin() + std::min<long>(size, static_cast<long>(buffer.size())));
      const uint64_t t0 = HostNs();
      const util::Bytes sealed = seal.Seal(plaintext);
      auto opened = open.Open(sealed);
      ns += HostNs() - t0;
      if (!opened.ok()) {
        throw std::runtime_error("channel replay failed to open its own message");
      }
    }
    return static_cast<double>(ns);
  }
};

// One server, one client, one user (sfs_bulk and sfs_small).
class SingleMountWorkload : public SfsWorkload {
 public:
  using SfsWorkload::SfsWorkload;

 protected:
  void BuildMachines(const std::string& dir, SpeedScale* timer) {
    server_ = MakeServer("server.bench", 1);
    timer->Tick();
    const crypto::RabinPrivateKey user_key = UserKey(2);
    RegisterUser(server_.get(), 1000, user_key);
    timer->Tick();
    client_ = MakeClient(1000, 3, user_key);
    timer->Tick();
    base_ = server_->root + "/" + dir;
    Require(client_->vfs->Mkdir(client_->user, base_).ok(), "mkdir " + base_);
  }
  // Phase separation, as in the paper's LFS benchmarks: client caches
  // are dropped, the server's stay warm.
  void DropCaches() {
    auto mount = client_->sfscd->Mount(server_->server->Path());
    if (mount.ok()) {
      (*mount)->cache()->InvalidateAll();
    }
  }

  std::unique_ptr<ServerBox> server_;
  std::unique_ptr<ClientBox> client_;
  std::string base_;
};

// --- sfs_bulk -----------------------------------------------------------------

constexpr size_t kBulkOp = 64 * 1024;
constexpr size_t kBulkBlocks = 128;  // 8 MB file.

class BulkWorkload : public SingleMountWorkload {
 public:
  using SingleMountWorkload::SingleMountWorkload;

  size_t oracle_ops() const override { return 2 * 4 * kBulkBlocks; }

  void Setup(SpeedScale* timer) override {
    BuildMachines("bulk", timer);
    path_ = base_ + "/large";
    versions_.assign(kBulkBlocks, 0);
    // Warm-up pass: the sequential write that creates the file.
    auto file = client_->vfs->Open(client_->user, path_, vfs::OpenFlags::CreateRw());
    Require(file.ok(), "create " + path_);
    for (size_t b = 0; b < kBulkBlocks; ++b) {
      Require(file->Pwrite(b * kBulkOp, Content(seed_, b, ++versions_[b], kBulkOp)).ok(),
              "initial write");
      timer->Tick();
    }
    Require(file->Close().ok(), "close after initial write");
    DropCaches();
  }

 protected:
  // Four phases over the file, fig9-style: sequential write, sequential
  // read, random write, random read, each block once per phase, with the
  // client caches dropped between phases.
  bool Cycle(Recorder* rec) override {
    const uint64_t cycle = cycles_++;
    for (int phase = 0; phase < 4; ++phase) {
      const bool write = phase % 2 == 0;
      std::vector<uint32_t> order(kBulkBlocks);
      std::iota(order.begin(), order.end(), 0);
      if (phase >= 2) {
        order = Permutation(kBulkBlocks, Mix(seed_, cycle * 4 + phase));
      }
      auto file = TimeVfs(kOpen, [&] {
        return client_->vfs->Open(client_->user, path_,
                                  write ? vfs::OpenFlags::WriteOnly() : vfs::OpenFlags::ReadOnly());
      });
      if (!file.ok()) {
        rec->Fail("open " + path_ + ": " + file.status().ToString());
        return false;
      }
      bool done = false;
      for (uint32_t block : order) {
        if (rec->Done()) {
          done = true;
          break;
        }
        const uint64_t offset = uint64_t{block} * kBulkOp;
        if (write) {
          const util::Bytes data = Content(seed_, block, versions_[block] + 1, kBulkOp);
          TimedOp(rec, kBulkOp, [&](const char** error) {
            if (!TimeVfs(kPwrite, [&] { return file->Pwrite(offset, data); }).ok()) {
              *error = "pwrite failed";
              return false;
            }
            return true;
          });
          ++versions_[block];
        } else {
          const util::Bytes expected = Content(seed_, block, versions_[block], kBulkOp);
          TimedOp(rec, kBulkOp, [&](const char** error) {
            auto data = TimeVfs(kPread, [&] { return file->Pread(offset, kBulkOp); });
            if (!data.ok()) {
              *error = "pread failed";
              return false;
            }
            if (*data != expected) {
              *error = "pread returned wrong or stale bytes";
              return false;
            }
            return true;
          });
        }
      }
      if (!TimeVfs(kClose, [&] { return file->Close(); }).ok()) {
        rec->Fail("close " + path_);
      }
      if (done) {
        return false;
      }
      DropCaches();
    }
    return true;
  }

 private:
  std::string path_;
  std::vector<uint64_t> versions_;
  uint64_t cycles_ = 0;
};

// --- sfs_small ----------------------------------------------------------------

constexpr size_t kSmallFiles = 400;
constexpr size_t kSmallDirs = 16;

class SmallWorkload : public SingleMountWorkload {
 public:
  using SingleMountWorkload::SingleMountWorkload;

  size_t oracle_ops() const override { return 3 * kSmallFiles; }

  void Setup(SpeedScale* timer) override {
    BuildMachines("small", timer);
    for (size_t d = 0; d < kSmallDirs; ++d) {
      Require(client_->vfs->Mkdir(client_->user, base_ + "/d" + std::to_string(d)).ok(), "mkdir");
      timer->Tick();
    }
    for (size_t i = 0; i < kSmallFiles; ++i) {
      // About 1 KB; the seed moves sizes, and with them wire bytes.
      sizes_.push_back(768 + Mix(seed_, 0x5e000 + i) % 513);
      paths_.push_back(base_ + "/d" + std::to_string(i % kSmallDirs) + "/f" + std::to_string(i));
    }
    // Warm-up pass: one full cycle.
    Recorder warm(timer, &clock_, &registry_, 0, oracle_ops(), /*oracle_only=*/true, false);
    warm.Start();
    Cycle(&warm);
    PassResult result = warm.Finish();
    Require(result.ok == result.attempted && result.errors.empty(), "warm-up cycle");
  }

 protected:
  // Fig8 traffic.  One op is one file in one phase: create+write+close,
  // then (after a client-cache drop) open+read+close, then unlink.
  bool Cycle(Recorder* rec) override {
    const uint64_t cycle = ++cycles_;
    ClientBox* c = client_.get();
    for (int phase = 0; phase < 3; ++phase) {
      for (uint32_t i : Permutation(kSmallFiles, Mix(seed_, cycle * 3 + phase))) {
        if (rec->Done()) {
          return false;
        }
        const std::string& path = paths_[i];
        if (phase == 0) {
          const util::Bytes content = Content(seed_, i, cycle, sizes_[i]);
          TimedOp(rec, content.size(), [&](const char** error) {
            auto file = TimeVfs(kOpen, [&] {
              return c->vfs->Open(c->user, path, vfs::OpenFlags::CreateRw());
            });
            if (!file.ok()) {
              *error = "create failed";
              return false;
            }
            const bool wrote = TimeVfs(kPwrite, [&] { return file->Pwrite(0, content); }).ok();
            if (!TimeVfs(kClose, [&] { return file->Close(); }).ok() || !wrote) {
              *error = "write or close failed";
              return false;
            }
            return true;
          });
        } else if (phase == 1) {
          const util::Bytes expected = Content(seed_, i, cycle, sizes_[i]);
          TimedOp(rec, expected.size(),
                  [&](const char** error) { return ReadAndCheck(c, path, expected, error); });
        } else {
          TimedOp(rec, 0, [&](const char** error) {
            *error = "unlink failed";
            return TimeVfs(kUnlink, [&] { return c->vfs->Unlink(c->user, path); }).ok();
          });
        }
      }
      if (phase < 2) {
        DropCaches();
      }
    }
    return true;
  }

 private:
  std::vector<size_t> sizes_;
  std::vector<std::string> paths_;
  uint64_t cycles_ = 0;
};

// --- sfs_connect --------------------------------------------------------------

constexpr size_t kConnectServers = 64;
constexpr size_t kConnectClients = 16;
constexpr size_t kPublicKeyReplays = 32;

class ConnectWorkload : public SfsWorkload {
 public:
  ConnectWorkload(uint64_t seed, Mode mode) : SfsWorkload(seed, mode) { split_handshake_ = true; }

  size_t oracle_ops() const override { return kConnectServers * kConnectClients; }

  void Setup(SpeedScale* timer) override {
    const nfs::Credentials root = nfs::Credentials::User(0);
    for (size_t j = 0; j < kConnectServers; ++j) {
      servers_.push_back(MakeServer("s" + std::to_string(j) + ".bench", 0x100 + j));
      nfs::MemFs* fs = servers_.back()->server->fs();
      nfs::Sattr mode;
      mode.mode = 0644;
      nfs::FileHandle fh;
      nfs::Fattr attr;
      files_.push_back(Content(seed_, 0x7000 + j, 1, 992 + Mix(seed_, 0x7100 + j) % 65));
      Require(fs->Create(fs->root_handle(), "f", root, mode, &fh, &attr) == nfs::Stat::kOk &&
                  fs->Write(fh, root, 0, files_.back(), /*stable=*/true, &attr) == nfs::Stat::kOk,
              "server file");
      timer->Tick();
    }
    for (size_t i = 0; i < kConnectClients; ++i) {
      user_keys_.push_back(UserKey(0x200 + i));
      for (auto& server : servers_) {
        RegisterUser(server.get(), Uid(i), user_keys_.back());
      }
      timer->Tick();
    }
    // Warm-up pass: one connect per client, on a pool that is then
    // replaced so the timed phase starts with no mounts.
    BuildPool(timer);
    Recorder warm(timer, &clock_, &registry_, 0, kConnectClients, /*oracle_only=*/true, false);
    warm.Start();
    for (uint32_t i = 0; i < kConnectClients; ++i) {
      Connect(&warm, i, i);
      timer->Tick();
    }
    PassResult result = warm.Finish();
    Require(result.ok == result.attempted && result.errors.empty(), "warm-up connects");
    BuildPool(timer);
  }

 protected:
  // Every (client, server) pair connects once, in a seeded order; then
  // the client pool is replaced (untimed: new ephemeral keys) so that
  // every op of the next cycle mounts afresh.
  bool Cycle(Recorder* rec) override {
    const uint64_t cycle = cycles_++;
    for (uint32_t pair : Permutation(kConnectServers * kConnectClients, Mix(seed_, 0xc0 + cycle))) {
      if (rec->Done()) {
        return false;
      }
      Connect(rec, pair % kConnectClients, pair / kConnectClients);
    }
    rec->Pause();
    BuildPool(nullptr);
    rec->Resume();
    return true;
  }

  // Public-key work of one connect, replayed on the workload's keys: the
  // Figure 3 exchange (client encrypts two halves under K_S, the server
  // decrypts them and encrypts two under K_C, the client decrypts) plus
  // the user's signature and the server's verification.  A user key
  // stands in for K_C, which sfscd does not expose; both are 512 bits.
  void AddPublicKeyReplay(const PassResult& result, std::map<std::string, double>* layers) override {
    crypto::Prng prng(Mix(seed_, 0x9e9));
    uint64_t ns = 0;
    for (size_t k = 0; k < kPublicKeyReplays; ++k) {
      const crypto::RabinPrivateKey& server_key = servers_[k % kConnectServers]->server->private_key();
      const crypto::RabinPrivateKey& client_key = user_keys_[k % kConnectClients];
      const crypto::RabinPrivateKey& user_key = user_keys_[(k + 1) % kConnectClients];
      const util::Bytes auth_request = prng.RandomBytes(64);
      const uint64_t t0 = HostNs();
      sfs::ClientNegotiation client;
      client.ephemeral_key = client_key;
      client.kc1 = prng.RandomBytes(20);
      client.kc2 = prng.RandomBytes(20);
      auto enc1 = server_key.public_key().Encrypt(client.kc1, &prng);
      auto enc2 = server_key.public_key().Encrypt(client.kc2, &prng);
      if (!enc1.ok() || !enc2.ok()) {
        throw std::runtime_error("public-key replay: encrypt failed");
      }
      auto server = sfs::ServerNegotiation::Respond(server_key, client_key.public_key().Serialize(),
                                                    *enc1, *enc2, &prng);
      if (!server.ok()) {
        throw std::runtime_error("public-key replay: respond failed");
      }
      auto keys = client.Finish(server_key.public_key(), server->enc_ks1, server->enc_ks2);
      const util::Bytes signature = user_key.Sign(auth_request);
      const bool verified = user_key.public_key().Verify(auth_request, signature).ok();
      ns += HostNs() - t0;
      if (!keys.ok() || !verified) {
        throw std::runtime_error("public-key replay: negotiation failed");
      }
    }
    const double per_connect = static_cast<double>(ns) / kPublicKeyReplays;
    (*layers)["crypto.pk.host_us_per_connect"] = per_connect / 1000.0;
    // Raw host time on both sides, as in crypto.chan.share.
    const double mean_op = Per(result.raw_host_s * 1e9, result.attempted);
    (*layers)["crypto.pk.share"] = mean_op > 0 ? per_connect / mean_op : 0.0;
  }

 private:
  static uint32_t Uid(size_t i) { return 1000 + static_cast<uint32_t>(i); }

  // Ticks `timer` after each client when it is not null.
  void BuildPool(SpeedScale* timer) {
    clients_.clear();
    const uint64_t generation = generations_++;
    for (size_t i = 0; i < kConnectClients; ++i) {
      clients_.push_back(MakeClient(Uid(i), (generation << 16) | i, user_keys_[i]));
      if (timer != nullptr) {
        timer->Tick();
      }
    }
  }

  // Automount through /sfs/Location:HostID (connect, Figure 3
  // negotiation, user authentication), stat of the root, then
  // open+read+close of the server's 1 KB file.
  void Connect(Recorder* rec, uint32_t client, uint32_t server) {
    ClientBox* c = clients_[client].get();
    const std::string& root = servers_[server]->root;
    const util::Bytes& expected = files_[server];
    TimedOp(rec, expected.size(), [&](const char** error) {
      if (!TimeVfs(kStat, [&] { return c->vfs->Stat(c->user, root); }).ok()) {
        *error = "stat of the mount root failed";
        return false;
      }
      return ReadAndCheck(c, root + "/f", expected, error);
    });
  }

  std::vector<std::unique_ptr<ServerBox>> servers_;
  std::vector<util::Bytes> files_;
  std::vector<crypto::RabinPrivateKey> user_keys_;
  std::vector<std::unique_ptr<ClientBox>> clients_;
  uint64_t generations_ = 0;
  uint64_t cycles_ = 0;
};

// --- nfs_fleet ----------------------------------------------------------------

constexpr uint32_t kFleetClients = 256;
constexpr uint32_t kFleetWindow = 2;
constexpr uint32_t kFleetFiles = 1024;
constexpr uint32_t kFleetFileBytes = 8 * 1024;
constexpr uint32_t kFleetIoBytes = 4 * 1024;  // WRITE size.
constexpr uint32_t kFleetPrivateSlots = 16;
constexpr size_t kFleetOracleOps = 20000;
constexpr double kFleetZipfSkew = 0.99;
// Mean think time between a call's reply and the slot's next call.  It
// keeps the server below saturation, so queue waits stay far under the
// 200 ms retransmission timeout and a clean link sees no retransmissions.
constexpr uint64_t kFleetThinkNs = 200'000'000;

// Plain NFS3 on the discrete-event core: event-driven rpc::Clients, each
// with its own connection (Link + per-connection Dispatcher) into one
// shared sim::Host.  Each client runs kFleetWindow closed-loop slots: a
// call, its reply, a think time, the next call.
class FleetWorkload : public Workload {
 public:
  FleetWorkload(uint64_t seed, Mode mode) : seed_(seed), mode_(mode) {}

  size_t oracle_ops() const override { return kFleetOracleOps; }

  void Setup(SpeedScale* timer) override {
    disk_ = std::make_unique<sim::Disk>(&clock_, sim::DiskProfile::Ibm18Es(), &registry_);
    memfs_ = std::make_unique<nfs::MemFs>(&clock_, disk_.get(), nfs::MemFs::Options{});
    timed_fs_ = std::make_unique<TimedFs>(memfs_.get());
    nfs::FileSystemApi* fs = mode_ == Mode::kObserved ? static_cast<nfs::FileSystemApi*>(timed_fs_.get())
                                                      : memfs_.get();
    program_ = std::make_unique<nfs::NfsProgram>(fs, &clock_, &Costs());
    host_dispatcher_ = MakeDispatcher();
    host_ = std::make_unique<sim::Host>(&clock_, host_dispatcher_.get(), &registry_);

    const nfs::Credentials root = nfs::Credentials::User(0);
    nfs::Fattr attr;
    nfs::Sattr world;
    world.mode = 0777;
    Require(memfs_->SetAttr(memfs_->root_handle(), root, world, &attr) == nfs::Stat::kOk, "chmod");
    double mass = 0;
    for (uint32_t k = 0; k < kFleetFiles; ++k) {
      nfs::Sattr mode;
      mode.mode = 0644;
      nfs::FileHandle fh;
      shared_content_.push_back(Content(seed_, k, 1, kFleetFileBytes));
      Require(memfs_->Create(memfs_->root_handle(), "s" + std::to_string(k), root, mode, &fh,
                             &attr) == nfs::Stat::kOk &&
                  memfs_->Write(fh, root, 0, shared_content_.back(), true, &attr) == nfs::Stat::kOk,
              "shared file");
      shared_fh_.push_back(fh);
      mass += 1.0 / std::pow(static_cast<double>(k + 1), kFleetZipfSkew);
      zipf_cdf_.push_back(mass);
      timer->Tick();
    }
    for (double& c : zipf_cdf_) {
      c /= mass;
    }
    // Popularity rank -> file: seeded, so the hot set moves with the seed.
    popular_ = Permutation(kFleetFiles, Mix(seed_, 0x21bf));

    clients_.resize(kFleetClients);
    for (uint32_t i = 0; i < kFleetClients; ++i) {
      Client& c = clients_[i];
      nfs::Sattr mode;
      mode.mode = 0666;
      Require(memfs_->Create(memfs_->root_handle(), "p" + std::to_string(i), root, mode,
                             &c.private_fh, &attr) == nfs::Stat::kOk,
              "private file");
      c.versions.assign(kFleetPrivateSlots, 0);
      c.rng = Mix(seed_, 0xf1ee7 + i);
      c.dispatcher = MakeDispatcher();
      c.service = std::make_unique<TimedService>(c.dispatcher.get());
      sim::Service* endpoint = mode_ == Mode::kObserved ? static_cast<sim::Service*>(c.service.get())
                                                        : c.dispatcher.get();
      c.link = std::make_unique<sim::Link>(&clock_, sim::LinkProfile::Udp(), host_.get(),
                                           &registry_, endpoint);
      c.transport = std::make_unique<rpc::LinkTransport>(c.link.get());
      c.rpc = std::make_unique<rpc::Client>(
          c.transport.get(), nfs::kNfsProgram, &registry_, "NFS3",
          [](uint32_t proc) { return std::string(nfs::ProcName(proc)); });
      c.rpc->set_window(kFleetWindow);
      c.rpc->EnableEventDriven();
      timer->Tick();
    }

    // Warm-up pass: the closed loop runs kFleetOracleOps completions and
    // keeps running into the timed phase.
    Recorder warm(timer, &clock_, &registry_, 0, kFleetOracleOps, /*oracle_only=*/true, true);
    rec_ = &warm;
    warm.Start();
    for (Client& c : clients_) {
      for (uint32_t slot = 0; slot < kFleetWindow; ++slot) {
        Think(&c);
      }
    }
    Require(Loop(&warm), "warm-up loop");
    PassResult result = warm.Finish();
    Require(result.ok == result.attempted && result.errors.empty(), "warm-up ops");
    rec_ = nullptr;
  }

  PassResult Run(double seconds, bool oracle_only) override {
    if (mode_ == Mode::kSpans) {
      SpansOn(&registry_, &clock_);
    }
    const Counters before = Counters::Read(registry_, &clock_);
    const obs::HistogramSnapshot queue_before = QueueWait()->Snapshot();
    const uint64_t fs_ns = timed_fs_->ns;
    const uint64_t fs_calls = timed_fs_->calls;
    const auto [svc_ns0, svc_calls0] = ServiceTotals();
    callback_ns_ = 0;

    SpeedScale timer;
    Recorder rec(&timer, &clock_, &registry_, seconds, kFleetOracleOps, oracle_only,
                 /*batched=*/true);
    rec_ = &rec;
    rec.Start();
    if (!Loop(&rec)) {
      rec.Fail("event loop ran dry");
    }
    const double callback_ns = static_cast<double>(callback_ns_);
    const Counters after = Counters::Read(registry_, &clock_);
    const obs::HistogramSnapshot queue_wait = QueueWait()->Snapshot().Delta(queue_before);
    const auto [svc_ns1, svc_calls1] = ServiceTotals();
    PassResult result = rec.Finish();
    rec_ = nullptr;

    // Let every call in flight complete (unrecorded but still checked),
    // then check each private file against the writes issued to it.
    stopping_ = true;
    while (InFlight() > 0 && clock_.events()->RunOne()) {
    }
    if (InFlight() > 0 || drain_failures_ > 0) {
      result.errors.push_back("calls in flight at the end of the pass failed");
    }
    CheckPrivateFiles(&result);

    const uint64_t ops = result.attempted;
    std::map<std::string, double>& layers = result.layers;
    if (mode_ == Mode::kSpans) {
      AddCriticalPath(registry_.spans(), ops, &layers);
      return result;
    }
    if (mode_ != Mode::kObserved) {
      return result;
    }
    AddVirtualShares(result.oracle, &layers);
    const double dispatch_ns = static_cast<double>(svc_ns1 - svc_ns0);
    const double memfs_ns = static_cast<double>(timed_fs_->ns - fs_ns);
    layers["rpc.dispatch.host_ns_per_call"] = Per(dispatch_ns - memfs_ns, svc_calls1 - svc_calls0);
    layers["nfs.memfs.host_ns_per_call"] = Per(memfs_ns, timed_fs_->calls - fs_calls);
    layers["rpc.retransmissions"] = static_cast<double>(after.retransmissions - before.retransmissions);
    layers["rpc.drc_hits"] = static_cast<double>(after.drc_hits - before.drc_hits);
    layers["rpc.shed"] = static_cast<double>(after.shed - before.shed);
    layers["nfs.cache.rpcs_per_op"] = Per(static_cast<double>(after.nfs3_calls - before.nfs3_calls), ops);
    layers["sim.events_per_op"] = Per(static_cast<double>(after.events - before.events), ops);
    // The pass's active time excludes the reference slices run between
    // events, so what is left is the event core's own work.
    layers["sim.loop.host_ns_per_op"] =
        Per(result.raw_host_s * 1e9 - dispatch_ns - callback_ns, ops);
    layers["sim.host.queue_wait_us_p50"] =
        static_cast<double>(queue_wait.ApproxPercentileNs(0.50)) / 1000.0;
    layers["sim.host.queue_wait_us_p99"] =
        static_cast<double>(queue_wait.ApproxPercentileNs(0.99)) / 1000.0;
    return result;
  }

 private:
  enum class Kind { kLookup, kGetAttr, kRead, kWrite };

  struct Client {
    std::unique_ptr<rpc::Dispatcher> dispatcher;
    std::unique_ptr<TimedService> service;
    std::unique_ptr<sim::Link> link;
    std::unique_ptr<rpc::LinkTransport> transport;
    std::unique_ptr<rpc::Client> rpc;
    nfs::FileHandle private_fh;
    std::vector<uint64_t> versions;  // Last version written per private slot.
    uint64_t rng = 0;
    uint32_t in_flight = 0;
  };

  std::unique_ptr<rpc::Dispatcher> MakeDispatcher() {
    auto dispatcher = std::make_unique<rpc::Dispatcher>(&registry_, &clock_);
    dispatcher->RegisterProgram(
        nfs::kNfsProgram,
        [this](uint32_t proc, const util::Bytes& args) { return program_->HandleWire(proc, args); },
        [](uint32_t proc) { return std::string(nfs::ProcName(proc)); }, "NFS3");
    return dispatcher;
  }

  const obs::Histogram* QueueWait() { return registry_.GetHistogram("server.queue_wait_ns"); }

  std::pair<uint64_t, uint64_t> ServiceTotals() const {
    uint64_t ns = 0;
    uint64_t calls = 0;
    for (const Client& c : clients_) {
      ns += c.service->ns;
      calls += c.service->calls;
    }
    return {ns, calls};
  }

  uint64_t InFlight() const {
    uint64_t n = 0;
    for (const Client& c : clients_) {
      n += c.in_flight;
    }
    return n;
  }

  // Runs the shared event loop until the recorder is done.
  bool Loop(Recorder* rec) {
    for (uint32_t n = 0;; ++n) {
      if (n % 16 == 0 && rec->Done()) {
        return true;
      }
      if (!clock_.events()->RunOne()) {
        return false;
      }
    }
  }

  uint32_t SharedFile(Client* c) {
    c->rng = Mix(c->rng, 1);
    const double u = static_cast<double>(c->rng >> 11) * (1.0 / 9007199254740992.0);
    const size_t rank = static_cast<size_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) - zipf_cdf_.begin());
    return popular_[std::min<size_t>(rank, kFleetFiles - 1)];
  }

  // One call in flight: what was asked, so the reply can be checked.
  struct Call {
    Kind kind = Kind::kLookup;
    uint32_t file = 0;
    uint64_t offset = 0;
    uint32_t count = 0;  // READ/WRITE payload bytes.
    uint64_t virt0 = 0;
  };

  // Issues the client's next call.  Of every 32 calls, 8 are WRITEs to
  // the client's private file; the other 24 follow fleet_scaling's session
  // model (bench/fleet_scaling.cc): one LOOKUP to three data ops, half of
  // them READs and half GETATTRs, all on Zipf-popular shared files.  So
  // LOOKUP 6, GETATTR 9, READ 9, WRITE 8.  The WRITE share is provisional
  // (see README.md).  READ sizes are seeded (1-8 KB), so READ latencies,
  // where the virtual p50 falls, vary continuously with the inputs.
  void Issue(Client* c) {
    c->rng = Mix(c->rng, 0);
    const uint32_t roll = static_cast<uint32_t>(c->rng % 32);
    Call call;
    call.kind = roll < 6 ? Kind::kLookup
                : roll < 15 ? Kind::kGetAttr
                : roll < 24 ? Kind::kRead
                            : Kind::kWrite;
    xdr::Encoder enc;
    cred_.Encode(&enc);
    uint32_t proc = 0;
    switch (call.kind) {
      case Kind::kLookup:
        proc = nfs::kProcLookup;
        call.file = SharedFile(c);
        enc.PutOpaque(memfs_->root_handle());
        enc.PutString("s" + std::to_string(call.file));
        break;
      case Kind::kGetAttr:
        proc = nfs::kProcGetAttr;
        call.file = SharedFile(c);
        enc.PutOpaque(shared_fh_[call.file]);
        break;
      case Kind::kRead:
        proc = nfs::kProcRead;
        call.file = SharedFile(c);
        call.count = 1024 + static_cast<uint32_t>(Mix(c->rng, 2) % (kFleetFileBytes - 1023));
        call.offset = Mix(c->rng, 3) % (kFleetFileBytes - call.count + 1);
        enc.PutOpaque(shared_fh_[call.file]);
        enc.PutUint64(call.offset);
        enc.PutUint32(call.count);
        break;
      case Kind::kWrite: {
        proc = nfs::kProcWrite;
        const uint32_t slot = static_cast<uint32_t>(Mix(c->rng, 4) % kFleetPrivateSlots);
        call.offset = uint64_t{slot} * kFleetIoBytes;
        call.count = kFleetIoBytes;
        const uint64_t version = ++c->versions[slot];
        enc.PutOpaque(c->private_fh);
        enc.PutUint64(call.offset);
        enc.PutBool(false);  // UNSTABLE, as a write-behind client sends.
        enc.PutOpaque(Content(seed_, PrivateKey(c, slot), version, kFleetIoBytes));
        break;
      }
    }
    ++c->in_flight;
    call.virt0 = clock_.now_ns();
    c->rpc->CallAsync(proc, enc.Take(), [this, c, call](util::Result<util::Bytes> reply) {
      const uint64_t t0 = mode_ == Mode::kObserved ? HostNs() : 0;
      OnReply(c, call, reply);
      if (t0 != 0) {
        callback_ns_ += HostNs() - t0;
      }
    });
  }

  uint64_t PrivateKey(const Client* c, uint32_t slot) const {
    return (uint64_t{1} << 40) | (static_cast<uint64_t>(c - clients_.data()) << 8) | slot;
  }

  // Checks a reply against the generated inputs; null when it is right.
  const char* Check(const Call& call, const util::Result<util::Bytes>& reply) {
    if (!reply.ok()) {
      return "call failed";
    }
    xdr::Decoder dec(*reply);
    auto stat = dec.GetUint32();
    if (!stat.ok() || *stat != static_cast<uint32_t>(nfs::Stat::kOk)) {
      return "server returned an error";
    }
    switch (call.kind) {
      case Kind::kLookup: {
        auto fh = dec.GetOpaque();
        return fh.ok() && *fh == shared_fh_[call.file] ? nullptr : "lookup returned the wrong handle";
      }
      case Kind::kGetAttr: {
        auto attr = nfs::Fattr::Decode(&dec);
        return attr.ok() && attr->size == kFleetFileBytes ? nullptr : "getattr returned a wrong size";
      }
      case Kind::kRead: {
        auto data = dec.GetOpaque();
        const auto first = shared_content_[call.file].begin() + static_cast<long>(call.offset);
        return data.ok() && data->size() == call.count && std::equal(data->begin(), data->end(), first)
                   ? nullptr
                   : "read returned wrong bytes";
      }
      case Kind::kWrite: {
        auto attr = nfs::Fattr::Decode(&dec);
        return attr.ok() && attr->size >= call.offset + call.count ? nullptr
                                                                   : "write returned a short file";
      }
    }
    return "unknown op";
  }

  void OnReply(Client* c, const Call& call, const util::Result<util::Bytes>& reply) {
    --c->in_flight;
    const char* error = Check(call, reply);
    if (rec_ != nullptr) {
      rec_->Op(0, call.virt0, error == nullptr, call.count, error == nullptr ? "" : error);
    } else if (error != nullptr) {
      ++drain_failures_;
    }
    Think(c);
  }

  // Schedules the slot's next call after a seeded think time.
  void Think(Client* c) {
    c->rng = Mix(c->rng, 5);
    const uint64_t think_ns = c->rng % (2 * kFleetThinkNs);
    clock_.events()->Schedule(clock_.now_ns() + think_ns, obs::TimeCategory::kApp, [this, c] {
      if (!stopping_) {
        Issue(c);
      }
    });
  }

  void CheckPrivateFiles(PassResult* result) {
    for (Client& c : clients_) {
      for (uint32_t slot = 0; slot < kFleetPrivateSlots; ++slot) {
        if (c.versions[slot] == 0) {
          continue;
        }
        util::Bytes data;
        bool eof = false;
        const bool ok = memfs_->Read(c.private_fh, cred_, uint64_t{slot} * kFleetIoBytes,
                                     kFleetIoBytes, &data, &eof) == nfs::Stat::kOk &&
                        data == Content(seed_, PrivateKey(&c, slot), c.versions[slot], kFleetIoBytes);
        if (!ok) {
          result->errors.push_back("private file holds the wrong version of a block");
          return;
        }
      }
    }
  }

  uint64_t seed_;
  Mode mode_;
  obs::Registry registry_;
  sim::Clock clock_;
  std::unique_ptr<sim::Disk> disk_;
  std::unique_ptr<nfs::MemFs> memfs_;
  std::unique_ptr<TimedFs> timed_fs_;
  std::unique_ptr<nfs::NfsProgram> program_;
  std::unique_ptr<rpc::Dispatcher> host_dispatcher_;
  std::unique_ptr<sim::Host> host_;
  std::vector<Client> clients_;
  std::vector<util::Bytes> shared_content_;
  std::vector<nfs::FileHandle> shared_fh_;
  std::vector<double> zipf_cdf_;
  std::vector<uint32_t> popular_;
  const nfs::Credentials cred_ = nfs::Credentials::User(1000, {1000});
  Recorder* rec_ = nullptr;
  bool stopping_ = false;
  uint64_t drain_failures_ = 0;
  uint64_t callback_ns_ = 0;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"sfs_bulk", "sfs_small", "sfs_connect",
                                                  "nfs_fleet"};
  return kNames;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed, Mode mode) {
  if (name == "sfs_bulk") {
    return std::make_unique<BulkWorkload>(seed, mode);
  }
  if (name == "sfs_small") {
    return std::make_unique<SmallWorkload>(seed, mode);
  }
  if (name == "sfs_connect") {
    return std::make_unique<ConnectWorkload>(seed, mode);
  }
  if (name == "nfs_fleet") {
    return std::make_unique<FleetWorkload>(seed, mode);
  }
  return nullptr;
}

}  // namespace perfbench
