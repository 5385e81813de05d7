// Commit benchmark: runs one named workload against the public CommitSystem
// API for a fixed wall time, checks every transaction's outcome, and prints
// its metrics, ending with one JSON line (end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1).
//
//   nbcp_perfbench --workload commit-dec8 --seed 7 --seconds 10 --trace 0
//                  [--spans out.jsonl] [--protocol 2PC-central]
//
// A run repeats one episode: a fresh CommitSystem driven through a fixed
// number of transactions generated from --seed. Fixed-length episodes keep
// the per-transaction cost stationary (RecoverNow replays a site's whole
// log, so its cost grows with history), make every exact count a function
// of the seed alone, and let each wall-clock metric average over many
// episodes. --protocol replaces the workload's protocol; it exists for the
// benchmark's own sensitivity control (2PC must trip the failure check).
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/concurrency_set.h"
#include "analysis/state_graph.h"
#include "core/transaction_manager.h"
#include "heap.h"
#include "protocols/protocols.h"
#include "protocols/registry.h"
#include "tracer.h"

namespace perfbench {
namespace {

using nbcp::CommitSystem;
using nbcp::KvOp;
using nbcp::Outcome;
using nbcp::SimTime;
using nbcp::SiteId;
using nbcp::Status;
using nbcp::StatusCode;
using nbcp::SystemConfig;
using nbcp::TransactionId;
using nbcp::TxnResult;

// --- inputs ----------------------------------------------------------------

/// SplitMix64: the benchmark's only source of randomness, so inputs depend
/// on --seed and nothing else.
class Gen {
 public:
  explicit Gen(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [lo, hi].
  uint64_t Between(uint64_t lo, uint64_t hi) {
    return lo + Next() % (hi - lo + 1);
  }
  double Exponential(double mean) { return -mean * std::log(1.0 - Unit()); }

 private:
  uint64_t state_;
};

enum class FaultKind { kNone, kCoordinatorMidBroadcast, kParticipantCrash };

struct Fault {
  FaultKind kind = FaultKind::kNone;
  size_t copies = 0;   ///< Mid-broadcast: copies sent before the crash.
  SiteId site = nbcp::kNoSite;  ///< Participant crash: the victim.
  SimTime delay = 0;   ///< Participant crash: virtual time after launch.
};

struct TxnInput {
  std::vector<KvOp> ops;           ///< Empty for vote-only workloads.
  SiteId no_vote_site = nbcp::kNoSite;
  SimTime arrival = 0;             ///< Open loop: virtual arrival time.
  Fault fault;
};

enum class Drive { kClosedLoop, kOpenLoop, kThreadedBatches };

struct Workload {
  const char* name;
  const char* protocol;
  size_t sites;
  Drive drive;
  bool observe;        ///< SystemConfig::observe and ::blocking.
  size_t txns;         ///< Transactions per episode.
};

constexpr size_t kBatch = 64;  ///< threaded-batch: launches per batch.

// Why each workload exists is recorded in BENCHMARK.json and design.json.
const Workload kWorkloads[] = {
    {"commit-dec8", "3PC-decentralized", 8, Drive::kClosedLoop, false, 1500},
    {"kv-hot", "3PC-central", 4, Drive::kOpenLoop, true, 6000},
    {"crash-churn", "3PC-central", 5, Drive::kClosedLoop, false, 400},
    {"threaded-batch", "3PC-decentralized", 3, Drive::kThreadedBatches,
     false, 32 * kBatch},
};

std::string ValueOf(size_t index) { return "v" + std::to_string(index); }

/// Key index with P(k) proportional to 1/(k+1)^skew.
class Zipf {
 public:
  Zipf(size_t keys, double skew) : cdf_(keys) {
    double total = 0;
    for (size_t k = 0; k < keys; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), skew);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Pick(Gen& gen) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), gen.Unit());
    return std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

std::vector<TxnInput> MakeInputs(const Workload& w, uint64_t seed) {
  Gen gen(seed);
  std::vector<TxnInput> inputs(w.txns);
  const std::string name = w.name;
  if (name == "commit-dec8") {
    // On average every 16th transaction gets a no vote at a random site.
    for (TxnInput& in : inputs) {
      if (gen.Between(0, 15) == 0) {
        in.no_vote_site = static_cast<SiteId>(gen.Between(1, w.sites));
      }
    }
  } else if (name == "kv-hot") {
    const Zipf zipf(200, 0.9);
    double at = 0;
    for (size_t i = 0; i < inputs.size(); ++i) {
      at += gen.Exponential(150.0);
      inputs[i].arrival = static_cast<SimTime>(at);
      for (int k = 0; k < 4; ++k) {
        KvOp op;
        op.site = static_cast<SiteId>(gen.Between(1, w.sites));
        op.kind = gen.Between(0, 1) == 0 ? KvOp::Kind::kGet : KvOp::Kind::kPut;
        op.key = "k" + std::to_string(zipf.Pick(gen));
        if (op.kind == KvOp::Kind::kPut) op.value = ValueOf(i);
        inputs[i].ops.push_back(std::move(op));
      }
    }
  } else if (name == "crash-churn") {
    size_t faults = 0;
    for (size_t i = 0; i < inputs.size(); ++i) {
      for (int k = 0; k < 3; ++k) {
        KvOp op;
        op.site = static_cast<SiteId>(gen.Between(1, w.sites));
        op.kind = KvOp::Kind::kPut;
        op.key = "k" + std::to_string(gen.Between(0, 9999));
        op.value = ValueOf(i);
        inputs[i].ops.push_back(std::move(op));
      }
      if (i % 20 != 19) continue;
      Fault& f = inputs[i].fault;
      if (faults++ % 2 == 0) {
        f.kind = FaultKind::kCoordinatorMidBroadcast;
        f.copies = gen.Between(0, w.sites - 1);
      } else {
        // A commit round trip at 100-150 us per hop lasts under ~700 us.
        f.kind = FaultKind::kParticipantCrash;
        f.site = static_cast<SiteId>(gen.Between(2, w.sites));
        f.delay = gen.Between(0, 700);
      }
    }
  }
  // threaded-batch: every site votes yes; nothing to generate.
  return inputs;
}

/// The message the coordinator broadcasts once all votes are in: the one
/// a mid-broadcast coordinator crash interrupts.
const char* SecondRoundMessage(const std::string& protocol) {
  return protocol.rfind("2PC", 0) == 0 ? nbcp::msg::kCommit
                                       : nbcp::msg::kPrepare;
}

// --- statistics ------------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double CpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
}
long VoluntarySwitches() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return u.ru_nvcsw;
}
/// Peak resident set size (VmHWM) of this process image. getrusage's
/// ru_maxrss is not used: Linux carries it across exec, so it would report
/// the launcher's footprint whenever that is larger.
double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr &&
         std::sscanf(line, "VmHWM: %ld kB", &kib) != 1) {
  }
  std::fclose(status);
  return static_cast<double>(kib) / 1024.0;
}

/// The shared host's speed swings by tens of percent in phases of seconds,
/// and every timing moves with it. The benchmark times this fixed piece of
/// work (string-keyed map inserts, lookups and erases with their heap
/// traffic, the kind of work the commit path does) between episodes, and
/// reports timings scaled to a host on which it takes kNominalReferenceMs.
constexpr double kNominalReferenceMs = 5.0;

double ReferenceKernelMs() {
  const int64_t t0 = NowNs();
  std::map<std::string, uint64_t> map;
  uint64_t h = 1;
  for (uint64_t i = 0; i < 20000; ++i) {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    map["key" + std::to_string(h % 5000)] += i;
    if (i % 3 == 0) map.erase(map.begin());
  }
  volatile size_t keep = map.size();
  (void)keep;
  return static_cast<double>(NowNs() - t0) / 1e6;
}

/// Timings of untraced episodes, scaled to nominal host speed. Each waits
/// for the next reference sample and is then divided by the mean slowdown
/// of the samples taken just before and just after it, so the scaling
/// follows the host's speed phases. Transaction wall times are kept per
/// episode as their sum and percentiles: a run reports the median of the
/// episodes' percentiles, so a few episodes that the host's other tenants
/// interrupt do not set a run's tail.
class NominalTimings {
 public:
  NominalTimings() : previous_ms_(ReferenceKernelMs()) {
    samples_ms_.push_back(previous_ms_);
  }

  void Add(double create_s, double loop_s, double cpu_s,
           const std::vector<double>& txn_wall_us) {
    double sum_us = 0;
    for (double v : txn_wall_us) sum_us += v;
    pending_.push_back({create_s, loop_s, cpu_s, sum_us, txn_wall_us.size(),
                        Quantile(txn_wall_us, 0.5),
                        Quantile(txn_wall_us, 0.99)});
  }

  /// Samples the reference when 200 ms have passed since the last sample.
  void MaybeSample() {
    if (NowNs() - last_sample_ns_ >= 200'000'000) Sample();
  }

  /// Samples the reference and scales everything pending.
  void Sample() {
    const double now_ms = ReferenceKernelMs();
    last_sample_ns_ = NowNs();
    samples_ms_.push_back(now_ms);
    const double slowdown =
        (previous_ms_ + now_ms) / 2.0 / kNominalReferenceMs;
    previous_ms_ = now_ms;
    for (const Pending& p : pending_) {
      create_s.push_back(p.create_s / slowdown);
      loop_s += p.loop_s / slowdown;
      cpu_s += p.cpu_s / slowdown;
      txn_wall_sum_us += p.txn_wall_sum_us / slowdown;
      txn_walls += p.txn_walls;
      if (p.txn_walls == 0) continue;
      txn_wall_p50_us.push_back(p.txn_wall_p50_us / slowdown);
      txn_wall_p99_us.push_back(p.txn_wall_p99_us / slowdown);
    }
    pending_.clear();
  }

  double MedianReferenceMs() const { return Median(samples_ms_); }
  size_t reference_samples() const { return samples_ms_.size(); }

  std::vector<double> create_s;
  double loop_s = 0;
  double cpu_s = 0;
  double txn_wall_sum_us = 0;
  uint64_t txn_walls = 0;
  std::vector<double> txn_wall_p50_us;  ///< One per episode.
  std::vector<double> txn_wall_p99_us;  ///< One per episode.

 private:
  struct Pending {
    double create_s;
    double loop_s;
    double cpu_s;
    double txn_wall_sum_us;
    uint64_t txn_walls;
    double txn_wall_p50_us;
    double txn_wall_p99_us;
  };
  std::vector<Pending> pending_;
  double previous_ms_;
  int64_t last_sample_ns_ = NowNs();
  std::vector<double> samples_ms_;
};

// --- one episode -----------------------------------------------------------

/// Counts that depend only on the seed on the simulator backend; two
/// episodes of one run must produce identical values.
struct Exact {
  uint64_t attempted = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t failed = 0;
  uint64_t with_ops = 0;
  uint64_t lock_conflicts = 0;
  uint64_t events = 0;
  uint64_t max_queue_depth = 0;
  uint64_t msgs = 0;
  uint64_t bytes = 0;
  uint64_t dropped = 0;
  uint64_t obs_events = 0;
  uint64_t obs_checks = 0;
  uint64_t wal_records = 0;
  uint64_t dtlog_records = 0;
  uint64_t faults = 0;
  uint64_t terminated_txns = 0;
  uint64_t termination_sessions = 0;
  uint64_t elections_started = 0;
  uint64_t elections_won = 0;
  uint64_t vlatency_sum = 0;

  bool operator==(const Exact&) const = default;
};

struct Episode {
  double create_s = 0;
  double loop_s = 0;      ///< Wall time of the transaction loop.
  double cpu_s = 0;       ///< Process CPU over the loop.
  long vcsw = 0;          ///< Voluntary context switches over the loop.
  Exact exact;
  std::vector<double> txn_wall_us;
  std::vector<double> batch_wall_ms;
  std::vector<double> vlatency_us;
  int64_t observer_ns = 0;
  int64_t blocking_ns = 0;
};

struct Heap {
  HeapCounts total;       ///< Create through the end of the loop.
  int64_t live_after_create = 0;
};

class Runner {
 public:
  Runner(const Workload& w, std::string protocol,
         const std::vector<TxnInput>& inputs)
      : w_(w), protocol_(std::move(protocol)), inputs_(inputs) {}

  SystemConfig Config(uint64_t seed) const {
    SystemConfig config;
    config.protocol = protocol_;
    config.num_sites = w_.sites;
    config.seed = seed;
    config.observe = w_.observe;
    config.blocking = w_.observe;
    if (w_.drive == Drive::kThreadedBatches) {
      config.backend = SystemConfig::Backend::kThreaded;
    }
    return config;
  }

  /// Runs one episode; `tracer` is null in untraced episodes, `heap` null
  /// unless heap counting is wanted. Appends check failures to `failures`.
  Episode Run(uint64_t seed, Tracer* tracer, Heap* heap,
              std::vector<std::string>* failures);

 private:
  void ClosedLoop(CommitSystem& s, Tracer* tr, Episode& ep);
  void OpenLoop(CommitSystem& s, Tracer* tr, Episode& ep);
  void ThreadedBatches(CommitSystem& s, Tracer* tr, Episode& ep);
  /// Why transaction `index` failed, or "" when it did not. The first
  /// failure of an episode is kept for the report.
  std::string Failure(size_t index, const TxnResult& final_result,
                      bool blocked_before_recovery, const Status& submit,
                      const Status& launch);
  void CheckValues(CommitSystem& s, const std::vector<Outcome>& outcome,
                   std::vector<std::string>* failures) const;

  const Workload& w_;
  std::string protocol_;
  const std::vector<TxnInput>& inputs_;
  std::vector<Outcome> outcomes_;  ///< By input index, this episode.
  std::string first_failure_;
};

std::string Runner::Failure(size_t index, const TxnResult& r,
                            bool blocked_before_recovery,
                            const Status& submit, const Status& launch) {
  std::string why;
  if (!r.consistent) {
    why = "committed at one site and aborted at another";
  } else if (r.blocked || blocked_before_recovery) {
    why = "blocked";
  } else if (r.outcome == Outcome::kUndecided) {
    // A site that crashed before the transaction reached it never learns
    // of it; that is not a failure. Sites that know it and cannot decide
    // are counted as blocked above.
    why = "undecided";
  } else if (!submit.ok() && submit.code() != StatusCode::kAborted) {
    why = "SubmitOps: " + submit.ToString();
  } else if (!launch.ok()) {
    why = "Launch: " + launch.ToString();
  }
  const Fault& f = inputs_[index].fault;
  if (!why.empty() && f.kind == FaultKind::kCoordinatorMidBroadcast) {
    why += " (coordinator crashed after " + std::to_string(f.copies) +
           " copies)";
  } else if (!why.empty() && f.kind == FaultKind::kParticipantCrash) {
    why += " (site " + std::to_string(f.site) + " crashed " +
           std::to_string(f.delay) + " us after launch)";
  }
  if (!why.empty() && first_failure_.empty()) {
    first_failure_ = "txn " + std::to_string(index) + ": " + why;
  }
  return why;
}

Episode Runner::Run(uint64_t seed, Tracer* tracer, Heap* heap,
                    std::vector<std::string>* failures) {
  Episode ep;
  outcomes_.assign(inputs_.size(), Outcome::kUndecided);
  first_failure_.clear();
  if (heap != nullptr) {
    ResetHeapCounts();
    SetHeapCounting(true);
  }
  const int64_t t0 = NowNs();
  std::unique_ptr<CommitSystem> system;
  {
    Scope span(tracer, "Create", Layer::kCore);
    auto created = CommitSystem::Create(Config(seed));
    if (!created.ok()) {
      SetHeapCounting(false);
      failures->push_back("Create failed: " + created.status().ToString());
      return ep;
    }
    system = std::move(*created);
  }
  ep.create_s = static_cast<double>(NowNs() - t0) / 1e9;
  if (heap != nullptr) heap->live_after_create = ReadHeapCounts().live_bytes;

  const double cpu0 = CpuSeconds();
  const long vcsw0 = VoluntarySwitches();
  const int64_t loop0 = NowNs();
  switch (w_.drive) {
    case Drive::kClosedLoop:
      ClosedLoop(*system, tracer, ep);
      break;
    case Drive::kOpenLoop:
      OpenLoop(*system, tracer, ep);
      break;
    case Drive::kThreadedBatches:
      ThreadedBatches(*system, tracer, ep);
      break;
  }
  ep.loop_s = static_cast<double>(NowNs() - loop0) / 1e9;
  ep.cpu_s = CpuSeconds() - cpu0;
  ep.vcsw = VoluntarySwitches() - vcsw0;
  if (heap != nullptr) {
    SetHeapCounting(false);
    heap->total = ReadHeapCounts();
  }

  HeapPause pause;
  CommitSystem& s = *system;
  Exact& x = ep.exact;
  if (!s.threaded()) {
    x.events = s.simulator().stats().events_executed;
    x.max_queue_depth = s.simulator().stats().max_queue_depth;
  }
  const nbcp::NetworkStats net = s.transport().StatsSnapshot();
  x.msgs = net.messages_sent;
  x.bytes = net.bytes_sent;
  x.dropped = net.messages_dropped;
  if (s.observer() != nullptr) {
    x.obs_events = s.observer()->stats().events;
    x.obs_checks = s.observer()->stats().checks;
    if (s.observer()->stats().violations != 0) {
      failures->push_back("observer reported " +
                          std::to_string(s.observer()->stats().violations) +
                          " invariant violations");
    }
  }
  if (s.blocking() != nullptr && s.blocking()->stats().crosscheck_failures) {
    failures->push_back("blocking monitor disagreed with the observer");
  }
  for (SiteId site = 1; site <= w_.sites; ++site) {
    x.wal_records += s.participant(site).wal().size();
    x.dtlog_records += s.participant(site).dt_log().records().size();
  }
  x.termination_sessions =
      s.registry().counter("termination/sessions").value();
  x.elections_started = s.registry().counter("election/started").value();
  x.elections_won = s.registry().counter("election/won").value();

  if (x.failed != 0) {
    failures->push_back(std::to_string(x.failed) + " of " +
                        std::to_string(x.attempted) +
                        " transactions failed; first: " + first_failure_);
  }
  CheckValues(s, outcomes_, failures);
  return ep;
}

void Runner::ClosedLoop(CommitSystem& s, Tracer* tr, Episode& ep) {
  const char* trap_message = SecondRoundMessage(protocol_);
  for (size_t i = 0; i < inputs_.size(); ++i) {
    const TxnInput& in = inputs_[i];
    const int64_t t0 = NowNs();
    const TransactionId txn = s.Begin();
    Status submit = Status::OK();
    if (!in.ops.empty()) {
      Scope span(tr, "SubmitOps", Layer::kDb, txn);
      submit = s.SubmitOps(txn, in.ops);
    }
    if (in.no_vote_site != nbcp::kNoSite) {
      s.SetVote(txn, in.no_vote_site, false);
    }
    if (in.fault.kind == FaultKind::kCoordinatorMidBroadcast) {
      s.injector().CrashDuringBroadcast(1, txn, trap_message,
                                        in.fault.copies);
    } else if (in.fault.kind == FaultKind::kParticipantCrash) {
      const SiteId victim = in.fault.site;
      s.simulator().ScheduleAfter(in.fault.delay, [&s, tr, victim, txn]() {
        Scope span(tr, "CrashNow", Layer::kRecovery, txn);
        s.injector().CrashNow(victim);
      });
    }
    Status launch = Status::OK();
    {
      Scope span(tr, "Launch", Layer::kProtocols, txn);
      launch = s.Launch(txn);
    }
    TxnResult result;
    {
      Scope span(tr, "AwaitQuiescence", Layer::kSim, txn);
      result = s.AwaitQuiescence(txn);
    }
    const bool blocked_before_recovery = result.blocked;
    if (in.fault.kind != FaultKind::kNone) {
      for (SiteId site = 1; site <= w_.sites; ++site) {
        if (s.transport().IsSiteUp(site)) continue;
        Scope span(tr, "RecoverNow", Layer::kRecovery, txn);
        s.injector().RecoverNow(site);
      }
      {
        Scope span(tr, "Simulator::Run", Layer::kSim, txn);
        s.simulator().Run();
      }
      result = s.Summarize(txn);
    }
    HeapPause pause;
    ep.txn_wall_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    Exact& x = ep.exact;
    ++x.attempted;
    if (!in.ops.empty()) ++x.with_ops;
    if (submit.code() == StatusCode::kAborted) ++x.lock_conflicts;
    if (in.fault.kind != FaultKind::kNone) ++x.faults;
    if (result.used_termination) ++x.terminated_txns;
    if (result.outcome == Outcome::kCommitted) ++x.committed;
    if (result.outcome == Outcome::kAborted) ++x.aborted;
    if (!Failure(i, result, blocked_before_recovery, submit, launch).empty()) {
      ++x.failed;
    }
    x.vlatency_sum += result.latency();
    ep.vlatency_us.push_back(static_cast<double>(result.latency()));
    outcomes_[i] = result.outcome;
  }
}

void Runner::OpenLoop(CommitSystem& s, Tracer* tr, Episode& ep) {
  // stepped[i] is the wall time at which the simulator reached input i's
  // arrival (stepped[n] when the final drain ended). A transaction's wall
  // time runs from its own arrival step to the first later step whose
  // arrival is at or after its last site decision, so it is measured
  // without touching the library's trace sink.
  std::vector<int64_t> stepped;
  std::vector<Status> submits, launches;
  std::vector<TransactionId> txns;
  {
    HeapPause pause;
    stepped.assign(inputs_.size() + 1, 0);
    submits.assign(inputs_.size(), Status::OK());
    launches.assign(inputs_.size(), Status::OK());
    txns.assign(inputs_.size(), nbcp::kNoTransaction);
  }
  if (tr != nullptr) {
    // Traced episodes time the sink CommitSystem installs by re-installing
    // one that makes the same two calls in the same order.
    nbcp::GlobalStateObserver* observer = s.observer();
    nbcp::BlockingMonitor* blocking = s.blocking();
    s.trace()->set_sink([&ep, observer, blocking,
                         tr](const nbcp::TraceEvent& e) {
      const int64_t a = NowNs();
      observer->OnEvent(e);
      const int64_t b = NowNs();
      blocking->OnEvent(e);
      const int64_t c = NowNs();
      ep.observer_ns += b - a;
      ep.blocking_ns += c - b;
      tr->AddLeaf(Layer::kObs, c - a);
    });
  }

  for (size_t i = 0; i < inputs_.size(); ++i) {
    const TxnInput& in = inputs_[i];
    {
      Scope span(tr, "Simulator::RunUntil", Layer::kSim);
      s.simulator().RunUntil(in.arrival);
    }
    stepped[i] = NowNs();
    const TransactionId txn = s.Begin();
    txns[i] = txn;
    {
      Scope span(tr, "SubmitOps", Layer::kDb, txn);
      submits[i] = s.SubmitOps(txn, in.ops);
    }
    Scope span(tr, "Launch", Layer::kProtocols, txn);
    launches[i] = s.Launch(txn);
  }
  {
    Scope span(tr, "Simulator::Run", Layer::kSim);
    s.simulator().Run();
  }
  stepped[inputs_.size()] = NowNs();
  if (tr != nullptr) s.trace()->set_sink(nullptr);

  HeapPause pause;
  Exact& x = ep.exact;
  for (size_t i = 0; i < inputs_.size(); ++i) {
    const TxnResult result = s.Summarize(txns[i]);
    ++x.attempted;
    ++x.with_ops;
    if (submits[i].code() == StatusCode::kAborted) ++x.lock_conflicts;
    if (result.used_termination) ++x.terminated_txns;
    if (result.outcome == Outcome::kCommitted) ++x.committed;
    if (result.outcome == Outcome::kAborted) ++x.aborted;
    if (!Failure(i, result, false, submits[i], launches[i]).empty()) ++x.failed;
    x.vlatency_sum += result.end_time - inputs_[i].arrival;
    ep.vlatency_us.push_back(
        static_cast<double>(result.end_time - inputs_[i].arrival));
    // RunUntil(t) runs every event at or before t, so the decision had
    // happened once the simulator stepped to the first later arrival >= it.
    const auto after = std::lower_bound(
        inputs_.begin() + static_cast<std::ptrdiff_t>(i) + 1, inputs_.end(),
        result.end_time,
        [](const TxnInput& in, SimTime t) { return in.arrival < t; });
    const int64_t decided = stepped[after - inputs_.begin()];
    ep.txn_wall_us.push_back(static_cast<double>(decided - stepped[i]) / 1e3);
    outcomes_[i] = result.outcome;
  }
}

void Runner::ThreadedBatches(CommitSystem& s, Tracer* tr, Episode& ep) {
  std::vector<TransactionId> batch;
  std::vector<Status> launches;
  for (size_t first = 0; first < inputs_.size(); first += kBatch) {
    const size_t last = std::min(first + kBatch, inputs_.size());
    {
      HeapPause pause;
      batch.clear();
      launches.clear();
    }
    const int64_t t0 = NowNs();
    for (size_t i = first; i < last; ++i) {
      const TransactionId txn = s.Begin();
      Scope span(tr, "Launch", Layer::kRuntime, txn);
      Status launch = s.Launch(txn);
      HeapPause pause;
      batch.push_back(txn);
      launches.push_back(launch);
    }
    {
      Scope span(tr, "AwaitQuiescence", Layer::kRuntime);
      s.AwaitQuiescence(batch.back());
    }
    HeapPause pause;
    ep.batch_wall_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    Exact& x = ep.exact;
    for (size_t k = 0; k < batch.size(); ++k) {
      const TxnResult result = s.Summarize(batch[k]);
      ++x.attempted;
      if (result.outcome == Outcome::kCommitted) ++x.committed;
      if (result.outcome == Outcome::kAborted) ++x.aborted;
      if (!Failure(first + k, result, false, Status::OK(), launches[k])
               .empty()) {
        ++x.failed;
      }
      outcomes_[first + k] = result.outcome;
    }
    // Launches are pipelined, so a transaction's share of its batch's wall
    // time is its cost; it is scaled to host speed like every other timing.
    ep.txn_wall_us.push_back(ep.batch_wall_ms.back() * 1e3 /
                             static_cast<double>(batch.size()));
  }
}

/// Every (site, key) some transaction wrote must now hold the value of its
/// last committed writer (values are unique per transaction; writers of one
/// key at one site are serialized by its lock, in arrival order), or
/// nothing when no writer committed.
void Runner::CheckValues(CommitSystem& s, const std::vector<Outcome>& outcome,
                         std::vector<std::string>* failures) const {
  constexpr size_t kNone = SIZE_MAX;
  std::map<std::pair<SiteId, std::string>, size_t> expected;
  std::map<std::string, size_t> writer_of;
  for (size_t i = 0; i < inputs_.size(); ++i) {
    for (const KvOp& op : inputs_[i].ops) {
      if (op.kind != KvOp::Kind::kPut) continue;
      writer_of[op.value] = i;
      auto [it, inserted] = expected.try_emplace({op.site, op.key}, kNone);
      if (outcome[i] == Outcome::kCommitted) it->second = i;
    }
  }
  size_t missing = 0;
  size_t aborted_visible = 0;
  for (const auto& [where, index] : expected) {
    const std::optional<std::string> got =
        s.participant(where.first).kv().GetCommitted(where.second);
    const std::optional<std::string> want =
        index == kNone ? std::nullopt : std::optional(ValueOf(index));
    if (got == want) continue;
    auto writer = got.has_value() ? writer_of.find(*got) : writer_of.end();
    if (writer != writer_of.end() &&
        outcome[writer->second] != Outcome::kCommitted) {
      ++aborted_visible;
    } else {
      ++missing;
    }
  }
  if (missing != 0) {
    failures->push_back(std::to_string(missing) +
                        " committed writes not readable through GetCommitted");
  }
  if (aborted_visible != 0) {
    failures->push_back(std::to_string(aborted_visible) +
                        " values written by aborted transactions visible");
  }
}

// --- the run ---------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string protocol;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--protocol") {
      args->protocol = value;
    } else if (flag == "--spans") {
      args->spans = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

double PerTxn(double total, const Exact& x) {
  return x.attempted == 0 ? 0 : total / static_cast<double>(x.attempted);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: nbcp_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <path>] "
                 "[--protocol <name>]\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::string protocol =
      args.protocol.empty() ? w->protocol : args.protocol;
  const bool sim = w->drive != Drive::kThreadedBatches;
  if (!sim) {
    // The threaded backend's workers inherit this thread's affinity. On
    // one CPU every handoff is a local context switch, timed at the same
    // CPU speed as the reference kernel; spread over the shared host's
    // vCPUs, each handoff waits for another vCPU to wake, and runs fell
    // into slow phases (3.8k against 11.7k tx/s) that no scaling follows.
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(sched_getcpu(), &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) {
      std::printf("CHECK FAILED: could not pin the benchmark to one CPU\n");
      return 1;
    }
  }
  const std::vector<TxnInput> inputs = MakeInputs(*w, args.seed);
  Runner runner(*w, protocol, inputs);
  std::vector<std::string> failures;

  // Set-up: the system's construction, timed alone several times here and
  // once more at the start of every untraced episode; setup_s is the median.
  NominalTimings nominal;
  std::vector<double> create_s;  // Raw, for the report.
  for (int i = 0; i < 41; ++i) {
    const int64_t t0 = NowNs();
    auto created = CommitSystem::Create(runner.Config(args.seed));
    const int64_t t1 = NowNs();
    if (!created.ok()) {
      std::printf("CHECK FAILED: Create: %s\n",
                  created.status().ToString().c_str());
      return 1;
    }
    create_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    nominal.Add(create_s.back(), 0, 0, {});
  }
  nominal.Sample();

  // Analysis set-up cost, measured from outside Create (traced run only).
  double graph_build_us = 0, concurrency_us = 0, graph_nodes = 0;
  if (args.trace) {
    auto spec = nbcp::MakeProtocol(protocol);
    if (!spec.ok()) {
      std::printf("CHECK FAILED: MakeProtocol: %s\n",
                  spec.status().ToString().c_str());
      return 1;
    }
    std::vector<double> build, compute;
    for (int i = 0; i < 9; ++i) {
      const int64_t t0 = NowNs();
      auto graph = nbcp::ReachableStateGraph::Build(
          *spec, std::min<size_t>(w->sites, 3));
      const int64_t t1 = NowNs();
      if (!graph.ok()) {
        std::printf("CHECK FAILED: ReachableStateGraph::Build: %s\n",
                    graph.status().ToString().c_str());
        return 1;
      }
      auto analysis = nbcp::ConcurrencyAnalysis::Compute(*graph);
      const int64_t t2 = NowNs();
      build.push_back(static_cast<double>(t1 - t0) / 1e3);
      compute.push_back(static_cast<double>(t2 - t1) / 1e3);
      graph_nodes = static_cast<double>(graph->num_nodes());
    }
    graph_build_us = Median(build);
    concurrency_us = Median(compute);
  }

  // Measurement: whole episodes until --seconds have passed. The traced
  // run alternates untraced and traced episodes, so the tracing overhead
  // is measured under the same conditions. Only a few scalars per episode
  // are kept, so peak RSS is the system's.
  Tracer tracer(200000);
  std::vector<double> batch_wall_p50, batch_wall_p90;  // One per episode.
  // Untraced totals: throughput and CPU cost are rates over the whole
  // timed phase, which average the host's speed swings far better than a
  // median of episodes.
  double committed = 0, plain_txns = 0, plain_loop_s = 0, plain_cpu_s = 0;
  std::vector<double> loop_plain, loop_traced;
  std::vector<double> vlat;  // First episode's: identical in every episode.
  Exact x;                   // First episode's exact counts.
  HeapCounts first_heap;
  uint64_t attempted = 0, failed = 0;
  size_t episodes = 0;
  double traced_txns = 0, traced_events = 0, vcsw = 0, allocs = 0,
         alloc_bytes = 0, live_bytes = 0, observer_ns = 0, blocking_ns = 0;
  const int64_t start = NowNs();
  const int64_t budget = static_cast<int64_t>(args.seconds * 1e9);
  for (;; ++episodes) {
    const bool trace_this = args.trace && episodes % 2 == 1;
    Heap heap;
    Episode ep = runner.Run(args.seed, trace_this ? &tracer : nullptr,
                            trace_this ? &heap : nullptr, &failures);
    attempted += ep.exact.attempted;
    failed += ep.exact.failed;
    if (episodes == 0) {
      x = ep.exact;
      vlat = ep.vlatency_us;
    } else if (sim && !(ep.exact == x) && failures.empty()) {
      // Exact counts must repeat episode after episode on the simulator.
      failures.push_back("exact counts differ between episodes");
    }
    if (trace_this) {
      if (loop_traced.empty()) {
        first_heap = heap.total;
      } else if (sim && (heap.total.allocs != first_heap.allocs ||
                         heap.total.live_bytes != first_heap.live_bytes)) {
        failures.push_back("heap counts differ between traced episodes");
      }
      loop_traced.push_back(ep.loop_s);
      traced_txns += static_cast<double>(ep.exact.attempted);
      traced_events += static_cast<double>(ep.exact.events);
      vcsw += static_cast<double>(ep.vcsw);
      observer_ns += static_cast<double>(ep.observer_ns);
      blocking_ns += static_cast<double>(ep.blocking_ns);
      allocs += static_cast<double>(heap.total.allocs);
      alloc_bytes += static_cast<double>(heap.total.bytes);
      live_bytes += static_cast<double>(heap.total.live_bytes -
                                        heap.live_after_create);
    } else {
      create_s.push_back(ep.create_s);
      committed += static_cast<double>(ep.exact.committed);
      plain_txns += static_cast<double>(ep.exact.attempted);
      plain_loop_s += ep.loop_s;
      plain_cpu_s += ep.cpu_s;
      loop_plain.push_back(ep.loop_s);
      if (!ep.batch_wall_ms.empty()) {
        batch_wall_p50.push_back(Quantile(ep.batch_wall_ms, 0.5));
        batch_wall_p90.push_back(Quantile(ep.batch_wall_ms, 0.9));
      }
      nominal.Add(ep.create_s, ep.loop_s, ep.cpu_s, ep.txn_wall_us);
    }
    if (!failures.empty()) break;
    nominal.MaybeSample();
    if (episodes + 1 >= 4 && NowNs() - start >= budget) break;
  }
  ++episodes;
  nominal.Sample();
  const double peak_rss_mb = PeakRssMb();
  if (peak_rss_mb <= 0) {
    failures.push_back("could not read VmHWM from /proc/self/status");
  }
  const double commit_ratio =
      static_cast<double>(x.committed) / static_cast<double>(x.attempted);
  const double failed_ratio =
      static_cast<double>(failed) / static_cast<double>(attempted);

  std::printf("workload %s: protocol %s, n=%zu, seed %llu, %zu episodes of "
              "%zu txns (%zu traced), nproc %u\n",
              w->name, protocol.c_str(), w->sites,
              static_cast<unsigned long long>(args.seed), episodes, w->txns,
              loop_traced.size(), std::thread::hardware_concurrency());
  std::vector<Metric> metrics;
  if (!args.trace) {
    // Shown but not part of the JSON result: the timings before scaling,
    // and figures that exist on only some workloads or are exact per seed.
    std::printf("  host: reference kernel median %.4g ms over %zu samples "
                "(nominal %.4g ms); raw timings before scaling:\n",
                nominal.MedianReferenceMs(), nominal.reference_samples(),
                kNominalReferenceMs);
    std::printf("  %-32s %.6g s\n", "raw setup_s", Median(create_s));
    std::printf("  %-32s %.6g 1/s\n", "raw throughput_tps",
                committed / plain_loop_s);
    std::printf("  %-32s %.6g us\n", "raw cpu_us_per_txn",
                plain_cpu_s * 1e6 / plain_txns);
    std::printf("  %-32s %.6g\n", "failed_ratio", failed_ratio);
    if (sim) {
      std::printf("  %-32s %.6g us (virtual)\n", "vlatency_p50_us",
                  Quantile(vlat, 0.5));
      std::printf("  %-32s %.6g us (virtual)\n", "vlatency_p99_us",
                  Quantile(vlat, 0.99));
    } else {
      std::printf("  %-32s %.6g ms\n", "batch_wall_p50_ms",
                  Median(batch_wall_p50));
      std::printf("  %-32s %.6g ms\n", "batch_wall_p90_ms",
                  Median(batch_wall_p90));
    }
    // The median transaction is not a JSON metric: the host alternates
    // between two speeds, per-transaction times form two clusters, and the
    // median jumps between them from run to run (commit-dec8: spread 0.20
    // over five seeds) while the mean moves smoothly with the mix.
    std::printf("  %-32s %.6g us\n", "txn_wall_p50_us",
                Median(nominal.txn_wall_p50_us));
    metrics = {
        {"setup_s", Median(nominal.create_s), "s"},
        {"throughput_tps", committed / nominal.loop_s, "1/s"},
        {"cpu_us_per_txn", nominal.cpu_s * 1e6 / plain_txns, "us"},
        {"txn_wall_mean_us",
         nominal.txn_wall_sum_us / static_cast<double>(nominal.txn_walls),
         "us"},
        {"txn_wall_p99_us", Median(nominal.txn_wall_p99_us), "us"},
        {"commit_ratio", commit_ratio, "ratio"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    const double obs_events_total =
        static_cast<double>(x.obs_events) *
        static_cast<double>(loop_traced.size());
    auto per_event = [&](double ns) {
      return obs_events_total == 0 ? 0 : ns / obs_events_total;
    };
    auto self_per_txn = [&](Layer layer) {
      return static_cast<double>(tracer.LayerSelfNs(layer)) / 1e3 /
             traced_txns;
    };
    std::vector<double> drain = tracer.SelfUs("AwaitQuiescence");
    if (sim) {
      for (const char* name : {"Simulator::RunUntil", "Simulator::Run"}) {
        const std::vector<double>& more = tracer.SelfUs(name);
        drain.insert(drain.end(), more.begin(), more.end());
      }
    } else {
      drain.clear();
    }
    const double sim_self =
        static_cast<double>(tracer.LayerSelfNs(Layer::kSim));
    const double obs_self =
        static_cast<double>(tracer.LayerSelfNs(Layer::kObs));
    const std::vector<double>& recover = tracer.SelfUs("RecoverNow");
    const std::vector<double>& launch = tracer.SelfUs("Launch");
    const double faults = static_cast<double>(x.faults);
    auto per_fault = [&](uint64_t v) {
      return faults == 0 ? 0 : static_cast<double>(v) / faults;
    };
    auto per_txn = [&](uint64_t v) {
      return PerTxn(static_cast<double>(v), x);
    };
    metrics = {
        {"analysis.graph_build_us", graph_build_us, "us"},
        {"analysis.concurrency_us", concurrency_us, "us"},
        {"analysis.graph_nodes", graph_nodes, "count"},
        {"core.create_us", Median(tracer.SelfUs("Create")), "us"},
        {"core.self_us_per_txn", self_per_txn(Layer::kCore), "us"},
        {"db.submit_us_p50", Quantile(tracer.SelfUs("SubmitOps"), 0.5), "us"},
        {"db.submit_us_p99", Quantile(tracer.SelfUs("SubmitOps"), 0.99), "us"},
        {"db.lock_conflict_ratio",
         x.with_ops == 0 ? 0
                         : static_cast<double>(x.lock_conflicts) /
                               static_cast<double>(x.with_ops),
         "ratio"},
        {"db.wal_records_per_txn", per_txn(x.wal_records), "count"},
        {"db.self_us_per_txn", self_per_txn(Layer::kDb), "us"},
        {"protocols.launch_us_p50", sim ? Quantile(launch, 0.5) : 0, "us"},
        {"protocols.vlatency_p50_us", sim ? Quantile(vlat, 0.5) : 0, "us"},
        {"protocols.vlatency_p99_us", sim ? Quantile(vlat, 0.99) : 0, "us"},
        {"protocols.self_us_per_txn", self_per_txn(Layer::kProtocols), "us"},
        {"sim.drain_us_p50", Quantile(drain, 0.5), "us"},
        {"sim.drain_us_p99", Quantile(drain, 0.99), "us"},
        {"sim.events_per_txn", per_txn(x.events), "count"},
        {"sim.max_queue_depth", static_cast<double>(x.max_queue_depth),
         "count"},
        {"sim.ns_per_event", traced_events == 0 ? 0 : sim_self / traced_events,
         "ns"},
        {"sim.self_us_per_txn", self_per_txn(Layer::kSim), "us"},
        {"net.msgs_per_txn", per_txn(x.msgs), "count"},
        {"net.bytes_per_txn", per_txn(x.bytes), "bytes"},
        {"net.dropped_per_txn", per_txn(x.dropped), "count"},
        {"recovery.recover_us_p50", Quantile(recover, 0.5), "us"},
        {"recovery.recover_us_max", Quantile(recover, 1.0), "us"},
        {"recovery.wal_records", static_cast<double>(x.wal_records), "count"},
        {"recovery.dtlog_records", static_cast<double>(x.dtlog_records),
         "count"},
        {"recovery.self_us_per_txn", self_per_txn(Layer::kRecovery), "us"},
        {"termination.sessions_per_fault", per_fault(x.termination_sessions),
         "count"},
        {"termination.txn_share", per_txn(x.terminated_txns), "ratio"},
        {"election.started_per_fault", per_fault(x.elections_started),
         "count"},
        {"election.won_per_fault", per_fault(x.elections_won), "count"},
        {"obs.observer_ns_per_event", per_event(observer_ns), "ns"},
        {"obs.blocking_ns_per_event", per_event(blocking_ns), "ns"},
        {"obs.events_per_txn", per_txn(x.obs_events), "count"},
        {"obs.checks_per_txn", per_txn(x.obs_checks), "count"},
        {"obs.share_of_drain",
         sim_self + obs_self == 0 ? 0 : obs_self / (sim_self + obs_self),
         "ratio"},
        {"obs.self_us_per_txn", self_per_txn(Layer::kObs), "us"},
        {"runtime.launch_us_p50", sim ? 0 : Quantile(launch, 0.5), "us"},
        {"runtime.quiesce_ms_p50",
         sim ? 0 : Quantile(tracer.SelfUs("AwaitQuiescence"), 0.5) / 1e3,
         "ms"},
        {"runtime.vcsw_per_txn", sim ? 0 : vcsw / traced_txns, "count"},
        {"runtime.self_us_per_txn", self_per_txn(Layer::kRuntime), "us"},
        {"mem.allocs_per_txn", allocs / traced_txns, "count"},
        {"mem.alloc_bytes_per_txn", alloc_bytes / traced_txns, "bytes"},
        {"mem.live_bytes_per_txn", live_bytes / traced_txns, "bytes"},
        {"trace.overhead_ratio", Median(loop_traced) / Median(loop_plain),
         "ratio"},
    };
    if (!args.spans.empty() && !tracer.WriteJsonl(args.spans)) {
      std::fprintf(stderr, "could not write spans to %s\n",
                   args.spans.c_str());
    }
  }

  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  PrintResult(failures.empty(), attempted, failed, metrics);
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
