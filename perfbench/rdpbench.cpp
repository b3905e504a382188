// rdpbench: runs one benchmark workload of the RDP simulator and prints its
// raw measurements as one JSON object on the last line of stdout.
//
//   rdpbench --workload metro|mega|robust --seed N --seconds S --trace 0|1
//
// The program is driven only through its public experiment entry points
// (harness::run_rdp_experiment / run_sharded_rdp_experiment with
// ExperimentParams, rdp_world_hook + fault::FaultInjector) and, for the
// per-layer build and teardown times, the worlds' public constructors;
// every wall time is taken here, around those calls.  perfbench/run.py builds this program,
// turns the raw rounds into metrics and checks the outputs.
//
// --trace 0: whole timed rounds of the workload until `--seconds` have
//            passed (at least one), with setup samples before each round
//            and after the last.  A setup sample is the mean wall time of a
//            batch of zero-simulated-time runs (world build, generator start,
//            result collection, teardown).
// --trace 1: one setup sample, one build/teardown of the world through its
//            public constructor, one untraced round and one profiled round
//            (ExperimentParams.profile), whose obs::ProfileReport is emitted.
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "harness/experiment.h"
#include "harness/sharded_world.h"
#include "harness/world.h"
#include "obs/profiler.h"

namespace {

using rdp::common::Duration;
using rdp::harness::ExperimentParams;
using rdp::harness::ExperimentResult;

// World seed of every workload; --seed is recorded but does not change the
// inputs.  The known program faults (README.md, "Known faults") strike a
// seed-dependent number of times, and the share of failed operations must
// be the same in every run.
constexpr std::uint64_t kWorldSeed = 1;

struct Workload {
  std::string name;
  ExperimentParams params;
  bool sharded = false;
  bool crashes = false;  // arm the rotating Mss crash plan (robust)
  // setup_s samples taken before each round and after the last, each the
  // mean of `setup_batch` zero-time runs: a small world sets up in a
  // millisecond, and the host's speed drifts on a scale of seconds.
  int setup_samples_per_gap = 0;
  int setup_batch = 0;
};

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  ExperimentParams& p = w.params;
  p.seed = kWorldSeed;
  if (name == "metro") {
    // Steady request and hand-off traffic on the sharded kernel: small
    // windows, so barrier, causal-order and per-frame observer work rule.
    p.grid_width = 4;
    p.grid_height = 4;
    p.num_mh = 2400;
    p.num_servers = 4;
    p.sim_time = Duration::seconds(400);
    p.drain_time = Duration::seconds(60);
    p.mean_dwell = Duration::seconds(25);
    p.travel_time = Duration::millis(400);
    p.mean_request_interval = Duration::seconds(8);
    p.causal_order = true;
    p.shards = 4;
    // One thread runs the 4 shards in turn.  With 4 threads every one of
    // the ~72k windows waits for the last worker to be woken, which turns
    // the host's CPU steal into swings of 8-18 s between back-to-back
    // rounds; one thread read 7.0-8.7 s in the same minutes.
    p.shard_threads = 1;
    w.sharded = true;
    w.setup_samples_per_gap = 3;
    w.setup_batch = 40;
  } else if (name == "mega") {
    // ROADMAP's 10^6-Mh run: the registration storm and per-host state.
    p.grid_width = 32;
    p.grid_height = 32;
    p.num_mh = 1'000'000;
    p.num_servers = 8;
    p.sim_time = Duration::seconds(2);
    p.drain_time = Duration::seconds(2);
    p.mean_dwell = Duration::seconds(60);
    // Requests issued while their Mh travels wait out the cell change.  At
    // bench_scalability's 500 ms about 0.8% of requests do, so p99 sits on
    // the knee between the two latency modes and swings by 25% with the
    // draw of which requests wait (seeds 1-6); at 200 ms about 0.3% do and
    // p99 stays in the main mode.
    p.travel_time = Duration::millis(200);
    p.mean_request_interval = Duration::seconds(60);
    p.causal_order = false;
    p.shards = 8;
    p.shard_threads = 4;
    w.sharded = true;
    w.setup_samples_per_gap = 1;
    w.setup_batch = 1;
  } else if (name == "robust") {
    // Loss, ARQ, k-chain replication, membership and Mss crashes together
    // on the single kernel.
    p.grid_width = 4;
    p.grid_height = 4;
    p.num_mh = 400;
    p.num_servers = 2;
    p.sim_time = Duration::seconds(600);
    p.drain_time = Duration::seconds(600);
    p.mean_dwell = Duration::seconds(30);
    p.mean_request_interval = Duration::seconds(6);
    p.wireless.uplink_loss = 0.05;
    p.wireless.downlink_loss = 0.05;
    p.rdp.arq.mode = rdp::core::ArqMode::kSlidingWindow;
    p.rdp.mh_reissue = true;  // crash backstop behind the ARQ
    p.rdp.reissue_timeout = Duration::seconds(45);
    p.rdp.max_reissue_attempts = 10;
    p.rdp.mss_result_cache = true;
    p.replication.mode = rdp::replication::Mode::kAsync;
    p.replication.k = 2;
    w.crashes = true;
    w.setup_samples_per_gap = 2;
    w.setup_batch = 150;
  } else {
    std::cerr << "rdpbench: unknown workload '" << name << "'\n";
    std::exit(2);
  }
  return w;
}

// Every Mss fail-stops for 2 s once per 40 s, staggered round the ring so at
// most one is down at a time; the schedule is fixed, not drawn.
rdp::fault::FaultPlan crash_plan(const ExperimentParams& p) {
  const Duration period = Duration::seconds(40);
  const Duration downtime = Duration::seconds(2);
  rdp::fault::FaultPlan plan;
  const int num_mss = p.num_mss();
  for (int m = 0; m < num_mss; ++m) {
    const Duration first = Duration::seconds(1) + period * (m + 1) / num_mss;
    int count = 0;
    for (Duration at = first; at < p.sim_time; at += period) ++count;
    plan.crash_every(m, first, period, downtime, count);
  }
  return plan;
}

// Auditor violations of one round by rule ("A1", "R1", ...).
struct AuditTally {
  std::map<std::string, std::uint64_t> by_rule;
};

// Lives for one robust run (rdp_world_hook keeps it until the result is
// collected, before the world is torn down): arms the crash plan, then reads
// the auditor's verdicts on the way out.
class CrashHookState {
 public:
  CrashHookState(rdp::harness::World& world, rdp::fault::FaultPlan plan,
                 AuditTally* tally)
      : world_(world), injector_(world, std::move(plan)), tally_(tally) {
    injector_.arm();
  }
  ~CrashHookState() {
    const rdp::obs::InvariantAuditor* auditor = world_.telemetry().auditor();
    if (tally_ == nullptr || auditor == nullptr) return;
    for (const std::string& v : auditor->violations()) {
      // "t=<time>ms <rule> <details>"
      std::istringstream words(v);
      std::string time, rule;
      words >> time >> rule;
      ++tally_->by_rule[rule];
    }
  }
  CrashHookState(const CrashHookState&) = delete;
  CrashHookState& operator=(const CrashHookState&) = delete;

 private:
  rdp::harness::World& world_;
  rdp::fault::FaultInjector injector_;
  AuditTally* tally_;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Round {
  double wall_s = 0;
  ExperimentResult result;
  AuditTally audit;
};

Round run_round(const Workload& w, ExperimentParams params) {
  Round round;
  if (w.crashes) {
    const rdp::fault::FaultPlan plan = crash_plan(params);
    AuditTally* tally = &round.audit;
    params.rdp_world_hook = [plan, tally](rdp::harness::World& world) {
      return std::static_pointer_cast<void>(
          std::make_shared<CrashHookState>(world, plan, tally));
    };
  }
  const auto start = std::chrono::steady_clock::now();
  round.result = w.sharded ? rdp::harness::run_sharded_rdp_experiment(params)
                           : rdp::harness::run_rdp_experiment(params);
  round.wall_s = seconds_since(start);
  return round;
}

ExperimentParams zero_time(ExperimentParams params) {
  params.sim_time = Duration::zero();
  params.drain_time = Duration::zero();
  return params;
}

// The world the runner builds for `params`, for timing its public
// constructor and destructor (harness.build_s).  Mirrors the runner's field
// copy; sharded Mh's start in cell i % num_mss instead of a drawn home cell,
// which changes which shard holds them but not what is built.
rdp::harness::ScenarioConfig scenario_config(const ExperimentParams& p) {
  rdp::harness::ScenarioConfig c;
  c.seed = p.seed;
  c.num_mss = p.num_mss();
  c.num_mh = p.num_mh;
  c.num_servers = p.num_servers;
  c.causal_order = p.causal_order;
  c.replication = p.replication;
  c.proxy_checkpointing = p.proxy_checkpointing;
  c.wired = p.wired;
  c.wireless = p.wireless;
  c.rdp = p.rdp;
  c.server.base_service_time = p.service_time;
  c.server.service_jitter = p.service_jitter;
  c.cost.enabled = true;
  c.cost.energy = p.energy;
  return c;
}

struct BuildTiming {
  double build_s = 0;
  double teardown_s = 0;
};

BuildTiming time_world_build(const Workload& w) {
  BuildTiming t;
  auto start = std::chrono::steady_clock::now();
  if (w.sharded) {
    rdp::harness::ShardedScenarioConfig config;
    config.base = scenario_config(w.params);
    config.shards = w.params.shards;
    config.threads = w.params.shard_threads;
    auto world = std::make_unique<rdp::harness::ShardedWorld>(config);
    t.build_s = seconds_since(start);
    start = std::chrono::steady_clock::now();
    world.reset();
  } else {
    auto world =
        std::make_unique<rdp::harness::World>(scenario_config(w.params));
    t.build_s = seconds_since(start);
    start = std::chrono::steady_clock::now();
    world.reset();
  }
  t.teardown_s = seconds_since(start);
  return t;
}

// --- JSON output -----------------------------------------------------------

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string num(std::uint64_t v) { return std::to_string(v); }

std::uint64_t counter(const ExperimentResult& r, const char* name) {
  const auto it = r.counters.find(name);
  return it == r.counters.end() ? 0 : it->second;
}

std::string round_json(const Round& round) {
  const ExperimentResult& r = round.result;
  std::ostringstream os;
  os << "{\"wall_s\": " << num(round.wall_s)
     << ", \"requests_issued\": " << num(r.requests_issued)
     << ", \"requests_completed\": " << num(r.requests_completed)
     << ", \"requests_lost\": " << num(r.requests_lost)
     << ", \"results_delivered\": " << num(r.results_delivered)
     << ", \"app_duplicates\": " << num(r.app_duplicates)
     << ", \"p50_latency_ms\": " << num(r.p50_latency_ms)
     << ", \"p99_latency_ms\": " << num(r.p99_latency_ms)
     << ", \"mean_handoff_ms\": " << num(r.mean_handoff_ms)
     << ", \"handoffs\": " << num(r.handoffs)
     << ", \"proxies_created\": " << num(r.proxies_created)
     << ", \"result_forwards\": " << num(r.result_forwards)
     << ", \"kernel_events\": " << num(r.kernel_events)
     << ", \"wired_messages\": " << num(r.wired_messages)
     << ", \"wired_bytes\": " << num(r.wired_bytes)
     << ", \"wireless_frames\": " << num(r.cost.wireless_frames)
     << ", \"wireless_bytes\": " << num(r.cost.wireless_bytes)
     << ", \"causal_delayed\": " << num(r.causal_delayed)
     << ", \"invariant_violations\": " << num(r.invariant_violations)
     << ", \"mss_joins\": " << num(counter(r, "mss.joins"))
     << ", \"registration_gave_up\": "
     << num(counter(r, "mh.registration_gave_up"))
     << ", \"arq_retransmits\": " << num(counter(r, "arq.retransmits"))
     << ", \"repl_promotions\": " << num(counter(r, "repl.promotions"))
     << ", \"mh_reissues\": " << num(counter(r, "mh.reissues"))
     << ", \"violations_by_rule\": {";
  bool first = true;
  for (const auto& [rule, count] : round.audit.by_rule) {
    os << (first ? "" : ", ") << quote(rule) << ": " << num(count);
    first = false;
  }
  os << "}}";
  return os.str();
}

std::string profile_json(const rdp::obs::ProfileReport& report) {
  std::ostringstream os;
  os << "{\"domains\": {";
  bool first = true;
  for (const rdp::obs::ProfDomainRow& row : report.domains) {
    os << (first ? "" : ", ") << quote(row.name) << ": {\"self_ns\": "
       << num(row.self_ns) << ", \"alloc_count\": " << num(row.alloc_count)
       << "}";
    first = false;
  }
  std::uint64_t busy = 0, stall = 0;
  for (const rdp::obs::ProfShardRow& shard : report.shards) {
    busy += shard.busy_ns;
    stall += shard.stall_ns;
  }
  os << "}, \"total_alloc_count\": " << num(report.total_alloc_count)
     << ", \"total_alloc_bytes\": " << num(report.total_alloc_bytes)
     << ", \"windows\": " << num(report.windows)
     << ", \"shard_busy_ns\": " << num(busy)
     << ", \"shard_stall_ns\": " << num(stall) << "}";
  return os.str();
}

std::string params_json(const Workload& w) {
  const ExperimentParams& p = w.params;
  const auto ms = [](Duration d) {
    return static_cast<double>(d.count_micros()) / 1000.0;
  };
  std::ostringstream os;
  os << "{\"seed\": " << num(p.seed)
     << ", \"num_mh\": " << p.num_mh
     << ", \"cells\": " << p.num_mss()
     << ", \"shards\": " << (w.sharded ? p.shards : 0)
     << ", \"threads\": " << (w.sharded ? p.shard_threads : 0)
     << ", \"sim_ms\": " << num(ms(p.sim_time))
     << ", \"request_interval_ms\": " << num(ms(p.mean_request_interval))
     << ", \"uplink_ms\": " << num(ms(p.wireless.base_latency))
     << ", \"downlink_ms\": " << num(ms(p.wireless.base_latency))
     << ", \"service_ms\": " << num(ms(p.service_time)) << "}";
  return os.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

[[noreturn]] void usage() {
  std::cerr << "usage: rdpbench --workload metro|mega|robust --seed N "
               "--seconds S --trace 0|1\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage();
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 1 || !args.contains("workload") || !args.contains("seed") ||
      !args.contains("seconds") || !args.contains("trace")) {
    usage();
  }
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  try {
    seed = std::stoull(args["seed"]);  // validated and echoed, see kWorldSeed
    seconds = std::stod(args["seconds"]);
    trace = std::stoi(args["trace"]) != 0;
  } catch (const std::exception&) {
    usage();
  }
  const Workload w = make_workload(args["workload"]);

  std::ostringstream out;
  out << "{\"workload\": " << quote(w.name) << ", \"seed_arg\": " << num(seed)
      << ", \"params\": " << params_json(w);
  std::vector<double> setups;
  const auto setup_gap = [&] {
    for (int i = 0; i < (trace ? 1 : w.setup_samples_per_gap); ++i) {
      double total = 0;
      for (int j = 0; j < w.setup_batch; ++j) {
        total += run_round(w, zero_time(w.params)).wall_s;
      }
      setups.push_back(total / w.setup_batch);
    }
  };
  // The measured period covers the setups too, so a workload whose setup
  // is long (mega) is not run for extra rounds on top of it.
  const auto start = std::chrono::steady_clock::now();
  out << ", \"rounds\": [";
  int rounds = 0;
  do {
    setup_gap();
    out << (rounds++ ? ", " : "") << round_json(run_round(w, w.params));
  } while (!trace && seconds_since(start) < seconds);
  if (!trace) setup_gap();
  out << "]";
  if (trace) {
    const BuildTiming build = time_world_build(w);
    rdp::obs::ProfileReport report;
    ExperimentParams traced = w.params;
    traced.profile = true;
    traced.profile_report = &report;
    const Round round = run_round(w, traced);
    out << ", \"build_s\": " << num(build.build_s)
        << ", \"teardown_s\": " << num(build.teardown_s)
        << ", \"traced\": " << round_json(round)
        << ", \"profile\": " << profile_json(report);
  }
  out << ", \"setup_s\": [";
  for (std::size_t i = 0; i < setups.size(); ++i) {
    out << (i ? ", " : "") << num(setups[i]);
  }
  out << "], \"peak_rss_mb\": " << num(peak_rss_mb()) << "}";
  std::cout << out.str() << std::endl;
  return 0;
}
