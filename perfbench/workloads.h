// The benchmark's workloads: fixed deployments and loads driven through the
// public APIs of Cluster, SuiteClient, ReplicatedKvStore and the chaos
// Nemesis / HistoryRecorder / CheckHistory.
//
// A round builds a fresh cluster from the seed (set-up), warms every client,
// runs the load for a fixed span of simulated time (the timed phase), then
// checks the outputs (verify). The simulated work of a round depends only on
// the workload and the seed, so two rounds of one seed must agree exactly;
// host time is what varies.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/quorum.h"
#include "src/obs/metrics.h"
#include "src/sim/latency.h"
#include "stats.h"

namespace perfbench {

// Everything a workload fixes about its deployment and load.
struct Shape {
  std::string name;
  bool open_loop = false;
  bool kv = false;
  bool faults = false;
  int suites = 1;
  std::vector<int> votes;
  int read_quorum = 0;
  int write_quorum = 0;
  std::vector<int64_t> rep_link_us;  // mean one-way client<->rep delay, per rep
  int64_t disk_write_us = 2000;
  int64_t disk_read_us = 500;
  int client_hosts = 1;
  double think_mean_ms = 0;  // closed loop: exponential think time
  double rate_per_s = 0;     // open loop: Poisson arrival rate
  double write_fraction = 0;  // suite workloads; kv-write has its own op mix
  int64_t horizon_s = 10;    // simulated length of the load
  size_t inputs = 8;         // inputs a --trace 0 run cycles through and pools
  size_t value_bytes = 0;    // write payload size
  double read_limit_x = 0;   // latency limits as multiples of the model's
  double write_limit_x = 0;  // all-up read / write latency
  wvote::QuorumStrategy strategy = wvote::QuorumStrategy::kLowestLatency;
};

// kv-write's shard contents.
constexpr int kKvKeysPerShard = 64;
constexpr size_t kKvValueBytes = 128;

const std::vector<std::string>& WorkloadNames();
// Aborts on an unknown name; check WorkloadNames() first.
const Shape& ShapeOf(const std::string& workload);

// Jitter applied to every link delay: uniform within +-10% of the mean.
constexpr double kLinkJitter = 0.10;
wvote::LatencyModel LinkLatency(int64_t mean_us);

// The analytic model's all-up latencies for a shape (VotingAnalysis with the
// mean round trips; kv mutations are a read plus a write), and the latency
// limits derived from them.
struct ModelLatencies {
  int64_t read_us = 0;
  int64_t write_us = 0;
};
ModelLatencies ModelOf(const Shape& shape);
LatencyLimits LimitsOf(const Shape& shape);

struct RoundResult {
  double setup_s = 0;   // cluster build, suite bootstrap, client wiring, warm-up
  double timed_s = 0;   // the load, tracing as requested
  double verify_s = 0;  // drain, convergence reads and output checks
  std::vector<OpSample> ops;
  uint64_t allocs = 0;            // heap allocations in the timed phase
  wvote::MetricsSnapshot delta;   // registry delta over the timed phase
  uint64_t plan_builds = 0;       // quorum plans built in the whole round
  uint64_t nemesis_events = 0;
  uint64_t checked_ops = 0;       // ops the output check examined
  double check_s = 0;             // host time of that check alone
  std::vector<std::string> violations;
  // Hash of every op outcome and simulated latency plus every registry
  // counter delta outside trace.*: equal for equal simulated work.
  uint64_t fingerprint = 0;
};

RoundResult RunRound(const Shape& shape, uint64_t seed, bool traced);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
