// perfbench: host-time benchmark of the weighted-voting stack.
//
//   perfbench --workload read-hot|kv-write|churn-gray --seed N --seconds S --trace 0|1
//
// --trace 0 runs untraced rounds for S host seconds, cycling through the
// workload's inputs derived from the seed (8, or 16 on read-hot), and prints
// the end-to-end metrics: host throughput, set-up, verify and memory from the
// host clock (medians over rounds), latency percentiles and op ratios from
// the simulated clock (over the inputs' ops). --trace 1 alternates untraced
// and traced rounds of the first input, runs the per-layer cost ladder, and
// prints the per-layer metrics. Rounds of one input must do the same simulated work, traced or
// not: any difference, or any failed output check, makes the run incorrect.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when correct, 1 when not, 2 on bad arguments.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "ladder.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using wvote::MetricsSnapshot;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else {
      return false;
    }
  }
  const auto& names = WorkloadNames();
  return argc % 2 == 1 && std::find(names.begin(), names.end(), args->workload) != names.end() &&
         args->seconds > 0 && (args->trace == 0 || args->trace == 1);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_.push_back(Metric{name, value, unit});
    std::printf("%-32s %16.6f %-12s %s\n", name.c_str(), value, unit.c_str(), note.c_str());
  }

  void Fail(const std::string& why) {
    correct_ = false;
    std::printf("FAIL: %s\n", why.c_str());
  }

  bool correct() const { return correct_; }

  void PrintJson(uint64_t attempted, uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.12g", metrics_[i].value);
      out += (i > 0 ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
  }

 private:
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

double Elapsed(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

uint64_t OkOps(const RoundResult& round) {
  uint64_t ok = 0;
  for (const OpSample& op : round.ops) {
    ok += op.ok ? 1 : 0;
  }
  return ok;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

template <typename F>
double MedianOver(const std::vector<RoundResult>& rounds, F&& figure) {
  std::vector<double> values;
  for (const RoundResult& round : rounds) {
    values.push_back(figure(round));
  }
  return Median(values);
}

// A --trace 0 run cycles through Shape::inputs inputs derived from --seed.
// The simulated metrics pool the ops of one cycle, so they rest on that many
// times the samples of one round and still repeat exactly for the seed.
uint64_t InputSeed(uint64_t seed, size_t inputs, size_t round) {
  return seed * 1000003u + round % inputs;
}

// Every round must have passed its output check and done the same simulated
// work as the round `period` rounds before it (the one with its input).
void CheckRounds(const std::vector<RoundResult>& rounds, size_t period, Report* report) {
  for (size_t i = 0; i < rounds.size(); ++i) {
    for (const std::string& v : rounds[i].violations) {
      report->Fail("round " + std::to_string(i) + ": " + v);
    }
    if (rounds[i].fingerprint != rounds[i % period].fingerprint) {
      report->Fail("determinism: round " + std::to_string(i) +
                   " did different simulated work from round " + std::to_string(i % period) +
                   " on the same input");
    }
  }
}

// True when one more round, at the mean round time so far, ends within
// `budget` seconds.
bool FitsAnother(double elapsed, size_t rounds, double budget) {
  return elapsed * static_cast<double>(rounds + 1) / static_cast<double>(rounds) <= budget;
}

double Ms(int64_t us) { return static_cast<double>(us) / 1000.0; }

std::string Count(size_t n) { return "(n=" + std::to_string(n) + ")"; }

void EndToEnd(const Shape& shape, const Args& args, Report* report, uint64_t* attempted,
              uint64_t* failed) {
  std::vector<RoundResult> rounds;
  double peak_rss_mb = 0;
  const auto t0 = Clock::now();
  // Every input once plus one repeat; then as many rounds as fit in the time.
  const size_t inputs = shape.inputs;
  while (rounds.size() <= inputs || FitsAnother(Elapsed(t0), rounds.size(), args.seconds)) {
    rounds.push_back(
        RunRound(shape, InputSeed(args.seed, inputs, rounds.size()), /*traced=*/false));
    if (rounds.size() == inputs) {
      // The peak over one cycle of inputs. Every run makes these rounds, so
      // the figure does not depend on how many more fit in the time: later
      // rounds reuse freed memory, but coroutine frames still suspended at
      // a cluster's teardown are never freed. One round alone is too
      // sensitive to its input: whether its history vector doubles once
      // more moves churn-gray's peak by 4 MiB.
      peak_rss_mb = PeakRssMiB();
    }
  }
  for (const RoundResult& round : rounds) {
    *attempted += round.ops.size();
    *failed += round.ops.size() - OkOps(round);
  }
  std::vector<OpSample> ops;
  for (size_t i = 0; i < inputs; ++i) {
    ops.insert(ops.end(), rounds[i].ops.begin(), rounds[i].ops.end());
  }
  std::printf("workload %s seed %llu: %zu rounds over %zu inputs of %lld simulated s, %zu ops\n",
              shape.name.c_str(), static_cast<unsigned long long>(args.seed), rounds.size(),
              inputs, static_cast<long long>(shape.horizon_s), ops.size());
  CheckRounds(rounds, inputs, report);
  std::printf("per-round host ops/s:");
  for (const RoundResult& round : rounds) {
    std::printf(" %.0f", static_cast<double>(OkOps(round)) / round.timed_s);
  }
  std::printf("\n");

  const std::string over = "(median of " + std::to_string(rounds.size()) + " rounds)";
  report->Add("host_ops_per_s", MedianOver(rounds, [](const RoundResult& r) {
                return static_cast<double>(OkOps(r)) / r.timed_s;
              }), "ops/s", over);
  report->Add("setup_s", MedianOver(rounds, [](const RoundResult& r) { return r.setup_s; }), "s",
              over);
  report->Add("verify_s", MedianOver(rounds, [](const RoundResult& r) { return r.verify_s; }),
              "s", over);
  report->Add("peak_rss_mb", peak_rss_mb, "MiB", "(first " + std::to_string(inputs) + " rounds)");
  const std::vector<int64_t> reads = OkLatencies(ops, false);
  const std::vector<int64_t> writes = OkLatencies(ops, true);
  report->Add("sim_read_p50_ms", Ms(ExactPercentile(reads, 50)), "ms", Count(reads.size()));
  report->Add("sim_read_p99_ms", Ms(ExactPercentile(reads, 99)), "ms", Count(reads.size()));
  report->Add("sim_write_p50_ms", Ms(ExactPercentile(writes, 50)), "ms", Count(writes.size()));
  report->Add("sim_write_p99_ms", Ms(ExactPercentile(writes, 99)), "ms", Count(writes.size()));
  const LatencyLimits limits = LimitsOf(shape);
  report->Add("ok_op_ratio", OkRatio(ops), "ratio", Count(ops.size()));
  report->Add("slo_met_ratio", SloMetRatio(ops, limits), "ratio",
              "(read limit " + std::to_string(Ms(limits.read_us)) + " ms, write limit " +
                  std::to_string(Ms(limits.write_us)) + " ms)");
}

double HistMs(const MetricsSnapshot& snap, const std::string& key, bool p99) {
  auto it = snap.histograms.find(key);
  if (it == snap.histograms.end()) {
    return 0.0;
  }
  return Ms(p99 ? it->second.p99_us : it->second.p50_us);
}

// Largest share of version polls any one representative served.
double MaxProbeShare(const MetricsSnapshot& delta) {
  const std::string prefix = "core.representative.version_polls{";
  uint64_t total = 0;
  uint64_t most = 0;
  for (const auto& [key, value] : delta.counters) {
    if (key.rfind(prefix, 0) == 0) {
      total += value;
      most = std::max(most, value);
    }
  }
  return Ratio(most, total);
}

void PerLayer(const Shape& shape, const Args& args, Report* report, uint64_t* attempted,
              uint64_t* failed) {
  std::vector<RoundResult> untraced;
  std::vector<RoundResult> traced;
  const auto t0 = Clock::now();
  // Alternate so host drift hits both sides alike; leave time for the ladder.
  while (untraced.empty() || FitsAnother(Elapsed(t0), untraced.size(), 0.6 * args.seconds)) {
    untraced.push_back(RunRound(shape, InputSeed(args.seed, shape.inputs, 0), false));
    traced.push_back(RunRound(shape, InputSeed(args.seed, shape.inputs, 0), true));
  }
  std::vector<RoundResult> all = untraced;
  all.insert(all.end(), traced.begin(), traced.end());
  for (const RoundResult& round : all) {
    *attempted += round.ops.size();
    *failed += round.ops.size() - OkOps(round);
  }
  CheckRounds(all, 1, report);
  const Ladder ladder = RunLadder(shape, args.seed);

  const RoundResult& run = untraced.front();
  const MetricsSnapshot& d = run.delta;
  const MetricsSnapshot& td = traced.front().delta;
  const uint64_t ops = std::max<uint64_t>(OkOps(run), 1);
  auto per_op = [&](const char* name) { return Ratio(d.SumCounters(name), ops); };
  auto sum = [&](const char* name) { return d.SumCounters(name); };
  std::printf("workload %s seed %llu: %zu untraced + %zu traced rounds, %llu ok ops each\n",
              shape.name.c_str(), static_cast<unsigned long long>(args.seed), untraced.size(),
              traced.size(), static_cast<unsigned long long>(ops));

  const double events_per_op = per_op("sim.events_processed");
  report->Add("sim.events_per_op", events_per_op, "events/op");
  report->Add("sim.event_ns", ladder.sim_event.ns, "ns");
  report->Add("sim.event_allocs", ladder.sim_event.allocs, "allocs/call");

  const uint64_t sent = sum("net.network.messages_sent");
  const uint64_t dropped = sum("net.network.dropped_source_down") +
                           sum("net.network.dropped_dest_down") +
                           sum("net.network.dropped_partition") + sum("net.network.dropped_loss");
  const double msgs_per_op = per_op("net.network.messages_sent");
  report->Add("net.msgs_per_op", msgs_per_op, "msgs/op");
  report->Add("net.bytes_per_op", per_op("net.network.bytes_sent"), "B/op");
  report->Add("net.drop_ratio", Ratio(dropped, sent), "ratio");
  report->Add("net.delivery_ns", ladder.net_delivery.ns, "ns");
  report->Add("net.delivery_allocs", ladder.net_delivery.allocs, "allocs/call");

  const uint64_t calls = sum("rpc.endpoint.calls_started");
  const double calls_per_op = per_op("rpc.endpoint.calls_started");
  report->Add("rpc.calls_per_op", calls_per_op, "calls/op");
  report->Add("rpc.timeout_ratio", Ratio(sum("rpc.endpoint.calls_timeout"), calls), "ratio");
  report->Add("rpc.hedge_ratio", Ratio(sum("rpc.endpoint.hedges_sent"), calls), "ratio");
  report->Add("rpc.call_ns", ladder.rpc_call.ns, "ns");
  report->Add("rpc.call_allocs", ladder.rpc_call.allocs, "allocs/call");

  const double flushes_per_op = per_op("storage.group_commit_batches");
  report->Add("storage.flushes_per_op", flushes_per_op, "flushes/op");
  report->Add("storage.coalesce_ratio",
              Ratio(sum("storage.group_commit_writes_coalesced"),
                    sum("storage.stable_store.writes_started")),
              "ratio");
  report->Add("storage.flush_ns", ladder.storage_flush.ns, "ns");
  report->Add("storage.flush_allocs", ladder.storage_flush.allocs, "allocs/call");
  report->Add("storage.disk_p99_sim_ms", HistMs(td, "trace.phase.disk", true), "ms");

  const uint64_t lock_requests = sum("txn.lock_manager.grants_immediate") +
                                 sum("txn.lock_manager.grants_after_wait") +
                                 sum("txn.lock_manager.dies");
  report->Add("txn.lock_wait_ratio",
              Ratio(sum("txn.lock_manager.grants_after_wait"), lock_requests), "ratio");
  report->Add("txn.lock_die_ratio", Ratio(sum("txn.lock_manager.dies"), lock_requests), "ratio");
  report->Add("txn.commit_ratio",
              Ratio(sum("txn.coordinator.committed"), sum("txn.coordinator.begun")), "ratio");
  report->Add("txn.indoubt_fired", static_cast<double>(sum("txn.participant.indoubt_timer_fired")),
              "count");
  report->Add("txn.lock_ns", ladder.txn_lock.ns, "ns");
  report->Add("txn.prepare_p50_sim_ms", HistMs(td, "trace.phase.prepare", false), "ms");
  report->Add("txn.lock_wait_p99_sim_ms", HistMs(td, "trace.phase.lock_wait", true), "ms");

  const uint64_t fastpath =
      sum("core.suite_client.fastpath_hits") + sum("core.suite_client.fastpath_misses");
  report->Add("core.probes_per_op", per_op("core.suite_client.probes_sent"), "probes/op");
  report->Add("core.fastpath_hit_ratio", Ratio(sum("core.suite_client.fastpath_hits"), fastpath),
              "ratio");
  report->Add("core.max_probe_share", MaxProbeShare(d), "ratio");
  report->Add("core.gather_rounds_per_op", per_op("core.suite_client.gather_rounds"), "rounds/op");
  report->Add("core.unavailable_ratio",
              Ratio(sum("core.suite_client.unavailable"), run.ops.size()), "ratio");
  report->Add("core.retries_per_op", per_op("core.suite_client.retries"), "retries/op");
  report->Add("core.refreshes_per_write",
              Ratio(sum("core.suite_client.refreshes_spawned"), sum("core.suite_client.writes")),
              "refreshes/op");
  report->Add("core.plan_builds", static_cast<double>(run.plan_builds), "count");
  report->Add("core.read_ns", ladder.core_read.ns, "ns");
  report->Add("core.read_allocs", ladder.core_read.allocs, "allocs/call");
  report->Add("core.write_ns", ladder.core_write.ns, "ns");
  report->Add("core.write_allocs", ladder.core_write.allocs, "allocs/call");
  report->Add("core.solve_ns", ladder.core_solve.ns, "ns");
  report->Add("core.gather_p50_sim_ms", HistMs(td, "trace.phase.gather", false), "ms");
  report->Add("core.gather_p99_sim_ms", HistMs(td, "trace.phase.gather", true), "ms");
  report->Add("core.fetch_p50_sim_ms", HistMs(td, "trace.phase.fetch", false), "ms");

  report->Add("kv.retries_per_op", per_op("kv.store.retries"), "retries/op");
  report->Add("kv.bytes_per_put",
              Ratio(sum("core.suite_client.commit_bytes_serialized"),
                    sum("core.suite_client.writes")),
              "B/write");
  report->Add("kv.codec_ns", ladder.kv_codec.ns, "ns");
  report->Add("kv.put_ns", ladder.kv_put.ns, "ns");
  report->Add("kv.put_allocs", ladder.kv_put.allocs, "allocs/call");

  report->Add("chaos.check_ns_per_op",
              run.check_s * 1e9 / static_cast<double>(std::max<uint64_t>(run.checked_ops, 1)),
              "ns/op", Count(run.checked_ops));
  report->Add("chaos.nemesis_events", static_cast<double>(run.nemesis_events), "count");

  const ModelLatencies model = ModelOf(shape);
  report->Add("analysis.read_p50_model_ratio",
              static_cast<double>(ExactPercentile(OkLatencies(run.ops, false), 50)) /
                  static_cast<double>(model.read_us),
              "ratio", "(model " + std::to_string(Ms(model.read_us)) + " ms)");
  report->Add("analysis.write_p50_model_ratio",
              static_cast<double>(ExactPercentile(OkLatencies(run.ops, true), 50)) /
                  static_cast<double>(model.write_us),
              "ratio", "(model " + std::to_string(Ms(model.write_us)) + " ms)");

  const double untraced_s = MedianOver(untraced, [](const RoundResult& r) { return r.timed_s; });
  const double traced_s = MedianOver(traced, [](const RoundResult& r) { return r.timed_s; });
  report->Add("trace.spans_per_op", Ratio(td.SumCounters("trace.tracer.spans_started"), ops),
              "spans/op");
  report->Add("trace.overhead_ratio", traced_s / untraced_s, "ratio");
  report->Add("alloc.per_op", Ratio(run.allocs, ops), "allocs/op", "(untraced round)");

  // Estimated share of host time per op spent in each ladder layer: the
  // rung's cost times how often the layer runs per op. Rungs nest (an RPC
  // call contains two deliveries, a delivery contains an event), so each
  // layer is charged only its own part of the rung.
  const double host_ns_per_op = untraced_s * 1e9 / static_cast<double>(ops);
  const double kv_ops = static_cast<double>(sum("kv.store.gets") + sum("kv.store.puts") +
                                            sum("kv.store.batches")) +
                        (shape.kv ? 0.1 * static_cast<double>(run.ops.size()) : 0.0);
  struct Share {
    const char* layer;
    double self_ns;
    double per_op;
  };
  const Share shares[] = {
      {"sim (event)", ladder.sim_event.ns, events_per_op},
      {"net (delivery - event)", std::max(0.0, ladder.net_delivery.ns - ladder.sim_event.ns),
       msgs_per_op},
      {"rpc (call - 2 deliveries)", std::max(0.0, ladder.rpc_call.ns - 2 * ladder.net_delivery.ns),
       calls_per_op},
      {"storage (flush - event)", std::max(0.0, ladder.storage_flush.ns - ladder.sim_event.ns),
       flushes_per_op},
      {"txn (lock pair)", ladder.txn_lock.ns, Ratio(lock_requests, ops)},
      {"kv (codec)", ladder.kv_codec.ns, kv_ops / static_cast<double>(ops)},
  };
  std::printf("host ns per op %.0f; estimated share by ladder layer:\n", host_ns_per_op);
  double attributed = 0;
  for (const Share& s : shares) {
    const double share = s.self_ns * s.per_op / host_ns_per_op;
    attributed += share;
    std::printf("  %-28s %8.1f ns x %8.2f /op = %6.1f%%\n", s.layer, s.self_ns, s.per_op,
                100 * share);
  }
  std::printf("  %-28s %38.1f%%\n", "unattributed", 100 * (1 - attributed));
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload read-hot|kv-write|churn-gray --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  const perfbench::Shape& shape = perfbench::ShapeOf(args.workload);
  perfbench::Report report;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  if (args.trace == 0) {
    perfbench::EndToEnd(shape, args, &report, &attempted, &failed);
  } else {
    perfbench::PerLayer(shape, args, &report, &attempted, &failed);
  }
  report.PrintJson(attempted, failed);
  return report.correct() ? 0 : 1;
}
