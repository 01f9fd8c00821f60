#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "alloc_count.h"
#include "src/analysis/model.h"
#include "src/chaos/checker.h"
#include "src/chaos/history.h"
#include "src/chaos/nemesis.h"
#include "src/common/backoff.h"
#include "src/common/check.h"
#include "src/core/cluster.h"
#include "src/kv/kv_store.h"
#include "src/sim/random.h"
#include "src/workload/generator.h"

namespace perfbench {

using namespace wvote;  // NOLINT: the benchmark drives this namespace's API

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// An op retries until it succeeds or this much simulated time has passed
// since it fell due; only then does it count as failed. Wait-die refusals
// on a hot suite, locks held across a fault and an occasional quorum that
// cannot be gathered can outlast the eight attempts SuiteClient::ReadOnce /
// WriteOnce allow, so a bounded attempt count would report contention as
// failed ops.
constexpr Duration kOpDeadline = Duration::Seconds(60);
// Simulated time after the load for background work (async phase 2, in-doubt
// resolution, lock leases) to settle before the convergence reads.
constexpr Duration kDrain = Duration::Seconds(10);
constexpr Duration kFinalReadLimit = Duration::Seconds(30);
// churn-gray's fault cycle length.
constexpr int64_t kFaultCycleS = 10;

std::vector<Shape> MakeShapes() {
  Shape read_hot;
  read_hot.name = "read-hot";
  read_hot.suites = 32;
  read_hot.votes = {2, 1, 1, 1, 1};
  read_hot.read_quorum = 2;
  read_hot.write_quorum = 5;
  read_hot.rep_link_us = {2000, 5000, 5000, 10000, 20000};
  read_hot.client_hosts = 8;
  read_hot.think_mean_ms = 50;
  read_hot.write_fraction = 0.05;
  read_hot.horizon_s = 200;
  read_hot.inputs = 16;  // 5% writes: pool twice the rounds for the write p99
  read_hot.value_bytes = 1024;
  read_hot.read_limit_x = 10;
  read_hot.write_limit_x = 5;
  read_hot.strategy = QuorumStrategy::kLoadOptimal;

  Shape kv_write;
  kv_write.name = "kv-write";
  kv_write.kv = true;
  kv_write.suites = 16;
  kv_write.votes = {1, 1, 1, 1, 1};
  kv_write.read_quorum = 2;
  kv_write.write_quorum = 4;
  kv_write.rep_link_us = {5000, 5000, 5000, 5000, 5000};
  kv_write.client_hosts = 8;
  kv_write.think_mean_ms = 5;
  kv_write.horizon_s = 16;
  kv_write.value_bytes = kKvValueBytes;
  kv_write.read_limit_x = 3;
  kv_write.write_limit_x = 3;

  Shape churn;
  churn.name = "churn-gray";
  churn.open_loop = true;
  churn.faults = true;
  churn.suites = 4;
  churn.votes = {1, 1, 1, 1, 1};
  churn.read_quorum = 3;
  churn.write_quorum = 3;
  churn.rep_link_us = {5000, 5000, 5000, 5000, 5000};
  churn.client_hosts = 4;
  churn.rate_per_s = 10;  // below the write-lock knee once ops retry to success
  churn.write_fraction = 0.4;
  churn.horizon_s = 1000;
  churn.value_bytes = 128;
  churn.read_limit_x = 5;
  churn.write_limit_x = 5;
  return {read_hot, kv_write, churn};
}

const std::vector<Shape>& Shapes() {
  static const std::vector<Shape> shapes = MakeShapes();
  return shapes;
}

std::string RepName(size_t i) { return "rep-" + std::to_string(i); }
std::string ClientName(int h) { return "client-" + std::to_string(h); }
std::string SuiteName(int s) { return "s" + std::to_string(s); }
std::string KeyName(int k) { return "k" + std::to_string(k); }

// `tag` padded to `size` bytes; tags are unique, so are the values.
std::string Filled(std::string tag, size_t size) {
  if (tag.size() < size) {
    tag.resize(size, '.');
  }
  return tag;
}

std::string InitialKvValue(int shard, int key) {
  return Filled("init.s" + std::to_string(shard) + "." + KeyName(key), kKvValueBytes);
}

// kv-write's record of one attempted value (values are unique per attempt).
struct KvWriteRec {
  enum class State : uint8_t { kPending, kAcked, kAmbiguous, kRefused };
  int shard = 0;
  int key = 0;
  TimePoint invoke;
  TimePoint response;
  State state = State::kPending;
};

struct KvReadRec {
  int shard = 0;
  int key = 0;
  std::optional<std::string> value;
  TimePoint invoke;
  TimePoint response;
};

// One round's deployment, load state and logs.
struct Round {
  Round(const Shape& s, uint64_t sd) : shape(s), seed(sd) {}

  Simulator& sim() { return cluster->sim(); }

  const Shape& shape;
  const uint64_t seed;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<HistoryRecorder> history;
  std::unique_ptr<Nemesis> nemesis;
  std::vector<HostId> client_host_ids;
  HostId observer_host = kInvalidHost;
  std::vector<std::vector<SuiteClient*>> clients;  // [client host][suite]
  std::vector<SuiteClient*> observers;             // [suite], broadcast probing
  std::vector<std::vector<std::unique_ptr<ReplicatedKvStore>>> stores;  // kv: [host][suite]
  std::string initial;  // every suite's version-1 contents (suite workloads)
  std::vector<OpSample> ops;
  int active = 0;  // load coroutines (and open-loop ops) still running
  TimePoint end;
  uint64_t next_op = 0;
  std::unordered_map<std::string, KvWriteRec> kv_writes;
  std::vector<KvReadRec> kv_reads;
  std::vector<std::map<std::pair<int, int>, std::string>> kv_last_seen;  // [host]
  std::vector<std::string> violations;
};

// ---------------------------------------------------------------------------
// Suite ops, recorded in the history one attempt per entry (each write
// attempt with its own payload), the way the chaos harness records them.
// ReadOnce / WriteOnce do not report versions, which the checker needs, so
// these run the same one-transaction attempts through Begin / Commit with
// the same backoff, retrying any failure (as the chaos harness does) until
// `deadline`.

Task<bool> HistoryRead(Round* r, SuiteClient* client, int client_id, int suite, HostId host,
                       TimePoint deadline) {
  Tracer& tracer = r->cluster->tracer();
  const TraceContext root = tracer.StartRoot(host, "client.read");
  bool ok = false;
  for (int attempt = 0; !ok && (attempt == 0 || r->sim().Now() < deadline); ++attempt) {
    if (attempt > 0) {
      co_await r->sim().Sleep(JitteredBackoff(r->sim().rng(), attempt - 1));
    }
    const uint64_t id = r->history->Invoke(client_id, SuiteName(suite), ChaosOpType::kRead);
    SuiteTransaction txn = client->Begin(root);
    Result<VersionedValue> vv = co_await txn.ReadVersioned();
    Status st = vv.status();
    if (st.ok()) {
      st = co_await txn.Commit();
    } else {
      co_await txn.Abort();
    }
    if (st.ok()) {
      r->history->Complete(id, st, vv.value().version, std::move(vv.value().contents));
      ok = true;
    } else {
      r->history->Complete(id, st, 0);
    }
  }
  tracer.End(root);
  co_return ok;
}

Task<bool> HistoryWrite(Round* r, int host, int suite, TimePoint deadline) {
  Tracer& tracer = r->cluster->tracer();
  const TraceContext root = tracer.StartRoot(r->client_host_ids[static_cast<size_t>(host)],
                                             "client.write");
  SuiteClient* client = r->clients[static_cast<size_t>(host)][static_cast<size_t>(suite)];
  const uint64_t op = r->next_op++;
  bool ok = false;
  for (int attempt = 0; !ok && (attempt == 0 || r->sim().Now() < deadline); ++attempt) {
    if (attempt > 0) {
      co_await r->sim().Sleep(JitteredBackoff(r->sim().rng(), attempt - 1));
    }
    std::string payload = Filled("c" + std::to_string(host) + ".o" + std::to_string(op) +
                                     ".a" + std::to_string(attempt),
                                 r->shape.value_bytes);
    const uint64_t id =
        r->history->Invoke(host, SuiteName(suite), ChaosOpType::kWrite, payload);
    SuiteTransaction txn = client->Begin(root);
    Status st = txn.Write(std::move(payload));
    if (st.ok()) {
      st = co_await txn.Commit();
    } else {
      co_await txn.Abort();
    }
    r->history->Complete(id, st, txn.committed_version());
    ok = st.ok();
  }
  tracer.End(root);
  co_return ok;
}

Task<void> RunSuiteOp(Round* r, int host, int suite, bool write, TimePoint due) {
  const TimePoint deadline = due + kOpDeadline;
  bool ok = false;
  if (write) {
    ok = co_await HistoryWrite(r, host, suite, deadline);
  } else {
    ok = co_await HistoryRead(r, r->clients[static_cast<size_t>(host)][static_cast<size_t>(suite)],
                              host, suite, r->client_host_ids[static_cast<size_t>(host)], deadline);
  }
  r->ops.push_back(OpSample{write, ok, (r->sim().Now() - due).ToMicros()});
}

// read-hot: closed loop, Zipf(0.99) over the suites.
Task<void> SuiteClosedLoop(Round* r, int host) {
  Rng rng(r->seed * 1000003u + static_cast<uint64_t>(host) + 1);
  const ZipfianSampler zipf(static_cast<size_t>(r->shape.suites), 0.99);
  const double think_us = r->shape.think_mean_ms * 1000.0;
  while (true) {
    co_await r->sim().Sleep(Duration::Micros(static_cast<int64_t>(rng.NextExponential(think_us))));
    if (r->sim().Now() >= r->end) {
      break;
    }
    const int suite = static_cast<int>(zipf.Sample(&rng));
    const bool write = rng.NextBernoulli(r->shape.write_fraction);
    co_await RunSuiteOp(r, host, suite, write, r->sim().Now());
  }
  --r->active;
}

// churn-gray: open loop; each op is its own coroutine, timed from its due
// time, so ops that fall due during an outage wait and are counted.
Task<void> OpenLoopOp(Round* r, int host, int suite, bool write, TimePoint due) {
  co_await RunSuiteOp(r, host, suite, write, due);
  --r->active;
}

Task<void> OpenLoopGenerator(Round* r) {
  Rng rng(r->seed * 1000003u + 7);
  const double gap_us = 1e6 / r->shape.rate_per_s;
  TimePoint due = r->sim().Now();
  while (true) {
    const auto gap = static_cast<int64_t>(rng.NextExponential(gap_us));
    due = due + Duration::Micros(std::max<int64_t>(1, gap));
    if (due >= r->end) {
      break;
    }
    co_await r->sim().Sleep(due - r->sim().Now());
    const int host = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(r->shape.client_hosts)));
    const int suite = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(r->shape.suites)));
    const bool write = rng.NextBernoulli(r->shape.write_fraction);
    ++r->active;
    Spawn(OpenLoopOp(r, host, suite, write, due));
  }
  --r->active;
}

// ---------------------------------------------------------------------------
// kv-write.

std::string NewKvValue(Round* r, int host, int shard, int key) {
  std::string value = Filled("h" + std::to_string(host) + ".o" + std::to_string(r->next_op++) +
                                 ".s" + std::to_string(shard) + "." + KeyName(key),
                             kKvValueBytes);
  KvWriteRec rec;
  rec.shard = shard;
  rec.key = key;
  rec.invoke = r->sim().Now();
  r->kv_writes.emplace(value, rec);
  return value;
}

void SettleKvWrite(Round* r, const std::string& value, KvWriteRec::State state) {
  KvWriteRec& rec = r->kv_writes.at(value);
  rec.response = r->sim().Now();
  rec.state = state;
}

KvWriteRec::State StateOf(const Status& st) {
  return st.ok() ? KvWriteRec::State::kAcked : KvWriteRec::State::kAmbiguous;
}

Task<bool> KvGet(Round* r, int host, ReplicatedKvStore* store, int shard, int key) {
  KvReadRec rec;
  rec.shard = shard;
  rec.key = key;
  rec.invoke = r->sim().Now();
  Result<std::optional<std::string>> got = co_await store->Get(KeyName(key));
  if (!got.ok()) {
    co_return false;
  }
  rec.value = std::move(got.value());
  rec.response = r->sim().Now();
  if (rec.value.has_value()) {
    r->kv_last_seen[static_cast<size_t>(host)][{shard, key}] = *rec.value;
  }
  r->kv_reads.push_back(std::move(rec));
  co_return true;
}

Task<bool> KvPut(Round* r, int host, ReplicatedKvStore* store, int shard, int key) {
  std::string value = NewKvValue(r, host, shard, key);
  const Status st = co_await store->Put(KeyName(key), value);
  SettleKvWrite(r, value, StateOf(st));
  if (st.ok()) {
    r->kv_last_seen[static_cast<size_t>(host)][{shard, key}] = value;
  }
  co_return st.ok();
}

Task<bool> KvPutMany(Round* r, int host, ReplicatedKvStore* store, int shard,
                     std::vector<int> keys) {
  std::vector<std::pair<std::string, std::string>> entries;
  for (int key : keys) {
    entries.emplace_back(KeyName(key), NewKvValue(r, host, shard, key));
  }
  std::vector<std::pair<std::string, std::string>> sent = entries;
  const Status st = co_await store->PutMany(std::move(sent));
  for (size_t i = 0; i < keys.size(); ++i) {
    SettleKvWrite(r, entries[i].second, StateOf(st));
    if (st.ok()) {
      r->kv_last_seen[static_cast<size_t>(host)][{shard, keys[i]}] = entries[i].second;
    }
  }
  co_return st.ok();
}

// Expects the last value this host saw for the key (the initial value if
// none); a refused compare-and-set is a correct outcome, not a failure.
Task<bool> KvCheckAndSet(Round* r, int host, ReplicatedKvStore* store, int shard, int key) {
  auto& seen = r->kv_last_seen[static_cast<size_t>(host)];
  auto it = seen.find({shard, key});
  std::optional<std::string> expected(it != seen.end() ? it->second : InitialKvValue(shard, key));
  std::string value = NewKvValue(r, host, shard, key);
  const Status st = co_await store->CheckAndSet(KeyName(key), std::move(expected), value);
  const bool refused = st.code() == StatusCode::kFailedPrecondition;
  SettleKvWrite(r, value, refused ? KvWriteRec::State::kRefused : StateOf(st));
  if (st.ok()) {
    r->kv_last_seen[static_cast<size_t>(host)][{shard, key}] = value;
  }
  co_return st.ok() || refused;
}

// kv-write: closed loop, 60% Put, 10% PutMany (4 keys of one shard), 10%
// CheckAndSet, 20% Get, uniform shards and keys.
Task<void> KvClosedLoop(Round* r, int host) {
  Rng rng(r->seed * 1000003u + static_cast<uint64_t>(host) + 1);
  const double think_us = r->shape.think_mean_ms * 1000.0;
  while (true) {
    co_await r->sim().Sleep(Duration::Micros(static_cast<int64_t>(rng.NextExponential(think_us))));
    if (r->sim().Now() >= r->end) {
      break;
    }
    const TimePoint due = r->sim().Now();
    const int shard = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(r->shape.suites)));
    ReplicatedKvStore* store =
        r->stores[static_cast<size_t>(host)][static_cast<size_t>(shard)].get();
    const int key = static_cast<int>(rng.NextBelow(kKvKeysPerShard));
    const double u = rng.NextDouble();
    std::vector<int> keys = {key};
    while (u >= 0.6 && u < 0.7 && keys.size() < 4) {
      const int k = static_cast<int>(rng.NextBelow(kKvKeysPerShard));
      if (std::find(keys.begin(), keys.end(), k) == keys.end()) {
        keys.push_back(k);
      }
    }
    // The store retries conflicts itself but returns other errors (such as
    // a quorum it could not gather); the op retries those until its
    // deadline, each attempt with fresh values.
    const TimePoint deadline = due + kOpDeadline;
    bool ok = false;
    for (int attempt = 0; !ok && (attempt == 0 || r->sim().Now() < deadline); ++attempt) {
      if (attempt > 0) {
        co_await r->sim().Sleep(JitteredBackoff(r->sim().rng(), attempt - 1));
      }
      if (u < 0.6) {
        ok = co_await KvPut(r, host, store, shard, key);
      } else if (u < 0.7) {
        ok = co_await KvPutMany(r, host, store, shard, keys);
      } else if (u < 0.8) {
        ok = co_await KvCheckAndSet(r, host, store, shard, key);
      } else {
        ok = co_await KvGet(r, host, store, shard, key);
      }
    }
    r->ops.push_back(OpSample{u < 0.8, ok, (r->sim().Now() - due).ToMicros()});
  }
  --r->active;
}

// Checks one observed kv value: it must be the key's initial value or a
// value some write of that key attempted (never a refused compare-and-set),
// that write must have started before the read ended, and no write of the
// key acknowledged before the read began may have started after the
// observed write ended (that write would have overwritten it).
class KvChecker {
 public:
  explicit KvChecker(const Round& r) : r_(r) {
    for (const auto& [value, rec] : r.kv_writes) {
      if (rec.state == KvWriteRec::State::kAcked) {
        acked_[{rec.shard, rec.key}].emplace_back(rec.response.ToMicros(), rec.invoke.ToMicros());
      }
    }
    for (auto& [key, writes] : acked_) {
      std::sort(writes.begin(), writes.end());
      int64_t max_invoke = INT64_MIN;
      for (auto& [response, invoke] : writes) {
        max_invoke = std::max(max_invoke, invoke);
        invoke = max_invoke;  // now: latest invoke among writes acked by `response`
      }
    }
  }

  // Empty when the value is allowed.
  std::string Check(int shard, int key, const std::optional<std::string>& value,
                    int64_t read_invoke, int64_t read_response) const {
    const std::string where = SuiteName(shard) + "/" + KeyName(key);
    if (!value.has_value()) {
      return where + ": key missing";
    }
    int64_t written_by = INT64_MIN;  // when the observed value's write ended
    if (*value != InitialKvValue(shard, key)) {
      auto it = r_.kv_writes.find(*value);
      if (it == r_.kv_writes.end() || it->second.shard != shard || it->second.key != key) {
        return where + ": value never written to this key";
      }
      const KvWriteRec& rec = it->second;
      if (rec.state == KvWriteRec::State::kRefused) {
        return where + ": a refused compare-and-set took effect";
      }
      if (rec.invoke.ToMicros() > read_response) {
        return where + ": read a write that started after the read ended";
      }
      written_by = rec.response.ToMicros();
    }
    auto it = acked_.find({shard, key});
    if (it != acked_.end()) {
      const auto& writes = it->second;
      auto after = std::lower_bound(writes.begin(), writes.end(),
                                    std::make_pair(read_invoke, INT64_MIN));
      if (after != writes.begin() && std::prev(after)->second > written_by) {
        return where + ": stale value, overwritten by a write acknowledged before the read";
      }
    }
    return "";
  }

 private:
  const Round& r_;
  // Per key: (response, latest invoke among acked writes up to it), by response.
  std::map<std::pair<int, int>, std::vector<std::pair<int64_t, int64_t>>> acked_;
};

// ---------------------------------------------------------------------------
// Round phases.

void Deploy(Round* r) {
  const Shape& s = r->shape;
  ClusterOptions opts;
  opts.seed = r->seed;
  opts.default_link = LinkLatency(5000);
  opts.rep_options.disk_write_latency = LatencyModel::Fixed(Duration::Micros(s.disk_write_us));
  opts.rep_options.disk_read_latency = LatencyModel::Fixed(Duration::Micros(s.disk_read_us));
  if (s.faults) {
    // The chaos harness's participant timers: orphan locks and in-doubt
    // transactions resolve within one fault cycle.
    opts.rep_options.participant.inquiry_interval = Duration::Millis(500);
    opts.rep_options.participant.indoubt_resolution_timeout = Duration::Seconds(3);
    opts.rep_options.participant.lock_lease = Duration::Seconds(5);
  }
  r->cluster = std::make_unique<Cluster>(opts);
  Cluster& c = *r->cluster;
  for (size_t i = 0; i < s.votes.size(); ++i) {
    c.AddRepresentative(RepName(i));
  }
  r->initial = Filled("initial", s.value_bytes);
  std::vector<SuiteConfig> configs;
  for (int suite = 0; suite < s.suites; ++suite) {
    SuiteConfig config;
    config.suite_name = SuiteName(suite);
    for (size_t i = 0; i < s.votes.size(); ++i) {
      config.AddRepresentative(RepName(i), s.votes[i]);
    }
    config.read_quorum = s.read_quorum;
    config.write_quorum = s.write_quorum;
    std::string contents = r->initial;
    if (s.kv) {
      std::map<std::string, std::string> shard;
      for (int key = 0; key < kKvKeysPerShard; ++key) {
        shard[KeyName(key)] = InitialKvValue(suite, key);
      }
      contents = ReplicatedKvStore::SerializeMap(shard);
    }
    WVOTE_CHECK_MSG(c.CreateSuite(config, contents).ok(), "suite bootstrap failed");
    configs.push_back(std::move(config));
  }
  SuiteClientOptions client_options;
  client_options.strategy = s.strategy;
  r->clients.resize(static_cast<size_t>(s.client_hosts));
  r->stores.resize(static_cast<size_t>(s.client_hosts));
  r->kv_last_seen.resize(static_cast<size_t>(s.client_hosts));
  for (int h = 0; h < s.client_hosts; ++h) {
    for (const SuiteConfig& config : configs) {
      SuiteClient* client = c.AddClient(ClientName(h), config, client_options);
      r->clients[static_cast<size_t>(h)].push_back(client);
      if (s.kv) {
        auto store = std::make_unique<ReplicatedKvStore>(client);
        store->RegisterMetrics(&c.metrics());
        r->stores[static_cast<size_t>(h)].push_back(std::move(store));
      }
    }
    r->client_host_ids.push_back(c.net().FindHost(ClientName(h))->id());
  }
  SuiteClientOptions observer_options = client_options;
  observer_options.strategy = QuorumStrategy::kBroadcast;
  for (const SuiteConfig& config : configs) {
    r->observers.push_back(c.AddClient("observer", config, observer_options));
  }
  r->observer_host = c.net().FindHost("observer")->id();
  std::vector<HostId> client_side = r->client_host_ids;
  client_side.push_back(r->observer_host);
  for (HostId client : client_side) {
    for (size_t i = 0; i < s.votes.size(); ++i) {
      c.net().SetSymmetricLink(client, c.net().FindHost(RepName(i))->id(),
                               LinkLatency(s.rep_link_us[i]));
    }
  }
  r->history = std::make_unique<HistoryRecorder>(&c.sim());
}

// Pumps the simulation until every load coroutine has finished.
void Pump(Round* r, const char* phase) {
  while (r->active > 0 && r->sim().StepOne()) {
  }
  if (r->active > 0) {
    r->violations.push_back(std::string(phase) + ": simulation went idle with work pending");
  }
}

Task<void> WarmRead(Round* r, SuiteClient* client) {
  Result<std::string> got = co_await client->ReadOnce();
  if (!got.ok()) {
    r->violations.push_back("warm-up read failed: " + got.status().ToString());
  }
  --r->active;
}

// One read per client per suite (observers included), so plan caches,
// strategy solves and version hints are filled before timing starts.
void WarmUp(Round* r) {
  for (const auto& per_host : r->clients) {
    for (SuiteClient* client : per_host) {
      ++r->active;
      Spawn(WarmRead(r, client));
    }
  }
  for (SuiteClient* observer : r->observers) {
    ++r->active;
    Spawn(WarmRead(r, observer));
  }
  Pump(r, "warm-up");
}

FaultSchedule ChurnSchedule(const Shape& s, uint64_t seed) {
  Rng rng(seed * 1000003u + 11);
  auto pick_rep = [&] { return RepName(rng.NextBelow(s.votes.size())); };
  FaultSchedule schedule;
  schedule.name = "churn-gray";
  auto add = [&](int64_t at_ms, FaultAction action, const std::string& host) -> FaultEvent& {
    FaultEvent ev;
    ev.at = Duration::Millis(at_ms);
    ev.action = action;
    ev.host = host;
    schedule.events.push_back(ev);
    return schedule.events.back();
  };
  for (int64_t cycle = 0; cycle < s.horizon_s / kFaultCycleS; ++cycle) {
    const int64_t base = cycle * kFaultCycleS * 1000;
    add(base + 500, FaultAction::kCrashRestart, pick_rep()).duration = Duration::Seconds(2);
    const std::string gray = pick_rep();
    add(base + 3500, FaultAction::kGrayHost, gray).p1 = 10.0;
    add(base + 5500, FaultAction::kGrayHost, gray).p1 = 1.0;
    FaultEvent& weather = add(base + 6000, FaultAction::kLinkKnobs, "");
    weather.p1 = 0.01;
    weather.p2 = 0.01;
    add(base + 8000, FaultAction::kLinkKnobs, "");
    add(base + 8500, FaultAction::kStoreTearNextFlush, pick_rep());
  }
  return schedule;
}

void StartLoad(Round* r) {
  const Shape& s = r->shape;
  r->end = r->sim().Now() + Duration::Seconds(s.horizon_s);
  if (s.faults) {
    r->nemesis = std::make_unique<Nemesis>(r->cluster.get(), ChurnSchedule(s, r->seed));
    r->nemesis->Deploy();
  }
  if (s.open_loop) {
    r->active = 1;
    Spawn(OpenLoopGenerator(r));
    return;
  }
  r->active = s.client_hosts;
  for (int h = 0; h < s.client_hosts; ++h) {
    if (s.kv) {
      Spawn(KvClosedLoop(r, h));
    } else {
      Spawn(SuiteClosedLoop(r, h));
    }
  }
}

// Convergence reads through the broadcast observers, then the output check.
// Returns the host seconds of the check alone.
double Verify(Round* r, uint64_t* checked_ops) {
  r->sim().RunFor(kDrain);
  const Shape& s = r->shape;
  if (!s.kv) {
    for (int suite = 0; suite < s.suites; ++suite) {
      std::optional<bool> done = r->cluster->RunTaskFor(
          HistoryRead(r, r->observers[static_cast<size_t>(suite)], -1, suite, r->observer_host,
                      r->sim().Now() + kFinalReadLimit),
          kFinalReadLimit);
      if (!done.value_or(false)) {
        r->violations.push_back("convergence read of " + SuiteName(suite) + " failed");
      }
    }
    const auto t0 = Clock::now();
    const CheckResult check = CheckHistory(r->history->ops(), r->initial);
    const double check_s = SecondsSince(t0);
    for (const ChaosViolation& v : check.violations) {
      r->violations.push_back(v.rule + ": " + v.description);
    }
    *checked_ops = r->history->ops().size();
    return check_s;
  }
  std::vector<std::map<std::string, std::string>> finals;
  for (int shard = 0; shard < s.suites; ++shard) {
    std::optional<Result<std::string>> got = r->cluster->RunTaskFor(
        r->observers[static_cast<size_t>(shard)]->ReadOnce(), kFinalReadLimit);
    std::map<std::string, std::string> map;
    if (got.has_value() && got->ok()) {
      Result<std::map<std::string, std::string>> parsed =
          ReplicatedKvStore::ParseMap(got->value());
      if (parsed.ok()) {
        map = std::move(parsed.value());
      }
    } else {
      r->violations.push_back("final read of " + SuiteName(shard) + " failed");
    }
    finals.push_back(std::move(map));
  }
  const auto t0 = Clock::now();
  const KvChecker checker(*r);
  auto note = [&](const std::string& problem) {
    if (!problem.empty() && r->violations.size() < 25) {
      r->violations.push_back(problem);
    }
  };
  for (const KvReadRec& read : r->kv_reads) {
    note(checker.Check(read.shard, read.key, read.value, read.invoke.ToMicros(),
                       read.response.ToMicros()));
  }
  for (int shard = 0; shard < s.suites; ++shard) {
    const auto& map = finals[static_cast<size_t>(shard)];
    if (map.size() != static_cast<size_t>(kKvKeysPerShard)) {
      note(SuiteName(shard) + ": final map holds " + std::to_string(map.size()) + " keys");
    }
    for (int key = 0; key < kKvKeysPerShard; ++key) {
      auto it = map.find(KeyName(key));
      std::optional<std::string> value;
      if (it != map.end()) {
        value = it->second;
      }
      note(checker.Check(shard, key, value, INT64_MAX, INT64_MAX));
    }
  }
  *checked_ops = r->ops.size();
  return SecondsSince(t0);
}

uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xff)) * 1099511628211ull;
  }
  return h;
}

uint64_t Fingerprint(const RoundResult& out) {
  uint64_t h = 1469598103934665603ull;
  for (const OpSample& op : out.ops) {
    h = Fnv(h, (op.write ? 2u : 0u) | (op.ok ? 1u : 0u));
    h = Fnv(h, static_cast<uint64_t>(op.latency_us));
  }
  for (const auto& [key, value] : out.delta.counters) {
    if (key.rfind("trace.", 0) == 0) {
      continue;  // span counts differ by design between traced and untraced runs
    }
    for (char ch : key) {
      h = Fnv(h, static_cast<unsigned char>(ch));
    }
    h = Fnv(h, value);
  }
  return Fnv(h, out.violations.size());
}

}  // namespace

LatencyModel LinkLatency(int64_t mean_us) {
  const auto spread = static_cast<int64_t>(static_cast<double>(mean_us) * kLinkJitter);
  return LatencyModel::Uniform(Duration::Micros(mean_us - spread),
                               Duration::Micros(mean_us + spread));
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Shape& s : Shapes()) {
      out.push_back(s.name);
    }
    return out;
  }();
  return names;
}

const Shape& ShapeOf(const std::string& workload) {
  for (const Shape& s : Shapes()) {
    if (s.name == workload) {
      return s;
    }
  }
  WVOTE_CHECK_MSG(false, "unknown workload");
  return Shapes().front();
}

ModelLatencies ModelOf(const Shape& shape) {
  SuiteModel model;
  for (size_t i = 0; i < shape.votes.size(); ++i) {
    model.reps.emplace_back(RepName(i), shape.votes[i], Duration::Micros(2 * shape.rep_link_us[i]),
                            0.99);
  }
  model.read_quorum = shape.read_quorum;
  model.write_quorum = shape.write_quorum;
  const VotingAnalysis analysis(model);
  ModelLatencies out;
  out.read_us = analysis.ReadLatencyAllUp(false).ToMicros();
  out.write_us = analysis.WriteLatencyAllUp(false).ToMicros();
  if (shape.kv) {
    out.write_us += out.read_us;  // a kv mutation reads the shard, then writes it
  }
  return out;
}

LatencyLimits LimitsOf(const Shape& shape) {
  const ModelLatencies model = ModelOf(shape);
  LatencyLimits limits;
  limits.read_us = std::llround(shape.read_limit_x * static_cast<double>(model.read_us));
  limits.write_us = std::llround(shape.write_limit_x * static_cast<double>(model.write_us));
  return limits;
}

RoundResult RunRound(const Shape& shape, uint64_t seed, bool traced) {
  RoundResult out;
  Round r(shape, seed);

  const auto setup_start = Clock::now();
  Deploy(&r);
  WarmUp(&r);
  out.setup_s = SecondsSince(setup_start);

  const MetricsSnapshot before = r.cluster->metrics().Snapshot();
  r.cluster->tracer().Enable(traced);
  const uint64_t allocs_before = AllocCount();
  const auto timed_start = Clock::now();
  StartLoad(&r);
  Pump(&r, "load");
  out.timed_s = SecondsSince(timed_start);
  out.allocs = AllocCount() - allocs_before;
  r.cluster->tracer().Enable(false);
  const MetricsSnapshot after = r.cluster->metrics().Snapshot();
  out.delta = after.Delta(before);
  out.plan_builds = after.SumCounters("core.suite_client.plan_builds");
  out.nemesis_events = r.nemesis != nullptr ? r.nemesis->events_applied() : 0;

  const auto verify_start = Clock::now();
  out.check_s = Verify(&r, &out.checked_ops);
  out.verify_s = SecondsSince(verify_start);

  out.ops = std::move(r.ops);
  out.violations = std::move(r.violations);
  out.fingerprint = Fingerprint(out);
  return out;
}

}  // namespace perfbench
