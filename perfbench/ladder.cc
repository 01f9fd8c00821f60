#include "ladder.h"

#include <algorithm>
#include <any>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "src/common/check.h"
#include "src/core/cluster.h"
#include "src/core/strategy_solver.h"
#include "src/kv/kv_store.h"
#include "src/rpc/rpc.h"
#include "src/storage/stable_store.h"
#include "src/txn/lock_manager.h"

namespace perfbench {

using namespace wvote;  // NOLINT: the benchmark drives this namespace's API

namespace {

using Clock = std::chrono::steady_clock;

// `run` makes the calls and returns how many it made.
template <typename F>
CallCost Measure(F&& run) {
  const uint64_t allocs_before = AllocCount();
  const auto t0 = Clock::now();
  const double calls = run();
  const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return CallCost{seconds * 1e9 / calls, static_cast<double>(AllocCount() - allocs_before) / calls};
}

// Median-time trial of three, for the cheap rungs.
template <typename F>
CallCost MedianOf3(F&& run) {
  std::vector<CallCost> trials;
  for (int i = 0; i < 3; ++i) {
    trials.push_back(Measure(run));
  }
  std::sort(trials.begin(), trials.end(),
            [](const CallCost& a, const CallCost& b) { return a.ns < b.ns; });
  return trials[1];
}

std::map<std::string, std::string> KvShard() {
  std::map<std::string, std::string> shard;
  for (int key = 0; key < kKvKeysPerShard; ++key) {
    std::string name = "k";
    name += std::to_string(key);
    shard[name] = std::string(kKvValueBytes, 'v');
  }
  return shard;
}

// Bytes of one suite's contents: the kv shard for kv-write, else the payload.
size_t SuiteBytes(const Shape& shape) {
  return shape.kv ? ReplicatedKvStore::SerializeMap(KvShard()).size() : shape.value_bytes;
}

CallCost SimEvent(const Shape& shape, uint64_t seed) {
  std::vector<int64_t> mix = shape.rep_link_us;
  mix.push_back(shape.disk_write_us);
  mix.push_back(shape.disk_read_us);
  constexpr long kEvents = 400000;
  constexpr int kChains = 64;
  return MedianOf3([&] {
    Simulator sim(seed);
    long remaining = kEvents;
    std::function<void(int)> arm = [&](int chain) {
      if (--remaining < 0) {
        return;
      }
      const size_t pick = static_cast<size_t>(chain + remaining) % mix.size();
      sim.Schedule(Duration::Micros(mix[pick]), [&arm, chain] { arm(chain); });
    };
    for (int chain = 0; chain < kChains; ++chain) {
      arm(chain);
    }
    sim.Run();
    return static_cast<double>(sim.events_processed());
  });
}

CallCost NetDelivery(const Shape& shape, uint64_t seed) {
  constexpr long kMessages = 200000;
  return MedianOf3([&] {
    Simulator sim(seed);
    Network net(&sim);
    net.SetDefaultLink(LinkLatency(shape.rep_link_us.front()));
    Host* a = net.AddHost("a");
    Host* b = net.AddHost("b");
    long remaining = kMessages;
    long delivered = 0;
    auto bounce = [&](Message msg) {
      ++delivered;
      if (--remaining >= 0) {
        net.Send(msg.to, msg.from, std::move(msg.payload), msg.approx_bytes);
      }
    };
    a->SetMessageHandler(bounce);
    b->SetMessageHandler(bounce);
    for (uint64_t i = 0; i < 8; ++i) {
      net.Send(a->id(), b->id(), std::any(i), shape.value_bytes);
    }
    sim.Run();
    return static_cast<double>(delivered);
  });
}

struct EchoReq {
  uint64_t n = 0;
  EchoReq() = default;
  explicit EchoReq(uint64_t v) : n(v) {}
  static constexpr const char* kRpcName = "EchoReq";
};

struct EchoResp {
  uint64_t n = 0;
  EchoResp() = default;
  explicit EchoResp(uint64_t v) : n(v) {}
};

Task<void> EchoLoop(RpcEndpoint* client, HostId server, int calls, int* ok) {
  for (int i = 0; i < calls; ++i) {
    EchoReq req(static_cast<uint64_t>(i));
    Result<EchoResp> r =
        co_await client->Call<EchoReq, EchoResp>(server, req, Duration::Seconds(1));
    if (r.ok() && r.value().n == static_cast<uint64_t>(i)) {
      ++*ok;
    }
  }
}

CallCost RpcCall(const Shape& shape, uint64_t seed) {
  constexpr int kCalls = 50000;
  return MedianOf3([&] {
    Simulator sim(seed);
    Network net(&sim);
    net.SetDefaultLink(LinkLatency(shape.rep_link_us.front()));
    Host* server_host = net.AddHost("server");
    Host* client_host = net.AddHost("client");
    RpcEndpoint server(&net, server_host);
    RpcEndpoint client(&net, client_host);
    std::function<Task<Result<EchoResp>>(HostId, EchoReq)> handler =
        [](HostId, EchoReq req) -> Task<Result<EchoResp>> { co_return EchoResp(req.n); };
    server.Handle<EchoReq, EchoResp>(std::move(handler));
    int ok = 0;
    Spawn(EchoLoop(&client, server_host->id(), kCalls, &ok));
    sim.Run();
    WVOTE_CHECK_MSG(ok == kCalls, "ladder: echo calls failed");
    return static_cast<double>(kCalls);
  });
}

Task<void> FlushLoop(StableStore* store, std::string value, int writes, int* ok) {
  const std::string page = "page";
  for (int i = 0; i < writes; ++i) {
    Status st = co_await store->Write(page, value);
    *ok += st.ok() ? 1 : 0;
  }
}

CallCost StorageFlush(const Shape& shape, uint64_t seed) {
  constexpr int kWrites = 20000;
  const std::string value(SuiteBytes(shape), 'x');
  return MedianOf3([&] {
    Simulator sim(seed);
    Network net(&sim);
    Host* host = net.AddHost("disk");
    StableStore store(&sim, host, LatencyModel::Fixed(Duration::Micros(shape.disk_write_us)),
                      LatencyModel::Fixed(Duration::Micros(shape.disk_read_us)));
    int ok = 0;
    Spawn(FlushLoop(&store, value, kWrites, &ok));
    sim.Run();
    WVOTE_CHECK_MSG(ok == kWrites, "ladder: stable-store writes failed");
    return static_cast<double>(kWrites);
  });
}

// Uncontended acquires complete without suspending, so every 256 pairs the
// loop yields to the event loop: the chain of resumptions must not depend
// on tail calls (sanitizer builds make none) to keep the stack bounded.
Task<void> LockLoop(Simulator* sim, LockManager* locks, int pairs, int* ok) {
  const std::string key = "page";
  for (int i = 0; i < pairs; ++i) {
    if (i % 256 == 255) {
      co_await sim->Sleep(Duration::Zero());
    }
    TxnId txn;
    txn.timestamp_us = i;
    txn.serial = static_cast<uint64_t>(i);
    txn.coordinator = 1;
    Status st = co_await locks->Acquire(txn, key, LockMode::kExclusive, Duration::Seconds(1));
    *ok += st.ok() ? 1 : 0;
    locks->ReleaseAll(txn);
  }
}

CallCost TxnLock(uint64_t seed) {
  constexpr int kPairs = 200000;
  return MedianOf3([&] {
    Simulator sim(seed);
    LockManager locks(&sim);
    int ok = 0;
    Spawn(LockLoop(&sim, &locks, kPairs, &ok));
    sim.Run();
    WVOTE_CHECK_MSG(ok == kPairs, "ladder: lock acquires failed");
    return static_cast<double>(kPairs);
  });
}

CallCost Solve(const Shape& shape) {
  const std::vector<double> capacities(shape.votes.size(), 1.0);
  return MedianOf3([&] {
    int solves = 0;
    const auto t0 = Clock::now();
    while (solves < 5 || std::chrono::duration<double>(Clock::now() - t0).count() < 0.05) {
      const std::vector<StrategyQuorum> quorums =
          EnumerateMinimalQuorums(shape.votes, shape.read_quorum);
      const StrategySolution solution =
          SolveLoadOptimal(quorums, shape.votes.size(), capacities, 0);
      WVOTE_CHECK_MSG(solution.max_load > 0, "ladder: empty solve");
      ++solves;
    }
    return static_cast<double>(solves);
  });
}

CallCost KvCodec() {
  constexpr int kRoundTrips = 5000;
  const std::map<std::string, std::string> shard = KvShard();
  return MedianOf3([&] {
    for (int i = 0; i < kRoundTrips; ++i) {
      const std::string bytes = ReplicatedKvStore::SerializeMap(shard);
      Result<std::map<std::string, std::string>> parsed = ReplicatedKvStore::ParseMap(bytes);
      WVOTE_CHECK_MSG(parsed.ok() && parsed.value().size() == shard.size(),
                      "ladder: kv codec round trip failed");
    }
    return static_cast<double>(kRoundTrips);
  });
}

// An idle deployment of the workload's reps, links and quorums with two
// suites, one holding the workload's contents and one a kv shard, and one
// client of each on one client host.
struct IdleCluster {
  std::unique_ptr<Cluster> cluster;
  SuiteClient* suite = nullptr;
  SuiteClient* kv = nullptr;
};

IdleCluster DeployIdle(const Shape& shape, uint64_t seed) {
  ClusterOptions opts;
  opts.seed = seed;
  opts.default_link = LinkLatency(5000);
  opts.rep_options.disk_write_latency =
      LatencyModel::Fixed(Duration::Micros(shape.disk_write_us));
  opts.rep_options.disk_read_latency = LatencyModel::Fixed(Duration::Micros(shape.disk_read_us));
  IdleCluster out;
  out.cluster = std::make_unique<Cluster>(opts);
  Cluster& c = *out.cluster;
  SuiteConfig suite;
  suite.suite_name = "suite";
  for (size_t i = 0; i < shape.votes.size(); ++i) {
    c.AddRepresentative("rep-" + std::to_string(i));
    suite.AddRepresentative("rep-" + std::to_string(i), shape.votes[i]);
  }
  suite.read_quorum = shape.read_quorum;
  suite.write_quorum = shape.write_quorum;
  SuiteConfig kv = suite;
  kv.suite_name = "kv";
  WVOTE_CHECK_MSG(c.CreateSuite(suite, std::string(shape.value_bytes, 'i')).ok(),
                  "ladder: suite bootstrap failed");
  WVOTE_CHECK_MSG(c.CreateSuite(kv, ReplicatedKvStore::SerializeMap(KvShard())).ok(),
                  "ladder: kv bootstrap failed");
  SuiteClientOptions client_options;
  client_options.strategy = shape.strategy;
  out.suite = c.AddClient("client", suite, client_options);
  out.kv = c.AddClient("client", kv, client_options);
  const HostId client = c.net().FindHost("client")->id();
  for (size_t i = 0; i < shape.votes.size(); ++i) {
    c.net().SetSymmetricLink(client, c.net().FindHost("rep-" + std::to_string(i))->id(),
                             LinkLatency(shape.rep_link_us[i]));
  }
  return out;
}

std::string Unique(const char* tag, int i, size_t size) {
  std::string value = tag;
  value += std::to_string(i);
  value.resize(std::max(size, value.size()), '.');
  return value;
}

}  // namespace

Ladder RunLadder(const Shape& shape, uint64_t seed) {
  Ladder out;
  out.sim_event = SimEvent(shape, seed);
  out.net_delivery = NetDelivery(shape, seed);
  out.rpc_call = RpcCall(shape, seed);
  out.storage_flush = StorageFlush(shape, seed);
  out.txn_lock = TxnLock(seed);
  out.core_solve = Solve(shape);
  out.kv_codec = KvCodec();

  IdleCluster idle = DeployIdle(shape, seed);
  Cluster& c = *idle.cluster;
  ReplicatedKvStore store(idle.kv);
  // Fill plan caches and version hints, as the workloads' warm-up does.
  WVOTE_CHECK_MSG(c.RunTask(idle.suite->ReadOnce()).ok(), "ladder: warm-up read failed");
  WVOTE_CHECK_MSG(c.RunTask(store.Get("k0")).ok(), "ladder: warm-up get failed");
  constexpr int kReads = 3000;
  constexpr int kWrites = 1000;
  out.core_read = Measure([&] {
    for (int i = 0; i < kReads; ++i) {
      WVOTE_CHECK_MSG(c.RunTask(idle.suite->ReadOnce()).ok(), "ladder: read failed");
    }
    return static_cast<double>(kReads);
  });
  out.core_write = Measure([&] {
    for (int i = 0; i < kWrites; ++i) {
      WVOTE_CHECK_MSG(c.RunTask(idle.suite->WriteOnce(Unique("w", i, shape.value_bytes))).ok(),
                      "ladder: write failed");
    }
    return static_cast<double>(kWrites);
  });
  out.kv_put = Measure([&] {
    for (int i = 0; i < kWrites; ++i) {
      std::string key = "k";
      key += std::to_string(i % kKvKeysPerShard);
      WVOTE_CHECK_MSG(c.RunTask(store.Put(std::move(key), Unique("p", i, kKvValueBytes))).ok(),
                      "ladder: put failed");
    }
    return static_cast<double>(kWrites);
  });
  return out;
}

}  // namespace perfbench
