// Quorum planner: strategy orderings plus the optimality property of greedy
// selection for the max-latency objective, checked against brute force over
// randomized configurations; the plan cache and the per-cluster strategy
// memo that solves each quorum shape once.

#include "src/core/quorum.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/strategy_solver.h"
#include "src/sim/random.h"

namespace wvote {
namespace {

SuiteConfig MakeConfig(std::vector<std::pair<std::string, int>> reps, int r, int w) {
  SuiteConfig cfg;
  cfg.suite_name = "q";
  for (auto& [name, votes] : reps) {
    cfg.AddRepresentative(name, votes);
  }
  cfg.read_quorum = r;
  cfg.write_quorum = w;
  return cfg;
}

std::function<Duration(const std::string&)> LatencyMap(
    std::map<std::string, Duration> latencies) {
  return [latencies](const std::string& name) { return latencies.at(name); };
}

TEST(QuorumPlannerTest, LowestLatencyOrdersByLatency) {
  SuiteConfig cfg = MakeConfig({{"slow", 1}, {"fast", 1}, {"mid", 1}}, 2, 2);
  QuorumPlanner planner(cfg, LatencyMap({{"slow", Duration::Millis(100)},
                                         {"fast", Duration::Millis(1)},
                                         {"mid", Duration::Millis(50)}}));
  auto plan = planner.Plan(2, QuorumStrategy::kLowestLatency);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].host_name, "fast");
  EXPECT_EQ(plan[1].host_name, "mid");
  EXPECT_EQ(plan[2].host_name, "slow");
}

TEST(QuorumPlannerTest, FewestMessagesOrdersByVotes) {
  SuiteConfig cfg = MakeConfig({{"small", 1}, {"big", 3}, {"mid", 2}}, 3, 4);
  QuorumPlanner planner(cfg, LatencyMap({{"small", Duration::Millis(1)},
                                         {"big", Duration::Millis(100)},
                                         {"mid", Duration::Millis(50)}}));
  auto plan = planner.Plan(3, QuorumStrategy::kFewestMessages);
  EXPECT_EQ(plan[0].host_name, "big");
  EXPECT_EQ(plan[1].host_name, "mid");
  EXPECT_EQ(plan[2].host_name, "small");
}

TEST(QuorumPlannerTest, WeakRepresentativesExcluded) {
  SuiteConfig cfg;
  cfg.suite_name = "q";
  cfg.AddRepresentative("voter", 1);
  cfg.AddWeakRepresentative("cache");
  cfg.read_quorum = 1;
  cfg.write_quorum = 1;
  QuorumPlanner planner(cfg, LatencyMap({{"voter", Duration::Millis(10)},
                                         {"cache", Duration::Millis(1)}}));
  auto plan = planner.Plan(1, QuorumStrategy::kBroadcast);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].host_name, "voter");
}

TEST(QuorumPlannerTest, LatencyTiesBrokenByVotes) {
  SuiteConfig cfg = MakeConfig({{"one", 1}, {"three", 3}}, 2, 3);
  QuorumPlanner planner(cfg, LatencyMap({{"one", Duration::Millis(5)},
                                         {"three", Duration::Millis(5)}}));
  auto plan = planner.Plan(2, QuorumStrategy::kLowestLatency);
  EXPECT_EQ(plan[0].host_name, "three");  // more votes per probe first
}

TEST(QuorumPlannerTest, PrefixCountFindsMinimalPrefix) {
  SuiteConfig cfg = MakeConfig({{"a", 2}, {"b", 1}, {"c", 1}}, 3, 3);
  QuorumPlanner planner(cfg, LatencyMap({{"a", Duration::Millis(1)},
                                         {"b", Duration::Millis(2)},
                                         {"c", Duration::Millis(3)}}));
  auto plan = planner.Plan(3, QuorumStrategy::kLowestLatency);
  EXPECT_EQ(QuorumPlanner::PrefixCount(plan, 1), 1u);
  EXPECT_EQ(QuorumPlanner::PrefixCount(plan, 3), 2u);
  EXPECT_EQ(QuorumPlanner::PrefixCount(plan, 4), 3u);
  EXPECT_EQ(QuorumPlanner::PrefixCount(plan, 5), 0u);  // unreachable
}

TEST(QuorumPlannerTest, PrefixLatencyIsMaxOfPrefix) {
  SuiteConfig cfg = MakeConfig({{"a", 1}, {"b", 1}}, 1, 2);
  QuorumPlanner planner(cfg, LatencyMap({{"a", Duration::Millis(10)},
                                         {"b", Duration::Millis(30)}}));
  auto plan = planner.Plan(2, QuorumStrategy::kLowestLatency);
  EXPECT_EQ(QuorumPlanner::PrefixLatency(plan, 1), Duration::Millis(10));
  EXPECT_EQ(QuorumPlanner::PrefixLatency(plan, 2), Duration::Millis(30));
}

// Property: for the max-latency objective, the greedy (ascending latency)
// prefix is optimal — no subset of representatives with enough votes has a
// smaller maximum latency. Brute-forced over random configurations.
class GreedyOptimality : public ::testing::TestWithParam<int> {};

TEST_P(GreedyOptimality, GreedyPrefixMatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  for (int trial = 0; trial < 50; ++trial) {
    const int n = static_cast<int>(rng.NextInRange(1, 10));
    SuiteConfig cfg;
    cfg.suite_name = "q";
    std::map<std::string, Duration> latencies;
    int total_votes = 0;
    for (int i = 0; i < n; ++i) {
      const std::string name = "r" + std::to_string(i);
      const int votes = static_cast<int>(rng.NextInRange(1, 4));
      cfg.AddRepresentative(name, votes);
      latencies[name] = Duration::Micros(rng.NextInRange(1, 1000));
      total_votes += votes;
    }
    const int required = static_cast<int>(rng.NextInRange(1, total_votes));
    cfg.read_quorum = 1;  // validation not exercised here
    cfg.write_quorum = total_votes;

    QuorumPlanner planner(cfg, LatencyMap(latencies));
    auto plan = planner.Plan(required, QuorumStrategy::kLowestLatency);
    const size_t k = QuorumPlanner::PrefixCount(plan, required);
    ASSERT_GT(k, 0u);
    const Duration greedy = QuorumPlanner::PrefixLatency(plan, k);

    // Brute force: minimum over all subsets with enough votes of the
    // subset's max latency.
    Duration best = Duration::Infinite();
    for (uint32_t mask = 1; mask < (1u << n); ++mask) {
      int votes = 0;
      Duration worst = Duration::Zero();
      for (int i = 0; i < n; ++i) {
        if (mask & (1u << i)) {
          votes += cfg.representatives[static_cast<size_t>(i)].votes;
          worst = std::max(worst,
                           latencies["r" + std::to_string(i)]);
        }
      }
      if (votes >= required) {
        best = std::min(best, worst);
      }
    }
    EXPECT_EQ(greedy, best) << "trial " << trial << " n=" << n << " required=" << required;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyOptimality, ::testing::Range(1, 9));

TEST(QuorumStrategyTest, NamesAreStable) {
  EXPECT_STREQ(QuorumStrategyName(QuorumStrategy::kLowestLatency), "lowest-latency");
  EXPECT_STREQ(QuorumStrategyName(QuorumStrategy::kFewestMessages), "fewest-messages");
  EXPECT_STREQ(QuorumStrategyName(QuorumStrategy::kBroadcast), "broadcast");
}

TEST(PlanCacheTest, ReusesPlanForSameConfigAndStrategy) {
  SuiteConfig cfg = MakeConfig({{"a", 1}, {"b", 1}, {"c", 1}}, 2, 2);
  cfg.config_version = 1;
  uint64_t builds = 0;
  StrategyMemo memo;
  PlanCache cache(&memo, LatencyMap({{"a", Duration::Millis(3)},
                                     {"b", Duration::Millis(1)},
                                     {"c", Duration::Millis(2)}}),
                         &builds);
  auto p1 = cache.Get(cfg, QuorumStrategy::kLowestLatency);
  auto p2 = cache.Get(cfg, QuorumStrategy::kLowestLatency);
  EXPECT_EQ(p1.get(), p2.get());  // same shared plan, not a rebuild
  EXPECT_EQ(builds, 1u);
  ASSERT_EQ(p1->order.size(), 3u);
  EXPECT_EQ(p1->order[0].host_name, "b");
  EXPECT_FALSE(p1->probabilistic());
}

TEST(PlanCacheTest, StrategiesAreCachedIndependently) {
  SuiteConfig cfg = MakeConfig({{"a", 2}, {"b", 1}}, 2, 2);
  cfg.config_version = 1;
  uint64_t builds = 0;
  StrategyMemo memo;
  PlanCache cache(&memo, LatencyMap({{"a", Duration::Millis(9)}, {"b", Duration::Millis(1)}}),
                         &builds);
  auto latency = cache.Get(cfg, QuorumStrategy::kLowestLatency);
  auto votes = cache.Get(cfg, QuorumStrategy::kFewestMessages);
  EXPECT_EQ(builds, 2u);
  EXPECT_EQ(latency->order[0].host_name, "b");
  EXPECT_EQ(votes->order[0].host_name, "a");
  cache.Get(cfg, QuorumStrategy::kLowestLatency);
  cache.Get(cfg, QuorumStrategy::kFewestMessages);
  EXPECT_EQ(builds, 2u);  // both still cached
}

TEST(PlanCacheTest, ConfigVersionChangeInvalidates) {
  SuiteConfig cfg = MakeConfig({{"a", 1}, {"b", 1}}, 1, 2);
  cfg.config_version = 1;
  SuiteConfig next = MakeConfig({{"a", 1}, {"b", 1}, {"c", 1}}, 2, 2);
  next.config_version = 2;

  uint64_t builds = 0;
  StrategyMemo memo;
  PlanCache cache(&memo, LatencyMap({{"a", Duration::Millis(1)},
                                     {"b", Duration::Millis(2)},
                                     {"c", Duration::Millis(3)}}),
                         &builds);
  auto old_plan = cache.Get(cfg, QuorumStrategy::kLowestLatency);
  EXPECT_EQ(builds, 1u);
  // A new config version rebuilds...
  auto new_plan = cache.Get(next, QuorumStrategy::kLowestLatency);
  EXPECT_EQ(builds, 2u);
  EXPECT_EQ(new_plan->order.size(), 3u);
  // ...and stays cached under that version.
  cache.Get(next, QuorumStrategy::kLowestLatency);
  EXPECT_EQ(builds, 2u);
  // The old shared plan stays valid for holders that outlive the
  // invalidation (a gather suspended mid-flight).
  EXPECT_EQ(old_plan->order.size(), 2u);
}

TEST(PlanCacheTest, ExplicitInvalidateForcesRebuild) {
  SuiteConfig cfg = MakeConfig({{"a", 1}}, 1, 1);
  cfg.config_version = 1;
  uint64_t builds = 0;
  StrategyMemo memo;
  PlanCache cache(&memo, LatencyMap({{"a", Duration::Millis(1)}}), &builds);
  cache.Get(cfg, QuorumStrategy::kLowestLatency);
  cache.Invalidate();
  cache.Get(cfg, QuorumStrategy::kLowestLatency);
  EXPECT_EQ(builds, 2u);
}

TEST(PlanCacheTest, CapacityChangeInvalidatesWithoutVersionBump) {
  SuiteConfig cfg = MakeConfig({{"a", 1}, {"b", 1}, {"c", 1}}, 2, 2);
  cfg.config_version = 7;
  uint64_t builds = 0;
  StrategyMemo memo;
  PlanCache cache(&memo, LatencyMap({{"a", Duration::Millis(1)},
                                     {"b", Duration::Millis(2)},
                                     {"c", Duration::Millis(3)}}),
                         &builds);
  QuorumStrategySpec spec(QuorumStrategy::kLoadOptimal);
  auto p1 = cache.Get(cfg, spec);
  EXPECT_EQ(builds, 1u);

  // Same config version, new capacity vector: the cached distribution is
  // tuned for the old capacities and must be rebuilt.
  spec.capacities = {{"a", 2.0}};
  auto p2 = cache.Get(cfg, spec);
  EXPECT_EQ(builds, 2u);
  EXPECT_NE(p1.get(), p2.get());

  // Same tuning again: cached.
  cache.Get(cfg, spec);
  EXPECT_EQ(builds, 2u);

  // f_resilience is tuning too.
  spec.f_resilience = 1;
  cache.Get(cfg, spec);
  EXPECT_EQ(builds, 3u);
}

TEST(PlanCacheTest, ProbabilisticPoliciesCarryDistributions) {
  SuiteConfig cfg = MakeConfig({{"a", 2}, {"b", 1}, {"c", 1}, {"d", 1}}, 2, 4);
  cfg.config_version = 1;
  StrategyMemo memo;
  PlanCache cache(&memo, LatencyMap({{"a", Duration::Millis(1)},
                                     {"b", Duration::Millis(2)},
                                     {"c", Duration::Millis(3)},
                                     {"d", Duration::Millis(4)}}));
  auto strategy = cache.Get(cfg, QuorumStrategy::kLoadOptimal);
  ASSERT_TRUE(strategy->probabilistic());
  const QuorumDistribution* read = strategy->DistributionFor(cfg.read_quorum);
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->target_votes, 2);
  EXPECT_EQ(read->quorums.size(), 4u);  // {a}, {b,c}, {b,d}, {c,d}
  EXPECT_LE(read->max_share, 0.35);     // the load-optimal acceptance bound
  const QuorumDistribution* write = strategy->DistributionFor(cfg.write_quorum);
  ASSERT_NE(write, nullptr);
  EXPECT_EQ(write->target_votes, 4);

  // Deterministic policies share the cache but carry no distribution.
  auto det = cache.Get(cfg, QuorumStrategy::kLowestLatency);
  EXPECT_FALSE(det->probabilistic());
  EXPECT_EQ(det->DistributionFor(cfg.read_quorum), nullptr);
}

TEST(ProbingStrategyTest, SamplingIsSeedDeterministic) {
  SuiteConfig cfg = MakeConfig({{"a", 2}, {"b", 1}, {"c", 1}, {"d", 1}}, 2, 4);
  cfg.config_version = 1;
  StrategyMemo memo;
  PlanCache cache(&memo, LatencyMap({{"a", Duration::Millis(1)},
                                     {"b", Duration::Millis(2)},
                                     {"c", Duration::Millis(3)},
                                     {"d", Duration::Millis(4)}}));
  auto strategy = cache.Get(cfg, QuorumStrategy::kLoadOptimal);
  ASSERT_TRUE(strategy->probabilistic());

  Rng rng_a(1234);
  Rng rng_b(1234);
  bool saw_non_prefix = false;
  for (int i = 0; i < 200; ++i) {
    std::vector<uint16_t> sa = strategy->SampleOrder(cfg.read_quorum, &rng_a);
    std::vector<uint16_t> sb = strategy->SampleOrder(cfg.read_quorum, &rng_b);
    // Same seed, same draw index -> identical probe order: chaos replays
    // of probabilistic strategies stay bit-exact.
    EXPECT_EQ(sa, sb);
    // Every sample is a permutation of the full candidate list (widening
    // fallbacks keep availability identical to deterministic probing).
    std::vector<uint16_t> sorted = sa;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<uint16_t>{0, 1, 2, 3}));
    // The sampled prefix really is a quorum.
    int votes = 0;
    for (uint16_t idx : sa) {
      if (votes >= cfg.read_quorum) {
        break;
      }
      votes += strategy->order[idx].votes;
    }
    EXPECT_GE(votes, cfg.read_quorum);
    if (sa[0] != 0) {
      saw_non_prefix = true;
    }
  }
  // The distribution actually spreads probes (pi_{a} ~= 0.4, so ~60% of
  // draws start elsewhere; 200 draws without one is ~1e-80).
  EXPECT_TRUE(saw_non_prefix);

  // Deterministic policies consume no randomness and return no sample.
  auto det = cache.Get(cfg, QuorumStrategy::kLowestLatency);
  Rng rng_c(99);
  const uint64_t before = rng_c.NextUint64();
  Rng rng_d(99);
  (void)rng_d.NextUint64();
  EXPECT_TRUE(det->SampleOrder(cfg.read_quorum, &rng_d).empty());
  Rng rng_e(99);
  (void)rng_e.NextUint64();
  EXPECT_EQ(rng_d.NextUint64(), rng_e.NextUint64());
  (void)before;
}

// Two clients with different link latencies whose orders carry the same
// votes: one solve per target, the very same distribution for both, but
// each client keeps its own order and counts its own plan build.
TEST(StrategyMemoTest, ClientsWithTheSameVotesInOrderShareOneSolve) {
  SuiteConfig cfg = MakeConfig({{"a", 2}, {"b", 1}, {"c", 1}, {"d", 1}}, 2, 4);
  cfg.config_version = 1;
  StrategyMemo memo;
  uint64_t builds_1 = 0;
  uint64_t builds_2 = 0;
  PlanCache near_b(&memo,
                   LatencyMap({{"a", Duration::Millis(1)},
                               {"b", Duration::Millis(2)},
                               {"c", Duration::Millis(3)},
                               {"d", Duration::Millis(4)}}),
                   &builds_1);
  PlanCache near_d(&memo,
                   LatencyMap({{"a", Duration::Millis(1)},
                               {"b", Duration::Millis(9)},
                               {"c", Duration::Millis(5)},
                               {"d", Duration::Millis(2)}}),
                   &builds_2);
  auto s1 = near_b.Get(cfg, QuorumStrategy::kLoadOptimal);
  EXPECT_EQ(memo.solves(), 2u);  // read and write targets
  auto s2 = near_d.Get(cfg, QuorumStrategy::kLoadOptimal);
  EXPECT_EQ(memo.solves(), 2u);
  EXPECT_EQ(s1->read_dist.get(), s2->read_dist.get());
  EXPECT_EQ(s1->write_dist.get(), s2->write_dist.get());
  EXPECT_EQ(builds_1, 1u);
  EXPECT_EQ(builds_2, 1u);
  EXPECT_EQ(s1->order[1].host_name, "b");
  EXPECT_EQ(s2->order[1].host_name, "d");
}

TEST(StrategyMemoTest, EachKeyFieldMissesOnItsOwn) {
  StrategyMemo::Shape base;
  base.policy = QuorumStrategy::kLoadOptimal;
  base.votes = {2, 1, 1, 1, 1};
  base.target_votes = 2;
  StrategyMemo memo;
  auto first = memo.Get(base);
  EXPECT_EQ(memo.Get(base).get(), first.get());
  EXPECT_EQ(memo.solves(), 1u);

  std::vector<StrategyMemo::Shape> variants(5, base);
  variants[0].capacities = {2.0, 1.0, 1.0, 1.0, 1.0};
  variants[1].f_resilience = 1;
  variants[2].target_votes = 5;
  variants[3].votes = {1, 2, 1, 1, 1};
  variants[4].policy = QuorumStrategy::kUniformSpread;
  for (size_t i = 0; i < variants.size(); ++i) {
    auto dist = memo.Get(variants[i]);
    EXPECT_EQ(memo.solves(), 2 + i) << "variant " << i;
    EXPECT_NE(dist.get(), first.get()) << "variant " << i;
  }
  EXPECT_EQ(memo.Get(base).get(), first.get());
  EXPECT_EQ(memo.solves(), 1 + variants.size());
}

// Nothing to sample is a null distribution, memoized like any other.
TEST(StrategyMemoTest, UnreachableTargetIsAMemoizedNull) {
  StrategyMemo::Shape shape;
  shape.policy = QuorumStrategy::kLoadOptimal;
  shape.votes = {1, 1, 1};
  shape.target_votes = 4;
  StrategyMemo memo;
  EXPECT_EQ(memo.Get(shape), nullptr);
  EXPECT_EQ(memo.Get(shape), nullptr);
  EXPECT_EQ(memo.solves(), 1u);
}

// The memo stores exactly what a direct enumeration and solve produce.
TEST(StrategyMemoTest, MemoizedDistributionIsBitIdenticalToADirectSolve) {
  StrategyMemo::Shape shape;
  shape.policy = QuorumStrategy::kLoadOptimal;
  shape.votes = {2, 1, 1, 1, 1};
  shape.target_votes = 2;
  shape.capacities = {1.0, 2.0, 1.0, 1.5, 1.0};
  shape.f_resilience = 1;
  StrategyMemo memo;
  auto memoized = memo.Get(shape);
  ASSERT_NE(memoized, nullptr);

  std::vector<StrategyQuorum> quorums = EnumerateMinimalQuorums(shape.votes, shape.target_votes);
  StrategySolution direct =
      SolveLoadOptimal(quorums, shape.votes.size(), shape.capacities, shape.f_resilience);
  std::vector<double> cumulative;
  double acc = 0;
  for (double p : direct.probability) {
    acc += p;
    cumulative.push_back(acc);
  }
  cumulative.back() = 1.0;
  ASSERT_EQ(memoized->quorums.size(), quorums.size());
  for (size_t q = 0; q < quorums.size(); ++q) {
    EXPECT_EQ(memoized->quorums[q], quorums[q].members);
  }
  EXPECT_TRUE(memoized->cumulative == cumulative);
  EXPECT_TRUE(memoized->shares == direct.shares);
  EXPECT_EQ(memoized->max_share, direct.max_share);
  EXPECT_EQ(memoized->share_lower_bound, direct.share_lower_bound);
  EXPECT_EQ(memoized->target_votes, 2);
}

// Every client of a cluster draws on one memo: 4 suites x 3 load-optimal
// clients of one shape solve its two targets once, and reconfiguring one
// suite to a new shape solves only that shape's targets.
TEST(StrategyMemoTest, ClusterSolvesEachShapeOnce) {
  Cluster cluster;
  const std::vector<std::string> hosts = {"rep-0", "rep-1", "rep-2", "rep-3", "rep-4"};
  for (const std::string& host : hosts) {
    cluster.AddRepresentative(host);
  }
  SuiteClientOptions options;
  options.strategy = QuorumStrategy::kLoadOptimal;
  std::vector<std::vector<SuiteClient*>> clients(4);
  for (int s = 0; s < 4; ++s) {
    SuiteConfig config;
    config.suite_name = "suite-" + std::to_string(s);
    for (const std::string& host : hosts) {
      config.AddRepresentative(host, host == "rep-0" ? 2 : 1);
    }
    config.read_quorum = 2;
    config.write_quorum = 5;
    ASSERT_TRUE(cluster.CreateSuite(config, "genesis").ok());
    for (int c = 0; c < 3; ++c) {
      clients[s].push_back(
          cluster.AddClient("client-" + std::to_string(c), config, options));
    }
  }
  uint64_t plan_builds = 0;
  for (const auto& suite : clients) {
    for (SuiteClient* client : suite) {
      ASSERT_TRUE(cluster.RunTask(client->WriteOnce("v")).ok());
      ASSERT_TRUE(cluster.RunTask(client->ReadOnce()).ok());
      plan_builds += client->stats().plan_builds;
    }
  }
  EXPECT_EQ(cluster.strategy_memo().solves(), 2u);
  EXPECT_EQ(plan_builds, 12u);  // still counted per client

  SuiteConfig next = clients[0][0]->config();
  next.read_quorum = 3;
  next.write_quorum = 4;
  ASSERT_TRUE(cluster.RunTask(clients[0][0]->Reconfigure(next)).ok());
  for (const auto& suite : clients) {
    for (SuiteClient* client : suite) {
      ASSERT_TRUE(cluster.RunTask(client->WriteOnce("w")).ok());
      ASSERT_TRUE(cluster.RunTask(client->ReadOnce()).ok());
    }
  }
  EXPECT_EQ(clients[0][2]->config().read_quorum, 3);
  EXPECT_EQ(cluster.strategy_memo().solves(), 4u);
  // Let the participants' in-doubt watchdogs run out, so no coroutine
  // frame is left parked in the event queue at teardown.
  cluster.sim().Run();
}

}  // namespace
}  // namespace wvote
