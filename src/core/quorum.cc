#include "src/core/quorum.h"

#include <algorithm>
#include <tuple>

#include "src/common/check.h"
#include "src/core/strategy_solver.h"
#include "src/net/network.h"
#include "src/sim/random.h"

namespace wvote {

const char* QuorumStrategyName(QuorumStrategy s) {
  switch (s) {
    case QuorumStrategy::kLowestLatency:
      return "lowest-latency";
    case QuorumStrategy::kFewestMessages:
      return "fewest-messages";
    case QuorumStrategy::kBroadcast:
      return "broadcast";
    case QuorumStrategy::kUniformSpread:
      return "uniform-spread";
    case QuorumStrategy::kLoadOptimal:
      return "load-optimal";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// HostLinkCache
// ---------------------------------------------------------------------------

HostId HostLinkCache::Resolve(const std::string& name) {
  Entry& entry = entries_[name];
  if (entry.id == kInvalidHost) {
    Host* host = net_->FindHost(name);
    WVOTE_CHECK_MSG(host != nullptr, "unknown representative host");
    entry.id = host->id();
  }
  return entry.id;
}

Duration HostLinkCache::LatencyTo(const std::string& name) {
  const HostId there = Resolve(name);
  Entry& entry = entries_[name];
  if (!entry.have_latency) {
    entry.latency = net_->ExpectedLatency(self_, there) + net_->ExpectedLatency(there, self_);
    entry.have_latency = true;
  }
  return entry.latency;
}

void HostLinkCache::InvalidateLatencies() {
  for (auto& [name, entry] : entries_) {
    entry.have_latency = false;
  }
}

// ---------------------------------------------------------------------------
// QuorumPlanner
// ---------------------------------------------------------------------------

QuorumPlanner::QuorumPlanner(const SuiteConfig& config,
                             std::function<Duration(const std::string&)> latency_of) {
  for (size_t i = 0; i < config.representatives.size(); ++i) {
    const RepresentativeInfo& rep = config.representatives[i];
    if (rep.weak()) {
      continue;
    }
    voting_.push_back(QuorumCandidate{i, rep.host_name, rep.votes, latency_of(rep.host_name)});
  }
}

std::vector<QuorumCandidate> QuorumPlanner::Plan(int required_votes,
                                                 QuorumStrategy strategy) const {
  std::vector<QuorumCandidate> plan = voting_;
  switch (strategy) {
    case QuorumStrategy::kLowestLatency:
    case QuorumStrategy::kBroadcast:
    case QuorumStrategy::kUniformSpread:
    case QuorumStrategy::kLoadOptimal:
      // Probabilistic policies use the latency order as their base: a
      // sampled quorum's members probe cheapest-first, and widening after
      // failures follows the same order deterministic probing would.
      std::stable_sort(plan.begin(), plan.end(),
                       [](const QuorumCandidate& a, const QuorumCandidate& b) {
                         if (a.expected_latency != b.expected_latency) {
                           return a.expected_latency < b.expected_latency;
                         }
                         return a.votes > b.votes;  // more votes per probe first
                       });
      break;
    case QuorumStrategy::kFewestMessages:
      std::stable_sort(plan.begin(), plan.end(),
                       [](const QuorumCandidate& a, const QuorumCandidate& b) {
                         if (a.votes != b.votes) {
                           return a.votes > b.votes;
                         }
                         return a.expected_latency < b.expected_latency;
                       });
      break;
  }
  return plan;
}

size_t QuorumPlanner::PrefixCount(const std::vector<QuorumCandidate>& plan,
                                  int required_votes) {
  int votes = 0;
  for (size_t i = 0; i < plan.size(); ++i) {
    votes += plan[i].votes;
    if (votes >= required_votes) {
      return i + 1;
    }
  }
  return 0;
}

Duration QuorumPlanner::PrefixLatency(const std::vector<QuorumCandidate>& plan, size_t count) {
  Duration worst = Duration::Zero();
  for (size_t i = 0; i < count && i < plan.size(); ++i) {
    worst = std::max(worst, plan[i].expected_latency);
  }
  return worst;
}

// ---------------------------------------------------------------------------
// ProbingStrategy
// ---------------------------------------------------------------------------

const QuorumDistribution* ProbingStrategy::DistributionFor(int required_votes) const {
  for (const QuorumDistribution* dist : {read_dist.get(), write_dist.get()}) {
    if (dist != nullptr && dist->target_votes == required_votes) {
      return dist;
    }
  }
  return nullptr;
}

std::vector<uint16_t> ProbingStrategy::SampleOrder(int required_votes, Rng* rng) const {
  const QuorumDistribution* dist = DistributionFor(required_votes);
  if (dist == nullptr) {
    return {};
  }
  const double u = rng->NextDouble();
  const auto it = std::lower_bound(dist->cumulative.begin(), dist->cumulative.end(), u);
  const size_t pick = it == dist->cumulative.end()
                          ? dist->cumulative.size() - 1
                          : static_cast<size_t>(it - dist->cumulative.begin());
  const std::vector<uint16_t>& members = dist->quorums[pick];
  std::vector<uint16_t> out;
  out.reserve(order.size());
  out.insert(out.end(), members.begin(), members.end());
  // Remaining candidates, in base (latency) order, as widening fallbacks.
  size_t m = 0;
  for (uint16_t i = 0; i < static_cast<uint16_t>(order.size()); ++i) {
    if (m < members.size() && members[m] == i) {
      ++m;
      continue;
    }
    out.push_back(i);
  }
  return out;
}

// ---------------------------------------------------------------------------
// StrategyMemo
// ---------------------------------------------------------------------------

bool StrategyMemo::Shape::operator<(const Shape& other) const {
  return std::tie(policy, votes, target_votes, capacities, f_resilience) <
         std::tie(other.policy, other.votes, other.target_votes, other.capacities,
                  other.f_resilience);
}

namespace {

// Null when there is nothing to sample: the clients fall back to
// deterministic probing.
std::shared_ptr<const QuorumDistribution> SolveShape(const StrategyMemo::Shape& shape) {
  const size_t n = shape.votes.size();
  if (n == 0 || n > kMaxStrategyHosts) {
    return nullptr;
  }
  std::vector<StrategyQuorum> quorums = EnumerateMinimalQuorums(shape.votes, shape.target_votes);
  if (quorums.empty()) {
    return nullptr;
  }
  StrategySolution solution =
      shape.policy == QuorumStrategy::kLoadOptimal
          ? SolveLoadOptimal(quorums, n, shape.capacities, shape.f_resilience)
          : SolveUniform(quorums, n, shape.capacities);

  auto out = std::make_shared<QuorumDistribution>();
  out->target_votes = shape.target_votes;
  out->quorums.reserve(quorums.size());
  out->cumulative.reserve(quorums.size());
  double acc = 0;
  for (size_t q = 0; q < quorums.size(); ++q) {
    out->quorums.push_back(std::move(quorums[q].members));
    acc += solution.probability[q];
    out->cumulative.push_back(acc);
  }
  out->cumulative.back() = 1.0;  // absorb rounding
  out->shares = std::move(solution.shares);
  out->max_share = solution.max_share;
  out->share_lower_bound = solution.share_lower_bound;
  return out;
}

}  // namespace

std::shared_ptr<const QuorumDistribution> StrategyMemo::Get(Shape shape) {
  auto it = solved_.find(shape);
  if (it == solved_.end()) {
    ++solves_;
    std::shared_ptr<const QuorumDistribution> solved = SolveShape(shape);
    it = solved_.emplace(std::move(shape), std::move(solved)).first;
  }
  return it->second;
}

// ---------------------------------------------------------------------------
// PlanCache
// ---------------------------------------------------------------------------

PlanCache::PlanCache(StrategyMemo* memo, std::function<Duration(const std::string&)> latency_of,
                     uint64_t* build_counter)
    : memo_(memo), latency_of_(std::move(latency_of)), build_counter_(build_counter) {
  WVOTE_CHECK_MSG(memo_ != nullptr, "PlanCache needs a StrategyMemo");
}

std::shared_ptr<const QuorumDistribution> PlanCache::Distribution(
    const std::vector<QuorumCandidate>& order, const QuorumStrategySpec& spec,
    int target_votes) {
  StrategyMemo::Shape shape;
  shape.policy = spec.policy;
  shape.target_votes = target_votes;
  shape.f_resilience = spec.f_resilience;
  shape.votes.reserve(order.size());
  for (const QuorumCandidate& c : order) {
    shape.votes.push_back(c.votes);
  }
  if (!spec.capacities.empty()) {
    shape.capacities.reserve(order.size());
    for (const QuorumCandidate& c : order) {
      const auto it = spec.capacities.find(c.host_name);
      shape.capacities.push_back(it == spec.capacities.end() ? 1.0 : it->second);
    }
  }
  return memo_->Get(std::move(shape));
}

std::shared_ptr<const ProbingStrategy> PlanCache::Get(const SuiteConfig& config,
                                                      const QuorumStrategySpec& spec) {
  if (!have_config_version_ || config.config_version != config_version_ ||
      !cached_tuning_.SameTuning(spec)) {
    Invalidate();
    have_config_version_ = true;
    config_version_ = config.config_version;
    cached_tuning_ = spec;
  }
  const size_t slot = static_cast<size_t>(spec.policy);
  WVOTE_CHECK(slot < kNumStrategies);
  if (strategies_[slot] == nullptr) {
    // The preference order is independent of the vote target (see Plan);
    // the planner itself is rebuilt per config version so latencies are
    // re-sampled whenever the membership can have changed.
    QuorumPlanner planner(config, latency_of_);
    auto strategy = std::make_shared<ProbingStrategy>();
    strategy->order = planner.Plan(/*required_votes=*/0, spec.policy);
    if (spec.policy == QuorumStrategy::kUniformSpread ||
        spec.policy == QuorumStrategy::kLoadOptimal) {
      strategy->read_dist = Distribution(strategy->order, spec, config.read_quorum);
      if (config.write_quorum != config.read_quorum) {
        strategy->write_dist = Distribution(strategy->order, spec, config.write_quorum);
      }
    }
    strategies_[slot] = std::move(strategy);
    if (build_counter_ != nullptr) {
      ++*build_counter_;
    }
  }
  return strategies_[slot];
}

std::shared_ptr<const ProbingStrategy> PlanCache::Peek(QuorumStrategy policy) const {
  const size_t slot = static_cast<size_t>(policy);
  WVOTE_CHECK(slot < kNumStrategies);
  return strategies_[slot];
}

void PlanCache::Invalidate() {
  have_config_version_ = false;
  for (size_t i = 0; i < kNumStrategies; ++i) {
    strategies_[i] = nullptr;
  }
}

}  // namespace wvote
