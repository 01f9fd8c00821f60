#include "src/core/suite_client.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "src/common/backoff.h"
#include "src/common/check.h"
#include "src/core/txn_state.h"
#include "src/sim/join.h"

namespace wvote {

namespace {

// Prefix-refresh retries per operation.
constexpr int kMaxConfigRetries = 3;

// Releases locks acquired by a straggler probe that answered after its
// transaction already ended.
Task<void> ReleaseLateLocks(RpcEndpoint* rpc, HostId host, TxnId txn, Duration timeout) {
  (void)co_await rpc->Call<AbortReq, Ack>(host, AbortReq{txn}, timeout);
}

Task<void> SendRefresh(RpcEndpoint* rpc, HostId host, std::string suite, Version version,
                       std::string contents, Duration timeout) {
  RefreshReq req;
  req.suite = std::move(suite);
  req.version = version;
  req.contents = std::move(contents);
  (void)co_await rpc->Call<RefreshReq, RefreshResp>(host, std::move(req), timeout);
}

// A gather refused because a representative holds a newer prefix: refresh
// the prefix and gather again (up to kMaxConfigRetries times).
template <typename T>
bool IsStalePrefix(const Result<T>& gather) {
  return !gather.ok() && gather.status().code() == StatusCode::kFailedPrecondition;
}

// Everything in `release` that is not a writer: those participants only
// need their locks dropped when the transaction ends.
std::vector<HostId> ReadOnlyOf(std::set<HostId> release,
                               const std::map<HostId, std::vector<WriteIntent>>& writes) {
  for (const auto& [host, intents] : writes) {
    release.erase(host);
  }
  return std::vector<HostId>(release.begin(), release.end());
}

}  // namespace

// ---------------------------------------------------------------------------
// SuiteTransaction
// ---------------------------------------------------------------------------

SuiteTransaction::~SuiteTransaction() {
  if (state_ && !state_->finished) {
    Spawn(state_->client->DoAbort(state_));
  }
}

Task<Result<std::string>> SuiteTransaction::Read() { return state_->client->DoRead(state_); }

Task<Result<VersionedValue>> SuiteTransaction::ReadVersioned() {
  std::shared_ptr<State> state = state_;
  Result<std::string> contents = co_await state->client->DoRead(state);
  if (!contents.ok()) {
    co_return contents.status();
  }
  // A buffered write's version is assigned at commit: report the read
  // version if there is one, else 0.
  WVOTE_CHECK(state->pending_write || state->read_result.has_value());
  co_return VersionedValue{state->read_result ? state->read_result->version : 0,
                           std::move(contents.value())};
}

Status SuiteTransaction::Write(std::string contents) {
  if (state_->finished) {
    return FailedPreconditionError("transaction already finished");
  }
  state_->pending_write = std::move(contents);
  return Status::Ok();
}

Task<Status> SuiteTransaction::Commit() {
  SuiteClient::OneState one{state_};
  return SuiteClient::CommitStates(state_->client->coordinator_, std::move(one));
}

Task<void> SuiteTransaction::Abort() { return state_->client->DoAbort(state_); }

bool SuiteTransaction::finished() const { return !state_ || state_->finished; }

Version SuiteTransaction::committed_version() const {
  return state_ ? state_->committed_version : 0;
}

// ---------------------------------------------------------------------------
// SuiteClient
// ---------------------------------------------------------------------------

SuiteClient::SuiteClient(Network* net, RpcEndpoint* rpc, Coordinator* coordinator,
                         StrategyMemo* memo, SuiteConfig config, SuiteClientOptions options)
    : net_(net),
      rpc_(rpc),
      coordinator_(coordinator),
      config_(std::move(config)),
      options_(std::move(options)),
      plan_cache_(
          memo, [this](const std::string& name) { return links_.LatencyTo(name); },
          &stats_.plan_builds),
      links_(net, rpc->host_id()) {
  WVOTE_CHECK_MSG(config_.Validate().ok(), "invalid suite config");
}

void SuiteClientStats::RegisterWith(MetricsRegistry* registry, const MetricLabels& labels) {
  registry->RegisterCounter("core.suite_client.reads", labels, &reads);
  registry->RegisterCounter("core.suite_client.writes", labels, &writes);
  registry->RegisterCounter("core.suite_client.commits", labels, &commits);
  registry->RegisterCounter("core.suite_client.aborts", labels, &aborts);
  registry->RegisterCounter("core.suite_client.cache_hits", labels, &cache_hits);
  registry->RegisterCounter("core.suite_client.fastpath_hits", labels, &fastpath_hits);
  registry->RegisterCounter("core.suite_client.fastpath_misses", labels, &fastpath_misses);
  registry->RegisterCounter("core.suite_client.fastpath_bytes_saved", labels,
                            &fastpath_bytes_saved);
  registry->RegisterCounter("core.suite_client.plan_builds", labels, &plan_builds);
  registry->RegisterCounter("core.suite_client.probes_sent", labels, &probes_sent);
  registry->RegisterCounter("core.suite_client.gather_rounds", labels, &gather_rounds);
  registry->RegisterCounter("core.suite_client.config_refreshes", labels, &config_refreshes);
  registry->RegisterCounter("core.suite_client.refreshes_spawned", labels,
                            &refreshes_spawned);
  registry->RegisterCounter("core.suite_client.unavailable", labels, &unavailable);
  registry->RegisterCounter("core.suite_client.read_unavailable", labels, &read_unavailable);
  registry->RegisterCounter("core.suite_client.write_unavailable", labels, &write_unavailable);
  registry->RegisterCounter("core.suite_client.conflicts", labels, &conflicts);
  registry->RegisterCounter("core.suite_client.retries", labels, &retries);
  registry->RegisterCounter("core.suite_client.breaker_demotions", labels,
                            &breaker_demotions);
  registry->RegisterCounter("core.suite_client.hedged_probes", labels, &hedged_probes);
  registry->RegisterCounter("core.suite_client.commit_bytes_serialized", labels,
                            &commit_bytes_serialized);
  registry->AddResetHook([this]() { Reset(); });
}

void SuiteClient::RegisterMetrics(MetricsRegistry* registry) {
  const MetricLabels labels = {{"host", rpc_->host()->name()},
                               {"suite", config_.suite_name}};
  stats_.RegisterWith(registry, labels);
  // Planner load gauges: where this client's probes actually land. Labeled
  // by client host so several clients' views never sum into nonsense;
  // fleet-wide skew is read from the representative-side counters.
  for (const RepresentativeInfo& rep : config_.representatives) {
    if (rep.weak()) {
      continue;
    }
    MetricLabels rep_labels = labels;
    rep_labels["rep"] = rep.host_name;
    registry->RegisterGauge("core.planner.probe_share", rep_labels,
                            [this, name = rep.host_name]() { return ProbeShareOf(name); });
  }
  registry->RegisterGauge("core.planner.load_max_share", labels,
                          [this]() { return MaxProbeShare(); });
  registry->RegisterGauge("core.planner.load_imbalance", labels,
                          [this]() { return ProbeShareGini(); });
  registry->RegisterGauge("core.planner.expected_max_share", labels,
                          [this]() { return ExpectedMaxShare(); });
  registry->AddResetHook([this]() { probe_counts_.clear(); });
}

double SuiteClient::ProbeShareOf(const std::string& host) const {
  uint64_t total = 0;
  for (const auto& [name, count] : probe_counts_) {
    total += count;
  }
  if (total == 0) {
    return 0.0;
  }
  const auto it = probe_counts_.find(host);
  return it == probe_counts_.end()
             ? 0.0
             : static_cast<double>(it->second) / static_cast<double>(total);
}

double SuiteClient::MaxProbeShare() const {
  double max = 0.0;
  for (const auto& [name, count] : probe_counts_) {
    max = std::max(max, ProbeShareOf(name));
  }
  return max;
}

double SuiteClient::ProbeShareGini() const {
  // Gini over the probe shares of every *voting* representative, counting
  // never-probed members as zero — a plan that starves three of four reps
  // should read as imbalanced even though only one host shows up in
  // probe_counts_.
  std::vector<double> counts;
  double total = 0;
  for (const RepresentativeInfo& rep : config_.representatives) {
    if (!rep.weak()) {
      const auto it = probe_counts_.find(rep.host_name);
      counts.push_back(it == probe_counts_.end() ? 0.0 : static_cast<double>(it->second));
      total += counts.back();
    }
  }
  if (counts.empty() || total == 0) {
    return 0.0;
  }
  double abs_diffs = 0;
  for (double a : counts) {
    for (double b : counts) {
      abs_diffs += std::abs(a - b);
    }
  }
  return abs_diffs / (2.0 * static_cast<double>(counts.size()) * total);
}

double SuiteClient::ExpectedMaxShare() const {
  const std::shared_ptr<const ProbingStrategy> strategy =
      plan_cache_.Peek(options_.strategy.policy);
  if (strategy == nullptr) {
    return 0.0;
  }
  if (strategy->read_dist != nullptr) {
    return strategy->read_dist->max_share;
  }
  return 1.0;  // deterministic plan: the whole preferred prefix every op
}

SuiteTransaction SuiteClient::Begin(TraceContext parent) {
  return SuiteTransaction(NewState(coordinator_->Begin(), parent, "client.txn"));
}

SuiteClient::StatePtr SuiteClient::NewState(TxnId txn, TraceContext parent,
                                            std::string_view span_name) {
  auto state = std::make_shared<SuiteTransaction::State>();
  state->client = this;
  state->txn = txn;
  if (Tracer* tracer = net_->tracer()) {
    if (parent.valid()) {
      state->trace = tracer->StartChild(parent, rpc_->host_id(), span_name);
    } else {
      state->trace = tracer->StartRoot(rpc_->host_id(), span_name);
    }
    if (state->trace.valid()) {
      tracer->Annotate(state->trace, "txn=" + txn.ToString());
    }
  }
  return state;
}

std::shared_ptr<const ProbingStrategy> SuiteClient::PlanFor(QuorumStrategy policy) {
  QuorumStrategySpec spec = options_.strategy;
  spec.policy = policy;
  return plan_cache_.Get(config_, spec);
}

void SuiteClient::NoteVersion(const std::string& host_name, Version version) {
  Version& hint = rep_version_hints_[host_name];
  hint = std::max(hint, version);
  hint_version_ = std::max(hint_version_, version);
}

size_t SuiteClient::PickFastPathTarget(const std::vector<QuorumCandidate>& targets) const {
  if (targets.empty()) {
    return targets.size();
  }
  // The local weak-rep cache serves for free once the quorum confirms the
  // version; don't pay for piggybacked bytes it would shadow.
  if (cache_ != nullptr && hint_version_ > 0 &&
      cache_->PeekVersion(config_.suite_name) >= hint_version_) {
    return targets.size();
  }
  // Targets arrive in plan-preference order, so the first one whose last
  // observed version matches the hint is the cheapest likely-current
  // candidate. With no usable hint, bet on the most-preferred target.
  if (hint_version_ > 0) {
    for (size_t i = 0; i < targets.size(); ++i) {
      auto it = rep_version_hints_.find(targets[i].host_name);
      if (it != rep_version_hints_.end() && it->second >= hint_version_) {
        return i;
      }
    }
  }
  return 0;
}

Task<Result<SuiteClient::GatherResult>> SuiteClient::Gather(StatePtr state, int required_votes,
                                                            bool exclusive, bool want_data) {
  GatherPlan plan = Plan(required_votes, exclusive);
  Tracer* tracer = net_->tracer();
  TraceContext span;
  if (tracer != nullptr) {
    span = tracer->StartChild(state->trace, rpc_->host_id(), "phase.gather");
  }

  GatherResult out;
  int rounds = 0;
  while (rounds < options_.max_gather_rounds && out.votes < required_votes) {
    // Piggyback only in the first round: widening rounds are the failure
    // path, and their members are rarely the cheapest current copy.
    std::vector<Task<ProbeReply>> probes =
        Probe(plan, *state, out.votes, want_data && rounds == 0, span);
    if (probes.empty()) {
      break;  // candidate list exhausted
    }
    ++stats_.gather_rounds;
    ++rounds;
    // Named std::function bindings (not bare lambdas) per the GCC 12 rule in
    // src/sim/task.h.
    std::function<bool(const std::vector<ProbeReply>&)> enough =
        [base_votes = out.votes, required_votes](const std::vector<ProbeReply>& got) {
          int votes = base_votes;
          for (const ProbeReply& r : got) {
            votes += r.result.ok() ? r.candidate.votes : 0;
          }
          return votes >= required_votes;
        };
    // Stragglers acquired locks after we stopped waiting: track them while
    // the transaction lives, release them if it is already over.
    std::function<void(ProbeReply)> leftover =
        [state, rpc = rpc_, timeout = options_.probe_timeout](ProbeReply r) {
          if (!r.result.ok()) {
            return;
          }
          if (state->finished) {
            Spawn(ReleaseLateLocks(rpc, r.host, state->txn, timeout));
          } else {
            state->participants.insert(r.host);
          }
        };
    std::vector<ProbeReply> replies = co_await JoinUntil<ProbeReply>(
        net_->sim(), std::move(probes), std::move(enough), std::move(leftover));
    const Status conflict = Tally(plan, replies, *state, out);
    if (!conflict.ok()) {
      if (tracer != nullptr) {
        tracer->EndWith(span, "wait-die conflict");
      }
      co_return conflict;
    }
  }

  const Status verdict = Verdict(plan, out, rounds, span);
  if (!verdict.ok()) {
    co_return verdict;
  }
  co_return out;
}

Status SuiteClient::Verdict(const GatherPlan& plan, const GatherResult& out, int rounds,
                            TraceContext span) {
  Tracer* tracer = net_->tracer();
  const std::string tally =
      std::to_string(out.votes) + "/" + std::to_string(plan.required_votes);
  if (out.max_config_version > config_.config_version) {
    if (tracer != nullptr) {
      tracer->EndWith(span, "stale config");
    }
    return FailedPreconditionError("suite configuration is newer than client's");
  }
  if (out.votes < plan.required_votes) {
    ++stats_.unavailable;
    // The SLO layer tracks read and write availability separately; the lock
    // mode says which quorum this gather was for.
    ++(plan.exclusive ? stats_.write_unavailable : stats_.read_unavailable);
    if (tracer != nullptr) {
      tracer->Record(rpc_->host_id(), TraceKind::kQuorumFailed, config_.suite_name + " " + tally);
      tracer->EndWith(span, "unavailable " + tally);
    }
    return UnavailableError("gathered " + tally + " votes for " + config_.suite_name);
  }
  if (tracer != nullptr) {
    tracer->EndWith(span, "votes=" + tally + " rounds=" + std::to_string(rounds) +
                              (plan.fastpath_requested ? " fastpath-requested" : ""));
  }
  return Status::Ok();
}

SuiteClient::GatherPlan SuiteClient::Plan(int required_votes, bool exclusive) {
  GatherPlan plan;
  plan.strategy = PlanFor(options_.strategy.policy);
  plan.required_votes = required_votes;
  plan.exclusive = exclusive;
  const std::vector<QuorumCandidate>& candidates = plan.strategy->order;
  // Probabilistic policies draw this operation's quorum from the cached
  // distribution: quorum members first, the rest as widening fallbacks.
  // Deterministic policies draw nothing and consume no randomness, so
  // replays of pre-strategy schedules stay bit-exact; they walk the plan
  // order itself. Health-aware reordering permutes only this map, so the
  // plan (and its RNG consumption) stays untouched.
  plan.order = plan.strategy->SampleOrder(required_votes, &net_->sim()->rng());
  const bool sampled = !plan.order.empty();
  if (!sampled) {
    plan.order.resize(candidates.size());
    std::iota(plan.order.begin(), plan.order.end(), uint16_t{0});
  }
  if (health_ == nullptr || !options_.circuit_breakers) {
    return plan;
  }
  if (!sampled) {
    // Deterministic plans re-rank by observed latency: a host whose SRTT has
    // blown past its provisioned link cost loses its preferred slot even
    // before its breaker trips. Stale observations are forgiven, so a healed
    // (or merely unprobed) host wins its rank back and gets re-measured.
    // Sampled orders are left alone — their load-spreading distribution is
    // the point — and rely on demotion below.
    std::stable_sort(plan.order.begin(), plan.order.end(), [&](uint16_t a, uint16_t b) {
      return health_->EffectiveLatency(links_.Resolve(candidates[a].host_name),
                                       candidates[a].expected_latency) <
             health_->EffectiveLatency(links_.Resolve(candidates[b].host_name),
                                       candidates[b].expected_latency);
    });
  }
  // Breaker-open and latency-inflated hosts sort to the BACK, never out: a
  // demoted host is still probed when its votes are required for quorum.
  // The latency test matters because a gray host with generous timeouts
  // never FAILS — nothing trips its breaker — yet it must not keep a
  // preferred slot. For sampled orders this is what renormalizes load over
  // the live hosts: the relative order of healthy members (the policy's
  // distribution) is preserved and the widening fallbacks step into the
  // demoted member's quorum slot.
  std::vector<char> demote(candidates.size(), 0);
  for (uint16_t idx : plan.order) {
    const HostId host = links_.Resolve(candidates[idx].host_name);
    if (health_->ShouldDemote(host) ||
        health_->LatencyDemoted(host, candidates[idx].expected_latency)) {
      demote[idx] = 1;
      ++stats_.breaker_demotions;
    }
  }
  std::stable_partition(plan.order.begin(), plan.order.end(),
                        [&demote](uint16_t idx) { return demote[idx] == 0; });
  return plan;
}

std::vector<Task<SuiteClient::ProbeReply>> SuiteClient::Probe(GatherPlan& plan,
                                                               SuiteTransaction::State& state,
                                                               int votes, bool piggyback,
                                                               TraceContext span) {
  // This round's targets: enough fresh candidates to close the vote gap
  // (all of them under kBroadcast).
  std::vector<QuorumCandidate> targets;
  while (plan.next < plan.order.size() &&
         (options_.strategy.policy == QuorumStrategy::kBroadcast ||
          votes < plan.required_votes)) {
    const size_t pos = plan.next++;
    if (plan.consumed.count(pos) == 0) {
      targets.push_back(plan.at(pos));
      votes += targets.back().votes;
    }
  }
  std::vector<Task<ProbeReply>> probes;
  if (targets.empty()) {
    return probes;
  }
  const size_t fastpath = piggyback ? PickFastPathTarget(targets) : targets.size();
  plan.fastpath_requested = plan.fastpath_requested || fastpath < targets.size();

  // Hedge backups come from the unconsumed tail of the probe order, one
  // distinct position per target; a backup that loses its race stays
  // available as a widening candidate (its votes were never counted).
  const bool hedging = health_ != nullptr && options_.hedged_probes;
  const bool adaptive = health_ != nullptr && options_.adaptive_timeouts;
  size_t hedge_scan = plan.next;
  probes.reserve(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    const HostId host = links_.Resolve(targets[i].host_name);
    ++stats_.probes_sent;
    ++probe_counts_[targets[i].host_name];
    state.probed.insert(host);

    while (hedging && hedge_scan < plan.order.size() && plan.consumed.count(hedge_scan) != 0) {
      ++hedge_scan;
    }
    ProbeReply backup;
    Duration hedge_delay = Duration::Zero();
    Duration timeout = options_.probe_timeout;
    if (hedging && hedge_scan < plan.order.size()) {
      const QuorumCandidate& pick = plan.at(hedge_scan);
      backup = ProbeReply(pick, links_.Resolve(pick.host_name), hedge_scan++);
      // The backup may be granted a lock server-side even when its reply
      // loses the race (or the hedge never fires — aborting an unknown
      // transaction is a no-op), so the release safety net must cover it.
      state.probed.insert(backup.host);
      ++stats_.hedged_probes;
      // The hedge is the latency-control mechanism here; the timeout is only
      // a backstop and must leave the backup room to answer, so the hedged
      // call keeps the configured fallback rather than the primary's
      // (possibly fail-fast) adaptive estimate.
      hedge_delay = health_->HedgeDelay(host, options_.probe_timeout);
    } else if (adaptive) {
      timeout = health_->TimeoutFor(host, options_.probe_timeout);
    }
    TxnVersionReq req(state.txn, config_.suite_name, i == fastpath);
    probes.push_back(SendProbe(rpc_, ProbeReply(std::move(targets[i]), host), std::move(backup),
                               std::move(req), plan.exclusive, hedge_delay, timeout, span));
  }
  return probes;
}

Status SuiteClient::Tally(GatherPlan& plan, std::vector<ProbeReply>& replies,
                          SuiteTransaction::State& state, GatherResult& out) {
  for (ProbeReply& r : replies) {
    if (r.result.ok()) {
      if (r.backup_position != ProbeReply::kPrimary) {
        plan.consumed.insert(r.backup_position);
      }
      state.participants.insert(r.host);
      out.votes += r.candidate.votes;
      out.current = std::max(out.current, r.result->version);
      out.max_config_version = std::max(out.max_config_version, r.result->config_version);
      NoteVersion(r.candidate.host_name, r.result->version);
      out.replies.push_back(std::move(r));
    } else if (r.result.status().code() == StatusCode::kConflict) {
      // Wait-die said die: the whole transaction must abort and retry.
      ++stats_.conflicts;
      return r.result.status();
    }
    // Timeouts and crashes just fail to contribute votes.
  }
  return Status::Ok();
}

Task<SuiteClient::ProbeReply> SuiteClient::SendProbe(RpcEndpoint* rpc, ProbeReply target,
                                                     ProbeReply backup, TxnVersionReq req,
                                                     bool exclusive, Duration hedge_delay,
                                                     Duration timeout, TraceContext ctx) {
  // With a backup host the RPC layer hedges: it sends to the target and,
  // after `hedge_delay`, a copy to the backup; the first reply wins and the
  // loser is dropped idempotently. Without one it makes a plain call.
  //
  // if/else, NOT `exclusive ? co_await ... : co_await ...`: GCC 12
  // miscompiles the conditional operator with co_await in its arms — the
  // selected arm's result is copied bitwise, so a string payload ends up
  // aliasing this coroutine's frame. See rule 4 in src/sim/task.h.
  HedgedReply<VersionResp> reply;
  if (exclusive) {
    reply = co_await rpc->CallHedged<LockVersionReq, VersionResp>(
        target.host, backup.host, LockVersionReq(req.txn, std::move(req.suite)), hedge_delay,
        timeout, ctx);
  } else {
    reply = co_await rpc->CallHedged<TxnVersionReq, VersionResp>(
        target.host, backup.host, std::move(req), hedge_delay, timeout, ctx);
  }
  // Credit whichever host answered (the target on timeout), so the tally
  // counts the responder's votes.
  const bool backup_won =
      reply.reply.ok() && reply.responder == backup.host && backup.host != target.host;
  ProbeReply& winner = backup_won ? backup : target;
  winner.result = std::move(reply.reply);
  co_return std::move(winner);
}

Task<Result<SuiteReadResp>> SuiteClient::FetchData(
    StatePtr state, const GatherResult& gather) {
  // Fetch from the cheapest current member — Gifford's "read from the best
  // up-to-date representative". The candidates already carry their expected
  // latency from the (latency-ordered) plan, so a min-scan per attempt
  // suffices; no re-sort. Ties pick the earliest reply, which keeps the
  // choice stable and deterministic.
  std::vector<const ProbeReply*> members;
  for (const ProbeReply& r : gather.replies) {
    if (r.result->version == gather.current) {
      members.push_back(&r);
    }
  }

  Tracer* tracer = net_->tracer();
  TraceContext fetch_span;
  if (tracer != nullptr) {
    fetch_span = tracer->StartChild(state->trace, rpc_->host_id(), "phase.fetch");
  }

  // With the breaker knob armed, "cheapest" means observed cost, not the
  // provisioned link expectation: a gray member whose probe just took 10×
  // its link cost must not keep winning the data fetch on paper numbers.
  const bool steer = health_ != nullptr && options_.circuit_breakers;
  while (!members.empty()) {
    auto best = std::min_element(
        members.begin(), members.end(), [this, steer](const ProbeReply* a, const ProbeReply* b) {
          if (steer) {
            return health_->EffectiveLatency(a->host, a->candidate.expected_latency) <
                   health_->EffectiveLatency(b->host, b->candidate.expected_latency);
          }
          return a->candidate.expected_latency < b->candidate.expected_latency;
        });
    const ProbeReply* member = *best;
    members.erase(best);
    Duration timeout = options_.data_timeout;
    if (health_ != nullptr && options_.adaptive_timeouts) {
      timeout = health_->TimeoutFor(member->host, options_.data_timeout);
    }
    Result<SuiteReadResp> data = co_await rpc_->Call<TxnReadSuiteReq, SuiteReadResp>(
        member->host, TxnReadSuiteReq{state->txn, config_.suite_name}, timeout,
        fetch_span);
    if (data.ok()) {
      if (data.value().version != gather.current) {
        if (tracer != nullptr) {
          tracer->EndWith(fetch_span, "version changed under lock");
        }
        co_return InternalError("representative changed version under our lock");
      }
      if (tracer != nullptr) {
        tracer->EndWith(fetch_span, "from host " + std::to_string(member->host));
      }
      co_return std::move(data.value());
    }
  }
  if (tracer != nullptr) {
    tracer->EndWith(fetch_span, "no current member");
  }
  co_return UnavailableError("no current representative could serve data");
}

void SuiteClient::SpawnRefreshes(const GatherResult& gather, Version current,
                                 std::string contents) {
  if (!options_.background_refresh || current == 0) {
    return;
  }
  // Representatives that answered with a stale version are refreshed. Under
  // the broadcast strategy, representatives that did not answer in time are
  // refreshed too (the install is conditional server-side, so an
  // already-current straggler ignores it) — this is what lets a recovered
  // replica catch up from any broadcast reader.
  for (const ProbeReply& r : gather.replies) {
    if (r.result->version < current) {
      ++stats_.refreshes_spawned;
      Spawn(SendRefresh(rpc_, r.host, config_.suite_name, current, contents,
                        options_.data_timeout));
    }
  }
  if (options_.strategy.policy != QuorumStrategy::kBroadcast) {
    return;
  }
  for (const RepresentativeInfo& rep : config_.representatives) {
    const HostId host = rep.weak() ? kInvalidHost : links_.Resolve(rep.host_name);
    if (host != kInvalidHost &&
        std::none_of(gather.replies.begin(), gather.replies.end(),
                     [host](const ProbeReply& r) { return r.host == host; })) {
      ++stats_.refreshes_spawned;
      Spawn(SendRefresh(rpc_, host, config_.suite_name, current, contents,
                        options_.data_timeout));
    }
  }
}

Task<Result<std::string>> SuiteClient::DoRead(StatePtr state) {
  if (state->finished) {
    co_return FailedPreconditionError("transaction already finished");
  }
  if (state->pending_write) {
    co_return *state->pending_write;  // read-your-writes
  }
  if (state->read_result) {
    co_return state->read_result->contents;  // repeated read
  }

  Result<GatherResult> gather = co_await Gather(state, config_.read_quorum, false,
                                               /*want_data=*/options_.fastpath_reads);
  for (int attempt = 0; IsStalePrefix(gather); ++attempt) {
    WVOTE_CO_RETURN_IF_ERROR(co_await RefreshConfigFromPrefix());
    if (attempt == kMaxConfigRetries) {
      co_return FailedPreconditionError("configuration kept changing during read");
    }
    gather = co_await Gather(state, config_.read_quorum, false, options_.fastpath_reads);
  }
  if (!gather.ok()) {
    co_return gather.status();
  }
  ++stats_.reads;
  const Version current = gather.value().current;
  if (current == 0) {
    // Never written: reads as empty.
    state->read_result = VersionedValue{0, ""};
    co_return std::string();
  }

  std::string contents;
  const std::string* cached =
      cache_ != nullptr ? cache_->Lookup(config_.suite_name, current) : nullptr;
  if (cached != nullptr) {
    ++stats_.cache_hits;
    contents = *cached;
  } else {
    // Fast path: a probe piggybacked its contents and the gathered quorum
    // proves that copy current — the read is done in one round trip. This is
    // exactly Gifford's read rule with the data transfer overlapped into the
    // version poll; the currency decision is unchanged.
    ProbeReply* piggybacked = nullptr;
    if (options_.fastpath_reads) {
      for (ProbeReply& r : gather.value().replies) {
        if (piggybacked == nullptr && r.result->has_data && r.result->version == current) {
          piggybacked = &r;
        }
      }
      ++(piggybacked != nullptr ? stats_.fastpath_hits : stats_.fastpath_misses);
      if (Tracer* tracer = net_->tracer()) {
        tracer->Annotate(state->trace, piggybacked != nullptr ? "fastpath-hit" : "fastpath-miss");
      }
    }
    if (piggybacked != nullptr) {
      // The avoided fetch reply would have cost SuiteReadResp wire bytes.
      stats_.fastpath_bytes_saved += 64 + piggybacked->result->contents.size();
      contents = std::move(piggybacked->result->contents);
    } else {
      // Piggybacked copy stale, lost, or never requested: pay the explicit
      // fetch from a proven-current member.
      Result<SuiteReadResp> data = co_await FetchData(state, gather.value());
      if (!data.ok()) {
        co_return data.status();
      }
      contents = std::move(data.value().contents);
    }
    if (cache_ != nullptr) {
      cache_->Update(config_.suite_name, current, contents);
    }
  }
  SpawnRefreshes(gather.value(), current, contents);
  state->read_result = VersionedValue{current, contents};
  co_return std::move(contents);
}

template <typename States>
Task<Status> SuiteClient::CommitStates(Coordinator* coordinator, States states) {
  for (const StatePtr& state : states) {
    if (state->finished) {
      co_return FailedPreconditionError("transaction already finished");
    }
  }
  // An exclusive write quorum for every written suite, under its newest
  // prefix: a stale one is refreshed and the gather retried. All gathers
  // share one TxnId, so wait-die resolves cross-suite lock conflicts.
  std::map<HostId, std::vector<WriteIntent>> writes;
  for (const StatePtr& state : states) {
    if (!state->pending_write) {
      continue;
    }
    SuiteClient* client = state->client;
    Result<GatherResult> gather =
        co_await client->Gather(state, client->config_.write_quorum, true);
    for (int attempt = 0; IsStalePrefix(gather); ++attempt) {
      WVOTE_CO_RETURN_IF_ERROR(co_await client->RefreshConfigFromPrefix());
      if (attempt == kMaxConfigRetries) {
        gather = FailedPreconditionError("configuration kept changing during commit");
        break;
      }
      gather = co_await client->Gather(state, client->config_.write_quorum, true);
    }
    if (!gather.ok()) {
      co_await AbortStates(coordinator, states);
      co_return gather.status();
    }
    ++client->stats_.writes;
    state->installing = gather.value().current + 1;
    // Serialize the versioned value exactly once per suite; every quorum
    // member's intent (and every message hop) shares the one buffer.
    const SharedPayload payload(
        VersionedValue{state->installing, *state->pending_write}.Serialize());
    client->stats_.commit_bytes_serialized += payload.size();
    for (const ProbeReply& r : gather.value().replies) {
      writes[r.host].push_back(WriteIntent(SuiteValueKey(client->config_.suite_name), payload));
    }
    state->write_quorum = std::move(gather.value().replies);
  }

  // Everything locked anywhere (including probes that timed out client-side
  // but were granted server-side) and not written gets released.
  std::set<HostId> release;
  for (const StatePtr& state : states) {
    release.merge(state->ReleaseSet());
    state->finished = true;
  }
  std::vector<HostId> read_only = ReadOnlyOf(std::move(release), writes);
  const StatePtr& lead = states.front();
  const bool read_only_txn = writes.empty();
  Status st = co_await coordinator->CommitTransaction(lead->txn, std::move(writes),
                                                      std::move(read_only), lead->trace);
  for (const StatePtr& state : states) {
    SuiteClient* client = state->client;
    if (!st.ok()) {
      ++client->stats_.aborts;
      continue;
    }
    ++client->stats_.commits;
    if (state->pending_write) {
      state->committed_version = state->installing;
      // The write quorum now holds the new version; remember that for
      // future fast-path targeting.
      for (const ProbeReply& r : state->write_quorum) {
        client->NoteVersion(r.candidate.host_name, state->installing);
      }
      if (client->cache_ != nullptr) {
        client->cache_->Update(client->config_.suite_name, state->installing,
                               *state->pending_write);
      }
    }
  }
  if (Tracer* tracer = lead->client->net_->tracer()) {
    if (!st.ok()) {
      tracer->EndWith(lead->trace, st.ToString());
    } else if (read_only_txn) {
      tracer->EndWith(lead->trace, "committed read-only");
    } else {
      std::string note = "committed";
      for (const StatePtr& state : states) {
        if (state->pending_write) {
          note += " v" + std::to_string(state->committed_version);
        }
      }
      tracer->EndWith(lead->trace, note);
    }
  }
  co_return st;
}

template <typename States>
Task<void> SuiteClient::AbortStates(Coordinator* coordinator, States states) {
  std::set<HostId> release;
  bool aborted = false;
  for (const StatePtr& state : states) {
    if (!state->finished) {
      state->finished = true;
      aborted = true;
      ++state->client->stats_.aborts;
      release.merge(state->ReleaseSet());
    }
  }
  if (!aborted) {
    co_return;
  }
  const StatePtr& lead = states.front();
  std::vector<HostId> targets(release.begin(), release.end());
  co_await coordinator->AbortTransaction(lead->txn, std::move(targets), lead->trace);
  if (Tracer* tracer = lead->client->net_->tracer()) {
    tracer->EndWith(lead->trace, "aborted");
  }
}

template Task<Status> SuiteClient::CommitStates(Coordinator*, OneState);
template Task<Status> SuiteClient::CommitStates(Coordinator*, std::vector<StatePtr>);
template Task<void> SuiteClient::AbortStates(Coordinator*, OneState);
template Task<void> SuiteClient::AbortStates(Coordinator*, std::vector<StatePtr>);

Task<void> SuiteClient::DoAbort(StatePtr state) {
  OneState one{std::move(state)};
  return AbortStates(coordinator_, std::move(one));
}

template <typename T>
Task<T> SuiteClient::RunOnce(const char* root_name, std::optional<std::string> write,
                             int retries) {
  // Root span for the whole operation: retried attempts become sibling
  // "client.txn" children, so one trace tells the full story of the op.
  Tracer* tracer = net_->tracer();
  TraceContext root;
  if (tracer != nullptr) {
    root = tracer->StartRoot(rpc_->host_id(), root_name);
  }
  Status last = InternalError("no attempts");
  for (int i = 0; i < retries; ++i) {
    SuiteTransaction txn = Begin(root);
    Result<std::string> contents = std::string();
    if (write) {
      last = txn.Write(*write);
    } else {
      contents = co_await txn.Read();
      last = contents.status();
    }
    if (last.ok()) {
      last = co_await txn.Commit();
    } else {
      co_await txn.Abort();
    }
    if (last.ok()) {
      if (tracer != nullptr) {
        tracer->EndWith(root, "ok attempts=" + std::to_string(i + 1));
      }
      if constexpr (std::is_same_v<T, Status>) {
        co_return last;
      } else {
        co_return contents;
      }
    }
    if (!IsRetryable(last)) {
      break;
    }
    // Jittered exponential backoff before retrying a conflicted transaction.
    ++stats_.retries;
    co_await net_->sim()->Sleep(JitteredBackoff(net_->sim()->rng(), i));
  }
  if (tracer != nullptr) {
    tracer->EndWith(root, last.ToString());
  }
  co_return last;
}

Task<Result<std::string>> SuiteClient::ReadOnce(int retries) {
  return RunOnce<Result<std::string>>("client.read", std::nullopt, retries);
}

Task<Status> SuiteClient::WriteOnce(std::string contents, int retries) {
  return RunOnce<Status>("client.write", std::optional<std::string>(std::move(contents)),
                         retries);
}

Task<Status> SuiteClient::RefreshConfigFromPrefix() {
  ++stats_.config_refreshes;
  // Ask every voting representative (lock-free) which prefix version it
  // holds, then fetch the newest prefix.
  const std::shared_ptr<const ProbingStrategy> strategy =
      PlanFor(QuorumStrategy::kBroadcast);

  uint64_t best_version = config_.config_version;
  HostId best_host = kInvalidHost;
  for (const QuorumCandidate& candidate : strategy->order) {
    const HostId host = links_.Resolve(candidate.host_name);
    Result<VersionResp> resp = co_await rpc_->Call<VersionInquiryReq, VersionResp>(
        host, VersionInquiryReq{config_.suite_name}, options_.probe_timeout);
    if (resp.ok() && resp.value().config_version > best_version) {
      best_version = resp.value().config_version;
      best_host = host;
    }
  }
  if (best_host == kInvalidHost) {
    co_return Status::Ok();  // nobody has anything newer
  }
  Result<PrefixReadResp> prefix = co_await rpc_->Call<PrefixReadReq, PrefixReadResp>(
      best_host, PrefixReadReq{config_.suite_name}, options_.data_timeout);
  if (!prefix.ok()) {
    co_return prefix.status();
  }
  Result<SuiteConfig> parsed = SuiteConfig::Parse(prefix.value().config_bytes);
  if (!parsed.ok()) {
    co_return parsed.status();
  }
  WVOTE_CO_RETURN_IF_ERROR(parsed.value().Validate());
  if (parsed.value().config_version > config_.config_version) {
    config_ = std::move(parsed.value());
  }
  co_return Status::Ok();
}

Task<Status> SuiteClient::Reconfigure(SuiteConfig new_config, int retries) {
  if (new_config.suite_name != config_.suite_name) {
    co_return InvalidArgumentError("reconfigure must keep the suite name");
  }
  WVOTE_CO_RETURN_IF_ERROR(new_config.Validate());

  const int64_t original_timestamp = net_->sim()->Now().ToMicros();
  Status last = InternalError("no attempts");
  for (int attempt = 0; attempt < retries; ++attempt) {
    SuiteConfig candidate = new_config;
    candidate.config_version = config_.config_version + 1;
    // Retain the first attempt's timestamp: under wait-die the retry only
    // ever ages, so it eventually beats the stream of younger transactions.
    last = co_await TryReconfigure(std::move(candidate),
                                   coordinator_->BeginAt(original_timestamp));
    if (last.ok() || !IsRetryable(last)) {
      co_return last;
    }
    ++stats_.retries;
    co_await net_->sim()->Sleep(JitteredBackoff(
        net_->sim()->rng(), attempt,
        BackoffPolicy(Duration::Millis(2), Duration::Millis(400), 2.0)));
  }
  co_return last;
}

Task<Status> SuiteClient::TryReconfigure(SuiteConfig new_config, TxnId txn) {
  const StatePtr state = NewState(txn, TraceContext(), "client.reconfigure");

  // Write quorum under the OLD configuration (the paper's rule for changing
  // the prefix).
  Result<GatherResult> gather = co_await Gather(state, config_.write_quorum, true);
  if (!gather.ok()) {
    co_await DoAbort(state);
    co_return gather.status();
  }

  // Current contents, needed to initialize members new to the suite.
  std::string contents;
  if (gather.value().current > 0) {
    Result<SuiteReadResp> data = co_await FetchData(state, gather.value());
    if (!data.ok()) {
      co_await DoAbort(state);
      co_return data.status();
    }
    contents = std::move(data.value().contents);
  }
  const Version next = gather.value().current + 1;

  // Exclusive locks at every new-config member that we do not already hold.
  std::set<HostId> targets;
  for (const ProbeReply& r : gather.value().replies) {
    targets.insert(r.host);
  }
  for (const RepresentativeInfo& rep : new_config.representatives) {
    if (rep.weak()) {
      continue;  // weak representatives are client-side caches, not servers
    }
    const HostId host = links_.Resolve(rep.host_name);
    if (targets.count(host) != 0) {
      continue;
    }
    state->probed.insert(host);
    Result<VersionResp> locked = co_await rpc_->Call<LockVersionReq, VersionResp>(
        host, LockVersionReq{state->txn, config_.suite_name}, options_.probe_timeout,
        state->trace);
    if (!locked.ok()) {
      co_await DoAbort(state);
      co_return locked.status();
    }
    state->participants.insert(host);
    targets.insert(host);
  }

  // The new prefix is also written at every target, so it needs its own
  // exclusive lock (Prepare refuses intents whose keys are unlocked).
  for (HostId host : targets) {
    state->probed.insert(host);
    Result<Ack> locked = co_await rpc_->Call<LockReq, Ack>(
        host, LockReq{state->txn, SuitePrefixKey(config_.suite_name), LockMode::kExclusive},
        options_.probe_timeout, state->trace);
    if (!locked.ok()) {
      co_await DoAbort(state);
      co_return locked.status();
    }
  }

  // Atomically install the new prefix and the (re-versioned) current value
  // at every target; both serialize once, every target shares the buffers.
  const SharedPayload prefix_bytes(new_config.Serialize());
  const SharedPayload value_bytes(VersionedValue{next, contents}.Serialize());
  stats_.commit_bytes_serialized += prefix_bytes.size() + value_bytes.size();
  std::map<HostId, std::vector<WriteIntent>> writes;
  for (HostId host : targets) {
    writes[host] = {WriteIntent{SuitePrefixKey(config_.suite_name), prefix_bytes},
                    WriteIntent{SuiteValueKey(config_.suite_name), value_bytes}};
  }
  std::vector<HostId> read_only = ReadOnlyOf(state->ReleaseSet(), writes);
  state->finished = true;
  Status st = co_await coordinator_->CommitTransaction(state->txn, std::move(writes),
                                                       std::move(read_only), state->trace);
  if (st.ok()) {
    if (Tracer* tracer = net_->tracer()) {
      tracer->Record(rpc_->host_id(), TraceKind::kReconfigured, new_config.ToString());
    }
    config_ = std::move(new_config);
  }
  if (Tracer* tracer = net_->tracer()) {
    tracer->EndWith(state->trace, st.ok() ? "installed" : st.ToString());
  }
  co_return st;
}

}  // namespace wvote
