// Tests for the chaos harness: the consistency checker on synthetic
// histories, fault-schedule serialization and templates, exponential churn
// and one-shot phase crashes applied by the Nemesis, and end-to-end runner
// properties (determinism, valid configs pass, the negative control
// fails, minimization + artifact replay reproduce the failure).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/chaos/checker.h"
#include "src/chaos/history.h"
#include "src/chaos/nemesis.h"
#include "src/chaos/runner.h"
#include "src/chaos/schedule.h"
#include "src/core/cluster.h"
#include "src/sim/random.h"

namespace wvote {
namespace {

// ---------------------------------------------------------------------------
// Checker: synthetic histories. The checker is pure, so every rule can be
// pinned down with a handcrafted counterexample.

ChaosOp Op(uint64_t id, ChaosOpType type, int64_t invoke_ms, int64_t response_ms, bool ok,
           Version version, std::string value) {
  ChaosOp op;
  op.id = id;
  op.client = 0;
  op.suite = "s";
  op.type = type;
  op.invoke = TimePoint::FromMicros(invoke_ms * 1000);
  op.response = TimePoint::FromMicros(response_ms * 1000);
  op.done = true;
  op.ok = ok;
  op.version = version;
  op.value = std::move(value);
  op.status = ok ? "OK" : "ambiguous";
  return op;
}

bool HasRule(const CheckResult& result, const std::string& rule) {
  for (const ChaosViolation& v : result.violations) {
    if (v.rule == rule) {
      return true;
    }
  }
  return false;
}

TEST(ChaosChecker, CleanHistoryPasses) {
  std::vector<ChaosOp> ops = {
      Op(1, ChaosOpType::kWrite, 0, 10, true, 2, "a"),
      Op(2, ChaosOpType::kRead, 20, 30, true, 2, "a"),
      Op(3, ChaosOpType::kWrite, 40, 50, true, 3, "b"),
      Op(4, ChaosOpType::kRead, 60, 70, true, 3, "b"),
  };
  CheckResult result = CheckHistory(ops, "init");
  EXPECT_TRUE(result.ok()) << result.Report(FaultSchedule{});
  EXPECT_EQ(result.ok_writes, 2u);
  EXPECT_EQ(result.ok_reads, 2u);
}

TEST(ChaosChecker, LostAckIsDurabilityViolation) {
  std::vector<ChaosOp> ops = {
      Op(1, ChaosOpType::kWrite, 0, 10, true, 2, "a"),
      Op(2, ChaosOpType::kWrite, 20, 50, true, 3, "b"),
      Op(3, ChaosOpType::kRead, 60, 70, true, 2, "a"),  // invoked after b's ack
  };
  CheckResult result = CheckHistory(ops, "init");
  EXPECT_TRUE(HasRule(result, "durability"));
}

TEST(ChaosChecker, DuplicateCommitVersionIsViolation) {
  // Concurrent writes (no realtime order) that both claim version 2.
  std::vector<ChaosOp> ops = {
      Op(1, ChaosOpType::kWrite, 0, 10, true, 2, "a"),
      Op(2, ChaosOpType::kWrite, 5, 15, true, 2, "b"),
  };
  CheckResult result = CheckHistory(ops, "init");
  EXPECT_TRUE(HasRule(result, "write-version-unique"));
}

TEST(ChaosChecker, WriteOrderAgainstRealTime) {
  std::vector<ChaosOp> ops = {
      Op(1, ChaosOpType::kWrite, 0, 10, true, 3, "a"),
      Op(2, ChaosOpType::kWrite, 20, 30, true, 2, "b"),  // later op, older version
  };
  CheckResult result = CheckHistory(ops, "init");
  EXPECT_TRUE(HasRule(result, "write-order"));
}

TEST(ChaosChecker, ReadsMustBeMonotonic) {
  std::vector<ChaosOp> ops = {
      Op(1, ChaosOpType::kWrite, 0, 8, true, 2, "a"),
      Op(2, ChaosOpType::kWrite, 0, 9, true, 3, "b"),
      Op(3, ChaosOpType::kRead, 10, 11, true, 3, "b"),
      Op(4, ChaosOpType::kRead, 15, 16, true, 2, "a"),  // went back in time
  };
  CheckResult result = CheckHistory(ops, "init");
  EXPECT_TRUE(HasRule(result, "read-monotonic"));
}

TEST(ChaosChecker, ReadFromTheFutureIsViolation) {
  std::vector<ChaosOp> ops = {
      Op(1, ChaosOpType::kRead, 0, 5, true, 2, "a"),
      Op(2, ChaosOpType::kWrite, 10, 20, true, 2, "a"),  // invoked after the read
  };
  CheckResult result = CheckHistory(ops, "init");
  EXPECT_TRUE(HasRule(result, "read-write-order"));
}

TEST(ChaosChecker, ReadValueMustMatchAckedWrite) {
  std::vector<ChaosOp> ops = {
      Op(1, ChaosOpType::kWrite, 0, 10, true, 2, "a"),
      Op(2, ChaosOpType::kRead, 20, 30, true, 2, "zzz"),
  };
  CheckResult result = CheckHistory(ops, "init");
  EXPECT_TRUE(HasRule(result, "read-value"));
}

TEST(ChaosChecker, FabricatedValueIsViolation) {
  std::vector<ChaosOp> ops = {
      Op(1, ChaosOpType::kRead, 20, 30, true, 5, "ghost"),
  };
  CheckResult result = CheckHistory(ops, "init");
  EXPECT_TRUE(HasRule(result, "read-value"));
}

TEST(ChaosChecker, InitialContentsReadAtVersionOne) {
  std::vector<ChaosOp> good = {Op(1, ChaosOpType::kRead, 0, 10, true, 1, "init")};
  EXPECT_TRUE(CheckHistory(good, "init").ok());
  std::vector<ChaosOp> bad = {Op(1, ChaosOpType::kRead, 0, 10, true, 1, "other")};
  EXPECT_TRUE(HasRule(CheckHistory(bad, "init"), "read-value"));
}

TEST(ChaosChecker, AmbiguousWriteMayOrMayNotTakeEffect) {
  // The ambiguous write's payload is a legal read result (it may have
  // committed) but never an obligation — neither history violates.
  std::vector<ChaosOp> took_effect = {
      Op(1, ChaosOpType::kWrite, 0, 10, false, 0, "p"),
      Op(2, ChaosOpType::kRead, 20, 30, true, 2, "p"),
  };
  EXPECT_TRUE(CheckHistory(took_effect, "init").ok());
  std::vector<ChaosOp> vanished = {
      Op(1, ChaosOpType::kWrite, 0, 10, false, 0, "p"),
      Op(2, ChaosOpType::kRead, 20, 30, true, 1, "init"),
  };
  EXPECT_TRUE(CheckHistory(vanished, "init").ok());
}

TEST(ChaosChecker, PayloadAtTwoVersionsIsViolation) {
  std::vector<ChaosOp> ops = {
      Op(1, ChaosOpType::kWrite, 0, 10, false, 0, "p"),
      Op(2, ChaosOpType::kRead, 20, 30, true, 2, "p"),
      Op(3, ChaosOpType::kRead, 40, 50, true, 3, "p"),  // same payload, new version
  };
  EXPECT_TRUE(HasRule(CheckHistory(ops, "init"), "payload-version-unique"));
}

// ---------------------------------------------------------------------------
// Schedules: value semantics, serialization round-trip, template determinism.

FaultSchedule SampleSchedule() {
  FaultSchedule s;
  s.name = "sample";
  FaultEvent crash;
  crash.at = Duration::Millis(100);
  crash.action = FaultAction::kCrashRestart;
  crash.host = "rep-0";
  crash.duration = Duration::Millis(250);
  s.events.push_back(crash);
  FaultEvent phase;
  phase.at = Duration::Millis(150);
  phase.action = FaultAction::kCrashOnTrace;
  phase.host = "client-1";
  phase.trace_kind = TraceKind::kDecisionLogged;
  phase.duration = Duration::Millis(300);
  s.events.push_back(phase);
  FaultEvent part;
  part.at = Duration::Millis(200);
  part.action = FaultAction::kPartition;
  part.groups = {{"rep-0", "rep-1", "client-0"}, {"rep-2", "client-1"}};
  s.events.push_back(part);
  FaultEvent knobs;
  knobs.at = Duration::Millis(300);
  knobs.action = FaultAction::kLinkKnobs;
  knobs.p1 = 0.05;
  knobs.p2 = 0.125;
  knobs.p3 = 0.01;
  knobs.spike = Duration::Millis(75);
  s.events.push_back(knobs);
  FaultEvent store;
  store.at = Duration::Millis(400);
  store.action = FaultAction::kStoreFaults;
  store.host = "rep-2";
  store.p1 = 0.25;
  s.events.push_back(store);
  FaultEvent tear;
  tear.at = Duration::Millis(450);
  tear.action = FaultAction::kStoreTearNextFlush;
  tear.host = "rep-1";
  s.events.push_back(tear);
  FaultEvent heal;
  heal.at = Duration::Millis(500);
  heal.action = FaultAction::kHeal;
  s.events.push_back(heal);
  return s;
}

TEST(ChaosSchedule, SerializeParseRoundTrip) {
  const FaultSchedule original = SampleSchedule();
  const std::string text = original.Serialize();
  Result<FaultSchedule> parsed = FaultSchedule::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().name, original.name);
  ASSERT_EQ(parsed.value().events.size(), original.events.size());
  EXPECT_EQ(parsed.value().Serialize(), text);
  // Spot-check the lossiest fields survived.
  EXPECT_EQ(parsed.value().events[1].trace_kind, TraceKind::kDecisionLogged);
  EXPECT_EQ(parsed.value().events[2].groups, original.events[2].groups);
  EXPECT_DOUBLE_EQ(parsed.value().events[3].p2, 0.125);
}

TEST(ChaosSchedule, WithoutAndTruncated) {
  const FaultSchedule s = SampleSchedule();
  EXPECT_EQ(s.Without(2).events.size(), s.events.size() - 1);
  EXPECT_EQ(s.Without(2).events[2].action, s.events[3].action);
  EXPECT_EQ(s.Truncated(3).events.size(), 3u);
  EXPECT_EQ(s.Truncated(0).events.size(), 0u);
}

TEST(ChaosSchedule, TemplatesAreSeedDeterministic) {
  ScheduleTemplateParams params;
  params.rep_hosts = {"rep-0", "rep-1", "rep-2"};
  params.client_hosts = {"client-0", "client-1"};
  for (const std::string& name : ScheduleTemplateNames()) {
    const FaultSchedule a = MakeScheduleFromTemplate(name, 7, params);
    const FaultSchedule b = MakeScheduleFromTemplate(name, 7, params);
    EXPECT_EQ(a.Serialize(), b.Serialize()) << name;
    EXPECT_FALSE(a.events.empty()) << name;
    const FaultSchedule c = MakeScheduleFromTemplate(name, 8, params);
    EXPECT_NE(a.Serialize(), c.Serialize()) << name;
  }
}

// ---------------------------------------------------------------------------
// Churn schedules and the Nemesis that applies them.

TEST(ChaosChurn, AvailabilityMath) {
  FaultProfile p = ProfileForAvailability(0.9, Duration::Seconds(10));
  // mttf = 10s * 0.9 / 0.1 = 90s
  EXPECT_NEAR(p.mttf.ToSeconds(), 90.0, 0.01);
  EXPECT_EQ(p.mttr, Duration::Seconds(10));
}

TEST(ChaosChurn, CrashInstantsAreRunningSumsOfExpDraws) {
  const Duration mttf = Duration::Seconds(20);
  const Duration mttr = Duration::Seconds(5);
  const Duration horizon = Duration::Seconds(600);
  const FaultSchedule churn = MakeChurnSchedule({"flaky"}, mttf, mttr, horizon, 7);
  ASSERT_GT(churn.events.size(), 10u);
  Rng rng(7);
  Duration t;
  for (const FaultEvent& ev : churn.events) {
    t += Duration::Micros(
        static_cast<int64_t>(rng.NextExponential(static_cast<double>(mttf.ToMicros()))));
    const Duration down = Duration::Micros(
        static_cast<int64_t>(rng.NextExponential(static_cast<double>(mttr.ToMicros()))));
    EXPECT_EQ(ev.at, t);
    EXPECT_EQ(ev.duration, down);
    EXPECT_EQ(ev.action, FaultAction::kCrashRestart);
    EXPECT_EQ(ev.host, "flaky");
    t += down;
  }
  // The next draw lands at or past the horizon: no crash was dropped.
  t += Duration::Micros(
      static_cast<int64_t>(rng.NextExponential(static_cast<double>(mttf.ToMicros()))));
  EXPECT_GE(t, horizon);
}

TEST(ChaosChurn, ScheduleSurvivesSerializeParse) {
  const FaultSchedule churn = MakeChurnSchedule({"rep-0", "rep-1", "rep-2"},
                                                Duration::Millis(1500), Duration::Millis(300),
                                                Duration::Seconds(4), 999);
  ASSERT_FALSE(churn.events.empty());
  Result<FaultSchedule> parsed = FaultSchedule::Parse(churn.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().name, churn.name);
  ASSERT_EQ(parsed.value().events.size(), churn.events.size());
  for (size_t i = 0; i < churn.events.size(); ++i) {
    EXPECT_EQ(parsed.value().events[i].at, churn.events[i].at) << i;
    EXPECT_EQ(parsed.value().events[i].duration, churn.events[i].duration) << i;
    EXPECT_EQ(parsed.value().events[i].host, churn.events[i].host) << i;
    EXPECT_EQ(parsed.value().events[i].action, FaultAction::kCrashRestart) << i;
  }
  EXPECT_EQ(parsed.value().Serialize(), churn.Serialize());
}

// Applies `churn` to a lone host on a bare cluster and runs well past the
// horizon, so the last restart has landed.
const NemesisStats& RunChurn(Cluster* cluster, Nemesis* nemesis, Duration horizon) {
  nemesis->Deploy();
  cluster->sim().RunFor(horizon + Duration::Seconds(600));
  return nemesis->stats();
}

TEST(ChaosChurn, HostCyclesAndEndsUp) {
  Cluster cluster;
  Host* host = cluster.net().AddHost("flaky");
  const Duration horizon = Duration::Seconds(600);
  Nemesis nemesis(&cluster, MakeChurnSchedule({"flaky"}, Duration::Seconds(20),
                                              Duration::Seconds(5), horizon, 7));
  const NemesisStats& stats = RunChurn(&cluster, &nemesis, horizon);
  EXPECT_TRUE(host->up());
  EXPECT_GT(stats.crashes, 10u);
  // Steady-state availability 20/25 = 0.8: downtime should be ~20% of 600s.
  EXPECT_NEAR(stats.total_downtime.ToSeconds() / 600.0, 0.2, 0.1);
}

TEST(ChaosChurn, ApproximatesTargetAvailability) {
  Cluster cluster;
  cluster.net().AddHost("flaky");
  const FaultProfile p = ProfileForAvailability(0.95, Duration::Seconds(2));
  const Duration horizon = Duration::Seconds(3000);
  Nemesis nemesis(&cluster, MakeChurnSchedule({"flaky"}, p.mttf, p.mttr, horizon, 9));
  const NemesisStats& stats = RunChurn(&cluster, &nemesis, horizon);
  EXPECT_NEAR(stats.total_downtime.ToSeconds() / 3000.0, 0.05, 0.025);
}

TEST(ChaosNemesis, CrashOnTraceFiresAtMostOnceUnderReentrantRecord) {
  Cluster cluster;
  Host* host = cluster.net().AddHost("victim");
  FaultSchedule s;
  s.name = "one-shot";
  FaultEvent arm;
  arm.action = FaultAction::kCrashOnTrace;
  arm.host = "victim";
  arm.trace_kind = TraceKind::kCustom;
  arm.duration = Duration::Millis(50);
  s.events.push_back(arm);
  Nemesis nemesis(&cluster, s);
  nemesis.Deploy();
  cluster.sim().RunFor(Duration::Millis(1));  // arms the observer

  // Every restart of the victim records the targeted breadcrumb again from
  // inside Record(kHostRestarted), with the host up: only the one-shot
  // guard keeps the Nemesis from crashing it a second time.
  Tracer& trace = cluster.tracer();
  trace.AddObserver([&trace, host](const TraceEvent& ev) {
    if (ev.kind == TraceKind::kHostRestarted && ev.host == host->id()) {
      trace.Record(host->id(), TraceKind::kCustom, "again");
    }
  });
  trace.Record(host->id(), TraceKind::kCustom, "go");
  EXPECT_FALSE(host->up());
  cluster.sim().RunFor(Duration::Millis(100));
  trace.Record(host->id(), TraceKind::kCustom, "later");

  EXPECT_TRUE(host->up());
  EXPECT_EQ(nemesis.stats().phase_crashes, 1u);
  EXPECT_EQ(nemesis.stats().crashes, 1u);
  EXPECT_EQ(nemesis.stats().total_downtime, Duration::Millis(50));
  EXPECT_EQ(trace.CountOf(TraceKind::kHostCrashed), 1u);
}

// ---------------------------------------------------------------------------
// Runner: end-to-end properties. Specs are kept small; each run is a few
// dozen simulated seconds and a few milliseconds of wall time.

ChaosRunSpec SmallSpec(uint64_t seed, const std::string& tmpl) {
  ChaosRunSpec spec;
  spec.seed = seed;
  spec.schedule_template = tmpl;
  spec.suite = DefaultSuiteSpecs()[1];  // r2w2x3
  spec.clients = 2;
  spec.ops_per_client = 12;
  return spec;
}

TEST(ChaosRunner, ValidConfigPassesUnderEveryTemplate) {
  for (const std::string& tmpl : ScheduleTemplateNames()) {
    ChaosRunOutcome outcome = RunChaos(SmallSpec(11, tmpl));
    EXPECT_TRUE(outcome.check.ok())
        << tmpl << ":\n" << outcome.check.Report(outcome.schedule);
    EXPECT_TRUE(outcome.final_read_ok) << tmpl;
    EXPECT_GT(outcome.check.ok_writes + outcome.check.ok_reads, 0u) << tmpl;
    EXPECT_GT(outcome.nemesis_events_applied, 0u) << tmpl;
  }
}

TEST(ChaosRunner, RunsAreDeterministic) {
  const ChaosRunSpec spec = SmallSpec(5, "partitions");
  ChaosRunOutcome a = RunChaos(spec);
  ChaosRunOutcome b = RunChaos(spec);
  // Byte-identical artifacts: schedule, history (with sim timestamps),
  // checker report, and the full metrics snapshot.
  EXPECT_EQ(DumpArtifact(spec, a.schedule, a), DumpArtifact(spec, b.schedule, b));
}

TEST(ChaosRunner, PhaseCrashTemplateFiresTargetedCrashes) {
  bool fired = false;
  for (uint64_t seed = 1; seed <= 6 && !fired; ++seed) {
    ChaosRunSpec spec = SmallSpec(seed, "phase_crash");
    spec.write_fraction = 0.7;  // more commits, more trace breadcrumbs to hit
    ChaosRunOutcome outcome = RunChaos(spec);
    EXPECT_TRUE(outcome.check.ok())
        << "seed " << seed << ":\n" << outcome.check.Report(outcome.schedule);
    fired = outcome.nemesis_phase_crashes > 0;
  }
  // At least one seed must crash a host at the targeted protocol phase —
  // otherwise the template exercises nothing.
  EXPECT_TRUE(fired);
}

// The negative control (r + w <= V) must produce checker violations under a
// partition schedule, the minimizer must shrink the schedule while keeping
// it failing, and the dumped artifact must replay to the same verdict.
TEST(ChaosRunner, NegativeControlCaughtMinimizedAndReplayable) {
  ChaosRunSpec failing_spec;
  FaultSchedule failing_schedule;
  bool found = false;
  for (uint64_t seed = 1; seed <= 10 && !found; ++seed) {
    ChaosRunSpec spec;
    spec.seed = seed;
    spec.schedule_template = "partitions";
    spec.suite = NegativeControlSuite();
    ChaosRunOutcome outcome = RunChaos(spec);
    if (!outcome.check.ok()) {
      failing_spec = spec;
      failing_schedule = outcome.schedule;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "broken quorum config never violated under partitions";

  FaultSchedule minimized = MinimizeSchedule(failing_spec, failing_schedule);
  EXPECT_LE(minimized.events.size(), failing_schedule.events.size());
  ChaosRunOutcome still_failing = RunChaosWithSchedule(failing_spec, minimized);
  ASSERT_FALSE(still_failing.check.ok());

  // Dump -> parse -> replay reproduces the identical counterexample.
  const std::string artifact = DumpArtifact(failing_spec, minimized, still_failing);
  Result<ChaosReplayFile> replay = ParseArtifact(artifact);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay.value().spec.seed, failing_spec.seed);
  EXPECT_EQ(replay.value().spec.suite.name, failing_spec.suite.name);
  EXPECT_EQ(replay.value().spec.suite.votes, failing_spec.suite.votes);
  EXPECT_TRUE(replay.value().spec.suite.unsafe);
  EXPECT_EQ(replay.value().schedule.Serialize(), minimized.Serialize());
  ChaosRunOutcome replayed = RunChaosWithSchedule(replay.value().spec, replay.value().schedule);
  EXPECT_EQ(replayed.check.Report(minimized), still_failing.check.Report(minimized));
}

// Rotating probing policies mid-run is invisible to the consistency spec:
// strategies pick *which* current representatives serve a quorum, never the
// quorum arithmetic. Rotation runs stay deterministic and the rotate flag
// survives the artifact round trip (old artifacts without it replay with
// rotation off).
TEST(ChaosRunner, StrategyRotationHoldsConsistencyAndReplays) {
  ChaosRunSpec spec = SmallSpec(5, "crash_churn");
  spec.rotate_strategies = true;
  ChaosRunOutcome outcome = RunChaos(spec);
  EXPECT_TRUE(outcome.check.ok()) << outcome.check.Report(outcome.schedule);
  EXPECT_TRUE(outcome.final_read_ok);
  EXPECT_GT(outcome.strategy_rotations, 0u);

  ChaosRunOutcome again = RunChaos(spec);
  EXPECT_EQ(again.check.Report(again.schedule), outcome.check.Report(outcome.schedule));
  EXPECT_EQ(again.strategy_rotations, outcome.strategy_rotations);

  const std::string artifact = DumpArtifact(spec, outcome.schedule, outcome);
  Result<ChaosReplayFile> replay = ParseArtifact(artifact);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(replay.value().spec.rotate_strategies);
}

TEST(ChaosRunner, HistoryRecorderTracksIntervals) {
  Simulator sim(1);
  HistoryRecorder recorder(&sim);
  const uint64_t id = recorder.Invoke(0, "s", ChaosOpType::kWrite, "v");
  sim.Schedule(Duration::Millis(5), [] {});
  sim.Run();
  recorder.Complete(id, Status::Ok(), 2);
  ASSERT_EQ(recorder.ops().size(), 1u);
  const ChaosOp& op = recorder.ops()[0];
  EXPECT_TRUE(op.ok);
  EXPECT_EQ(op.version, 2u);
  EXPECT_EQ(op.value, "v");
  EXPECT_EQ(op.invoke.ToMicros(), 0);
  EXPECT_EQ(op.response.ToMicros(), 5000);
}

}  // namespace
}  // namespace wvote
