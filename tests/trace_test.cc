// Breadcrumbs on the tracer: ring semantics and end-to-end event capture.

#include "src/trace/span.h"

#include <gtest/gtest.h>

#include "src/core/cluster.h"

namespace wvote {
namespace {

// Breadcrumb tests never enable spans; keep the span ring small.
constexpr size_t kSpanCapacity = 4;

TEST(BreadcrumbTest, RecordsInOrder) {
  Simulator sim(1);
  Tracer trace(&sim, kSpanCapacity, /*breadcrumb_capacity=*/16);
  trace.Record(1, TraceKind::kCustom, "first");
  sim.RunFor(Duration::Millis(5));
  trace.Record(2, TraceKind::kCustom, "second");
  std::vector<TraceEvent> events = trace.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].detail, "first");
  EXPECT_EQ(events[1].detail, "second");
  EXPECT_LT(events[0].at, events[1].at);
}

TEST(BreadcrumbTest, RingKeepsNewest) {
  Simulator sim(1);
  Tracer trace(&sim, kSpanCapacity, /*breadcrumb_capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    trace.Record(0, TraceKind::kCustom, std::to_string(i));
  }
  std::vector<TraceEvent> events = trace.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].detail, "6");
  EXPECT_EQ(events[3].detail, "9");
  EXPECT_EQ(trace.total_recorded(), 10u);
}

TEST(BreadcrumbTest, CountsPerKindSurviveRingEviction) {
  Simulator sim(1);
  Tracer trace(&sim, kSpanCapacity, /*breadcrumb_capacity=*/2);
  for (int i = 0; i < 7; ++i) {
    trace.Record(0, TraceKind::kHostCrashed, "");
  }
  EXPECT_EQ(trace.CountOf(TraceKind::kHostCrashed), 7u);
}

TEST(BreadcrumbTest, FiltersByHostAndKind) {
  Simulator sim(1);
  Tracer trace(&sim, kSpanCapacity, /*breadcrumb_capacity=*/16);
  trace.Record(1, TraceKind::kHostCrashed, "a");
  trace.Record(2, TraceKind::kHostCrashed, "b");
  trace.Record(1, TraceKind::kHostRestarted, "a");
  EXPECT_EQ(trace.ForHost(1).size(), 2u);
  EXPECT_EQ(trace.OfKind(TraceKind::kHostCrashed).size(), 2u);
}

TEST(BreadcrumbTest, ClearResets) {
  Simulator sim(1);
  Tracer trace(&sim, kSpanCapacity, /*breadcrumb_capacity=*/4);
  trace.Record(0, TraceKind::kCustom, "x");
  trace.Clear();
  EXPECT_TRUE(trace.Snapshot().empty());
  EXPECT_EQ(trace.total_recorded(), 0u);
  EXPECT_EQ(trace.CountOf(TraceKind::kCustom), 0u);
}

TEST(BreadcrumbTest, DumpMentionsKindNames) {
  Simulator sim(1);
  Tracer trace(&sim, kSpanCapacity, /*breadcrumb_capacity=*/4);
  trace.Record(3, TraceKind::kTxnCommitted, "txn(1.1@0)");
  const std::string dump = trace.Dump();
  EXPECT_NE(dump.find("txn-committed"), std::string::npos);
  EXPECT_NE(dump.find("txn(1.1@0)"), std::string::npos);
}

// The flight recorder embeds these lines verbatim, so their format is part
// of every chaos artifact: Dump is TailLines, newline-terminated.
TEST(BreadcrumbTest, TailLinesAreDumpLinesWithoutNewlines) {
  Simulator sim(1);
  Tracer trace(&sim, kSpanCapacity, /*breadcrumb_capacity=*/4);
  for (int i = 0; i < 6; ++i) {
    sim.RunFor(Duration::Micros(1500));
    trace.Record(i, TraceKind::kTxnCommitted, "txn(" + std::to_string(i) + ")");
  }
  const std::vector<std::string> tail = trace.TailLines(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0], "     7.500ms host=4   txn-committed      txn(4)");
  EXPECT_EQ(tail[1], "     9.000ms host=5   txn-committed      txn(5)");
  EXPECT_EQ(trace.Dump(2), tail[0] + "\n" + tail[1] + "\n");
  EXPECT_EQ(trace.TailLines().size(), 4u);  // only what the ring retains
}

TEST(BreadcrumbTest, ObserversRunSynchronouslyAndMayReenter) {
  Simulator sim(1);
  Tracer trace(&sim, kSpanCapacity, /*breadcrumb_capacity=*/16);
  std::vector<std::string> seen;
  trace.AddObserver([&](const TraceEvent& ev) {
    seen.push_back(ev.detail);
    // Re-entrant Record from inside an observer must not corrupt the event
    // being observed (the chaos nemesis crashes hosts from observers, which
    // records kHostCrashed while the triggering event is still in flight).
    if (ev.kind == TraceKind::kCustom && ev.detail == "trigger") {
      trace.Record(9, TraceKind::kHostCrashed, "from-observer");
    }
  });
  trace.Record(1, TraceKind::kCustom, "trigger");
  EXPECT_EQ(seen, (std::vector<std::string>{"trigger", "from-observer"}));
  EXPECT_EQ(trace.CountOf(TraceKind::kHostCrashed), 1u);
}

TEST(TraceIntegrationTest, ClusterCapturesProtocolEvents) {
  Cluster cluster;
  for (int i = 0; i < 3; ++i) {
    cluster.AddRepresentative("rep-" + std::to_string(i));
  }
  SuiteConfig config = SuiteConfig::MakeUniform("t", {"rep-0", "rep-1", "rep-2"}, 2, 2);
  ASSERT_TRUE(cluster.CreateSuite(config, "x").ok());
  SuiteClient* client = cluster.AddClient("client", config);

  ASSERT_TRUE(cluster.RunTask(client->WriteOnce("y")).ok());
  cluster.sim().RunFor(Duration::Seconds(1));  // drain the async phase 2
  // The write prepared and committed at two representatives.
  EXPECT_EQ(cluster.tracer().CountOf(TraceKind::kTxnPrepared), 2u);
  EXPECT_EQ(cluster.tracer().CountOf(TraceKind::kTxnCommitted), 2u);

  // Crash/restart shows up attributed to the right host.
  Host* rep2 = cluster.net().FindHost("rep-2");
  rep2->Crash();
  rep2->Restart();
  EXPECT_EQ(cluster.tracer().CountOf(TraceKind::kHostCrashed), 1u);
  EXPECT_EQ(cluster.tracer().ForHost(rep2->id()).size(), 3u);  // crash+restart+recovery

  // A failed quorum is recorded.
  cluster.net().FindHost("rep-0")->Crash();
  cluster.net().FindHost("rep-1")->Crash();
  SuiteClientOptions fast;
  fast.probe_timeout = Duration::Millis(100);
  SuiteClient* impatient = cluster.AddClient("impatient", config, fast);
  (void)cluster.RunTask(impatient->ReadOnce(/*retries=*/1));
  EXPECT_GE(cluster.tracer().CountOf(TraceKind::kQuorumFailed), 1u);
  EXPECT_GE(cluster.tracer().CountOf(TraceKind::kMessageDropped), 1u);
}

TEST(TraceIntegrationTest, ReconfigurationIsTraced) {
  Cluster cluster;
  for (int i = 0; i < 3; ++i) {
    cluster.AddRepresentative("rep-" + std::to_string(i));
  }
  SuiteConfig config = SuiteConfig::MakeUniform("t", {"rep-0", "rep-1", "rep-2"}, 2, 2);
  ASSERT_TRUE(cluster.CreateSuite(config, "x").ok());
  SuiteClient* admin = cluster.AddClient("admin", config);
  ASSERT_TRUE(cluster
                  .RunTask(admin->Reconfigure(
                      SuiteConfig::MakeUniform("t", {"rep-0", "rep-1", "rep-2"}, 1, 3)))
                  .ok());
  EXPECT_EQ(cluster.tracer().CountOf(TraceKind::kReconfigured), 1u);
}

}  // namespace
}  // namespace wvote
