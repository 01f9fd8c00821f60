// Causal tracing: span lifecycle, tree structure across retries, slow-op
// dumps, and the Chrome-trace JSON export.

#include "src/trace/span.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/cluster.h"

namespace wvote {
namespace {

TEST(TracerTest, DisabledTracerIsInertAndFree) {
  Simulator sim(1);
  Tracer tracer(&sim);
  TraceContext root = tracer.StartRoot(0, "client.read");
  EXPECT_FALSE(root.valid());
  TraceContext child = tracer.StartChild(root, 0, "phase.gather");
  EXPECT_FALSE(child.valid());
  tracer.Annotate(root, "ignored");
  tracer.End(root);
  EXPECT_EQ(tracer.spans_started(), 0u);
  EXPECT_TRUE(tracer.Spans().empty());
}

TEST(TracerTest, RecordsTreeWithSimulatedDurations) {
  Simulator sim(1);
  Tracer tracer(&sim);
  tracer.Enable(true);

  TraceContext root = tracer.StartRoot(7, "client.write");
  ASSERT_TRUE(root.valid());
  sim.RunFor(Duration::Millis(5));
  TraceContext child = tracer.StartChild(root, 3, "phase.prepare");
  tracer.Annotate(child, "writers=2");
  sim.RunFor(Duration::Millis(10));
  tracer.EndWith(child, "all voted yes");
  tracer.End(root);

  std::vector<Span> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 2u);
  const Span& prepare = spans[0];  // completed first
  const Span& write = spans[1];
  EXPECT_EQ(prepare.name, "phase.prepare");
  EXPECT_EQ(prepare.parent_id, write.span_id);
  EXPECT_EQ(prepare.trace_id, write.trace_id);
  EXPECT_EQ(prepare.host, 3);
  EXPECT_EQ(prepare.duration().ToMicros(), 10000);
  EXPECT_EQ(write.duration().ToMicros(), 15000);
  EXPECT_NE(prepare.annotation.find("writers=2"), std::string::npos);
  EXPECT_NE(prepare.annotation.find("all voted yes"), std::string::npos);
  EXPECT_EQ(tracer.spans_completed(), 2u);
}

TEST(TracerTest, EndIsIdempotentAndChildOfInvalidParentIsInert) {
  Simulator sim(1);
  Tracer tracer(&sim);
  tracer.Enable(true);
  TraceContext root = tracer.StartRoot(0, "client.read");
  tracer.EndWith(root, "first");
  tracer.EndWith(root, "second");  // must not double-complete
  EXPECT_EQ(tracer.spans_completed(), 1u);
  // A request that entered through an untraced path carries an invalid
  // context; everything downstream must stay silent.
  TraceContext orphan = tracer.StartChild(TraceContext(), 0, "phase.gather");
  EXPECT_FALSE(orphan.valid());
  EXPECT_EQ(tracer.spans_started(), 1u);
}

TEST(TracerTest, CompletedRingIsBounded) {
  Simulator sim(1);
  Tracer tracer(&sim, /*capacity=*/4);
  tracer.Enable(true);
  for (int i = 0; i < 10; ++i) {
    tracer.End(tracer.StartRoot(0, "client.read"));
  }
  EXPECT_EQ(tracer.spans_completed(), 10u);
  EXPECT_EQ(tracer.Spans().size(), 4u);  // ring keeps the newest
}

TEST(TracerTest, SlowRootDumpsItsTreeAsABreadcrumb) {
  Simulator sim(1);
  Tracer tracer(&sim, 65536, /*breadcrumb_capacity=*/16);
  tracer.Enable(true);
  tracer.SetSlowOpThreshold(Duration::Millis(10));

  // Fast op: below threshold, no slow-op event.
  TraceContext fast = tracer.StartRoot(0, "client.read");
  sim.RunFor(Duration::Millis(1));
  tracer.End(fast);
  EXPECT_EQ(tracer.CountOf(TraceKind::kSlowOp), 0u);

  TraceContext slow = tracer.StartRoot(0, "client.write");
  TraceContext phase = tracer.StartChild(slow, 1, "phase.prepare");
  sim.RunFor(Duration::Millis(50));
  tracer.End(phase);
  tracer.End(slow);
  std::vector<TraceEvent> events = tracer.OfKind(TraceKind::kSlowOp);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_NE(events[0].detail.find("client.write"), std::string::npos);
  EXPECT_NE(events[0].detail.find("phase.prepare"), std::string::npos);
}

TEST(TracerTest, DumpTreeIndentsChildren) {
  Simulator sim(1);
  Tracer tracer(&sim);
  tracer.Enable(true);
  TraceContext root = tracer.StartRoot(0, "client.write");
  TraceContext child = tracer.StartChild(root, 0, "phase.gather");
  tracer.End(child);
  tracer.End(root);
  const std::string tree = tracer.DumpTree(root.trace_id);
  const size_t root_pos = tree.find("client.write");
  const size_t child_pos = tree.find("phase.gather");
  ASSERT_NE(root_pos, std::string::npos);
  ASSERT_NE(child_pos, std::string::npos);
  EXPECT_GT(child_pos, root_pos);
}

// ---------------------------------------------------------------------------
// A minimal JSON parser: enough grammar to verify the Chrome-trace export is
// well-formed (objects, arrays, strings with escapes, numbers, literals).

class MiniJsonParser {
 public:
  explicit MiniJsonParser(const std::string& text) : s_(text) {}

  bool Parse() {
    i_ = 0;
    SkipWs();
    if (!ParseValue()) {
      return false;
    }
    SkipWs();
    return i_ == s_.size();
  }

 private:
  void SkipWs() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\n' ||
                              s_[i_] == '\r')) {
      ++i_;
    }
  }

  bool Literal(const char* lit) {
    const size_t n = std::string(lit).size();
    if (s_.compare(i_, n, lit) != 0) {
      return false;
    }
    i_ += n;
    return true;
  }

  bool ParseString() {
    if (i_ >= s_.size() || s_[i_] != '"') {
      return false;
    }
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') {
        ++i_;  // accept any escaped character
        if (i_ >= s_.size()) {
          return false;
        }
      }
      ++i_;
    }
    if (i_ >= s_.size()) {
      return false;
    }
    ++i_;  // closing quote
    return true;
  }

  bool ParseNumber() {
    const size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') {
      ++i_;
    }
    while (i_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
                              s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
                              s_[i_] == '+' || s_[i_] == '-')) {
      ++i_;
    }
    return i_ > start;
  }

  bool ParseObject() {
    ++i_;  // '{'
    SkipWs();
    if (i_ < s_.size() && s_[i_] == '}') {
      ++i_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!ParseString()) {
        return false;
      }
      SkipWs();
      if (i_ >= s_.size() || s_[i_] != ':') {
        return false;
      }
      ++i_;
      SkipWs();
      if (!ParseValue()) {
        return false;
      }
      SkipWs();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      break;
    }
    if (i_ >= s_.size() || s_[i_] != '}') {
      return false;
    }
    ++i_;
    return true;
  }

  bool ParseArray() {
    ++i_;  // '['
    SkipWs();
    if (i_ < s_.size() && s_[i_] == ']') {
      ++i_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!ParseValue()) {
        return false;
      }
      SkipWs();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      break;
    }
    if (i_ >= s_.size() || s_[i_] != ']') {
      return false;
    }
    ++i_;
    return true;
  }

  bool ParseValue() {
    if (i_ >= s_.size()) {
      return false;
    }
    switch (s_[i_]) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"':
        return ParseString();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return ParseNumber();
    }
  }

  const std::string& s_;
  size_t i_ = 0;
};

TEST(TracerTest, ChromeExportRoundTripsThroughAParser) {
  Simulator sim(1);
  Tracer tracer(&sim);
  tracer.Enable(true);
  TraceContext root = tracer.StartRoot(0, "client.write");
  TraceContext child = tracer.StartChild(root, 1, "phase.prepare");
  // Annotations end up in "args"; make sure quoting survives the export.
  tracer.Annotate(child, "note with \"quotes\" and \\backslash");
  sim.RunFor(Duration::Millis(3));
  tracer.End(child);
  tracer.End(root);

  const std::string json = tracer.ExportChromeTrace();
  EXPECT_TRUE(MiniJsonParser(json).Parse()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("client.write"), std::string::npos);
  EXPECT_NE(json.find("phase.prepare"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: a crashed participant forces the client's first attempt to
// abort; the retry succeeds. Both attempts must hang off ONE root span.

TEST(TracerIntegrationTest, CrashedParticipantRetryYieldsOneRootWithBothAttempts) {
  Cluster cluster;
  cluster.tracer().Enable(true);
  cluster.AddRepresentative("rep-a");
  cluster.AddRepresentative("rep-b");
  // w = 2 of 2: every write needs both representatives, so a crashed rep-b
  // guarantees the first attempt fails at prepare (vote granted, prepare
  // times out -> Aborted -> retryable).
  SuiteConfig config = SuiteConfig::MakeUniform("t", {"rep-a", "rep-b"}, /*r=*/1, /*w=*/2);
  ASSERT_TRUE(cluster.CreateSuite(config, "genesis").ok());
  SuiteClient* client = cluster.AddClient("client", config);

  // Crash rep-b after its version probe reply (~10ms into the write, with
  // 5ms links) but before the PrepareReq lands; restart it well before the
  // 5s prepare timeout expires so the retry finds a full quorum.
  cluster.sim().Schedule(Duration::Millis(12),
                         [&cluster] { cluster.net().FindHost("rep-b")->Crash(); });
  cluster.sim().Schedule(Duration::Seconds(1),
                         [&cluster] { cluster.net().FindHost("rep-b")->Restart(); });
  Status st = cluster.RunTask(client->WriteOnce("second try"));
  ASSERT_TRUE(st.ok()) << st.ToString();
  cluster.sim().RunFor(Duration::Seconds(2));  // drain background phase 2

  std::vector<Span> spans = cluster.tracer().Spans();
  std::vector<const Span*> roots;
  std::map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent_id == 0 && s.name == "client.write") {
      roots.push_back(&s);
    }
    children[s.parent_id].push_back(&s);
  }
  ASSERT_EQ(roots.size(), 1u) << "retries must not open new roots";
  const Span* root = roots[0];
  EXPECT_NE(root->annotation.find("ok attempts="), std::string::npos)
      << root->annotation;

  int attempts = 0;
  for (const Span* child : children[root->span_id]) {
    EXPECT_EQ(child->name, "client.txn");
    EXPECT_EQ(child->trace_id, root->trace_id);
    ++attempts;
  }
  EXPECT_GE(attempts, 2) << "both the aborted and the committed attempt must "
                            "be children of the one root";

  // The export of the whole run stays parseable too.
  EXPECT_TRUE(MiniJsonParser(cluster.tracer().ExportChromeTrace()).Parse());
}

TEST(TracerIntegrationTest, PhaseHistogramsFeedTheMetricsRegistry) {
  Cluster cluster;
  cluster.tracer().Enable(true);
  for (const char* name : {"rep-a", "rep-b", "rep-c"}) {
    cluster.AddRepresentative(name);
  }
  SuiteConfig config =
      SuiteConfig::MakeUniform("t", {"rep-a", "rep-b", "rep-c"}, /*r=*/2, /*w=*/2);
  ASSERT_TRUE(cluster.CreateSuite(config, "x").ok());
  SuiteClient* client = cluster.AddClient("client", config);
  ASSERT_TRUE(cluster.RunTask(client->WriteOnce("y")).ok());
  ASSERT_TRUE(cluster.RunTask(client->ReadOnce()).ok());
  cluster.sim().RunFor(Duration::Seconds(1));

  const std::string text = cluster.metrics().ExportText();
  for (const char* metric : {"trace.phase.gather", "trace.phase.prepare",
                             "trace.phase.disk", "trace.op.read", "trace.op.write",
                             "trace.tracer.spans_completed"}) {
    EXPECT_NE(text.find(metric), std::string::npos) << metric << "\n" << text;
  }
}

}  // namespace
}  // namespace wvote
