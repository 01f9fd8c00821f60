// The protocol's one event stream: breadcrumbs and causal span trees.
//
// A Tracer is attached to a Network and shared by every component on it
// (hosts, RPC, storage, txn, suite clients reach it through
// Network::tracer()). It carries two kinds of event on one simulated clock:
//
// Breadcrumbs are instant events — message drops, crashes and recoveries,
// prepares/commits/aborts, quorum failures, SLO transitions — kept in a
// bounded ring (default 4096) with per-kind counts. They are always
// recorded: recording is two appends and never allocates after
// construction. They answer "what was happening on rep-2 when the commit
// stalled?", let tests assert on protocol-level behavior rather than only
// on end state, and drive the chaos nemesis's phase-targeted crashes
// through synchronous observers.
//
// Spans add *causal* structure and are opt-in (Enable): every client
// Read/Write opens a root span carrying a unique trace id, and that id
// rides the RPC envelope so the coordinator, participants, lock waits,
// stable-store flushes, and background phase-2 work all record child
// spans. A span has begin/end timestamps (simulated time) plus a free-form
// annotation ("votes=2/2 rounds=1", "batch=7 leader", ...), so a single
// trace answers "why did this write take 121 ms" with per-phase attribution
// instead of aggregate counters.
//
// Span cost model: the tracer ships with spans disabled. Every Start*
// checks `enabled_` first and the arguments are views/integers, so disabled
// spans cost one predictable branch per call site and never allocate.
// Enabled spans cost one map insert at start and one ring write at end;
// completed spans recycle a bounded ring (default 64Ki spans).
//
// Well-known span names (phase.* feed same-named trace.phase.* histograms
// in the MetricsRegistry; client.read/client.write feed trace.op.*):
//   client.read / client.write    root, one per client op (incl. retries)
//   client.txn                    one attempt: Begin..Commit/Abort
//   phase.gather                  version probes until quorum (votes/rounds)
//   phase.fetch                   read-path data fetch from the best rep
//   phase.prepare                 phase 1: PrepareReq fan-out
//   phase.disk                    stable-store write (group-commit batch id)
//   phase.commit_ack              phase 2 as seen by the client-facing path
//   phase.lock_wait               parked in the lock manager (key, mode)
//   phase2.background             async phase-2 fan-out after the ack
//   phase2.retrier                per-participant commit retry loop
//   rpc.<Req> / handle.<Req>      client / server side of one RPC
//
// Export: ExportChromeTrace() emits Chrome-trace-event JSON ("X" complete
// events for spans only; pid = host, tid = trace id) loadable in
// chrome://tracing or Perfetto. SetSlowOpThreshold() records the full tree
// of any root span exceeding a threshold as a kSlowOp breadcrumb.

#ifndef WVOTE_SRC_TRACE_SPAN_H_
#define WVOTE_SRC_TRACE_SPAN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/time.h"
#include "src/net/message.h"
#include "src/obs/metrics.h"
#include "src/sim/simulator.h"

namespace wvote {

enum class TraceKind : uint8_t {
  kMessageDropped,   // network drop (reason in detail)
  kHostCrashed,
  kHostRestarted,
  kTxnPrepared,      // participant voted yes
  kTxnCommitted,     // participant applied a commit
  kTxnAborted,       // participant aborted / released
  kRecoveryStarted,  // participant replaying its log
  kInDoubtResolved,  // decision inquiry answered
  kQuorumFailed,     // client could not gather enough votes
  kRefreshInstalled, // stale representative brought current
  kReconfigured,     // new prefix installed
  kPhase2Completed,  // background phase-2 fanout / retrier converged (txn in detail)
  kDecisionLogged,   // coordinator durably logged commit, phase 2 not yet sent
  kSlowOp,           // root span exceeded the slow-op threshold (tree in detail)
  kSloBreach,        // an SLO rule entered breach (rule + value in detail)
  kSloRecovered,     // an SLO rule recovered after its hysteresis window
  kCustom,
  kNumKinds,  // sentinel — keep last, never record
};

inline constexpr size_t kNumTraceKinds = static_cast<size_t>(TraceKind::kNumKinds);

const char* TraceKindName(TraceKind kind);

// One breadcrumb: an instant event on the stream.
struct TraceEvent {
  TimePoint at;
  HostId host = kInvalidHost;
  TraceKind kind = TraceKind::kCustom;
  std::string detail;
};

// The piece of a trace that travels with a request: which trace this work
// belongs to and which span is the causal parent. Invalid (trace_id == 0)
// contexts — from a disabled tracer or an untraced entry point — make every
// downstream tracing call a no-op, so call sites never test for tracing.
//
// User-declared constructors on purpose: TraceContext is passed by value
// into coroutines, and braced aggregate prvalues crossing a coroutine
// boundary miscompile under GCC 12 (rule 1 in src/sim/task.h).
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;

  TraceContext() {}
  TraceContext(uint64_t trace, uint64_t span) : trace_id(trace), span_id(span) {}

  bool valid() const { return trace_id != 0; }
};

struct Span {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 for roots
  HostId host = kInvalidHost;
  std::string name;
  TimePoint begin;
  TimePoint end;
  bool open = false;  // still running when snapshotted
  std::string annotation;

  Duration duration() const { return end - begin; }
};

class Tracer {
 public:
  explicit Tracer(Simulator* sim, size_t span_capacity = 65536,
                  size_t breadcrumb_capacity = 4096);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // --- Breadcrumbs (always recorded) ---

  void Record(HostId host, TraceKind kind, std::string detail);

  // Observers run synchronously inside Record(), after the breadcrumb is in
  // the ring. The chaos nemesis uses this for phase-targeted fault injection
  // (crash a host the instant it records a protocol breadcrumb). Observers
  // may themselves cause recording (e.g. Crash -> kHostCrashed) — they are
  // re-entered for those breadcrumbs and must guard against recursion.
  // Observers cannot be removed; register once per run.
  void AddObserver(std::function<void(const TraceEvent&)> observer);

  // Breadcrumbs in chronological order (oldest retained first).
  std::vector<TraceEvent> Snapshot() const;
  std::vector<TraceEvent> ForHost(HostId host) const;
  std::vector<TraceEvent> OfKind(TraceKind kind) const;
  uint64_t CountOf(TraceKind kind) const;

  uint64_t total_recorded() const { return total_recorded_; }

  // The most recent `max_lines` breadcrumbs, one human-readable line each
  // (no trailing newline); Dump() joins them newline-terminated.
  std::vector<std::string> TailLines(size_t max_lines = 50) const;
  std::string Dump(size_t max_lines = 50) const;

  // --- Spans (opt-in) ---

  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Starts a root span (invalid context when disabled) / a child span
  // (no-op when the parent is invalid). Names should be string literals or
  // otherwise outlive the call; they are copied only on the enabled path.
  TraceContext StartRoot(HostId host, std::string_view name);
  TraceContext StartChild(const TraceContext& parent, HostId host, std::string_view name);

  // Appends `note` to the open span's annotation ("; "-separated).
  void Annotate(const TraceContext& ctx, std::string_view note);

  void End(const TraceContext& ctx);
  void EndWith(const TraceContext& ctx, std::string_view note);

  // Creates the trace.phase.* / trace.op.* histograms and trace.tracer.*
  // counters in `metrics`; subsequent span ends feed them by span name.
  // Breadcrumbs register nothing.
  void RegisterMetrics(MetricsRegistry* metrics);

  // Any root span whose duration reaches `threshold` records its full tree
  // as a kSlowOp breadcrumb. Zero (the default) turns this off.
  void SetSlowOpThreshold(Duration threshold) { slow_threshold_ = threshold; }

  // Used by exports to print "rep-a" instead of a bare host id.
  void SetHostNamer(std::function<std::string(HostId)> namer);

  // Completed spans (ring order) followed by still-open spans (marked
  // open, end = now), both filtered/whole-trace variants.
  std::vector<Span> Spans() const;
  std::vector<Span> SpansOf(uint64_t trace_id) const;

  uint64_t spans_started() const { return spans_started_; }
  uint64_t spans_completed() const { return spans_completed_; }

  // Indented tree of one trace, for slow-op breadcrumbs and debugging.
  std::string DumpTree(uint64_t trace_id) const;

  // Chrome-trace-event JSON: {"traceEvents":[...]} with one "X" event per
  // span and process_name metadata per host. Loadable in chrome://tracing.
  std::string ExportChromeTrace(int pid_base = 0) const;

  // Appends this tracer's span events (comma-separated, honoring *first) to
  // an in-progress traceEvents array; `tag` prefixes process names so
  // several clusters/scenarios can share one file. Returns the largest pid
  // used.
  int AppendChromeEvents(std::string* out, bool* first, int pid_base,
                         std::string_view tag) const;

  // Empties both rings and zeroes their counts.
  void Clear();

 private:
  void Complete(Span span);
  std::string HostName(HostId host) const;
  void AppendChromeEvent(const Span& span, int pid_base, std::string_view tag,
                         std::string* out, bool* first) const;

  Simulator* sim_;

  std::vector<TraceEvent> crumbs_;
  size_t next_crumb_ = 0;
  uint64_t total_recorded_ = 0;
  std::vector<std::function<void(const TraceEvent&)>> observers_;
  uint64_t counts_[kNumTraceKinds] = {};
  static_assert(kNumTraceKinds <= 64,
                "TraceKind grew suspiciously large — audit counts_ sizing");

  bool enabled_ = false;
  uint64_t next_id_ = 1;

  std::vector<Span> ring_;
  size_t next_slot_ = 0;
  uint64_t spans_started_ = 0;
  uint64_t spans_completed_ = 0;
  uint64_t slow_ops_ = 0;
  std::unordered_map<uint64_t, Span> open_;

  MetricsRegistry* metrics_ = nullptr;
  std::unordered_map<std::string, LatencyHistogram*> hist_by_name_;

  Duration slow_threshold_ = Duration::Zero();

  std::function<std::string(HostId)> host_namer_;
};

}  // namespace wvote

#endif  // WVOTE_SRC_TRACE_SPAN_H_
