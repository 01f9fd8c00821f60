// Typed request/response RPC over the simulated network.
//
// One RpcEndpoint claims a host's inbox. Services register a coroutine
// handler per request type (dispatch is by typeid of the payload struct);
// clients issue Call<Req, Resp>() and await a Result<Resp> that resolves to
// the response or to a TIMEOUT / ABORTED status.
//
// Failure semantics mirror a datagram network with volatile servers:
//   * lost request or lost reply -> client timeout;
//   * server crash mid-handler  -> no reply is sent -> client timeout;
//   * client crash              -> all outstanding calls resolve ABORTED
//     (their sessions are being torn down anyway).
//
// CallWithRetry layers bounded retransmission on top for idempotent
// requests (version-number inquiries and other reads).

#ifndef WVOTE_SRC_RPC_RPC_H_
#define WVOTE_SRC_RPC_RPC_H_

#include <any>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <typeindex>
#include <utility>

#include "src/common/backoff.h"
#include "src/common/status.h"
#include "src/net/network.h"
#include "src/sim/future.h"
#include "src/sim/task.h"

namespace wvote {

// Per-peer health hook the endpoint feeds and consults. The concrete
// implementation (core's HealthTracker) lives above this layer; the abstract
// interface keeps src/rpc free of a dependency on src/core while still
// letting the txn layer reach the same signal through the endpoint it
// already holds. All methods must be pure bookkeeping on the simulated
// clock: no scheduling, no randomness — health recording runs on every call
// completion, including in runs whose event schedules are pinned bit-exact.
class PeerHealth {
 public:
  virtual ~PeerHealth() = default;

  // One completed call attempt against `peer`: the elapsed wait and whether
  // a reply arrived (transport-level — a reply carrying an application error
  // still proves the peer alive). Aborts from the caller's own crash are
  // never reported; they say nothing about the peer.
  virtual void OnRpcOutcome(HostId peer, Duration elapsed, bool ok) = 0;

  // Quantile-adaptive timeout for one call to `peer`, clamped to the
  // caller's configured `fallback`; implementations may return a fail-fast
  // floor while the peer's circuit breaker is open.
  virtual Duration TimeoutFor(HostId peer, Duration fallback) = 0;
};

// Wire-size attribution: messages that carry bulk data (file contents)
// implement ApproxBytes(); everything else is accounted a small constant.
template <typename T>
size_t ApproxWireSize(const T& value) {
  if constexpr (requires { value.ApproxBytes(); }) {
    return value.ApproxBytes();
  } else {
    return 64;
  }
}

// Span naming: request structs that declare `static constexpr const char*
// kRpcName` get "rpc.<Name>" / "handle.<Name>" spans; the rest fall back to
// a generic label.
template <typename T>
constexpr const char* RpcMethodName() {
  if constexpr (requires { T::kRpcName; }) {
    return T::kRpcName;
  } else {
    return "request";
  }
}

// Starts a child span for one side of an RPC, allocating the name only when
// the span will actually be recorded (disabled tracing stays one branch).
inline TraceContext StartRpcSpan(Tracer* tracer, const TraceContext& parent,
                                 HostId host, const char* prefix, const char* method) {
  if (tracer == nullptr || !tracer->enabled() || !parent.valid()) {
    return TraceContext();
  }
  return tracer->StartChild(parent, host, std::string(prefix) + method);
}

struct RpcStats {
  uint64_t calls_started = 0;
  uint64_t calls_ok = 0;
  uint64_t calls_timeout = 0;
  uint64_t calls_aborted = 0;
  uint64_t requests_handled = 0;
  uint64_t hedges_sent = 0;  // backup probes actually fired by CallHedged
  uint64_t hedge_wins = 0;   // hedged calls the backup's reply resolved

  void Reset() { *this = RpcStats{}; }
  // Registers every field as `rpc.endpoint.*{labels}`; this struct must
  // outlive `registry`'s use of it.
  void RegisterWith(MetricsRegistry* registry, const MetricLabels& labels = {}) {
    registry->RegisterCounter("rpc.endpoint.calls_started", labels, &calls_started);
    registry->RegisterCounter("rpc.endpoint.calls_ok", labels, &calls_ok);
    registry->RegisterCounter("rpc.endpoint.calls_timeout", labels, &calls_timeout);
    registry->RegisterCounter("rpc.endpoint.calls_aborted", labels, &calls_aborted);
    registry->RegisterCounter("rpc.endpoint.requests_handled", labels, &requests_handled);
    registry->RegisterCounter("rpc.endpoint.hedges_sent", labels, &hedges_sent);
    registry->RegisterCounter("rpc.endpoint.hedge_wins", labels, &hedge_wins);
    registry->AddResetHook([this]() { Reset(); });
  }
};

// Outcome of a hedged call: the reply plus which host produced it and
// whether the backup probe was actually sent. Constructor-declared so the
// struct can cross coroutine boundaries by value (GCC 12 rule in
// src/sim/task.h).
template <typename Resp>
struct HedgedReply {
  HostId responder = kInvalidHost;  // kInvalidHost unless a reply arrived
  bool hedged = false;              // the backup probe went on the wire
  Result<Resp> reply;

  // The placeholder message stays within std::string's inline buffer, so a
  // default-constructed reply (every probe declares one) never allocates.
  HedgedReply() : reply(TimeoutError("unresolved")) {}
  HedgedReply(Result<Resp> r, HostId from, bool backup_sent)
      : responder(from), hedged(backup_sent), reply(std::move(r)) {}
};

class RpcEndpoint {
 public:
  RpcEndpoint(Network* net, Host* host) : net_(net), host_(host) {
    host_->SetMessageHandler([this](Message msg) { OnMessage(std::move(msg)); });
    host_->AddCrashListener([this]() { OnCrash(); });
  }

  RpcEndpoint(const RpcEndpoint&) = delete;
  RpcEndpoint& operator=(const RpcEndpoint&) = delete;

  Host* host() { return host_; }
  HostId host_id() const { return host_->id(); }
  Network* network() { return net_; }
  Simulator* sim() { return net_->sim(); }
  const RpcStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  // Registers this endpoint's counters, labeled by host name.
  void RegisterMetrics(MetricsRegistry* registry) {
    stats_.RegisterWith(registry, {{"host", host_->name()}});
  }

  // Installs the per-peer health hook. Every Call/CallHedged completion is
  // reported to it; consumers above (SuiteClient, Coordinator) reach it back
  // through peer_health() for adaptive timeouts. Null (default) disables.
  void SetPeerHealth(PeerHealth* health) { peer_health_ = health; }
  PeerHealth* peer_health() { return peer_health_; }

  // Registers the handler for requests of type Req. The handler runs as a
  // detached coroutine on this host; its Result is sent back as the reply
  // unless the host has crashed in the meantime.
  template <typename Req, typename Resp>
  void Handle(std::function<Task<Result<Resp>>(HostId, Req)> handler) {
    std::function<Task<Result<Resp>>(HostId, Req, TraceContext)> traced =
        [handler = std::move(handler)](HostId from, Req req, TraceContext) {
          return handler(from, std::move(req));
        };
    HandleTraced<Req, Resp>(std::move(traced));
  }

  // Like Handle, but the handler also receives the server-side span context
  // (the "handle.<Req>" span) so it can record deeper child spans — lock
  // waits, disk flushes — under the caller's trace.
  template <typename Req, typename Resp>
  void HandleTraced(std::function<Task<Result<Resp>>(HostId, Req, TraceContext)> handler) {
    auto [it, inserted] = handlers_.emplace(
        std::type_index(typeid(Req)),
        [this, handler = std::move(handler)](HostId from, uint64_t call_id, std::any body,
                                             TraceContext trace) {
          // Bind to a named object before the coroutine call (GCC 12 rule in
          // src/sim/task.h).
          Req req = std::any_cast<Req>(std::move(body));
          Spawn(RunHandler<Req, Resp>(handler, from, call_id, std::move(req), trace));
        });
    WVOTE_CHECK_MSG(inserted, "duplicate RPC handler registration");
  }

  // Issues one request and awaits the reply or the timeout, whichever comes
  // first. A valid `ctx` opens an "rpc.<Req>" child span covering the round
  // trip and rides the envelope so the server parents its work under it.
  template <typename Req, typename Resp>
  Task<Result<Resp>> Call(HostId to, Req req, Duration timeout,
                          TraceContext ctx = TraceContext()) {
    return Exchange<Req, Resp, Result<Resp>>(to, kInvalidHost, std::move(req),
                                             Duration::Zero(), timeout, ctx);
  }

  // Hedged variant of Call: the request goes to `primary` immediately; if no
  // reply lands within `hedge_delay`, an identical backup goes to `backup`
  // and the first reply wins. Both in-flight call ids resolve one shared
  // promise, so the loser's late reply finds no outstanding entry and is
  // dropped by the same idempotent path that already swallows duplicated
  // datagrams. `timeout` bounds the whole race. The reply reports which host
  // answered — quorum accounting must credit the responder's votes, not the
  // primary's. With `backup` == kInvalidHost this is exactly Call.
  template <typename Req, typename Resp>
  Task<HedgedReply<Resp>> CallHedged(HostId primary, HostId backup, Req req,
                                     Duration hedge_delay, Duration timeout,
                                     TraceContext ctx = TraceContext()) {
    return Exchange<Req, Resp, HedgedReply<Resp>>(primary, backup, std::move(req),
                                                  hedge_delay, timeout, ctx);
  }

  // Retransmits an idempotent request up to `attempts` times on retryable
  // failure — a timeout, or kUnavailable from a live host whose disk refused
  // the request (e.g. an injected torn flush) — with a jittered backoff
  // between attempts so retriers don't hammer a struggling peer in
  // lockstep. Other failures are returned immediately.
  template <typename Req, typename Resp>
  Task<Result<Resp>> CallWithRetry(HostId to, Req req, Duration timeout, int attempts,
                                   TraceContext ctx = TraceContext(),
                                   BackoffPolicy backoff = BackoffPolicy{}) {
    Result<Resp> last = TimeoutError("no attempts made");
    for (int i = 0; i < attempts; ++i) {
      last = co_await Call<Req, Resp>(to, req, timeout, ctx);
      if (last.ok()) {
        co_return last;
      }
      const StatusCode code = last.status().code();
      if (code != StatusCode::kTimeout && code != StatusCode::kUnavailable) {
        co_return last;
      }
      if (i + 1 < attempts) {
        co_await sim()->Sleep(JitteredBackoff(sim()->rng(), i, backoff));
      }
    }
    co_return last;
  }

 private:
  struct Envelope {
    bool is_request = false;
    uint64_t call_id = 0;
    TraceContext trace;  // requests only: the caller's rpc.<Req> span
    std::any body;       // request: Req; response: Result<Resp>
    size_t body_bytes = 64;
  };

  // One in-flight call id. Hedged calls register two ids against one shared
  // promise; `responder` points into the hedging coroutine's frame so the
  // winning reply can say which host it came from.
  struct PendingCall {
    Promise<Result<std::any>> promise;
    HostId* responder = nullptr;

    PendingCall(Promise<Result<std::any>> p, HostId* r) : promise(std::move(p)), responder(r) {}
  };

  // The one call path behind Call and CallHedged; `Out` is the caller's
  // result shape (Result<Resp> or HedgedReply<Resp>). Without a backup host
  // it schedules no hedge timer and moves `req` onto the wire without a
  // backup copy, so a plain call's event sequence and allocations are
  // exactly those of a single request/reply.
  template <typename Req, typename Resp, typename Out>
  Task<Out> Exchange(HostId primary, HostId backup, Req req, Duration hedge_delay,
                     Duration timeout, TraceContext ctx) {
    ++stats_.calls_started;
    Tracer* tracer = net_->tracer();
    TraceContext call_span = StartRpcSpan(tracer, ctx, host_id(), "rpc.", RpcMethodName<Req>());
    if (!host_->up()) {
      ++stats_.calls_aborted;
      if (tracer != nullptr) {
        tracer->EndWith(call_span, "caller down");
      }
      co_return MakeOut<Resp, Out>(AbortedError("caller host down"), kInvalidHost, false);
    }

    const uint64_t primary_id = next_call_id_++;
    Promise<Result<std::any>> promise(sim());
    Future<Result<std::any>> future = promise.GetFuture();

    HostId responder = kInvalidHost;
    bool hedge_fired = false;
    uint64_t backup_id = 0;
    TimePoint hedge_sent_at;

    EventHandle timeout_event = sim()->Schedule(timeout, [promise]() mutable {
      promise.Set(TimeoutError("rpc timeout"));
    });
    outstanding_.emplace(primary_id, PendingCall{promise, &responder});

    const TraceContext wire_trace = call_span.valid() ? call_span : ctx;
    Envelope env;
    env.is_request = true;
    env.call_id = primary_id;
    env.trace = wire_trace;
    const bool hedging = backup != kInvalidHost;
    if (hedging) {
      env.body = req;  // keep `req` for the backup copy
    } else {
      env.body = std::move(req);
    }
    const size_t bytes = ApproxWireSize(std::any_cast<const Req&>(env.body));
    const TimePoint started = sim()->Now();
    net_->Send(host_id(), primary, std::move(env), bytes);

    // The hedge timer captures frame locals by reference; the frame stays
    // suspended on `future` until after the handle is cancelled below, so
    // the references cannot dangle.
    EventHandle hedge_event;
    if (hedging) {
      hedge_event = sim()->Schedule(
          hedge_delay, [this, promise, backup, req, wire_trace, &responder, &hedge_fired,
                        &backup_id, &hedge_sent_at]() mutable {
            if (promise.IsSet() || !host_->up()) {
              return;
            }
            hedge_fired = true;
            hedge_sent_at = sim()->Now();
            ++stats_.hedges_sent;
            backup_id = next_call_id_++;
            outstanding_.emplace(backup_id, PendingCall{promise, &responder});
            Envelope hedge_env;
            hedge_env.is_request = true;
            hedge_env.call_id = backup_id;
            hedge_env.trace = wire_trace;
            hedge_env.body = std::move(req);
            const size_t hedge_bytes =
                ApproxWireSize(std::any_cast<const Req&>(hedge_env.body));
            net_->Send(host_id(), backup, std::move(hedge_env), hedge_bytes);
          });
    }

    Result<std::any> raw = co_await std::move(future);
    timeout_event.Cancel();
    hedge_event.Cancel();
    outstanding_.erase(primary_id);
    if (backup_id != 0) {
      outstanding_.erase(backup_id);
    }

    if (!raw.ok()) {
      if (raw.status().code() == StatusCode::kTimeout) {
        ++stats_.calls_timeout;
        if (peer_health_ != nullptr) {
          peer_health_->OnRpcOutcome(primary, sim()->Now() - started, false);
          if (hedge_fired) {
            peer_health_->OnRpcOutcome(backup, sim()->Now() - hedge_sent_at, false);
          }
        }
      } else {
        // Aborted: our own host crashed — no evidence about the peer.
        ++stats_.calls_aborted;
      }
      if (tracer != nullptr) {
        tracer->EndWith(call_span,
                        raw.status().code() == StatusCode::kTimeout ? "timeout" : "aborted");
      }
      co_return MakeOut<Resp, Out>(raw.status(), kInvalidHost, hedge_fired);
    }

    ++stats_.calls_ok;
    const bool hedge_won = responder == backup && responder != primary;
    if (hedge_won) {
      ++stats_.hedge_wins;
      if (peer_health_ != nullptr) {
        peer_health_->OnRpcOutcome(backup, sim()->Now() - hedge_sent_at, true);
        // The primary lost to a hedge that spotted it a full p95 head start:
        // that is a gray-failure signal, and it is what lets the breaker
        // open even when every hedged call still succeeds.
        peer_health_->OnRpcOutcome(primary, sim()->Now() - started, false);
      }
    } else if (peer_health_ != nullptr) {
      peer_health_->OnRpcOutcome(primary, sim()->Now() - started, true);
    }
    if (tracer != nullptr) {
      if (hedge_won) {
        tracer->EndWith(call_span, "hedge win");
      } else {
        tracer->End(call_span);
      }
    }
    co_return MakeOut<Resp, Out>(std::any_cast<Result<Resp>>(std::move(raw.value())),
                                 responder, hedge_fired);
  }

  // Exchange's result: the bare reply for Call, the reply plus responder
  // and hedge flag for CallHedged.
  template <typename Resp, typename Out>
  static Out MakeOut(Result<Resp> reply, HostId responder, bool hedged) {
    if constexpr (std::is_same_v<Out, Result<Resp>>) {
      return reply;
    } else {
      return Out(std::move(reply), responder, hedged);
    }
  }

  template <typename Req, typename Resp>
  Task<void> RunHandler(std::function<Task<Result<Resp>>(HostId, Req, TraceContext)> handler,
                        HostId from, uint64_t call_id, Req req, TraceContext trace) {
    ++stats_.requests_handled;
    Tracer* tracer = net_->tracer();
    TraceContext span =
        StartRpcSpan(tracer, trace, host_id(), "handle.", RpcMethodName<Req>());
    TraceContext handler_ctx;
    if (span.valid()) {
      handler_ctx = span;
    } else {
      handler_ctx = trace;
    }
    Result<Resp> result = co_await handler(from, std::move(req), handler_ctx);
    if (tracer != nullptr) {
      if (result.ok()) {
        tracer->End(span);
      } else {
        tracer->EndWith(span, result.status().ToString());
      }
    }
    // Send drops the reply if this host crashed while handling; the caller
    // then times out, matching a real server that died before responding.
    size_t bytes = result.ok() ? ApproxWireSize(result.value()) : size_t{64};
    Envelope env;
    env.is_request = false;
    env.call_id = call_id;
    env.body = std::move(result);
    net_->Send(host_id(), from, std::move(env), bytes);
  }

  void OnMessage(Message msg) {
    auto* env = std::any_cast<Envelope>(&msg.payload);
    if (env == nullptr) {
      return;  // foreign traffic; not ours to decode
    }
    if (env->is_request) {
      auto it = handlers_.find(std::type_index(env->body.type()));
      if (it == handlers_.end()) {
        return;  // no such service on this host; caller times out
      }
      it->second(msg.from, env->call_id, std::move(env->body), env->trace);
      return;
    }
    auto it = outstanding_.find(env->call_id);
    if (it == outstanding_.end()) {
      return;  // reply after timeout/crash (or a hedge race loser); drop
    }
    // Record the responder before resolving: only the first Set wins, so a
    // duplicated datagram or the hedge loser arriving later cannot overwrite
    // who actually answered.
    if (it->second.responder != nullptr && !it->second.promise.IsSet()) {
      *it->second.responder = msg.from;
    }
    it->second.promise.Set(std::move(env->body));
  }

  void OnCrash() {
    // Volatile call state dies with the host. A hedged call's two entries
    // share one promise; the second Set is a no-op by design.
    for (auto& [id, pending] : outstanding_) {
      pending.promise.Set(AbortedError("host crashed"));
    }
    outstanding_.clear();
  }

  Network* net_;
  Host* host_;
  uint64_t next_call_id_ = 1;
  std::map<std::type_index, std::function<void(HostId, uint64_t, std::any, TraceContext)>>
      handlers_;
  std::map<uint64_t, PendingCall> outstanding_;
  PeerHealth* peer_health_ = nullptr;
  RpcStats stats_;
};

}  // namespace wvote

#endif  // WVOTE_SRC_RPC_RPC_H_
