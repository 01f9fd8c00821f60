// Unified metrics registry: the one observability layer every component
// reports through.
//
// Gifford's evaluation rests on counting things — probes sent, votes
// gathered, messages dropped, commits vs. aborts. Each layer keeps its
// counts in a plain `*Stats` struct (cheap inline `++stats_.field`
// recording, no indirection on the hot path) and registers the struct's
// fields here under a stable, label-tagged name. The registry then offers
// one shared snapshot / delta / reset / export path, so benches, tests, and
// the scenario CLI all read the same instrument instead of 15 disconnected
// ad-hoc structs.
//
// Naming scheme: `layer.component.metric{label=value,...}`, e.g.
//   net.network.messages_sent
//   rpc.endpoint.calls_started{host=client}
//   core.suite_client.probes_sent{host=client,suite=research.paper}
//
// Sources are registered by address (counters, histograms) or by callback
// (gauges); Snapshot() reads through them, so a registered source must
// outlive its registry entry. Metrics that render to the same key aggregate
// by summation (histograms merge) — deliberately, so several instances of
// one component (e.g. two clients on one host) roll up instead of clashing.

#ifndef WVOTE_SRC_OBS_METRICS_H_
#define WVOTE_SRC_OBS_METRICS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/histogram.h"

namespace wvote {

using MetricLabels = std::map<std::string, std::string>;

// "name{k1=v1,k2=v2}"; bare "name" when labels are empty. Labels render in
// sorted key order, so equal label sets always produce equal keys.
std::string RenderMetricKey(const std::string& name, const MetricLabels& labels);

// JSON string escaping shared by every exporter (metrics, time series,
// flight records, Chrome traces): quotes, backslashes and control
// characters; everything else passes through byte for byte.
void AppendJsonEscaped(std::string_view in, std::string* out);
std::string JsonEscape(std::string_view in);

struct HistogramSnapshot {
  uint64_t count = 0;
  int64_t mean_us = 0;
  int64_t p50_us = 0;
  int64_t p99_us = 0;
  int64_t min_us = 0;
  int64_t max_us = 0;
};

// Point-in-time copy of every registered metric, keyed by rendered name.
// Value semantics: snapshots survive the registry and its sources, so tests
// and benches can take one before and one after a phase and diff them.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  // Lookup by rendered key; 0 / 0.0 when absent.
  uint64_t counter(const std::string& key) const;
  double gauge(const std::string& key) const;

  // Sum of every counter whose metric name (the part before '{') equals
  // `name` — i.e. the total across all label combinations.
  uint64_t SumCounters(const std::string& name) const;

  // This snapshot minus `base`, for counters and histogram counts (both are
  // monotone between resets); gauges pass through unchanged. Keys absent
  // from `base` are treated as zero there.
  MetricsSnapshot Delta(const MetricsSnapshot& base) const;

  // One "key value" line per metric, sorted by key.
  std::string ToText() const;
  // {"counters":{...},"gauges":{...},"histograms":{"k":{"count":...}}}
  std::string ToJson() const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Owned metrics: get-or-create by rendered key. The returned pointer is
  // stable for the registry's lifetime; instrumented code writes it
  // directly (one inc / one store — no lookup on the hot path).
  uint64_t* Counter(const std::string& name, const MetricLabels& labels = {});
  double* Gauge(const std::string& name, const MetricLabels& labels = {});
  LatencyHistogram* Histogram(const std::string& name, const MetricLabels& labels = {});

  // External sources, read at Snapshot() time. The source must outlive this
  // registry entry (components register members of themselves and are torn
  // down before — or with — the registry that observes them).
  void RegisterCounter(const std::string& name, const MetricLabels& labels,
                       const uint64_t* source);
  void RegisterGauge(const std::string& name, const MetricLabels& labels,
                     std::function<double()> source);
  void RegisterHistogram(const std::string& name, const MetricLabels& labels,
                         const LatencyHistogram* source);

  // Reset() zeroes owned metrics and then runs every hook, so externally
  // owned stats structs join the shared reset path (each struct's
  // RegisterWith adds a hook that calls its Reset()).
  void AddResetHook(std::function<void()> hook);
  void Reset();

  size_t num_metrics() const;
  bool Contains(const std::string& name, const MetricLabels& labels = {}) const;

  // Read-only source visitation in registration order, same-key sources
  // repeated (callers aggregate). The time-series Scraper builds its flat
  // sampling plan through these instead of paying Snapshot()'s map and
  // string construction on every sim-time tick. The visited pointers stay
  // valid until sources are registered or owned metrics created — callers
  // that cache them must rebuild when num_metrics() changes.
  void VisitCounterSources(
      const std::function<void(const std::string&, const uint64_t*)>& fn) const;
  void VisitGaugeSources(
      const std::function<void(const std::string&, const std::function<double()>*)>& fn) const;
  void VisitHistogramSources(
      const std::function<void(const std::string&, const LatencyHistogram*)>& fn) const;

  MetricsSnapshot Snapshot() const;
  MetricsSnapshot Delta(const MetricsSnapshot& base) const { return Snapshot().Delta(base); }
  std::string ExportText() const { return Snapshot().ToText(); }
  std::string ExportJson() const { return Snapshot().ToJson(); }

 private:
  struct CounterSource {
    std::string key;
    const uint64_t* source;
  };
  struct GaugeSource {
    std::string key;
    std::function<double()> source;
  };
  struct HistogramSource {
    std::string key;
    const LatencyHistogram* source;
  };

  // Owned storage lives in deques for address stability under growth.
  std::deque<uint64_t> owned_counters_;
  std::deque<double> owned_gauges_;
  std::deque<LatencyHistogram> owned_histograms_;
  std::map<std::string, uint64_t*> owned_counter_index_;
  std::map<std::string, double*> owned_gauge_index_;
  std::map<std::string, LatencyHistogram*> owned_histogram_index_;

  std::vector<CounterSource> counter_sources_;
  std::vector<GaugeSource> gauge_sources_;
  std::vector<HistogramSource> histogram_sources_;
  std::vector<std::function<void()>> reset_hooks_;
};

}  // namespace wvote

#endif  // WVOTE_SRC_OBS_METRICS_H_
