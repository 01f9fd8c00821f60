// Flight recorder: the "what were the last N windows like" dump attached to
// failures.
//
// When a chaos run fails its history check, or a bench trips a guard, the
// numbers that explain it are usually in the recent past — the windows
// leading up to the failure, the SLO transitions, the last trace records.
// DumpFlightRecord packages exactly that as one JSON object, built from the
// time-series tail (ring-buffered, so it is always available at constant
// memory) plus whatever trace tail the caller supplies.
//
// obs is a leaf library: it cannot read the tracer's breadcrumbs itself, so
// callers pass the trace tail as pre-rendered lines (Cluster owns both
// sides and does the plumbing).

#ifndef WVOTE_SRC_OBS_FLIGHT_RECORDER_H_
#define WVOTE_SRC_OBS_FLIGHT_RECORDER_H_

#include <string>
#include <vector>

#include "src/obs/slo.h"
#include "src/obs/timeseries.h"

namespace wvote {

// {"last_windows":N,"timeseries":{...},"slo_events":[...],"trace_tail":[...]}
// `slo` may be null (no engine attached); `trace_tail` lines are escaped.
std::string DumpFlightRecord(const TimeSeriesStore& store, const SloEngine* slo,
                             const std::vector<std::string>& trace_tail,
                             size_t last_windows = 64);

}  // namespace wvote

#endif  // WVOTE_SRC_OBS_FLIGHT_RECORDER_H_
