// Nemesis: applies a FaultSchedule to a deployed Cluster.
//
// Deploy() walks the schedule once and plants every event on the cluster's
// simulator at its offset; application is pure mechanism — all randomness
// was spent when the schedule was built, so the same schedule against the
// same cluster seed replays the same run. Phase-targeted events arm
// one-shot observers on the cluster tracer's breadcrumbs; timed events crash,
// restart, partition, heal, and turn network/storage fault knobs. This is
// the only code that crashes hosts: exponential churn, chaos templates and
// phase-targeted crashes are all schedules.
//
// Events naming hosts that do not exist are skipped (counted in
// events_skipped): schedule minimization may strip a partition's heal or a
// crash's context, and the remaining events must still apply cleanly.

#ifndef WVOTE_SRC_CHAOS_NEMESIS_H_
#define WVOTE_SRC_CHAOS_NEMESIS_H_

#include <cstdint>
#include <utility>

#include "src/chaos/schedule.h"
#include "src/core/cluster.h"

namespace wvote {

// Crashes the Nemesis actually performed (a crash aimed at a host that is
// already down does not count) and the downtime they scheduled.
struct NemesisStats {
  uint64_t crashes = 0;
  uint64_t phase_crashes = 0;  // kCrashOnTrace one-shots that fired
  Duration total_downtime;
};

class Nemesis {
 public:
  Nemesis(Cluster* cluster, FaultSchedule schedule)
      : cluster_(cluster), schedule_(std::move(schedule)) {}

  // Schedules every event; call once, before pumping the simulation.
  void Deploy();

  const FaultSchedule& schedule() const { return schedule_; }
  uint64_t events_applied() const { return events_applied_; }
  uint64_t events_skipped() const { return events_skipped_; }
  const NemesisStats& stats() const { return stats_; }

 private:
  void Apply(const FaultEvent& ev);

  Cluster* cluster_;
  FaultSchedule schedule_;
  uint64_t events_applied_ = 0;
  uint64_t events_skipped_ = 0;
  NemesisStats stats_;
};

}  // namespace wvote

#endif  // WVOTE_SRC_CHAOS_NEMESIS_H_
