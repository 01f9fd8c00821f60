// Internal: shared per-transaction state for suite transactions.
//
// Lives in its own header so that both SuiteClient (single-suite
// transactions) and MultiSuiteTransaction (cross-suite transactions) can
// drive the same gather/read/commit machinery. Not part of the public API.

#ifndef WVOTE_SRC_CORE_TXN_STATE_H_
#define WVOTE_SRC_CORE_TXN_STATE_H_

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/core/suite_client.h"

namespace wvote {

// Per-transaction shared state. Held by the transaction handle, by in-flight
// probe coroutines, and by straggler cleanup closures.
struct SuiteTransaction::State {
  SuiteClient* client = nullptr;
  TxnId txn;
  bool finished = false;
  std::set<HostId> participants;  // every representative holding our locks
  // Every representative we ever sent a lock-taking request to. A probe that
  // times out client-side may still be granted server-side (it queued on the
  // lock and won later); aborting at every probed host at transaction end is
  // what prevents those grants from leaking forever.
  std::set<HostId> probed;
  std::optional<VersionedValue> read_result;
  std::optional<std::string> pending_write;
  // Version installed by a successful write commit (0 until then). Chaos
  // histories pair each acked write with the version it committed at.
  Version committed_version = 0;
  // Set by the commit path between the write gather and the two-phase
  // commit's outcome: the version being installed and the quorum getting it.
  Version installing = 0;
  std::vector<SuiteClient::ProbeReply> write_quorum;
  // This attempt's "client.txn" span. Every phase recorded on behalf of the
  // transaction (gather, fetch, prepare, disk, commit-ack) parents here, so
  // the phases tile the attempt span exactly — sim time only advances at
  // awaits, and the phases are the awaits.
  TraceContext trace;

  // Union of participants and probed: everything that must see the
  // transaction end.
  std::set<HostId> ReleaseSet() const {
    std::set<HostId> release = participants;
    release.insert(probed.begin(), probed.end());
    return release;
  }
};

}  // namespace wvote

#endif  // WVOTE_SRC_CORE_TXN_STATE_H_
