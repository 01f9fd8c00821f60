#include "src/core/multi_txn.h"

#include <utility>

#include "src/core/txn_state.h"

namespace wvote {

MultiSuiteTransaction::MultiSuiteTransaction(Coordinator* coordinator)
    : coordinator_(coordinator), txn_(coordinator->Begin()) {}

MultiSuiteTransaction::~MultiSuiteTransaction() {
  // Best-effort cleanup for abandoned transactions, mirroring
  // SuiteTransaction's destructor; suites already ended are skipped.
  if (!states_.empty()) {
    Spawn(SuiteClient::AbortStates(coordinator_, states_));
  }
}

const std::shared_ptr<SuiteTransaction::State>& MultiSuiteTransaction::EntryFor(
    SuiteClient* suite) {
  for (const std::shared_ptr<SuiteTransaction::State>& state : states_) {
    if (state->client == suite) {
      return state;
    }
  }
  if (states_.empty()) {
    // First suite touched: open the root span every suite's phases parent
    // to (the constructor has no Network to ask for the tracer).
    if (Tracer* tracer = suite->net_->tracer()) {
      trace_ = tracer->StartRoot(suite->rpc_->host_id(), "client.multi");
      if (trace_.valid()) {
        tracer->Annotate(trace_, "txn=" + txn_.ToString());
      }
    }
  }
  auto state = std::make_shared<SuiteTransaction::State>();
  state->client = suite;
  state->txn = txn_;      // the SAME transaction everywhere
  state->trace = trace_;  // ... and the same span tree
  return states_.emplace_back(std::move(state));
}

Task<Result<std::string>> MultiSuiteTransaction::Read(SuiteClient* suite) {
  if (finished_) {
    co_return FailedPreconditionError("transaction already finished");
  }
  co_return co_await suite->DoRead(EntryFor(suite));
}

Status MultiSuiteTransaction::Write(SuiteClient* suite, std::string contents) {
  if (finished_) {
    return FailedPreconditionError("transaction already finished");
  }
  EntryFor(suite)->pending_write = std::move(contents);
  return Status::Ok();
}

Task<Status> MultiSuiteTransaction::Commit() {
  if (finished_) {
    co_return FailedPreconditionError("transaction already finished");
  }
  finished_ = true;
  if (states_.empty()) {
    co_return Status::Ok();  // touched nothing: nothing to commit
  }
  co_return co_await SuiteClient::CommitStates(coordinator_, states_);
}

Task<void> MultiSuiteTransaction::Abort() {
  if (finished_) {
    co_return;
  }
  finished_ = true;
  co_await SuiteClient::AbortStates(coordinator_, states_);
}

}  // namespace wvote
