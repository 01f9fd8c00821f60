// The per-layer cost ladder: isolated calls into each layer's public entry
// points, timed from outside on an idle simulator or cluster built with the
// workload's link delays, disk latencies, value sizes and quorum shape.

#ifndef PERFBENCH_LADDER_H_
#define PERFBENCH_LADDER_H_

#include <cstdint>

#include "workloads.h"

namespace perfbench {

// Host nanoseconds and heap allocations per call.
struct CallCost {
  double ns = 0;
  double allocs = 0;
};

struct Ladder {
  CallCost sim_event;      // Simulator::Schedule plus dispatch, workload delay mix
  CallCost net_delivery;   // Network::Send through to the receiving host
  CallCost rpc_call;       // echo through RpcEndpoint::Call
  CallCost storage_flush;  // StableStore::Write of a suite-sized value
  CallCost txn_lock;       // LockManager acquire/release pair
  CallCost core_read;      // sequential SuiteClient::ReadOnce
  CallCost core_write;     // sequential SuiteClient::WriteOnce
  CallCost core_solve;     // load-optimal strategy solve for the read quorum
  CallCost kv_codec;       // SerializeMap + ParseMap of a 64-key shard
  CallCost kv_put;         // sequential ReplicatedKvStore::Put
};

Ladder RunLadder(const Shape& shape, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_LADDER_H_
