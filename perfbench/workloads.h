// The benchmark's three workloads. Each runs untraced (end-to-end metrics)
// or traced (per-layer metrics) as RunConfig::trace says, and records every
// operation it attempted and every check that failed in the Outcome.

#ifndef LUBT_PERFBENCH_WORKLOADS_H_
#define LUBT_PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// The paper's job: fixed serial nets through SolveBatch with one worker.
void RunSolveCold(const RunConfig& config, Outcome* out);

/// The interactive incremental path: closed-loop clients against an
/// in-process lubt_server with a cache smaller than the session count.
void RunServeEco(const RunConfig& config, Outcome* out);

/// Topology search on 128-sink uniform nets with a fixed round budget.
void RunSearchTopo(const RunConfig& config, Outcome* out);

}  // namespace perfbench

#endif  // LUBT_PERFBENCH_WORKLOADS_H_
