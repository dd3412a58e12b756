// Chaos soak harness: a seeded random workload driven against a cluster
// while a deterministic fault plan injects partitions, crashes/restarts
// and lossy links.  After the plan drains, the harness heals, reconciles
// and checks the dependability invariants the middleware promises:
//
//   * no threat is silently lost (every stored threat is re-evaluated),
//   * at most one primary per object and partition (P4),
//   * replicas of every object converge after reconciliation,
//   * non-conflicted objects match the fault-free workload model.
//
// Everything is derived from (seed, options): the same inputs produce a
// byte-identical trace timeline, which bench_chaos_soak and check.sh
// exploit as a determinism oracle.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "replication/protocol.h"
#include "sim/fault_plan.h"
#include "util/ids.h"
#include "util/sim_clock.h"

namespace dedisys::scenarios {

struct ChaosOptions {
  std::uint64_t seed = 1;
  std::size_t nodes = 3;
  std::size_t objects = 4;
  std::size_t ops = 60;
  std::size_t fault_events = 10;
  /// Replica groups the entity space is partitioned across (1 = the
  /// classic fully-replicated soak, byte-identical to pre-shard runs).
  /// With more shards the entities are created through the sharded front
  /// door — replicas confined to each shard's node group — and the same
  /// invariants (no lost threats, P4 per shard and partition, post-heal
  /// convergence) are asserted under plans cutting across shard
  /// boundaries.
  std::size_t shards = 1;
  SimDuration horizon = sim_ms(400);
  ReplicationProtocol protocol = ReplicationProtocol::PrimaryPartition;
  /// Forwarded to ClusterConfig::validation_memo.  Memo-on runs of the
  /// same seed must match memo-off runs byte for byte (check.sh --memo).
  bool validation_memo = false;
  /// Draw the fault plan from `random_gray_plan` instead of
  /// `random_fault_plan`: the op mix then includes asymmetric one-way
  /// cuts, flapping links, slow-but-alive nodes and clock skew.
  bool gray = false;
  /// Explicit fault plan; overrides seeded plan generation when set (the
  /// invariant harness replays shrunk and corpus plans through this).
  std::optional<FaultPlan> plan;
};

struct ChaosResult {
  // workload outcome
  std::size_t committed = 0;
  std::size_t aborted = 0;
  std::size_t skipped_node_down = 0;
  // fault plan
  std::size_t faults_applied = 0;
  std::size_t reconciles = 0;
  // invariant counters (all zero on a passing run)
  std::size_t lost_threats = 0;
  std::size_t threats_remaining = 0;
  std::size_t primary_violations = 0;
  std::size_t divergent_objects = 0;
  std::size_t model_mismatches = 0;
  // context
  std::size_t conflicts = 0;
  std::size_t threats_reevaluated = 0;
  std::string timeline;      ///< rendered trace (determinism oracle)
  std::string metrics_json;  ///< full observability export

  [[nodiscard]] bool invariants_ok() const {
    return lost_threats == 0 && threats_remaining == 0 &&
           primary_violations == 0 && divergent_objects == 0 &&
           model_mismatches == 0;
  }
};

/// The P4 check on one partition, judged from elections alone: `elected`
/// holds the primary each member of `partition` that may write elects for
/// one object.  True when a primary lies outside the partition or two
/// members elect different primaries (split brain).
[[nodiscard]] bool violates_one_primary(const std::vector<NodeId>& partition,
                                        const std::vector<NodeId>& elected);

/// Runs one seeded chaos soak; see the header comment for the invariants
/// checked.  Deterministic: same options, same result (including the
/// rendered timeline, byte for byte).
ChaosResult run_chaos(const ChaosOptions& options);

}  // namespace dedisys::scenarios
