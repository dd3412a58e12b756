// DeDiSys cluster: execution runtime + node kernels + the reconciliation
// driver (Fig. 4.6).  It builds exactly one runtime (src/runtime), picked
// by ClusterConfig::backend: a SimRuntime owning the simulated clock,
// network and event queue (default), or a ThreadedRuntime, which builds
// none of them.  ClusterConfig is the one configuration object.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <vector>

#include "constraints/ccmgr.h"
#include "constraints/repository.h"
#include "constraints/threats.h"
#include "gcs/group_comm.h"
#include "gcs/membership.h"
#include "middleware/node.h"
#include "obs/observability.h"
#include "persist/record_store.h"
#include "replication/protocol.h"
#include "replication/reconciler.h"
#include "runtime/runtime.h"
#include "runtime/sim_runtime.h"
#include "shard/front_door.h"
#include "shard/policy.h"
#include "shard/shard_map.h"
#include "sim/fault_plan.h"
#include "tx/tx_manager.h"

namespace dedisys {

class FaultEngine;

struct ClusterConfig {
  std::size_t nodes = 3;
  CostModel cost{};
  ReplicationProtocol protocol = ReplicationProtocol::PrimaryPartition;
  /// false = the "No DeDiSys" baseline (independent nodes, no replication).
  bool with_replication = true;
  /// false = no constraint consistency management service.
  bool with_ccm = true;
  /// Replica history capture during degraded mode (Section 5.5.1).
  bool keep_history = true;
  ThreatHistoryPolicy threat_policy = ThreatHistoryPolicy::IdenticalOnce;
  /// Application-wide fallback for static negotiation.
  SatisfactionDegree default_min_degree = SatisfactionDegree::Satisfied;
  /// Business operations on threatened objects during reconciliation.
  ReconciliationBusinessPolicy reconciliation_policy =
      ReconciliationBusinessPolicy::Proceed;
  /// Which execution backend the cluster runs on: deterministic simulation
  /// (default — every seed-pinned suite), or wall-clock worker threads
  /// (benchmarks on real hardware; no fault injection, no tracing).
  RuntimeBackend backend = RuntimeBackend::Sim;
  /// Structured event tracing + latency histograms (src/obs).  Off by
  /// default: instrumented hot paths then cost a single branch.  Can also
  /// be enabled later via cluster.obs().enable().  Ignored (forced off) on
  /// the threaded backend — the trace hub's span stack is single-threaded.
  bool observability = false;
  /// Ring-buffer capacity of the trace recorder when observability is on.
  std::size_t trace_capacity = 4096;
  /// Version-stamped validation memoization: cache definite constraint
  /// outcomes keyed by the read-set entities' write stamps.  Off by
  /// default — memo-off runs are byte-identical to builds without it.
  bool validation_memo = false;
  /// Replica groups the entity space is partitioned across (1 = the
  /// classic fully-replicated cluster; must not exceed `nodes`).  Each
  /// shard runs the GMS/replication/P4/CCMgr stack over its own node
  /// group; cross-shard transactions ride the cluster-wide 2PC.
  std::size_t shards = 1;
  /// Admission-control tuning of the sharded front door (queue bounds,
  /// batching, TxQ-style fee escalation); see shard/policy.h.
  shard::ShardPolicy shard_policy;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // -- execution runtime --------------------------------------------------------

  /// The pluggable runtime every protocol component runs against.
  Runtime& runtime() { return *runtime_; }

  // -- sim-only substrate (fault injection, chaos/script drivers) --------------

  /// The deterministic-simulation runtime and, through it, the simulated
  /// network and event queue.  Throws ConfigError on the threaded backend,
  /// which has no simulated substrate (see docs/fault_injection.md).
  SimRuntime& sim();

  /// Cluster-wide distributed transaction manager.
  TransactionManager& tx() { return *tm_; }
  GroupCommunication& gc() { return *gc_; }
  ClassRegistry& classes() { return classes_; }
  ConstraintRepository& constraints() { return constraint_repository_; }

  /// Per-application constraint repository (created on first use and
  /// registered with every node's CCMgr).  Constraint names only need to
  /// be unique within one application (Section 5.3).
  ConstraintRepository& application_constraints(const std::string& name);
  ThreatStore& threats() { return *threat_store_; }
  RecordStore& threat_db() { return *threat_db_; }
  NodeWeights& weights() { return *weights_; }
  std::shared_ptr<NodeWeights> weights_ptr() { return weights_; }
  std::shared_ptr<ObjectDirectory> directory() { return directory_; }
  const ClusterConfig& config() const { return config_; }

  /// Observability hub shared by every service of this cluster (trace
  /// recorder + latency histograms); disabled unless configured/enabled.
  obs::Observability& obs() { return obs_; }

  // -- nodes -------------------------------------------------------------------

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  DedisysNode& node(std::size_t index) { return *nodes_.at(index); }
  DedisysNode* node_by_id(NodeId id);

  /// All logical objects of `class_name` (query support for constraints
  /// without a context object, and for re-validation after runtime
  /// constraint changes).
  [[nodiscard]] std::vector<ObjectId> objects_of(
      const std::string& class_name) const;

  // -- sharded front door (value-typed client API) -----------------------------

  /// The shard map partitioning the entity space across replica groups
  /// (one group covering every node when config.shards == 1).
  shard::ShardMap& shards() { return *shard_map_; }

  /// The admission layer: bounded priority queues, fee escalation, load
  /// shedding, batched apply.
  shard::FrontDoor& front_door() { return *front_door_; }

  /// Submits one client request through the front door: routed to its
  /// owning shard (forwarded when mis-addressed), fee-checked, queued or
  /// shed with an explicit reason.
  shard::Submission submit(shard::Request request) {
    return front_door_->submit(std::move(request));
  }

  /// Applies one admission batch per shard; returns requests applied.
  std::size_t pump() { return front_door_->pump(); }

  // -- failure injection ----------------------------------------------------------

  /// The one way a fault reaches the cluster (scripts and wired fault
  /// engines come through here too).  Node-lifecycle ops take the full
  /// middleware path: a crash drops volatile replica state, a restart
  /// recovers in-doubt transactions and rebuilds replicas, partitions are
  /// recorded for reconciliation and traced; everything else goes straight
  /// to the sim network.  Throws ConfigError, before any state changes, on
  /// the threaded backend and for a crash or restart of a node this
  /// cluster lacks.
  void inject(const fault::Op& op);

  /// Restart overload: returns the number of replicas rebuilt.
  std::size_t inject(const fault::Restart& op);

  /// Wires a fault engine to this cluster: every action it applies is
  /// routed through inject(), and its trace events land in this cluster's
  /// observability hub.  Throws ConfigError on the threaded backend.
  void adopt_fault_engine(FaultEngine& engine);

  // -- reconciliation (Section 4.4) -------------------------------------------------

  struct ReconciliationReport {
    ReplicaReconcileStats replica;
    ConstraintConsistencyManager::ReconcileStats constraints;
    SimDuration replica_time = 0;
    SimDuration constraint_time = 0;
  };

  /// Runs both reconciliation steps: replica reconciliation (update
  /// propagation + conflict resolution), then constraint reconciliation
  /// (threat re-evaluation + application callbacks).  Nodes return to
  /// Healthy mode afterwards.
  ReconciliationReport reconcile(
      ReplicaConsistencyHandler* replica_handler = nullptr,
      ConstraintReconciliationHandler* constraint_handler = nullptr,
      std::size_t coordinator = 0);

 private:
  /// The node a crash or restart names; throws ConfigError on the
  /// threaded backend or when no node has that id.
  DedisysNode& fault_target(NodeId id);

  /// Typed-op implementations behind inject().  A partition records its
  /// groups for reconciliation and traces the split.
  void split_ids(std::vector<std::vector<NodeId>> node_groups);
  void do_heal();
  void do_crash(DedisysNode& n);
  std::size_t do_restart(DedisysNode& n);

  ClusterConfig config_;
  obs::Observability obs_;
  /// Destroyed after nodes_ (declared before them): node teardown still
  /// unsubscribes GMS listeners through the runtime.
  std::unique_ptr<Runtime> runtime_;
  std::unique_ptr<TransactionManager> tm_;
  std::unique_ptr<GroupCommunication> gc_;
  std::shared_ptr<NodeWeights> weights_;
  std::shared_ptr<ObjectDirectory> directory_;
  ClassRegistry classes_;
  ConstraintRepository constraint_repository_;
  std::map<std::string, std::unique_ptr<ConstraintRepository>>
      app_repositories_;
  std::unique_ptr<RecordStore> threat_db_;
  std::unique_ptr<ThreatStore> threat_store_;
  std::vector<std::unique_ptr<DedisysNode>> nodes_;
  std::vector<std::vector<NodeId>> last_partition_groups_;
  /// Constructed after nodes_ (needs their ids); pure bookkeeping until
  /// the first submit(), so a shards=1 cluster that never uses the front
  /// door behaves byte-identically to the pre-shard middleware.
  std::unique_ptr<shard::ShardMap> shard_map_;
  std::unique_ptr<shard::FrontDoor> front_door_;
};

}  // namespace dedisys
