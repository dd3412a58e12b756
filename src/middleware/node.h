// DeDiSys node kernel: per-node service wiring (Fig. 4.1).
//
// Each node hosts the full middleware stack: transaction manager,
// persistence, group membership endpoint, replication manager, constraint
// consistency manager and the invocation service with its interceptor
// chain.  Client calls enter through invoke()/create()/destroy(), are
// reified into Invocation objects, routed to the execution node and run
// through the server-side interceptor stack
//     [CCM interceptor, replication interceptor] -> terminal dispatcher.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "constraints/ccmgr.h"
#include "constraints/repository.h"
#include "constraints/threats.h"
#include "gcs/group_comm.h"
#include "gcs/membership.h"
#include "middleware/mode.h"
#include "objects/invocation.h"
#include "obs/observability.h"
#include "objects/method_context.h"
#include "objects/naming.h"
#include "persist/history_store.h"
#include "persist/record_store.h"
#include "replication/adapt.h"
#include "replication/manager.h"
#include "tx/tx_manager.h"

namespace dedisys {

class Cluster;
class DedisysNode;

/// Mediated object access bound to a node: local reads are free, remote
/// reads are charged as RPC round-trips, nested invocations re-enter the
/// middleware (AOP-style interception of internal calls, Section 4.2.4).
class NodeObjectAccessor final : public ObjectAccessor {
 public:
  explicit NodeObjectAccessor(DedisysNode& node) : node_(&node) {}

  const Entity& read(ObjectId id) override;
  Value invoke(ObjectId id, const MethodSignature& method,
               std::vector<Value> args) override;

  void set_current_tx(TxId tx) { tx_ = tx; }
  [[nodiscard]] TxId current_tx() const { return tx_; }

 private:
  DedisysNode* node_;
  TxId tx_;
};

/// How business operations on still-threatened objects behave while the
/// reconciliation phase runs (Section 3.3: "block, if the reconciliation
/// is already underway, or be treated as if the partition were still in
/// place, thereby introducing new threats").
enum class ReconciliationBusinessPolicy {
  Proceed,          ///< run normally (satisfied full checks clean threats)
  BlockThreatened,  ///< abort operations touching threatened objects
  TreatAsDegraded,  ///< validate as in degraded mode (new threats possible)
};

class DedisysNode final : public ViewListener {
 public:
  DedisysNode(Cluster& cluster, NodeId id);
  ~DedisysNode() override = default;

  DedisysNode(const DedisysNode&) = delete;
  DedisysNode& operator=(const DedisysNode&) = delete;

  // -- services ------------------------------------------------------------

  [[nodiscard]] NodeId id() const { return id_; }
  /// The cluster-wide distributed transaction manager (JBoss TS analogue):
  /// transactions begun on any node propagate with the invocation.
  TransactionManager& tx() { return *tm_; }
  ConstraintConsistencyManager& ccmgr() { return *ccmgr_; }
  ReplicationManager& replication() { return *repl_; }
  GroupMembershipService& gms() { return *gms_; }
  RecordStore& db() { return *db_; }
  NamingService& naming() { return naming_; }
  NodeObjectAccessor& accessor() { return *accessor_; }
  Cluster& cluster() { return *cluster_; }

  [[nodiscard]] SystemMode mode() const { return mode_; }
  void set_mode(SystemMode m) {
    change_mode(m);
    if (m != SystemMode::Reconciling) {
      threatened_cache_.clear();
      ccmgr_->clear_forced_stale();
    }
  }

  /// Appends a custom interceptor to this node's server-side chain
  /// (the standardjboss.xml extension point of Section 4.2.4).  Runs
  /// after the built-in CCM and replication interceptors.
  void add_server_interceptor(std::shared_ptr<Interceptor> interceptor) {
    server_chain_.add(std::move(interceptor));
  }

  /// ADAPT component monitors (Section 4.3): the client monitor may
  /// redirect reads to other replicas; server monitors observe component
  /// lifecycle and invocations on this node.
  void set_client_monitor(std::shared_ptr<ClientComponentMonitor> monitor) {
    client_monitor_ = std::move(monitor);
  }
  void add_server_monitor(std::shared_ptr<ServerComponentMonitor> monitor) {
    server_monitors_.push_back(std::move(monitor));
  }

  /// Names of the configured server-side interceptors, in order.
  [[nodiscard]] std::vector<std::string> server_interceptor_names() const {
    return server_chain_.names();
  }

  // -- client API ----------------------------------------------------------

  /// Creates an entity of `class_name` replicated per the cluster config;
  /// `application` scopes which constraint repository applies (Section 5.3).
  /// `replica_nodes` confines the replica set to an explicit node group
  /// (the sharded front door passes the owning shard's replica group);
  /// default: every cluster node (full replication).
  ObjectId create(TxId tx, const std::string& class_name,
                  const std::string& application = "",
                  std::optional<std::vector<NodeId>> replica_nodes =
                      std::nullopt);

  /// Deletes an entity from all reachable replicas.
  void destroy(TxId tx, ObjectId id);

  /// Invokes `method_name` on the logical object `target`, routing to the
  /// correct execution node and running the interceptor chain.
  Value invoke(TxId tx, ObjectId target, const std::string& method_name,
               std::vector<Value> args = {});

  /// Nested invocation from inside a method body (AOP interception path).
  Value invoke_nested(TxId tx, ObjectId target,
                      const MethodSignature& method, std::vector<Value> args);

  // -- ViewListener ----------------------------------------------------------

  void on_view_installed(const View& installed, const View& previous) override;

 private:
  friend class NodeObjectAccessor;

  /// Assigns the mode, recording a mode.transition trace event on change.
  void change_mode(SystemMode m);

  /// Runs the server-side chain on THIS node (the execution node).
  Value execute_server(Invocation& inv);

  Value terminal_dispatch(Invocation& inv);

  Cluster* cluster_;
  NodeId id_;
  obs::Observability* obs_ = nullptr;

  std::unique_ptr<RecordStore> db_;
  std::unique_ptr<ReplicaHistoryStore> history_;
  TransactionManager* tm_;
  std::unique_ptr<GroupMembershipService> gms_;
  std::unique_ptr<ReplicationManager> repl_;
  std::unique_ptr<ConstraintConsistencyManager> ccmgr_;
  std::unique_ptr<NodeObjectAccessor> accessor_;
  /// Applies the reconciliation business policy to an invocation target;
  /// may throw (block) or return true when the op must be treated as
  /// degraded.
  bool apply_reconciliation_policy(ObjectId target);

  void notify_created(ObjectId id, const std::string& class_name) {
    for (auto& m : server_monitors_) m->on_created(id, class_name);
  }
  void notify_deleted(ObjectId id) {
    for (auto& m : server_monitors_) m->on_deleted(id);
  }

  NamingService naming_;
  InterceptorStack server_chain_;
  SystemMode mode_ = SystemMode::Healthy;
  std::unordered_set<ObjectId> threatened_cache_;
  std::shared_ptr<ClientComponentMonitor> client_monitor_;
  std::vector<std::shared_ptr<ServerComponentMonitor>> server_monitors_;
};

}  // namespace dedisys
