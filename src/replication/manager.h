// Per-node replication manager (the replication service of Section 4.3).
//
// Responsibilities:
//   * hosting local replicas of logical objects,
//   * routing invocations (reads local, writes to the — possibly
//     temporary — primary),
//   * synchronous update propagation from the primary to all reachable
//     backups over group communication,
//   * replica history capture during degraded mode (for rollback-based
//     reconciliation),
//   * answering the CCMgr's staleness/reachability questions
//     (StalenessOracle), which drive the satisfaction-degree derivation.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "constraints/validation_context.h"
#include "gcs/group_comm.h"
#include "gcs/membership.h"
#include "objects/entity.h"
#include "obs/observability.h"
#include "persist/history_store.h"
#include "persist/record_store.h"
#include "replication/protocol.h"
#include "tx/tx_manager.h"
#include "util/ids.h"

namespace dedisys {

class ReplicationManager final : public StalenessOracle {
 public:
  ReplicationManager(NodeId self, const ClassRegistry& classes,
                     GroupCommunication& gc, GroupMembershipService& gms,
                     RecordStore& db, ReplicaHistoryStore& history,
                     std::shared_ptr<ObjectDirectory> directory,
                     ReplicationProtocol protocol);

  /// Wires the in-process peer managers (delivery targets for multicasts).
  void connect_peers(std::vector<ReplicationManager*> peers);

  /// Wires the cluster's observability hub; update propagations are then
  /// recorded as replica.propagate trace events with a propagate latency.
  void set_observability(obs::Observability* obs) { obs_ = obs; }

  [[nodiscard]] NodeId self() const { return self_; }
  [[nodiscard]] ReplicationProtocol protocol() const { return protocol_; }
  [[nodiscard]] ObjectDirectory& directory() { return *directory_; }

  // -- mode (driven by the middleware kernel on view changes) ---------------

  void set_degraded(bool degraded);
  [[nodiscard]] bool degraded() const { return degraded_; }

  /// Enables/disables replica history capture during degraded mode
  /// (Section 5.5.1 "reduced history").
  void set_keep_history(bool keep) { keep_history_ = keep; }
  [[nodiscard]] bool keep_history() const { return keep_history_; }

  /// Disables replication entirely (the "No DeDiSys" baseline): no replica
  /// bookkeeping, no update propagation, objects live on this node only.
  void set_replication_enabled(bool enabled) { replication_enabled_ = enabled; }
  [[nodiscard]] bool replication_enabled() const {
    return replication_enabled_;
  }

  // -- object lifecycle -------------------------------------------------------

  /// Creates a logical object replicated on `replica_nodes` (default: all
  /// cluster nodes), with this node as designated primary.  Creation is
  /// propagated synchronously to reachable replicas; persisting the
  /// replica bookkeeping is the dominant cost (Section 5.1).
  ObjectId create(const std::string& class_name, TxId tx,
                  std::optional<std::vector<NodeId>> replica_nodes =
                      std::nullopt,
                  const std::string& application = "");

  /// Deletes a logical object from all reachable replicas.
  void destroy(ObjectId id, TxId tx);

  // -- replica access -----------------------------------------------------------

  [[nodiscard]] bool has_local_replica(ObjectId id) const {
    return replicas_.count(id) != 0;
  }

  [[nodiscard]] Entity& local_replica(ObjectId id);
  [[nodiscard]] const Entity& local_replica(ObjectId id) const;

  /// Node that must execute an invocation on `id`:
  ///   reads  -> locally when a replica exists, else nearest replica;
  ///   writes -> the (temporary) primary; throws ObjectUnreachable when the
  ///             protocol forbids writing in this partition.
  [[nodiscard]] NodeId execution_node(ObjectId id, bool is_write) const;

  /// Synchronous update propagation after a write on the primary
  /// (Section 4.3).  Captures degraded-mode history when enabled.
  void propagate_update(ObjectId id, TxId tx);

  /// Propagates the CURRENT local state to reachable backups without
  /// degraded-mode bookkeeping — used when a transaction rollback restores
  /// a pre-transaction state (an undo is not a logical update and must not
  /// register as a conflicting degraded write).  The object's
  /// degraded-update mark is dropped on every replica reached unless
  /// `keep_mark`: the caller passes whether the object was marked before
  /// the aborted update, i.e. whether an earlier degraded update (which
  /// the reconciler must still see) exists.
  void propagate_restore(ObjectId id, bool keep_mark);

  /// Propagates a threat record to all reachable partition members
  /// (accepted threats are replicated, Section 5.1).
  void replicate_threat_record();

  // -- StalenessOracle ------------------------------------------------------------

  bool possibly_stale(ObjectId id) const override;
  bool reachable(ObjectId id) const override;

  // -- reconciliation support ----------------------------------------------------

  /// Objects written on this node during the current degraded period.
  [[nodiscard]] const std::unordered_set<ObjectId>& degraded_updates() const {
    return degraded_updates_;
  }
  void clear_degraded_updates() { degraded_updates_.clear(); }

  /// View membership recorded while degraded — the reconciliation driver
  /// groups nodes by it to derive the former partitions when no explicit
  /// link-failure groups were injected (e.g. node crash/recovery).
  [[nodiscard]] const std::vector<NodeId>& degraded_view_members() const {
    return degraded_view_members_;
  }

  /// Applies a reconciled snapshot locally (no propagation).
  void apply_snapshot(const EntitySnapshot& snap);

  [[nodiscard]] ReplicaHistoryStore& history() { return *history_; }

  /// Crash support: drops the volatile replica copies (the in-memory
  /// entity state lost in a pause-crash).  Durable bookkeeping — the
  /// node's record store, replica-version metadata and degraded-update
  /// marks — survives, so a later restart can rebuild the replicas from
  /// peers or from the durable entity table.
  void drop_volatile() { replicas_.clear(); }

  /// Restart support: re-adopts a replica rebuilt from a peer snapshot or
  /// from durable state (no propagation, no degraded bookkeeping).
  void adopt_replica(const EntitySnapshot& snap) { apply_snapshot(snap); }

  // -- statistics -------------------------------------------------------------------
  struct Stats {
    std::size_t updates_propagated = 0;
    std::size_t backups_applied = 0;
    std::size_t history_records = 0;
    std::size_t stale_skipped = 0;  ///< duplicate/stale propagations ignored
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  [[nodiscard]] bool partition_has_majority() const;
  [[nodiscard]] NodeId temporary_primary(
      const ObjectDirectory::Entry& entry) const;
  [[nodiscard]] std::vector<NodeId> reachable_replicas(
      const ObjectDirectory::Entry& entry) const;
  ReplicationManager* peer(NodeId node) const;

  /// Backup-side handler for a propagated update.
  void apply_propagated(const EntitySnapshot& snap, TxId tx);
  /// Backup-side handler for a propagated creation.
  void apply_created(const EntitySnapshot& snap);
  /// Backup-side handler for a propagated deletion.
  void apply_destroyed(ObjectId id);

  NodeId self_;
  const ClassRegistry& classes_;
  GroupCommunication& gc_;
  GroupMembershipService& gms_;
  RecordStore& db_;
  ReplicaHistoryStore* history_;
  std::shared_ptr<ObjectDirectory> directory_;
  ReplicationProtocol protocol_;

  std::unordered_map<ObjectId, std::unique_ptr<Entity>> replicas_;
  std::unordered_map<NodeId, ReplicationManager*> peers_;
  obs::Observability* obs_ = nullptr;

  bool degraded_ = false;
  bool keep_history_ = true;
  bool replication_enabled_ = true;
  std::uint64_t threat_replica_counter_ = 0;  ///< per-instance, deterministic
  std::unordered_set<ObjectId> degraded_updates_;
  std::vector<NodeId> degraded_view_members_;
  Stats stats_;
};

}  // namespace dedisys
