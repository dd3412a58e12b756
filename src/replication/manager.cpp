#include "replication/manager.h"

#include <algorithm>

#include "util/errors.h"

namespace dedisys {

ReplicationManager::ReplicationManager(
    NodeId self, const ClassRegistry& classes, GroupCommunication& gc,
    GroupMembershipService& gms, RecordStore& db, ReplicaHistoryStore& history,
    std::shared_ptr<ObjectDirectory> directory, ReplicationProtocol protocol)
    : self_(self),
      classes_(classes),
      gc_(gc),
      gms_(gms),
      db_(db),
      history_(&history),
      directory_(std::move(directory)),
      protocol_(protocol) {}

void ReplicationManager::connect_peers(std::vector<ReplicationManager*> peers) {
  peers_.clear();
  for (auto* p : peers) {
    if (p != nullptr) peers_[p->self()] = p;
  }
}

void ReplicationManager::set_degraded(bool degraded) {
  if (degraded && !degraded_) degraded_updates_.clear();
  if (degraded) degraded_view_members_ = gms_.current_view().members;
  degraded_ = degraded;
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

ObjectId ReplicationManager::create(
    const std::string& class_name, TxId /*tx*/,
    std::optional<std::vector<NodeId>> replica_nodes,
    const std::string& application) {
  const ClassDescriptor& cls = classes_.get(class_name);
  const ObjectId id = directory_->allocate();

  std::vector<NodeId> replicas =
      replication_enabled_ ? replica_nodes.value_or(gc_.runtime().nodes())
                           : std::vector<NodeId>{self_};
  std::sort(replicas.begin(), replicas.end());
  directory_->add(id, ObjectDirectory::Entry{class_name, self_, replicas,
                                             application});

  replicas_[id] = std::make_unique<Entity>(id, cls);

  if (replication_enabled_) {
    // Replica bookkeeping: JNDI name, primary key and the serialized
    // creation request must be persisted (Section 5.1).
    gc_.runtime().charge(gc_.runtime().cost().replica_create_bookkeeping);
    db_.put("replicas", to_string(id),
            AttributeMap{{"class", Value{class_name}},
                         {"primary", Value{static_cast<std::int64_t>(
                                         self_.value())}}});
    // Propagate the creation synchronously to reachable replica holders.
    const EntitySnapshot snap = replicas_[id]->snapshot();
    gc_.multicast(self_, reachable_replicas(directory_->get(id)),
                  [&](NodeId n) { peer(n)->apply_created(snap); });
  }
  return id;
}

void ReplicationManager::destroy(ObjectId id, TxId /*tx*/) {
  const ObjectDirectory::Entry entry = directory_->get(id);
  if (replication_enabled_) {
    gc_.multicast(self_, reachable_replicas(entry),
                  [&](NodeId n) { peer(n)->apply_destroyed(id); });
    db_.erase("replicas", to_string(id));
  }
  replicas_.erase(id);
  directory_->remove(id);
}

// ---------------------------------------------------------------------------
// Replica access and routing
// ---------------------------------------------------------------------------

Entity& ReplicationManager::local_replica(ObjectId id) {
  auto it = replicas_.find(id);
  if (it == replicas_.end()) {
    throw ObjectUnreachable("no local replica of " + to_string(id) +
                            " on node " + to_string(self_));
  }
  return *it->second;
}

const Entity& ReplicationManager::local_replica(ObjectId id) const {
  auto it = replicas_.find(id);
  if (it == replicas_.end()) {
    throw ObjectUnreachable("no local replica of " + to_string(id) +
                            " on node " + to_string(self_));
  }
  return *it->second;
}

bool ReplicationManager::partition_has_majority() const {
  return gms_.current_view().weight_fraction > 0.5;
}

std::vector<NodeId> ReplicationManager::reachable_replicas(
    const ObjectDirectory::Entry& entry) const {
  const View& view = gms_.current_view();
  std::vector<NodeId> out;
  for (NodeId n : entry.replicas) {
    if (view.contains(n)) out.push_back(n);
  }
  return out;
}

NodeId ReplicationManager::temporary_primary(
    const ObjectDirectory::Entry& entry) const {
  const View& view = gms_.current_view();
  if (view.contains(entry.designated_primary)) {
    return entry.designated_primary;
  }
  const std::vector<NodeId> here = reachable_replicas(entry);
  if (here.empty()) {
    throw ObjectUnreachable("no reachable replica to act as primary");
  }
  return here.front();  // deterministic: lowest reachable replica node
}

NodeId ReplicationManager::execution_node(ObjectId id, bool is_write) const {
  const ObjectDirectory::Entry& entry = directory_->get(id);

  if (!is_write) {
    // Reads are always performed locally when a replica exists
    // (Section 4.3); otherwise on the nearest reachable replica.
    if (has_local_replica(id) && gms_.current_view().contains(self_)) {
      return self_;
    }
    const std::vector<NodeId> here = reachable_replicas(entry);
    if (here.empty()) {
      throw ObjectUnreachable("no reachable replica of " + to_string(id));
    }
    return here.front();
  }

  switch (protocol_) {
    case ReplicationProtocol::PrimaryBackup:
      // Primary-partition rule: only the majority partition may write; it
      // re-elects a primary when the designated one is unreachable.
      if (!degraded_) return temporary_primary(entry);
      if (!partition_has_majority()) {
        throw ObjectUnreachable(
            "write blocked: not in the primary partition (primary-backup)");
      }
      return temporary_primary(entry);
    case ReplicationProtocol::PrimaryPartition:
      // P4: every partition elects a temporary primary per object.
      return temporary_primary(entry);
    case ReplicationProtocol::AdaptiveVoting:
      // Adapted quorums allow writes in every partition, charged with an
      // extra quorum round (performed in propagate_update).
      return temporary_primary(entry);
  }
  throw ObjectUnreachable("unknown protocol");
}

// ---------------------------------------------------------------------------
// Update propagation
// ---------------------------------------------------------------------------

void ReplicationManager::propagate_update(ObjectId id, TxId tx) {
  if (!replication_enabled_) return;
  Entity& primary_copy = local_replica(id);
  Runtime& rt = gc_.runtime();
  // Replication span: the multicast leg and every backup apply nested
  // inside it inherit the writing invocation's trace.
  obs::SpanGuard span_guard(obs_, rt, "replication.propagate", self_, id,
                            tx);
  const SimTime propagate_start = rt.now();

  // Persist per-replica version metadata for this update.
  db_.put("replica_versions", to_string(id),
          AttributeMap{{"version", Value{static_cast<std::int64_t>(
                                       primary_copy.version())}}});
  rt.charge(rt.cost().state_extraction);
  // Stamp with this node's *local* clock: under fault::ClockSkew the stamp
  // feeding the Section 4.2.1 freshness estimation drifts, while versions
  // (and hence reconciliation) stay skew-proof.
  primary_copy.touch(rt.local_now(self_));
  const EntitySnapshot snap = primary_copy.snapshot();

  if (protocol_ == ReplicationProtocol::AdaptiveVoting) {
    // Gather a write quorum before applying (one extra message round).
    rt.charge(rt.cost().rpc_latency * 2);
  }

  const std::vector<NodeId> targets =
      reachable_replicas(directory_->get(id));
  std::size_t backups = 0;
  for (NodeId n : targets) {
    if (n != self_) ++backups;
  }
  const std::size_t reached = gc_.multicast(
      self_, targets, [&](NodeId n) { peer(n)->apply_propagated(snap, tx); });
  if (reached > 0) {
    // Backups apply the update in parallel; the primary waits for the
    // slowest confirmation (Section 5.1).
    rt.charge(rt.cost().backup_apply);
  }
  ++stats_.updates_propagated;
  if (obs::on(obs_)) {
    obs_->event(rt.now(), obs::TraceEventKind::ReplicaPropagate, self_, id,
                tx, "update", std::to_string(reached) + " backups");
    obs_->latency("replica.propagate", rt.now() - propagate_start);
  }

  // Mark the object for reconciliation when degraded, and also when link
  // faults made the propagation incomplete (retries exhausted on some
  // backup): the reconciler then redelivers the latest state after heal.
  if (degraded_ || reached < backups) {
    degraded_updates_.insert(id);
    if (degraded_ && keep_history_) {
      history_->append(snap);
      ++stats_.history_records;
    }
  }
}

void ReplicationManager::propagate_restore(ObjectId id, bool keep_mark) {
  if (!replication_enabled_) return;
  Entity& local = local_replica(id);
  Runtime& rt = gc_.runtime();
  obs::SpanGuard span_guard(obs_, rt, "replication.restore", self_, id);
  rt.charge(rt.cost().state_extraction);
  local.touch(rt.local_now(self_));
  const EntitySnapshot snap = local.snapshot();
  const std::size_t reached =
      gc_.multicast(self_, reachable_replicas(directory_->get(id)),
                    [&](NodeId n) {
                      ReplicationManager* p = peer(n);
                      if (p != nullptr) {
                        p->apply_snapshot(snap);
                        // the aborted update never happened, logically
                        if (!keep_mark) p->degraded_updates_.erase(snap.id);
                      }
                    });
  if (reached > 0) rt.charge(rt.cost().backup_apply);
  // Undo also cancels this object's degraded-write mark on this node: the
  // net effect of the aborted transaction is no update.  An update
  // committed before it keeps the mark, or the reconciler would skip the
  // object and leave the partitions' replicas divergent.
  if (!keep_mark) degraded_updates_.erase(id);
}

void ReplicationManager::replicate_threat_record() {
  const View& view = gms_.current_view();
  gc_.multicast(self_, view.members, [&](NodeId n) {
    ReplicationManager* p = peer(n);
    if (p != nullptr) {
      // Each partition member durably stores the same three records as
      // the originating node (threat row + associated-object rows).
      const std::string key = to_string(self_) + "/" +
                              std::to_string(++threat_replica_counter_);
      p->db_.put("threat_replicas", key, {});
      p->db_.put("threat_replicas", key + "/objects", {});
      p->db_.put("threat_replicas", key + "/appdata", {});
    }
  });
}

void ReplicationManager::apply_propagated(const EntitySnapshot& snap,
                                          TxId tx) {
  Runtime& rt = gc_.runtime();
  // Backup-side span: runs inside the primary's multicast deliver call, so
  // it nests under the gcs.multicast span of the originating trace.
  obs::SpanGuard span_guard(obs_, rt, "replication.apply", self_, snap.id,
                            tx);
  auto it = replicas_.find(snap.id);
  const bool created = it == replicas_.end();
  if (created) {
    apply_created(snap);
    it = replicas_.find(snap.id);
  }
  // Idempotent application: every update carries the entity version, so a
  // duplicated or retransmitted propagation (same or older version than
  // the local copy) is a no-op.  Distinct updates of one object always
  // carry distinct versions, hence this never masks real state.
  if (!created && it->second->version() >= snap.version) {
    ++stats_.stale_skipped;
    if (obs::on(obs_)) {
      obs_->event(rt.now(), obs::TraceEventKind::MsgDeduped, self_, snap.id,
                  {}, "replication",
                  "stale propagation v" + std::to_string(snap.version) +
                      " <= local v" + std::to_string(it->second->version()));
    }
    return;
  }
  it->second->restore(snap);
  it->second->touch(rt.local_now(self_));
  ++stats_.backups_applied;
  if (degraded_) degraded_updates_.insert(snap.id);
}

void ReplicationManager::apply_created(const EntitySnapshot& snap) {
  if (replicas_.count(snap.id) != 0) return;
  const ClassDescriptor& cls = classes_.get(snap.class_name);
  auto entity = std::make_unique<Entity>(snap.id, cls);
  entity->restore(snap);
  replicas_[snap.id] = std::move(entity);
}

void ReplicationManager::apply_destroyed(ObjectId id) { replicas_.erase(id); }

void ReplicationManager::apply_snapshot(const EntitySnapshot& snap) {
  auto it = replicas_.find(snap.id);
  if (it == replicas_.end()) {
    apply_created(snap);
  } else {
    it->second->restore(snap);
  }
}

// ---------------------------------------------------------------------------
// StalenessOracle
// ---------------------------------------------------------------------------

bool ReplicationManager::possibly_stale(ObjectId id) const {
  if (!degraded_) return false;
  if (!directory_->contains(id)) return false;
  const ObjectDirectory::Entry& entry = directory_->get(id);
  const View& view = gms_.current_view();
  bool all_here = true;
  for (NodeId n : entry.replicas) {
    if (!view.contains(n)) {
      all_here = false;
      break;
    }
  }
  if (all_here) return false;  // no other partition can update this object

  switch (protocol_) {
    case ReplicationProtocol::PrimaryBackup:
      // Writes only happen in the majority partition; inside it, local
      // views are authoritative.
      return !partition_has_majority();
    case ReplicationProtocol::PrimaryPartition:
    case ReplicationProtocol::AdaptiveVoting:
      // Writes may happen in every partition (Section 3.1: "objects are
      // possibly stale in every network partition").
      return true;
  }
  return true;
}

bool ReplicationManager::reachable(ObjectId id) const {
  if (!directory_->contains(id)) return false;
  if (has_local_replica(id)) return true;
  return !reachable_replicas(directory_->get(id)).empty();
}

ReplicationManager* ReplicationManager::peer(NodeId node) const {
  auto it = peers_.find(node);
  return it == peers_.end() ? nullptr : it->second;
}

}  // namespace dedisys
