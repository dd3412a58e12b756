#include "middleware/node.h"

#include <algorithm>
#include <utility>

#include "middleware/cluster.h"
#include "util/errors.h"
#include "util/logging.h"

namespace dedisys {

namespace {

/// Server-side interceptor hooking the CCMgr into invocation processing
/// (Section 4.2.4).
class CCMInterceptor final : public Interceptor {
 public:
  CCMInterceptor(ConstraintConsistencyManager& ccm,
                 NodeObjectAccessor& accessor)
      : ccm_(&ccm), accessor_(&accessor) {}

  Value invoke(Invocation& inv, InterceptorChain& chain) override {
    ccm_->before_invocation(inv, *accessor_);
    Value result = chain.proceed(inv);
    inv.result = result;
    ccm_->after_invocation(inv, *accessor_);
    return result;
  }

  [[nodiscard]] std::string name() const override { return "CCMInterceptor"; }

 private:
  ConstraintConsistencyManager* ccm_;
  NodeObjectAccessor* accessor_;
};

/// Server-side interceptor performing update propagation after writes and
/// registering undo actions so aborted transactions restore replicas.
class ReplicationInterceptor final : public Interceptor {
 public:
  explicit ReplicationInterceptor(DedisysNode& node) : node_(&node) {}

  Value invoke(Invocation& inv, InterceptorChain& chain) override {
    ReplicationManager& repl = node_->replication();
    if (repl.replication_enabled() && !inv.nested) {
      // ADAPT component-monitor round (client + server side, Section 5.1).
      Runtime& rt = node_->cluster().runtime();
      rt.charge(rt.cost().adapt_overhead);
    }
    if (inv.mutates && inv.tx.valid() && repl.has_local_replica(inv.target)) {
      EntitySnapshot before = repl.local_replica(inv.target).snapshot();
      const bool was_marked = repl.degraded_updates().count(inv.target) != 0;
      DedisysNode* node = node_;
      node_->tx().on_rollback(inv.tx, [node, before, was_marked] {
        ReplicationManager& r = node->replication();
        if (r.has_local_replica(before.id)) {
          r.local_replica(before.id).restore(before);
          r.propagate_restore(before.id, was_marked);
        }
      });
    }
    Value result = chain.proceed(inv);
    if (inv.mutates) repl.propagate_update(inv.target, inv.tx);
    return result;
  }

  [[nodiscard]] std::string name() const override {
    return "ReplicationInterceptor";
  }

 private:
  DedisysNode* node_;
};

}  // namespace

// ---------------------------------------------------------------------------
// NodeObjectAccessor
// ---------------------------------------------------------------------------

const Entity& NodeObjectAccessor::read(ObjectId id) {
  ReplicationManager& repl = node_->replication();
  if (repl.has_local_replica(id)) return repl.local_replica(id);
  if (!repl.reachable(id)) {
    throw ObjectUnreachable("object " + to_string(id) +
                            " unreachable from node " + to_string(node_->id()));
  }
  const NodeId remote = repl.execution_node(id, /*is_write=*/false);
  Runtime& rt = node_->cluster().runtime();
  rt.charge_rpc(node_->id(), remote);
  rt.charge_rpc(remote, node_->id());
  DedisysNode* peer = node_->cluster().node_by_id(remote);
  if (peer == nullptr) {
    throw ObjectUnreachable("no kernel for node " + to_string(remote));
  }
  return peer->replication().local_replica(id);
}

Value NodeObjectAccessor::invoke(ObjectId id, const MethodSignature& method,
                                 std::vector<Value> args) {
  return node_->invoke_nested(tx_, id, method, std::move(args));
}

// ---------------------------------------------------------------------------
// DedisysNode
// ---------------------------------------------------------------------------

DedisysNode::DedisysNode(Cluster& cluster, NodeId id,
                         const NodeOptions& options)
    : cluster_(&cluster), id_(id), options_(options), obs_(&cluster.obs()) {
  Runtime& rt = cluster.runtime();
  db_ = std::make_unique<RecordStore>(rt);
  history_ = std::make_unique<ReplicaHistoryStore>(rt);
  tm_ = &cluster.tx();
  gms_ = std::make_unique<GroupMembershipService>(
      rt, id, cluster.weights_ptr(), options.flags.legacy_unidirectional_views);
  gms_->set_observability(obs_);
  gms_->subscribe(this);
  repl_ = std::make_unique<ReplicationManager>(
      id, cluster.classes(), cluster.gc(), *gms_, *db_, *history_,
      cluster.directory(), options.protocol);
  repl_->set_observability(obs_);
  repl_->set_keep_history(options.keep_history);
  repl_->set_replication_enabled(options.with_replication);

  accessor_ = std::make_unique<NodeObjectAccessor>(*this);
  Cluster* cl = cluster_;
  CcmgrWiring wiring;
  wiring.oracle = repl_.get();
  wiring.objects = accessor_.get();
  wiring.default_min = options.default_min_degree;
  wiring.obs = obs_;
  wiring.memo = options.flags.validation_memo;
  wiring.scheduler = options.flags.validation_scheduler;
  if (options.with_replication) {
    ReplicationManager* repl = repl_.get();
    wiring.threat_replicator =
        [repl](const ConsistencyThreat&) { repl->replicate_threat_record(); };
  }
  wiring.object_query =
      [cl](const std::string& class_name) { return cl->objects_of(class_name); };
  ccmgr_ = std::make_unique<ConstraintConsistencyManager>(
      cluster.constraints(), cluster.threats(), *tm_, rt, id,
      std::move(wiring));

  if (options.with_ccm) {
    server_chain_.add(std::make_shared<CCMInterceptor>(*ccmgr_, *accessor_));
  }
  server_chain_.add(std::make_shared<ReplicationInterceptor>(*this));
}

void DedisysNode::change_mode(SystemMode m) {
  if (m == mode_) return;
  const SystemMode previous = mode_;
  mode_ = m;
  if (obs::on(obs_)) {
    obs_->event(cluster_->runtime().now(), obs::TraceEventKind::ModeTransition,
                id_, {}, {}, to_string(m), "from " + to_string(previous));
  }
}

void DedisysNode::on_view_installed(const View& installed,
                                    const View& /*previous*/) {
  if (!options_.with_replication) return;  // independent node: always healthy
  if (!installed.complete) {
    change_mode(SystemMode::Degraded);
    repl_->set_degraded(true);
    ccmgr_->set_degraded(true, installed.weight_fraction);
  } else {
    if (mode_ == SystemMode::Degraded) {
      change_mode(SystemMode::Reconciling);
      if (options_.reconciliation_policy !=
          ReconciliationBusinessPolicy::Proceed) {
        threatened_cache_ = ccmgr_->threatened_objects();
        if (options_.reconciliation_policy ==
            ReconciliationBusinessPolicy::TreatAsDegraded) {
          ccmgr_->set_forced_stale(threatened_cache_);
        }
      }
    }
    repl_->set_degraded(false);
    ccmgr_->set_degraded(false, 1.0);
  }
}

bool DedisysNode::apply_reconciliation_policy(ObjectId target) {
  if (mode_ != SystemMode::Reconciling ||
      options_.reconciliation_policy ==
          ReconciliationBusinessPolicy::Proceed ||
      threatened_cache_.count(target) == 0) {
    return false;
  }
  if (options_.reconciliation_policy ==
      ReconciliationBusinessPolicy::BlockThreatened) {
    throw ReconciliationBlocked("object " + to_string(target) +
                                " is being reconciled");
  }
  return true;  // TreatAsDegraded
}

// ---------------------------------------------------------------------------
// Client API
// ---------------------------------------------------------------------------

ObjectId DedisysNode::create(TxId tx, const std::string& class_name,
                             const std::string& application,
                             std::optional<std::vector<NodeId>> replica_nodes) {
  Runtime& rt = cluster_->runtime();
  Runtime::Section section(rt);
  // Root span: the creation multicast to the replicas attaches to it.
  obs::SpanGuard span_guard(
      obs_, rt, obs::on(obs_) ? "create " + class_name : std::string(), id_,
      {}, tx);
  const SimTime start = rt.now();
  rt.charge(rt.cost().invocation_overhead);
  const ObjectId id =
      repl_->create(class_name, tx, std::move(replica_nodes), application);
  db_->put("entities", to_string(id), repl_->local_replica(id).attributes());
  if (obs::on(obs_)) {
    obs_->latency("create", rt.now() - start);
  }
  notify_created(id, class_name);
  if (tx.valid()) {
    tm_->lock(tx, id);
    ReplicationManager* repl = repl_.get();
    tm_->on_rollback(tx, [repl, id] {
      if (repl->directory().contains(id)) repl->destroy(id, TxId{});
    });
  }
  return id;
}

void DedisysNode::destroy(TxId tx, ObjectId id) {
  Runtime& rt = cluster_->runtime();
  Runtime::Section section(rt);
  obs::SpanGuard span_guard(obs_, rt, "destroy", id_, id, tx);
  const SimTime start = rt.now();
  rt.charge(rt.cost().invocation_overhead);
  if (tx.valid()) tm_->lock(tx, id);
  db_->erase("entities", to_string(id));
  repl_->destroy(id, tx);
  // A later create() may reuse this id for a fresh entity whose write stamp
  // restarts at zero; drop any cached outcomes keyed on the dead object.
  ccmgr_->invalidate_memo_object(id);
  if (obs::on(obs_)) {
    obs_->latency("destroy", rt.now() - start);
  }
  notify_deleted(id);
}

Value DedisysNode::invoke(TxId tx, ObjectId target,
                          const std::string& method_name,
                          std::vector<Value> args) {
  const ObjectDirectory::Entry& entry = cluster_->directory()->get(target);
  const ClassDescriptor& cls = cluster_->classes().get(entry.class_name);
  const MethodDescriptor& md = cls.resolve(method_name, args.size());

  Invocation inv;
  inv.target = target;
  inv.target_class = entry.class_name;
  inv.method = md.signature;
  inv.target_descriptor = &cls;
  inv.method_descriptor = &md;
  inv.args = std::move(args);
  inv.tx = tx;
  inv.client_node = id_;
  inv.is_write = md.is_write();
  inv.mutates = md.mutates();
  if (!entry.application.empty()) {
    inv.context["application"] = entry.application;
  }

  Runtime& rt = cluster_->runtime();
  Runtime::Section section(rt);
  const SimTime invoke_start = rt.now();
  const std::string span =
      obs::on(obs_) ? entry.class_name + "::" + method_name : std::string();
  // The invocation's causal root span: every event emitted while the call
  // is on the stack — validations, 2PC, GCS legs, backup applies — joins
  // this trace (a top-level call opens a fresh trace; a call made from a
  // method body nests under the ambient span).
  obs::SpanGuard span_guard(obs_, rt, span, id_, target, tx);
  if (obs::on(obs_)) {
    obs_->event(invoke_start, obs::TraceEventKind::InvocationStart, id_,
                target, tx, span, inv.is_write ? "write" : "read");
  }

  NodeId exec = repl_->execution_node(target, inv.is_write);
  if (client_monitor_ != nullptr && !inv.is_write) {
    // ADAPT client-side component monitor: reads may be redirected to any
    // reachable replica (Section 4.3).
    std::vector<NodeId> reachable;
    for (NodeId r : cluster_->directory()->get(target).replicas) {
      if (rt.reachable(id_, r)) reachable.push_back(r);
    }
    const NodeId redirected = client_monitor_->redirect(inv, exec, reachable);
    if (std::find(reachable.begin(), reachable.end(), redirected) !=
        reachable.end()) {
      exec = redirected;
    }
  }
  inv.server_node = exec;
  DedisysNode* server = exec == id_ ? this : cluster_->node_by_id(exec);
  if (server == nullptr) {
    throw ObjectUnreachable("no kernel for node " + to_string(exec));
  }

  const bool treat_degraded = server->apply_reconciliation_policy(target);

  if (exec != id_) rt.charge_rpc(id_, exec);
  rt.charge(rt.cost().invocation_overhead);
  Value result;
  try {
    if (treat_degraded) {
      // Section 3.3: treat the operation as if the partition were still in
      // place — validations run with degraded semantics and may introduce
      // new threats.
      server->ccmgr().set_degraded(
          true, server->gms().current_view().weight_fraction);
      try {
        result = server->execute_server(inv);
      } catch (...) {
        server->ccmgr().set_degraded(false, 1.0);
        throw;
      }
      server->ccmgr().set_degraded(false, 1.0);
    } else {
      result = server->execute_server(inv);
    }
  } catch (...) {
    if (obs::on(obs_)) {
      obs_->event(rt.now(), obs::TraceEventKind::InvocationEnd,
                  id_, target, tx, span, "failed");
    }
    throw;
  }
  if (exec != id_) rt.charge_rpc(exec, id_);
  if (obs::on(obs_)) {
    const SimTime end = rt.now();
    obs_->event(end, obs::TraceEventKind::InvocationEnd, id_, target, tx,
                span);
    obs_->latency(inv.is_write ? "invoke.write" : "invoke.read",
                  end - invoke_start);
  }
  return result;
}

Value DedisysNode::invoke_nested(TxId tx, ObjectId target,
                                 const MethodSignature& method,
                                 std::vector<Value> args) {
  const ObjectDirectory::Entry& entry = cluster_->directory()->get(target);
  const ClassDescriptor& cls = cluster_->classes().get(entry.class_name);
  const MethodDescriptor& md = cls.method(method);

  Invocation inv;
  inv.target = target;
  inv.target_class = entry.class_name;
  inv.method = md.signature;
  inv.target_descriptor = &cls;
  inv.method_descriptor = &md;
  inv.args = std::move(args);
  inv.tx = tx;
  inv.client_node = id_;
  inv.is_write = md.is_write();
  inv.mutates = md.mutates();
  inv.nested = true;
  if (!entry.application.empty()) {
    inv.context["application"] = entry.application;
  }

  Runtime& rt = cluster_->runtime();
  Runtime::Section section(rt);
  obs::SpanGuard span_guard(
      obs_, rt,
      obs::on(obs_) ? entry.class_name + "::" + method.name : std::string(),
      id_, target, tx);

  const NodeId exec = repl_->execution_node(target, inv.is_write);
  inv.server_node = exec;
  DedisysNode* server = exec == id_ ? this : cluster_->node_by_id(exec);
  if (server == nullptr) {
    throw ObjectUnreachable("no kernel for node " + to_string(exec));
  }

  if (exec != id_) rt.charge_rpc(id_, exec);
  // Internal calls are intercepted through the AOP framework rather than
  // the full container proxy (Section 4.2.4) — much cheaper.
  rt.charge(rt.cost().aop_interception);
  Value result = server->execute_server(inv);
  if (exec != id_) rt.charge_rpc(exec, id_);
  return result;
}

Value DedisysNode::execute_server(Invocation& inv) {
  for (auto& m : server_monitors_) m->before_invocation(inv);
  Value result = server_chain_.execute(
      inv, [this](Invocation& i) { return terminal_dispatch(i); });
  for (auto& m : server_monitors_) m->after_invocation(inv);
  return result;
}

Value DedisysNode::terminal_dispatch(Invocation& inv) {
  const MethodDescriptor& md = *inv.method_descriptor;
  Entity& entity = repl_->local_replica(inv.target);

  if (inv.is_write && inv.tx.valid()) tm_->lock(inv.tx, inv.target);

  const TxId previous_tx = accessor_->current_tx();
  accessor_->set_current_tx(inv.tx);
  MethodContext mctx{*accessor_, inv.tx, id_,
                     obs::on(obs_) ? obs_->current() : obs::TraceContext{}};
  Value result = md.body ? md.body(entity, mctx, inv.args) : Value{};
  accessor_->set_current_tx(previous_tx);

  if (inv.mutates) {
    // Container-managed persistence: flush the dirty entity state.
    db_->put("entities", to_string(inv.target), entity.attributes());
    entity.touch(cluster_->runtime().now());
  }
  inv.result = result;
  return result;
}

}  // namespace dedisys
