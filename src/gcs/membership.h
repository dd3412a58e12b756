// Group membership service (GMS).
//
// One instance runs per node.  It watches the runtime for
// topology changes, derives the node's current view and notifies listeners
// (the replication service, the middleware kernel).  Node weights support
// the weighted-partition mechanism of Section 5.5.2: the GMS computes the
// current partition's weight relative to the whole system, which
// partition-sensitive constraints use to apportion partitionable resources.
#pragma once

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "gcs/view.h"
#include "obs/observability.h"
#include "runtime/runtime.h"
#include "util/ids.h"

namespace dedisys {

/// Static per-node weights shared by all GMS instances of a cluster
/// (Gifford-style weighted voting, Section 5.5.2).
class NodeWeights {
 public:
  void set(NodeId node, double weight) { weights_[node] = weight; }

  [[nodiscard]] double of(NodeId node) const {
    auto it = weights_.find(node);
    return it == weights_.end() ? 1.0 : it->second;
  }

  [[nodiscard]] double total(const std::vector<NodeId>& nodes) const {
    double sum = 0;
    for (NodeId n : nodes) sum += of(n);
    return sum;
  }

 private:
  std::unordered_map<NodeId, double> weights_;
};

class GroupMembershipService : public TopologyListener {
 public:
  GroupMembershipService(Runtime& rt, NodeId self,
                         std::shared_ptr<NodeWeights> weights)
      : rt_(rt), self_(self), weights_(std::move(weights)) {
    rt_.subscribe(this);
    recompute(/*force=*/true);
  }

  ~GroupMembershipService() override { rt_.unsubscribe(this); }

  GroupMembershipService(const GroupMembershipService&) = delete;
  GroupMembershipService& operator=(const GroupMembershipService&) = delete;

  [[nodiscard]] NodeId self() const { return self_; }
  [[nodiscard]] const View& current_view() const { return view_; }

  void subscribe(ViewListener* listener) { listeners_.push_back(listener); }

  /// Wires the cluster's observability hub; installed views are then
  /// recorded as view.change trace events.  The already-installed view is
  /// announced immediately: the initial recompute happens in the
  /// constructor, before wiring, and offline trace analysis needs every
  /// node's baseline membership to judge later divergence.
  void set_observability(obs::Observability* obs) {
    obs_ = obs;
    record_view();
  }

  void on_topology_changed() override { recompute(/*force=*/false); }

 private:
  void record_view() {
    if (!obs::on(obs_) || !view_.id.valid()) return;
    std::string members;
    for (NodeId m : view_.members) {
      if (!members.empty()) members += ',';
      members += to_string(m);
    }
    obs_->event(rt_.now(), obs::TraceEventKind::ViewChange, self_,
                {}, {}, "view " + to_string(view_.id),
                "members={" + members + "} complete=" +
                    (view_.complete ? "true" : "false"));
  }

  void recompute(bool force) {
    // Views must contain only *mutually* reachable nodes: under a one-way
    // cut, outbound reachability alone lets a node that cannot send to
    // the primary form a smaller view and elect a second primary inside
    // the same strongly-connected component.
    std::vector<NodeId> members = rt_.membership_set(self_);
    std::sort(members.begin(), members.end());
    if (!force && members == view_.members) return;

    View previous = view_;
    view_.id = ViewId{next_view_id_++};
    view_.members = std::move(members);
    view_.complete = view_.members.size() == rt_.nodes().size();
    const double total = weights_->total(rt_.nodes());
    view_.weight_fraction =
        total > 0 ? weights_->total(view_.members) / total : 1.0;
    record_view();
    if (!force) {
      for (auto* l : listeners_) l->on_view_installed(view_, previous);
    }
  }

  Runtime& rt_;
  NodeId self_;
  std::shared_ptr<NodeWeights> weights_;
  obs::Observability* obs_ = nullptr;
  View view_;
  std::uint64_t next_view_id_ = 1;
  std::vector<ViewListener*> listeners_;
};

}  // namespace dedisys
