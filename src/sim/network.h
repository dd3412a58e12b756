// Simulated cluster network with typed fault injection.
//
// Nodes communicate only through this class, which decides reachability
// from the current partition layout and advances the shared virtual clock
// by the configured message costs.  Faults follow the model of Section 1.1
// (pause-crash nodes, fair-lossy links): beyond clean partitions and
// crashes, seeded per-link probabilities can drop, delay or duplicate
// individual messages at delivery time.  All randomness flows through one
// seeded generator, so the same seed and fault schedule reproduce a
// byte-identical run; with no link faults configured the generator is
// never consulted and behaviour matches the fault-free network exactly.
//
// Fault operations are typed values (`fault::Partition`, `fault::Crash`,
// `fault::Restart`, `fault::Heal`, `fault::SetLinkFaults[On]`) applied via
// `apply()`, which returns the previous `Topology` so callers can restore
// it; there is no other fault-mutation entry point.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "runtime/runtime.h"
#include "sim/cost_model.h"
#include "sim/fault_plan.h"
#include "util/ids.h"
#include "util/rng.h"
#include "util/sim_clock.h"

namespace dedisys {

// TopologyListener and Delivery live at the runtime seam
// (src/runtime/runtime.h); SimNetwork implements the sim side of both.

/// Value snapshot of the connectivity state: partition-group assignment,
/// the set of alive nodes, and any one-way link cuts.  `apply()` returns
/// the previous topology so a fault can be undone by applying the returned
/// value.
struct Topology {
  std::unordered_map<NodeId, int> group_of;
  std::unordered_set<NodeId> alive;
  std::set<std::pair<std::uint64_t, std::uint64_t>> cut_links;
};

class SimNetwork {
 public:
  /// Per-message delivery decision for one directed link (the runtime-seam
  /// value type; kept as a member alias for existing callers).
  using Delivery = dedisys::Delivery;

  /// Counters of injected faults and per-message fault outcomes.
  struct FaultStats {
    std::uint64_t messages_dropped = 0;
    std::uint64_t messages_duplicated = 0;
    std::uint64_t messages_delayed = 0;
    std::uint64_t messages_relayed = 0;  ///< delivered around a one-way cut
    std::uint64_t partitions = 0;
    std::uint64_t heals = 0;
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;
    std::uint64_t asym_cuts = 0;
    std::uint64_t link_heals = 0;
    std::uint64_t flaps = 0;
    std::uint64_t slow_changes = 0;
    std::uint64_t skew_changes = 0;
  };

  SimNetwork(SimClock& clock, CostModel cost) : clock_(clock), cost_(cost) {}

  SimClock& clock() { return clock_; }
  const CostModel& cost() const { return cost_; }

  // -- membership ---------------------------------------------------------

  /// Registers a node; newly added nodes are alive and in the sole
  /// partition group unless a partition is already in force.
  void add_node(NodeId node) {
    nodes_.push_back(node);
    group_of_[node] = 0;
    alive_.insert(node);
  }

  [[nodiscard]] const std::vector<NodeId>& nodes() const { return nodes_; }
  [[nodiscard]] bool is_alive(NodeId node) const {
    return alive_.count(node) != 0;
  }

  // -- typed fault API ------------------------------------------------------

  /// Splits the cluster into the given groups.  Nodes not mentioned keep
  /// their previous group.  Notifies topology listeners.
  Topology apply(const fault::Partition& op) {
    Topology previous = topology();
    int next_group = 1;
    for (const auto& g : op.groups) {
      for (NodeId n : g) group_of_[n] = next_group;
      ++next_group;
    }
    ++fault_stats_.partitions;
    notify();
    return previous;
  }

  /// Repairs all link failures — partition groups and one-way cuts alike:
  /// every alive node is mutually reachable afterwards.
  Topology apply(const fault::Heal& /*op*/) {
    Topology previous = topology();
    for (auto& [node, group] : group_of_) group = 0;
    cut_links_.clear();
    asym_active_ = false;
    ++fault_stats_.heals;
    notify();
    return previous;
  }

  /// Cuts the given directed links (gray failure: asymmetric partition).
  Topology apply(const fault::AsymPartition& op) {
    Topology previous = topology();
    for (const OneWayCut& c : op.cuts) {
      cut_links_.insert({c.from.value(), c.to.value()});
    }
    asym_active_ = !cut_links_.empty();
    ++fault_stats_.asym_cuts;
    notify();
    return previous;
  }

  /// Repairs directed link cuts; an empty list repairs all of them.
  Topology apply(const fault::HealLinks& op) {
    Topology previous = topology();
    if (op.cuts.empty()) {
      cut_links_.clear();
    } else {
      for (const OneWayCut& c : op.cuts) {
        cut_links_.erase({c.from.value(), c.to.value()});
      }
    }
    asym_active_ = !cut_links_.empty();
    ++fault_stats_.link_heals;
    notify();
    return previous;
  }

  /// Immediate effect of a flap: both directions of the link go down.  The
  /// FaultEngine schedules the subsequent up/down toggles.
  Topology apply(const fault::Flap& op) {
    ++fault_stats_.flaps;
    Topology previous =
        apply(fault::AsymPartition{{{op.a, op.b}, {op.b, op.a}}});
    --fault_stats_.asym_cuts;  // counted as a flap, not a plain cut
    return previous;
  }

  /// Slow-but-alive node: message legs touching the node cost `multiplier`
  /// times their nominal duration.  Not a topology change — the node stays
  /// in every view; views must NOT be recomputed (that is the gray part).
  Topology apply(const fault::SlowNode& op) {
    Topology previous = topology();
    if (op.multiplier > 1.0) {
      slow_factor_[op.node.value()] = op.multiplier;
    } else {
      slow_factor_.erase(op.node.value());
    }
    slow_active_ = !slow_factor_.empty();
    ++fault_stats_.slow_changes;
    return previous;
  }

  /// Per-replica clock skew: `local_now(node)` reads `offset` ahead of the
  /// shared clock.  Not a topology change.
  Topology apply(const fault::ClockSkew& op) {
    Topology previous = topology();
    if (op.offset != 0) {
      skew_[op.node.value()] = op.offset;
    } else {
      skew_.erase(op.node.value());
    }
    ++fault_stats_.skew_changes;
    return previous;
  }

  /// Pause-crash of a server node (Section 1.1): unreachable until restart.
  Topology apply(const fault::Crash& op) {
    Topology previous = topology();
    alive_.erase(op.node);
    ++fault_stats_.crashes;
    notify();
    return previous;
  }

  /// Brings a crashed node back; it rejoins its partition group.  State
  /// recovery is the caller's concern (Cluster::inject wires it).
  Topology apply(const fault::Restart& op) {
    Topology previous = topology();
    alive_.insert(op.node);
    ++fault_stats_.restarts;
    notify();
    return previous;
  }

  /// Sets the cluster-wide default link fault probabilities.
  Topology apply(const fault::SetLinkFaults& op) {
    Topology previous = topology();
    default_faults_ = op.faults;
    refresh_faults_active();
    return previous;
  }

  /// Overrides one directed link's fault probabilities.
  Topology apply(const fault::SetLinkFaultsOn& op) {
    Topology previous = topology();
    link_faults_[{op.from.value(), op.to.value()}] = op.faults;
    refresh_faults_active();
    return previous;
  }

  /// Applies any typed fault operation.
  Topology apply(const fault::Op& op) {
    return std::visit([this](const auto& concrete) { return apply(concrete); },
                      op);
  }

  /// Restores a previously returned topology snapshot.
  Topology apply(const Topology& target) {
    Topology previous = topology();
    group_of_ = target.group_of;
    alive_ = target.alive;
    cut_links_ = target.cut_links;
    asym_active_ = !cut_links_.empty();
    notify();
    return previous;
  }

  /// Current connectivity snapshot.
  [[nodiscard]] Topology topology() const {
    return {group_of_, alive_, cut_links_};
  }

  /// Clears every configured link fault (default and per-link overrides).
  void clear_link_faults() {
    default_faults_ = LinkFaults{};
    link_faults_.clear();
    refresh_faults_active();
  }

  // -- seeded per-message faults --------------------------------------------

  /// Seeds the generator behind every probabilistic delivery decision.
  void seed_faults(std::uint64_t seed) { rng_ = Rng(seed); }

  /// True when any link carries non-zero fault probabilities.  The fast
  /// path through delivery_verdict consults no randomness while false, so
  /// fault-free runs are bit-identical to the plain network.
  [[nodiscard]] bool faults_active() const { return faults_active_; }

  /// Effective fault probabilities of the directed link `from -> to`
  /// (per-link override when present, else the cluster-wide default).
  [[nodiscard]] const LinkFaults& effective_faults(NodeId from,
                                                   NodeId to) const {
    auto it = link_faults_.find({from.value(), to.value()});
    return it == link_faults_.end() ? default_faults_ : it->second;
  }

  /// Draws this message's fate on the directed link `from -> to`.  Local
  /// delivery (from == to) is never faulted.  Consumes randomness only
  /// while faults are active.
  Delivery delivery_verdict(NodeId from, NodeId to) {
    if (!faults_active_ || from == to) return Delivery{};
    const LinkFaults& f = effective_faults(from, to);
    if (!f.any()) return Delivery{};
    Delivery verdict;
    if (f.drop > 0.0 && rng_.chance(f.drop)) {
      verdict.delivered = false;
      verdict.copies = 0;
      ++fault_stats_.messages_dropped;
      return verdict;
    }
    if (f.duplicate > 0.0 && rng_.chance(f.duplicate)) {
      verdict.copies = 2;
      ++fault_stats_.messages_duplicated;
    }
    if (f.delay_prob > 0.0 && f.delay > 0 && rng_.chance(f.delay_prob)) {
      verdict.extra_delay = f.delay;
      ++fault_stats_.messages_delayed;
    }
    return verdict;
  }

  /// Shared generator for fault-related decisions outside this class
  /// (e.g. multicast receiver reordering in the GCS).
  Rng& fault_rng() { return rng_; }

  [[nodiscard]] const FaultStats& fault_stats() const { return fault_stats_; }

  // -- reachability -------------------------------------------------------

  /// Direct deliverability of the link `from -> to`: both alive, same
  /// partition group and the directed link not cut.
  [[nodiscard]] bool link_open(NodeId from, NodeId to) const {
    if (!is_alive(from) || !is_alive(to)) return false;
    if (group_of_.at(from) != group_of_.at(to)) return false;
    return !asym_active_ ||
           cut_links_.count({from.value(), to.value()}) == 0;
  }

  /// Deliverability of `from -> to`, routing around one-way cuts: true when
  /// the direct link is open or a directed path of open links exists (a
  /// message resent forever along an overlay is eventually delivered,
  /// Section 1.1).  With no cuts active this is the plain group test.
  [[nodiscard]] bool reachable(NodeId from, NodeId to) const {
    if (link_open(from, to)) return true;
    return asym_active_ && hops(from, to) > 0;
  }

  /// Shortest directed path length from `from` to `to` over open links
  /// (1 = direct); 0 when undeliverable.  BFS in node-registration order,
  /// so results are deterministic.
  [[nodiscard]] std::size_t hops(NodeId from, NodeId to) const {
    if (from == to) return is_alive(from) ? 1 : 0;
    if (link_open(from, to)) return 1;
    if (!asym_active_ || !is_alive(from) || !is_alive(to)) return 0;
    std::unordered_map<std::uint64_t, std::size_t> dist;
    dist[from.value()] = 0;
    std::deque<NodeId> frontier{from};
    while (!frontier.empty()) {
      const NodeId at = frontier.front();
      frontier.pop_front();
      const std::size_t d = dist[at.value()];
      for (NodeId n : nodes_) {
        if (dist.count(n.value()) != 0 || !link_open(at, n)) continue;
        if (n == to) return d + 1;  // d edges to `at`, one more to `to`
        dist[n.value()] = d + 1;
        frontier.push_back(n);
      }
    }
    return 0;
  }

  /// All alive nodes this node can deliver to (routing included), with
  /// `from` itself.  NOTE: under one-way cuts this set is asymmetric — use
  /// `mutually_reachable_set` for anything membership- or quorum-like.
  [[nodiscard]] std::vector<NodeId> reachable_set(NodeId from) const {
    std::vector<NodeId> out;
    if (!is_alive(from)) return out;
    for (NodeId n : nodes_) {
      if (reachable(from, n)) out.push_back(n);
    }
    return out;
  }

  /// Nodes that can exchange messages with `from` in BOTH directions
  /// (the strongly-connected component of the routed delivery graph).
  /// This is the correct basis for view formation and primary election:
  /// a one-way partition must not let a node count members it can reach
  /// but cannot hear from.  Identical to `reachable_set` when no one-way
  /// cuts are active.
  [[nodiscard]] std::vector<NodeId> mutually_reachable_set(NodeId from) const {
    if (!asym_active_) return reachable_set(from);
    std::vector<NodeId> out;
    if (!is_alive(from)) return out;
    for (NodeId n : nodes_) {
      if (reachable(from, n) && reachable(n, from)) out.push_back(n);
    }
    return out;
  }

  [[nodiscard]] bool mutually_reachable(NodeId a, NodeId b) const {
    return reachable(a, b) && reachable(b, a);
  }

  [[nodiscard]] bool fully_connected() const {
    for (NodeId n : nodes_) {
      if (!is_alive(n)) return false;
      if (group_of_.at(n) != group_of_.at(nodes_.front())) return false;
    }
    return cut_links_.empty();
  }

  // -- gray-failure state ---------------------------------------------------

  /// Slowdown multiplier of a node (1.0 unless a fault::SlowNode is live).
  [[nodiscard]] double slow_factor(NodeId node) const {
    if (!slow_active_) return 1.0;
    auto it = slow_factor_.find(node.value());
    return it == slow_factor_.end() ? 1.0 : it->second;
  }

  /// True while any node carries a slowdown multiplier.
  [[nodiscard]] bool slow_active() const { return slow_active_; }

  /// Scales a duration by the slowest endpoint of a message leg.  Returns
  /// the duration untouched (no float math) while no slow node exists, so
  /// fault-free runs stay byte-identical.
  [[nodiscard]] SimDuration scaled(SimDuration d, NodeId a, NodeId b) const {
    if (!slow_active_) return d;
    return scaled_cost(d, std::max(slow_factor(a), slow_factor(b)));
  }

  /// Cost of one point-to-point message `from -> to`: nominal latency times
  /// the routed hop count (relaying around a one-way cut pays per hop),
  /// scaled by the slowest endpoint.
  [[nodiscard]] SimDuration rpc_cost(NodeId from, NodeId to) const {
    SimDuration base = cost_.rpc_latency;
    if (asym_active_ && from != to && !link_open(from, to)) {
      const std::size_t h = hops(from, to);
      if (h > 1) base *= static_cast<SimDuration>(h);
    }
    return scaled(base, from, to);
  }

  /// Clock-skew offset of a node (fault::ClockSkew; 0 when unskewed).
  [[nodiscard]] SimDuration skew_of(NodeId node) const {
    auto it = skew_.find(node.value());
    return it == skew_.end() ? 0 : it->second;
  }

  /// The node's local notion of now: the shared virtual clock plus its
  /// skew offset.  Feeds per-replica update stamps (freshness estimation),
  /// never the event schedule itself.
  [[nodiscard]] SimTime local_now(NodeId node) const {
    return clock_.now() + skew_of(node);
  }

  /// Directed links currently cut (asymmetric partitions, flap downs).
  [[nodiscard]] const std::set<std::pair<std::uint64_t, std::uint64_t>>&
  cut_links() const {
    return cut_links_;
  }

  // -- message costs --------------------------------------------------------

  /// Charges the cost of one point-to-point message; returns false (message
  /// lost) when the destination is unreachable.  Relayed delivery around a
  /// one-way cut pays per hop; slow endpoints scale the latency.
  bool charge_rpc(NodeId from, NodeId to) {
    if (!reachable(from, to)) return false;
    if (from != to) {
      if (asym_active_ && !link_open(from, to)) ++fault_stats_.messages_relayed;
      clock_.advance(rpc_cost(from, to));
    }
    return true;
  }

  /// Charges a synchronous acked multicast from `from` to `receivers`
  /// (self excluded from per-receiver cost); returns the number reached.
  std::size_t charge_multicast(NodeId from,
                               const std::vector<NodeId>& receivers) {
    std::size_t reached = 0;
    SimDuration per_receiver = 0;
    for (NodeId r : receivers) {
      if (r == from || !reachable(from, r)) continue;
      ++reached;
      SimDuration leg = cost_.multicast_per_receiver;
      if (asym_active_ && !link_open(from, r)) {
        // Relay detour: extra point-to-point hops beyond the direct leg.
        const std::size_t h = hops(from, r);
        if (h > 1) {
          leg += static_cast<SimDuration>(h - 1) * cost_.rpc_latency;
          ++fault_stats_.messages_relayed;
        }
      }
      per_receiver += scaled(leg, from, r);
    }
    if (reached > 0) {
      clock_.advance(scaled(cost_.multicast_base, from, from) + per_receiver);
    }
    return reached;
  }

  // -- listeners ------------------------------------------------------------

  void subscribe(TopologyListener* listener) { listeners_.push_back(listener); }
  void unsubscribe(TopologyListener* listener) {
    listeners_.erase(std::remove(listeners_.begin(), listeners_.end(), listener),
                     listeners_.end());
  }

 private:
  void notify() {
    for (auto* l : listeners_) l->on_topology_changed();
  }

  void refresh_faults_active() {
    faults_active_ = default_faults_.any();
    for (const auto& [link, f] : link_faults_) {
      if (faults_active_) break;
      faults_active_ = f.any();
    }
  }

  SimClock& clock_;
  CostModel cost_;
  std::vector<NodeId> nodes_;
  std::unordered_map<NodeId, int> group_of_;
  std::unordered_set<NodeId> alive_;
  std::vector<TopologyListener*> listeners_;

  Rng rng_{0x5DEDC0DEULL};
  bool faults_active_ = false;
  LinkFaults default_faults_;
  /// Directed-link overrides, ordered so iteration is deterministic.
  std::map<std::pair<std::uint64_t, std::uint64_t>, LinkFaults> link_faults_;
  FaultStats fault_stats_;

  // Gray-failure state.  All maps are ordered, so iteration (and therefore
  // every derived schedule) is deterministic; the *_active_ flags keep the
  // fault-free fast path free of lookups and float math.
  std::set<std::pair<std::uint64_t, std::uint64_t>> cut_links_;
  bool asym_active_ = false;
  std::map<std::uint64_t, double> slow_factor_;
  bool slow_active_ = false;
  std::map<std::uint64_t, SimDuration> skew_;
};

}  // namespace dedisys
