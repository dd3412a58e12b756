// Deterministic-simulation backend of the Runtime seam.
//
// SimRuntime owns the whole discrete-event substrate: the virtual
// SimClock, the SimNetwork (with the cluster's nodes added) and the
// EventQueue.  Every method delegates 1:1 to that substrate with no added
// arithmetic and no extra randomness draws, so a sim-backed run is
// byte-identical to the pre-seam code path: same seed, same fault plan,
// same trace timeline — the property every chaos/gray/memo gate in
// scripts/check.sh pins.
//
// Unit fixtures that only need time and cost accounting (transaction
// manager, record store, CCMgr tests) construct it without nodes; the
// network-facing methods then degenerate harmlessly (no nodes, nothing
// reachable).  Sim-only drivers (fault engine, chaos harness, scripted
// scenarios) reach the substrate through network() and events().
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "runtime/runtime.h"
#include "sim/cost_model.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "util/ids.h"
#include "util/rng.h"
#include "util/sim_clock.h"

namespace dedisys {

class SimRuntime final : public Runtime {
 public:
  /// Builds the substrate: a fresh clock, a network holding `nodes` and an
  /// event queue on that clock.
  explicit SimRuntime(CostModel cost, const std::vector<NodeId>& nodes = {})
      : net_(clock_, cost), events_(clock_) {
    for (NodeId n : nodes) net_.add_node(n);
  }

  SimRuntime(const SimRuntime&) = delete;
  SimRuntime& operator=(const SimRuntime&) = delete;

  // -- time -------------------------------------------------------------

  [[nodiscard]] SimTime now() const override { return clock_.now(); }
  [[nodiscard]] SimTime local_now(NodeId node) const override {
    return net_.local_now(node);
  }

  // -- cost accounting ----------------------------------------------------

  [[nodiscard]] const CostModel& cost() const override { return net_.cost(); }
  void charge(SimDuration d) override { clock_.advance(d); }
  bool charge_rpc(NodeId from, NodeId to) override {
    return net_.charge_rpc(from, to);
  }
  std::size_t charge_multicast(NodeId from,
                               const std::vector<NodeId>& receivers) override {
    return net_.charge_multicast(from, receivers);
  }
  [[nodiscard]] SimDuration rpc_cost(NodeId from, NodeId to) const override {
    return net_.rpc_cost(from, to);
  }

  // -- deferred scheduling --------------------------------------------------

  void defer_in(SimDuration delay, std::function<void()> fn) override {
    events_.schedule_in(delay, std::move(fn));
  }
  void defer_at(SimTime when, std::function<void()> fn) override {
    events_.schedule_at(when, std::move(fn));
  }
  void drain() override { events_.run_all(); }

  // -- messaging and topology --------------------------------------------------

  [[nodiscard]] const std::vector<NodeId>& nodes() const override {
    return net_.nodes();
  }
  [[nodiscard]] bool reachable(NodeId from, NodeId to) const override {
    return net_.reachable(from, to);
  }
  [[nodiscard]] std::vector<NodeId> membership_set(NodeId from) const override {
    return net_.mutually_reachable_set(from);
  }
  Delivery delivery_verdict(NodeId from, NodeId to) override {
    return net_.delivery_verdict(from, to);
  }

  /// The seeded multicast reorder draw (formerly GroupCommunication's
  /// maybe_reorder).  Randomness is consumed only while faults are active
  /// and in exactly the pre-seam order, keeping seeded runs byte-identical.
  bool reorder_receivers(NodeId from, std::vector<NodeId>& targets) override {
    if (!net_.faults_active() || targets.size() < 2) return false;
    double p = 0.0;
    for (NodeId t : targets) {
      const LinkFaults& f = net_.effective_faults(from, t);
      if (f.reorder > p) p = f.reorder;
    }
    if (p <= 0.0) return false;
    Rng& rng = net_.fault_rng();
    if (!rng.chance(p)) return false;
    for (std::size_t i = targets.size(); i > 1; --i) {
      std::swap(targets[i - 1], targets[rng.below(i)]);
    }
    return true;
  }

  /// The whole simulated cluster shares one thread: "running on a node"
  /// is a direct call within the sender's stack (which is also what lets
  /// the ambient trace context cross nodes automatically).
  void run_on(NodeId /*node*/, const std::function<void()>& fn) override {
    fn();
  }

  void subscribe(TopologyListener* listener) override {
    net_.subscribe(listener);
  }
  void unsubscribe(TopologyListener* listener) override {
    net_.unsubscribe(listener);
  }

  // enter_section/exit_section: inherited no-ops — single-threaded.

  /// The substrate, for sim-only drivers (fault engine, chaos, scripts).
  [[nodiscard]] SimNetwork& network() { return net_; }
  [[nodiscard]] EventQueue& events() { return events_; }

 private:
  SimClock clock_;
  SimNetwork net_;
  EventQueue events_;
};

}  // namespace dedisys
