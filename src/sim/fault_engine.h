// Deterministic fault-injection engine.
//
// Drives a `FaultPlan` against a `SimNetwork`: as the simulated clock
// advances, `poll()` applies every fault action whose scheduled time has
// been reached, in plan order.  Every action goes to one router when one
// is set (`Cluster::adopt_fault_engine` routes them through
// `Cluster::inject`, so a crash drops volatile state and a restart runs
// durable-state recovery) and straight to the network otherwise.  Each
// applied action is recorded as a `fault.injected` trace event when an
// observability hub is attached.
//
// Determinism: the engine seeds the network's per-message fault generator
// from the plan's seed on construction, and the plan itself is applied at
// fixed virtual times, so the same (seed, plan, workload) triple always
// produces a byte-identical event schedule.
#pragma once

#include <cstddef>
#include <functional>

#include "obs/observability.h"
#include "sim/fault_plan.h"
#include "sim/network.h"
#include "util/ids.h"
#include "util/sim_clock.h"

namespace dedisys {

class FaultEngine {
 public:
  struct Stats {
    std::size_t applied = 0;
    std::size_t partitions = 0;
    std::size_t heals = 0;
    std::size_t crashes = 0;
    std::size_t restarts = 0;
    std::size_t link_changes = 0;
    // gray failures
    std::size_t asym_cuts = 0;
    std::size_t flaps = 0;          ///< Flap ops (not their toggles)
    std::size_t flap_toggles = 0;   ///< scheduled up/down transitions
    std::size_t slow_changes = 0;
    std::size_t skew_changes = 0;
  };

  /// Takes the plan by value (it is consumed action by action) and seeds
  /// the network's fault generator from `plan.seed`.  The plan is sorted
  /// by scheduled time on entry.
  FaultEngine(SimNetwork& net, FaultPlan plan);

  /// Wires the observability hub for fault.injected trace events.
  void set_observability(obs::Observability* obs) { obs_ = obs; }

  /// Routes every applied op (flap toggles included) through `router`
  /// instead of applying it to the network directly.
  void route_through(std::function<void(const fault::Op&)> router) {
    router_ = std::move(router);
  }

  /// Applies every action scheduled at or before the current virtual time;
  /// returns the number applied.  Call between workload steps.
  std::size_t poll();

  /// Advances the clock to `when`, applying due actions along the way so
  /// each fires at exactly its scheduled time.
  std::size_t advance_to(SimTime when);

  [[nodiscard]] bool done() const { return next_ >= plan_.actions.size(); }

  /// Scheduled time of the next pending action (or SimTime max when done).
  [[nodiscard]] SimTime next_at() const;

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  SimNetwork& network() { return net_; }

 private:
  void apply_one(TimedFault action);

  /// Expands a Flap op into alternating up/down toggles (HealLinks /
  /// AsymPartition actions) inserted into the pending plan, dwell time
  /// `period / 2` plus seeded jitter, final state up.  Deterministic: the
  /// jitter stream derives from the plan seed.
  void schedule_flap(SimTime at, const fault::Flap& op);

  /// Inserts an action into the still-pending part of the plan, keeping it
  /// time-sorted (stable: equal-time actions keep insertion order).
  void insert_pending(TimedFault action);

  SimNetwork& net_;
  FaultPlan plan_;
  std::size_t next_ = 0;
  Rng flap_rng_{0};
  obs::Observability* obs_ = nullptr;
  std::function<void(const fault::Op&)> router_;
  Stats stats_;
};

}  // namespace dedisys
