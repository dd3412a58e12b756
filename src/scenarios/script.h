// Script-based test application (the "DedisysTest" driver of Section 5.1,
// [Ke07]).  Timed fault schedules are `FaultPlan`s driven by a
// `FaultEngine` (sim/fault_engine.h) wired with `Cluster::adopt_fault_engine`.
//
// "In order to ensure repeatability of the tests, we used the script-based
// DedisysTest application" — workloads, failure injection and assertions
// are written as line-oriented scripts and replayed deterministically:
//
//   # comments and blank lines are ignored
//   node 0                       switch the acting node
//   create TestEntity 100        create objects (become the working set)
//   invoke setValue 100 hello    invoke a method over the working set
//   invoke emptyThreat 50        (one committed transaction per op)
//   negotiate accept             dynamic accept-all | reject | static
//   split 0,1|2                  inject a partition
//   heal                         repair all links
//   crash 2 / recover 2          node pause-crash (drops its volatile
//                                replicas) / restart (in-doubt recovery
//                                and replica rebuild by state transfer)
//   reconcile                    run both reconciliation phases
//   delete                       delete the working set
//   expect-threats 1             assert stored threat identities
//   expect-mode degraded         assert acting node's system mode
//   expect-attr <i> attr value   assert attribute of working-set object i
//
// Every workload command reports ops per simulated second.  Every fault
// command goes through `Cluster::inject`; a node index (in `node`, `crash`,
// `recover` or a `split` group) must name a node of the cluster.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "middleware/cluster.h"

namespace dedisys::scenarios {

struct ScriptCommandResult {
  std::size_t line = 0;
  std::string command;
  std::size_t ops = 0;
  SimDuration elapsed = 0;

  [[nodiscard]] double ops_per_second() const {
    return elapsed > 0 ? static_cast<double>(ops) * 1e6 /
                             static_cast<double>(elapsed)
                       : 0.0;
  }
};

struct ScriptReport {
  std::vector<ScriptCommandResult> commands;
  std::size_t committed_ops = 0;
  std::size_t aborted_ops = 0;
};

class ScriptRunner {
 public:
  explicit ScriptRunner(Cluster& cluster) : cluster_(&cluster) {}

  /// Executes the script; throws ConfigError naming the line on syntax
  /// errors and DedisysError on failed expect-* assertions.
  ScriptReport run(const std::string& script);

 private:
  enum class Negotiation { Static, Accept, Reject };

  void execute(const std::vector<std::string>& words, std::size_t line,
               ScriptReport& report);
  DedisysNode& acting_node() { return cluster_->node(acting_); }
  void run_invocations(const std::string& method, std::size_t count,
                       std::vector<Value> args, ScriptReport& report);

  Cluster* cluster_;
  std::size_t acting_ = 0;
  Negotiation negotiation_ = Negotiation::Static;
  std::vector<ObjectId> working_set_;
};

}  // namespace dedisys::scenarios
