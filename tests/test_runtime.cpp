// The pluggable execution runtime (docs/runtime.md): backend-equivalence
// of a fault-free workload, the FeatureFlags fan-out through the cluster
// layers, and the threaded backend's concurrency behavior (mailbox rounds,
// nested serve, timers, kernel-lock smoke under concurrent clients).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "middleware/cluster.h"
#include "objects/entity.h"
#include "runtime/threaded_runtime.h"
#include "scenarios/evalapp.h"
#include "scenarios/flight.h"
#include "util/rng.h"

namespace dedisys {
namespace {

using scenarios::EvalApp;
using scenarios::FlightBooking;

// ---------------------------------------------------------------------------
// Sim vs threaded backend equivalence
// ---------------------------------------------------------------------------

/// Everything a fault-free workload is allowed to observe: transaction
/// outcomes, constraint verdicts, the threat store and the final entity
/// state on every replica.  Timings may differ between backends; none of
/// this may.
struct WorkloadOutcome {
  std::size_t committed = 0;
  std::size_t aborted = 0;
  std::size_t validations = 0;
  std::size_t violations = 0;
  std::size_t threat_identities = 0;
  /// "<object>@<node>" -> "v<version>:<value>" for every local replica.
  std::map<std::string, std::string> replicas;

  bool operator==(const WorkloadOutcome&) const = default;
};

WorkloadOutcome run_workload(RuntimeBackend backend) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.backend = backend;
  Cluster cluster(cfg);
  EvalApp::define_classes(cluster.classes());
  EvalApp::register_constraints(cluster.constraints());
  const std::vector<ObjectId> ids =
      EvalApp::create_entities(cluster.node(0), 4);

  WorkloadOutcome out;
  Rng rng(0xB0075EED);  // same seed on both backends -> same op sequence
  for (int i = 0; i < 60; ++i) {
    DedisysNode& invoker = cluster.node(rng.below(cfg.nodes));
    const ObjectId target = ids[rng.below(ids.size())];
    bool ok;
    switch (rng.below(4)) {
      case 0:
        ok = EvalApp::run_op(invoker, target, "setValue",
                             {Value{std::string("v").append(
                                 std::to_string(i))}});
        break;
      case 1:
        ok = EvalApp::run_op(invoker, target, "emptySatisfied");
        break;
      case 2:
        ok = EvalApp::run_op(invoker, target, "emptyViolated");
        break;
      default:
        ok = EvalApp::run_op(invoker, target, "emptyThreat");
        break;
    }
    ++(ok ? out.committed : out.aborted);
  }

  for (std::size_t n = 0; n < cfg.nodes; ++n) {
    DedisysNode& node = cluster.node(n);
    out.validations += node.ccmgr().stats().validations;
    out.violations += node.ccmgr().stats().violations;
    for (ObjectId id : ids) {
      if (!node.replication().has_local_replica(id)) continue;
      const Entity& e = node.replication().local_replica(id);
      std::string state = "v";
      state += std::to_string(e.version());
      state += ':';
      state += as_string(e.get("value"));
      out.replicas[to_string(id) + "@" + std::to_string(n)] = state;
    }
  }
  out.threat_identities = cluster.threats().identity_count();
  return out;
}

TEST(RuntimeEquivalence, FaultFreeWorkloadMatchesAcrossBackends) {
  const WorkloadOutcome sim = run_workload(RuntimeBackend::Sim);
  const WorkloadOutcome threaded = run_workload(RuntimeBackend::Threaded);

  // The workload must have exercised something on both sides.
  EXPECT_GT(sim.committed, 0u);
  EXPECT_GT(sim.aborted, 0u);  // emptyViolated ops abort
  EXPECT_FALSE(sim.replicas.empty());

  EXPECT_EQ(sim.committed, threaded.committed);
  EXPECT_EQ(sim.aborted, threaded.aborted);
  EXPECT_EQ(sim.validations, threaded.validations);
  EXPECT_EQ(sim.violations, threaded.violations);
  EXPECT_EQ(sim.threat_identities, threaded.threat_identities);
  EXPECT_EQ(sim.replicas, threaded.replicas);
}

TEST(RuntimeEquivalence, SimBackendIsDeterministic) {
  const WorkloadOutcome a = run_workload(RuntimeBackend::Sim);
  const WorkloadOutcome b = run_workload(RuntimeBackend::Sim);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// FeatureFlags fan-out
// ---------------------------------------------------------------------------

TEST(FeatureFlags, PropagateFromClusterConfigToEveryLayer) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.flags.observability = true;
  cfg.flags.trace_capacity = 128;
  cfg.flags.validation_memo = true;
  Cluster cluster(cfg);

  EXPECT_TRUE(cluster.obs().enabled());
  EXPECT_EQ(cluster.obs().trace().capacity(), 128u);
  EXPECT_TRUE(cluster.node(0).ccmgr().validation_memo());
  EXPECT_TRUE(cluster.node(1).ccmgr().validation_memo());
}

TEST(FeatureFlags, ObservabilityIsForcedOffOnTheThreadedBackend) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.backend = RuntimeBackend::Threaded;
  cfg.flags.observability = true;  // ignored: the span stack is 1-threaded
  Cluster cluster(cfg);
  EXPECT_FALSE(cluster.obs().enabled());
}

// ---------------------------------------------------------------------------
// ThreadedRuntime unit behavior
// ---------------------------------------------------------------------------

std::vector<NodeId> two_nodes() { return {NodeId{0}, NodeId{1}}; }

TEST(ThreadedRuntimeUnit, RunOnExecutesOnTheTargetWorkerThread) {
  ThreadedRuntime rt(two_nodes(), CostModel{});
  std::thread::id main_id = std::this_thread::get_id();
  std::thread::id ran_on{};
  rt.run_on(NodeId{0}, [&] { ran_on = std::this_thread::get_id(); });
  EXPECT_NE(ran_on, std::thread::id{});
  EXPECT_NE(ran_on, main_id);
}

TEST(ThreadedRuntimeUnit, NestedCrossNodeCallbackDoesNotDeadlock) {
  // node0 -> node1 -> back to node0: the worker blocked in run_on must
  // keep serving its own mailbox (nested serve) or this hangs forever.
  ThreadedRuntime rt(two_nodes(), CostModel{});
  std::atomic<bool> reached{false};
  rt.run_on(NodeId{0}, [&] {
    rt.run_on(NodeId{1}, [&] {
      rt.run_on(NodeId{0}, [&] { reached = true; });
    });
  });
  EXPECT_TRUE(reached.load());
}

TEST(ThreadedRuntimeUnit, RunOnPropagatesExceptions) {
  ThreadedRuntime rt(two_nodes(), CostModel{});
  EXPECT_THROW(
      rt.run_on(NodeId{1}, [] { throw std::runtime_error("boom"); }),
      std::runtime_error);
}

TEST(ThreadedRuntimeUnit, TimersFireInDeadlineOrderAndDrainWaits) {
  ThreadedRuntime rt(two_nodes(), CostModel{});
  std::mutex mu;
  std::vector<int> order;
  auto push = [&](int v) {
    std::lock_guard<std::mutex> lk(mu);
    order.push_back(v);
  };
  rt.defer_in(sim_ms(20), [&] { push(3); });
  rt.defer_in(sim_ms(10), [&] { push(2); });
  rt.defer_in(0, [&] { push(1); });
  rt.drain();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ThreadedRuntimeUnit, NowAdvancesWithWallClock) {
  ThreadedRuntime rt(two_nodes(), CostModel{});
  const SimTime t0 = rt.now();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GT(rt.now(), t0);
  EXPECT_GE(t0, 0);
}

// ---------------------------------------------------------------------------
// Concurrent clients against a threaded cluster (kernel-lock smoke)
// ---------------------------------------------------------------------------

TEST(ThreadedCluster, ConcurrentClientsOnDisjointObjectsAllCommit) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.backend = RuntimeBackend::Threaded;
  Cluster cluster(cfg);
  FlightBooking::define_classes(cluster.classes());

  std::vector<ObjectId> flights;
  for (int i = 0; i < 3; ++i) {
    flights.push_back(FlightBooking::create_flight(cluster.node(0), 1000));
  }

  constexpr int kSellsPerClient = 25;
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kSellsPerClient; ++i) {
        FlightBooking::sell(cluster.node(static_cast<std::size_t>(c)),
                            flights[static_cast<std::size_t>(c)], 1);
      }
    });
  }
  for (auto& t : clients) t.join();

  for (const ObjectId flight : flights) {
    EXPECT_EQ(FlightBooking::sold(cluster.node(0), flight), kSellsPerClient);
  }
}

// A constraint redeployed between two phases of concurrent clients is
// seen by every client of the next phase: each kernel's lookups go
// through the shared repository's query table, which the redeploy
// invalidates.  Under the TSan gate this also checks that the table is
// only touched inside the kernel lock.
TEST(ThreadedCluster, RedeployBetweenClientPhasesIsSeenByBothPhases) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.backend = RuntimeBackend::Threaded;
  Cluster cluster(cfg);
  FlightBooking::define_classes(cluster.classes());
  FlightBooking::register_constraints(cluster.constraints());

  std::vector<ObjectId> flights;
  for (int i = 0; i < 3; ++i) {
    flights.push_back(FlightBooking::create_flight(cluster.node(0), 1000));
  }

  // Each client sells 3 tickets per call; returns how many calls the
  // middleware refused.
  constexpr int kCallsPerClient = 10;
  auto run_phase = [&] {
    std::vector<int> refused(flights.size(), 0);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < flights.size(); ++c) {
      clients.emplace_back([&, c] {
        for (int i = 0; i < kCallsPerClient; ++i) {
          try {
            FlightBooking::sell(cluster.node(c), flights[c], 3);
          } catch (const ConstraintViolation&) {
            ++refused[c];
          }
        }
      });
    }
    for (auto& t : clients) t.join();
    return refused;
  };

  const std::vector<int> none(flights.size(), 0);
  const std::vector<int> all(flights.size(), kCallsPerClient);
  EXPECT_EQ(run_phase(), none);

  ConstraintRegistration reg;
  auto limit = std::make_shared<FunctionConstraint>(
      "SellAtMostTwo", ConstraintType::Precondition,
      ConstraintPriority::NonTradeable,
      [](ConstraintValidationContext& ctx) {
        return as_int(ctx.arguments().at(0)) <= 2;
      });
  limit->set_context_object_needed(false);
  reg.constraint = limit;
  reg.affected_methods.push_back(AffectedMethod{
      "Flight", MethodSignature{"sellTickets", {"int"}},
      ContextPreparation{ContextPreparationKind::CalledObject, ""}});
  cluster.constraints().register_constraint(std::move(reg));
  EXPECT_EQ(run_phase(), all);

  cluster.constraints().remove("SellAtMostTwo");
  EXPECT_EQ(run_phase(), none);

  for (const ObjectId flight : flights) {
    EXPECT_EQ(FlightBooking::sold(cluster.node(0), flight),
              2 * 3 * kCallsPerClient);
  }
}

}  // namespace
}  // namespace dedisys
