// Property-based sweeps over randomized workloads: replica convergence,
// reconciliation convergence, threat-store invariants.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "middleware/cluster.h"
#include "runtime/sim_runtime.h"
#include "scenarios/ats.h"
#include "scenarios/flight.h"
#include "util/rng.h"

namespace dedisys {
namespace {

using scenarios::FlightBooking;

struct SweepParams {
  std::uint64_t seed;
  std::size_t nodes;
  ReplicationProtocol protocol;
};

std::string sweep_label(const SweepParams& p) {
  return "seed" + std::to_string(p.seed) + "_n" + std::to_string(p.nodes) +
         "_" +
         (p.protocol == ReplicationProtocol::PrimaryBackup      ? "PB"
          : p.protocol == ReplicationProtocol::PrimaryPartition ? "P4"
                                                                : "AV");
}

// Print a case by its label. Without this gtest prints the raw bytes of the
// struct, padding included, so the listed test names would vary by build.
void PrintTo(const SweepParams& p, std::ostream* os) { *os << sweep_label(p); }

class RandomWorkload : public ::testing::TestWithParam<SweepParams> {
 protected:
  RandomWorkload()
      : cluster_(make_config(GetParam())), rng_(GetParam().seed) {
    FlightBooking::define_classes(cluster_.classes());
    FlightBooking::register_constraints(cluster_.constraints(), false,
                                        SatisfactionDegree::Uncheckable);
  }

  static ClusterConfig make_config(const SweepParams& p) {
    ClusterConfig cfg;
    cfg.nodes = p.nodes;
    cfg.protocol = p.protocol;
    return cfg;
  }

  /// All replicas of every object hold identical state.
  void expect_replicas_converged() {
    for (ObjectId id : cluster_.directory()->all_objects()) {
      std::optional<AttributeMap> reference;
      for (std::size_t i = 0; i < cluster_.size(); ++i) {
        ReplicationManager& repl = cluster_.node(i).replication();
        if (!repl.has_local_replica(id)) continue;
        const AttributeMap& attrs = repl.local_replica(id).attributes();
        if (!reference) {
          reference = attrs;
        } else {
          EXPECT_EQ(attrs, *reference) << "replica divergence on object "
                                       << to_string(id) << " node " << i;
        }
      }
    }
  }

  Cluster cluster_;
  Rng rng_;
};

TEST_P(RandomWorkload, HealthyModeKeepsReplicasConvergedAndConsistent) {
  std::vector<ObjectId> flights;
  for (int i = 0; i < 4; ++i) {
    const auto creator = rng_.below(cluster_.size());
    flights.push_back(
        FlightBooking::create_flight(cluster_.node(creator), 100));
  }
  int committed = 0;
  for (int op = 0; op < 120; ++op) {
    DedisysNode& node = cluster_.node(rng_.below(cluster_.size()));
    const ObjectId flight = flights[rng_.below(flights.size())];
    const std::int64_t count = rng_.between(1, 5);
    try {
      if (rng_.chance(0.8)) {
        FlightBooking::sell(node, flight, count);
      } else {
        TxScope tx(node.tx());
        node.invoke(tx.id(), flight, "cancelTickets", {Value{count}});
        tx.commit();
      }
      ++committed;
    } catch (const DedisysError&) {
      // violations abort cleanly; replicas must still converge
    }
  }
  EXPECT_GT(committed, 0);
  expect_replicas_converged();
  // The ticket invariant holds on every replica after every commit.
  for (ObjectId f : flights) {
    EXPECT_LE(as_int(cluster_.node(0).replication().local_replica(f).get(
                  "soldTickets")),
              100);
  }
  EXPECT_EQ(cluster_.threats().identity_count(), 0u);
}

TEST_P(RandomWorkload, DegradedThenReconcileConverges) {
  std::vector<ObjectId> flights;
  for (int i = 0; i < 3; ++i) {
    flights.push_back(FlightBooking::create_flight(cluster_.node(0), 1000));
  }
  // Random split into two partitions (both non-empty).
  std::vector<std::size_t> a;
  std::vector<std::size_t> b;
  for (std::size_t i = 0; i < cluster_.size(); ++i) {
    (rng_.chance(0.5) ? a : b).push_back(i);
  }
  if (a.empty()) a.push_back(b.back()), b.pop_back();
  if (b.empty()) b.push_back(a.back()), a.pop_back();
  cluster_.inject(fault::split_indices({a, b}));

  for (int op = 0; op < 60; ++op) {
    DedisysNode& node = cluster_.node(rng_.below(cluster_.size()));
    const ObjectId flight = flights[rng_.below(flights.size())];
    try {
      FlightBooking::sell(node, flight, rng_.between(1, 3));
    } catch (const DedisysError&) {
      // primary-backup blocks minority writes; that is fine
    }
  }

  cluster_.inject(fault::Heal{});
  (void)cluster_.reconcile();
  expect_replicas_converged();
  for (std::size_t i = 0; i < cluster_.size(); ++i) {
    EXPECT_EQ(cluster_.node(i).mode(), SystemMode::Healthy);
    EXPECT_TRUE(cluster_.node(i).replication().degraded_updates().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomWorkload,
    ::testing::Values(
        SweepParams{1, 2, ReplicationProtocol::PrimaryPartition},
        SweepParams{2, 3, ReplicationProtocol::PrimaryPartition},
        SweepParams{3, 4, ReplicationProtocol::PrimaryPartition},
        SweepParams{4, 3, ReplicationProtocol::PrimaryBackup},
        SweepParams{5, 4, ReplicationProtocol::PrimaryBackup},
        SweepParams{6, 3, ReplicationProtocol::AdaptiveVoting},
        SweepParams{7, 5, ReplicationProtocol::PrimaryPartition},
        SweepParams{8, 5, ReplicationProtocol::AdaptiveVoting}),
    [](const auto& info) { return sweep_label(info.param); });

// ---------------------------------------------------------------------------
// ATS random workload: inter-object constraints under partitions
// ---------------------------------------------------------------------------

class AtsRandomWorkload : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AtsRandomWorkload, SystemConvergesAndEndsConstraintConsistent) {
  using scenarios::AlarmTracking;
  ClusterConfig cfg;
  cfg.nodes = 3;
  Cluster cluster(cfg);
  AlarmTracking::define_classes(cluster.classes());
  AlarmTracking::register_constraints(cluster.constraints());
  Rng rng(GetParam());

  std::vector<AlarmTracking::Pair> pairs;
  const char* kinds[] = {"Signal", "Power", "Radio"};
  for (int i = 0; i < 4; ++i) {
    pairs.push_back(AlarmTracking::create_linked(
        cluster.node(rng.below(cluster.size())), kinds[rng.below(3)]));
  }

  cluster.inject(fault::split_indices({{0, 1}, {2}}));
  for (int op = 0; op < 50; ++op) {
    DedisysNode& node = cluster.node(rng.below(cluster.size()));
    const auto& pair = pairs[rng.below(pairs.size())];
    const std::string kind = kinds[rng.below(3)];
    try {
      TxScope tx(node.tx());
      if (rng.chance(0.5)) {
        node.invoke(tx.id(), pair.report, "setAffectedComponent",
                    {Value{kind + std::string{" Controller"}}});
      } else {
        node.invoke(tx.id(), pair.alarm, "setAlarmKind", {Value{kind}});
      }
      tx.commit();
    } catch (const DedisysError&) {
      // healthy-mode violations / rejected threats abort cleanly
    }
  }

  cluster.inject(fault::Heal{});
  class FixIt final : public ConstraintReconciliationHandler {
   public:
    explicit FixIt(DedisysNode& n) : node_(&n) {}
    bool reconcile(const ConsistencyThreat& threat,
                   ConstraintValidationContext& ctx) override {
      // Align the component with the (merged) alarm kind.
      const Entity& report = ctx.read(threat.context_object);
      const ObjectId alarm = as_object(report.get("alarm"));
      const Entity& alarm_entity = ctx.read(alarm);
      TxScope tx(node_->tx());
      node_->invoke(tx.id(), threat.context_object, "setAffectedComponent",
                    {Value{as_string(alarm_entity.get("alarmKind")) +
                           " Controller"}});
      tx.commit();
      return true;
    }

   private:
    DedisysNode* node_;
  } fixer(cluster.node(0));

  (void)cluster.reconcile(nullptr, &fixer);

  // Convergence + full constraint consistency afterwards.
  EXPECT_EQ(cluster.threats().identity_count(), 0u);
  for (const auto& pair : pairs) {
    const Entity& report =
        cluster.node(0).replication().local_replica(pair.report);
    const Entity& alarm =
        cluster.node(0).replication().local_replica(pair.alarm);
    const std::string& component = as_string(report.get("affectedComponent"));
    const std::string& kind = as_string(alarm.get("alarmKind"));
    if (!component.empty()) {
      EXPECT_EQ(component.rfind(kind, 0), 0u)
          << "component '" << component << "' vs kind '" << kind << "'";
    }
    for (std::size_t i = 1; i < cluster.size(); ++i) {
      EXPECT_EQ(cluster.node(i)
                    .replication()
                    .local_replica(pair.report)
                    .attributes(),
                report.attributes());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AtsRandomWorkload,
                         ::testing::Values(31, 32, 33, 34, 35));

// ---------------------------------------------------------------------------
// Threat-store invariants under random interleavings
// ---------------------------------------------------------------------------

class ThreatStoreProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ThreatStoreProperty, CountsConsistentUnderRandomOps) {
  SimRuntime rt{CostModel{}};
  RecordStore db(rt);
  ThreatStore store(db);
  store.set_policy(GetParam() % 2 == 0 ? ThreatHistoryPolicy::IdenticalOnce
                                       : ThreatHistoryPolicy::FullHistory);
  Rng rng(GetParam());

  std::map<std::string, std::size_t> model;  // identity -> occurrences
  for (int i = 0; i < 200; ++i) {
    ConsistencyThreat t;
    t.constraint_name = "C";
    t.constraint_name += std::to_string(rng.below(4));
    t.context_object = ObjectId{rng.below(3)};
    t.degree = SatisfactionDegree::PossiblySatisfied;
    if (rng.chance(0.75)) {
      const bool was_new = store.store(t);
      EXPECT_EQ(was_new, model.count(t.identity()) == 0);
      ++model[t.identity()];
    } else {
      store.remove(t.identity());
      model.erase(t.identity());
    }
    // Invariants after every step.
    EXPECT_EQ(store.identity_count(), model.size());
    std::size_t occurrences = 0;
    for (const auto& [k, v] : model) occurrences += v;
    EXPECT_EQ(store.total_occurrences(), occurrences);
  }
  // load_all matches the model exactly.
  const auto all = store.load_all();
  EXPECT_EQ(all.size(), model.size());
  for (const auto& st : all) {
    ASSERT_TRUE(model.count(st.threat.identity()) == 1);
    EXPECT_EQ(st.occurrences, model[st.threat.identity()]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThreatStoreProperty,
                         ::testing::Values(11, 12, 13, 14, 15, 16));

}  // namespace
}  // namespace dedisys
