// Replication service behaviour (Section 4.3): routing, propagation,
// staleness per protocol, conflict detection and replica reconciliation.
#include <gtest/gtest.h>

#include "middleware/cluster.h"
#include "scenarios/flight.h"

namespace dedisys {
namespace {

using scenarios::FlightBooking;

Cluster make_cluster(ReplicationProtocol protocol, std::size_t nodes = 3) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.protocol = protocol;
  return Cluster(cfg);
}

class ReplicationFixture
    : public ::testing::TestWithParam<ReplicationProtocol> {
 protected:
  ReplicationFixture() : cluster_(make_cluster(GetParam())) {
    FlightBooking::define_classes(cluster_.classes());
    FlightBooking::register_constraints(
        cluster_.constraints(), false, SatisfactionDegree::Uncheckable);
  }

  Cluster cluster_;
};

TEST_P(ReplicationFixture, CreateReplicatesToAllNodes) {
  const ObjectId f = FlightBooking::create_flight(cluster_.node(1), 50);
  for (std::size_t i = 0; i < cluster_.size(); ++i) {
    EXPECT_TRUE(cluster_.node(i).replication().has_local_replica(f));
  }
  EXPECT_EQ(cluster_.directory()->get(f).designated_primary, NodeId{1});
}

TEST_P(ReplicationFixture, WritesRouteToDesignatedPrimaryWhenHealthy) {
  const ObjectId f = FlightBooking::create_flight(cluster_.node(1), 50);
  EXPECT_EQ(cluster_.node(0).replication().execution_node(f, true), NodeId{1});
  EXPECT_EQ(cluster_.node(2).replication().execution_node(f, true), NodeId{1});
}

TEST_P(ReplicationFixture, ReadsAreLocalOnEveryReplica) {
  const ObjectId f = FlightBooking::create_flight(cluster_.node(1), 50);
  for (std::size_t i = 0; i < cluster_.size(); ++i) {
    EXPECT_EQ(cluster_.node(i).replication().execution_node(f, false),
              NodeId{i});
  }
}

TEST_P(ReplicationFixture, SynchronousPropagationKeepsReplicasIdentical) {
  const ObjectId f = FlightBooking::create_flight(cluster_.node(0), 50);
  FlightBooking::sell(cluster_.node(2), f, 7);  // routed to primary 0
  for (std::size_t i = 0; i < cluster_.size(); ++i) {
    EXPECT_EQ(as_int(cluster_.node(i)
                         .replication()
                         .local_replica(f)
                         .get("soldTickets")),
              7);
  }
}

TEST_P(ReplicationFixture, NothingPossiblyStaleWhenHealthy) {
  const ObjectId f = FlightBooking::create_flight(cluster_.node(0), 50);
  for (std::size_t i = 0; i < cluster_.size(); ++i) {
    EXPECT_FALSE(cluster_.node(i).replication().possibly_stale(f));
    EXPECT_TRUE(cluster_.node(i).replication().reachable(f));
  }
}

TEST_P(ReplicationFixture, ObjectFullyInsidePartitionIsNeverStale) {
  // Replicas restricted to nodes 0 and 1; partition {0,1} keeps them all.
  DedisysNode& n0 = cluster_.node(0);
  TxScope tx(n0.tx());
  const ObjectId id = n0.replication().create(
      "Flight", tx.id(), std::vector<NodeId>{NodeId{0}, NodeId{1}});
  tx.commit();
  cluster_.inject(fault::split_indices({{0, 1}, {2}}));
  EXPECT_FALSE(n0.replication().possibly_stale(id));
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ReplicationFixture,
    ::testing::Values(ReplicationProtocol::PrimaryBackup,
                      ReplicationProtocol::PrimaryPartition,
                      ReplicationProtocol::AdaptiveVoting),
    [](const ::testing::TestParamInfo<ReplicationProtocol>& info) {
      switch (info.param) {
        case ReplicationProtocol::PrimaryBackup: return "PrimaryBackup";
        case ReplicationProtocol::PrimaryPartition: return "P4";
        case ReplicationProtocol::AdaptiveVoting: return "AdaptiveVoting";
      }
      return "Unknown";
    });

// ---------------------------------------------------------------------------
// Protocol-specific degraded-mode behaviour
// ---------------------------------------------------------------------------

TEST(ProtocolBehaviour, P4ElectsTemporaryPrimaryPerPartition) {
  Cluster c = make_cluster(ReplicationProtocol::PrimaryPartition);
  FlightBooking::define_classes(c.classes());
  FlightBooking::register_constraints(c.constraints(), false,
                                      SatisfactionDegree::Uncheckable);
  const ObjectId f = FlightBooking::create_flight(c.node(0), 50);
  c.inject(fault::split_indices({{0, 1}, {2}}));
  // Partition with the designated primary keeps it.
  EXPECT_EQ(c.node(1).replication().execution_node(f, true), NodeId{0});
  // The other partition elects its lowest reachable replica node.
  EXPECT_EQ(c.node(2).replication().execution_node(f, true), NodeId{2});
  // Every partition is possibly stale under P4 (Section 3.1).
  EXPECT_TRUE(c.node(0).replication().possibly_stale(f));
  EXPECT_TRUE(c.node(2).replication().possibly_stale(f));
}

TEST(ProtocolBehaviour, PrimaryBackupOnlyMajorityWritesAndIsFresh) {
  Cluster c = make_cluster(ReplicationProtocol::PrimaryBackup);
  FlightBooking::define_classes(c.classes());
  FlightBooking::register_constraints(c.constraints(), false,
                                      SatisfactionDegree::Uncheckable);
  const ObjectId f = FlightBooking::create_flight(c.node(2), 50);
  c.inject(fault::split_indices({{0, 1}, {2}}));
  // Designated primary (node 2) is in the minority: the majority re-elects.
  EXPECT_EQ(c.node(0).replication().execution_node(f, true), NodeId{0});
  // Minority cannot write at all.
  EXPECT_THROW((void)c.node(2).replication().execution_node(f, true),
               ObjectUnreachable);
  // Majority views are authoritative; minority views possibly stale.
  EXPECT_FALSE(c.node(0).replication().possibly_stale(f));
  EXPECT_TRUE(c.node(2).replication().possibly_stale(f));
}

TEST(ProtocolBehaviour, AdaptiveVotingWritesEverywhereWithQuorumCost) {
  Cluster c = make_cluster(ReplicationProtocol::AdaptiveVoting);
  FlightBooking::define_classes(c.classes());
  FlightBooking::register_constraints(c.constraints(), false,
                                      SatisfactionDegree::Uncheckable);
  const ObjectId f = FlightBooking::create_flight(c.node(0), 50);
  c.inject(fault::split_indices({{0, 1}, {2}}));
  EXPECT_NO_THROW(FlightBooking::sell(c.node(0), f, 1));
  EXPECT_NO_THROW(FlightBooking::sell(c.node(2), f, 1));
  EXPECT_TRUE(c.node(0).replication().possibly_stale(f));
}

// ---------------------------------------------------------------------------
// Degraded-mode bookkeeping and replica reconciliation
// ---------------------------------------------------------------------------

class ReconcileTest : public ::testing::Test {
 protected:
  ReconcileTest() : cluster_(make_cluster(ReplicationProtocol::PrimaryPartition)) {
    FlightBooking::define_classes(cluster_.classes());
    FlightBooking::register_constraints(cluster_.constraints(), false,
                                        SatisfactionDegree::Uncheckable);
    flight_ = FlightBooking::create_flight(cluster_.node(0), 100);
  }

  Cluster cluster_;
  ObjectId flight_;
};

TEST_F(ReconcileTest, DegradedUpdatesTrackedPerNode) {
  cluster_.inject(fault::split_indices({{0, 1}, {2}}));
  FlightBooking::sell(cluster_.node(0), flight_, 1);
  EXPECT_EQ(cluster_.node(0).replication().degraded_updates().count(flight_),
            1u);
  EXPECT_EQ(cluster_.node(2).replication().degraded_updates().count(flight_),
            0u);
}

TEST_F(ReconcileTest, HistoryCapturedOnlyWhenEnabled) {
  cluster_.inject(fault::split_indices({{0, 1}, {2}}));
  FlightBooking::sell(cluster_.node(0), flight_, 1);
  FlightBooking::sell(cluster_.node(0), flight_, 1);
  EXPECT_EQ(cluster_.node(0).replication().history().history(flight_).size(),
            2u);

  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.keep_history = false;
  Cluster reduced(cfg);
  FlightBooking::define_classes(reduced.classes());
  FlightBooking::register_constraints(reduced.constraints(), false,
                                      SatisfactionDegree::Uncheckable);
  const ObjectId f2 = FlightBooking::create_flight(reduced.node(0), 100);
  reduced.inject(fault::split_indices({{0, 1}, {2}}));
  FlightBooking::sell(reduced.node(0), f2, 1);
  EXPECT_EQ(reduced.node(0).replication().history().total_entries(), 0u);
}

TEST_F(ReconcileTest, SinglePartitionUpdateWinsWithoutConflict) {
  cluster_.inject(fault::split_indices({{0, 1}, {2}}));
  FlightBooking::sell(cluster_.node(0), flight_, 4);
  cluster_.inject(fault::Heal{});
  const auto report = cluster_.reconcile();
  EXPECT_EQ(report.replica.conflicts, 0u);
  EXPECT_EQ(report.replica.updates_propagated, 1u);
  EXPECT_EQ(FlightBooking::sold(cluster_.node(2), flight_), 4);
}

TEST_F(ReconcileTest, WriteWriteConflictResolvedByLatestVersionByDefault) {
  cluster_.inject(fault::split_indices({{0, 1}, {2}}));
  FlightBooking::sell(cluster_.node(0), flight_, 1);  // version +1
  FlightBooking::sell(cluster_.node(2), flight_, 1);
  FlightBooking::sell(cluster_.node(2), flight_, 1);  // partition B newer
  cluster_.inject(fault::Heal{});
  const auto report = cluster_.reconcile();
  EXPECT_EQ(report.replica.conflicts, 1u);
  // Latest version (partition B: 2 sold) wins everywhere.
  for (std::size_t i = 0; i < cluster_.size(); ++i) {
    EXPECT_EQ(as_int(cluster_.node(i)
                         .replication()
                         .local_replica(flight_)
                         .get("soldTickets")),
              2);
  }
}

TEST_F(ReconcileTest, ApplicationHandlerOverridesGenericPolicy) {
  class PickSmallest final : public ReplicaConsistencyHandler {
   public:
    EntitySnapshot reconcile_replicas(
        ObjectId, const std::vector<EntitySnapshot>& candidates) override {
      EntitySnapshot best = candidates.front();
      for (const auto& c : candidates) {
        if (as_int(c.attributes.at("soldTickets")) <
            as_int(best.attributes.at("soldTickets"))) {
          best = c;
        }
      }
      best.version += 10;  // make the merged state the newest
      return best;
    }
  } handler;

  cluster_.inject(fault::split_indices({{0, 1}, {2}}));
  FlightBooking::sell(cluster_.node(0), flight_, 1);
  FlightBooking::sell(cluster_.node(2), flight_, 5);
  cluster_.inject(fault::Heal{});
  (void)cluster_.reconcile(&handler);
  EXPECT_EQ(FlightBooking::sold(cluster_.node(0), flight_), 1);
}

TEST_F(ReconcileTest, ConflictTrackingClearsAfterReconciliation) {
  cluster_.inject(fault::split_indices({{0, 1}, {2}}));
  FlightBooking::sell(cluster_.node(0), flight_, 1);
  FlightBooking::sell(cluster_.node(2), flight_, 1);
  cluster_.inject(fault::Heal{});
  (void)cluster_.reconcile();
  EXPECT_TRUE(cluster_.node(0).replication().degraded_updates().empty());
  EXPECT_TRUE(cluster_.node(2).replication().degraded_updates().empty());
  EXPECT_EQ(cluster_.node(0).replication().history().total_entries(), 0u);
  EXPECT_EQ(cluster_.node(0).mode(), SystemMode::Healthy);
}

TEST_F(ReconcileTest, RollbackSearchRestoresConsistentHistoricalState) {
  // Overbook during the partition, then let the rollback search walk the
  // degraded-mode history until the ticket constraint holds again.
  FlightBooking::sell(cluster_.node(0), flight_, 95);  // healthy: 95/100
  cluster_.inject(fault::split_indices({{0, 1}, {2}}));
  FlightBooking::sell(cluster_.node(0), flight_, 3);   // A: 98
  FlightBooking::sell(cluster_.node(2), flight_, 4);   // B: 99
  cluster_.inject(fault::Heal{});

  // Additive merge creates the violation (95+3+4 = 102 > 100).
  class AdditiveMerge final : public ReplicaConsistencyHandler {
   public:
    EntitySnapshot reconcile_replicas(
        ObjectId, const std::vector<EntitySnapshot>& c) override {
      std::int64_t total = 95;
      std::uint64_t maxv = 0;
      for (const auto& s : c) {
        total += as_int(s.attributes.at("soldTickets")) - 95;
        maxv = std::max(maxv, s.version);
      }
      EntitySnapshot out = c.front();
      out.attributes["soldTickets"] = Value{total};
      out.version = maxv + 1;
      return out;
    }
  } merge;

  // Mark the stored threat as rollback-allowed via dynamic negotiation.
  // (Already stored threats came from static negotiation; instead make the
  // threat rollback-capable by re-selling with a handler.)
  // Simpler: reconcile with rollback handler wired by the Cluster; the
  // stored threat must carry allow_rollback, so re-inject it:
  cluster_.threats().remove("TicketConstraint@" + to_string(flight_));
  ConsistencyThreat t;
  t.constraint_name = "TicketConstraint";
  t.context_object = flight_;
  t.degree = SatisfactionDegree::PossiblySatisfied;
  t.affected_objects = {flight_};
  t.instructions.allow_rollback = true;
  cluster_.threats().store(t);

  const auto report = cluster_.reconcile(&merge, nullptr);
  EXPECT_EQ(report.constraints.violations, 1u);
  EXPECT_EQ(report.constraints.resolved_by_rollback, 1u);
  // The rolled-back state satisfies the constraint, at the price of lost
  // updates (availability retrospectively reduced, Section 3.3).
  EXPECT_LE(FlightBooking::sold(cluster_.node(0), flight_), 100);
  EXPECT_EQ(cluster_.threats().identity_count(), 0u);
}

// A degraded sell the ticket invariant refuses rolls back; the undo must
// not drop the degraded-update mark of the sells committed before it in
// the same partition, or reconciliation skips the flight and the
// majority's replicas keep the pre-partition count.
TEST(ReconcileAfterRefusal, RefusedDegradedSellKeepsEarlierMark) {
  Cluster cluster = make_cluster(ReplicationProtocol::PrimaryPartition);
  FlightBooking::define_classes(cluster.classes());
  FlightBooking::register_constraints(cluster.constraints());
  const ObjectId flight = FlightBooking::create_flight(cluster.node(0), 2);
  cluster.inject(fault::split_indices({{0, 1}, {2}}));
  FlightBooking::sell(cluster.node(2), flight, 1);
  FlightBooking::sell(cluster.node(2), flight, 1);
  EXPECT_THROW(FlightBooking::sell(cluster.node(2), flight, 1),
               ConsistencyThreatRejected);
  EXPECT_EQ(cluster.node(2).replication().degraded_updates().count(flight),
            1u);
  cluster.inject(fault::Heal{});
  (void)cluster.reconcile();
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_EQ(as_int(cluster.node(i)
                         .replication()
                         .local_replica(flight)
                         .get("soldTickets")),
              2)
        << "node " << i;
  }
}

// A refused first degraded update leaves no mark: its undo restores the
// pre-partition state, so there is nothing to reconcile.
TEST(ReconcileAfterRefusal, RefusedFirstDegradedSellLeavesNoMark) {
  Cluster cluster = make_cluster(ReplicationProtocol::PrimaryPartition);
  FlightBooking::define_classes(cluster.classes());
  FlightBooking::register_constraints(cluster.constraints());
  const ObjectId flight = FlightBooking::create_flight(cluster.node(0), 2);
  cluster.inject(fault::split_indices({{0, 1}, {2}}));
  EXPECT_THROW(FlightBooking::sell(cluster.node(2), flight, 3),
               ConsistencyThreatRejected);
  EXPECT_TRUE(cluster.node(2).replication().degraded_updates().empty());
}

}  // namespace
}  // namespace dedisys
