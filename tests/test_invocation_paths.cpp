// Invocation-path details: interception of nested (internal) calls
// (Section 4.2.4 call #7), remote reads, routing, locks and cost
// accounting along the pipeline.
#include <gtest/gtest.h>

#include "middleware/cluster.h"
#include "scenarios/dtms.h"
#include "scenarios/flight.h"

namespace dedisys {
namespace {

using scenarios::Dtms;
using scenarios::FlightBooking;

TEST(NestedInterception, InternalCallsTriggerConstraintChecks) {
  // Section 4.2.4: internal invocations bypass the container proxy, so
  // AOP-style interception must still deliver them to the CCMgr.  The
  // DTMS retune() updates its peer via a nested call; the constraint on
  // setFrequency must fire for that nested call too.
  ClusterConfig cfg;
  cfg.nodes = 2;
  Cluster cluster(cfg);
  Dtms::define_classes(cluster.classes());
  Dtms::register_constraints(cluster.constraints());
  const auto channel = Dtms::create_channel(cluster, 0, 1, 100);

  DedisysNode& a = cluster.node(0);
  const std::size_t before = a.ccmgr().stats().validations +
                             cluster.node(1).ccmgr().stats().validations;
  {
    TxScope tx(a.tx());
    a.invoke(tx.id(), channel.endpoint_a, "retune",
             {Value{std::int64_t{200}}});
    tx.commit();
  }
  const std::size_t after = a.ccmgr().stats().validations +
                            cluster.node(1).ccmgr().stats().validations;
  // Two validations: the nested setFrequency on the peer AND the outer
  // retune on the called endpoint.
  EXPECT_EQ(after - before, 2u);
}

TEST(RemoteReads, ChargeRpcRoundTripsAndReturnPeerState) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  Cluster cluster(cfg);
  Dtms::define_classes(cluster.classes());
  Dtms::register_constraints(cluster.constraints());
  const auto channel = Dtms::create_channel(cluster, 0, 1, 118000);

  // Node 0 has no replica of endpoint B: reading it through the accessor
  // is a remote read that must advance the clock by an RPC round trip.
  DedisysNode& a = cluster.node(0);
  ASSERT_FALSE(a.replication().has_local_replica(channel.endpoint_b));
  const SimTime t0 = cluster.runtime().now();
  const Entity& peer = a.accessor().read(channel.endpoint_b);
  EXPECT_EQ(as_int(peer.get("frequency")), 118000);
  EXPECT_EQ(cluster.runtime().now() - t0, 2 * cfg.cost.rpc_latency);
}

TEST(Routing, WriteLocksAreHeldUntilTransactionEnd) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  Cluster cluster(cfg);
  FlightBooking::define_classes(cluster.classes());
  DedisysNode& n = cluster.node(0);
  const ObjectId flight = FlightBooking::create_flight(n, 100);

  TxScope tx1(n.tx());
  n.invoke(tx1.id(), flight, "sellTickets", {Value{std::int64_t{1}}});
  // A concurrent transaction conflicts on the same entity-bean lock.
  {
    TxScope tx2(n.tx());
    EXPECT_THROW(
        n.invoke(tx2.id(), flight, "sellTickets", {Value{std::int64_t{1}}}),
        TxAborted);
  }
  tx1.commit();
  // After commit the lock is free again.
  EXPECT_NO_THROW(FlightBooking::sell(n, flight, 1));
}

TEST(Routing, ReadsDoNotTakeWriteLocks) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  Cluster cluster(cfg);
  FlightBooking::define_classes(cluster.classes());
  DedisysNode& n = cluster.node(0);
  const ObjectId flight = FlightBooking::create_flight(n, 100);

  TxScope tx1(n.tx());
  n.invoke(tx1.id(), flight, "sellTickets", {Value{std::int64_t{1}}});
  TxScope tx2(n.tx());
  EXPECT_NO_THROW(n.invoke(tx2.id(), flight, "getSoldTickets"));
  tx2.commit();
  tx1.commit();
}

TEST(Routing, SimulatedTimeAdvancesMonotonicallyAcrossOperations) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  Cluster cluster(cfg);
  FlightBooking::define_classes(cluster.classes());
  DedisysNode& n = cluster.node(0);
  const ObjectId flight = FlightBooking::create_flight(n, 100);

  SimTime last = cluster.runtime().now();
  for (int i = 0; i < 10; ++i) {
    FlightBooking::sell(n, flight, 1);
    EXPECT_GT(cluster.runtime().now(), last);
    last = cluster.runtime().now();
  }
}

TEST(Routing, RolledBackWriteRestoresAllReplicas) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  Cluster cluster(cfg);
  FlightBooking::define_classes(cluster.classes());
  DedisysNode& n = cluster.node(0);
  const ObjectId flight = FlightBooking::create_flight(n, 100);
  FlightBooking::sell(n, flight, 10);

  {
    TxScope tx(n.tx());
    n.invoke(tx.id(), flight, "sellTickets", {Value{std::int64_t{7}}});
    // Update already propagated synchronously...
    EXPECT_EQ(as_int(cluster.node(2)
                         .replication()
                         .local_replica(flight)
                         .get("soldTickets")),
              17);
    tx.rollback();
  }
  // ... and the rollback restored every replica.
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_EQ(as_int(cluster.node(i)
                         .replication()
                         .local_replica(flight)
                         .get("soldTickets")),
              10)
        << "node " << i;
  }
}

}  // namespace
}  // namespace dedisys
