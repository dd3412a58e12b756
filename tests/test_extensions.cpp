// Extended mechanisms: method contracts (pre/postconditions with @pre),
// query-based constraints, deferred negotiation (Section 5.4), runtime
// constraint re-validation (Section 3.3), DTMS site-bound objects (NCC),
// crash/recovery, custom interceptors and simulation determinism.
#include <gtest/gtest.h>

#include "middleware/cluster.h"
#include "scenarios/dtms.h"
#include "scenarios/evalapp.h"
#include "scenarios/flight.h"

namespace dedisys {
namespace {

using scenarios::AcceptAllNegotiation;
using scenarios::Dtms;
using scenarios::EvalApp;
using scenarios::FlightBooking;

// ---------------------------------------------------------------------------
// Method contracts (design by contract, Section 1.5)
// ---------------------------------------------------------------------------

class ContractsTest : public ::testing::Test {
 protected:
  ContractsTest() : cluster_(make_config()) {
    FlightBooking::define_classes(cluster_.classes());
    FlightBooking::register_constraints(cluster_.constraints());
    FlightBooking::register_method_contracts(cluster_.constraints());
    flight_ = FlightBooking::create_flight(cluster_.node(0), 100);
  }

  static ClusterConfig make_config() {
    ClusterConfig cfg;
    cfg.nodes = 2;
    return cfg;
  }

  Cluster cluster_;
  ObjectId flight_;
};

TEST_F(ContractsTest, PreconditionRejectsBadArgumentBeforeExecution) {
  DedisysNode& n = cluster_.node(0);
  EXPECT_THROW(FlightBooking::sell(n, flight_, 0), ConstraintViolation);
  EXPECT_THROW(FlightBooking::sell(n, flight_, -5), ConstraintViolation);
  // The method never executed: state unchanged.
  EXPECT_EQ(FlightBooking::sold(n, flight_), 0);
}

TEST_F(ContractsTest, PostconditionWithPreStateValidatesTransition) {
  DedisysNode& n = cluster_.node(0);
  EXPECT_NO_THROW(FlightBooking::sell(n, flight_, 10));
  EXPECT_NO_THROW(FlightBooking::sell(n, flight_, 10));
  EXPECT_EQ(FlightBooking::sold(n, flight_), 20);
}

TEST_F(ContractsTest, PostconditionDetectsWrongTransition) {
  // Sabotage the business method at runtime: register a buggy variant
  // class and check the postcondition catches the broken state change.
  ClusterConfig cfg;
  cfg.nodes = 1;
  Cluster cl(cfg);
  ClassDescriptor& flight = cl.classes().define("Flight");
  flight.define_property("seats", Value{std::int64_t{100}}, "int");
  flight.define_property("soldTickets", Value{std::int64_t{0}}, "int");
  flight.define_method(
      MethodSignature{"sellTickets", {"int"}}, MethodKind::Mutator,
      [](Entity& self, MethodContext&, const std::vector<Value>& args) {
        // BUG: sells one ticket regardless of the requested count.
        (void)args;
        self.set("soldTickets", Value{as_int(self.get("soldTickets")) + 1});
        return Value{};
      });
  FlightBooking::register_method_contracts(cl.constraints());

  DedisysNode& n = cl.node(0);
  TxScope tx(n.tx());
  const ObjectId f = n.create(tx.id(), "Flight");
  EXPECT_THROW(n.invoke(tx.id(), f, "sellTickets", {Value{std::int64_t{3}}}),
               ConstraintViolation);
}

// ---------------------------------------------------------------------------
// Query-based constraints (no context object)
// ---------------------------------------------------------------------------

TEST(QueryConstraint, FleetCapacityEnforcedAcrossAllFlights) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  Cluster cluster(cfg);
  FlightBooking::define_classes(cluster.classes());
  FlightBooking::register_fleet_constraint(cluster.constraints());
  DedisysNode& n = cluster.node(0);
  const ObjectId f1 = FlightBooking::create_flight(n, 10);
  const ObjectId f2 = FlightBooking::create_flight(n, 10);

  // Fleet capacity 20: fill it exactly (per-flight overbooking is not
  // restricted in this configuration, only the fleet sum).
  FlightBooking::sell(n, f1, 15);
  FlightBooking::sell(n, f2, 5);
  // One more ticket breaks the fleet-wide sum (soft invariant at commit).
  EXPECT_THROW(FlightBooking::sell(n, f2, 1), TxAborted);
  EXPECT_EQ(FlightBooking::sold(n, f2), 5);
}

TEST(QueryConstraint, AccessesEveryFlightDuringValidation) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  Cluster cluster(cfg);
  FlightBooking::define_classes(cluster.classes());
  FlightBooking::register_fleet_constraint(cluster.constraints());
  DedisysNode& n = cluster.node(0);
  (void)FlightBooking::create_flight(n, 10);
  (void)FlightBooking::create_flight(n, 10);
  const std::size_t validations_before = n.ccmgr().stats().validations;
  FlightBooking::sell(n, cluster.objects_of("Flight").front(), 1);
  EXPECT_EQ(n.ccmgr().stats().validations, validations_before + 1);
  EXPECT_EQ(cluster.objects_of("Flight").size(), 2u);
}

// ---------------------------------------------------------------------------
// Deferred negotiation (Section 5.4)
// ---------------------------------------------------------------------------

class CountingNegotiation final : public NegotiationHandler {
 public:
  NegotiationOutcome negotiate(const ConsistencyThreat&,
                               ConstraintValidationContext&) override {
    ++calls;
    NegotiationOutcome out;
    out.accepted = accept;
    return out;
  }
  int calls = 0;
  bool accept = true;
};

class DeferredNegotiationTest : public ::testing::Test {
 protected:
  DeferredNegotiationTest() : cluster_(make_config()) {
    EvalApp::define_classes(cluster_.classes());
    EvalApp::register_constraints(cluster_.constraints());
    ids_ = EvalApp::create_entities(cluster_.node(0), 2);
    cluster_.inject(fault::split_indices({{0, 1}, {2}}));
    cluster_.node(0).ccmgr().set_negotiation_timing(
        ConstraintConsistencyManager::NegotiationTiming::Deferred);
  }

  static ClusterConfig make_config() {
    ClusterConfig cfg;
    cfg.nodes = 3;
    return cfg;
  }

  Cluster cluster_;
  std::vector<ObjectId> ids_;
};

TEST_F(DeferredNegotiationTest, NegotiationHappensAtCommitNotPerOperation) {
  DedisysNode& n = cluster_.node(0);
  auto handler = std::make_shared<CountingNegotiation>();
  TxScope tx(n.tx());
  n.ccmgr().register_negotiation_handler(tx.id(), handler);
  n.invoke(tx.id(), ids_[0], "emptyThreat");
  n.invoke(tx.id(), ids_[1], "emptyThreat");
  EXPECT_EQ(handler->calls, 0);  // transaction continues optimistically
  tx.commit();
  EXPECT_EQ(handler->calls, 2);  // both threats decided before commit
  EXPECT_EQ(cluster_.threats().identity_count(), 2u);
}

TEST_F(DeferredNegotiationTest, RejectionAtCommitAbortsWholeTransaction) {
  DedisysNode& n = cluster_.node(0);
  auto handler = std::make_shared<CountingNegotiation>();
  handler->accept = false;
  TxScope tx(n.tx());
  n.ccmgr().register_negotiation_handler(tx.id(), handler);
  EXPECT_NO_THROW(n.invoke(tx.id(), ids_[0], "emptyThreat"));
  EXPECT_THROW(tx.commit(), TxAborted);
  EXPECT_EQ(cluster_.threats().identity_count(), 0u);
}

// ---------------------------------------------------------------------------
// Runtime constraint management with re-validation (Section 3.3)
// ---------------------------------------------------------------------------

TEST(RuntimeConstraints, ReenabledConstraintIsRevalidatedForAllObjects) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  Cluster cluster(cfg);
  FlightBooking::define_classes(cluster.classes());
  FlightBooking::register_constraints(cluster.constraints());
  DedisysNode& n = cluster.node(0);
  const ObjectId good = FlightBooking::create_flight(n, 100);
  const ObjectId bad = FlightBooking::create_flight(n, 100);
  FlightBooking::sell(n, good, 50);

  // Disable the constraint, oversell, re-enable.
  cluster.constraints().set_enabled("TicketConstraint", false);
  FlightBooking::sell(n, bad, 150);
  cluster.constraints().set_enabled("TicketConstraint", true);

  const auto violating = n.ccmgr().revalidate_for_objects(
      "TicketConstraint", cluster.objects_of("Flight"));
  ASSERT_EQ(violating.size(), 1u);
  EXPECT_EQ(violating[0], bad);
}

TEST(RuntimeConstraints, NewlyRegisteredConstraintAppliesImmediately) {
  ClusterConfig cfg;
  cfg.nodes = 1;
  Cluster cluster(cfg);
  FlightBooking::define_classes(cluster.classes());
  DedisysNode& n = cluster.node(0);
  const ObjectId f = FlightBooking::create_flight(n, 10);
  FlightBooking::sell(n, f, 50);  // no constraint deployed yet

  FlightBooking::register_constraints(cluster.constraints());
  EXPECT_THROW(FlightBooking::sell(n, f, 1), ConstraintViolation);
  const auto violating =
      n.ccmgr().revalidate_for_objects("TicketConstraint", {f});
  EXPECT_EQ(violating.size(), 1u);
}

// ---------------------------------------------------------------------------
// DTMS: site-bound objects and NCC (Section 1.4)
// ---------------------------------------------------------------------------

class DtmsTest : public ::testing::Test {
 protected:
  DtmsTest() : cluster_(make_config()) {
    Dtms::define_classes(cluster_.classes());
    Dtms::register_constraints(cluster_.constraints());
    channel_ = Dtms::create_channel(cluster_, 0, 1, 118100);
  }

  static ClusterConfig make_config() {
    ClusterConfig cfg;
    cfg.nodes = 2;
    return cfg;
  }

  Cluster cluster_;
  Dtms::Channel channel_;
};

TEST_F(DtmsTest, SiteBoundObjectsHaveSingleReplicas) {
  EXPECT_TRUE(cluster_.node(0).replication().has_local_replica(
      channel_.endpoint_a));
  EXPECT_FALSE(cluster_.node(0).replication().has_local_replica(
      channel_.endpoint_b));
  EXPECT_TRUE(cluster_.node(1).replication().has_local_replica(
      channel_.endpoint_b));
}

TEST_F(DtmsTest, RetuneUpdatesBothEndpointsViaNestedInvocation) {
  DedisysNode& a = cluster_.node(0);
  TxScope tx(a.tx());
  a.invoke(tx.id(), channel_.endpoint_a, "retune",
           {Value{std::int64_t{121500}}});
  tx.commit();
  EXPECT_EQ(Dtms::frequency(cluster_.node(0), channel_.endpoint_a), 121500);
  EXPECT_EQ(Dtms::frequency(cluster_.node(1), channel_.endpoint_b), 121500);
}

TEST_F(DtmsTest, InconsistentRetuneRejectedWhenHealthy) {
  DedisysNode& a = cluster_.node(0);
  TxScope tx(a.tx());
  EXPECT_THROW(a.invoke(tx.id(), channel_.endpoint_a, "setFrequency",
                        {Value{std::int64_t{999}}}),
               ConstraintViolation);
}

TEST_F(DtmsTest, PartitionMakesPeerUnreachableAndThreatUncheckable) {
  cluster_.inject(fault::split_indices({{0}, {1}}));
  DedisysNode& a = cluster_.node(0);
  // Peer has no replica in this partition: NCC.
  EXPECT_FALSE(a.replication().reachable(channel_.endpoint_b));
  {
    TxScope tx(a.tx());
    a.invoke(tx.id(), channel_.endpoint_a, "setFrequency",
             {Value{std::int64_t{122800}}});
    tx.commit();
  }
  const auto threats = cluster_.threats().load_all();
  ASSERT_EQ(threats.size(), 1u);
  EXPECT_EQ(threats[0].threat.degree, SatisfactionDegree::Uncheckable);
}

TEST_F(DtmsTest, ReconciliationResolvesRealMismatch) {
  cluster_.inject(fault::split_indices({{0}, {1}}));
  {
    TxScope tx(cluster_.node(0).tx());
    cluster_.node(0).invoke(tx.id(), channel_.endpoint_a, "setFrequency",
                            {Value{std::int64_t{122800}}});
    tx.commit();
  }
  cluster_.inject(fault::Heal{});

  class Resync final : public ConstraintReconciliationHandler {
   public:
    explicit Resync(DedisysNode& n) : node_(&n) {}
    bool reconcile(const ConsistencyThreat& threat,
                   ConstraintValidationContext& ctx) override {
      const Entity& e = ctx.read(threat.context_object);
      TxScope tx(node_->tx());
      node_->invoke(tx.id(), as_object(e.get("peer")), "setFrequency",
                    {e.get("frequency")});
      tx.commit();
      return true;
    }

   private:
    DedisysNode* node_;
  } resync(cluster_.node(0));

  const auto report = cluster_.reconcile(nullptr, &resync);
  EXPECT_EQ(report.constraints.violations, 1u);
  EXPECT_EQ(report.constraints.resolved_immediately, 1u);
  EXPECT_EQ(Dtms::frequency(cluster_.node(1), channel_.endpoint_b), 122800);
}

// ---------------------------------------------------------------------------
// Node crash and recovery (pause-crash model, Section 1.1)
// ---------------------------------------------------------------------------

TEST(CrashRecovery, CrashedNodeTreatedAsPartitionThenRecovers) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  Cluster cluster(cfg);
  FlightBooking::define_classes(cluster.classes());
  FlightBooking::register_constraints(cluster.constraints());
  DedisysNode& n0 = cluster.node(0);
  const ObjectId flight = FlightBooking::create_flight(n0, 80);
  FlightBooking::sell(n0, flight, 10);

  cluster.inject(fault::Crash{NodeId{2}});
  EXPECT_EQ(n0.mode(), SystemMode::Degraded);
  // The pause-crash lost node 2's volatile replicas.
  EXPECT_FALSE(cluster.node(2).replication().has_local_replica(flight));
  // Work continues; threats arise because node 2 might be a partition.
  FlightBooking::sell(n0, flight, 5);
  EXPECT_EQ(cluster.threats().identity_count(), 1u);

  cluster.inject(fault::Restart{NodeId{2}});
  EXPECT_EQ(n0.mode(), SystemMode::Reconciling);
  const auto report = cluster.reconcile();
  EXPECT_EQ(report.replica.conflicts, 0u);  // it was a crash, not a split
  EXPECT_EQ(report.constraints.removed_satisfied, 1u);
  // The recovered node caught up on the missed update.
  EXPECT_EQ(as_int(cluster.node(2)
                       .replication()
                       .local_replica(flight)
                       .get("soldTickets")),
            15);
  EXPECT_EQ(n0.mode(), SystemMode::Healthy);
}

TEST(CrashRecovery, InjectRejectsNodesTheClusterLacks) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  Cluster cluster(cfg);
  FlightBooking::define_classes(cluster.classes());
  FlightBooking::register_constraints(cluster.constraints());
  const ObjectId flight = FlightBooking::create_flight(cluster.node(0), 80);
  const Topology before = cluster.sim().network().topology();

  EXPECT_THROW(cluster.inject(fault::Crash{NodeId{9}}), ConfigError);
  EXPECT_THROW(cluster.inject(fault::Restart{NodeId{9}}), ConfigError);
  EXPECT_THROW(cluster.inject(fault::Op{fault::Restart{NodeId{9}}}),
               ConfigError);

  const Topology after = cluster.sim().network().topology();
  EXPECT_EQ(after.alive, before.alive);
  EXPECT_EQ(after.group_of, before.group_of);
  EXPECT_EQ(cluster.sim().network().fault_stats().crashes, 0u);
  EXPECT_EQ(cluster.sim().network().fault_stats().restarts, 0u);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_EQ(cluster.node(i).mode(), SystemMode::Healthy);
    EXPECT_TRUE(cluster.node(i).replication().has_local_replica(flight));
  }
}

// ---------------------------------------------------------------------------
// Custom interceptors (standardjboss.xml extension point)
// ---------------------------------------------------------------------------

TEST(CustomInterceptor, SeesEveryInvocationOnItsNode) {
  class Auditor final : public Interceptor {
   public:
    Value invoke(Invocation& inv, InterceptorChain& chain) override {
      log.push_back(inv.method.name);
      return chain.proceed(inv);
    }
    [[nodiscard]] std::string name() const override { return "Auditor"; }
    std::vector<std::string> log;
  };

  ClusterConfig cfg;
  cfg.nodes = 1;
  Cluster cluster(cfg);
  FlightBooking::define_classes(cluster.classes());
  auto auditor = std::make_shared<Auditor>();
  cluster.node(0).add_server_interceptor(auditor);
  EXPECT_EQ(cluster.node(0).server_interceptor_names().back(), "Auditor");

  const ObjectId f = FlightBooking::create_flight(cluster.node(0), 10);
  FlightBooking::sell(cluster.node(0), f, 1);
  ASSERT_GE(auditor->log.size(), 2u);
  EXPECT_EQ(auditor->log[0], "setSeats");
  EXPECT_EQ(auditor->log[1], "sellTickets");
}

// ---------------------------------------------------------------------------
// Determinism: identical runs yield identical virtual time and state
// ---------------------------------------------------------------------------

TEST(Determinism, IdenticalRunsAreBitwiseRepeatable) {
  auto run = [] {
    ClusterConfig cfg;
    cfg.nodes = 3;
    Cluster cluster(cfg);
    FlightBooking::define_classes(cluster.classes());
    FlightBooking::register_constraints(cluster.constraints());
    const ObjectId f = FlightBooking::create_flight(cluster.node(0), 500);
    for (int i = 0; i < 20; ++i) {
      FlightBooking::sell(cluster.node(static_cast<std::size_t>(i % 3)), f, 2);
    }
    cluster.inject(fault::split_indices({{0, 1}, {2}}));
    FlightBooking::sell(cluster.node(0), f, 1);
    FlightBooking::sell(cluster.node(2), f, 1);
    cluster.inject(fault::Heal{});
    (void)cluster.reconcile();
    return std::make_pair(cluster.runtime().now(),
                          FlightBooking::sold(cluster.node(1), f));
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace dedisys
