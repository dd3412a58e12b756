// Negotiation and threat-lifecycle details: freshness criteria (Fig. 4.3),
// application data and reconciliation instructions attached during
// negotiation, replica-conflict notifications (Section 3.3) and postponed
// threats while partitions remain.
#include <gtest/gtest.h>

#include "middleware/cluster.h"
#include "scenarios/ats.h"
#include "scenarios/evalapp.h"
#include "scenarios/flight.h"

namespace dedisys {
namespace {

using scenarios::EvalApp;
using scenarios::FlightBooking;

// ---------------------------------------------------------------------------
// Freshness criteria (estimated latest version vs actual version)
// ---------------------------------------------------------------------------

class FreshnessTest : public ::testing::Test {
 protected:
  FreshnessTest() : cluster_(make_config()) {
    scenarios::AlarmTracking::define_classes(cluster_.classes());
    scenarios::AlarmTracking::register_constraints(
        cluster_.constraints(), SatisfactionDegree::PossiblyViolated);
    // Accept threats only while the stale Alarm copy missed at most 2
    // expected updates (maxAge = 2 versions, Fig. 4.3 freshness criteria).
    cluster_.constraints()
        .find("ComponentKindReferenceConsistency")
        .set_freshness("Alarm", 2);
    pair_ = scenarios::AlarmTracking::create_linked(cluster_.node(0),
                                                    "Signal");
    // Alarms are normally updated about every simulated second.
    for (std::size_t i = 0; i < cluster_.size(); ++i) {
      cluster_.node(i)
          .replication()
          .local_replica(pair_.alarm)
          .set_expected_update_period(sim_sec(1));
    }
  }

  static ClusterConfig make_config() {
    ClusterConfig cfg;
    cfg.nodes = 2;
    return cfg;
  }

  /// The technical operator records a mismatched repair: validated against
  /// the (possibly stale) Alarm copy, this is a possibly-violated threat.
  void record_mismatched_repair() {
    DedisysNode& tech = cluster_.node(1);
    TxScope tx(tech.tx());
    tech.invoke(tx.id(), pair_.report, "setAffectedComponent",
                {Value{std::string{"Power Supply"}}});
    tx.commit();
  }

  Cluster cluster_;
  scenarios::AlarmTracking::Pair pair_;
};

TEST_F(FreshnessTest, FreshEnoughStaleCopyIsAccepted) {
  cluster_.inject(fault::split_indices({{0}, {1}}));
  // Immediately after the split the Alarm copy missed ~0 expected updates.
  EXPECT_NO_THROW(record_mismatched_repair());
  EXPECT_EQ(cluster_.threats().identity_count(), 1u);
}

TEST_F(FreshnessTest, TooStaleCopyIsRejected) {
  cluster_.inject(fault::split_indices({{0}, {1}}));
  // Five expected update periods elapse without updates reaching this
  // partition: the estimated latest version exceeds the actual by 5 > 2.
  cluster_.runtime().charge(sim_sec(5));
  EXPECT_THROW(record_mismatched_repair(), ConsistencyThreatRejected);
  EXPECT_EQ(cluster_.threats().identity_count(), 0u);
}

TEST_F(FreshnessTest, FreshnessIgnoredForClassesWithoutCriterion) {
  // A criterion keyed by an unrelated class must not restrict Flights.
  ClusterConfig cfg;
  cfg.nodes = 3;
  Cluster other(cfg);
  FlightBooking::define_classes(other.classes());
  FlightBooking::register_constraints(other.constraints(), false,
                                      SatisfactionDegree::PossiblySatisfied);
  other.constraints().find("TicketConstraint").set_freshness("SomethingElse",
                                                             0);
  const ObjectId f = FlightBooking::create_flight(other.node(0), 100);
  other.node(0).replication().local_replica(f).set_expected_update_period(
      sim_sec(1));
  other.inject(fault::split_indices({{0, 1}, {2}}));
  other.runtime().charge(sim_sec(60));
  EXPECT_NO_THROW(FlightBooking::sell(other.node(0), f, 1));
}

// ---------------------------------------------------------------------------
// Negotiation outcome payloads
// ---------------------------------------------------------------------------

TEST(NegotiationPayload, ApplicationDataAndInstructionsArePersisted) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  Cluster cluster(cfg);
  EvalApp::define_classes(cluster.classes());
  EvalApp::register_constraints(cluster.constraints());
  const auto ids = EvalApp::create_entities(cluster.node(0), 1);
  cluster.inject(fault::split_indices({{0, 1}, {2}}));

  class Annotating final : public NegotiationHandler {
   public:
    NegotiationOutcome negotiate(const ConsistencyThreat&,
                                 ConstraintValidationContext&) override {
      NegotiationOutcome out;
      out.accepted = true;
      out.application_data = "booking-ref=XY123";
      out.instructions.allow_rollback = true;
      out.instructions.notify_on_replica_conflict = true;
      return out;
    }
  };
  EXPECT_TRUE(EvalApp::run_op_negotiated(cluster.node(0), ids[0],
                                         "emptyThreat",
                                         std::make_shared<Annotating>()));

  const auto stored = cluster.threats().load_all();
  ASSERT_EQ(stored.size(), 1u);
  EXPECT_EQ(stored[0].threat.application_data, "booking-ref=XY123");
  EXPECT_TRUE(stored[0].threat.instructions.allow_rollback);
  EXPECT_TRUE(stored[0].threat.instructions.notify_on_replica_conflict);
  EXPECT_EQ(stored[0].threat.degree, SatisfactionDegree::PossiblySatisfied);
  ASSERT_FALSE(stored[0].threat.affected_objects.empty());
  EXPECT_EQ(stored[0].threat.affected_objects[0], ids[0]);
}

// ---------------------------------------------------------------------------
// Replica-conflict notification for satisfied threats (Section 3.3)
// ---------------------------------------------------------------------------

TEST(ConflictNotification, HandlerInformedWhenSatisfiedThreatHadConflict) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  Cluster cluster(cfg);
  FlightBooking::define_classes(cluster.classes());
  FlightBooking::register_constraints(cluster.constraints(), false,
                                      SatisfactionDegree::PossiblySatisfied);
  const ObjectId flight = FlightBooking::create_flight(cluster.node(0), 1000);
  cluster.inject(fault::split_indices({{0, 1}, {2}}));

  class Annotating final : public NegotiationHandler {
   public:
    NegotiationOutcome negotiate(const ConsistencyThreat&,
                                 ConstraintValidationContext&) override {
      NegotiationOutcome out;
      out.accepted = true;
      out.instructions.notify_on_replica_conflict = true;
      return out;
    }
  };
  // Conflicting writes in both partitions, both far below capacity: the
  // constraint is satisfied after the merge, but the conflict existed.
  {
    TxScope tx(cluster.node(0).tx());
    cluster.node(0).ccmgr().register_negotiation_handler(
        tx.id(), std::make_shared<Annotating>());
    cluster.node(0).invoke(tx.id(), flight, "sellTickets",
                           {Value{std::int64_t{1}}});
    tx.commit();
  }
  FlightBooking::sell(cluster.node(2), flight, 2);
  cluster.inject(fault::Heal{});

  class Recorder final : public ConstraintReconciliationHandler {
   public:
    bool reconcile(const ConsistencyThreat&,
                   ConstraintValidationContext&) override {
      return true;
    }
    void on_replica_conflict_resolved(const ConsistencyThreat&) override {
      ++notifications;
    }
    int notifications = 0;
  } recorder;

  const auto report = cluster.reconcile(nullptr, &recorder);
  EXPECT_EQ(report.replica.conflicts, 1u);
  EXPECT_EQ(report.constraints.removed_satisfied, 1u);
  EXPECT_EQ(report.constraints.conflict_notifications, 1u);
  EXPECT_EQ(recorder.notifications, 1);
}

// ---------------------------------------------------------------------------
// Postponed threats while further partitions remain (Section 3.3)
// ---------------------------------------------------------------------------

TEST(PostponedThreats, ReEvaluationWaitsForRemainingPartitions) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  Cluster cluster(cfg);
  FlightBooking::define_classes(cluster.classes());
  FlightBooking::register_constraints(cluster.constraints(), false,
                                      SatisfactionDegree::PossiblySatisfied);
  const ObjectId flight = FlightBooking::create_flight(cluster.node(0), 100);

  cluster.inject(fault::split_indices({{0}, {1}, {2}}));
  FlightBooking::sell(cluster.node(0), flight, 1);
  EXPECT_EQ(cluster.threats().identity_count(), 1u);

  // Partial merge: {0,1} reunify, {2} still unreachable — re-evaluation of
  // the threat must be postponed (still only an LCC).
  cluster.inject(fault::split_indices({{0, 1}, {2}}));
  const auto stats = cluster.node(0).ccmgr().reconcile(nullptr);
  EXPECT_EQ(stats.postponed, 1u);
  EXPECT_EQ(cluster.threats().identity_count(), 1u);

  // Full heal: now the threat resolves.
  cluster.inject(fault::Heal{});
  const auto report = cluster.reconcile();
  EXPECT_EQ(report.constraints.removed_satisfied, 1u);
  EXPECT_EQ(cluster.threats().identity_count(), 0u);
}

// ---------------------------------------------------------------------------
// Negotiation priority: dynamic > static (paper's ordering)
// ---------------------------------------------------------------------------

TEST(NegotiationPriority, DynamicHandlerOverridesStaticAcceptance) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  Cluster cluster(cfg);
  EvalApp::define_classes(cluster.classes());
  EvalApp::register_constraints(cluster.constraints());
  // Static rule would ACCEPT everything...
  cluster.constraints().find("TouchHard").set_min_satisfaction_degree(
      SatisfactionDegree::Uncheckable);
  const auto ids = EvalApp::create_entities(cluster.node(0), 1);
  cluster.inject(fault::split_indices({{0, 1}, {2}}));

  class RejectAll final : public NegotiationHandler {
   public:
    NegotiationOutcome negotiate(const ConsistencyThreat&,
                                 ConstraintValidationContext&) override {
      return NegotiationOutcome{};
    }
  };
  // ...but the registered dynamic handler rejects, and it takes priority.
  EXPECT_FALSE(EvalApp::run_op_negotiated(cluster.node(0), ids[0],
                                          "emptyThreat",
                                          std::make_shared<RejectAll>()));
  // Without a handler, the static rule applies again.
  EXPECT_TRUE(EvalApp::run_op(cluster.node(0), ids[0], "emptyThreat"));
}

}  // namespace
}  // namespace dedisys
