// Version-stamped validation memoization (docs/validation_memo.md):
// cache hits skip re-evaluation, every write path (local setter,
// replication apply, rollback restore, degraded-era writes surfacing at
// reconciliation) busts exactly the affected entries, and memo-on runs
// are observably equivalent to memo-off runs.  Also covers the
// constraint-repository query-cache counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "middleware/admin.h"
#include "middleware/cluster.h"
#include "middleware/metrics.h"
#include "objects/entity.h"
#include "scenarios/chaos.h"
#include "scenarios/flight.h"
#include "validation/memo.h"

namespace dedisys {
namespace {

using scenarios::FlightBooking;

// OCL form of the ticket-constraint: analyzable (read-set {soldTickets,
// seats}, no arguments) and therefore memo-eligible.
constexpr const char* kTicketDescriptor = R"(<constraints>
  <constraint name="TicketConstraint" type="HARD" priority="RELAXABLE"
              minSatisfactionDegree="POSSIBLY_SATISFIED">
    <ocl>self.soldTickets &lt;= self.seats</ocl>
    <context-class>Flight</context-class>
    <affected-methods>
      <affected-method>
        <objectMethod name="sellTickets">
          <objectClass>Flight</objectClass>
          <arguments><argument>int</argument></arguments>
        </objectMethod>
      </affected-method>
      <affected-method>
        <objectMethod name="cancelTickets">
          <objectClass>Flight</objectClass>
          <arguments><argument>int</argument></arguments>
        </objectMethod>
      </affected-method>
    </affected-methods>
  </constraint>
</constraints>)";

// Cross-object variant: the context flight is reached through a ticket's
// reference.  The analyzer classifies it CrossObject (not intra-object),
// so degraded-mode bookings yield possibly-satisfied threats — while the
// read-set is still just the context entity, keeping it memo-eligible.
constexpr const char* kRefDescriptor = R"(<constraints>
  <constraint name="RefTicketConstraint" type="HARD" priority="RELAXABLE"
              minSatisfactionDegree="POSSIBLY_SATISFIED">
    <ocl>self.soldTickets &lt;= self.seats</ocl>
    <context-class>Flight</context-class>
    <affected-methods>
      <affected-method>
        <context-preparation>
          <preparation-class>ReferenceIsContextObject</preparation-class>
          <params><param name="getter" value="getFlight"/></params>
        </context-preparation>
        <objectMethod name="setFlight">
          <objectClass>Ticket</objectClass>
          <arguments><argument>object</argument></arguments>
        </objectMethod>
      </affected-method>
    </affected-methods>
  </constraint>
</constraints>)";

class MemoTestBase : public ::testing::Test {
 protected:
  explicit MemoTestBase(std::size_t nodes)
      : cluster_(make_config(nodes)), admin_(cluster_) {
    FlightBooking::define_classes(cluster_.classes());
    admin_.deploy_constraints(kTicketDescriptor);
    flight_ = FlightBooking::create_flight(cluster_.node(0), 100);
  }

  static ClusterConfig make_config(std::size_t nodes) {
    ClusterConfig cfg;
    cfg.nodes = nodes;
    cfg.validation_memo = true;
    cfg.observability = true;
    return cfg;
  }

  Cluster cluster_;
  AdminConsole admin_;
  ObjectId flight_;
};

class MemoTest : public MemoTestBase {
 protected:
  MemoTest() : MemoTestBase(1) {}
};

class MemoClusterTest : public MemoTestBase {
 protected:
  MemoClusterTest() : MemoTestBase(3) {
    cluster_.classes().define("Ticket").define_property("flight", Value{},
                                                        "object");
    admin_.deploy_constraints(kRefDescriptor);
  }

  /// Books a ticket on `flight_`: the setFlight link triggers the
  /// cross-object RefTicketConstraint against the referenced flight.
  ObjectId book(DedisysNode& node) {
    TxScope tx(node.tx());
    const ObjectId ticket = node.create(tx.id(), "Ticket");
    node.invoke(tx.id(), ticket, "setFlight", {Value{flight_}});
    tx.commit();
    return ticket;
  }
};

TEST_F(MemoTest, HitSkipsReEvaluation) {
  FlightBooking::sell(cluster_.node(0), flight_, 10);  // evaluates + stores
  auto& ccm = cluster_.node(0).ccmgr();
  EXPECT_GE(ccm.memo_stats().stores, 1u);
  const std::size_t validations = ccm.stats().validations;
  const std::size_t hits = ccm.memo_stats().hits;
  const auto violating =
      ccm.revalidate_for_objects("TicketConstraint", {flight_});
  EXPECT_TRUE(violating.empty());
  EXPECT_EQ(ccm.stats().validations, validations);  // no re-evaluation
  EXPECT_EQ(ccm.memo_stats().hits, hits + 1);
}

TEST_F(MemoTest, LocalWriteInvalidatesTheEntry) {
  FlightBooking::sell(cluster_.node(0), flight_, 10);
  auto& ccm = cluster_.node(0).ccmgr();
  const std::size_t invalidations = ccm.memo_stats().invalidations;
  // The next sell writes the entity before its invariant validates: the
  // cached fingerprint no longer matches (MissStale) and is replaced.
  FlightBooking::sell(cluster_.node(0), flight_, 5);
  EXPECT_EQ(ccm.memo_stats().invalidations, invalidations + 1);
  const std::size_t hits = ccm.memo_stats().hits;
  (void)ccm.revalidate_for_objects("TicketConstraint", {flight_});
  EXPECT_EQ(ccm.memo_stats().hits, hits + 1);  // re-warmed by the store
}

TEST_F(MemoTest, UnrelatedEntityWriteKeepsTheEntry) {
  const ObjectId other = FlightBooking::create_flight(cluster_.node(0), 50);
  FlightBooking::sell(cluster_.node(0), flight_, 10);
  auto& ccm = cluster_.node(0).ccmgr();
  const std::size_t invalidations = ccm.memo_stats().invalidations;
  FlightBooking::sell(cluster_.node(0), other, 5);
  const std::size_t hits = ccm.memo_stats().hits;
  (void)ccm.revalidate_for_objects("TicketConstraint", {flight_});
  EXPECT_EQ(ccm.memo_stats().hits, hits + 1);
  EXPECT_EQ(ccm.memo_stats().invalidations, invalidations);
}

TEST_F(MemoTest, RollbackRestoreInvalidatesDespiteIdenticalState) {
  FlightBooking::sell(cluster_.node(0), flight_, 10);
  DedisysNode& n = cluster_.node(0);
  auto& ccm = n.ccmgr();
  const std::size_t invalidations = ccm.memo_stats().invalidations;
  {
    TxScope tx(n.tx());
    n.invoke(tx.id(), flight_, "sellTickets", {Value{std::int64_t{5}}});
    tx.rollback();  // Entity::restore() back to the pre-tx state
  }
  EXPECT_EQ(FlightBooking::sold(n, flight_), 10);
  // The attribute values equal the cached state again, but the write
  // stamp moved (write + undo restore): reusing the entry would be
  // unsound in general, so it must read as stale, never as a hit.
  const std::size_t hits = ccm.memo_stats().hits;
  (void)ccm.revalidate_for_objects("TicketConstraint", {flight_});
  EXPECT_EQ(ccm.memo_stats().hits, hits);
  EXPECT_GE(ccm.memo_stats().invalidations, invalidations + 1);
}

TEST_F(MemoTest, TogglingMemoOffClearsAndBypasses) {
  FlightBooking::sell(cluster_.node(0), flight_, 10);
  auto& ccm = cluster_.node(0).ccmgr();
  EXPECT_TRUE(ccm.validation_memo());
  ccm.set_validation_memo(false);
  const std::size_t hits = ccm.memo_stats().hits;
  const std::size_t validations = ccm.stats().validations;
  (void)ccm.revalidate_for_objects("TicketConstraint", {flight_});
  EXPECT_EQ(ccm.memo_stats().hits, hits);
  EXPECT_EQ(ccm.stats().validations, validations + 1);
}

TEST_F(MemoTest, DestroyDropsEntriesOfTheObject) {
  FlightBooking::sell(cluster_.node(0), flight_, 10);
  DedisysNode& n = cluster_.node(0);
  EXPECT_GE(n.ccmgr().memo_stats().stores, 1u);
  {
    TxScope tx(n.tx());
    n.destroy(tx.id(), flight_);
    tx.commit();
  }
  EXPECT_GE(n.ccmgr().memo_stats().evictions, 1u);
}

TEST_F(MemoTest, TraceRecordsHitsAndInvalidations) {
  FlightBooking::sell(cluster_.node(0), flight_, 10);
  auto& ccm = cluster_.node(0).ccmgr();
  (void)ccm.revalidate_for_objects("TicketConstraint", {flight_});  // hit
  FlightBooking::sell(cluster_.node(0), flight_, 5);  // stale miss
  const auto& trace = cluster_.obs().trace();
  EXPECT_GE(trace.events_of(obs::TraceEventKind::ValidationMemoHit).size(),
            1u);
  EXPECT_GE(
      trace.events_of(obs::TraceEventKind::ValidationMemoInvalidate).size(),
      1u);
}

TEST_F(MemoTest, MetricsExposeMemoAndLookupCacheCounters) {
  FlightBooking::sell(cluster_.node(0), flight_, 10);
  (void)cluster_.node(0).ccmgr().revalidate_for_objects("TicketConstraint",
                                                        {flight_});
  const ClusterMetrics m = collect_metrics(cluster_);
  EXPECT_GE(m.total(&NodeMetrics::memo_hits), 1u);
  EXPECT_GE(m.total(&NodeMetrics::memo_stores), 1u);
  EXPECT_GE(m.lookup_searches, 1u);
  EXPECT_EQ(m.lookup_searches, m.lookup_cache_hits + m.lookup_cache_misses);
  const std::string json = admin_.metrics_json();
  EXPECT_NE(json.find("\"memo\""), std::string::npos);
  EXPECT_NE(json.find("\"lookup_cache\""), std::string::npos);
  EXPECT_NE(json.find("\"memo_hits\""), std::string::npos);
}

TEST_F(MemoClusterTest, ReplicatedWriteInvalidatesBackupEntries) {
  FlightBooking::sell(cluster_.node(0), flight_, 10);
  auto& backup = cluster_.node(1).ccmgr();
  // Warm the backup node's cache against its local replica.
  EXPECT_TRUE(
      backup.revalidate_for_objects("TicketConstraint", {flight_}).empty());
  EXPECT_GE(backup.memo_stats().stores, 1u);
  const std::size_t hits = backup.memo_stats().hits;
  const std::size_t invalidations = backup.memo_stats().invalidations;
  // A write through the primary propagates to the backup replica, whose
  // write stamp advances — the backup's cached entry must not survive.
  FlightBooking::sell(cluster_.node(0), flight_, 5);
  (void)backup.revalidate_for_objects("TicketConstraint", {flight_});
  EXPECT_EQ(backup.memo_stats().hits, hits);
  EXPECT_EQ(backup.memo_stats().invalidations, invalidations + 1);
}

TEST_F(MemoClusterTest, DegradedValidationsBypassTheMemo) {
  FlightBooking::sell(cluster_.node(0), flight_, 10);
  auto& ccm = cluster_.node(0).ccmgr();
  const auto before = ccm.memo_stats();  // copy
  cluster_.inject(fault::split_indices({{0, 1}, {2}}));
  // LCC semantics: degrees depend on partition state, so degraded-mode
  // validations neither consult nor fill the cache.
  FlightBooking::sell(cluster_.node(0), flight_, 5);
  EXPECT_EQ(ccm.memo_stats().hits, before.hits);
  EXPECT_EQ(ccm.memo_stats().misses, before.misses);
  EXPECT_EQ(ccm.memo_stats().stores, before.stores);
}

TEST_F(MemoClusterTest, ReconcileBatchesViaWarmMemoEntries) {
  cluster_.inject(fault::split_indices({{0, 1}, {2}}));
  // The referenced flight is possibly stale (its node-2 replica is out of
  // view), so the booking commits with an accepted threat.
  book(cluster_.node(0));
  EXPECT_EQ(cluster_.threats().identity_count(), 1u);
  cluster_.inject(fault::Heal{});
  auto& ccm = cluster_.node(0).ccmgr();
  // Healthy again: this revalidation evaluates once and warms the cache.
  EXPECT_TRUE(
      ccm.revalidate_for_objects("RefTicketConstraint", {flight_}).empty());
  // Constraint reconciliation re-evaluates the stored threat through the
  // same (constraint, fingerprint) key and takes the cached outcome.
  const auto report = ccm.reconcile(nullptr);
  EXPECT_EQ(report.reevaluated, 1u);
  EXPECT_EQ(report.removed_satisfied, 1u);
  EXPECT_EQ(report.batched, 1u);
  EXPECT_EQ(cluster_.threats().identity_count(), 0u);
}

TEST_F(MemoClusterTest, DegradedWritesSurfaceAsStaleAtReconciliation) {
  book(cluster_.node(0));  // healthy: warms (RefTicketConstraint, flight)
  auto& ccm = cluster_.node(0).ccmgr();
  EXPECT_GE(ccm.memo_stats().stores, 1u);
  cluster_.inject(fault::split_indices({{0, 1}, {2}}));
  FlightBooking::sell(cluster_.node(0), flight_, 5);  // flight stamp moves
  book(cluster_.node(0));  // degraded booking: stored threat
  cluster_.inject(fault::Heal{});
  const std::size_t invalidations = ccm.memo_stats().invalidations;
  const auto report = cluster_.reconcile();
  EXPECT_EQ(report.constraints.removed_satisfied, 1u);
  // The pre-partition entry was fingerprinted before the degraded-era
  // sell; reconciliation's re-evaluation must see it as stale, not reuse
  // the cached outcome.
  EXPECT_GE(ccm.memo_stats().invalidations, invalidations + 1);
}

TEST(MemoChaosEquivalence, SeededRunsIdenticalWithMemoOnAndOff) {
  for (std::uint64_t seed : {1u, 7u}) {
    scenarios::ChaosOptions off;
    off.seed = seed;
    off.ops = 40;
    off.fault_events = 8;
    off.horizon = sim_ms(250);
    scenarios::ChaosOptions on = off;
    on.validation_memo = true;
    const scenarios::ChaosResult a = scenarios::run_chaos(off);
    const scenarios::ChaosResult b = scenarios::run_chaos(on);
    EXPECT_TRUE(a.invariants_ok()) << "seed " << seed;
    EXPECT_TRUE(b.invariants_ok()) << "seed " << seed;
    EXPECT_EQ(a.committed, b.committed) << "seed " << seed;
    EXPECT_EQ(a.aborted, b.aborted) << "seed " << seed;
    EXPECT_EQ(a.timeline, b.timeline) << "seed " << seed;
    EXPECT_EQ(a.metrics_json, b.metrics_json) << "seed " << seed;
  }
}

TEST(ValidationMemoUnit, LookupStoreAndTargetedInvalidation) {
  validation::ValidationMemo memo;
  const ObjectId obj{7};
  auto looked = memo.lookup("C", obj, 1);
  EXPECT_EQ(looked.outcome, validation::ValidationMemo::Outcome::MissCold);
  memo.store("C", obj, 1, SatisfactionDegree::Violated);
  looked = memo.lookup("C", obj, 1);
  EXPECT_EQ(looked.outcome, validation::ValidationMemo::Outcome::Hit);
  EXPECT_EQ(looked.degree, SatisfactionDegree::Violated);
  looked = memo.lookup("C", obj, 2);
  EXPECT_EQ(looked.outcome, validation::ValidationMemo::Outcome::MissStale);
  EXPECT_EQ(memo.invalidate_object(obj), 1u);
  EXPECT_EQ(memo.size(), 0u);

  memo.store("C", obj, 2, SatisfactionDegree::Satisfied);
  memo.store("D", obj, 2, SatisfactionDegree::Satisfied);
  memo.store("C", ObjectId{17}, 2, SatisfactionDegree::Satisfied);
  EXPECT_EQ(memo.invalidate_constraint("C"), 2u);
  EXPECT_EQ(memo.size(), 1u);
  // Object 7 must not suffix-match object 17's key.
  EXPECT_EQ(memo.invalidate_object(ObjectId{7}), 1u);
  EXPECT_EQ(memo.invalidate_object(ObjectId{7}), 0u);
}

TEST(EntityWriteStamp, SetAndRestoreAlwaysAdvance) {
  ClassRegistry classes;
  ClassDescriptor& cls = classes.define("Stamped");
  cls.define_property("v", Value{std::int64_t{0}}, "int");
  Entity entity(ObjectId{1}, cls);
  const std::uint64_t initial = entity.write_stamp();
  const EntitySnapshot snap = entity.snapshot();
  entity.set("v", Value{std::int64_t{1}});
  const std::uint64_t after_set = entity.write_stamp();
  EXPECT_GT(after_set, initial);
  entity.restore(snap);  // back to the original attribute values...
  EXPECT_GT(entity.write_stamp(), after_set);  // ...yet the stamp advances
  EXPECT_EQ(entity.version(), snap.version);
}

TEST(RepositoryCaching, SetCachingIsIdempotentAndCountersTrack) {
  ConstraintRepository repo;
  ConstraintRegistration reg;
  reg.constraint = std::make_shared<FunctionConstraint>(
      "C", ConstraintType::HardInvariant, ConstraintPriority::Tradeable,
      [](ConstraintValidationContext&) { return true; });
  reg.affected_methods.push_back(AffectedMethod{
      "A", MethodSignature{"m", {}},
      ContextPreparation{ContextPreparationKind::CalledObject, ""}});
  repo.register_constraint(std::move(reg));

  (void)repo.lookup("A", {"m", {}}, ConstraintType::HardInvariant);  // miss
  (void)repo.lookup("A", {"m", {}}, ConstraintType::HardInvariant);  // hit
  EXPECT_EQ(repo.cache_miss_count(), 1u);
  EXPECT_EQ(repo.cache_hit_count(), 1u);

  repo.set_caching(true);  // idempotent: the warm cache survives
  (void)repo.lookup("A", {"m", {}}, ConstraintType::HardInvariant);
  EXPECT_EQ(repo.cache_hit_count(), 2u);
  EXPECT_EQ(repo.cache_miss_count(), 1u);

  repo.set_caching(false);  // a real transition still drops the cache
  (void)repo.lookup("A", {"m", {}}, ConstraintType::HardInvariant);
  EXPECT_EQ(repo.cache_hit_count(), 2u);  // naive path: counters untouched
  EXPECT_EQ(repo.cache_miss_count(), 1u);

  repo.set_caching(true);
  (void)repo.lookup("A", {"m", {}}, ConstraintType::HardInvariant);
  EXPECT_EQ(repo.cache_miss_count(), 2u);  // the cache had been invalidated
  EXPECT_EQ(repo.search_count(), 5u);
}

}  // namespace
}  // namespace dedisys
