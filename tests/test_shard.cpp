// Sharded front door: routing pins, replica confinement, forwarding,
// admission control (fee escalation, priority ordering, eviction),
// cross-shard 2PC and the shed-counter observability surface.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "middleware/admin.h"
#include "middleware/cluster.h"
#include "middleware/obs_export.h"
#include "scenarios/chaos.h"
#include "scenarios/evalapp.h"
#include "shard/front_door.h"
#include "shard/request.h"
#include "shard/shard_map.h"

namespace dedisys {
namespace {

using scenarios::EvalApp;

// ---------------------------------------------------------------------------
// ShardMap
// ---------------------------------------------------------------------------

// The avalanche mix is part of the persisted-routing contract: these pins
// must never change (committed bench baselines and recorded assignments
// depend on every platform computing the same shard for the same key).
TEST(ShardMap, HashPinsAreStableForever) {
  EXPECT_EQ(shard::ShardMap::mix(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(shard::ShardMap::mix(1), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(shard::ShardMap::mix(2), 0x975835de1c9756ceULL);
  EXPECT_EQ(shard::ShardMap::mix(42), 0xbdd732262feb6e95ULL);
  EXPECT_EQ(shard::ShardMap::mix(0xdeadbeefULL), 0x4adfb90f68c9eb9bULL);

  std::vector<NodeId> nodes;
  for (std::uint64_t i = 0; i < 8; ++i) nodes.push_back(NodeId{i});
  const shard::ShardMap map(nodes, 4);
  EXPECT_EQ(map.shard_of_key(0), 3u);
  EXPECT_EQ(map.shard_of_key(1), 1u);
  EXPECT_EQ(map.shard_of_key(2), 2u);
  EXPECT_EQ(map.shard_of_key(42), 1u);
  EXPECT_EQ(map.shard_of_key(123456789), 1u);
}

TEST(ShardMap, ContiguousSlicingAndNodeOwnership) {
  std::vector<NodeId> nodes;
  for (std::uint64_t i = 0; i < 5; ++i) nodes.push_back(NodeId{i});
  const shard::ShardMap map(nodes, 2);
  ASSERT_EQ(map.shard_count(), 2u);
  // 5 nodes over 2 shards: sizes differ by at most one.
  EXPECT_EQ(map.nodes_of(0).size() + map.nodes_of(1).size(), 5u);
  EXPECT_LE(map.nodes_of(0).size(), 3u);
  EXPECT_EQ(map.home_of(0), map.nodes_of(0).front());
  EXPECT_TRUE(map.owns(0, map.nodes_of(0).front()));
  EXPECT_FALSE(map.owns(1, map.nodes_of(0).front()));
  EXPECT_EQ(map.shard_of_node(map.nodes_of(1).front()), 1u);
  EXPECT_THROW(shard::ShardMap({NodeId{0}}, 2), ConfigError);
}

TEST(ShardMap, ExplicitAssignmentOverridesHashUntilForgotten) {
  std::vector<NodeId> nodes{NodeId{0}, NodeId{1}, NodeId{2}, NodeId{3}};
  shard::ShardMap map(nodes, 2);
  const ObjectId id{7};
  const shard::ShardId hashed = map.shard_of(id);
  const shard::ShardId other = 1 - hashed;
  map.assign(id, other);
  EXPECT_EQ(map.shard_of(id), other);
  EXPECT_EQ(map.assigned_count(), 1u);
  map.forget(id);
  EXPECT_EQ(map.shard_of(id), hashed);
  EXPECT_EQ(map.assigned_count(), 0u);
}

// ---------------------------------------------------------------------------
// Front door
// ---------------------------------------------------------------------------

std::uint64_t key_for_shard(const shard::ShardMap& map, shard::ShardId s) {
  std::uint64_t key = 0;
  while (map.shard_of_key(key) != s) ++key;
  return key;
}

/// Creates one TestEntity on `s` through the front door.
ObjectId create_on_shard(Cluster& cluster, shard::ShardId s) {
  ObjectId created;
  cluster.front_door().set_outcome_sink([&created](const shard::Outcome& o) {
    if (o.committed) created = o.created;
  });
  shard::Request req;
  req.op = shard::RequestOp::Create;
  req.class_name = "TestEntity";
  req.client = key_for_shard(cluster.shards(), s);
  const shard::Submission sub = cluster.submit(std::move(req));
  EXPECT_TRUE(sub.admitted());
  EXPECT_EQ(sub.shard, s);
  cluster.front_door().drain();
  cluster.front_door().set_outcome_sink(nullptr);
  return created;
}

Cluster make_sharded(std::size_t nodes, std::size_t shards,
                     shard::ShardPolicy policy = {}) {
  ClusterConfig cfg;
  cfg.nodes = nodes;
  cfg.shards = shards;
  cfg.shard_policy = policy;
  return Cluster(cfg);
}

TEST(FrontDoor, CreateConfinesReplicasToTheOwningShard) {
  Cluster cluster = make_sharded(4, 2);
  EvalApp::define_classes(cluster.classes());

  const ObjectId on1 = create_on_shard(cluster, 1);
  EXPECT_EQ(cluster.shards().shard_of(on1), 1u);
  // Shard 1 owns nodes {2, 3}: only they hold replicas.
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const bool holds = cluster.node(i).replication().has_local_replica(on1);
    const bool member = cluster.shards().owns(1, cluster.node(i).id());
    EXPECT_EQ(holds, member) << "node " << i;
  }
  EXPECT_EQ(cluster.front_door().stats(1).committed, 1u);
}

TEST(FrontDoor, MisroutedRequestIsForwardedNotRejected) {
  Cluster cluster = make_sharded(4, 2);
  EvalApp::define_classes(cluster.classes());
  const ObjectId on0 = create_on_shard(cluster, 0);

  shard::Request req;
  req.op = shard::RequestOp::Invoke;
  req.target = on0;
  req.method = "setValue";
  req.args = {Value{std::string{"fwd"}}};
  req.via = NodeId{3};  // a shard-1 node: one charged hop to shard 0's home
  const shard::Submission sub = cluster.submit(std::move(req));
  EXPECT_TRUE(sub.admitted());
  EXPECT_TRUE(sub.forwarded);
  EXPECT_EQ(cluster.front_door().drain(), 1u);
  EXPECT_EQ(cluster.front_door().stats(0).forwarded, 1u);
  EXPECT_EQ(cluster.front_door().stats(0).committed, 2u);  // create + invoke

  // Addressed to a replica of the owning group: no forward.
  shard::Request direct;
  direct.op = shard::RequestOp::Invoke;
  direct.target = on0;
  direct.method = "getValue";
  direct.via = cluster.shards().home_of(0);
  const shard::Submission sub2 = cluster.submit(std::move(direct));
  EXPECT_TRUE(sub2.admitted());
  EXPECT_FALSE(sub2.forwarded);
  cluster.front_door().drain();
  EXPECT_EQ(cluster.front_door().stats(0).forwarded, 1u);
}

TEST(FrontDoor, UnknownTargetsAndClassesShedAsBadRequest) {
  Cluster cluster = make_sharded(4, 2);
  EvalApp::define_classes(cluster.classes());

  shard::Request bad_class;
  bad_class.op = shard::RequestOp::Create;
  bad_class.class_name = "NoSuchClass";
  const shard::Submission s1 = cluster.submit(std::move(bad_class));
  EXPECT_FALSE(s1.admitted());
  EXPECT_EQ(s1.reason, shard::ShedReason::BadRequest);

  shard::Request bad_target;
  bad_target.op = shard::RequestOp::Invoke;
  bad_target.target = ObjectId{99999};
  bad_target.method = "getValue";
  const shard::Submission s2 = cluster.submit(std::move(bad_target));
  EXPECT_FALSE(s2.admitted());
  EXPECT_EQ(s2.reason, shard::ShedReason::BadRequest);
  EXPECT_EQ(cluster.front_door().totals().shed_bad_request, 2u);
}

TEST(FrontDoor, FeeEscalatesQuadraticallyPastThresholdDepth) {
  shard::ShardPolicy policy;
  policy.queue_capacity = 8;
  policy.escalation_threshold = 0.5;  // threshold depth 4
  policy.base_fee = 10;
  Cluster cluster = make_sharded(2, 1, policy);
  EvalApp::define_classes(cluster.classes());
  const ObjectId target = create_on_shard(cluster, 0);

  auto invoke_req = [&](std::uint64_t fee) {
    shard::Request req;
    req.op = shard::RequestOp::Invoke;
    req.target = target;
    req.method = "getValue";
    req.fee = fee;
    return req;
  };

  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(cluster.front_door().required_fee(0), 10u);
    EXPECT_TRUE(cluster.submit(invoke_req(0)).admitted());
  }
  // Depth 4 = threshold: required fee jumps to base * 5^2 / 4^2.
  EXPECT_EQ(cluster.front_door().required_fee(0), 15u);
  const shard::Submission shed = cluster.submit(invoke_req(0));
  EXPECT_FALSE(shed.admitted());
  EXPECT_EQ(shed.reason, shard::ShedReason::FeeBelowRequired);
  EXPECT_EQ(shed.required_fee, 15u);
  // An escalated bid clears the same gate.
  EXPECT_TRUE(cluster.submit(invoke_req(15)).admitted());
  EXPECT_EQ(cluster.front_door().stats(0).shed_fee, 1u);
  EXPECT_EQ(cluster.front_door().drain(), 5u);
}

TEST(FrontDoor, AppliesInPriorityThenFeeThenFifoOrder) {
  shard::ShardPolicy policy;
  policy.queue_capacity = 16;
  policy.batch_size = 16;
  Cluster cluster = make_sharded(2, 1, policy);
  EvalApp::define_classes(cluster.classes());
  const ObjectId target = create_on_shard(cluster, 0);

  auto submit = [&](shard::PriorityClass prio, std::uint64_t fee) {
    shard::Request req;
    req.op = shard::RequestOp::Invoke;
    req.target = target;
    req.method = "getValue";
    req.priority = prio;
    req.fee = fee;
    const shard::Submission sub = cluster.submit(std::move(req));
    EXPECT_TRUE(sub.admitted());
    return sub.ticket;
  };

  const std::uint64_t low = submit(shard::PriorityClass::Low, 100);
  const std::uint64_t normal_cheap = submit(shard::PriorityClass::Normal, 50);
  const std::uint64_t normal_rich = submit(shard::PriorityClass::Normal, 100);
  const std::uint64_t high = submit(shard::PriorityClass::High, 10);
  const std::uint64_t normal_tie = submit(shard::PriorityClass::Normal, 50);

  std::vector<std::uint64_t> order;
  cluster.front_door().set_outcome_sink(
      [&order](const shard::Outcome& o) { order.push_back(o.ticket); });
  cluster.front_door().drain();
  const std::vector<std::uint64_t> expected{high, normal_rich, normal_cheap,
                                            normal_tie, low};
  EXPECT_EQ(order, expected);
}

TEST(FrontDoor, FullQueueEvictsCheapestForHigherRankedArrivals) {
  shard::ShardPolicy policy;
  policy.queue_capacity = 2;
  policy.escalation_threshold = 0.5;  // threshold depth 1
  policy.base_fee = 10;
  Cluster cluster = make_sharded(2, 1, policy);
  EvalApp::define_classes(cluster.classes());
  const ObjectId target = create_on_shard(cluster, 0);

  auto req = [&](shard::PriorityClass prio, std::uint64_t fee) {
    shard::Request r;
    r.op = shard::RequestOp::Invoke;
    r.target = target;
    r.method = "getValue";
    r.priority = prio;
    r.fee = fee;
    return r;
  };

  const shard::Submission a =
      cluster.submit(req(shard::PriorityClass::Normal, 0));
  ASSERT_TRUE(a.admitted());
  // Depth 1 >= threshold: required fee is base * 4.
  const shard::Submission b =
      cluster.submit(req(shard::PriorityClass::Normal, 40));
  ASSERT_TRUE(b.admitted());

  // Queue full; a High arrival outranks the base-fee entry and displaces
  // it — the displaced ticket surfaces as a QueueFull outcome.
  std::vector<shard::Outcome> outcomes;
  cluster.front_door().set_outcome_sink(
      [&outcomes](const shard::Outcome& o) { outcomes.push_back(o); });
  const shard::Submission c =
      cluster.submit(req(shard::PriorityClass::High, 100));
  EXPECT_TRUE(c.admitted());
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].ticket, a.ticket);
  EXPECT_EQ(outcomes[0].shed, shard::ShedReason::QueueFull);
  EXPECT_EQ(cluster.front_door().stats(0).evicted, 1u);

  // A Low arrival does not outrank the cheapest queued entry: the
  // newcomer itself is shed.
  const shard::Submission d =
      cluster.submit(req(shard::PriorityClass::Low, 500));
  EXPECT_FALSE(d.admitted());
  EXPECT_EQ(d.reason, shard::ShedReason::QueueFull);
  cluster.front_door().set_outcome_sink(nullptr);
  cluster.front_door().drain();
}

TEST(FrontDoor, DownedShardShedsAsUnavailableAtApply) {
  Cluster cluster = make_sharded(4, 2);
  EvalApp::define_classes(cluster.classes());
  const ObjectId on1 = create_on_shard(cluster, 1);

  cluster.inject(fault::Crash{NodeId{2}});
  cluster.inject(fault::Crash{NodeId{3}});

  shard::Request req;
  req.op = shard::RequestOp::Invoke;
  req.target = on1;
  req.method = "getValue";
  const shard::Submission sub = cluster.submit(std::move(req));
  ASSERT_TRUE(sub.admitted());  // admission happens before liveness

  shard::Outcome last;
  cluster.front_door().set_outcome_sink(
      [&last](const shard::Outcome& o) { last = o; });
  cluster.front_door().drain();
  EXPECT_FALSE(last.committed);
  EXPECT_EQ(last.shed, shard::ShedReason::ShardUnavailable);
  EXPECT_GE(cluster.front_door().stats(1).shed_unavailable, 1u);

  // Shard 0 is untouched and keeps serving.
  const std::size_t restarted = cluster.inject(fault::Restart{NodeId{2}});
  EXPECT_EQ(restarted, 1u);
}

TEST(FrontDoor, CrossShardTransactionCommitsAndAbortsAtomically) {
  Cluster cluster = make_sharded(4, 2);
  EvalApp::define_classes(cluster.classes());
  const ObjectId on0 = create_on_shard(cluster, 0);
  const ObjectId on1 = create_on_shard(cluster, 1);

  auto set_in_tx = [&](TxId tx, ObjectId target, const std::string& v) {
    shard::Request req;
    req.op = shard::RequestOp::Invoke;
    req.target = target;
    req.method = "setValue";
    req.args = {Value{v}};
    req.tx = tx;
    EXPECT_TRUE(cluster.submit(std::move(req)).admitted());
  };
  auto read_value = [&](shard::ShardId s, ObjectId target) {
    DedisysNode* member = cluster.node_by_id(cluster.shards().home_of(s));
    TxScope tx(member->tx());
    const Value v = member->invoke(tx.id(), target, "getValue", {});
    tx.commit();
    return as_string(v);
  };

  {
    // One transaction spanning both shards rides the cluster-wide 2PC:
    // the front door applies, the caller commits.
    TxScope tx(cluster.node(0).tx());
    set_in_tx(tx.id(), on0, "both");
    set_in_tx(tx.id(), on1, "both");
    cluster.front_door().drain();
    tx.commit();
  }
  EXPECT_EQ(read_value(0, on0), "both");
  EXPECT_EQ(read_value(1, on1), "both");

  {
    // Abandoning the scope aborts both legs: neither shard keeps the write.
    TxScope tx(cluster.node(0).tx());
    set_in_tx(tx.id(), on0, "ghost");
    set_in_tx(tx.id(), on1, "ghost");
    cluster.front_door().drain();
  }
  EXPECT_EQ(read_value(0, on0), "both");
  EXPECT_EQ(read_value(1, on1), "both");
}

// ---------------------------------------------------------------------------
// Observability surface
// ---------------------------------------------------------------------------

TEST(FrontDoor, ShedCountersSurfaceInMetricsJsonAndPrometheus) {
  shard::ShardPolicy policy;
  policy.queue_capacity = 2;
  policy.base_fee = 10;
  ClusterConfig cfg;
  cfg.nodes = 4;
  cfg.shards = 2;
  cfg.shard_policy = policy;
  cfg.observability = true;
  Cluster cluster(cfg);
  EvalApp::define_classes(cluster.classes());
  const ObjectId target = create_on_shard(cluster, 0);

  // Two admits fill the queue; the base-fee follow-up fee-sheds.
  for (int i = 0; i < 2; ++i) {
    shard::Request req;
    req.op = shard::RequestOp::Invoke;
    req.target = target;
    req.method = "getValue";
    req.fee = 100;
    ASSERT_TRUE(cluster.submit(std::move(req)).admitted());
  }
  shard::Request cheap;
  cheap.op = shard::RequestOp::Invoke;
  cheap.target = target;
  cheap.method = "getValue";
  EXPECT_EQ(cluster.submit(std::move(cheap)).reason,
            shard::ShedReason::FeeBelowRequired);

  AdminConsole admin(cluster);
  const obs::Json doc = obs::Json::parse(admin.metrics_json());
  const obs::Json& sharding = doc.at("sharding");
  EXPECT_EQ(sharding.at("count").as_int(), 2);
  const obs::Json& shard0 = sharding.at("shards").at(0);
  EXPECT_EQ(shard0.at("queue_depth").as_int(), 2);
  EXPECT_EQ(shard0.at("shed").at("fee_below_required").as_int(), 1);
  EXPECT_EQ(shard0.at("primary").as_int(),
            static_cast<std::int64_t>(cluster.shards().home_of(0).value()));

  const std::string prom = obs::render_prometheus(cluster);
  EXPECT_NE(prom.find("dedisys_shard_queue_depth{shard=\"0\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("dedisys_shard_shed_total{shard=\"0\","
                      "reason=\"fee_below_required\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("dedisys_shard_primary{shard=\"1\"}"),
            std::string::npos);
  cluster.front_door().drain();
}

// The shed itself must leave a trace event (load shedding is an explicit,
// observable decision, not a silent drop).
TEST(FrontDoor, SheddingEmitsAdmissionTraceEvents) {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.shards = 1;
  cfg.observability = true;
  Cluster cluster(cfg);
  EvalApp::define_classes(cluster.classes());

  shard::Request bad;
  bad.op = shard::RequestOp::Create;
  bad.class_name = "NoSuchClass";
  EXPECT_FALSE(cluster.submit(std::move(bad)).admitted());

  bool saw_shed = false;
  for (const obs::TraceEvent& e : cluster.obs().trace().events()) {
    if (e.kind == obs::TraceEventKind::AdmissionShed) saw_shed = true;
  }
  EXPECT_TRUE(saw_shed);
}

// ---------------------------------------------------------------------------
// Chaos under sharding
// ---------------------------------------------------------------------------

TEST(ShardChaos, InvariantsHoldAcrossShardCuttingFaultPlans) {
  scenarios::ChaosOptions options;
  options.seed = 11;
  options.nodes = 4;
  options.shards = 2;
  options.objects = 4;
  options.ops = 40;
  options.fault_events = 6;
  const scenarios::ChaosResult result = scenarios::run_chaos(options);
  EXPECT_TRUE(result.invariants_ok())
      << "lost=" << result.lost_threats
      << " remaining=" << result.threats_remaining
      << " primary=" << result.primary_violations
      << " divergent=" << result.divergent_objects
      << " model=" << result.model_mismatches;
  EXPECT_GT(result.committed, 0u);
}

TEST(ShardChaos, ShardedRunsStayDeterministic) {
  scenarios::ChaosOptions options;
  options.seed = 23;
  options.nodes = 4;
  options.shards = 2;
  options.objects = 4;
  options.ops = 30;
  options.fault_events = 5;
  const scenarios::ChaosResult a = scenarios::run_chaos(options);
  const scenarios::ChaosResult b = scenarios::run_chaos(options);
  EXPECT_EQ(a.timeline, b.timeline);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

}  // namespace
}  // namespace dedisys
