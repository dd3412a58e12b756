// Cluster metrics snapshots and multi-threat Web negotiation sequences.
#include <gtest/gtest.h>

#include "middleware/admin.h"
#include "middleware/metrics.h"
#include "middleware/obs_export.h"
#include "scenarios/evalapp.h"
#include "scenarios/flight.h"
#include "web/bridge.h"

namespace dedisys {
namespace {

using scenarios::AcceptAllNegotiation;
using scenarios::EvalApp;
using scenarios::FlightBooking;

TEST(Metrics, SnapshotAggregatesServiceCounters) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  Cluster cluster(cfg);
  EvalApp::define_classes(cluster.classes());
  EvalApp::register_constraints(cluster.constraints());

  const auto ids = EvalApp::create_entities(cluster.node(0), 5);
  for (int i = 0; i < 4; ++i) {
    EvalApp::run_op(cluster.node(0), ids[0], "emptySatisfied");
  }
  {
    TxScope tx(cluster.node(0).tx());
    cluster.node(0).invoke(tx.id(), ids[0], "setValue",
                           {Value{std::string{"x"}}});
    tx.commit();
  }

  const ClusterMetrics m = collect_metrics(cluster);
  EXPECT_EQ(m.live_objects, 5u);
  EXPECT_EQ(m.nodes.size(), 3u);
  EXPECT_EQ(m.stored_threat_identities, 0u);
  EXPECT_GT(m.sim_time, 0);
  // Node 0 (primary) validated the satisfied constraint four times.
  EXPECT_GE(m.nodes[0].validations, 4u);
  // One propagated update, applied by both backups.
  EXPECT_EQ(m.nodes[0].updates_propagated, 1u);
  EXPECT_EQ(m.nodes[1].backups_applied, 1u);
  EXPECT_EQ(m.nodes[2].backups_applied, 1u);
  EXPECT_EQ(m.total(&NodeMetrics::backups_applied), 2u);
  EXPECT_GT(m.total(&NodeMetrics::db_writes), 0u);
}

TEST(Metrics, DegradedModeVisibleInSnapshot) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  Cluster cluster(cfg);
  EvalApp::define_classes(cluster.classes());
  EvalApp::register_constraints(cluster.constraints());
  const auto ids = EvalApp::create_entities(cluster.node(0), 1);
  cluster.inject(fault::split_indices({{0, 1}, {2}}));
  EvalApp::run_op_negotiated(cluster.node(0), ids[0], "emptyThreat",
                             std::make_shared<AcceptAllNegotiation>());

  const ClusterMetrics m = collect_metrics(cluster);
  EXPECT_EQ(m.nodes[0].mode, SystemMode::Degraded);
  EXPECT_EQ(m.stored_threat_identities, 1u);
  EXPECT_EQ(m.total(&NodeMetrics::threats_accepted), 1u);

  const std::string text = render_metrics(m);
  EXPECT_NE(text.find("threats: 1"), std::string::npos);
  EXPECT_NE(text.find("degraded"), std::string::npos);
}

TEST(Metrics, JsonExportMatchesSnapshot) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.observability = true;
  Cluster cluster(cfg);
  EvalApp::define_classes(cluster.classes());
  EvalApp::register_constraints(cluster.constraints());
  const auto ids = EvalApp::create_entities(cluster.node(0), 2);
  cluster.inject(fault::split_indices({{0, 1}, {2}}));
  EvalApp::run_op_negotiated(cluster.node(0), ids[0], "emptyThreat",
                             std::make_shared<AcceptAllNegotiation>());

  const ClusterMetrics m = collect_metrics(cluster);
  AdminConsole admin(cluster);
  const obs::Json doc = obs::Json::parse(admin.metrics_json());
  const obs::Json& metrics = doc.at("metrics");
  EXPECT_EQ(static_cast<std::size_t>(metrics.at("sim_time_us").as_int()),
            static_cast<std::size_t>(m.sim_time));
  EXPECT_EQ(static_cast<std::size_t>(metrics.at("live_objects").as_int()),
            m.live_objects);
  EXPECT_EQ(
      static_cast<std::size_t>(metrics.at("stored_threat_identities").as_int()),
      m.stored_threat_identities);
  ASSERT_EQ(metrics.at("nodes").size(), m.nodes.size());
  for (std::size_t i = 0; i < m.nodes.size(); ++i) {
    const obs::Json& node = metrics.at("nodes").at(i);
    EXPECT_EQ(node.at("mode").as_string(), to_string(m.nodes[i].mode));
    EXPECT_EQ(static_cast<std::size_t>(node.at("validations").as_int()),
              m.nodes[i].validations);
    EXPECT_EQ(static_cast<std::size_t>(node.at("threats_accepted").as_int()),
              m.nodes[i].threats_accepted);
  }
  // The degraded-mode threat left its lifecycle in the exported trace.
  bool saw_accept = false;
  for (const obs::Json& e : doc.at("trace").at("events").items()) {
    if (e.at("kind").as_string() == "threat.accepted") saw_accept = true;
  }
  EXPECT_TRUE(saw_accept);
}

TEST(WebMultiThreat, TwoNegotiationRoundTripsInOneBusinessRequest) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  Cluster cluster(cfg);
  FlightBooking::define_classes(cluster.classes());
  FlightBooking::register_constraints(cluster.constraints(), false,
                                      SatisfactionDegree::Satisfied);
  DedisysNode& node = cluster.node(0);
  const ObjectId f1 = FlightBooking::create_flight(node, 80);
  const ObjectId f2 = FlightBooking::create_flight(node, 80);
  cluster.inject(fault::split_indices({{0, 1}, {2}}));

  std::shared_ptr<web::WebNegotiationBridge> bridge;
  web::WebBusinessServlet servlet([&] {
    TxScope tx(node.tx());
    node.ccmgr().register_negotiation_handler(tx.id(), bridge);
    node.invoke(tx.id(), f1, "sellTickets", {Value{std::int64_t{1}}});
    node.invoke(tx.id(), f2, "sellTickets", {Value{std::int64_t{1}}});
    tx.commit();
    return "two bookings";
  });
  bridge = servlet.bridge();

  // First response carries the first threat; the decision response
  // carries the SECOND threat; only the final decision returns the result.
  web::HttpResponse r = servlet.handle(web::HttpRequest{"/business", {}});
  ASSERT_EQ(r.kind, "negotiation-request");
  r = servlet.handle(
      web::HttpRequest{"/negotiation-result", {{"accept", "true"}}});
  ASSERT_EQ(r.kind, "negotiation-request");
  r = servlet.handle(
      web::HttpRequest{"/negotiation-result", {{"accept", "true"}}});
  ASSERT_EQ(r.kind, "business-result");
  EXPECT_EQ(r.fields.at("result"), "two bookings");
  EXPECT_EQ(cluster.threats().identity_count(), 2u);
}

}  // namespace
}  // namespace dedisys
