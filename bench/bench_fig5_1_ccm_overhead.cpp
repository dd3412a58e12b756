// Figure 5.1 — Overhead of explicit constraint consistency management.
//
// Single node, no replication: the same operation mix with and without the
// CCMgr service.  The paper reports a drop to about 87–99% of baseline
// throughput ("almost negligible").
#include "bench/bench_common.h"
#include "middleware/admin.h"
#include "scenarios/flight.h"

namespace dedisys::bench {
namespace {

struct Rates {
  double create, setter, getter, empty, del;
};

Rates measure(bool with_ccm) {
  ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.with_replication = false;
  cfg.with_ccm = with_ccm;
  auto cluster = make_eval_cluster(cfg);

  constexpr std::size_t kN = 1000;
  Rates r{};
  std::vector<ObjectId> ids;
  r.create = Workload::create(*cluster, 0, kN, ids);
  // Average of same-object and different-object access (Section 5.1).
  const Value payload{std::string{"x"}};
  const std::vector<ObjectId> one{ids.front()};
  r.setter = (Workload::invoke(*cluster, 0, kN, one, "setValue", {payload}) +
              Workload::invoke(*cluster, 0, kN, ids, "setValue", {payload})) /
             2;
  r.getter = (Workload::invoke(*cluster, 0, kN, one, "getValue") +
              Workload::invoke(*cluster, 0, kN, ids, "getValue")) /
             2;
  r.empty = (Workload::invoke(*cluster, 0, kN, one, "emptyPlain") +
             Workload::invoke(*cluster, 0, kN, ids, "emptyPlain")) /
            2;
  r.del = Workload::destroy(*cluster, 0, ids);
  return r;
}

// Supplementary: per-invocation validation cost with the version-stamped
// memo on vs off.  A fleet of unchanged flights is revalidated repeatedly
// (the admin / reconciliation shape); the memo skips every re-evaluation
// whose read-set fingerprint is unchanged.
double measure_memo_revalidation(bool memo_on) {
  static constexpr const char* kTicketXml = R"(<constraints>
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
    </affected-methods>
  </constraint>
</constraints>)";

  ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.with_replication = false;
  cfg.validation_memo = memo_on;
  Cluster cluster(cfg);
  AdminConsole admin(cluster);
  scenarios::FlightBooking::define_classes(cluster.classes());
  admin.deploy_constraints(kTicketXml);

  DedisysNode& node = cluster.node(0);
  std::vector<ObjectId> flights;
  for (std::size_t i = 0; i < 50; ++i) {
    flights.push_back(scenarios::FlightBooking::create_flight(node, 100));
  }
  const SimTime start = cluster.runtime().now();
  constexpr std::size_t kSweeps = 20;
  for (std::size_t sweep = 0; sweep < kSweeps; ++sweep) {
    node.ccmgr().revalidate_for_objects("TicketConstraint", flights);
  }
  const SimTime elapsed = cluster.runtime().now() - start;
  if (elapsed <= 0) return 0;
  return static_cast<double>(kSweeps * flights.size()) * 1e6 /
         static_cast<double>(elapsed);
}

}  // namespace
}  // namespace dedisys::bench

int main(int argc, char** argv) {
  dedisys::bench::Session session(argc, argv);
  using namespace dedisys::bench;
  print_title("Figure 5.1 — overhead of explicit constraint consistency management");
  const Rates with = measure(true);
  const Rates without = measure(false);

  print_header({"operation", "with CCM", "without CCM", "ratio %",
                "paper ratio %"});
  const auto row = [](const char* name, double w, double wo, double paper) {
    print_row(name, {w, wo, 100.0 * w / wo, paper});
  };
  row("Create", with.create, without.create, 87);
  row("Setter (avg.)", with.setter, without.setter, 93);
  row("Getter (avg.)", with.getter, without.getter, 95);
  row("Empty (avg.)", with.empty, without.empty, 95);
  row("Delete", with.del, without.del, 99);
  std::printf(
      "\nShape to hold: CCM costs only a few percent (paper: 87-99%% of\n"
      "baseline, \"almost negligible\"); all rates in ops per simulated "
      "second.\n");

  print_title("Supplementary — revalidation with validation memo");
  const double memo_off = measure_memo_revalidation(false);
  const double memo_on = measure_memo_revalidation(true);
  print_header({"mode", "revalidations/s"});
  print_row("memo off", {memo_off});
  print_row("memo on", {memo_on});
  std::printf(
      "\nShape to hold: memo-on revalidation of unchanged objects is\n"
      "cheaper per invocation than memo-off (here %.1fx).\n",
      memo_on / memo_off);
  return 0;
}
