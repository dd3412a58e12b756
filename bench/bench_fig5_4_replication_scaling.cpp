// Figure 5.4 — Replication effects on different operations (1–4 nodes).
//
// Shape to hold (paper): update rates (create/setter/delete) drop sharply
// when the first backup is added and slightly further per additional node;
// local read rates stay roughly constant per node so aggregate read
// capacity grows with the cluster; the "multicast + tx handling" case
// bounds achievable update throughput.
#include "bench/bench_common.h"

namespace dedisys::bench {
namespace {

/// Paper's theoretical ceiling: transaction + ping/pong multicast rounds.
double multicast_tx_ceiling(Cluster& cluster, std::size_t n) {
  DedisysNode& node = cluster.node(0);
  const auto members = cluster.runtime().nodes();
  return ops_per_sim_second(cluster, n, [&](std::size_t) {
    TxScope tx(node.tx());
    cluster.gc().multicast(node.id(), members, [](dedisys::NodeId) {});
    tx.commit();
  });
}

}  // namespace
}  // namespace dedisys::bench

int main(int argc, char** argv) {
  dedisys::bench::Session session(argc, argv);
  using namespace dedisys::bench;
  using dedisys::ClusterConfig;
  using dedisys::ObjectId;
  using dedisys::Value;
  constexpr std::size_t kN = 400;

  print_title("Figure 5.4 — replication effects on operations (ops/sim-s)");
  print_header({"configuration", "Create", "Setter", "Getter", "Empty",
                "Delete", "AggReads", "Mcast+Tx"});

  {
    ClusterConfig cfg;
    cfg.nodes = 1;
    cfg.with_ccm = false;
    cfg.with_replication = false;
    auto cluster = make_eval_cluster(cfg);
    std::vector<ObjectId> ids;
    const double create = Workload::create(*cluster, 0, kN, ids);
    const Value payload{std::string{"x"}};
    const double setter =
        Workload::invoke(*cluster, 0, kN, ids, "setValue", {payload});
    const double getter = Workload::invoke(*cluster, 0, kN, ids, "getValue");
    const double empty = Workload::invoke(*cluster, 0, kN, ids, "emptyPlain");
    const double del = Workload::destroy(*cluster, 0, ids);
    print_row("No DeDiSys", {create, setter, getter, empty, del, getter, 0});
  }

  for (std::size_t nodes = 1; nodes <= 4; ++nodes) {
    ClusterConfig cfg;
    cfg.nodes = nodes;
    auto cluster = make_eval_cluster(cfg);
    std::vector<ObjectId> ids;
    const double create = Workload::create(*cluster, 0, kN, ids);
    const Value payload{std::string{"x"}};
    const double setter =
        Workload::invoke(*cluster, 0, kN, ids, "setValue", {payload});
    const double getter = Workload::invoke(*cluster, 0, kN, ids, "getValue");
    const double empty = Workload::invoke(*cluster, 0, kN, ids, "emptyPlain");
    const double del = Workload::destroy(*cluster, 0, ids);
    // Reads are purely local; every node can serve them concurrently, so
    // aggregate read capacity is nodes x per-node rate.
    const double agg_reads = static_cast<double>(nodes) * getter;
    const double ceiling = multicast_tx_ceiling(*cluster, kN);
    print_row("DeDiSys " + std::to_string(nodes) + " node(s)",
              {create, setter, getter, empty, del, agg_reads, ceiling});
  }

  std::printf(
      "\nPaper reference: 1-node DeDiSys create/setter/delete drop to\n"
      "43%%/57%%/71%% of baseline; adding the first backup roughly halves\n"
      "update rates again; reads reach ~227%% of baseline at 4 nodes.\n");
  return 0;
}
