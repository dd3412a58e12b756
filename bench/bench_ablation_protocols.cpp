// Ablation — replication protocols (primary-backup / P4 / adaptive voting).
//
// Compares the three protocols on: healthy write throughput, degraded
// write availability in majority and minority partitions, threats produced
// and read behaviour.  Shape to hold: primary-backup blocks the minority
// entirely (conventional availability); P4 serves writes everywhere at the
// price of consistency threats in every partition; adaptive voting also
// serves writes everywhere but pays an extra quorum round per update.
#include "bench/bench_common.h"
#include "scenarios/flight.h"

namespace dedisys::bench {
namespace {

struct Result {
  double healthy_writes = 0;     // ops/sim-s
  double majority_accept = 0;    // fraction of accepted writes
  double minority_accept = 0;
  std::size_t threats = 0;
};

Result run(dedisys::ReplicationProtocol protocol) {
  using namespace dedisys;
  using scenarios::FlightBooking;
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.protocol = protocol;
  Cluster cluster(cfg);
  FlightBooking::define_classes(cluster.classes());
  FlightBooking::register_constraints(cluster.constraints(), false,
                                      SatisfactionDegree::Uncheckable);

  DedisysNode& n0 = cluster.node(0);
  const ObjectId flight = FlightBooking::create_flight(n0, 100000);

  Result r;
  constexpr std::size_t kWrites = 200;
  r.healthy_writes = ops_per_sim_second(cluster, kWrites, [&](std::size_t) {
    FlightBooking::sell(n0, flight, 1);
  });

  cluster.inject(fault::split_indices({{0, 1}, {2}}));
  std::size_t maj_ok = 0;
  std::size_t min_ok = 0;
  for (std::size_t i = 0; i < 50; ++i) {
    try {
      FlightBooking::sell(cluster.node(0), flight, 1);
      ++maj_ok;
    } catch (const DedisysError&) {
    }
    try {
      FlightBooking::sell(cluster.node(2), flight, 1);
      ++min_ok;
    } catch (const DedisysError&) {
    }
  }
  r.majority_accept = static_cast<double>(maj_ok) / 50;
  r.minority_accept = static_cast<double>(min_ok) / 50;
  r.threats = cluster.threats().identity_count();
  return r;
}

}  // namespace
}  // namespace dedisys::bench

int main(int argc, char** argv) {
  dedisys::bench::Session session(argc, argv);
  using namespace dedisys::bench;
  using dedisys::ReplicationProtocol;
  print_title("Ablation — replication protocols");
  print_header({"protocol", "healthy wr/s", "maj accept", "min accept",
                "threats"});
  for (ReplicationProtocol p :
       {ReplicationProtocol::PrimaryBackup,
        ReplicationProtocol::PrimaryPartition,
        ReplicationProtocol::AdaptiveVoting}) {
    const Result r = run(p);
    print_row(to_string(p),
              {r.healthy_writes, r.majority_accept, r.minority_accept,
               static_cast<double>(r.threats)},
              "%16.2f");
  }
  std::printf(
      "\nShape to hold: PB blocks minority writes (accept 0); P4 and AV\n"
      "serve every partition but record consistency threats; AV's quorum\n"
      "round makes its healthy writes slightly slower than P4's.\n");
  return 0;
}
