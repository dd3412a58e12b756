// Validation memoization under an admin-revalidation workload.
//
// A single node carries a fleet of Flight entities guarded by the OCL
// ticket-constraint.  The workload alternates full revalidation sweeps
// (the administrator's enable_constraint / audit path — also the shape of
// batched reconciliation) with occasional ticket sales that each bust one
// cached entry.  The run is executed twice, memo off and memo on, and the
// binary asserts its own acceptance criteria:
//
//   * equivalence — both runs report identical violating objects per
//     sweep and identical final sold counts,
//   * speedup — the memo-on run spends strictly less simulated time and
//     records cache hits.
//
// Exit status is nonzero when either assertion fails, so check.sh --memo
// can use this binary directly as a smoke gate.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_common.h"
#include "middleware/admin.h"
#include "scenarios/flight.h"
#include "validation/memo.h"

namespace dedisys::bench {
namespace {

constexpr const char* kDescriptor = R"(<constraints>
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

constexpr std::size_t kFlights = 50;
constexpr std::size_t kSweeps = 40;

struct RunResult {
  SimTime elapsed = 0;
  double revalidations_per_s = 0;
  std::vector<std::size_t> violations_per_sweep;
  std::vector<std::int64_t> final_sold;
  std::size_t validations = 0;
  validation::ValidationMemo::Stats memo;
};

RunResult run(bool memo_on) {
  ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.with_replication = false;
  cfg.validation_memo = memo_on;
  Cluster cluster(cfg);
  AdminConsole admin(cluster);
  scenarios::FlightBooking::define_classes(cluster.classes());
  admin.deploy_constraints(kDescriptor);

  DedisysNode& node = cluster.node(0);
  std::vector<ObjectId> flights;
  flights.reserve(kFlights);
  for (std::size_t i = 0; i < kFlights; ++i) {
    flights.push_back(
        scenarios::FlightBooking::create_flight(node, 100));
  }
  // One flight is overfilled behind the middleware's back so every sweep
  // has a definite violation to report (and cache).
  node.replication().local_replica(flights.front()).set(
      "soldTickets", Value{std::int64_t{200}});

  RunResult out;
  const SimTime start = cluster.runtime().now();
  for (std::size_t sweep = 0; sweep < kSweeps; ++sweep) {
    if (sweep % 4 == 3) {
      // A real sale: writes one entity, busting exactly its entry.
      const ObjectId target = flights[1 + sweep % (kFlights - 1)];
      scenarios::FlightBooking::sell(node, target, 1);
    }
    const std::vector<ObjectId> violating =
        node.ccmgr().revalidate_for_objects("TicketConstraint", flights);
    out.violations_per_sweep.push_back(violating.size());
  }
  out.elapsed = cluster.runtime().now() - start;
  out.revalidations_per_s =
      static_cast<double>(kFlights * kSweeps) * 1e6 /
      static_cast<double>(out.elapsed);
  for (ObjectId id : flights) {
    out.final_sold.push_back(
        scenarios::FlightBooking::sold(node, id));
  }
  out.validations = node.ccmgr().stats().validations;
  out.memo = node.ccmgr().memo_stats();
  return out;
}

int run_bench() {
  print_title("Validation memoization — admin revalidation sweeps");
  const RunResult off = run(false);
  const RunResult on = run(true);

  print_header({"mode", "revalidations/s", "sim time ms", "evaluations"});
  print_row("memo off", {off.revalidations_per_s,
                         static_cast<double>(off.elapsed) / 1000.0,
                         static_cast<double>(off.validations)});
  print_row("memo on", {on.revalidations_per_s,
                        static_cast<double>(on.elapsed) / 1000.0,
                        static_cast<double>(on.validations)});

  print_title("Memo cache statistics (memo on)");
  print_header({"hits", "misses", "stores", "invalidated"});
  print_row("counts", {static_cast<double>(on.memo.hits),
                       static_cast<double>(on.memo.misses),
                       static_cast<double>(on.memo.stores),
                       static_cast<double>(on.memo.invalidations)});

  // -- self-checking acceptance ---------------------------------------------
  if (off.violations_per_sweep != on.violations_per_sweep ||
      off.final_sold != on.final_sold) {
    std::fprintf(stderr,
                 "FAIL: memo-on outcomes differ from memo-off outcomes\n");
    return 1;
  }
  if (on.memo.hits == 0) {
    std::fprintf(stderr, "FAIL: memo-on run recorded no cache hits\n");
    return 1;
  }
  if (on.elapsed >= off.elapsed) {
    std::fprintf(stderr,
                 "FAIL: memo-on run is not faster (on=%lld us, off=%lld us)\n",
                 static_cast<long long>(on.elapsed),
                 static_cast<long long>(off.elapsed));
    return 1;
  }
  std::printf(
      "\nShape to hold: identical violating sets and sold counts in both\n"
      "modes; memo-on spends strictly less simulated time per sweep\n"
      "(speedup here: %.1fx).\n",
      static_cast<double>(off.elapsed) / static_cast<double>(on.elapsed));
  return 0;
}

}  // namespace
}  // namespace dedisys::bench

int main(int argc, char** argv) {
  dedisys::bench::Session session(argc, argv);
  return dedisys::bench::run_bench();
}
