// Wall-clock overhead of causal span tracing.
//
// Spans cost zero *simulated* time by construction (SpanGuard never calls
// clock.advance), so the interesting number is the real-time price per
// operation: id minting, ring-buffer writes and label construction.  The
// same replicated workload runs with tracing off and with ring capacities
// 4k and 64k; the simulated clock must land on the identical stamp in all
// three configurations, which this bench asserts before reporting.
#include <chrono>
#include <cstdlib>

#include "bench/bench_common.h"

namespace dedisys::bench {
namespace {

struct Sample {
  double wall_ns_per_op = 0;
  double events_per_op = 0;
  std::uint64_t dropped = 0;
  SimTime sim_time = 0;
};

Sample measure(std::size_t capacity, std::size_t ops) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  auto cluster = make_eval_cluster(cfg);
  if (capacity > 0) cluster->obs().enable(capacity);

  DedisysNode& node = cluster->node(0);
  const std::vector<ObjectId> ids = scenarios::EvalApp::create_entities(node, 16);
  const Value payload{std::string{"x"}};
  for (std::size_t i = 0; i < 64; ++i) {  // warm-up
    scenarios::EvalApp::run_op(node, ids[i % ids.size()], "setValue", {payload});
  }

  const std::uint64_t recorded_before = cluster->obs().trace().recorded();
  const auto wall_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < ops; ++i) {
    scenarios::EvalApp::run_op(node, ids[i % ids.size()], "setValue", {payload});
  }
  const auto wall_end = std::chrono::steady_clock::now();

  Sample s;
  s.wall_ns_per_op =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              wall_end - wall_start)
                              .count()) /
      static_cast<double>(ops);
  s.events_per_op =
      static_cast<double>(cluster->obs().trace().recorded() - recorded_before) /
      static_cast<double>(ops);
  s.dropped = cluster->obs().trace().dropped();
  s.sim_time = cluster->runtime().now();
  return s;
}

}  // namespace
}  // namespace dedisys::bench

int main(int argc, char** argv) {
  using namespace dedisys::bench;
  Session session(argc, argv);

  constexpr std::size_t kOps = 4000;
  const Sample off = measure(0, kOps);
  const Sample small = measure(4096, kOps);
  const Sample large = measure(65536, kOps);

  if (off.sim_time != small.sim_time || off.sim_time != large.sim_time) {
    std::fprintf(stderr,
                 "FAIL: tracing changed simulated time (off=%lld 4k=%lld "
                 "64k=%lld us)\n",
                 static_cast<long long>(off.sim_time),
                 static_cast<long long>(small.sim_time),
                 static_cast<long long>(large.sim_time));
    return 1;
  }

  std::printf("trace overhead, %zu replicated setValue ops (sim time %lld us "
              "in every configuration)\n",
              kOps, static_cast<long long>(off.sim_time));
  std::printf("%-14s %14s %14s %10s\n", "ring", "wall ns/op", "events/op",
              "dropped");
  report_table("trace_overhead",
               {"wall_ns_per_op", "events_per_op", "dropped", "sim_time_us"});
  const auto row = [&](const char* label, const Sample& s) {
    std::printf("%-14s %14.0f %14.2f %10llu\n", label, s.wall_ns_per_op,
                s.events_per_op, static_cast<unsigned long long>(s.dropped));
    report_row(label, {s.wall_ns_per_op, s.events_per_op,
                       static_cast<double>(s.dropped),
                       static_cast<double>(s.sim_time)});
  };
  row("off", off);
  row("4096", small);
  row("65536", large);
  return 0;
}
