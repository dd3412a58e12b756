// Saturation/shedding curve of the sharded front door.
//
// An open-loop workload — arrivals scheduled at a fixed offered rate,
// never waiting for service — drives Requests from a large simulated
// client population (default one million client ids) against a sharded
// cluster.  The server pumps admission batches between arrivals; once the
// offered rate exceeds the measured service capacity the queues fill, the
// required admission fee escalates quadratically (rippled TxQ style) and
// the overload turns into explicit, attributed shedding instead of
// unbounded queueing delay.  Each sweep point reports achieved rate,
// shed counts by reason and the queueing-delay percentiles.
//
// Everything runs in simulated time, so the emitted table (and the --json
// report committed as BENCH_shard_saturation.json) is deterministic.
//
// Usage:
//   bench_shard_saturation [--nodes N] [--shards N] [--clients N]
//                          [--ops N] [--objects N] [--seed N] [--smoke]
//                          [--json <path>]
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/session.h"
#include "middleware/cluster.h"
#include "obs/histogram.h"
#include "shard/request.h"

namespace dedisys {
namespace {

struct SweepOptions {
  std::size_t nodes = 8;
  std::size_t shards = 4;
  std::size_t objects_per_shard = 4;
  bench::WorkloadSpec spec;  ///< clients / requests-per-point / mixes
};

struct SweepPoint {
  double multiplier = 0;      ///< offered rate as a fraction of capacity
  double offered_ops_s = 0;   ///< scheduled arrival rate (simulated)
  double achieved_ops_s = 0;  ///< applied / elapsed simulated time
  std::size_t submitted = 0;
  std::size_t committed = 0;
  std::size_t aborted = 0;
  std::size_t shed_fee = 0;
  std::size_t shed_queue_full = 0;
  std::size_t evicted = 0;
  std::size_t forwarded = 0;
  obs::LatencySummary queueing;  ///< submit -> apply completion, us
};

std::unique_ptr<Cluster> make_sharded_cluster(const SweepOptions& opt) {
  ClusterConfig cfg;
  cfg.nodes = opt.nodes;
  cfg.shards = opt.shards;
  auto cluster = bench::make_eval_cluster(cfg);
  return cluster;
}

/// Creates `per_shard` entities on every shard through the front door and
/// returns them grouped by owning shard.
std::vector<std::vector<ObjectId>> populate(Cluster& cluster,
                                            std::size_t per_shard) {
  const std::size_t shard_count = cluster.shards().shard_count();
  std::vector<std::vector<ObjectId>> by_shard(shard_count);
  shard::ShardId current = 0;
  cluster.front_door().set_outcome_sink(
      [&by_shard, &current](const shard::Outcome& o) {
        if (o.committed) by_shard[current].push_back(o.created);
      });
  std::uint64_t key = 0;
  for (shard::ShardId s = 0; s < shard_count; ++s) {
    current = s;
    for (std::size_t i = 0; i < per_shard; ++i) {
      while (cluster.shards().shard_of_key(key) != s) ++key;
      shard::Request req;
      req.op = shard::RequestOp::Create;
      req.class_name = "TestEntity";
      req.client = key++;
      cluster.submit(std::move(req));
      cluster.front_door().drain();  // apply now, while `current` is right
    }
  }
  cluster.front_door().set_outcome_sink(nullptr);
  return by_shard;
}

shard::Request next_request(
    const SweepOptions& opt, Rng& rng,
    const std::vector<std::vector<ObjectId>>& objects) {
  const bench::WorkloadSpec& spec = opt.spec;
  const std::size_t shard = spec.draw_shard(rng, objects.size());
  shard::Request req;
  req.op = shard::RequestOp::Invoke;
  req.target = objects[shard][rng.below(objects[shard].size())];
  if (spec.draw_write(rng)) {
    req.method = "setValue";
    req.args = {Value{"w" + std::to_string(rng.below(1000))}};
  } else {
    req.method = "getValue";
  }
  req.priority = spec.draw_priority(rng);
  // Clients bid 1..8x the base fee; under escalation the low bids shed
  // first, so the fee distribution shapes the shedding curve.
  req.fee = 10 * (1 + rng.below(8));
  req.client = spec.draw_client(rng);
  return req;
}

/// Closed-loop service-capacity probe: keeps every shard's queue shallow
/// (submit, pump every batch) and measures applied ops per simulated
/// second.  The sweep offers multiples of this rate.
double measure_capacity(const SweepOptions& opt) {
  auto cluster = make_sharded_cluster(opt);
  const auto objects = populate(*cluster, opt.objects_per_shard);
  Rng rng(opt.spec.seed ^ 0xCA11B8A7E5ULL);
  const std::size_t probe_ops = 512;
  const SimTime start = cluster->runtime().now();
  std::size_t applied = 0;
  for (std::size_t i = 0; i < probe_ops; ++i) {
    shard::Request req = next_request(opt, rng, objects);
    req.fee = 1000;  // never fee-shed the probe
    cluster->submit(std::move(req));
    if (i % cluster->front_door().policy().batch_size == 0) {
      applied += cluster->pump();
    }
  }
  applied += cluster->front_door().drain();
  const SimTime elapsed = cluster->runtime().now() - start;
  if (elapsed <= 0 || applied == 0) return 1000.0;
  return static_cast<double>(applied) * 1e6 / static_cast<double>(elapsed);
}

SweepPoint run_point(const SweepOptions& opt, double multiplier,
                     double capacity_ops_s) {
  auto cluster = make_sharded_cluster(opt);
  const auto objects = populate(*cluster, opt.objects_per_shard);
  shard::FrontDoor& door = cluster->front_door();
  Runtime& rt = cluster->runtime();

  obs::LatencyHistogram queueing;
  std::size_t committed = 0;
  std::size_t aborted = 0;
  door.set_outcome_sink([&](const shard::Outcome& o) {
    if (o.shed != shard::ShedReason::None) return;  // eviction outcomes
    queueing.record(o.completed_at - o.submitted_at);
    if (o.committed) {
      ++committed;
    } else {
      ++aborted;
    }
  });

  const double offered = multiplier * capacity_ops_s;
  const double gap_us = 1e6 / offered;
  Rng rng(opt.spec.seed ^ (0x5EEDULL * static_cast<std::uint64_t>(
                                           multiplier * 1000.0)));
  const SimTime phase_start = rt.now();
  for (std::size_t i = 0; i < opt.spec.requests; ++i) {
    // Open loop: the arrival happens at its scheduled time regardless of
    // how far behind the server is.  Between arrivals the server pumps.
    const SimTime arrival =
        phase_start + static_cast<SimTime>(static_cast<double>(i) * gap_us);
    while (rt.now() < arrival) {
      if (door.pump() == 0) {
        rt.charge(arrival - rt.now());  // idle: nothing queued anywhere
      }
    }
    cluster->submit(next_request(opt, rng, objects));
  }
  door.drain();
  const SimTime elapsed = rt.now() - phase_start;
  door.set_outcome_sink(nullptr);

  const shard::FrontDoor::ShardStats totals = door.totals();
  SweepPoint p;
  p.multiplier = multiplier;
  p.offered_ops_s = offered;
  p.achieved_ops_s =
      elapsed > 0 ? static_cast<double>(totals.applied) * 1e6 /
                        static_cast<double>(elapsed)
                  : 0;
  p.submitted = totals.submitted;
  p.committed = committed;
  p.aborted = aborted;
  p.shed_fee = totals.shed_fee;
  p.shed_queue_full = totals.shed_queue_full + totals.evicted;
  p.evicted = totals.evicted;
  p.forwarded = totals.forwarded;
  p.queueing = obs::summarize(queueing);
  return p;
}

int run_bench(const SweepOptions& opt,
              const std::vector<double>& multipliers) {
  const double capacity = measure_capacity(opt);
  bench::print_title(
      "Front-door saturation — " + std::to_string(opt.shards) + " shards, " +
      std::to_string(opt.nodes) + " nodes, " +
      std::to_string(opt.spec.clients) + " clients, " +
      std::to_string(opt.spec.requests) + " req/point (capacity " +
      std::to_string(static_cast<int>(capacity)) + " ops/sim-s)");
  bench::print_header({"offered/capacity", "offered/s", "achieved/s",
                       "committed", "shed fee", "shed full", "fwd",
                       "q p50 us", "q p95 us", "q p99 us"});

  bool saw_shedding = false;
  bool low_rate_clean = false;
  for (const double m : multipliers) {
    const SweepPoint p = run_point(opt, m, capacity);
    bench::print_row(std::to_string(m),
                     {p.offered_ops_s, p.achieved_ops_s,
                      static_cast<double>(p.committed),
                      static_cast<double>(p.shed_fee),
                      static_cast<double>(p.shed_queue_full),
                      static_cast<double>(p.forwarded), p.queueing.p50,
                      p.queueing.p95, p.queueing.p99});
    if (p.shed_fee + p.shed_queue_full > 0) saw_shedding = true;
    if (m <= 0.5 &&
        p.shed_fee + p.shed_queue_full < p.submitted / 100) {
      low_rate_clean = true;
    }
  }
  // The curve is only meaningful if underload admits (nearly) everything
  // and overload sheds; a flat all-admit or all-shed sweep means the
  // capacity probe or the admission policy broke.
  if (!saw_shedding || !low_rate_clean) {
    std::fprintf(stderr,
                 "saturation sweep degenerate: shedding=%d low_rate_ok=%d\n",
                 saw_shedding ? 1 : 0, low_rate_clean ? 1 : 0);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dedisys

int main(int argc, char** argv) {
  dedisys::bench::Session session(1, argv);  // own flags; session does --json
  dedisys::SweepOptions opt;
  opt.spec.clients = 1'000'000;
  opt.spec.requests = 150'000;
  opt.spec.write_fraction = 0.6;
  opt.spec.high_fraction = 0.1;
  opt.spec.low_fraction = 0.3;
  opt.spec.shard_skew = 0.25;
  std::vector<double> multipliers = {0.25, 0.5, 0.8, 1.0, 1.5, 2.5};

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "usage: %s [--nodes N] [--shards N] [--clients N] "
                     "[--ops N] [--objects N] [--seed N] [--smoke] "
                     "[--json <path>]\n",
                     argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--nodes") == 0) {
      opt.nodes = std::strtoull(value(), nullptr, 10);
    } else if (std::strcmp(arg, "--shards") == 0) {
      opt.shards = std::strtoull(value(), nullptr, 10);
    } else if (std::strcmp(arg, "--clients") == 0) {
      opt.spec.clients = std::strtoull(value(), nullptr, 10);
    } else if (std::strcmp(arg, "--ops") == 0) {
      opt.spec.requests = std::strtoull(value(), nullptr, 10);
    } else if (std::strcmp(arg, "--objects") == 0) {
      opt.objects_per_shard = std::strtoull(value(), nullptr, 10);
    } else if (std::strcmp(arg, "--seed") == 0) {
      opt.spec.seed = std::strtoull(value(), nullptr, 10);
    } else if (std::strcmp(arg, "--smoke") == 0) {
      opt.spec.clients = 10'000;
      opt.spec.requests = 3'000;
      multipliers = {0.5, 2.5};
    } else if (std::strcmp(arg, "--json") == 0) {
      dedisys::bench::report().json_path = value();
    } else {
      (void)value;  // fallthrough: unknown flag
      std::fprintf(stderr, "unknown flag %s\n", arg);
      return 2;
    }
  }
  return dedisys::run_bench(opt, multipliers);
}
