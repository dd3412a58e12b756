// Shared helpers for the benchmark binaries.
//
// Chapter-5 benchmarks report operations per *simulated* second (the
// discrete-event clock makes them deterministic and hardware-independent);
// Chapter-2 benchmarks report measured wall-clock ratios.  Each binary
// prints the rows of the paper table/figure it regenerates, alongside the
// paper's reported values where applicable.
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/session.h"
#include "middleware/cluster.h"
#include "scenarios/evalapp.h"
#include "shard/request.h"
#include "util/rng.h"

namespace dedisys::bench {

// ---------------------------------------------------------------------------
// Open-loop workload description
// ---------------------------------------------------------------------------

/// Value-typed description of an open-loop client workload.  A spec (plus
/// its seed) fully determines the request stream — client identities,
/// priorities, write mix and target-shard skew — so the saturation and
/// wall-clock throughput benches can share one vocabulary and stay
/// reproducible.  `arrival_rate` is the total offered rate across all
/// clients; each client's schedule runs at `arrival_rate / clients`.
struct WorkloadSpec {
  std::size_t clients = 1;     ///< client-id space (open loop: ids drawn from it)
  std::size_t requests = 1;    ///< total requests across all clients
  double arrival_rate = 0;     ///< offered requests per second, all clients
  double write_fraction = 1.0; ///< share of requests that mutate state
  double high_fraction = 0.0;  ///< share submitted at PriorityClass::High
  double low_fraction = 0.0;   ///< share at Low (the remainder run Normal)
  double shard_skew = 0.0;     ///< extra probability mass on shard 0 (hot shard)
  std::uint64_t seed = 1;

  [[nodiscard]] std::size_t per_client() const {
    return requests / (clients == 0 ? 1 : clients);
  }
  [[nodiscard]] double per_client_rate() const {
    return clients == 0 ? arrival_rate
                        : arrival_rate / static_cast<double>(clients);
  }

  /// Draws a priority for the next request (High/Low shares, rest Normal).
  [[nodiscard]] shard::PriorityClass draw_priority(Rng& rng) const {
    const double u = rng.uniform01();
    if (u < high_fraction) return shard::PriorityClass::High;
    if (u < high_fraction + low_fraction) return shard::PriorityClass::Low;
    return shard::PriorityClass::Normal;
  }

  /// Draws a target shard: probability `shard_skew` pins shard 0 (the hot
  /// shard), the remaining mass spreads uniformly.
  [[nodiscard]] std::size_t draw_shard(Rng& rng,
                                       std::size_t shard_count) const {
    if (shard_count <= 1) return 0;
    if (rng.chance(shard_skew)) return 0;
    return rng.below(shard_count);
  }

  [[nodiscard]] bool draw_write(Rng& rng) const {
    return rng.chance(write_fraction);
  }

  [[nodiscard]] std::uint64_t draw_client(Rng& rng) const {
    return rng.below(clients == 0 ? 1 : clients);
  }
};

// ---------------------------------------------------------------------------
// Simulated-time throughput measurement
// ---------------------------------------------------------------------------

/// Runs `op` `count` times and returns operations per simulated second.
inline double ops_per_sim_second(Cluster& cluster, std::size_t count,
                                 const std::function<void(std::size_t)>& op) {
  const SimTime start = cluster.runtime().now();
  for (std::size_t i = 0; i < count; ++i) op(i);
  const SimTime elapsed = cluster.runtime().now() - start;
  if (elapsed <= 0) return 0;
  return static_cast<double>(count) * 1e6 / static_cast<double>(elapsed);
}

// ---------------------------------------------------------------------------
// The Section-5.1 DedisysTest workload
// ---------------------------------------------------------------------------

struct Workload {
  /// Ops/s creating `n` entities (one transaction each).
  static double create(Cluster& c, std::size_t node, std::size_t n,
                       std::vector<ObjectId>& out) {
    DedisysNode& nd = c.node(node);
    return ops_per_sim_second(c, n, [&](std::size_t) {
      TxScope tx(nd.tx());
      out.push_back(nd.create(tx.id(), "TestEntity"));
      tx.commit();
    });
  }

  /// Ops/s invoking `method` round-robin over `ids` (averaged over
  /// same-object and different-object access as in Section 5.1).
  static double invoke(Cluster& c, std::size_t node, std::size_t n,
                       const std::vector<ObjectId>& ids,
                       const std::string& method,
                       std::vector<Value> args = {},
                       NegotiationHandler* handler = nullptr) {
    DedisysNode& nd = c.node(node);
    return ops_per_sim_second(c, n, [&](std::size_t i) {
      const ObjectId target = ids[i % ids.size()];
      try {
        TxScope tx(nd.tx());
        if (handler != nullptr) {
          nd.ccmgr().register_negotiation_handler(
              tx.id(), std::shared_ptr<NegotiationHandler>(handler,
                                                           [](auto*) {}));
        }
        nd.invoke(tx.id(), target, method, args);
        tx.commit();
      } catch (const DedisysError&) {
        // violations/rejections still count as attempted operations
      }
    });
  }

  /// Ops/s deleting the given entities.
  static double destroy(Cluster& c, std::size_t node,
                        const std::vector<ObjectId>& ids) {
    DedisysNode& nd = c.node(node);
    return ops_per_sim_second(c, ids.size(), [&](std::size_t i) {
      TxScope tx(nd.tx());
      nd.destroy(tx.id(), ids[i]);
      tx.commit();
    });
  }
};

/// Builds a cluster with the evaluation application deployed.
inline std::unique_ptr<Cluster> make_eval_cluster(ClusterConfig cfg) {
  auto cluster = std::make_unique<Cluster>(cfg);
  scenarios::EvalApp::define_classes(cluster->classes());
  if (cfg.with_ccm) {
    scenarios::EvalApp::register_constraints(cluster->constraints());
  }
  return cluster;
}

}  // namespace dedisys::bench
