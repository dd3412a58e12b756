// Cluster observability: aggregated metrics snapshots.
//
// Pulls together the statistics the individual services already track
// (database I/O, replication propagation, constraint validations, threat
// counts) into one structure that tests, benchmarks and operators can
// inspect — the runtime-monitoring face of the middleware.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "middleware/cluster.h"

namespace dedisys {

struct NodeMetrics {
  NodeId node;
  SystemMode mode = SystemMode::Healthy;
  std::size_t db_reads = 0;
  std::size_t db_writes = 0;
  std::size_t db_deletes = 0;
  std::size_t updates_propagated = 0;
  std::size_t backups_applied = 0;
  std::size_t history_records = 0;
  std::size_t stale_skipped = 0;
  std::size_t validations = 0;
  std::size_t evaluations_skipped = 0;
  std::size_t evaluations_proven = 0;
  std::size_t threats_detected = 0;
  std::size_t threats_accepted = 0;
  std::size_t threats_rejected = 0;
  std::size_t violations = 0;
  std::size_t memo_hits = 0;
  std::size_t memo_misses = 0;
  std::size_t memo_stores = 0;
  std::size_t memo_invalidated = 0;
};

/// Cluster-wide fault-tolerance counters: the per-message fault outcomes
/// of the network, the GCS retry/dedup machinery and 2PC recovery.
struct FaultToleranceMetrics {
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_duplicated = 0;
  std::uint64_t messages_delayed = 0;
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t gc_retries = 0;
  std::uint64_t gc_gave_up = 0;
  std::uint64_t gc_duplicates_suppressed = 0;
  std::uint64_t gc_reordered = 0;
  std::uint64_t tx_commits = 0;
  std::uint64_t tx_aborts = 0;
  std::uint64_t tx_presumed_aborts = 0;
  std::uint64_t tx_in_doubt = 0;
};

struct ClusterMetrics {
  SimTime sim_time = 0;
  std::size_t stored_threat_identities = 0;
  std::size_t stored_threat_occurrences = 0;
  std::size_t live_objects = 0;
  /// Shared constraint-repository query-cache counters (Section 2.2.1),
  /// reported side by side with the validation memo.
  std::size_t lookup_searches = 0;
  std::size_t lookup_cache_hits = 0;
  std::size_t lookup_cache_misses = 0;
  FaultToleranceMetrics faults;
  std::vector<NodeMetrics> nodes;

  /// Sums a per-node counter across the cluster.
  template <typename Member>
  [[nodiscard]] std::size_t total(Member member) const {
    std::size_t sum = 0;
    for (const NodeMetrics& n : nodes) sum += n.*member;
    return sum;
  }
};

/// Takes a consistent snapshot of the whole cluster's metrics.
inline ClusterMetrics collect_metrics(Cluster& cluster) {
  ClusterMetrics out;
  out.sim_time = cluster.runtime().now();
  out.stored_threat_identities = cluster.threats().identity_count();
  out.stored_threat_occurrences = cluster.threats().total_occurrences();
  out.live_objects = cluster.directory()->size();
  out.lookup_searches = cluster.constraints().search_count();
  out.lookup_cache_hits = cluster.constraints().cache_hit_count();
  out.lookup_cache_misses = cluster.constraints().cache_miss_count();
  // Network fault counters exist only on the simulated substrate; the
  // threaded backend injects no faults, so they stay zero there.
  if (cluster.config().backend == RuntimeBackend::Sim) {
    const SimNetwork::FaultStats& net = cluster.sim().network().fault_stats();
    out.faults.messages_dropped = net.messages_dropped;
    out.faults.messages_duplicated = net.messages_duplicated;
    out.faults.messages_delayed = net.messages_delayed;
    out.faults.crashes = net.crashes;
    out.faults.restarts = net.restarts;
  }
  const GroupCommunication::Stats& gc = cluster.gc().stats();
  const TransactionManager::Stats& tx = cluster.tx().stats();
  out.faults.gc_retries = gc.retries;
  out.faults.gc_gave_up = gc.gave_up;
  out.faults.gc_duplicates_suppressed = gc.duplicates_suppressed;
  out.faults.gc_reordered = gc.reordered;
  out.faults.tx_commits = tx.commits;
  out.faults.tx_aborts = tx.aborts;
  out.faults.tx_presumed_aborts = tx.presumed_aborts;
  out.faults.tx_in_doubt = cluster.tx().in_doubt_count();
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    DedisysNode& node = cluster.node(i);
    NodeMetrics m;
    m.node = node.id();
    m.mode = node.mode();
    m.db_reads = node.db().read_count();
    m.db_writes = node.db().write_count();
    m.db_deletes = node.db().delete_count();
    m.updates_propagated = node.replication().stats().updates_propagated;
    m.backups_applied = node.replication().stats().backups_applied;
    m.history_records = node.replication().stats().history_records;
    m.stale_skipped = node.replication().stats().stale_skipped;
    m.validations = node.ccmgr().stats().validations;
    m.evaluations_skipped = node.ccmgr().stats().evaluations_skipped;
    m.evaluations_proven = node.ccmgr().stats().evaluations_proven;
    m.threats_detected = node.ccmgr().stats().threats_detected;
    m.threats_accepted = node.ccmgr().stats().threats_accepted;
    m.threats_rejected = node.ccmgr().stats().threats_rejected;
    m.violations = node.ccmgr().stats().violations;
    m.memo_hits = node.ccmgr().memo_stats().hits;
    m.memo_misses = node.ccmgr().memo_stats().misses;
    m.memo_stores = node.ccmgr().memo_stats().stores;
    m.memo_invalidated = node.ccmgr().memo_stats().invalidations;
    out.nodes.push_back(m);
  }
  return out;
}

/// Human-readable rendering (examples, operator tooling).
inline std::string render_metrics(const ClusterMetrics& m) {
  std::string out;
  out += "sim time: " + std::to_string(m.sim_time / 1000) + " ms, objects: " +
         std::to_string(m.live_objects) + ", threats: " +
         std::to_string(m.stored_threat_identities) + " (" +
         std::to_string(m.stored_threat_occurrences) + " occurrences)\n";
  for (const NodeMetrics& n : m.nodes) {
    out += "  node " + to_string(n.node) + " [" + to_string(n.mode) + "]" +
           " db r/w/d=" + std::to_string(n.db_reads) + "/" +
           std::to_string(n.db_writes) + "/" + std::to_string(n.db_deletes) +
           " repl prop/apply=" + std::to_string(n.updates_propagated) + "/" +
           std::to_string(n.backups_applied) +
           " ccm val/thr/rej/viol=" + std::to_string(n.validations) + "/" +
           std::to_string(n.threats_accepted) + "/" +
           std::to_string(n.threats_rejected) + "/" +
           std::to_string(n.violations) + "\n";
  }
  return out;
}

}  // namespace dedisys
