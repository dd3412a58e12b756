// Cluster-level observability export: the JSON document served by the
// AdminConsole and the web /metrics endpoint.  Lives above the middleware
// layer (obs itself must not depend on the cluster).
#pragma once

#include <cstdio>
#include <string>

#include "analysis/report.h"
#include "constraints/repository.h"
#include "middleware/metrics.h"
#include "obs/analyze.h"
#include "obs/export.h"

namespace dedisys::obs {

[[nodiscard]] inline Json to_json(const analysis::AnalysisReport& r) {
  Json out = Json::object();
  out.set("opaque", r.opaque);
  out.set("locality", to_string(r.locality));
  out.set("triviality", to_string(r.triviality));
  out.set("verdict", to_string(r.verdict));
  out.set("dead_code", r.has_dead_code);
  out.set("prunable", r.prunable);
  if (!r.sat_box.empty()) {
    Json box = Json::object();
    for (const auto& [attr, iv] : r.sat_box) {
      box.set(attr, analysis::to_string(iv));
    }
    out.set("sat_box", std::move(box));
  }
  Json attributes = Json::array();
  for (const std::string& a : r.read_set.attributes) attributes.push_back(a);
  Json arguments = Json::array();
  for (std::size_t i : r.read_set.arguments) arguments.push_back(i);
  Json read_set = Json::object();
  read_set.set("attributes", std::move(attributes));
  read_set.set("arguments", std::move(arguments));
  out.set("read_set", std::move(read_set));
  Json diagnostics = Json::array();
  for (const analysis::Diagnostic& d : r.diagnostics) {
    Json diag = Json::object();
    diag.set("severity", to_string(d.severity));
    diag.set("message", d.message);
    diagnostics.push_back(std::move(diag));
  }
  out.set("diagnostics", std::move(diagnostics));
  return out;
}

/// Static-analysis reports of every registered constraint (null entries
/// for constraints that were never analyzed).
[[nodiscard]] inline Json analysis_to_json(
    const ConstraintRepository& repository) {
  Json out = Json::array();
  for (const ConstraintRegistration& reg : repository.registrations()) {
    Json entry = Json::object();
    entry.set("name", reg.constraint->name());
    entry.set("analysis",
              reg.analysis != nullptr ? to_json(*reg.analysis) : Json());
    out.push_back(std::move(entry));
  }
  return out;
}

/// Whole-configuration analysis block (PR 8): per-verdict tallies,
/// conflict/subsumption pairs and the interference-graph summary.  Null
/// when the analyzer has not run since the last repository change.
[[nodiscard]] inline Json config_analysis_to_json(
    const ConstraintRepository& repository) {
  const analysis::ConfigAnalysis* cfg = repository.config_analysis();
  if (cfg == nullptr) return Json();
  Json out = Json::object();
  Json verdicts = Json::object();
  verdicts.set("tautologies", cfg->tautologies);
  verdicts.set("unsatisfiable", cfg->unsatisfiable);
  verdicts.set("contingent", cfg->contingent);
  out.set("verdicts", std::move(verdicts));
  Json conflicts = Json::array();
  for (const auto& c : cfg->conflicts) {
    Json pair = Json::object();
    pair.set("first", c.first);
    pair.set("second", c.second);
    pair.set("attribute", c.attribute);
    conflicts.push_back(std::move(pair));
  }
  out.set("conflicts", std::move(conflicts));
  Json subsumptions = Json::array();
  for (const auto& s : cfg->subsumptions) {
    Json pair = Json::object();
    pair.set("stronger", s.stronger);
    pair.set("weaker", s.weaker);
    subsumptions.push_back(std::move(pair));
  }
  out.set("subsumptions", std::move(subsumptions));
  Json graph = Json::object();
  graph.set("edges", cfg->interference.size());
  graph.set("clusters", cfg->clusters);
  graph.set("constraints", cfg->cluster_of.size());
  out.set("interference", std::move(graph));
  return out;
}

[[nodiscard]] inline Json to_json(const ClusterMetrics& m) {
  Json nodes = Json::array();
  for (const NodeMetrics& n : m.nodes) {
    Json node = Json::object();
    node.set("node", n.node.value());
    node.set("mode", to_string(n.mode));
    node.set("db_reads", n.db_reads);
    node.set("db_writes", n.db_writes);
    node.set("db_deletes", n.db_deletes);
    node.set("updates_propagated", n.updates_propagated);
    node.set("backups_applied", n.backups_applied);
    node.set("history_records", n.history_records);
    node.set("stale_skipped", n.stale_skipped);
    node.set("validations", n.validations);
    node.set("evaluations_skipped", n.evaluations_skipped);
    node.set("evaluations_proven", n.evaluations_proven);
    node.set("threats_detected", n.threats_detected);
    node.set("threats_accepted", n.threats_accepted);
    node.set("threats_rejected", n.threats_rejected);
    node.set("violations", n.violations);
    node.set("memo_hits", n.memo_hits);
    node.set("memo_misses", n.memo_misses);
    node.set("memo_stores", n.memo_stores);
    node.set("memo_invalidated", n.memo_invalidated);
    nodes.push_back(std::move(node));
  }
  Json faults = Json::object();
  faults.set("messages_dropped", m.faults.messages_dropped);
  faults.set("messages_duplicated", m.faults.messages_duplicated);
  faults.set("messages_delayed", m.faults.messages_delayed);
  faults.set("crashes", m.faults.crashes);
  faults.set("restarts", m.faults.restarts);
  faults.set("gc_retries", m.faults.gc_retries);
  faults.set("gc_gave_up", m.faults.gc_gave_up);
  faults.set("gc_duplicates_suppressed", m.faults.gc_duplicates_suppressed);
  faults.set("gc_reordered", m.faults.gc_reordered);
  faults.set("tx_commits", m.faults.tx_commits);
  faults.set("tx_aborts", m.faults.tx_aborts);
  faults.set("tx_presumed_aborts", m.faults.tx_presumed_aborts);
  faults.set("tx_in_doubt", m.faults.tx_in_doubt);
  Json out = Json::object();
  out.set("sim_time_us", m.sim_time);
  out.set("stored_threat_identities", m.stored_threat_identities);
  out.set("stored_threat_occurrences", m.stored_threat_occurrences);
  out.set("live_objects", m.live_objects);
  // Both caches of the validation path, side by side: the repository's
  // query cache (what to validate) and the validation memo (what the
  // outcome was).
  Json lookup_cache = Json::object();
  lookup_cache.set("searches", m.lookup_searches);
  lookup_cache.set("hits", m.lookup_cache_hits);
  lookup_cache.set("misses", m.lookup_cache_misses);
  Json memo = Json::object();
  memo.set("hits", m.total(&NodeMetrics::memo_hits));
  memo.set("misses", m.total(&NodeMetrics::memo_misses));
  memo.set("stores", m.total(&NodeMetrics::memo_stores));
  memo.set("invalidated", m.total(&NodeMetrics::memo_invalidated));
  memo.set("lookup_cache", std::move(lookup_cache));
  out.set("memo", std::move(memo));
  out.set("faults", std::move(faults));
  out.set("nodes", std::move(nodes));
  return out;
}

/// Front-door/shard block: replica groups, acting primary identity, queue
/// depth and the shed counters, per shard (day-one observability of the
/// admission layer).
[[nodiscard]] inline Json shards_to_json(Cluster& cluster) {
  shard::ShardMap& map = cluster.shards();
  shard::FrontDoor& door = cluster.front_door();
  Json shards = Json::array();
  for (shard::ShardId s = 0; s < map.shard_count(); ++s) {
    const shard::FrontDoor::ShardStats& st = door.stats(s);
    Json nodes = Json::array();
    for (NodeId n : map.nodes_of(s)) nodes.push_back(n.value());
    Json shed = Json::object();
    shed.set("queue_full", st.shed_queue_full);
    shed.set("fee_below_required", st.shed_fee);
    shed.set("shard_unavailable", st.shed_unavailable);
    shed.set("bad_request", st.shed_bad_request);
    Json entry = Json::object();
    entry.set("shard", s);
    entry.set("nodes", std::move(nodes));
    entry.set("home", map.home_of(s).value());
    entry.set("primary", door.current_target(s).value());
    entry.set("queue_depth", door.queue_depth(s));
    entry.set("max_queue_depth", st.max_depth);
    entry.set("required_fee", door.required_fee(s));
    entry.set("submitted", st.submitted);
    entry.set("admitted", st.admitted);
    entry.set("applied", st.applied);
    entry.set("committed", st.committed);
    entry.set("aborted", st.aborted);
    entry.set("forwarded", st.forwarded);
    entry.set("evicted", st.evicted);
    entry.set("batches", st.batches);
    entry.set("shed", std::move(shed));
    shards.push_back(std::move(entry));
  }
  Json out = Json::object();
  out.set("count", map.shard_count());
  out.set("assigned_objects", map.assigned_count());
  out.set("shards", std::move(shards));
  return out;
}

/// The full observability document of a cluster: counters snapshot,
/// latency percentiles and the retained event trace.
[[nodiscard]] inline Json export_cluster_json(Cluster& cluster) {
  Json out = Json::object();
  out.set("metrics", to_json(collect_metrics(cluster)));
  out.set("sharding", shards_to_json(cluster));
  out.set("constraints", analysis_to_json(cluster.constraints()));
  out.set("analysis", config_analysis_to_json(cluster.constraints()));
  out.set("latencies", to_json(cluster.obs().latencies()));
  out.set("trace", to_json(cluster.obs().trace()));
  const TraceAnalysis analysis = analyze(cluster.obs().trace().events());
  out.set("spans", spans_to_json(analysis));
  out.set("critical_path", critical_path_to_json(analysis));
  return out;
}

/// Prometheus text exposition (version 0.0.4) of the same document, served
/// at /metrics.prom.  Counters come from the per-node metrics snapshot,
/// quantiles from the latency registry, and the dedisys_trace_* family from
/// the span analysis of the retained event ring.
[[nodiscard]] inline std::string render_prometheus(Cluster& cluster) {
  std::string out;
  auto num = [](double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return std::string(buf);
  };
  auto line = [&](const std::string& name, const std::string& labels,
                  double v) {
    out += name;
    if (!labels.empty()) out += '{' + labels + '}';
    out += ' ' + num(v) + '\n';
  };
  auto head = [&](const char* name, const char* type, const char* help) {
    out += "# HELP " + std::string(name) + ' ' + help + '\n';
    out += "# TYPE " + std::string(name) + ' ' + type + '\n';
  };

  const ClusterMetrics m = collect_metrics(cluster);
  head("dedisys_sim_time_us", "gauge", "Simulated time elapsed.");
  line("dedisys_sim_time_us", "", static_cast<double>(m.sim_time));
  head("dedisys_threat_identities", "gauge",
       "Stored consistency-threat identities awaiting reconciliation.");
  line("dedisys_threat_identities", "",
       static_cast<double>(m.stored_threat_identities));

  head("dedisys_node_mode", "gauge",
       "1 for the mode each node is currently in.");
  for (const NodeMetrics& n : m.nodes) {
    line("dedisys_node_mode",
         "node=\"" + std::to_string(n.node.value()) + "\",mode=\"" +
             to_string(n.mode) + "\"",
         1.0);
  }
  head("dedisys_node_total", "counter", "Per-node lifetime counters.");
  auto node_counter = [&](const NodeMetrics& n, const char* kind,
                          std::size_t v) {
    line("dedisys_node_total",
         "node=\"" + std::to_string(n.node.value()) + "\",kind=\"" + kind +
             "\"",
         static_cast<double>(v));
  };
  for (const NodeMetrics& n : m.nodes) {
    node_counter(n, "validations", n.validations);
    node_counter(n, "threats_detected", n.threats_detected);
    node_counter(n, "threats_accepted", n.threats_accepted);
    node_counter(n, "threats_rejected", n.threats_rejected);
    node_counter(n, "violations", n.violations);
    node_counter(n, "updates_propagated", n.updates_propagated);
    node_counter(n, "backups_applied", n.backups_applied);
  }

  head("dedisys_faults_total", "counter",
       "Injected faults and their middleware-level consequences.");
  auto fault = [&](const char* kind, std::uint64_t v) {
    line("dedisys_faults_total", std::string("kind=\"") + kind + "\"",
         static_cast<double>(v));
  };
  fault("messages_dropped", m.faults.messages_dropped);
  fault("messages_duplicated", m.faults.messages_duplicated);
  fault("messages_delayed", m.faults.messages_delayed);
  fault("crashes", m.faults.crashes);
  fault("restarts", m.faults.restarts);
  fault("gc_retries", m.faults.gc_retries);
  fault("gc_gave_up", m.faults.gc_gave_up);
  fault("gc_duplicates_suppressed", m.faults.gc_duplicates_suppressed);
  fault("tx_commits", m.faults.tx_commits);
  fault("tx_aborts", m.faults.tx_aborts);
  fault("tx_presumed_aborts", m.faults.tx_presumed_aborts);

  {
    shard::ShardMap& map = cluster.shards();
    shard::FrontDoor& door = cluster.front_door();
    head("dedisys_shard_queue_depth", "gauge",
         "Requests queued at the front door per shard.");
    for (shard::ShardId s = 0; s < map.shard_count(); ++s) {
      line("dedisys_shard_queue_depth", "shard=\"" + std::to_string(s) + "\"",
           static_cast<double>(door.queue_depth(s)));
    }
    head("dedisys_shard_primary", "gauge",
         "Node id of each shard's acting primary (first live replica).");
    for (shard::ShardId s = 0; s < map.shard_count(); ++s) {
      line("dedisys_shard_primary", "shard=\"" + std::to_string(s) + "\"",
           static_cast<double>(door.current_target(s).value()));
    }
    head("dedisys_shard_shed_total", "counter",
         "Requests load-shed at the front door, by shard and reason.");
    for (shard::ShardId s = 0; s < map.shard_count(); ++s) {
      const shard::FrontDoor::ShardStats& st = door.stats(s);
      const std::string prefix = "shard=\"" + std::to_string(s) + "\",reason=";
      line("dedisys_shard_shed_total", prefix + "\"queue_full\"",
           static_cast<double>(st.shed_queue_full));
      line("dedisys_shard_shed_total", prefix + "\"fee_below_required\"",
           static_cast<double>(st.shed_fee));
      line("dedisys_shard_shed_total", prefix + "\"shard_unavailable\"",
           static_cast<double>(st.shed_unavailable));
      line("dedisys_shard_shed_total", prefix + "\"bad_request\"",
           static_cast<double>(st.shed_bad_request));
    }
    head("dedisys_shard_requests_total", "counter",
         "Front-door request lifecycle counters per shard.");
    for (shard::ShardId s = 0; s < map.shard_count(); ++s) {
      const shard::FrontDoor::ShardStats& st = door.stats(s);
      const std::string prefix = "shard=\"" + std::to_string(s) + "\",kind=";
      line("dedisys_shard_requests_total", prefix + "\"submitted\"",
           static_cast<double>(st.submitted));
      line("dedisys_shard_requests_total", prefix + "\"applied\"",
           static_cast<double>(st.applied));
      line("dedisys_shard_requests_total", prefix + "\"committed\"",
           static_cast<double>(st.committed));
      line("dedisys_shard_requests_total", prefix + "\"forwarded\"",
           static_cast<double>(st.forwarded));
      line("dedisys_shard_requests_total", prefix + "\"evicted\"",
           static_cast<double>(st.evicted));
    }
  }

  head("dedisys_latency_us", "summary",
       "Simulated-time latency quantiles per operation.");
  for (const auto& [key, histogram] : cluster.obs().latencies().all()) {
    const LatencySummary s = summarize(histogram);
    const std::string op = "op=\"" + key + "\"";
    line("dedisys_latency_us", op + ",quantile=\"0.5\"", s.p50);
    line("dedisys_latency_us", op + ",quantile=\"0.95\"", s.p95);
    line("dedisys_latency_us", op + ",quantile=\"0.99\"", s.p99);
    line("dedisys_latency_us_count", op, static_cast<double>(s.count));
    line("dedisys_latency_us_sum", op, s.mean * static_cast<double>(s.count));
  }

  const TraceRecorder& trace = cluster.obs().trace();
  head("dedisys_trace_events_recorded_total", "counter",
       "Trace events recorded since startup.");
  line("dedisys_trace_events_recorded_total", "",
       static_cast<double>(trace.recorded()));
  head("dedisys_trace_events_dropped_total", "counter",
       "Trace events overwritten by the ring buffer.");
  line("dedisys_trace_events_dropped_total", "",
       static_cast<double>(trace.dropped()));
  head("dedisys_trace_ring_occupancy", "gauge",
       "Events currently retained (capacity in the limit label).");
  line("dedisys_trace_ring_occupancy",
       "capacity=\"" + std::to_string(trace.capacity()) + "\"",
       static_cast<double>(trace.size()));

  const TraceAnalysis analysis = analyze(trace.events());
  head("dedisys_trace_traces", "gauge", "Distinct traces in the ring.");
  line("dedisys_trace_traces", "", static_cast<double>(analysis.trees.size()));
  head("dedisys_trace_phase_self_us_total", "counter",
       "Busy simulated time attributed per phase across retained traces.");
  std::map<std::string, double> phase_totals;
  for (const TraceSummary& t : analysis.traces) {
    for (const auto& [phase, us] : t.phase_self_us) {
      phase_totals[phase] += static_cast<double>(us);
    }
  }
  for (const auto& [phase, us] : phase_totals) {
    line("dedisys_trace_phase_self_us_total", "phase=\"" + phase + "\"", us);
  }
  return out;
}

}  // namespace dedisys::obs
