// Observability subsystem: histogram percentiles, trace ring buffer, JSON
// round-trips and the full threat-lifecycle trace of a partition →
// reconcile scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "middleware/admin.h"
#include "middleware/obs_export.h"
#include "obs/analyze.h"
#include "obs/export.h"
#include "obs/histogram.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "scenarios/chaos.h"
#include "scenarios/evalapp.h"
#include "scenarios/flight.h"
#include "sim/fault_engine.h"
#include "util/rng.h"
#include "sim/fault_plan.h"
#include "web/metrics_servlet.h"

#ifndef TRACE_FIXTURE_DIR
#define TRACE_FIXTURE_DIR "tests/trace_fixtures"
#endif

namespace dedisys {
namespace {

using obs::Json;
using obs::LatencyHistogram;
using obs::TraceEvent;
using obs::TraceEventKind;
using obs::TraceRecorder;
using scenarios::AcceptAllNegotiation;
using scenarios::EvalApp;
using scenarios::FlightBooking;

// ---------------------------------------------------------------------------
// Latency histogram
// ---------------------------------------------------------------------------

TEST(LatencyHistogram, EmptyHistogramReportsZeros) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(LatencyHistogram, SingleValueCollapsesAllPercentiles) {
  LatencyHistogram h;
  h.record(150);
  // Clamping to [min, max] pins every percentile to the only observation.
  EXPECT_DOUBLE_EQ(h.percentile(50), 150.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 150.0);
  EXPECT_EQ(h.min(), 150);
  EXPECT_EQ(h.max(), 150);
}

TEST(LatencyHistogram, PercentilesOrderedAndWithinRange) {
  LatencyHistogram h;
  // 100 samples spread over two decades: 1..100 us.
  for (SimDuration d = 1; d <= 100; ++d) h.record(d);
  const double p50 = h.percentile(50);
  const double p95 = h.percentile(95);
  const double p99 = h.percentile(99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p99, 100.0);
  // The median of 1..100 lies in the (50, 100] bucket.
  EXPECT_GT(p50, 20.0);
  EXPECT_LE(p50, 100.0);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
}

TEST(LatencyHistogram, SingleBucketReportsClampedMidpoint) {
  LatencyHistogram h;
  h.record(60);
  h.record(80);
  // Both samples land in the (50, 100] bucket; interpolating inside it
  // would fabricate p50 < p99 out of spread the data cannot support, so
  // every percentile collapses to the bucket midpoint.
  EXPECT_DOUBLE_EQ(h.percentile(50), 75.0);
  EXPECT_DOUBLE_EQ(h.percentile(95), 75.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 75.0);

  // When the midpoint lies outside the observed range it clamps to it.
  LatencyHistogram tight;
  tight.record(51);
  tight.record(52);
  EXPECT_DOUBLE_EQ(tight.percentile(50), 52.0);
  EXPECT_DOUBLE_EQ(tight.percentile(99), 52.0);
}

TEST(LatencyHistogram, PercentilesMonotoneAcrossShapes) {
  // p50 <= p95 <= p99 must hold for degenerate shapes too, not just the
  // well-populated ladder above.
  const std::vector<std::vector<SimDuration>> shapes = {
      {},                            // empty
      {7},                           // single sample
      {60, 60, 60, 80},              // single bucket
      {1, 1, 1, 1, 5000},            // heavy head, one outlier
      {sim_sec(60), sim_sec(80)},    // overflow bucket only
  };
  for (const auto& samples : shapes) {
    LatencyHistogram h;
    for (SimDuration d : samples) h.record(d);
    const double p50 = h.percentile(50);
    const double p95 = h.percentile(95);
    const double p99 = h.percentile(99);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    if (!samples.empty()) {
      EXPECT_GE(p50, static_cast<double>(h.min()));
      EXPECT_LE(p99, static_cast<double>(h.max()));
    }
  }
}

TEST(LatencyHistogram, NegativeDurationsClampToZero) {
  LatencyHistogram h;
  h.record(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(LatencyHistogram, OverflowBucketUsesObservedMax) {
  LatencyHistogram h;
  // Beyond the last bound (50 s): lands in the open-ended bucket.
  h.record(sim_sec(60));
  h.record(sim_sec(80));
  const double p99 = h.percentile(99);
  EXPECT_GE(p99, static_cast<double>(sim_sec(60)));
  EXPECT_LE(p99, static_cast<double>(sim_sec(80)));
}

TEST(LatencyHistogram, SummaryMatchesDirectQueries) {
  LatencyHistogram h;
  for (SimDuration d : {10, 20, 30, 40, 50}) h.record(d);
  const obs::LatencySummary s = obs::summarize(h);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 30.0);
  EXPECT_DOUBLE_EQ(s.p50, h.percentile(50));
  EXPECT_DOUBLE_EQ(s.p99, h.percentile(99));
  EXPECT_EQ(s.min, 10);
  EXPECT_EQ(s.max, 50);
}

// ---------------------------------------------------------------------------
// Trace ring buffer
// ---------------------------------------------------------------------------

TraceEvent make_event(SimTime at, TraceEventKind kind) {
  TraceEvent e;
  e.at = at;
  e.kind = kind;
  return e;
}

TEST(TraceRecorder, RecordsUpToCapacityWithoutDropping) {
  TraceRecorder rec(4);
  for (int i = 0; i < 4; ++i) {
    rec.record(make_event(i, TraceEventKind::Validation));
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 0u);
  EXPECT_EQ(rec.recorded(), 4u);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);
    EXPECT_EQ(events[i].at, static_cast<SimTime>(i));
  }
}

TEST(TraceRecorder, WraparoundKeepsNewestEventsOldestFirst) {
  TraceRecorder rec(4);
  for (int i = 0; i < 7; ++i) {
    rec.record(make_event(100 + i, TraceEventKind::Validation));
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 3u);
  EXPECT_EQ(rec.recorded(), 7u);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  // Events 0..2 were overwritten; 3..6 remain, oldest first.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 3);
    EXPECT_EQ(events[i].at, static_cast<SimTime>(103 + i));
  }
}

TEST(TraceRecorder, EventsOfFiltersByKind) {
  TraceRecorder rec(8);
  rec.record(make_event(1, TraceEventKind::InvocationStart));
  rec.record(make_event(2, TraceEventKind::Validation));
  rec.record(make_event(3, TraceEventKind::InvocationEnd));
  EXPECT_EQ(rec.events_of(TraceEventKind::Validation).size(), 1u);
  EXPECT_EQ(rec.events_of(TraceEventKind::TxAbort).size(), 0u);
}

TEST(TraceRecorder, ClearResetsRetainedEventsButNotSeq) {
  TraceRecorder rec(4);
  for (int i = 0; i < 6; ++i) {
    rec.record(make_event(i, TraceEventKind::Validation));
  }
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
  rec.record(make_event(99, TraceEventKind::Validation));
  EXPECT_EQ(rec.events().front().seq, 6u);
}

TEST(TraceTimeline, DropWarningFramesTruncatedTimeline) {
  TraceRecorder rec(2);
  for (int i = 0; i < 5; ++i) {
    rec.record(make_event(i, TraceEventKind::Validation));
  }
  const std::string timeline = obs::render_timeline(rec);
  EXPECT_NE(timeline.find("WARNING: timeline is truncated - 3"),
            std::string::npos);
  EXPECT_NE(timeline.find("(+3 older events dropped"), std::string::npos);

  TraceRecorder intact(8);
  intact.record(make_event(1, TraceEventKind::Validation));
  EXPECT_EQ(obs::render_timeline(intact).find("WARNING"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Span-tree reconstruction and trace analysis
// ---------------------------------------------------------------------------

TraceEvent traced_event(SimTime at, TraceEventKind kind, std::uint64_t trace,
                        std::uint64_t span, std::uint64_t parent,
                        std::string label = {}, std::string detail = {}) {
  TraceEvent e;
  e.at = at;
  e.kind = kind;
  e.trace_id = trace;
  e.span_id = span;
  e.parent_span = parent;
  e.label = std::move(label);
  e.detail = std::move(detail);
  return e;
}

TEST(TraceAnalyze, BuildsSpanTreePhasesAndCriticalPath) {
  std::vector<TraceEvent> events;
  events.push_back(traced_event(0, TraceEventKind::SpanStart, 1, 1, 0,
                                "Account::deposit"));
  events.push_back(
      traced_event(10, TraceEventKind::SpanStart, 1, 2, 1, "validation"));
  events.push_back(traced_event(15, TraceEventKind::Validation, 1, 2, 1,
                                "TouchHard", "satisfied"));
  events.push_back(
      traced_event(30, TraceEventKind::SpanEnd, 1, 2, 1, "validation"));
  events.push_back(traced_event(40, TraceEventKind::SpanStart, 1, 3, 1, "2pc"));
  events.push_back(traced_event(90, TraceEventKind::SpanEnd, 1, 3, 1, "2pc"));
  events.push_back(traced_event(100, TraceEventKind::SpanEnd, 1, 1, 0,
                                "Account::deposit"));
  // An untraced event outside any span counts as an orphan, nothing more.
  events.push_back(make_event(95, TraceEventKind::TxCommit));

  const obs::TraceAnalysis analysis = obs::analyze(events);
  ASSERT_EQ(analysis.trees.size(), 1u);
  ASSERT_EQ(analysis.traces.size(), 1u);
  EXPECT_EQ(analysis.traced_events, 1u);
  EXPECT_EQ(analysis.orphan_events, 1u);

  const obs::SpanTree& tree = analysis.trees.front();
  ASSERT_EQ(tree.roots.size(), 1u);
  EXPECT_EQ(tree.roots.front(), 1u);
  ASSERT_NE(tree.find(1), nullptr);
  EXPECT_EQ(tree.find(1)->children, (std::vector<std::uint64_t>{2, 3}));
  EXPECT_TRUE(tree.find(2)->saw_start);
  EXPECT_TRUE(tree.find(2)->saw_end);
  EXPECT_EQ(tree.find(2)->events, 1u);

  const obs::TraceSummary& summary = analysis.traces.front();
  EXPECT_EQ(summary.trace_id, 1u);
  EXPECT_EQ(summary.root_label, "Account::deposit");
  EXPECT_EQ(summary.duration_us, 100);
  EXPECT_EQ(summary.spans, 3u);
  EXPECT_EQ(summary.events, 1u);
  // Self time partitions the trace: validation 20, 2pc 50, root rest 30.
  EXPECT_EQ(summary.phase_self_us.at("validation"), 20);
  EXPECT_EQ(summary.phase_self_us.at("2pc"), 50);
  EXPECT_EQ(summary.phase_self_us.at("interception"), 30);

  // Critical path descends into the child finishing last: root -> 2pc.
  ASSERT_EQ(summary.critical_path.size(), 2u);
  EXPECT_EQ(summary.critical_path[0].label, "Account::deposit");
  EXPECT_EQ(summary.critical_path[0].self_us, 50);
  EXPECT_EQ(summary.critical_path[1].label, "2pc");
  EXPECT_EQ(summary.critical_path[1].self_us, 50);
}

TEST(TraceAnalyze, ModeResidencyFollowsTransitions) {
  std::vector<TraceEvent> events;
  events.push_back(make_event(0, TraceEventKind::Validation));
  TraceEvent degraded = make_event(100, TraceEventKind::ModeTransition);
  degraded.node = NodeId{2};
  degraded.label = "degraded";
  degraded.detail = "from healthy";
  events.push_back(degraded);
  TraceEvent healthy = make_event(300, TraceEventKind::ModeTransition);
  healthy.node = NodeId{2};
  healthy.label = "healthy";
  healthy.detail = "from degraded";
  events.push_back(healthy);
  events.push_back(make_event(400, TraceEventKind::Validation));

  const obs::TraceAnalysis analysis = obs::analyze(events);
  ASSERT_EQ(analysis.mode_timeline.size(), 2u);
  EXPECT_EQ(analysis.mode_timeline.front().to, "degraded");
  EXPECT_EQ(analysis.mode_timeline.front().from, "healthy");
  const auto& residency = analysis.mode_residency.at(2);
  EXPECT_EQ(residency.at("healthy"), 200);   // 0..100 plus 300..400
  EXPECT_EQ(residency.at("degraded"), 200);  // 100..300
}

// ---------------------------------------------------------------------------
// Trace-driven invariant checker
// ---------------------------------------------------------------------------

TraceEvent threat_event(SimTime at, TraceEventKind kind, std::string label,
                        std::uint64_t object, std::uint64_t tx = 0,
                        std::string detail = {}) {
  TraceEvent e = make_event(at, kind);
  e.label = std::move(label);
  e.object = ObjectId{object};
  if (tx != 0) e.tx = TxId{tx};
  e.detail = std::move(detail);
  return e;
}

TEST(TraceChecker, FlagsThreatMissedByReconciliation) {
  std::vector<TraceEvent> events;
  events.push_back(threat_event(10, TraceEventKind::ThreatAccepted, "C", 5));
  events.push_back(make_event(100, TraceEventKind::ReconcileStart));
  events.push_back(make_event(200, TraceEventKind::ReconcileEnd));

  const obs::TraceCheckResult result = obs::check_events(events);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.reconciles, 1u);
  EXPECT_EQ(result.threats_tracked, 1u);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations.front().invariant, "no-lost-threats");
  EXPECT_NE(result.violations.front().detail.find("C@5"), std::string::npos);

  // The same stream with the re-evaluation present is clean, and the
  // "satisfied" outcome erases the threat for later windows too.
  events.insert(events.begin() + 2,
                threat_event(150, TraceEventKind::ThreatReconciled, "C", 5, 0,
                             "satisfied"));
  events.push_back(make_event(300, TraceEventKind::ReconcileStart));
  events.push_back(make_event(400, TraceEventKind::ReconcileEnd));
  const obs::TraceCheckResult clean = obs::check_events(events);
  EXPECT_TRUE(clean.ok()) << (clean.violations.empty()
                                  ? ""
                                  : clean.violations.front().detail);
  EXPECT_EQ(clean.reconciles, 2u);
}

TEST(TraceChecker, AbortedStagingAndResolutionClearLiveSet) {
  std::vector<TraceEvent> events;
  // Threat A staged under tx 7, which aborts: nothing was stored.
  events.push_back(threat_event(10, TraceEventKind::ThreatAccepted, "A", 1, 7));
  events.push_back(threat_event(20, TraceEventKind::TxAbort, "", 0, 7));
  // Threat B commits durably, then a satisfied business op resolves it.
  events.push_back(threat_event(30, TraceEventKind::ThreatAccepted, "B", 2, 8));
  events.push_back(threat_event(40, TraceEventKind::TxCommit, "", 0, 8));
  events.push_back(threat_event(50, TraceEventKind::ThreatResolved, "B", 2));
  events.push_back(make_event(100, TraceEventKind::ReconcileStart));
  events.push_back(make_event(200, TraceEventKind::ReconcileEnd));

  const obs::TraceCheckResult result = obs::check_events(events);
  EXPECT_TRUE(result.ok()) << (result.violations.empty()
                                   ? ""
                                   : result.violations.front().detail);
  EXPECT_EQ(result.threats_tracked, 2u);
}

TEST(TraceChecker, RepeatAcceptCannotDowngradeDurableThreat) {
  std::vector<TraceEvent> events;
  // Durably stored (no transaction), then re-accepted inside tx 9 which
  // aborts.  The original store must stay live: the reconcile window that
  // skips it is still a violation.
  events.push_back(threat_event(10, TraceEventKind::ThreatAccepted, "C", 3));
  events.push_back(threat_event(20, TraceEventKind::ThreatAccepted, "C", 3, 9));
  events.push_back(threat_event(30, TraceEventKind::TxAbort, "", 0, 9));
  events.push_back(make_event(100, TraceEventKind::ReconcileStart));
  events.push_back(make_event(200, TraceEventKind::ReconcileEnd));

  const obs::TraceCheckResult result = obs::check_events(events);
  ASSERT_EQ(result.violations.size(), 1u);
  EXPECT_EQ(result.violations.front().invariant, "no-lost-threats");
}

TEST(TraceChecker, SplitViewsInsideOnePartitionAreViolations) {
  const auto view = [](SimTime at, std::uint64_t node, std::string members) {
    TraceEvent e = make_event(at, TraceEventKind::ViewChange);
    e.node = NodeId{node};
    e.detail = "members=" + std::move(members);
    return e;
  };
  std::vector<TraceEvent> events;
  events.push_back(view(10, 0, "{0,1,2}"));
  events.push_back(view(11, 1, "{0,1}"));
  // Views are checked once the install burst quiesces.
  events.push_back(make_event(20, TraceEventKind::Validation));

  const obs::TraceCheckResult split = obs::check_events(events);
  ASSERT_EQ(split.violations.size(), 1u);
  EXPECT_EQ(split.violations.front().invariant, "one-primary-per-partition");
  EXPECT_GT(split.view_checks, 0u);

  // Agreeing views — and views that do not mutually contain each other —
  // are fine.
  std::vector<TraceEvent> agree;
  agree.push_back(view(10, 0, "{0,1}"));
  agree.push_back(view(11, 1, "{0,1}"));
  agree.push_back(view(12, 2, "{2}"));
  agree.push_back(make_event(20, TraceEventKind::Validation));
  EXPECT_TRUE(obs::check_events(agree).ok());
}

TEST(TraceChecker, DroppedEventsMarkVerdictIncomplete) {
  const std::vector<TraceEvent> events = {
      make_event(10, TraceEventKind::Validation)};
  EXPECT_TRUE(obs::check_events(events, 0).complete);
  EXPECT_FALSE(obs::check_events(events, 5).complete);
}

/// A real split-brain run, exported before the outbound-only GMS was
/// removed (recipe in docs/observability.md): the checker must derive the
/// violation from the recorded events alone.
TEST(TraceChecker, CommittedSplitBrainFixtureIsFlagged) {
  std::ifstream in(TRACE_FIXTURE_DIR "/legacy_split_brain.json");
  ASSERT_TRUE(in) << "fixture missing at " << TRACE_FIXTURE_DIR;
  std::ostringstream text;
  text << in.rdbuf();
  const obs::TraceCheckResult check =
      obs::check_events(obs::events_from_json(Json::parse(text.str())));
  EXPECT_TRUE(std::any_of(check.violations.begin(), check.violations.end(),
                          [](const obs::TraceCheckFinding& f) {
                            return f.invariant == "one-primary-per-partition";
                          }));
}

// ---------------------------------------------------------------------------
// JSON round-trip
// ---------------------------------------------------------------------------

TEST(ObsJson, RoundTripsNestedDocument) {
  Json doc = Json::object();
  doc.set("name", "bench");
  doc.set("count", std::int64_t{42});
  doc.set("ratio", 2.5);
  doc.set("flag", true);
  doc.set("missing", nullptr);
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  doc.set("items", std::move(arr));

  for (int indent : {-1, 2}) {
    const Json parsed = Json::parse(doc.dump(indent));
    EXPECT_EQ(parsed.at("name").as_string(), "bench");
    EXPECT_EQ(parsed.at("count").as_int(), 42);
    EXPECT_DOUBLE_EQ(parsed.at("ratio").as_double(), 2.5);
    EXPECT_TRUE(parsed.at("flag").as_bool());
    EXPECT_TRUE(parsed.at("missing").is_null());
    EXPECT_EQ(parsed.at("items").size(), 2u);
    EXPECT_EQ(parsed.at("items").at(0).as_int(), 1);
    EXPECT_EQ(parsed.at("items").at(1).as_string(), "two");
  }
}

TEST(ObsJson, PreservesInsertionOrderAndEscapes) {
  Json doc = Json::object();
  doc.set("z", 1);
  doc.set("a", 2);
  doc.set("text", "line\n\"quoted\"\tend");
  const std::string compact = doc.dump();
  EXPECT_LT(compact.find("\"z\""), compact.find("\"a\""));
  const Json parsed = Json::parse(compact);
  EXPECT_EQ(parsed.at("text").as_string(), "line\n\"quoted\"\tend");
}

TEST(ObsJson, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), ConfigError);
  EXPECT_THROW(Json::parse("[1,]"), ConfigError);
  EXPECT_THROW(Json::parse("{} trailing"), ConfigError);
  EXPECT_THROW(Json::parse("nope"), ConfigError);
}

TEST(ObsJson, LatencySummaryExportRoundTrips) {
  LatencyHistogram h;
  for (SimDuration d : {10, 20, 30}) h.record(d);
  const Json parsed = Json::parse(obs::to_json(obs::summarize(h)).dump());
  EXPECT_EQ(parsed.at("count").as_int(), 3);
  EXPECT_DOUBLE_EQ(parsed.at("mean_us").as_double(), 20.0);
  EXPECT_GT(parsed.at("p95_us").as_double(), 0.0);
  EXPECT_EQ(parsed.at("min_us").as_int(), 10);
  EXPECT_EQ(parsed.at("max_us").as_int(), 30);
}

// ---------------------------------------------------------------------------
// End-to-end: partition → threat → heal → reconcile, fully traced
// ---------------------------------------------------------------------------

class TracedClusterTest : public ::testing::Test {
 protected:
  TracedClusterTest() {
    cfg_.nodes = 3;
    cfg_.observability = true;
    cluster_ = std::make_unique<Cluster>(cfg_);
    EvalApp::define_classes(cluster_->classes());
    EvalApp::register_constraints(cluster_->constraints());
  }

  ClusterConfig cfg_;
  std::unique_ptr<Cluster> cluster_;
};

TEST_F(TracedClusterTest, ThreatLifecycleAppearsInSimTimeOrder) {
  const auto ids = EvalApp::create_entities(cluster_->node(0), 2);
  EvalApp::run_op(cluster_->node(0), ids[0], "emptySatisfied");
  EvalApp::run_op(cluster_->node(0), ids[0], "setValue",
                  {Value{std::string{"x"}}});

  cluster_->inject(fault::split_indices({{0, 1}, {2}}));
  EvalApp::run_op_negotiated(cluster_->node(0), ids[0], "emptyThreat",
                             std::make_shared<AcceptAllNegotiation>());
  cluster_->inject(fault::Heal{});
  cluster_->reconcile();

  const TraceRecorder& trace = cluster_->obs().trace();
  EXPECT_EQ(trace.dropped(), 0u);

  // Every stage of the pipeline left events.
  for (TraceEventKind kind :
       {TraceEventKind::InvocationStart, TraceEventKind::InvocationEnd,
        TraceEventKind::Validation, TraceEventKind::ThreatDetected,
        TraceEventKind::ThreatNegotiated, TraceEventKind::ThreatAccepted,
        TraceEventKind::ThreatReconciled, TraceEventKind::TxPrepare,
        TraceEventKind::TxCommit, TraceEventKind::ViewChange,
        TraceEventKind::ModeTransition, TraceEventKind::ReplicaPropagate,
        TraceEventKind::ReconcileStart, TraceEventKind::ReconcileEnd,
        TraceEventKind::NetworkSplit, TraceEventKind::NetworkHeal}) {
    EXPECT_FALSE(trace.events_of(kind).empty())
        << "no event of kind " << obs::to_string(kind);
  }

  // Events are retained in recording order with non-decreasing SimTime.
  const auto events = trace.events();
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
    EXPECT_GE(events[i].at, events[i - 1].at);
  }

  // Lifecycle ordering for the accepted threat.
  const auto detected = trace.events_of(TraceEventKind::ThreatDetected);
  const auto negotiated = trace.events_of(TraceEventKind::ThreatNegotiated);
  const auto accepted = trace.events_of(TraceEventKind::ThreatAccepted);
  const auto reconciled = trace.events_of(TraceEventKind::ThreatReconciled);
  ASSERT_FALSE(detected.empty());
  ASSERT_FALSE(accepted.empty());
  ASSERT_FALSE(reconciled.empty());
  EXPECT_LT(detected.front().seq, negotiated.front().seq);
  EXPECT_LT(negotiated.front().seq, accepted.front().seq);
  EXPECT_LT(accepted.front().seq, reconciled.front().seq);
  EXPECT_EQ(detected.front().label, "TouchHard");
  EXPECT_EQ(reconciled.front().detail, "satisfied");

  // Latencies were recorded for the instrumented operations.
  const obs::LatencyRegistry& lat = cluster_->obs().latencies();
  for (const char* key : {"create", "invoke.write", "tx.commit",
                          "reconcile.total"}) {
    const LatencyHistogram* h = lat.find(key);
    ASSERT_NE(h, nullptr) << key;
    EXPECT_GT(h->count(), 0u) << key;
  }
}

TEST_F(TracedClusterTest, TimelineRendersLifecycle) {
  const auto ids = EvalApp::create_entities(cluster_->node(0), 1);
  cluster_->inject(fault::split_indices({{0, 1}, {2}}));
  EvalApp::run_op_negotiated(cluster_->node(0), ids[0], "emptyThreat",
                             std::make_shared<AcceptAllNegotiation>());
  cluster_->inject(fault::Heal{});
  cluster_->reconcile();

  AdminConsole admin(*cluster_);
  const std::string timeline = admin.timeline();
  // The acceptance scenario's milestones, rendered human-readably.
  for (const char* needle :
       {"invocation.start", "validation", "threat.accepted", "view.change",
        "reconcile.end", "mode.transition"}) {
    EXPECT_NE(timeline.find(needle), std::string::npos) << needle;
  }
  // SimTime stamps appear in order because events do.
  EXPECT_LT(timeline.find("network.split"), timeline.find("network.heal"));
}

TEST_F(TracedClusterTest, ClusterJsonExportRoundTrips) {
  const auto ids = EvalApp::create_entities(cluster_->node(0), 1);
  EvalApp::run_op(cluster_->node(0), ids[0], "setValue",
                  {Value{std::string{"x"}}});

  AdminConsole admin(*cluster_);
  const Json doc = Json::parse(admin.metrics_json());
  EXPECT_EQ(doc.at("metrics").at("nodes").size(), 3u);
  EXPECT_GT(doc.at("metrics").at("sim_time_us").as_int(), 0);
  EXPECT_TRUE(doc.at("latencies").contains("invoke.write"));
  EXPECT_GT(doc.at("trace").at("events").size(), 0u);
  const Json& first = doc.at("trace").at("events").at(0);
  EXPECT_TRUE(first.contains("seq"));
  EXPECT_TRUE(first.contains("at_us"));
  EXPECT_TRUE(first.contains("kind"));
}

TEST_F(TracedClusterTest, MetricsServletServesJsonAndTimeline) {
  const auto ids = EvalApp::create_entities(cluster_->node(0), 1);
  EvalApp::run_op(cluster_->node(0), ids[0], "emptySatisfied");

  web::MetricsServlet servlet(*cluster_);
  EXPECT_TRUE(servlet.handles("/metrics"));
  EXPECT_TRUE(servlet.handles("/timeline"));
  EXPECT_FALSE(servlet.handles("/business"));

  const web::HttpResponse metrics =
      servlet.handle(web::HttpRequest{"/metrics", {}});
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.kind, "metrics");
  const Json doc = Json::parse(metrics.fields.at("body"));
  EXPECT_TRUE(doc.contains("metrics"));
  EXPECT_TRUE(doc.contains("trace"));

  const web::HttpResponse timeline =
      servlet.handle(web::HttpRequest{"/timeline", {}});
  EXPECT_EQ(timeline.kind, "timeline");
  EXPECT_NE(timeline.fields.at("body").find("invocation.start"),
            std::string::npos);

  const web::HttpResponse missing =
      servlet.handle(web::HttpRequest{"/nope", {}});
  EXPECT_EQ(missing.status, 404);
}

TEST_F(TracedClusterTest, EveryTracedEventReachesItsRootSpan) {
  const auto ids = EvalApp::create_entities(cluster_->node(0), 2);
  EvalApp::run_op(cluster_->node(0), ids[0], "setValue",
                  {Value{std::string{"x"}}});
  cluster_->inject(fault::split_indices({{0, 1}, {2}}));
  EvalApp::run_op_negotiated(cluster_->node(0), ids[0], "emptyThreat",
                             std::make_shared<AcceptAllNegotiation>());
  cluster_->inject(fault::Heal{});
  cluster_->reconcile();

  const std::vector<TraceEvent> events = cluster_->obs().trace().events();
  ASSERT_EQ(cluster_->obs().trace().dropped(), 0u);
  const obs::TraceAnalysis analysis = obs::analyze(events);
  ASSERT_FALSE(analysis.traces.empty());

  // Index the trees by trace id.
  std::map<std::uint64_t, const obs::SpanTree*> trees;
  for (const obs::SpanTree& tree : analysis.trees) {
    trees[tree.trace_id] = &tree;
  }

  // Acceptance: every event stamped with a trace id hangs off a span whose
  // parent chain ends at a root of that trace's tree.
  for (const TraceEvent& e : events) {
    if (e.trace_id == 0) continue;
    ASSERT_NE(e.span_id, 0u) << "traced event without a span: "
                             << obs::to_string(e.kind);
    auto it = trees.find(e.trace_id);
    ASSERT_NE(it, trees.end());
    const obs::SpanTree& tree = *it->second;
    const obs::Span* span = tree.find(e.span_id);
    ASSERT_NE(span, nullptr) << obs::to_string(e.kind);
    std::size_t hops = 0;
    while (span->parent != 0 && tree.find(span->parent) != nullptr &&
           hops++ < 64) {
      span = tree.find(span->parent);
    }
    EXPECT_NE(std::find(tree.roots.begin(), tree.roots.end(), span->id),
              tree.roots.end())
        << "span chain of " << obs::to_string(e.kind)
        << " does not reach a root";
  }

  // Nothing was dropped, so every span has both markers, and the pipeline's
  // layers all opened spans: validation and 2PC inside the invocation,
  // GCS legs and backup propagation across "nodes", and the reconcile pass
  // with its per-threat re-evaluation stitched to the originating trace.
  std::set<std::string> labels;
  for (const obs::SpanTree& tree : analysis.trees) {
    for (const auto& [id, span] : tree.spans) {
      (void)id;
      EXPECT_TRUE(span.saw_start && span.saw_end) << span.label;
      labels.insert(span.label);
    }
  }
  for (const char* expected :
       {"validation", "2pc", "gcs.multicast", "replication.propagate",
        "reconcile", "reconcile.threat"}) {
    EXPECT_EQ(labels.count(expected), 1u) << expected;
  }

  // The trace-driven checker agrees with the scenario's clean outcome.
  const obs::TraceCheckResult verdict = obs::check_events(events);
  EXPECT_TRUE(verdict.complete);
  EXPECT_TRUE(verdict.ok()) << (verdict.violations.empty()
                                    ? ""
                                    : verdict.violations.front().detail);
  EXPECT_GT(verdict.reconciles, 0u);
  EXPECT_GT(verdict.threats_tracked, 0u);
}

TEST_F(TracedClusterTest, MetricsJsonCarriesSpansAndCriticalPath) {
  const auto ids = EvalApp::create_entities(cluster_->node(0), 1);
  EvalApp::run_op(cluster_->node(0), ids[0], "setValue",
                  {Value{std::string{"x"}}});

  AdminConsole admin(*cluster_);
  const Json doc = Json::parse(admin.metrics_json());
  ASSERT_TRUE(doc.contains("spans"));
  const Json& spans = doc.at("spans");
  EXPECT_GT(spans.at("traces").as_int(), 0);
  EXPECT_GT(spans.at("traced_events").as_int(), 0);
  ASSERT_GT(spans.at("top").size(), 0u);
  const Json& top = spans.at("top").at(0);
  EXPECT_FALSE(top.at("root").as_string().empty());
  EXPECT_GE(top.at("duration_us").as_int(), 0);
  EXPECT_TRUE(top.at("phases").is_object());

  ASSERT_TRUE(doc.contains("critical_path"));
  ASSERT_GT(doc.at("critical_path").size(), 0u);
  const Json& hop = doc.at("critical_path").at(0);
  for (const char* field : {"span", "start_us", "end_us", "self_us"}) {
    EXPECT_TRUE(hop.contains(field)) << field;
  }

  // The exported trace block round-trips into the offline analyzer: the
  // CLI sees the same spans the in-process analysis saw.
  const std::vector<TraceEvent> rebuilt = obs::events_from_json(doc);
  EXPECT_EQ(rebuilt.size(), cluster_->obs().trace().size());
  const obs::TraceAnalysis offline = obs::analyze(rebuilt);
  EXPECT_EQ(offline.traces.size(),
            static_cast<std::size_t>(spans.at("traces").as_int()));
}

TEST_F(TracedClusterTest, PrometheusExpositionServed) {
  const auto ids = EvalApp::create_entities(cluster_->node(0), 1);
  EvalApp::run_op(cluster_->node(0), ids[0], "setValue",
                  {Value{std::string{"x"}}});

  web::MetricsServlet servlet(*cluster_);
  EXPECT_TRUE(servlet.handles("/metrics.prom"));
  const web::HttpResponse response =
      servlet.handle(web::HttpRequest{"/metrics.prom", {}});
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.fields.at("content-type").find("text/plain"),
            std::string::npos);
  const std::string& body = response.fields.at("body");
  for (const char* needle :
       {"# TYPE dedisys_sim_time_us gauge", "dedisys_node_mode{",
        "dedisys_node_total{", "dedisys_latency_us",
        "dedisys_trace_events_recorded_total",
        "dedisys_trace_phase_self_us_total{"}) {
    EXPECT_NE(body.find(needle), std::string::npos) << needle;
  }
}

// ---------------------------------------------------------------------------
// Span propagation under gray faults
// ---------------------------------------------------------------------------

TEST(SpanPropagation, GrayChaosMessagesCarrySpanContext) {
  scenarios::ChaosOptions options;
  options.seed = 8091;
  options.gray = true;
  options.ops = 50;
  options.fault_events = 8;
  const scenarios::ChaosResult first = scenarios::run_chaos(options);
  const scenarios::ChaosResult second = scenarios::run_chaos(options);
  // Span minting is part of the deterministic run: byte-identical replay.
  EXPECT_EQ(first.timeline, second.timeline);

  const std::vector<TraceEvent> events =
      obs::events_from_json(Json::parse(first.metrics_json));
  ASSERT_FALSE(events.empty());
  std::set<std::uint64_t> span_traces;
  for (const TraceEvent& e : events) {
    if (e.kind == TraceEventKind::SpanStart) span_traces.insert(e.trace_id);
  }
  // Every cross-node message event — retries after loss, duplicate
  // suppression, primary->backup propagation — carries the originating
  // trace: the causal context survives the "network" hop.
  std::size_t checked = 0;
  for (const TraceEvent& e : events) {
    if (e.kind != TraceEventKind::ReplicaPropagate &&
        e.kind != TraceEventKind::MsgRetried &&
        e.kind != TraceEventKind::MsgDeduped) {
      continue;
    }
    ++checked;
    EXPECT_NE(e.trace_id, 0u) << obs::to_string(e.kind) << " seq " << e.seq;
    EXPECT_NE(e.span_id, 0u) << obs::to_string(e.kind) << " seq " << e.seq;
    EXPECT_EQ(span_traces.count(e.trace_id), 1u)
        << obs::to_string(e.kind) << " seq " << e.seq
        << " carries a trace id no span opened";
  }
  EXPECT_GT(checked, 0u);
}

TEST(SpanPropagation, TracingInvariantUnderGrayFaults) {
  const auto run = [](bool observability) {
    RandomPlanOptions popt;
    popt.nodes = {NodeId{0}, NodeId{1}, NodeId{2}};
    popt.events = 6;
    popt.horizon = sim_ms(80);

    ClusterConfig cfg;
    cfg.nodes = 3;
    cfg.observability = observability;
    Cluster cluster(cfg);
    EvalApp::define_classes(cluster.classes());
    EvalApp::register_constraints(cluster.constraints());
    FaultEngine engine(cluster.sim().network(), random_gray_plan(4242, popt));
    cluster.adopt_fault_engine(engine);

    const auto ids = EvalApp::create_entities(cluster.node(0), 3);
    const Value payload{std::string{"x"}};
    for (int i = 0; i < 40; ++i) {
      engine.poll();
      try {
        EvalApp::run_op(cluster.node(i % 3), ids[i % ids.size()], "setValue",
                        {payload});
      } catch (const std::exception&) {
        // Crashed node or rejected threat: identical on both runs.
      }
    }
    while (!engine.done()) engine.advance_to(engine.next_at());
    cluster.inject(fault::Heal{});
    cluster.reconcile();
    return cluster.runtime().now();
  };
  // Gray faults, retries and backup applies traced or not: the simulated
  // clock lands on the same stamp.
  EXPECT_EQ(run(false), run(true));
}

TEST(TraceDisabled, DisabledClusterRecordsNothing) {
  ClusterConfig cfg;
  cfg.nodes = 3;
  Cluster cluster(cfg);
  EvalApp::define_classes(cluster.classes());
  EvalApp::register_constraints(cluster.constraints());
  const auto ids = EvalApp::create_entities(cluster.node(0), 1);
  EvalApp::run_op(cluster.node(0), ids[0], "emptySatisfied");

  EXPECT_FALSE(cluster.obs().enabled());
  EXPECT_EQ(cluster.obs().trace().size(), 0u);
  EXPECT_TRUE(cluster.obs().latencies().empty());
}

TEST(TraceDisabled, TracingDoesNotChangeSimulatedTime) {
  const auto run = [](bool observability) {
    ClusterConfig cfg;
    cfg.nodes = 3;
    cfg.observability = observability;
    Cluster cluster(cfg);
    EvalApp::define_classes(cluster.classes());
    EvalApp::register_constraints(cluster.constraints());
    const auto ids = EvalApp::create_entities(cluster.node(0), 3);
    for (int i = 0; i < 5; ++i) {
      EvalApp::run_op(cluster.node(0), ids[i % ids.size()], "setValue",
                      {Value{std::string{"x"}}});
    }
    cluster.inject(fault::split_indices({{0, 1}, {2}}));
    EvalApp::run_op_negotiated(cluster.node(0), ids[0], "emptyThreat",
                               std::make_shared<AcceptAllNegotiation>());
    cluster.inject(fault::Heal{});
    cluster.reconcile();
    return cluster.runtime().now();
  };
  // Deterministic simulation: recording costs zero simulated time.
  EXPECT_EQ(run(false), run(true));
}

// The invocation path builds span and event names only while tracing is
// on.  A seeded booking mix (healthy calls, refused and accepted degraded
// sells, heal, reconcile) must leave the same simulated clock, the same
// outcome of every call and the same replica states with tracing on and
// off.
TEST(TraceDisabled, TracingDoesNotChangeOutcomesOfSeededBookingRun) {
  const auto run = [](bool observability) {
    ClusterConfig cfg;
    cfg.nodes = 3;
    cfg.observability = observability;
    Cluster cluster(cfg);
    FlightBooking::define_classes(cluster.classes());
    FlightBooking::register_constraints(cluster.constraints());
    FlightBooking::register_method_contracts(cluster.constraints());
    std::vector<ObjectId> flights;
    for (int i = 0; i < 4; ++i) {
      flights.push_back(FlightBooking::create_flight(
          cluster.node(static_cast<std::size_t>(i) % 3), 6));
    }
    std::vector<std::string> log;
    Rng rng(77);
    const auto phase = [&](int calls) {
      for (int i = 0; i < calls; ++i) {
        DedisysNode& node = cluster.node(rng.below(3));
        const ObjectId flight = flights[rng.below(flights.size())];
        std::string row = to_string(flight);
        try {
          if (rng.below(3) == 0) {
            row += " sold=";
            row += std::to_string(FlightBooking::sold(node, flight));
          } else {
            FlightBooking::sell(node, flight, rng.between(1, 2));
            row += " sell ok";
          }
        } catch (const DedisysError& e) {
          row += " refused: ";
          row += e.what();
        }
        row += " @";
        row += std::to_string(cluster.runtime().now());
        log.push_back(row);
      }
    };
    phase(20);
    cluster.inject(fault::split_indices({{0, 1}, {2}}));
    phase(30);
    cluster.inject(fault::Heal{});
    const auto report = cluster.reconcile();
    log.push_back("reconciled " +
                  std::to_string(report.constraints.reevaluated));
    for (std::size_t n = 0; n < cluster.size(); ++n) {
      for (ObjectId flight : flights) {
        log.push_back(to_string(flight) + "@" + std::to_string(n) + " " +
                      std::to_string(as_int(cluster.node(n)
                                                .replication()
                                                .local_replica(flight)
                                                .get("soldTickets"))));
      }
    }
    log.push_back("clock " + std::to_string(cluster.runtime().now()));
    return log;
  };
  const std::vector<std::string> untraced = run(false);
  EXPECT_EQ(untraced, run(true));
  // The mix really reached both verdicts.
  EXPECT_TRUE(std::any_of(untraced.begin(), untraced.end(),
                          [](const std::string& r) {
                            return r.find("refused") != std::string::npos;
                          }));
  EXPECT_TRUE(std::any_of(untraced.begin(), untraced.end(),
                          [](const std::string& r) {
                            return r.find("sell ok") != std::string::npos;
                          }));
}

}  // namespace
}  // namespace dedisys
