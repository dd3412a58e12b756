// Static analysis of OCL constraints (PR 3): read-set extraction,
// constant folding, locality classification, descriptor diagnostics and
// the read-set pruning equivalence property.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "analysis/abstract_interp.h"
#include "analysis/analyzer.h"
#include "analysis/domain.h"
#include "analysis/report.h"
#include "constraints/constraint.h"
#include "constraints/ocl_constraint.h"
#include "constraints/repository.h"
#include "constraints/threats.h"
#include "middleware/admin.h"
#include "middleware/cluster.h"
#include "middleware/metrics.h"
#include "obs/json.h"
#include "ocl/ocl.h"

namespace dedisys {
namespace {

using analysis::AnalysisReport;
using analysis::Box;
using analysis::ConfigAnalysis;
using analysis::Diagnostic;
using analysis::Interval;
using analysis::Locality;
using analysis::Triviality;
using analysis::Verdict;

bool has_error_containing(const AnalysisReport& report,
                          const std::string& needle) {
  for (const Diagnostic& d : report.diagnostics) {
    if (d.severity == Diagnostic::Severity::Error &&
        d.message.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

// -- expression-level analysis ----------------------------------------------

TEST(Analysis, ReadSetExtraction) {
  const AnalysisReport r =
      analysis::analyze_expression(parse_ocl("self.a + arg0 > self.b * 2"));
  EXPECT_FALSE(r.opaque);
  EXPECT_EQ(r.read_set.attributes, (std::set<std::string>{"a", "b"}));
  EXPECT_EQ(r.read_set.arguments, (std::set<std::size_t>{0}));
  EXPECT_EQ(r.triviality, Triviality::None);
  // arg-reading invariants depend on the invocation itself: never pruned.
  EXPECT_FALSE(r.prunable);
}

TEST(Analysis, AttributeOnlyReadSetIsPrunable) {
  const AnalysisReport r =
      analysis::analyze_expression(parse_ocl("self.x >= 0"));
  EXPECT_EQ(r.read_set.attributes, (std::set<std::string>{"x"}));
  EXPECT_TRUE(r.read_set.arguments.empty());
  EXPECT_TRUE(r.prunable);
  EXPECT_TRUE(r.diagnostics.empty());
}

TEST(Analysis, ConstantFoldingAlwaysTrue) {
  const AnalysisReport r = analysis::analyze_expression(parse_ocl("1 <= 2"));
  EXPECT_EQ(r.triviality, Triviality::AlwaysTrue);
  EXPECT_TRUE(r.prunable);
  EXPECT_FALSE(r.has_errors());  // warning only
  ASSERT_EQ(r.diagnostics.size(), 1u);
  EXPECT_EQ(r.diagnostics[0].severity, Diagnostic::Severity::Warning);
}

TEST(Analysis, ConstantFoldingAlwaysFalse) {
  const AnalysisReport r = analysis::analyze_expression(parse_ocl("1 > 2"));
  EXPECT_EQ(r.triviality, Triviality::AlwaysFalse);
  EXPECT_FALSE(r.prunable);
  EXPECT_TRUE(has_error_containing(r, "always false"));
}

TEST(Analysis, FoldingThroughNot) {
  const AnalysisReport r =
      analysis::analyze_expression(parse_ocl("not (1 > 2)"));
  EXPECT_EQ(r.triviality, Triviality::AlwaysTrue);
}

TEST(Analysis, DeadCodeAbsorbingAnd) {
  const AnalysisReport r =
      analysis::analyze_expression(parse_ocl("self.x >= 0 and false"));
  EXPECT_TRUE(r.has_dead_code);
  EXPECT_EQ(r.triviality, Triviality::AlwaysFalse);
  EXPECT_FALSE(r.prunable);
}

TEST(Analysis, DeadCodeAbsorbingOr) {
  const AnalysisReport r =
      analysis::analyze_expression(parse_ocl("true or self.x > 0"));
  EXPECT_TRUE(r.has_dead_code);
  EXPECT_EQ(r.triviality, Triviality::AlwaysTrue);
  EXPECT_TRUE(r.prunable);
}

TEST(Analysis, NonAbsorbingLogicIsNotDeadCode) {
  const AnalysisReport r =
      analysis::analyze_expression(parse_ocl("self.x >= 0 and true"));
  EXPECT_FALSE(r.has_dead_code);
  EXPECT_EQ(r.triviality, Triviality::None);
}

TEST(Analysis, DivisionByConstantZero) {
  const AnalysisReport r =
      analysis::analyze_expression(parse_ocl("self.x / 0 <= 1"));
  EXPECT_TRUE(has_error_containing(r, "division by zero"));
  EXPECT_FALSE(r.prunable);
}

TEST(Analysis, SetterAttributeMapping) {
  EXPECT_EQ(analysis::setter_attribute("setValue"), "value");
  EXPECT_EQ(analysis::setter_attribute("setSoldTickets"), "soldTickets");
  EXPECT_EQ(analysis::setter_attribute("setX"), "x");
  EXPECT_EQ(analysis::setter_attribute("set"), "");
  EXPECT_EQ(analysis::setter_attribute("getValue"), "");
  EXPECT_EQ(analysis::setter_attribute("settle"), "");
}

TEST(Analysis, OclApplySharedWithInterpreter) {
  const OclValue sum =
      ocl_apply(OclBinOp::Add, OclValue{2.0}, OclValue{3.0});
  EXPECT_DOUBLE_EQ(std::get<double>(sum), 5.0);
  const OclValue eq = ocl_apply(OclBinOp::Eq, OclValue{std::string{"a"}},
                                OclValue{std::string{"a"}});
  EXPECT_NE(std::get<double>(eq), 0.0);
  EXPECT_STREQ(to_string(OclBinOp::Implies), "implies");
}

// -- registration-level analysis --------------------------------------------

ConstraintRegistration make_reg(
    const std::string& name, const std::string& expr,
    const std::string& context_class,
    std::vector<AffectedMethod> methods) {
  ConstraintRegistration reg;
  reg.constraint = std::make_shared<OclConstraint>(
      name, ConstraintType::HardInvariant, ConstraintPriority::NonTradeable,
      expr);
  reg.context_class = context_class;
  reg.affected_methods = std::move(methods);
  return reg;
}

AffectedMethod setter(const std::string& cls, const std::string& name,
                      ContextPreparationKind kind =
                          ContextPreparationKind::CalledObject) {
  ContextPreparation prep;
  prep.kind = kind;
  if (kind == ContextPreparationKind::ReferenceGetter) {
    prep.getter = "getRef";
  }
  return AffectedMethod{cls, MethodSignature{name, {"int"}}, prep};
}

ClassRegistry flight_classes() {
  ClassRegistry classes;
  ClassDescriptor& flight = classes.define("Flight");
  flight.define_attribute("seats", Value{std::int64_t{100}});
  flight.define_attribute("soldTickets", Value{std::int64_t{0}});
  flight.define_attribute("status", Value{std::string{"open"}});
  return classes;
}

TEST(Analysis, UnknownAttributeDiagnostic) {
  const ClassRegistry classes = flight_classes();
  const ConstraintRegistration reg =
      make_reg("typo", "self.soldTickets <= self.seatz", "Flight",
               {setter("Flight", "setSoldTickets")});
  const AnalysisReport r = analysis::analyze_registration(reg, &classes);
  EXPECT_TRUE(has_error_containing(r, "seatz"));
  EXPECT_FALSE(r.prunable);
}

TEST(Analysis, UnknownContextClassOnlyWarns) {
  const ClassRegistry classes = flight_classes();
  const ConstraintRegistration reg =
      make_reg("ghost", "self.anything >= 0", "Cargo",
               {setter("Cargo", "setAnything")});
  const AnalysisReport r = analysis::analyze_registration(reg, &classes);
  EXPECT_FALSE(r.has_errors());
  ASSERT_FALSE(r.diagnostics.empty());
  EXPECT_NE(r.diagnostics[0].message.find("no class metadata"),
            std::string::npos);
  EXPECT_TRUE(r.prunable);  // no proven error, attribute-only read-set
}

TEST(Analysis, StringNumericComparisonDiagnostics) {
  const ClassRegistry classes = flight_classes();
  const AnalysisReport eq = analysis::analyze_registration(
      make_reg("kind_eq", "self.status = 1", "Flight",
               {setter("Flight", "setStatus")}),
      &classes);
  EXPECT_TRUE(has_error_containing(eq, "string and numeric"));

  const AnalysisReport arith = analysis::analyze_registration(
      make_reg("kind_arith", "self.status + 1 > 0", "Flight",
               {setter("Flight", "setStatus")}),
      &classes);
  EXPECT_TRUE(has_error_containing(arith, "string operand"));
}

TEST(Analysis, ArgumentOutOfRangeDiagnostic) {
  const ClassRegistry classes = flight_classes();
  const ConstraintRegistration reg =
      make_reg("argrange", "arg1 >= 0", "Flight",
               {setter("Flight", "setSeats")});
  const AnalysisReport r = analysis::analyze_registration(reg, &classes);
  EXPECT_TRUE(has_error_containing(r, "arg1 is out of range"));
}

TEST(Analysis, LocalityClassification) {
  const ClassRegistry classes = flight_classes();
  const AnalysisReport local = analysis::analyze_registration(
      make_reg("local", "self.seats >= 0", "Flight",
               {setter("Flight", "setSeats")}),
      &classes);
  EXPECT_EQ(local.locality, Locality::Local);

  const AnalysisReport cross = analysis::analyze_registration(
      make_reg("cross", "self.seats >= 0", "Flight",
               {setter("Flight", "setSeats"),
                setter("Booking", "setFlight",
                       ContextPreparationKind::ReferenceGetter)}),
      &classes);
  EXPECT_EQ(cross.locality, Locality::CrossObject);

  ConstraintRegistration fn;
  fn.constraint = std::make_shared<FunctionConstraint>(
      "opaque", ConstraintType::HardInvariant, ConstraintPriority::Tradeable,
      [](ConstraintValidationContext&) { return true; });
  const AnalysisReport opaque = analysis::analyze_registration(fn, &classes);
  EXPECT_TRUE(opaque.opaque);
  EXPECT_EQ(opaque.locality, Locality::Opaque);
  EXPECT_FALSE(opaque.prunable);
}

TEST(Analysis, RepositoryAnalysisAttachesReportsOnce) {
  ClassRegistry classes = flight_classes();
  ConstraintRepository repo;
  repo.register_constraint(make_reg("inv", "self.seats >= 0", "Flight",
                                    {setter("Flight", "setSeats")}));
  EXPECT_EQ(analysis::analyze_repository(repo, &classes), 1u);
  const ConstraintRegistration* reg = repo.registration("inv");
  ASSERT_NE(reg, nullptr);
  ASSERT_NE(reg->analysis, nullptr);
  EXPECT_TRUE(reg->analysis->prunable);
  // Structurally local constraints become intra-object (Section 3.1).
  EXPECT_TRUE(reg->constraint->intra_object());
  // Idempotent: already-analyzed registrations are left alone.
  EXPECT_EQ(analysis::analyze_repository(repo, &classes), 0u);
}

TEST(Analysis, LoadClassesXml) {
  ClassRegistry classes;
  const std::size_t n = analysis::load_classes_xml(
      "<classes>"
      "  <class name=\"Base\"><attribute name=\"id\" type=\"long\"/></class>"
      "  <class name=\"Derived\" super=\"Base\">"
      "    <attribute name=\"label\" type=\"string\"/>"
      "  </class>"
      "</classes>",
      classes);
  EXPECT_EQ(n, 2u);
  ASSERT_TRUE(classes.contains("Derived"));
  EXPECT_EQ(classes.get("Derived").super(), "Base");
  // Inherited attributes resolve through the ancestry walk.
  const ConstraintRegistration reg =
      make_reg("inherit", "self.id >= 0 and self.label = self.label",
               "Derived", {setter("Derived", "setLabel")});
  const AnalysisReport r = analysis::analyze_registration(reg, &classes);
  EXPECT_FALSE(r.has_errors());
}

TEST(Analysis, RenderDiagnosticsFormat) {
  AnalysisReport r;
  r.diagnostics.push_back(
      Diagnostic{Diagnostic::Severity::Error, "boom"});
  EXPECT_EQ(analysis::render_diagnostics("C1", r), "C1: error: boom\n");
}

// -- cluster wiring ----------------------------------------------------------

void define_wide_class(ClassRegistry& classes) {
  ClassDescriptor& wide = classes.define("Wide");
  for (int k = 0; k < 4; ++k) {
    std::string attr = "f";
    attr += std::to_string(k);
    wide.define_property(attr, Value{std::int64_t{0}}, "int");
  }
}

std::vector<AffectedMethod> all_wide_setters() {
  std::vector<AffectedMethod> out;
  out.reserve(4);
  for (int k = 0; k < 4; ++k) {
    out.push_back(setter("Wide", "setF" + std::to_string(k)));
  }
  return out;
}

void register_wide_constraints(ConstraintRepository& repo) {
  for (int k = 0; k < 4; ++k) {
    repo.register_constraint(
        make_reg("inv" + std::to_string(k),
                 "self.f" + std::to_string(k) + " >= 0", "Wide",
                 all_wide_setters()));
  }
  ConstraintRegistration triv = make_reg("triv", "1 <= 2", "Wide",
                                         all_wide_setters());
  repo.register_constraint(std::move(triv));
  ConstraintRegistration soft =
      make_reg("soft0", "self.f0 >= 0 - 1000", "Wide", all_wide_setters());
  soft.constraint = std::make_shared<OclConstraint>(
      "soft0", ConstraintType::SoftInvariant, ConstraintPriority::Tradeable,
      "self.f0 >= 0 - 1000");
  repo.register_constraint(std::move(soft));
}

/// Deterministic xorshift so the "randomized" workload is reproducible.
struct Rng {
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
  int below(int n) { return static_cast<int>(next() % n); }
};

std::string run_wide_workload(Cluster& cluster) {
  DedisysNode& node = cluster.node(0);
  std::vector<ObjectId> ids;
  for (int i = 0; i < 3; ++i) {
    TxScope tx(node.tx());
    ids.push_back(node.create(tx.id(), "Wide"));
    tx.commit();
  }
  Rng rng;
  std::string digest;
  for (int i = 0; i < 160; ++i) {
    const ObjectId target = ids[static_cast<std::size_t>(rng.below(3))];
    const int field = rng.below(4);
    // ~25% of writes are negative -> hard-invariant violations + rollback.
    const std::int64_t value = rng.below(16) - 4;
    try {
      TxScope tx(node.tx());
      node.invoke(tx.id(), target, "setF" + std::to_string(field),
                  {Value{value}});
      tx.commit();
      digest += "ok;";
    } catch (const DedisysError&) {
      digest += "viol;";
    }
  }
  // Final state must match too: pruning may not change any outcome.
  for (const ObjectId id : ids) {
    for (int k = 0; k < 4; ++k) {
      TxScope tx(node.tx());
      const Value v =
          node.invoke(tx.id(), id, "getF" + std::to_string(k), {});
      tx.commit();
      digest += std::to_string(std::get<std::int64_t>(v)) + ",";
    }
  }
  return digest;
}

/// Pinned equivalence property: read-set pruning must not change a single
/// invocation outcome or any final attribute value, while provably
/// skipping work.
TEST(Analysis, PruningEquivalentToExhaustiveValidation) {
  ClusterConfig cfg;
  cfg.nodes = 2;

  Cluster pruned(cfg);
  define_wide_class(pruned.classes());
  register_wide_constraints(pruned.constraints());
  analysis::analyze_repository(pruned.constraints(), &pruned.classes());
  ASSERT_TRUE(pruned.node(0).ccmgr().pruning());  // default on

  Cluster exhaustive(cfg);
  define_wide_class(exhaustive.classes());
  register_wide_constraints(exhaustive.constraints());
  analysis::analyze_repository(exhaustive.constraints(),
                               &exhaustive.classes());
  for (std::size_t n = 0; n < cfg.nodes; ++n) {
    exhaustive.node(n).ccmgr().set_pruning(false);
  }

  const std::string pruned_digest = run_wide_workload(pruned);
  const std::string exhaustive_digest = run_wide_workload(exhaustive);
  EXPECT_EQ(pruned_digest, exhaustive_digest);
  // The workload contains both outcomes, so the digest is discriminating.
  EXPECT_NE(pruned_digest.find("ok;"), std::string::npos);
  EXPECT_NE(pruned_digest.find("viol;"), std::string::npos);

  const auto& ps = pruned.node(0).ccmgr().stats();
  const auto& es = exhaustive.node(0).ccmgr().stats();
  EXPECT_GT(ps.evaluations_skipped, 0u);
  EXPECT_EQ(es.evaluations_skipped, 0u);
  EXPECT_LT(ps.validations, es.validations);
  EXPECT_EQ(ps.violations, es.violations);

  // The saved work is visible to operators through the metrics snapshot.
  const ClusterMetrics m = collect_metrics(pruned);
  EXPECT_EQ(m.nodes[0].evaluations_skipped, ps.evaluations_skipped);
}

TEST(Analysis, AdminDeployAnalyzesAndExportsReports) {
  ClusterConfig cfg;
  cfg.nodes = 1;
  Cluster cluster(cfg);
  ClassDescriptor& flight = cluster.classes().define("Flight");
  flight.define_property("seats", Value{std::int64_t{100}}, "int");
  flight.define_property("soldTickets", Value{std::int64_t{0}}, "int");

  AdminConsole admin(cluster);
  const std::size_t loaded = admin.deploy_constraints(
      "<constraints>"
      "  <constraint name=\"SeatLimit\" type=\"HARD\" priority=\"CRITICAL\">"
      "    <ocl>self.soldTickets &lt;= self.seats</ocl>"
      "    <context-class>Flight</context-class>"
      "    <affected-methods>"
      "      <affected-method>"
      "        <objectMethod name=\"setSoldTickets\">"
      "          <objectClass>Flight</objectClass>"
      "          <arguments><argument>int</argument></arguments>"
      "        </objectMethod>"
      "      </affected-method>"
      "    </affected-methods>"
      "  </constraint>"
      "</constraints>");
  EXPECT_EQ(loaded, 1u);

  const AnalysisReport* r = admin.analysis_report("SeatLimit");
  ASSERT_NE(r, nullptr);
  EXPECT_FALSE(r->opaque);
  EXPECT_EQ(r->locality, Locality::Local);
  EXPECT_TRUE(r->prunable);
  EXPECT_EQ(r->read_set.attributes,
            (std::set<std::string>{"seats", "soldTickets"}));
  EXPECT_EQ(admin.analysis_report("NoSuch"), nullptr);

  // The reports ride along in the JSON export for /metrics consumers.
  const obs::Json doc = obs::Json::parse(admin.metrics_json());
  const obs::Json& constraints = doc.at("constraints");
  ASSERT_EQ(constraints.size(), 1u);
  const obs::Json& entry = constraints.at(0);
  EXPECT_EQ(entry.at("name").as_string(), "SeatLimit");
  EXPECT_EQ(entry.at("analysis").at("locality").as_string(), "local");
  EXPECT_EQ(entry.at("analysis").at("prunable").as_bool(), true);
}

// -- abstract interpretation (PR 8) -----------------------------------------

bool has_warning_containing(const AnalysisReport& report,
                            const std::string& needle) {
  for (const Diagnostic& d : report.diagnostics) {
    if (d.severity == Diagnostic::Severity::Warning &&
        d.message.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Golden pins for the interval domain: lattice operations, arithmetic
/// transfer functions and their edge conventions.
TEST(AbstractInterp, IntervalLatticeGolden) {
  EXPECT_TRUE(Interval::top().is_top());
  EXPECT_TRUE(Interval::bottom().is_empty());
  EXPECT_TRUE(Interval::point(3).is_point());
  EXPECT_TRUE(Interval::at_least(0).contains(1e12));
  EXPECT_FALSE(Interval::at_most(0).contains(0.5));

  EXPECT_EQ(join(Interval::range(0, 2), Interval::range(5, 7)),
            Interval::range(0, 7));
  EXPECT_EQ(join(Interval::bottom(), Interval::point(4)), Interval::point(4));
  EXPECT_EQ(meet(Interval::range(0, 10), Interval::range(5, 20)),
            Interval::range(5, 10));
  EXPECT_TRUE(meet(Interval::range(0, 2), Interval::range(5, 7)).is_empty());

  // Widening: bounds that grew jump to infinity, stable bounds persist.
  const Interval w = widen(Interval::range(0, 4), Interval::range(-1, 4));
  EXPECT_EQ(w.lo, -kInf);
  EXPECT_EQ(w.hi, 4);
  EXPECT_EQ(widen(Interval::range(0, 4), Interval::range(0, 4)),
            Interval::range(0, 4));

  EXPECT_TRUE(Interval::range(1, 2).subset_of(Interval::range(0, 3)));
  EXPECT_FALSE(Interval::range(0, 3).subset_of(Interval::range(1, 2)));
  EXPECT_TRUE(Interval::bottom().subset_of(Interval::point(0)));
}

TEST(AbstractInterp, IntervalArithmeticGolden) {
  EXPECT_EQ(add(Interval::range(1, 2), Interval::range(10, 20)),
            Interval::range(11, 22));
  EXPECT_EQ(sub(Interval::range(1, 2), Interval::range(10, 20)),
            Interval::range(-19, -8));
  EXPECT_EQ(neg(Interval::range(-1, 5)), Interval::range(-5, 1));
  EXPECT_EQ(mul(Interval::range(-1, 2), Interval::range(3, 4)),
            Interval::range(-4, 8));
  // 0 * inf is 0 by the interval convention, not IEEE NaN.
  EXPECT_EQ(mul(Interval::point(0), Interval::top()), Interval::point(0));
  // Division by an interval containing zero loses all precision (top);
  // a sign-definite divisor keeps bounds.
  EXPECT_TRUE(div(Interval::point(1), Interval::range(-1, 1)).is_top());
  EXPECT_EQ(div(Interval::range(10, 20), Interval::range(2, 5)),
            Interval::range(2, 10));
  EXPECT_EQ(to_string(Interval::range(0, 1)), "[0, 1]");
  EXPECT_EQ(to_string(Interval::top()), "[-inf, +inf]");
  EXPECT_EQ(to_string(Interval::bottom()), "(empty)");
}

TEST(AbstractInterp, BoxesDisjointWitness) {
  const Box a{{"seats", Interval::at_least(10)}};
  const Box b{{"seats", Interval::at_most(5)}};
  const Box c{{"price", Interval::at_most(5)}};
  std::string witness;
  EXPECT_TRUE(analysis::boxes_disjoint(a, b, &witness));
  EXPECT_EQ(witness, "seats");
  // Different attributes never prove disjointness.
  EXPECT_FALSE(analysis::boxes_disjoint(a, c));
}

/// Classes with one bool attribute (interval [0, 1]), numeric attributes
/// (top) and a string attribute, for registration-level interpretation.
ClassRegistry typed_classes() {
  ClassRegistry classes;
  ClassDescriptor& flight = classes.define("Flight");
  flight.define_attribute("seats", Value{std::int64_t{100}});
  flight.define_attribute("price", Value{2.0});
  flight.define_attribute("status", Value{std::string{"open"}});
  flight.define_attribute("active", Value{false});
  return classes;
}

AnalysisReport interpret(const std::string& expr) {
  static const ClassRegistry classes = typed_classes();
  return analysis::analyze_registration(
      make_reg("c", expr, "Flight", {setter("Flight", "setSeats")}),
      &classes);
}

/// Exemplar classification table: the verdict the abstract interpreter
/// must reach for each expression shape, pinned as golden values.
TEST(AbstractInterp, ClassificationGolden) {
  // Bool attributes carry the derived interval [0, 1].
  EXPECT_EQ(interpret("self.active >= 0").verdict, Verdict::Tautology);
  EXPECT_EQ(interpret("self.active <= 1").verdict, Verdict::Tautology);
  EXPECT_EQ(interpret("self.active >= 0 and self.active <= 1").verdict,
            Verdict::Tautology);
  EXPECT_EQ(interpret("self.active > 1").verdict, Verdict::Unsatisfiable);
  EXPECT_EQ(interpret("self.active < 0").verdict, Verdict::Unsatisfiable);
  // Intervals propagate through arithmetic before the comparison decides.
  EXPECT_EQ(interpret("self.active * 2 <= 2").verdict, Verdict::Tautology);
  EXPECT_EQ(interpret("self.active - 1 <= 0").verdict, Verdict::Tautology);
  EXPECT_EQ(interpret("not (self.active > 1)").verdict, Verdict::Tautology);
  EXPECT_EQ(interpret("self.active >= 0 or self.seats > 0").verdict,
            Verdict::Tautology);
  EXPECT_EQ(interpret("self.active < 0 implies self.seats > 100").verdict,
            Verdict::Tautology);
  // Unbounded numeric attributes stay contingent...
  EXPECT_EQ(interpret("self.seats >= 0").verdict, Verdict::Contingent);
  EXPECT_EQ(interpret("self.seats + 1 > self.seats").verdict,
            Verdict::Contingent);
  EXPECT_EQ(interpret("self.status = \"open\"").verdict,
            Verdict::Contingent);
  // ...unless the constraint's own atoms make the satisfying box empty.
  EXPECT_EQ(interpret("self.seats >= 10 and self.seats <= 5").verdict,
            Verdict::Unsatisfiable);
  EXPECT_EQ(interpret("self.seats >= 5 and self.seats <= 10").verdict,
            Verdict::Contingent);
}

TEST(AbstractInterp, TautologyAndUnsatDiagnostics) {
  const AnalysisReport taut = interpret("self.active >= 0");
  EXPECT_TRUE(has_warning_containing(taut, "proven tautology"));
  EXPECT_FALSE(taut.has_errors());
  EXPECT_TRUE(taut.prunable);

  const AnalysisReport unsat = interpret("self.active > 1");
  EXPECT_TRUE(has_error_containing(unsat, "statically unsatisfiable"));
  EXPECT_FALSE(unsat.prunable);
}

TEST(AbstractInterp, RefinedWarnings) {
  // Divisor interval [0, 1] contains zero -> possible division by zero.
  EXPECT_TRUE(has_warning_containing(
      interpret("self.seats / self.active >= 0"),
      "possible division by zero"));
  // A branch decided by derived intervals (not by constant folding) is
  // flagged as dead.
  const AnalysisReport dead =
      interpret("self.active >= 0 or self.seats > 0");
  EXPECT_TRUE(has_warning_containing(dead, "dead branch"));
  EXPECT_TRUE(dead.has_dead_code);
  // A statically-false implication guard makes the constraint vacuous.
  EXPECT_TRUE(has_warning_containing(
      interpret("self.active < 0 implies self.seats > 100"),
      "vacuously true"));
  // Plain contingent constraints stay clean.
  EXPECT_TRUE(interpret("self.seats >= 0").diagnostics.empty());
}

TEST(AbstractInterp, SatisfactionBoxes) {
  const AnalysisReport band = interpret("self.seats >= 5 and self.seats <= 10");
  ASSERT_EQ(band.sat_box.count("seats"), 1u);
  EXPECT_EQ(band.sat_box.at("seats"), Interval::range(5, 10));
  EXPECT_TRUE(band.sat_box_exact);

  const AnalysisReport point = interpret("self.seats = 7");
  ASSERT_EQ(point.sat_box.count("seats"), 1u);
  EXPECT_EQ(point.sat_box.at("seats"), Interval::point(7));
  EXPECT_TRUE(point.sat_box_exact);

  // Strict bounds keep the closed over-approximation but lose exactness.
  const AnalysisReport strict = interpret("self.seats > 5");
  ASSERT_EQ(strict.sat_box.count("seats"), 1u);
  EXPECT_FALSE(strict.sat_box_exact);

  // Disjunctions only keep what both arms agree on, never exactly.
  const AnalysisReport disj =
      interpret("self.seats <= 2 or self.seats >= 8");
  EXPECT_FALSE(disj.sat_box_exact);
}

/// Pinned regression (PR 8 satellite): a comparison mixing a *folded*
/// numeric constant with a string-kind attribute must hit the same
/// kind-mismatch diagnostic a literal numeric operand does.
TEST(AbstractInterp, FoldedConstantVsStringKindRegression) {
  const AnalysisReport r = analysis::analyze_expression(
      parse_ocl("self.status = \"open\" and self.status = 2 - 1"));
  EXPECT_TRUE(has_error_containing(r, "string and numeric"));

  // Registration-level with declared class metadata agrees.
  const ClassRegistry classes = typed_classes();
  const AnalysisReport reg = analysis::analyze_registration(
      make_reg("mix", "self.status = \"open\" and self.status = 2 - 1",
               "Flight", {setter("Flight", "setStatus")}),
      &classes);
  EXPECT_TRUE(has_error_containing(reg, "string and numeric"));
}

// -- whole-configuration analysis -------------------------------------------

ConstraintRepository conflicting_repo() {
  ConstraintRepository repo;
  repo.register_constraint(make_reg("a_min", "self.seats >= 10", "Flight",
                                    {setter("Flight", "setSeats")}));
  repo.register_constraint(make_reg("a_max", "self.seats <= 5", "Flight",
                                    {setter("Flight", "setSeats")}));
  repo.register_constraint(make_reg("p_strong", "self.price >= 10", "Flight",
                                    {setter("Flight", "setPrice")}));
  repo.register_constraint(make_reg("p_weak", "self.price >= 5", "Flight",
                                    {setter("Flight", "setPrice")}));
  repo.register_constraint(make_reg("solo", "self.soldTickets >= 0", "Flight",
                                    {setter("Flight", "setSoldTickets")}));
  return repo;
}

TEST(ConfigAnalysisTest, ConflictSubsumptionAndInterference) {
  const ClassRegistry classes = typed_classes();
  ConstraintRepository repo = conflicting_repo();
  EXPECT_EQ(repo.config_analysis(), nullptr);  // not analyzed yet
  analysis::analyze_repository(repo, &classes);
  const ConfigAnalysis* cfg = repo.config_analysis();
  ASSERT_NE(cfg, nullptr);

  // Disjoint satisfaction sets on `seats` -> conflict with witness.
  ASSERT_EQ(cfg->conflicts.size(), 1u);
  EXPECT_EQ(cfg->conflicts[0].first, "a_min");
  EXPECT_EQ(cfg->conflicts[0].second, "a_max");
  EXPECT_EQ(cfg->conflicts[0].attribute, "seats");

  // price >= 10 implies price >= 5 -> the weaker invariant is redundant.
  ASSERT_EQ(cfg->subsumptions.size(), 1u);
  EXPECT_EQ(cfg->subsumptions[0].stronger, "p_strong");
  EXPECT_EQ(cfg->subsumptions[0].weaker, "p_weak");

  // Interference: shared read-set attributes within one context class.
  ASSERT_EQ(cfg->interference.size(), 2u);
  // Cluster keys are the lexicographically smallest member ("a_max" <
  // "a_min").
  EXPECT_EQ(cfg->cluster_of.at("a_min"), "a_max");
  EXPECT_EQ(cfg->cluster_of.at("a_max"), "a_max");
  EXPECT_EQ(cfg->cluster_of.at("p_strong"), "p_strong");
  EXPECT_EQ(cfg->cluster_of.at("p_weak"), "p_strong");
  EXPECT_EQ(cfg->cluster_of.at("solo"), "solo");
  EXPECT_EQ(cfg->clusters, 3u);

  EXPECT_EQ(cfg->tautologies, 0u);
  EXPECT_EQ(cfg->unsatisfiable, 0u);
  EXPECT_EQ(cfg->contingent, 5u);

  // Any repository mutation invalidates the configuration analysis.
  repo.remove("solo");
  EXPECT_EQ(repo.config_analysis(), nullptr);
}

constexpr const char* kMinSeatsXml =
    "<constraints>"
    "  <constraint name=\"MinSeats\" type=\"HARD\" priority=\"CRITICAL\">"
    "    <ocl>self.seats &gt;= 10</ocl>"
    "    <context-class>Flight</context-class>"
    "    <affected-methods><affected-method>"
    "      <objectMethod name=\"setSeats\">"
    "        <objectClass>Flight</objectClass>"
    "        <arguments><argument>int</argument></arguments>"
    "      </objectMethod>"
    "    </affected-method></affected-methods>"
    "  </constraint>"
    "</constraints>";

constexpr const char* kMaxSeatsXml =
    "<constraints>"
    "  <constraint name=\"MaxSeats\" type=\"HARD\" priority=\"CRITICAL\">"
    "    <ocl>self.seats &lt;= 5</ocl>"
    "    <context-class>Flight</context-class>"
    "    <affected-methods><affected-method>"
    "      <objectMethod name=\"setSeats\">"
    "        <objectClass>Flight</objectClass>"
    "        <arguments><argument>int</argument></arguments>"
    "      </objectMethod>"
    "    </affected-method></affected-methods>"
    "  </constraint>"
    "</constraints>";

constexpr const char* kImpossibleXml =
    "<constraints>"
    "  <constraint name=\"Impossible\" type=\"HARD\" priority=\"CRITICAL\">"
    "    <ocl>self.seats &gt;= 10 and self.seats &lt;= 5</ocl>"
    "    <context-class>Flight</context-class>"
    "    <affected-methods><affected-method>"
    "      <objectMethod name=\"setSeats\">"
    "        <objectClass>Flight</objectClass>"
    "        <arguments><argument>int</argument></arguments>"
    "      </objectMethod>"
    "    </affected-method></affected-methods>"
    "  </constraint>"
    "</constraints>";

Cluster& define_flight_class(Cluster& cluster) {
  ClassDescriptor& flight = cluster.classes().define("Flight");
  flight.define_property("seats", Value{std::int64_t{100}}, "int");
  return cluster;
}

TEST(ConfigAnalysisTest, DeployRejectsUnsatisfiableInvariant) {
  ClusterConfig cfg;
  cfg.nodes = 1;
  Cluster cluster(cfg);
  define_flight_class(cluster);
  AdminConsole admin(cluster);
  try {
    admin.deploy_constraints(kImpossibleXml);
    FAIL() << "unsatisfiable invariant must be rejected at deploy time";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("Impossible"), std::string::npos) << what;
    EXPECT_NE(what.find("statically unsatisfiable"), std::string::npos)
        << what;
  }
  // The failed batch was rolled back completely.
  EXPECT_EQ(admin.analysis_report("Impossible"), nullptr);
  EXPECT_TRUE(cluster.constraints().registrations().empty());
}

TEST(ConfigAnalysisTest, DeployRejectsConflictingPairNamingBoth) {
  ClusterConfig cfg;
  cfg.nodes = 1;
  Cluster cluster(cfg);
  define_flight_class(cluster);
  AdminConsole admin(cluster);
  EXPECT_EQ(admin.deploy_constraints(kMinSeatsXml), 1u);
  try {
    admin.deploy_constraints(kMaxSeatsXml);
    FAIL() << "conflicting invariant pair must be rejected at deploy time";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("MinSeats"), std::string::npos) << what;
    EXPECT_NE(what.find("MaxSeats"), std::string::npos) << what;
    EXPECT_NE(what.find("seats"), std::string::npos) << what;
  }
  // The pre-existing deployment survives, the new constraint is gone and
  // the configuration analysis was rebuilt for the surviving set.
  EXPECT_NE(admin.analysis_report("MinSeats"), nullptr);
  EXPECT_EQ(admin.analysis_report("MaxSeats"), nullptr);
  const ConfigAnalysis* restored = cluster.constraints().config_analysis();
  ASSERT_NE(restored, nullptr);
  EXPECT_TRUE(restored->conflicts.empty());

  // The configuration summary rides along in the metrics export.
  const obs::Json doc = obs::Json::parse(admin.metrics_json());
  const obs::Json& an = doc.at("analysis");
  EXPECT_EQ(an.at("verdicts").at("contingent").as_int(), 1);
  EXPECT_EQ(an.at("conflicts").size(), 0u);
}

// -- runtime wiring: proven tautologies and the reconciliation scheduler ----

TEST(ConfigAnalysisTest, ProvenTautologySkipsValidationWithTrace) {
  ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.flags.observability = true;
  Cluster cluster(cfg);
  ClassDescriptor& flight = cluster.classes().define("Flight");
  flight.define_property("active", Value{false}, "bool");
  flight.define_property("seats", Value{std::int64_t{0}}, "int");

  ConstraintRegistration taut;
  taut.constraint = std::make_shared<OclConstraint>(
      "ActiveIsBool", ConstraintType::HardInvariant,
      ConstraintPriority::NonTradeable,
      "self.active >= 0 and self.active <= 1");
  taut.context_class = "Flight";
  taut.affected_methods = {AffectedMethod{
      "Flight", MethodSignature{"setActive", {"bool"}},
      ContextPreparation{}}};
  cluster.constraints().register_constraint(std::move(taut));
  cluster.constraints().register_constraint(
      make_reg("SeatsNonNegative", "self.seats >= 0", "Flight",
               {setter("Flight", "setSeats")}));
  analysis::analyze_repository(cluster.constraints(), &cluster.classes());

  const ConstraintRegistration* reg =
      cluster.constraints().registration("ActiveIsBool");
  ASSERT_NE(reg, nullptr);
  ASSERT_NE(reg->analysis, nullptr);
  EXPECT_EQ(reg->analysis->verdict, Verdict::Tautology);

  DedisysNode& node = cluster.node(0);
  ObjectId id;
  {
    TxScope tx(node.tx());
    id = node.create(tx.id(), "Flight");
    tx.commit();
  }
  {
    TxScope tx(node.tx());
    node.invoke(tx.id(), id, "setActive", {Value{true}});
    tx.commit();
  }
  {
    TxScope tx(node.tx());
    node.invoke(tx.id(), id, "setSeats", {Value{std::int64_t{5}}});
    tx.commit();
  }

  const auto& stats = node.ccmgr().stats();
  EXPECT_GT(stats.evaluations_proven, 0u);
  // The contingent invariant still validated normally.
  EXPECT_GT(stats.validations, 0u);

  const auto proven = cluster.obs().trace().events_of(
      obs::TraceEventKind::ValidationProven);
  ASSERT_FALSE(proven.empty());
  EXPECT_EQ(proven[0].label, "ActiveIsBool");
  EXPECT_EQ(proven[0].detail, "proven tautology");

  const ClusterMetrics m = collect_metrics(cluster);
  EXPECT_EQ(m.nodes[0].evaluations_proven, stats.evaluations_proven);
}

void register_interfering_invariants(ConstraintRepository& repo) {
  repo.register_constraint(
      make_reg("a_pair", "self.f0 >= 0 and self.f1 >= 0", "Wide",
               {setter("Wide", "setF0"), setter("Wide", "setF1")}));
  repo.register_constraint(
      make_reg("z_pair", "self.f1 >= 0 and self.f2 >= 0", "Wide",
               {setter("Wide", "setF1"), setter("Wide", "setF2")}));
  repo.register_constraint(make_reg("m_solo", "self.f3 >= 0", "Wide",
                                    {setter("Wide", "setF3")}));
}

std::vector<std::string> reconcile_order(bool scheduler,
                                         std::size_t* scheduled) {
  ClusterConfig cfg;
  cfg.nodes = 1;
  cfg.flags.observability = true;
  Cluster cluster(cfg);
  define_wide_class(cluster.classes());
  register_interfering_invariants(cluster.constraints());
  analysis::analyze_repository(cluster.constraints(), &cluster.classes());

  DedisysNode& node = cluster.node(0);
  node.ccmgr().set_scheduling(scheduler);
  ObjectId id;
  {
    TxScope tx(node.tx());
    id = node.create(tx.id(), "Wide");
    tx.commit();
  }
  for (const char* name : {"a_pair", "z_pair", "m_solo"}) {
    ConsistencyThreat t;
    t.constraint_name = name;
    t.context_object = id;
    t.degree = SatisfactionDegree::Uncheckable;
    cluster.threats().store(t);
  }

  const auto stats = node.ccmgr().reconcile(nullptr);
  EXPECT_EQ(stats.reevaluated, 3u);
  EXPECT_EQ(stats.removed_satisfied, 3u);
  EXPECT_EQ(cluster.threats().identity_count(), 0u);
  if (scheduled != nullptr) *scheduled = stats.scheduled;

  std::vector<std::string> order;
  for (const obs::TraceEvent& e : cluster.obs().trace().events_of(
           obs::TraceEventKind::ThreatReconciled)) {
    order.push_back(e.label);
  }
  return order;
}

/// The interference-aware scheduler reorders the reconciliation batch by
/// cluster (a_pair and z_pair share f1) without changing any outcome;
/// with the scheduler off the legacy identity order is untouched.
TEST(ConfigAnalysisTest, SchedulerGroupsInterferingThreats) {
  std::size_t scheduled_on = 0;
  std::size_t scheduled_off = 0;
  const std::vector<std::string> on = reconcile_order(true, &scheduled_on);
  const std::vector<std::string> off = reconcile_order(false, &scheduled_off);
  EXPECT_EQ(on, (std::vector<std::string>{"a_pair", "z_pair", "m_solo"}));
  EXPECT_EQ(off, (std::vector<std::string>{"a_pair", "m_solo", "z_pair"}));
  EXPECT_EQ(scheduled_on, 3u);
  EXPECT_EQ(scheduled_off, 0u);
}

}  // namespace
}  // namespace dedisys
