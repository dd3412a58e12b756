#include <gtest/gtest.h>

#include "constraints/config.h"
#include "constraints/negotiation.h"
#include "constraints/repository.h"
#include "constraints/satisfaction.h"
#include "constraints/threats.h"
#include "runtime/sim_runtime.h"

namespace dedisys {
namespace {

// ---------------------------------------------------------------------------
// Satisfaction degrees (Section 3.1)
// ---------------------------------------------------------------------------

constexpr SatisfactionDegree kAll[] = {
    SatisfactionDegree::Violated, SatisfactionDegree::Uncheckable,
    SatisfactionDegree::PossiblyViolated,
    SatisfactionDegree::PossiblySatisfied, SatisfactionDegree::Satisfied};

TEST(Satisfaction, ThreatClassification) {
  EXPECT_FALSE(is_threat(SatisfactionDegree::Satisfied));
  EXPECT_FALSE(is_threat(SatisfactionDegree::Violated));
  EXPECT_TRUE(is_threat(SatisfactionDegree::Uncheckable));
  EXPECT_TRUE(is_threat(SatisfactionDegree::PossiblyViolated));
  EXPECT_TRUE(is_threat(SatisfactionDegree::PossiblySatisfied));
}

TEST(Satisfaction, StringRoundTrip) {
  for (SatisfactionDegree d : kAll) {
    EXPECT_EQ(degree_from_string(to_string(d)), d);
  }
  EXPECT_THROW((void)degree_from_string("nonsense"), ConfigError);
}

/// Property sweep: combine() over every ordered pair follows the rules of
/// Section 3.1 exactly (minimum under the total order).
class CombineProperty
    : public ::testing::TestWithParam<
          std::tuple<SatisfactionDegree, SatisfactionDegree>> {};

TEST_P(CombineProperty, MatchesSectionThreeRules) {
  const auto [a, b] = GetParam();
  const SatisfactionDegree c = combine(a, b);
  // Commutative.
  EXPECT_EQ(c, combine(b, a));
  // Idempotent on equal inputs.
  EXPECT_EQ(combine(a, a), a);
  // Never better than either input, and equal to one of them.
  EXPECT_TRUE(c == a || c == b);
  EXPECT_FALSE(at_least(c, SatisfactionDegree::Satisfied) &&
               (a != SatisfactionDegree::Satisfied ||
                b != SatisfactionDegree::Satisfied));
  // Violated dominates everything.
  if (a == SatisfactionDegree::Violated || b == SatisfactionDegree::Violated) {
    EXPECT_EQ(c, SatisfactionDegree::Violated);
  }
  // Satisfied is the identity.
  if (a == SatisfactionDegree::Satisfied) {
    EXPECT_EQ(c, b);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, CombineProperty,
    ::testing::Combine(::testing::ValuesIn(kAll), ::testing::ValuesIn(kAll)));

// ---------------------------------------------------------------------------
// Repository
// ---------------------------------------------------------------------------

ConstraintPtr make_constraint(const std::string& name,
                              ConstraintType type = ConstraintType::HardInvariant) {
  return std::make_shared<FunctionConstraint>(
      name, type, ConstraintPriority::Tradeable,
      [](ConstraintValidationContext&) { return true; });
}

ConstraintRegistration registration(const std::string& name,
                                    const std::string& cls,
                                    const std::string& method,
                                    ConstraintType type =
                                        ConstraintType::HardInvariant) {
  ConstraintRegistration reg;
  reg.constraint = make_constraint(name, type);
  reg.affected_methods.push_back(AffectedMethod{
      cls, MethodSignature{method, {}},
      ContextPreparation{ContextPreparationKind::CalledObject, ""}});
  return reg;
}

class RepositoryTest : public ::testing::Test {
 protected:
  ConstraintRepository repo_;
};

TEST_F(RepositoryTest, LookupFindsAffectedConstraints) {
  repo_.register_constraint(registration("C1", "A", "m"));
  repo_.register_constraint(registration("C2", "A", "m"));
  repo_.register_constraint(registration("C3", "A", "other"));
  repo_.register_constraint(registration("C4", "B", "m"));
  const auto& matches =
      repo_.lookup("A", MethodSignature{"m", {}}, ConstraintType::HardInvariant);
  EXPECT_EQ(matches.size(), 2u);
}

TEST_F(RepositoryTest, LookupFiltersByType) {
  repo_.register_constraint(
      registration("Pre", "A", "m", ConstraintType::Precondition));
  repo_.register_constraint(
      registration("Hard", "A", "m", ConstraintType::HardInvariant));
  EXPECT_EQ(repo_.lookup("A", {"m", {}}, ConstraintType::Precondition).size(),
            1u);
  EXPECT_EQ(repo_.lookup("A", {"m", {}}, ConstraintType::SoftInvariant).size(),
            0u);
}

TEST_F(RepositoryTest, DuplicateNamesRejected) {
  repo_.register_constraint(registration("C1", "A", "m"));
  EXPECT_THROW(repo_.register_constraint(registration("C1", "B", "n")),
               ConfigError);
}

TEST_F(RepositoryTest, RuntimeDisableAndRemove) {
  repo_.register_constraint(registration("C1", "A", "m"));
  EXPECT_EQ(repo_.lookup("A", {"m", {}}, ConstraintType::HardInvariant).size(),
            1u);
  repo_.set_enabled("C1", false);
  EXPECT_EQ(repo_.lookup("A", {"m", {}}, ConstraintType::HardInvariant).size(),
            0u);
  repo_.set_enabled("C1", true);
  EXPECT_EQ(repo_.lookup("A", {"m", {}}, ConstraintType::HardInvariant).size(),
            1u);
  repo_.remove("C1");
  EXPECT_EQ(repo_.lookup("A", {"m", {}}, ConstraintType::HardInvariant).size(),
            0u);
  EXPECT_THROW(repo_.remove("C1"), ConfigError);
}

TEST_F(RepositoryTest, CachedAndNaiveSearchAgree) {
  for (int i = 0; i < 20; ++i) {
    std::string name = "C";
    name += std::to_string(i);
    repo_.register_constraint(
        registration(name, i % 2 == 0 ? "A" : "B", "m"));
  }
  repo_.set_caching(true);
  const auto cached =
      repo_.lookup("A", {"m", {}}, ConstraintType::HardInvariant);
  repo_.set_caching(false);
  const auto naive = repo_.lookup("A", {"m", {}}, ConstraintType::HardInvariant);
  ASSERT_EQ(cached.size(), naive.size());
  for (std::size_t i = 0; i < cached.size(); ++i) {
    EXPECT_EQ(cached[i].constraint, naive[i].constraint);
  }
}

TEST_F(RepositoryTest, CacheInvalidatedOnMutation) {
  repo_.register_constraint(registration("C1", "A", "m"));
  repo_.set_caching(true);
  (void)repo_.lookup("A", {"m", {}}, ConstraintType::HardInvariant);
  repo_.register_constraint(registration("C2", "A", "m"));
  EXPECT_EQ(repo_.lookup("A", {"m", {}}, ConstraintType::HardInvariant).size(),
            2u);
}

TEST_F(RepositoryTest, SearchCountTracksQueries) {
  repo_.register_constraint(registration("C1", "A", "m"));
  const std::size_t before = repo_.search_count();
  (void)repo_.lookup("A", {"m", {}}, ConstraintType::HardInvariant);
  (void)repo_.lookup("A", {"m", {}}, ConstraintType::Precondition);
  EXPECT_EQ(repo_.search_count(), before + 2);
}

/// Deterministic xorshift so the random reconfiguration is reproducible.
struct XorShift {
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }
};

/// One lookup result in a form comparable across two repositories.
std::vector<std::string> describe(
    const std::vector<ConstraintRepository::Match>& matches) {
  std::vector<std::string> out;
  for (const auto& m : matches) {
    std::string row = m.constraint->name();
    row += '/';
    row += m.preparation->getter;
    row += m.analysis != nullptr ? "/analyzed" : "/-";
    out.push_back(row);
  }
  return out;
}

// The warm query table must answer exactly like the naive scan through
// any sequence of runtime reconfiguration: a seeded random mix of
// registrations, removals, enable/disable, analysis attachment and caching
// toggles, with every key queried (twice, so warm entries are hit) after
// each step.  A table entry kept across a change that should have dropped
// it shows as a difference (or, for a removed constraint, a dangling
// pointer the sanitizer build reports).
TEST(RepositoryTable, AgreesWithNaiveScanUnderRandomReconfiguration) {
  const std::vector<std::string> classes = {"A", "B", "Z"};
  const std::vector<MethodSignature> methods = {
      {"m", {}}, {"m", {"int"}}, {"n", {}}};
  const std::vector<ConstraintType> types = {
      ConstraintType::Precondition, ConstraintType::Postcondition,
      ConstraintType::HardInvariant, ConstraintType::SoftInvariant,
      ConstraintType::AsyncInvariant};
  const auto report = std::make_shared<const analysis::AnalysisReport>();

  ConstraintRepository table;  // caching toggled at random
  ConstraintRepository naive;  // caching always off
  naive.set_caching(false);
  bool caching = true;
  std::vector<std::string> live;
  int next_id = 0;
  std::size_t lookups_while_caching = 0;
  XorShift rng;

  for (int step = 0; step < 400; ++step) {
    const std::size_t op = live.empty() ? 0 : rng.below(5);
    if (op == 0) {
      std::string name = "C";
      name += std::to_string(next_id++);
      const ConstraintType type = types[rng.below(types.size())];
      std::vector<AffectedMethod> affected;
      for (std::size_t k = 0, n = 1 + rng.below(2); k < n; ++k) {
        ContextPreparation prep;
        if (rng.below(2) == 0) {
          prep = {ContextPreparationKind::ReferenceGetter, "getOwner"};
        }
        affected.push_back(AffectedMethod{classes[rng.below(classes.size())],
                                          methods[rng.below(methods.size())],
                                          prep});
      }
      for (ConstraintRepository* repo : {&table, &naive}) {
        ConstraintRegistration reg;
        reg.constraint = make_constraint(name, type);
        reg.affected_methods = affected;
        repo->register_constraint(std::move(reg));
      }
      live.push_back(name);
    } else if (op == 1) {
      const std::size_t i = rng.below(live.size());
      table.remove(live[i]);
      naive.remove(live[i]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (op == 2) {
      const std::string& name = live[rng.below(live.size())];
      const bool on = rng.below(3) != 0;
      table.set_enabled(name, on);
      naive.set_enabled(name, on);
    } else if (op == 3) {
      const std::string& name = live[rng.below(live.size())];
      const auto attached = rng.below(2) == 0 ? report : nullptr;
      table.set_analysis(name, attached);
      naive.set_analysis(name, attached);
    } else {
      caching = rng.below(4) != 0;
      table.set_caching(caching);
    }

    for (const std::string& cls : classes) {
      for (const MethodSignature& method : methods) {
        for (ConstraintType type : types) {
          const auto expected = describe(naive.lookup(cls, method, type));
          for (int round = 0; round < 2; ++round) {
            ASSERT_EQ(describe(table.lookup(cls, method, type)), expected)
                << "step " << step << " op " << op << " key " << cls << '#'
                << method.key() << '#' << static_cast<int>(type);
            if (caching) ++lookups_while_caching;
          }
        }
      }
    }
  }
  EXPECT_EQ(table.search_count(), naive.search_count() * 2);
  EXPECT_EQ(table.cache_hit_count() + table.cache_miss_count(),
            lookups_while_caching);
  EXPECT_GT(table.cache_hit_count(), table.cache_miss_count());
  EXPECT_EQ(naive.cache_hit_count() + naive.cache_miss_count(), 0u);
}

// ---------------------------------------------------------------------------
// Configuration parsing (Listing 4.1)
// ---------------------------------------------------------------------------

class ConfigTest : public ::testing::Test {
 protected:
  ConfigTest() {
    factory_.register_class(
        "TrueConstraint",
        [](const std::string& name, ConstraintType type,
           ConstraintPriority prio) -> ConstraintPtr {
          return std::make_shared<FunctionConstraint>(
              name, type, prio,
              [](ConstraintValidationContext&) { return true; });
        });
  }

  ConstraintFactory factory_;
  ConstraintRepository repo_;
};

TEST_F(ConfigTest, ParsesFullDescriptor) {
  const char* xml = R"(<constraints>
    <!-- comment -->
    <constraint name="C1" type="HARD" priority="RELAXABLE" contextObject="Y"
                minSatisfactionDegree="POSSIBLY_SATISFIED" intraObject="Y">
      <class>TrueConstraint</class>
      <context-class>Flight</context-class>
      <description>soldTickets &lt;= seats</description>
      <freshness class="Flight" maxAge="3"/>
      <affected-methods>
        <affected-method>
          <context-preparation>
            <preparation-class>CalledObjectIsContextObject</preparation-class>
          </context-preparation>
          <objectMethod name="sellTickets">
            <objectClass>Flight</objectClass>
            <arguments><argument>int</argument></arguments>
          </objectMethod>
        </affected-method>
      </affected-methods>
    </constraint>
  </constraints>)";

  EXPECT_EQ(load_constraints(xml, factory_, repo_), 1u);
  Constraint& c = repo_.find("C1");
  EXPECT_EQ(c.type(), ConstraintType::HardInvariant);
  EXPECT_TRUE(c.is_tradeable());
  EXPECT_TRUE(c.intra_object());
  EXPECT_TRUE(c.context_object_needed());
  EXPECT_EQ(c.min_satisfaction_degree(),
            SatisfactionDegree::PossiblySatisfied);
  EXPECT_EQ(c.description(), "soldTickets <= seats");
  EXPECT_EQ(c.freshness_criteria().at("Flight"), 3u);
  const auto& matches = repo_.lookup("Flight", {"sellTickets", {"int"}},
                                     ConstraintType::HardInvariant);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].preparation->kind, ContextPreparationKind::CalledObject);
}

TEST_F(ConfigTest, ParsesReferenceGetterPreparation) {
  const char* xml = R"(<constraints>
    <constraint name="C1" type="SOFT">
      <class>TrueConstraint</class>
      <affected-methods>
        <affected-method>
          <context-preparation>
            <preparation-class>ReferenceIsContextObject</preparation-class>
            <params><param name="getter" value="getReport"/></params>
          </context-preparation>
          <objectMethod name="setKind">
            <objectClass>Alarm</objectClass>
            <arguments><argument>string</argument></arguments>
          </objectMethod>
        </affected-method>
      </affected-methods>
    </constraint>
  </constraints>)";
  load_constraints(xml, factory_, repo_);
  const auto& matches = repo_.lookup("Alarm", {"setKind", {"string"}},
                                     ConstraintType::SoftInvariant);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].preparation->kind,
            ContextPreparationKind::ReferenceGetter);
  EXPECT_EQ(matches[0].preparation->getter, "getReport");
}

TEST_F(ConfigTest, RejectsMalformedInput) {
  EXPECT_THROW(load_constraints("<constraints>", factory_, repo_), ConfigError);
  EXPECT_THROW(load_constraints("<wrong/>", factory_, repo_), ConfigError);
  EXPECT_THROW(load_constraints(
                   "<constraints><constraint type=\"HARD\">"
                   "<class>TrueConstraint</class></constraint></constraints>",
                   factory_, repo_),
               ConfigError);  // missing name
  EXPECT_THROW(
      load_constraints("<constraints><constraint name=\"C\" type=\"BOGUS\">"
                       "<class>TrueConstraint</class></constraint></constraints>",
                       factory_, repo_),
      ConfigError);  // bad type
  EXPECT_THROW(
      load_constraints("<constraints><constraint name=\"C\" type=\"HARD\">"
                       "<class>Unknown</class></constraint></constraints>",
                       factory_, repo_),
      ConfigError);  // unknown implementation class
}

TEST(XmlParser, HandlesEntitiesSelfClosingAndMismatch) {
  const XmlNode root = parse_xml(
      "<?xml version=\"1.0\"?><a x=\"1 &amp; 2\"><b/><c>text</c></a>");
  EXPECT_EQ(root.tag, "a");
  EXPECT_EQ(root.attr("x"), "1 & 2");
  EXPECT_NE(root.child("b"), nullptr);
  EXPECT_EQ(root.require_child("c").text, "text");
  EXPECT_THROW(parse_xml("<a><b></a>"), ConfigError);
  EXPECT_THROW(parse_xml("<a></a><b/>"), ConfigError);
}

// ---------------------------------------------------------------------------
// Threat store (Section 3.2.2, 5.5.1)
// ---------------------------------------------------------------------------

class ThreatStoreTest : public ::testing::Test {
 protected:
  ThreatStoreTest() : db_(rt_), store_(db_) {}

  static ConsistencyThreat threat(const std::string& constraint,
                                  std::uint64_t ctx_object) {
    ConsistencyThreat t;
    t.constraint_name = constraint;
    t.context_object = ObjectId{ctx_object};
    t.degree = SatisfactionDegree::PossiblySatisfied;
    t.affected_objects = {ObjectId{ctx_object}, ObjectId{ctx_object + 1}};
    t.application_data = "payload";
    t.instructions.allow_rollback = true;
    return t;
  }

  SimRuntime rt_{CostModel{}};
  RecordStore db_;
  ThreatStore store_;
};

TEST_F(ThreatStoreTest, SerializationRoundTrip) {
  const ConsistencyThreat t = threat("C1", 7);
  const ConsistencyThreat back = ThreatStore::deserialize(
      ThreatStore::serialize(t));
  EXPECT_EQ(back.constraint_name, t.constraint_name);
  EXPECT_EQ(back.context_object, t.context_object);
  EXPECT_EQ(back.degree, t.degree);
  EXPECT_EQ(back.affected_objects, t.affected_objects);
  EXPECT_EQ(back.application_data, t.application_data);
  EXPECT_EQ(back.instructions.allow_rollback, t.instructions.allow_rollback);
}

TEST_F(ThreatStoreTest, IdentityCombinesConstraintAndContext) {
  EXPECT_EQ(threat("C1", 7).identity(), threat("C1", 7).identity());
  EXPECT_NE(threat("C1", 7).identity(), threat("C1", 8).identity());
  EXPECT_NE(threat("C1", 7).identity(), threat("C2", 7).identity());
  ConsistencyThreat no_ctx;
  no_ctx.constraint_name = "C1";
  EXPECT_EQ(no_ctx.identity(), "C1@-");
}

TEST_F(ThreatStoreTest, IdenticalOncePersistsSingleIdentity) {
  store_.set_policy(ThreatHistoryPolicy::IdenticalOnce);
  EXPECT_TRUE(store_.store(threat("C1", 7)));
  const std::size_t writes_after_first = db_.write_count();
  EXPECT_EQ(writes_after_first, 3u);  // threat row + two object rows
  EXPECT_FALSE(store_.store(threat("C1", 7)));
  EXPECT_FALSE(store_.store(threat("C1", 7)));
  EXPECT_EQ(db_.write_count(), writes_after_first);  // only reads afterwards
  EXPECT_EQ(store_.identity_count(), 1u);
  EXPECT_EQ(store_.total_occurrences(), 3u);
}

TEST_F(ThreatStoreTest, FullHistoryPersistsEveryOccurrence) {
  store_.set_policy(ThreatHistoryPolicy::FullHistory);
  store_.store(threat("C1", 7));
  const std::size_t first = db_.write_count();
  store_.store(threat("C1", 7));
  EXPECT_EQ(db_.write_count(), first + 2);  // two rows per identical threat
  EXPECT_EQ(store_.identity_count(), 1u);
  EXPECT_EQ(store_.total_occurrences(), 2u);
}

TEST_F(ThreatStoreTest, RemoveDeletesAllOccurrences) {
  store_.set_policy(ThreatHistoryPolicy::FullHistory);
  const ConsistencyThreat t = threat("C1", 7);
  store_.store(t);
  store_.store(t);
  store_.store(threat("C2", 9));
  store_.remove(t.identity());
  EXPECT_EQ(store_.identity_count(), 1u);
  EXPECT_FALSE(store_.has(t.identity()));
  EXPECT_TRUE(store_.has(threat("C2", 9).identity()));
  EXPECT_NO_THROW(store_.remove("missing@1"));
}

TEST_F(ThreatStoreTest, LoadAllReturnsOccurrenceCounts) {
  store_.store(threat("C1", 7));
  store_.store(threat("C1", 7));
  store_.store(threat("C2", 9));
  const auto all = store_.load_all();
  ASSERT_EQ(all.size(), 2u);
  std::size_t total = 0;
  for (const auto& st : all) total += st.occurrences;
  EXPECT_EQ(total, 3u);
}

}  // namespace
}  // namespace dedisys
