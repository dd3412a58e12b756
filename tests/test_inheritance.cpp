// Constraint inheritance / behavioral subtyping (Section 2.3.1, [DL96]):
// constraints of superclasses and interfaces also apply to subclasses;
// preconditions are concatenated with OR (a subclass may weaken them),
// postconditions and invariants with AND (a subclass may only strengthen).
#include <gtest/gtest.h>

#include "middleware/cluster.h"

namespace dedisys {
namespace {

ConstraintPtr predicate_constraint(
    const std::string& name, ConstraintType type,
    std::function<bool(ConstraintValidationContext&)> fn,
    bool needs_context = true) {
  auto c = std::make_shared<FunctionConstraint>(
      name, type, ConstraintPriority::Tradeable, std::move(fn));
  c->set_context_object_needed(needs_context);
  return c;
}

void register_for_class(ConstraintRepository& repo, ConstraintPtr c,
                        const std::string& cls, const std::string& method,
                        const std::vector<std::string>& params) {
  ConstraintRegistration reg;
  reg.constraint = std::move(c);
  reg.affected_methods.push_back(AffectedMethod{
      cls, MethodSignature{method, params},
      ContextPreparation{ContextPreparationKind::CalledObject, ""}});
  repo.register_constraint(std::move(reg));
}

class InheritanceTest : public ::testing::Test {
 protected:
  InheritanceTest() : cluster_(make_config()) {
    // Account (base): deposit(amount); SavingsAccount extends Account.
    ClassDescriptor& account = cluster_.classes().define("Account");
    account.define_property("balance", Value{std::int64_t{0}}, "int");
    account.define_method(
        MethodSignature{"deposit", {"int"}}, MethodKind::Mutator,
        [](Entity& self, MethodContext&, const std::vector<Value>& args) {
          self.set("balance",
                   Value{as_int(self.get("balance")) + as_int(args.at(0))});
          return Value{};
        });

    ClassDescriptor& savings = cluster_.classes().define("SavingsAccount");
    savings.set_super("Account");
    savings.add_interface("Auditable");
    savings.define_property("balance", Value{std::int64_t{0}}, "int");
    savings.define_method(
        MethodSignature{"deposit", {"int"}}, MethodKind::Mutator,
        [](Entity& self, MethodContext&, const std::vector<Value>& args) {
          self.set("balance",
                   Value{as_int(self.get("balance")) + as_int(args.at(0))});
          return Value{};
        });

    // Base precondition: deposits up to 1000.  Subclass precondition:
    // deposits up to 100.  OR semantics: the subclass call succeeds for
    // any amount <= 1000 (behavioral subtyping may only WEAKEN).
    register_for_class(cluster_.constraints(),
                       predicate_constraint(
                           "BaseDepositLimit", ConstraintType::Precondition,
                           [](ConstraintValidationContext& ctx) {
                             return as_int(ctx.arguments().at(0)) <= 1000;
                           },
                           false),
                       "Account", "deposit", {"int"});
    register_for_class(cluster_.constraints(),
                       predicate_constraint(
                           "SavingsDepositLimit", ConstraintType::Precondition,
                           [](ConstraintValidationContext& ctx) {
                             return as_int(ctx.arguments().at(0)) <= 100;
                           },
                           false),
                       "SavingsAccount", "deposit", {"int"});

    // Invariants are AND'd: base requires balance >= 0, interface requires
    // balance <= 5000 — both apply to SavingsAccount.
    register_for_class(cluster_.constraints(),
                       predicate_constraint(
                           "BalanceNonNegative", ConstraintType::HardInvariant,
                           [](ConstraintValidationContext& ctx) {
                             return as_int(ctx.context_entity().get(
                                        "balance")) >= 0;
                           }),
                       "Account", "deposit", {"int"});
    register_for_class(cluster_.constraints(),
                       predicate_constraint(
                           "AuditCeiling", ConstraintType::HardInvariant,
                           [](ConstraintValidationContext& ctx) {
                             return as_int(ctx.context_entity().get(
                                        "balance")) <= 5000;
                           }),
                       "Auditable", "deposit", {"int"});
  }

  static ClusterConfig make_config() {
    ClusterConfig cfg;
    cfg.nodes = 1;
    return cfg;
  }

  ObjectId create(const std::string& cls) {
    DedisysNode& n = cluster_.node(0);
    TxScope tx(n.tx());
    const ObjectId id = n.create(tx.id(), cls);
    tx.commit();
    return id;
  }

  void deposit(ObjectId account, std::int64_t amount) {
    DedisysNode& n = cluster_.node(0);
    TxScope tx(n.tx());
    n.invoke(tx.id(), account, "deposit", {Value{amount}});
    tx.commit();
  }

  Cluster cluster_;
};

TEST_F(InheritanceTest, AncestryWalksSuperclassesAndInterfaces) {
  const auto chain = cluster_.classes().ancestry("SavingsAccount");
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0], "SavingsAccount");
  EXPECT_EQ(chain[1], "Account");
  EXPECT_EQ(chain[2], "Auditable");
  // A class without hierarchy yields just itself.
  EXPECT_EQ(cluster_.classes().ancestry("Account"),
            (std::vector<std::string>{"Account"}));
}

TEST_F(InheritanceTest, SubclassPreconditionIsWeakenedByInheritedOne) {
  const ObjectId savings = create("SavingsAccount");
  // Within the subclass's own limit: trivially fine.
  EXPECT_NO_THROW(deposit(savings, 50));
  // Beyond the subclass limit but within the base limit: the OR of
  // preconditions still holds (the base contract admits the call).
  EXPECT_NO_THROW(deposit(savings, 500));
  // Beyond every level's limit: rejected.
  EXPECT_THROW(deposit(savings, 2000), ConstraintViolation);
}

TEST_F(InheritanceTest, BaseClassUsesOnlyItsOwnPrecondition) {
  const ObjectId account = create("Account");
  EXPECT_NO_THROW(deposit(account, 1000));
  EXPECT_THROW(deposit(account, 1001), ConstraintViolation);
}

TEST_F(InheritanceTest, InheritedInvariantsAreConjunction) {
  const ObjectId savings = create("SavingsAccount");
  for (int i = 0; i < 5; ++i) deposit(savings, 1000);  // balance 5000
  // The interface invariant (<= 5000) now blocks further deposits even
  // though the base invariant (>= 0) is satisfied.
  EXPECT_THROW(deposit(savings, 100), ConstraintViolation);
  // The base class is not subject to the interface's ceiling.
  const ObjectId account = create("Account");
  for (int i = 0; i < 7; ++i) EXPECT_NO_THROW(deposit(account, 1000));
}

TEST_F(InheritanceTest, DiamondAncestryIsDeduplicated) {
  ClassDescriptor& mid1 = cluster_.classes().define("Mid1");
  mid1.set_super("Account");
  ClassDescriptor& mid2 = cluster_.classes().define("Mid2");
  mid2.set_super("Account");
  ClassDescriptor& leaf = cluster_.classes().define("Leaf");
  leaf.set_super("Mid1");
  leaf.add_interface("Mid2");
  const auto chain = cluster_.classes().ancestry("Leaf");
  EXPECT_EQ(std::count(chain.begin(), chain.end(), "Account"), 1);
  EXPECT_EQ(chain.size(), 4u);
}

// The constraint lookup walks each class's precomputed ancestry; a
// superclass or interface declared after calls have already run (and
// warmed the lookup table) must apply from the next call on, with
// preconditions still OR'd across hierarchy levels.
TEST_F(InheritanceTest, HierarchyDeclaredAfterFirstCallApplies) {
  ClassDescriptor& late = cluster_.classes().define("LateAccount");
  late.define_property("balance", Value{std::int64_t{0}}, "int");
  late.define_method(
      MethodSignature{"deposit", {"int"}}, MethodKind::Mutator,
      [](Entity& self, MethodContext&, const std::vector<Value>& args) {
        self.set("balance",
                 Value{as_int(self.get("balance")) + as_int(args.at(0))});
        return Value{};
      });
  register_for_class(cluster_.constraints(),
                     predicate_constraint(
                         "LateDepositLimit", ConstraintType::Precondition,
                         [](ConstraintValidationContext& ctx) {
                           return as_int(ctx.arguments().at(0)) <= 10;
                         },
                         false),
                     "LateAccount", "deposit", {"int"});

  const ObjectId late_account = create("LateAccount");
  EXPECT_NO_THROW(deposit(late_account, 10));
  EXPECT_THROW(deposit(late_account, 500), ConstraintViolation);

  late.set_super("Account");
  EXPECT_EQ(cluster_.classes().ancestry("LateAccount"),
            (std::vector<std::string>{"LateAccount", "Account"}));
  // The base level admits what the subclass level refuses (OR).
  EXPECT_NO_THROW(deposit(late_account, 500));
  EXPECT_THROW(deposit(late_account, 2000), ConstraintViolation);

  late.add_interface("Auditable");  // balance <= 5000, AND'd
  for (int i = 0; i < 4; ++i) EXPECT_NO_THROW(deposit(late_account, 1000));
  EXPECT_THROW(deposit(late_account, 1000), ConstraintViolation);
}

}  // namespace
}  // namespace dedisys
