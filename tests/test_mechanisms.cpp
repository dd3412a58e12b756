// Unit tests for the three Chapter-2 interception mechanisms: regardless
// of cost profile, each must capture the call faithfully (target, Method,
// boxed arguments) and forward to the intercepted body exactly once.
#include <gtest/gtest.h>

#include "validation/mechanisms.h"

namespace dedisys::validation {
namespace {

struct MechanismCase {
  const char* name;
  Mechanism* (*make)();
};

// Print a case by its name. Without this gtest prints the raw bytes of the
// two pointers, so the listed test names would change with every build.
void PrintTo(const MechanismCase& c, std::ostream* os) { *os << c.name; }

Mechanism* make_aspect() { return new AspectStaticMechanism; }
Mechanism* make_aop() { return new AopFrameworkMechanism; }
Mechanism* make_proxy() { return new ReflectiveProxyMechanism; }

class MechanismTest : public ::testing::TestWithParam<MechanismCase> {
 protected:
  MechanismTest() : mech_(GetParam().make()) {}

  std::unique_ptr<Mechanism> mech_;
  Employee employee_;
};

TEST_P(MechanismTest, CapturesMethodAndArgument) {
  const MethodInfo& add_work = employee_class().methods[0];
  const double hours = 7.5;
  mech_->begin(ObjectRefl{&employee_class(), &employee_}, add_work, &hours);

  std::string class_name;
  std::vector<Boxed> args;
  const MethodInfo* m = mech_->extract(class_name, args);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->key, "addWork(double)");
  EXPECT_EQ(m->declaring_class, "Employee");
  EXPECT_EQ(class_name, "Employee");
  ASSERT_EQ(args.size(), 1u);
  EXPECT_EQ(boxed_num(args[0]), 7.5);
}

TEST_P(MechanismTest, CapturesParameterlessMethods) {
  const MethodInfo& join = employee_class().methods[2];
  mech_->begin(ObjectRefl{&employee_class(), &employee_}, join, nullptr);

  std::string class_name;
  std::vector<Boxed> args;
  const MethodInfo* m = mech_->extract(class_name, args);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->key, "joinProject()");
  EXPECT_TRUE(args.empty());
}

TEST_P(MechanismTest, DispatchForwardsExactlyOnce) {
  const MethodInfo& add_work = employee_class().methods[0];
  const double hours = 3;
  mech_->begin(ObjectRefl{&employee_class(), &employee_}, add_work, &hours);

  int calls = 0;
  mech_->dispatch([](void* p) { ++*static_cast<int*>(p); }, &calls);
  EXPECT_EQ(calls, 1);
}

TEST_P(MechanismTest, SupportsRepeatedInterceptions) {
  const MethodInfo& charge = project_class().methods[0];
  Project project;
  for (int i = 0; i < 100; ++i) {
    const double amount = i;
    mech_->begin(ObjectRefl{&project_class(), &project}, charge, &amount);
    std::string class_name;
    std::vector<Boxed> args;
    const MethodInfo* m = mech_->extract(class_name, args);
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(class_name, "Project");
    EXPECT_EQ(boxed_num(args.at(0)), i);
  }
}

INSTANTIATE_TEST_SUITE_P(
    All, MechanismTest,
    ::testing::Values(MechanismCase{"AspectJ", make_aspect},
                      MechanismCase{"JBossAOP", make_aop},
                      MechanismCase{"Proxy", make_proxy}),
    [](const ::testing::TestParamInfo<MechanismCase>& info) {
      return info.param.name;
    });

TEST(ReflectiveGetMethod, DistinguishesOverloadsBySignature) {
  const ClassInfo& cls = department_class();
  const MethodInfo* hire = cls.get_method("hire", {});
  const MethodInfo* resize = cls.get_method("resize", {"double"});
  ASSERT_NE(hire, nullptr);
  ASSERT_NE(resize, nullptr);
  EXPECT_EQ(hire->key, "hire()");
  EXPECT_EQ(resize->key, "resize(double)");
  EXPECT_EQ(cls.get_method("resize", {}), nullptr);
  EXPECT_EQ(cls.get_method("resize", {"int"}), nullptr);
}

TEST(DepartmentReflection, BoxedAttributeAccess) {
  Department d;
  d.headcount = 12;
  d.budget_pool = 9000;
  ObjectRefl refl{&department_class(), &d};
  EXPECT_EQ(boxed_num(refl.get("headcount")), 12);
  EXPECT_EQ(boxed_num(refl.get("budget_pool")), 9000);
  EXPECT_THROW((void)refl.get("missing"), DedisysError);
}

}  // namespace
}  // namespace dedisys::validation
