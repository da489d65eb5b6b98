#include "rcs/component/registry.hpp"

#include <gtest/gtest.h>

#include "rcs/component/component.hpp"
#include "test_types.hpp"

namespace rcs::comp {
namespace {

TEST(Registry, RegisterAndLookup) {
  ComponentRegistry registry = testing::make_test_registry();
  EXPECT_TRUE(registry.has("test.echo"));
  EXPECT_FALSE(registry.has("missing"));
  const auto& info = registry.info("test.echo");
  EXPECT_EQ(info.type_name, "test.echo");
  ASSERT_EQ(info.services.size(), 1u);
  EXPECT_EQ(info.services[0].interface_name, "I.Echo");
}

TEST(Registry, InfoOnUnknownTypeThrows) {
  ComponentRegistry registry;
  EXPECT_THROW((void)registry.info("ghost"), ComponentError);
  EXPECT_THROW((void)registry.create("ghost"), ComponentError);
}

TEST(Registry, CreateInstantiatesFreshComponents) {
  ComponentRegistry registry = testing::make_test_registry();
  auto a = registry.create("test.echo");
  auto b = registry.create("test.echo");
  EXPECT_NE(a.get(), b.get());
}

TEST(Registry, TypeNamesAreSorted) {
  ComponentRegistry registry = testing::make_test_registry();
  const auto names = registry.type_names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(names.size(), 3u);
}

TEST(Registry, ReregistrationIsIdempotentFirstWins) {
  ComponentRegistry registry;
  using testing::Other;
  registry.register_type(testing::test_type<Other>("dup", {{"svc", "I.A"}}));
  registry.register_type(testing::test_type<Other>("dup", {{"svc", "I.B"}}));
  EXPECT_EQ(registry.info("dup").services[0].interface_name, "I.A");
}

TEST(Registry, RejectsEmptyNameOrMissingFactory) {
  ComponentRegistry registry;
  ComponentTypeInfo no_name;
  no_name.factory = [] { return std::unique_ptr<Component>{}; };
  EXPECT_THROW(registry.register_type(no_name), LogicError);

  ComponentTypeInfo no_factory;
  no_factory.type_name = "x";
  EXPECT_THROW(registry.register_type(no_factory), LogicError);
}

TEST(Registry, PortLookupHelpers) {
  ComponentRegistry registry = testing::make_full_registry();
  const auto& info = registry.info("test.forwarder");
  ASSERT_NE(info.find_service("svc"), nullptr);
  EXPECT_EQ(info.find_service("nope"), nullptr);
  ASSERT_NE(info.find_reference("next"), nullptr);
  EXPECT_TRUE(info.find_reference("next")->required);
  EXPECT_EQ(info.find_reference("nope"), nullptr);
}

TEST(Registry, GlobalInstanceIsSingleton) {
  EXPECT_EQ(&ComponentRegistry::instance(), &ComponentRegistry::instance());
}

}  // namespace
}  // namespace rcs::comp
