#include "rcs/common/error.hpp"

#include <gtest/gtest.h>

#include "../alloc_counter.hpp"

namespace rcs {
namespace {

TEST(Error, HierarchyIsCatchableAsBase) {
  try {
    throw ScriptException("reconfiguration failed");
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "reconfiguration failed");
  }
}

TEST(Error, EnsurePassesOnTrue) {
  EXPECT_NO_THROW(ensure(true, "never"));
}

TEST(Error, EnsureThrowsLogicErrorOnFalse) {
  EXPECT_THROW(ensure(false, "broken invariant"), LogicError);
}

TEST(Error, FailingEnsureFormatsItsParts) {
  const std::string name = "kernel";
  try {
    ensure(false, "component '", name, "' has ", 3, " refs");
    FAIL() << "ensure(false, ...) did not throw";
  } catch (const LogicError& e) {
    EXPECT_STREQ(e.what(), "component 'kernel' has 3 refs");
  }
}

TEST(Error, PassingEnsureNeverAllocates) {
  // A long std::string part: formatting it would have to allocate.
  const std::string name(64, 'x');
  volatile bool holds = true;  // opaque, so the check is really made
  const std::size_t before = test::allocations();
  for (int i = 0; i < 100; ++i) {
    ensure(holds, "component '", name, "' is not inside a composite");
  }
  EXPECT_EQ(test::allocations(), before);
}

TEST(Status, DefaultIsOk) {
  const Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_NO_THROW(s.check());
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  const Status s(ErrorCode::kNotFound, "no such component");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), ErrorCode::kNotFound);
  EXPECT_EQ(s.message(), "no such component");
  EXPECT_THROW(s.check(), Error);
}

TEST(Status, CodeNamesAreStable) {
  EXPECT_STREQ(to_string(ErrorCode::kOk), "ok");
  EXPECT_STREQ(to_string(ErrorCode::kFailedPrecondition), "failed_precondition");
  EXPECT_STREQ(to_string(ErrorCode::kAborted), "aborted");
}

TEST(Result, HoldsValue) {
  const Result<int> r(7);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 7);
  EXPECT_TRUE(r.status().is_ok());
}

TEST(Result, HoldsError) {
  const Result<int> r(ErrorCode::kInvalidArgument, "bad input");
  EXPECT_FALSE(r.is_ok());
  EXPECT_FALSE(static_cast<bool>(r));
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_THROW((void)r.value(), Error);
}

TEST(Result, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  const std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "payload");
}

TEST(Result, ConstructingFromOkStatusIsALogicError) {
  EXPECT_THROW((Result<int>(Status::ok())), LogicError);
}

}  // namespace
}  // namespace rcs
