#include "common/error.h"

#include <gtest/gtest.h>

#include <string>

namespace ropus {
namespace {

TEST(Require, PassesOnTrue) {
  EXPECT_NO_THROW(ROPUS_REQUIRE(1 + 1 == 2, "arithmetic"));
}

TEST(Require, ThrowsInvalidArgumentWithContext) {
  try {
    ROPUS_REQUIRE(false, "the message");
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("false"), std::string::npos);
    EXPECT_NE(what.find("the message"), std::string::npos);
    EXPECT_NE(what.find("error_test.cpp"), std::string::npos);
  }
}

TEST(Require, MessageLeavesOutTheSourceLocation) {
  try {
    ROPUS_REQUIRE(1 > 2, "one is not above two");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_EQ(e.message(), "one is not above two");
  }
  try {
    ROPUS_REQUIRE(1 > 2, "");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_EQ(e.message(), "requirement failed: 1 > 2");
  }
  try {
    ROPUS_ASSERT(false, "bug");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_EQ(e.message(), "bug");
  }
  EXPECT_EQ(IoError("plain").message(), "plain");
}

TEST(Assert, ThrowsInternalError) {
  EXPECT_THROW(ROPUS_ASSERT(false, "bug"), InternalError);
}

TEST(ErrorHierarchy, AllDeriveFromError) {
  EXPECT_THROW(throw InvalidArgument("x"), Error);
  EXPECT_THROW(throw InternalError("x"), Error);
  EXPECT_THROW(throw IoError("x"), Error);
  EXPECT_THROW(throw IoError("x"), std::runtime_error);
}

}  // namespace
}  // namespace ropus
