#include "common/status.h"

#include <gtest/gtest.h>

namespace planet {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, FactoryCodesAndPredicates) {
  EXPECT_TRUE(Status::NotFound().IsNotFound());
  EXPECT_TRUE(Status::Aborted().IsAborted());
  EXPECT_TRUE(Status::Rejected().IsRejected());
  EXPECT_TRUE(Status::TimedOut().IsTimedOut());
  EXPECT_TRUE(Status::Unavailable().IsUnavailable());
  EXPECT_FALSE(Status::Aborted().ok());
  EXPECT_FALSE(Status::OK().IsAborted());
}

TEST(Status, MessageRendering) {
  Status s = Status::Aborted("stale read");
  EXPECT_EQ(s.ToString(), "Aborted: stale read");
  EXPECT_EQ(s.message(), "stale read");
  EXPECT_EQ(Status::Internal().ToString(), "Internal");
}

TEST(Status, EqualityIsByCode) {
  EXPECT_EQ(Status::Aborted("a"), Status::Aborted("b"));
  EXPECT_FALSE(Status::Aborted() == Status::TimedOut());
}

TEST(Status, CodeNamesAllDistinct) {
  const StatusCode codes[] = {
      StatusCode::kOk,        StatusCode::kNotFound,
      StatusCode::kInvalidArgument, StatusCode::kAborted,
      StatusCode::kRejected,  StatusCode::kTimedOut,
      StatusCode::kUnavailable, StatusCode::kAlreadyExists,
      StatusCode::kFailedPrecondition, StatusCode::kInternal,
  };
  for (size_t i = 0; i < std::size(codes); ++i) {
    for (size_t j = i + 1; j < std::size(codes); ++j) {
      EXPECT_STRNE(StatusCodeName(codes[i]), StatusCodeName(codes[j]));
    }
  }
}

}  // namespace
}  // namespace planet
