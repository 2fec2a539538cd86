#include "common/status.h"

#include <gtest/gtest.h>

#include "common/result.h"

namespace nipo {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_TRUE(st.message().empty());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, FactoryCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad knob");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad knob");
  EXPECT_EQ(st.ToString(), "Invalid argument: bad knob");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::TypeMismatch("x").code(), StatusCode::kTypeMismatch);
  EXPECT_EQ(Status::CapacityExceeded("x").code(),
            StatusCode::kCapacityExceeded);
}

TEST(StatusTest, OkCodeWithMessageNormalizes) {
  Status st(StatusCode::kOk, "should vanish");
  EXPECT_TRUE(st.ok());
  EXPECT_TRUE(st.message().empty());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status {
    NIPO_RETURN_NOT_OK(Status::Internal("inner"));
    return Status::OK();
  };
  EXPECT_EQ(fails().code(), StatusCode::kInternal);
  auto succeeds = []() -> Status {
    NIPO_RETURN_NOT_OK(Status::OK());
    return Status::AlreadyExists("reached end");
  };
  EXPECT_EQ(succeeds().code(), StatusCode::kAlreadyExists);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
  EXPECT_TRUE(r.status().ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nothing here");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, ConstructingFromOkStatusDegradesToInternal) {
  Result<int> r = Status::OK();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveOnlyTypesWork) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 5);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::OutOfRange("nope");
    return 10;
  };
  auto outer = [&](bool fail) -> Result<int> {
    NIPO_ASSIGN_OR_RETURN(int v, inner(fail));
    return v + 1;
  };
  EXPECT_EQ(outer(false).ValueOrDie(), 11);
  EXPECT_EQ(outer(true).status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace nipo
