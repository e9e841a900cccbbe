#include <gtest/gtest.h>

#include "common/geometry.h"
#include "common/rng.h"
#include "common/status.h"

namespace dm {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = Status::NotFound("missing page 7");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing page 7");
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> err(Status::IOError("disk gone"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kIOError);
}

TEST(ResultTest, MacrosPropagate) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::InvalidArgument("nope");
    return 7;
  };
  auto outer = [&](bool fail) -> Result<int> {
    DM_ASSIGN_OR_RETURN(const int v, inner(fail));
    return v * 2;
  };
  EXPECT_EQ(outer(false).value(), 14);
  EXPECT_EQ(outer(true).status().code(), StatusCode::kInvalidArgument);
}

TEST(RectTest, EmptyAndArea) {
  Rect r;
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.Area(), 0.0);
  r.ExpandToInclude(1, 2);
  EXPECT_FALSE(r.empty());
  EXPECT_EQ(r.Area(), 0.0);  // degenerate point
  r.ExpandToInclude(3, 6);
  EXPECT_EQ(r.Area(), 8.0);
}

TEST(RectTest, ContainsAndIntersects) {
  const Rect a = Rect::Of(0, 0, 10, 10);
  const Rect b = Rect::Of(2, 2, 5, 5);
  const Rect c = Rect::Of(9, 9, 15, 15);
  const Rect d = Rect::Of(11, 11, 12, 12);
  EXPECT_TRUE(a.Contains(b));
  EXPECT_FALSE(b.Contains(a));
  EXPECT_TRUE(a.Intersects(c));
  EXPECT_FALSE(a.Intersects(d));
  EXPECT_TRUE(a.Contains(10.0, 10.0));  // inclusive edges
}

TEST(BoxTest, VolumeAndIntersects) {
  const Box a = Box::Of(0, 0, 0, 4, 5, 2);
  EXPECT_EQ(a.Volume(), 40.0);
  const Box b = Box::Of(2, 2, 1, 9, 9, 9);
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(Box::Of(5, 0, 0, 6, 1, 1)));
  EXPECT_TRUE(a.Intersects(Box::Of(4, 0, 0, 6, 1, 1)));  // touching
}

TEST(BoxTest, FromRectAndContains) {
  const Box b = Box::FromRect(Rect::Of(0, 0, 10, 10), 1.0, 2.0);
  EXPECT_TRUE(b.Contains(5, 5, 1.5));
  EXPECT_FALSE(b.Contains(5, 5, 2.5));
  EXPECT_TRUE(b.Contains(Box::FromPoint(0, 0, 1)));
}

TEST(RngTest, DeterministicStreams) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  Rng c(124);
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
    const int64_t k = rng.UniformInt(-5, 5);
    EXPECT_GE(k, -5);
    EXPECT_LE(k, 5);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(99);
  double sum = 0;
  double sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(GeometryTest, VectorOps) {
  const Point3 a{1, 0, 0};
  const Point3 b{0, 1, 0};
  EXPECT_EQ(Dot(a, b), 0.0);
  const Point3 c = Cross(a, b);
  EXPECT_EQ(c.z, 1.0);
  EXPECT_EQ(Norm(Point3{3, 4, 0}), 5.0);
  EXPECT_EQ(DistanceXY(Point3{0, 0, 99}, Point3{3, 4, -1}), 5.0);
}

}  // namespace
}  // namespace dm
