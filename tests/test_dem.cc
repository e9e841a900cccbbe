#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "dem/crater.h"
#include "dem/dem_io.h"
#include "dem/fractal.h"
#include "test_util.h"

namespace dm {
namespace {

TEST(DemGridTest, IndexingAndBounds) {
  DemGrid g(4, 3);
  EXPECT_EQ(g.num_points(), 12);
  g.set(3, 2, 7.5);
  EXPECT_EQ(g.at(3, 2), 7.5);
  const Point3 p = g.PointAt(3, 2);
  EXPECT_EQ(p.x, 3.0);
  EXPECT_EQ(p.y, 2.0);
  EXPECT_EQ(p.z, 7.5);
  EXPECT_EQ(g.Bounds().hi_x, 3.0);
  EXPECT_EQ(g.Bounds().hi_y, 2.0);
}

TEST(DemGridTest, BilinearSample) {
  DemGrid g(2, 2);
  g.set(0, 0, 0);
  g.set(1, 0, 10);
  g.set(0, 1, 20);
  g.set(1, 1, 30);
  EXPECT_DOUBLE_EQ(g.Sample(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(g.Sample(1, 1), 30.0);
  EXPECT_DOUBLE_EQ(g.Sample(0.5, 0.5), 15.0);
  EXPECT_DOUBLE_EQ(g.Sample(0.5, 0.0), 5.0);
  // Clamped outside.
  EXPECT_DOUBLE_EQ(g.Sample(-3, -3), 0.0);
}

TEST(FractalTest, DeterministicAndSized) {
  FractalParams p;
  p.side = 65;
  p.seed = 11;
  const DemGrid a = GenerateFractalDem(p);
  const DemGrid b = GenerateFractalDem(p);
  EXPECT_EQ(a.width(), 65);
  EXPECT_EQ(a.height(), 65);
  EXPECT_EQ(a.data(), b.data());
  p.seed = 12;
  const DemGrid c = GenerateFractalDem(p);
  EXPECT_NE(a.data(), c.data());
}

TEST(FractalTest, NonPowerOfTwoSideIsCropped) {
  FractalParams p;
  p.side = 50;
  const DemGrid g = GenerateFractalDem(p);
  EXPECT_EQ(g.width(), 50);
  EXPECT_EQ(g.height(), 50);
}

TEST(FractalTest, HasRelief) {
  const DemGrid g = GenerateFractalDem({.side = 129, .seed = 42});
  double lo;
  double hi;
  g.ElevationRange(&lo, &hi);
  EXPECT_GT(hi - lo, 10.0);
}

TEST(CraterTest, RimIsHigherThanBowlAndPlain) {
  CraterParams p;
  p.side = 129;
  const DemGrid g = GenerateCraterDem(p);
  const int c = p.side / 2;
  const int rim = static_cast<int>(c + p.rim_radius_frac * c);
  const double bowl_z = g.at(c, c);
  const double rim_z = g.at(rim, c);
  const double plain_z = g.at(p.side - 1, c);
  EXPECT_GT(rim_z, bowl_z + 100.0);
  EXPECT_GT(rim_z, plain_z + 100.0);
}

TEST(DemIoTest, ParsesEsriAsciiGrid) {
  const std::string path = dm::testing::TempDbPath("esri");
  {
    std::ofstream out(path);
    out << "ncols 3\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 30\n"
        << "NODATA_value -9999\n"
        << "1 2 3\n4 -9999 6\n";
  }
  auto r = ReadEsriAsciiGrid(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const DemGrid& g = r.value();
  EXPECT_EQ(g.width(), 3);
  EXPECT_EQ(g.height(), 2);
  // First file row is the northernmost: y = 1.
  EXPECT_EQ(g.at(0, 1), 1.0);
  EXPECT_EQ(g.at(2, 0), 6.0);
  // NODATA filled with the minimum valid elevation.
  EXPECT_EQ(g.at(1, 0), 1.0);
  std::remove(path.c_str());
}

TEST(DemIoTest, EsriMissingHeaderFails) {
  const std::string path = dm::testing::TempDbPath("esri_bad");
  {
    std::ofstream out(path);
    out << "cellsize 30\n1 2 3\n";
  }
  EXPECT_FALSE(ReadEsriAsciiGrid(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dm
