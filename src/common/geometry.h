#ifndef DIRECTMESH_COMMON_GEOMETRY_H_
#define DIRECTMESH_COMMON_GEOMETRY_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

namespace dm {

/// Identifier of a mesh/PM/DM vertex. Dense, assigned in creation order:
/// original DEM points first, then parents in collapse order.
using VertexId = int64_t;
inline constexpr VertexId kInvalidVertex = -1;

/// A point in the plane (terrain footprint coordinates).
struct Point2 {
  double x = 0.0;
  double y = 0.0;

  friend bool operator==(const Point2& a, const Point2& b) {
    return a.x == b.x && a.y == b.y;
  }
};

/// A point in 3D terrain space; z is elevation.
struct Point3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  Point2 xy() const { return Point2{x, y}; }

  friend Point3 operator+(const Point3& a, const Point3& b) {
    return {a.x + b.x, a.y + b.y, a.z + b.z};
  }
  friend Point3 operator-(const Point3& a, const Point3& b) {
    return {a.x - b.x, a.y - b.y, a.z - b.z};
  }
  friend Point3 operator*(const Point3& a, double s) {
    return {a.x * s, a.y * s, a.z * s};
  }
  friend bool operator==(const Point3& a, const Point3& b) {
    return a.x == b.x && a.y == b.y && a.z == b.z;
  }
};

inline double Dot(const Point3& a, const Point3& b) {
  return a.x * b.x + a.y * b.y + a.z * b.z;
}
inline Point3 Cross(const Point3& a, const Point3& b) {
  return {a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z,
          a.x * b.y - a.y * b.x};
}
inline double Norm(const Point3& a) { return std::sqrt(Dot(a, a)); }
inline double DistanceXY(const Point3& a, const Point3& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

/// Axis-aligned rectangle in the (x, y) plane. Empty when lo > hi.
struct Rect {
  double lo_x = std::numeric_limits<double>::infinity();
  double lo_y = std::numeric_limits<double>::infinity();
  double hi_x = -std::numeric_limits<double>::infinity();
  double hi_y = -std::numeric_limits<double>::infinity();

  static Rect Of(double lo_x, double lo_y, double hi_x, double hi_y) {
    return Rect{lo_x, lo_y, hi_x, hi_y};
  }

  bool empty() const { return lo_x > hi_x || lo_y > hi_y; }
  double width() const { return empty() ? 0.0 : hi_x - lo_x; }
  double height() const { return empty() ? 0.0 : hi_y - lo_y; }
  double Area() const { return width() * height(); }

  bool Contains(double x, double y) const {
    return x >= lo_x && x <= hi_x && y >= lo_y && y <= hi_y;
  }
  bool Contains(const Rect& o) const {
    return o.lo_x >= lo_x && o.hi_x <= hi_x && o.lo_y >= lo_y &&
           o.hi_y <= hi_y;
  }
  bool Intersects(const Rect& o) const {
    return !(o.lo_x > hi_x || o.hi_x < lo_x || o.lo_y > hi_y ||
             o.hi_y < lo_y);
  }

  void ExpandToInclude(double x, double y) {
    lo_x = std::min(lo_x, x);
    lo_y = std::min(lo_y, y);
    hi_x = std::max(hi_x, x);
    hi_y = std::max(hi_y, y);
  }
  void ExpandToInclude(const Rect& o) {
    if (o.empty()) return;
    lo_x = std::min(lo_x, o.lo_x);
    lo_y = std::min(lo_y, o.lo_y);
    hi_x = std::max(hi_x, o.hi_x);
    hi_y = std::max(hi_y, o.hi_y);
  }

  std::string ToString() const;
};

/// Axis-aligned box in (x, y, e) space. The third axis is the LOD axis
/// throughout this codebase. Empty when lo > hi on any axis.
struct Box {
  std::array<double, 3> lo{std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::infinity()};
  std::array<double, 3> hi{-std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};

  static Box Of(double lx, double ly, double lz, double hx, double hy,
                double hz) {
    Box b;
    b.lo = {lx, ly, lz};
    b.hi = {hx, hy, hz};
    return b;
  }
  /// Box spanning a rectangle in (x, y) and an interval on the LOD axis.
  static Box FromRect(const Rect& r, double e_lo, double e_hi) {
    return Of(r.lo_x, r.lo_y, e_lo, r.hi_x, r.hi_y, e_hi);
  }
  /// Degenerate box for a single point.
  static Box FromPoint(double x, double y, double e) {
    return Of(x, y, e, x, y, e);
  }
  /// Vertical segment at (x, y) over the LOD interval [e_lo, e_hi].
  static Box Segment(double x, double y, double e_lo, double e_hi) {
    return Of(x, y, e_lo, x, y, e_hi);
  }

  bool empty() const {
    for (int d = 0; d < 3; ++d) {
      if (lo[d] > hi[d]) return true;
    }
    return false;
  }
  double Extent(int d) const { return empty() ? 0.0 : hi[d] - lo[d]; }
  double Volume() const {
    return Extent(0) * Extent(1) * Extent(2);
  }

  bool Contains(double x, double y, double e) const {
    return x >= lo[0] && x <= hi[0] && y >= lo[1] && y <= hi[1] &&
           e >= lo[2] && e <= hi[2];
  }
  bool Contains(const Box& o) const {
    for (int d = 0; d < 3; ++d) {
      if (o.lo[d] < lo[d] || o.hi[d] > hi[d]) return false;
    }
    return true;
  }
  bool Intersects(const Box& o) const {
    for (int d = 0; d < 3; ++d) {
      if (o.lo[d] > hi[d] || o.hi[d] < lo[d]) return false;
    }
    return true;
  }

  void ExpandToInclude(const Box& o) {
    if (o.empty()) return;
    for (int d = 0; d < 3; ++d) {
      lo[d] = std::min(lo[d], o.lo[d]);
      hi[d] = std::max(hi[d], o.hi[d]);
    }
  }

  Rect rect_xy() const { return Rect::Of(lo[0], lo[1], hi[0], hi[1]); }

  std::string ToString() const;
};

}  // namespace dm

#endif  // DIRECTMESH_COMMON_GEOMETRY_H_
