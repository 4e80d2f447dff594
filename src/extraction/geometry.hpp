// Geometry primitives for the field solvers of Section 4: rectangular
// surface panels, conductors as panel groups, and generators for the
// benchmark structures (plates, bus crossings, spiral traces, resonator
// assemblies).
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "common.hpp"

namespace rfic::extraction {

/// 3-vector with the handful of operations the solvers need.
struct Vec3 {
  Real x = 0, y = 0, z = 0;
  Vec3 operator+(const Vec3& o) const { return {x + o.x, y + o.y, z + o.z}; }
  Vec3 operator-(const Vec3& o) const { return {x - o.x, y - o.y, z - o.z}; }
  Vec3 operator*(Real s) const { return {x * s, y * s, z * s}; }
  Real dot(const Vec3& o) const { return x * o.x + y * o.y + z * o.z; }
  Vec3 cross(const Vec3& o) const {
    return {y * o.z - z * o.y, z * o.x - x * o.z, x * o.y - y * o.x};
  }
  Real norm() const;
};

/// Flat rectangular panel: corner + two orthogonal edge vectors.
struct Panel {
  Vec3 corner;
  Vec3 edgeA;
  Vec3 edgeB;
  int conductor = 0;  ///< owning conductor id

  Vec3 centroid() const { return corner + edgeA * 0.5 + edgeB * 0.5; }
  Real area() const { return edgeA.cross(edgeB).norm(); }
};

/// A discretized multi-conductor structure.
struct PanelMesh {
  std::vector<Panel> panels;
  std::vector<std::string> conductorNames;

  std::size_t numConductors() const { return conductorNames.size(); }
  int addConductor(std::string name);
};

/// Subdivide a rectangle (corner + edges) into nx × ny panels appended to
/// the mesh under conductor id `cond`.
void addRectangle(PanelMesh& mesh, int cond, const Vec3& corner,
                  const Vec3& edgeA, const Vec3& edgeB, std::size_t nx,
                  std::size_t ny);

/// Two square parallel plates of side `side` separated by `gap` (plate 0 at
/// z = 0, plate 1 at z = gap), each discretized n × n.
PanelMesh makeParallelPlates(Real side, Real gap, std::size_t n);

/// Conducting cube of side a (6 faces, n × n each) — capacitance of the
/// unit cube is a classic benchmark (≈ 0.6607 · 4πε₀ a).
PanelMesh makeCube(Real side, std::size_t n);

/// Crossing bus: `count` parallel strips on layer z = 0 (along x) and
/// `count` on z = h (along y) — the classic multi-conductor extraction
/// benchmark used for the Fig. 6 scaling study.
PanelMesh makeBusCrossing(std::size_t count, Real width, Real pitch,
                          Real length, Real layerGap, std::size_t panelsAlong);

/// A resonator assembly in the spirit of Fig. 8: two resonator plates over
/// a ground plate, coupled by a narrow line.
PanelMesh makeResonatorAssembly(std::size_t n);

}  // namespace rfic::extraction
