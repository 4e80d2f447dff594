#include "extraction/geometry.hpp"

#include <cmath>

namespace rfic::extraction {

Real Vec3::norm() const { return std::sqrt(x * x + y * y + z * z); }

int PanelMesh::addConductor(std::string name) {
  conductorNames.push_back(std::move(name));
  return static_cast<int>(conductorNames.size()) - 1;
}

void addRectangle(PanelMesh& mesh, int cond, const Vec3& corner,
                  const Vec3& edgeA, const Vec3& edgeB, std::size_t nx,
                  std::size_t ny) {
  RFIC_REQUIRE(nx >= 1 && ny >= 1, "addRectangle: bad subdivision");
  const Vec3 da = edgeA * (1.0 / static_cast<Real>(nx));
  const Vec3 db = edgeB * (1.0 / static_cast<Real>(ny));
  for (std::size_t i = 0; i < nx; ++i) {
    for (std::size_t j = 0; j < ny; ++j) {
      Panel p;
      p.corner = corner + da * static_cast<Real>(i) + db * static_cast<Real>(j);
      p.edgeA = da;
      p.edgeB = db;
      p.conductor = cond;
      mesh.panels.push_back(p);
    }
  }
}

PanelMesh makeParallelPlates(Real side, Real gap, std::size_t n) {
  PanelMesh mesh;
  const int c0 = mesh.addConductor("bottom");
  const int c1 = mesh.addConductor("top");
  addRectangle(mesh, c0, {0, 0, 0}, {side, 0, 0}, {0, side, 0}, n, n);
  addRectangle(mesh, c1, {0, 0, gap}, {side, 0, 0}, {0, side, 0}, n, n);
  return mesh;
}

PanelMesh makeCube(Real side, std::size_t n) {
  PanelMesh mesh;
  const int c = mesh.addConductor("cube");
  const Real a = side;
  addRectangle(mesh, c, {0, 0, 0}, {a, 0, 0}, {0, a, 0}, n, n);  // bottom
  addRectangle(mesh, c, {0, 0, a}, {a, 0, 0}, {0, a, 0}, n, n);  // top
  addRectangle(mesh, c, {0, 0, 0}, {a, 0, 0}, {0, 0, a}, n, n);  // front
  addRectangle(mesh, c, {0, a, 0}, {a, 0, 0}, {0, 0, a}, n, n);  // back
  addRectangle(mesh, c, {0, 0, 0}, {0, a, 0}, {0, 0, a}, n, n);  // left
  addRectangle(mesh, c, {a, 0, 0}, {0, a, 0}, {0, 0, a}, n, n);  // right
  return mesh;
}

PanelMesh makeBusCrossing(std::size_t count, Real width, Real pitch,
                          Real length, Real layerGap,
                          std::size_t panelsAlong) {
  PanelMesh mesh;
  for (std::size_t k = 0; k < count; ++k) {
    const int c = mesh.addConductor("mx" + std::to_string(k));
    const Real y0 = static_cast<Real>(k) * pitch;
    addRectangle(mesh, c, {0, y0, 0}, {length, 0, 0}, {0, width, 0},
                 panelsAlong, 1);
  }
  for (std::size_t k = 0; k < count; ++k) {
    const int c = mesh.addConductor("my" + std::to_string(k));
    const Real x0 = static_cast<Real>(k) * pitch;
    addRectangle(mesh, c, {x0, 0, layerGap}, {width, 0, 0}, {0, length, 0}, 1,
                 panelsAlong);
  }
  return mesh;
}

PanelMesh makeResonatorAssembly(std::size_t n) {
  PanelMesh mesh;
  // Millimeter-scale assembly: ground plate 10 × 10 mm, two resonator
  // plates 3 × 3 mm at height 1 mm, and a narrow 4 × 0.5 mm coupling line
  // between them at height 1.5 mm.
  const Real s = 1e-3;  // mm → m
  const int g = mesh.addConductor("ground");
  addRectangle(mesh, g, {0, 0, 0}, {10 * s, 0, 0}, {0, 10 * s, 0}, 2 * n,
               2 * n);
  const int r1 = mesh.addConductor("res1");
  addRectangle(mesh, r1, {1 * s, 3.5 * s, 1 * s}, {3 * s, 0, 0},
               {0, 3 * s, 0}, n, n);
  const int r2 = mesh.addConductor("res2");
  addRectangle(mesh, r2, {6 * s, 3.5 * s, 1 * s}, {3 * s, 0, 0},
               {0, 3 * s, 0}, n, n);
  const int ln = mesh.addConductor("coupler");
  addRectangle(mesh, ln, {3 * s, 4.75 * s, 1.5 * s}, {4 * s, 0, 0},
               {0, 0.5 * s, 0}, std::max<std::size_t>(2, 2 * n), 1);
  return mesh;
}

}  // namespace rfic::extraction
