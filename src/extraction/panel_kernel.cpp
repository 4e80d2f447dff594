#include "extraction/panel_kernel.hpp"

#include <cmath>

namespace rfic::extraction {

namespace {

// Stable log(v + r) where r = sqrt(u² + v² + z²): for v < 0 use the
// identity v + r = (u² + z²)/(r − v) to avoid catastrophic cancellation.
Real stableLogVR(Real v, Real r, Real u2z2) {
  if (v >= 0) return std::log(v + r);
  const Real denom = r - v;
  if (u2z2 <= 0 || denom <= 0) return -700.0;  // point on the edge line
  return std::log(u2z2 / denom);
}

// Indefinite integral I(u,v) of 1/sqrt(u²+v²+z²) du dv:
//   I = u·ln(v+r) + v·ln(u+r) − z·atan2(u·v, z·r)
Real cornerTerm(Real u, Real v, Real z) {
  const Real r = std::sqrt(u * u + v * v + z * z);
  Real s = 0;
  if (u != 0) s += u * stableLogVR(v, r, u * u + z * z);
  if (v != 0) s += v * stableLogVR(u, r, v * v + z * z);
  if (z != 0) s -= z * std::atan2(u * v, z * r);
  return s;
}

}  // namespace

PanelFrame makePanelFrame(const Panel& panel) {
  PanelFrame f;
  f.la = panel.edgeA.norm();
  f.lb = panel.edgeB.norm();
  RFIC_REQUIRE(f.la > 0 && f.lb > 0, "panelPotential: degenerate panel");
  f.corner = panel.corner;
  f.ea = panel.edgeA * (1.0 / f.la);
  f.eb = panel.edgeB * (1.0 / f.lb);
  f.en = f.ea.cross(f.eb);
  // Unit total charge → density 1/(la·lb).
  f.scale = 1.0 / (4.0 * kPi * kEps0 * f.la * f.lb);
  return f;
}

Real panelPotential(const PanelFrame& f, const Vec3& point) {
  const Vec3 d = point - f.corner;
  const Real x = d.dot(f.ea);
  const Real y = d.dot(f.eb);
  // The potential is even in the normal offset; folding to z ≥ 0 keeps the
  // atan2 term on its principal branch.
  const Real z = std::abs(d.dot(f.en));

  // ∫₀^la ∫₀^lb dx'dy'/|r−r'| = Σ± I(x−x', y−y', z) at the four corners.
  const Real u1 = x - f.la, u2 = x;
  const Real v1 = y - f.lb, v2 = y;
  const Real integral = cornerTerm(u2, v2, z) - cornerTerm(u1, v2, z) -
                        cornerTerm(u2, v1, z) + cornerTerm(u1, v1, z);
  return integral * f.scale;
}

Real panelPotential(const Panel& panel, const Vec3& point) {
  return panelPotential(makePanelFrame(panel), point);
}

PanelPotentialKernel::PanelPotentialKernel(const PanelMesh& mesh) {
  const std::size_t n = mesh.panels.size();
  frames_.reserve(n);
  centroids_.reserve(n);
  for (const Panel& p : mesh.panels) {
    frames_.push_back(makePanelFrame(p));
    centroids_.push_back(p.centroid());
  }
}

void PanelPotentialKernel::row(std::size_t i, const std::size_t* cols,
                               std::size_t n, Real* out) const {
  const Vec3& target = centroids_[i];
  for (std::size_t t = 0; t < n; ++t)
    out[t] = panelPotential(frames_[cols[t]], target);
}

void PanelPotentialKernel::column(std::size_t j, const std::size_t* rows,
                                  std::size_t m, Real* out) const {
  const PanelFrame& frame = frames_[j];
  for (std::size_t t = 0; t < m; ++t)
    out[t] = panelPotential(frame, centroids_[rows[t]]);
}

}  // namespace rfic::extraction
