// Electrostatic panel kernel: exact potential of a uniformly charged
// rectangle at an arbitrary field point (the collocation kernel of the
// method-of-moments solver — Section 4's integral-equation formulation).
#pragma once

#include <cstddef>
#include <vector>

#include "extraction/geometry.hpp"
#include "extraction/kernel.hpp"

namespace rfic::extraction {

inline constexpr Real kEps0 = 8.8541878128e-12;

/// Potential at `point` due to `panel` carrying unit *total* charge
/// (1 C spread uniformly over the panel), in vacuum.
/// Closed-form evaluation of ∫∫ dA' / (4πε₀ |r − r'|), stable for field
/// points on, near, and far from the panel (including its own centroid —
/// the self term).
Real panelPotential(const Panel& panel, const Vec3& point);

/// Precomputed local frame of a source panel: orthonormal edge directions,
/// normal, edge lengths, and the 1/(4πε₀·la·lb) charge-density scale. The
/// frame is everything `panelPotential` derives from the panel itself, so
/// evaluating one source against a span of field points costs only the
/// four corner terms per point.
struct PanelFrame {
  Vec3 corner;
  Vec3 ea, eb, en;  ///< unit edge directions and normal
  Real la = 0, lb = 0;
  Real scale = 0;   ///< 1/(4πε₀·la·lb)
};

PanelFrame makePanelFrame(const Panel& panel);
Real panelPotential(const PanelFrame& frame, const Vec3& point);

/// Batched MoM collocation kernel over a fixed mesh:
/// entry(i, j) = potential at the centroid of panel i per unit total
/// charge on panel j. All panel frames and centroids are cached at
/// construction, so row/column sweeps are tight loops with no per-entry
/// setup and no virtual dispatch inside the span — the entry path the
/// IES³ ACA sampler and dense-leaf fill run on.
class PanelPotentialKernel final : public EntryKernel {
 public:
  explicit PanelPotentialKernel(const PanelMesh& mesh);

  std::size_t size() const { return frames_.size(); }
  const Vec3& centroid(std::size_t i) const { return centroids_[i]; }

  Real entry(std::size_t i, std::size_t j) const override {
    return panelPotential(frames_[j], centroids_[i]);
  }
  void row(std::size_t i, const std::size_t* cols, std::size_t n,
           Real* out) const override;
  void column(std::size_t j, const std::size_t* rows, std::size_t m,
              Real* out) const override;

 private:
  std::vector<PanelFrame> frames_;
  std::vector<Vec3> centroids_;
};

}  // namespace rfic::extraction
