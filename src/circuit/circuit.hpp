// Circuit representation: nodes, extra branch unknowns, and the device
// interface used by every analysis in the library.
//
// The library represents a circuit by the charge-oriented MNA
// differential-algebraic equation of the paper's Section 2:
//
//     d/dt q(x) + f(x) = b(t)                                   (3)
//
// where x collects node voltages and branch currents, q the charge/flux
// terms, f the resistive terms, and b the independent excitations. Every
// analysis — DC, transient, AC, noise, shooting, harmonic balance, and the
// multi-time MPDE methods — is built on evaluations of (f, q, b) and the
// Jacobians G = ∂f/∂x and C = ∂q/∂x supplied by the devices.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "numeric/dense.hpp"
#include "sparse/sparse_matrix.hpp"

namespace rfic::circuit {

using numeric::RVec;

/// Which time axis a source belongs to when a circuit is analyzed in the
/// bivariate (multi-time) setting of Section 2.2. Slow sources read t1,
/// fast sources read t2; in ordinary univariate analyses t1 == t2 == t and
/// the distinction disappears.
enum class TimeAxis { slow, fast };

/// Accumulation target handed to Device::stamp(). Rows/columns < 0 denote
/// the ground node and are silently dropped.
///
/// Matrix stamps (MnaWorkspace) accumulate directly into preallocated value
/// arrays over a cached CSR sparsity pattern; a stamp at a position absent
/// from the pattern is diverted to an overflow triplet list so the caller
/// can grow the pattern and re-evaluate (devices like the diode stamp some
/// positions conditionally, and pattern discovery itself starts from the
/// diagonal alone). A Stamp built without a PatternTarget is vector-only.
class Stamp {
 public:
  /// Pattern-mode target: G and C share one CSR pattern; values land in
  /// gVals/cVals by CSR position, misses in the overflow triplets.
  struct PatternTarget {
    const sparse::RCSR* pattern = nullptr;
    std::vector<Real>* gVals = nullptr;
    std::vector<Real>* cVals = nullptr;
    sparse::RTriplets* gOverflow = nullptr;
    sparse::RTriplets* cOverflow = nullptr;
  };

  /// Vector-only target: f, q and b; matrix stamps are dropped.
  Stamp(RVec& f, RVec& q, RVec& b, Real t1, Real t2)
      : f_(f), q_(q), b_(b), t1_(t1), t2_(t2) {}

  Stamp(RVec& f, RVec& q, RVec& b, const PatternTarget& pt, Real t1, Real t2)
      : f_(f), q_(q), b_(b), pt_(&pt), t1_(t1), t2_(t2) {}

  /// Time seen by sources on the given axis.
  Real time(TimeAxis axis) const { return axis == TimeAxis::fast ? t2_ : t1_; }
  Real slowTime() const { return t1_; }
  Real fastTime() const { return t2_; }
  bool wantMatrices() const { return pt_ != nullptr; }

  void addF(int row, Real v) {
    if (row >= 0) f_[static_cast<std::size_t>(row)] += v;
  }
  void addQ(int row, Real v) {
    if (row >= 0) q_[static_cast<std::size_t>(row)] += v;
  }
  void addB(int row, Real v) {
    if (row >= 0) b_[static_cast<std::size_t>(row)] += v;
  }
  /// ∂f/∂x entry.
  void addG(int row, int col, Real v) {
    if (row < 0 || col < 0) return;
    const auto r = static_cast<std::size_t>(row);
    const auto c = static_cast<std::size_t>(col);
    if (pt_) patternAdd(*pt_->gVals, *pt_->gOverflow, r, c, v);
  }
  /// ∂q/∂x entry.
  void addC(int row, int col, Real v) {
    if (row < 0 || col < 0) return;
    const auto r = static_cast<std::size_t>(row);
    const auto c = static_cast<std::size_t>(col);
    if (pt_) patternAdd(*pt_->cVals, *pt_->cOverflow, r, c, v);
  }

 private:
  void patternAdd(std::vector<Real>& vals, sparse::RTriplets& overflow,
                  std::size_t r, std::size_t c, Real v) {
    const auto& rp = pt_->pattern->rowPtr();
    const auto& ci = pt_->pattern->colIdx();
    // Binary search for c within row r of the sorted pattern.
    std::size_t lo = rp[r], hi = rp[r + 1];
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (ci[mid] < c)
        lo = mid + 1;
      else
        hi = mid;
    }
    if (lo < rp[r + 1] && ci[lo] == c)
      vals[lo] += v;
    else
      overflow.add(r, c, v);
  }

  RVec& f_;
  RVec& q_;
  RVec& b_;
  const PatternTarget* pt_ = nullptr;
  Real t1_, t2_;
};

/// One device noise generator: a stochastic current injected between two
/// unknowns, with PSD  S(f) = white + flicker/f  (A²/Hz, one-sided),
/// evaluated at the instantaneous operating point. Along a periodic steady
/// state the operating-point dependence is what makes the noise
/// cyclostationary (Section 3).
struct NoiseSource {
  int nodePlus = -1;
  int nodeMinus = -1;
  Real white = 0;
  Real flicker = 0;
  std::string label;
};

/// Voltage read from the unknown vector, ground mapped to 0.
inline Real nodeVoltage(const RVec& x, int node) {
  return node >= 0 ? x[static_cast<std::size_t>(node)] : 0.0;
}

class BatchCompiler;  // see circuit/device_batch.hpp

/// Base class of all circuit elements.
class Device {
 public:
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const std::string& name() const { return name_; }

  /// Accumulate the device's contribution to f, q, b (and G, C when
  /// s.wantMatrices()). `xPrev` is the previous Newton iterate, used by
  /// junction devices for SPICE-style voltage limiting; it may be null.
  virtual void stamp(const RVec& x, const RVec* xPrev, Stamp& s) const = 0;

  /// Register this device with the batched evaluation engine (see
  /// circuit/device_batch.hpp). A device that registers nothing keeps its
  /// virtual stamp() — the batch engine calls it per evaluation in original
  /// device order, so exotic devices stay correct without a compiled form.
  virtual void compileBatch(BatchCompiler& bc) const { (void)bc; }

  /// Append this device's noise generators at operating point x.
  virtual void noiseSources(const RVec& x,
                            std::vector<NoiseSource>& out) const {
    (void)x;
    (void)out;
  }

 private:
  std::string name_;
};

/// A circuit: a set of named nodes, extra branch unknowns, and devices.
/// Unknown indices are assigned in creation order; ground is index -1.
class Circuit {
 public:
  /// Get-or-create a named node. "0", "gnd", and "GND" map to ground (-1).
  int node(std::string_view name);
  /// Allocate an anonymous branch-current unknown (inductors, V-sources).
  int allocBranch(const std::string& label);

  std::size_t numUnknowns() const { return unknownNames_.size(); }
  const std::string& unknownName(std::size_t i) const {
    return unknownNames_[i];
  }
  /// Index of an existing named node; throws if absent.
  int findNode(const std::string& name) const;
  /// Non-throwing lookup: the node's unknown index, kGround (-1) for the
  /// ground aliases, or kNoSuchNode (-2) when absent. Validation layers
  /// (the engine's .print/.noise checks) use this to reject unknown nodes
  /// with a diagnostic instead of an exception or an out-of-bounds index.
  int lookupNode(std::string_view name) const;

  static constexpr int kGround = -1;
  static constexpr int kNoSuchNode = -2;

  /// Construct a device in place and take ownership.
  template <class D, class... Args>
  D& add(Args&&... args) {
    auto dev = std::make_unique<D>(std::forward<Args>(args)...);
    D& ref = *dev;
    devices_.push_back(std::move(dev));
    return ref;
  }

  const std::vector<std::unique_ptr<Device>>& devices() const {
    return devices_;
  }

 private:
  std::vector<std::string> unknownNames_;
  /// Lets nodeIndex_ look a string_view up without building a string.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  /// node name -> unknown
  std::unordered_map<std::string, int, NameHash, std::equal_to<>> nodeIndex_;
  std::vector<std::unique_ptr<Device>> devices_;
};

}  // namespace rfic::circuit
