#include "rom/linear_system.hpp"

namespace rfic::rom {

Complex DescriptorSystem::transferFunction(Complex s) const {
  sparse::CTriplets a(n, n);
  for (const auto& e : G.entries()) a.add(e.row, e.col, Complex(e.value, 0.0));
  for (const auto& e : C.entries()) a.add(e.row, e.col, s * e.value);
  const sparse::CSymbolicLU lu{sparse::CCSR(a)};
  CVec rhs(n);
  for (std::size_t i = 0; i < n; ++i) rhs[i] = b[i];
  const CVec x = lu.solve(rhs);
  Complex y = 0;
  for (std::size_t i = 0; i < n; ++i) y += l[i] * x[i];
  return y;
}

namespace {

sparse::RCSR shifted(const DescriptorSystem& sys, Real s0) {
  sparse::RTriplets k(sys.n, sys.n);
  for (const auto& e : sys.G.entries()) k.add(e.row, e.col, e.value);
  for (const auto& e : sys.C.entries()) k.add(e.row, e.col, s0 * e.value);
  return sparse::RCSR(k);
}

}  // namespace

ExpansionOperator::ExpansionOperator(const DescriptorSystem& sys, Real s0)
    : sys_(sys), c_(sys.C), k_(shifted(sys, s0)) {
  r_ = k_.solve(sys.b);
}

RVec ExpansionOperator::apply(const RVec& x) const {
  return k_.solve(c_ * x);
}

RVec ExpansionOperator::applyTransposed(const RVec& x) const {
  return c_.transposeMultiply(k_.solveTransposed(x));
}

std::vector<Real> exactMoments(const DescriptorSystem& sys, Real s0,
                               std::size_t count) {
  const ExpansionOperator op(sys, s0);
  std::vector<Real> m;
  m.reserve(count);
  RVec v = op.r();
  for (std::size_t k = 0; k < count; ++k) {
    m.push_back(numeric::dot(sys.l, v));
    if (k + 1 < count) v = op.apply(v);
  }
  return m;
}

DescriptorSystem makeRCLine(std::size_t segments, Real rTotal, Real cTotal) {
  RFIC_REQUIRE(segments >= 1, "makeRCLine: at least one segment");
  DescriptorSystem sys;
  sys.n = segments + 1;
  sys.G = sparse::RTriplets(sys.n, sys.n);
  sys.C = sparse::RTriplets(sys.n, sys.n);
  sys.b = RVec(sys.n);
  sys.l = RVec(sys.n);
  const Real g = static_cast<Real>(segments) / rTotal;
  const Real c = cTotal / static_cast<Real>(segments);
  for (std::size_t k = 0; k < segments; ++k) {
    sys.G.add(k, k, g);
    sys.G.add(k + 1, k + 1, g);
    sys.G.add(k, k + 1, -g);
    sys.G.add(k + 1, k, -g);
    sys.C.add(k + 1, k + 1, c);
  }
  sys.C.add(0, 0, 0.5 * c);  // small input-side load keeps C nonzero there
  sys.G.add(0, 0, g);        // driver source conductance: G nonsingular at DC
  sys.b[0] = 1.0;            // input current at the near end
  sys.l[segments] = 1.0;     // far-end voltage
  return sys;
}

DescriptorSystem makeRLCLine(std::size_t segments, Real rTotal, Real lTotal,
                             Real cTotal) {
  RFIC_REQUIRE(segments >= 1, "makeRLCLine: at least one segment");
  DescriptorSystem sys;
  // Unknowns: node voltages 0..segments, branch currents per segment.
  const std::size_t nv = segments + 1;
  sys.n = nv + segments;
  sys.G = sparse::RTriplets(sys.n, sys.n);
  sys.C = sparse::RTriplets(sys.n, sys.n);
  sys.b = RVec(sys.n);
  sys.l = RVec(sys.n);
  const Real r = rTotal / static_cast<Real>(segments);
  const Real lseg = lTotal / static_cast<Real>(segments);
  const Real c = cTotal / static_cast<Real>(segments);
  for (std::size_t k = 0; k < segments; ++k) {
    const std::size_t br = nv + k;
    // KCL: branch current leaves node k, enters node k+1.
    sys.G.add(k, br, 1.0);
    sys.G.add(k + 1, br, -1.0);
    // Branch: L·di/dt + R·i − (v_k − v_{k+1}) = 0.
    sys.C.add(br, br, lseg);
    sys.G.add(br, br, r);
    sys.G.add(br, k, -1.0);
    sys.G.add(br, k + 1, 1.0);
    sys.C.add(k + 1, k + 1, c);
  }
  sys.C.add(0, 0, 0.5 * c);
  sys.G.add(0, 0, 1.0 / r);  // driver source conductance
  sys.b[0] = 1.0;
  sys.l[segments] = 1.0;
  return sys;
}

DescriptorSystem makeRCTree(std::size_t depth, Real rSeg, Real cSeg) {
  RFIC_REQUIRE(depth >= 1 && depth <= 14, "makeRCTree: depth in [1, 14]");
  // Complete binary tree of RC segments; node 0 is the root (input).
  const std::size_t n = (std::size_t{1} << (depth + 1)) - 1;
  DescriptorSystem sys;
  sys.n = n;
  sys.G = sparse::RTriplets(n, n);
  sys.C = sparse::RTriplets(n, n);
  sys.b = RVec(n);
  sys.l = RVec(n);
  const Real g = 1.0 / rSeg;
  sys.G.add(0, 0, g);  // root termination to ground
  sys.C.add(0, 0, cSeg);
  for (std::size_t k = 0; 2 * k + 2 < n; ++k) {
    for (std::size_t child : {2 * k + 1, 2 * k + 2}) {
      // Vary segment values slightly with position to spread the poles.
      const Real scale = 1.0 + 0.3 * static_cast<Real>(child % 5);
      const Real gc = g / scale;
      sys.G.add(k, k, gc);
      sys.G.add(child, child, gc);
      sys.G.add(k, child, -gc);
      sys.G.add(child, k, -gc);
      sys.C.add(child, child, cSeg * scale);
    }
  }
  sys.b[0] = 1.0;
  sys.l[n - 1] = 1.0;  // deepest leaf
  return sys;
}

}  // namespace rfic::rom
