#include "circuit/semiconductors.hpp"

#include <cmath>

#include "circuit/device_batch.hpp"

// The actual junction math lives in circuit/junction_kernels.hpp — shared
// verbatim with the batched evaluation engine so the two paths are bitwise
// identical. This file only adapts device instances to the kernels.

namespace rfic::circuit {

namespace {
constexpr Real kKT = 1.380649e-23 * 300.0;
}  // namespace

// ---------------------------------------------------------------- Diode

Diode::Diode(std::string name, int anode, int cathode, Params p)
    : Device(std::move(name)), na_(anode), nc_(cathode), p_(p) {
  RFIC_REQUIRE(p_.is > 0, "Diode: is must be positive");
  const Real nvt = p_.n * kVt300;
  vcrit_ = nvt * std::log(nvt / (std::sqrt(2.0) * p_.is));
}

kernels::DiodeParams Diode::kparams() const {
  return {p_.is, p_.n * kVt300, vcrit_, p_.gmin,
          p_.cj0, p_.vj, p_.m, p_.fc, p_.tt};
}

Real Diode::current(Real v) const {
  return kernels::junctionCurrent(v, p_.is, p_.n * kVt300).i + p_.gmin * v;
}

void Diode::stamp(const RVec& x, const RVec* xPrev, Stamp& s) const {
  const Real vRaw = nodeVoltage(x, na_) - nodeVoltage(x, nc_);
  const Real vOld =
      xPrev ? nodeVoltage(*xPrev, na_) - nodeVoltage(*xPrev, nc_) : 0.0;
  const kernels::DiodeOut o =
      kernels::diodeEval(kparams(), vRaw, vOld, xPrev != nullptr);
  s.addF(na_, o.i);
  s.addF(nc_, -o.i);
  if (o.q != 0 || o.c != 0) {
    s.addQ(na_, o.q);
    s.addQ(nc_, -o.q);
  }
  if (s.wantMatrices()) {
    s.addG(na_, na_, o.g);
    s.addG(na_, nc_, -o.g);
    s.addG(nc_, na_, -o.g);
    s.addG(nc_, nc_, o.g);
    if (o.c != 0) {
      s.addC(na_, na_, o.c);
      s.addC(na_, nc_, -o.c);
      s.addC(nc_, na_, -o.c);
      s.addC(nc_, nc_, o.c);
    }
  }
}

void Diode::compileBatch(BatchCompiler& bc) const {
  bc.diode(na_, nc_, kparams());
}

void Diode::noiseSources(const RVec& x, std::vector<NoiseSource>& out) const {
  const Real v = nodeVoltage(x, na_) - nodeVoltage(x, nc_);
  const Real i =
      std::abs(kernels::junctionCurrent(v, p_.is, p_.n * kVt300).i);
  NoiseSource n;
  n.nodePlus = na_;
  n.nodeMinus = nc_;
  n.white = 2.0 * kQElectron * i;
  n.flicker = p_.kf * std::pow(i, p_.af);
  n.label = name() + ".shot";
  out.push_back(n);
}

// ------------------------------------------------------------------ BJT

BJT::BJT(std::string name, int collector, int base, int emitter, Params p,
         Type type)
    : Device(std::move(name)),
      nc_(collector),
      nb_(base),
      ne_(emitter),
      p_(p),
      type_(type) {
  RFIC_REQUIRE(p_.is > 0 && p_.bf > 0 && p_.br > 0, "BJT: bad parameters");
  vcrit_ = kVt300 * std::log(kVt300 / (std::sqrt(2.0) * p_.is));
}

kernels::BJTParams BJT::kparams() const {
  return {p_.is, p_.bf, p_.br, p_.vaf,
          p_.cje, p_.cjc, p_.vje, p_.mje, p_.vjc, p_.mjc, p_.fc, p_.tf,
          p_.tr, p_.gmin,
          (type_ == Type::npn) ? 1.0 : -1.0, kVt300, vcrit_};
}

void BJT::stamp(const RVec& x, const RVec* xPrev, Stamp& s) const {
  const Real vb = nodeVoltage(x, nb_);
  const Real ve = nodeVoltage(x, ne_);
  const Real vc = nodeVoltage(x, nc_);
  Real vbOld = 0, veOld = 0, vcOld = 0;
  if (xPrev) {
    vbOld = nodeVoltage(*xPrev, nb_);
    veOld = nodeVoltage(*xPrev, ne_);
    vcOld = nodeVoltage(*xPrev, nc_);
  }
  const kernels::BJTOut o =
      kernels::bjtEval(kparams(), vb, ve, vc, vbOld, veOld, vcOld,
                       xPrev != nullptr, s.wantMatrices());

  s.addF(nc_, o.fC);
  s.addF(nb_, o.fB);
  s.addF(ne_, o.fE);
  s.addQ(nb_, o.qB);
  s.addQ(ne_, o.qE);
  s.addQ(nc_, o.qC);

  if (!s.wantMatrices()) return;

  // Kernel block layout: G rows (collector, base, emitter), C rows (base,
  // emitter, collector), columns (base, emitter, collector).
  const int gRows[3] = {nc_, nb_, ne_};
  for (int r = 0; r < 3; ++r) {
    s.addG(gRows[r], nb_, o.g[3 * r + 0]);
    s.addG(gRows[r], ne_, o.g[3 * r + 1]);
    s.addG(gRows[r], nc_, o.g[3 * r + 2]);
  }
  const int cRows[3] = {nb_, ne_, nc_};
  for (int r = 0; r < 3; ++r) {
    s.addC(cRows[r], nb_, o.c[3 * r + 0]);
    s.addC(cRows[r], ne_, o.c[3 * r + 1]);
    s.addC(cRows[r], nc_, o.c[3 * r + 2]);
  }
}

void BJT::compileBatch(BatchCompiler& bc) const {
  bc.bjt(nc_, nb_, ne_, kparams());
}

void BJT::noiseSources(const RVec& x, std::vector<NoiseSource>& out) const {
  const Real sign = (type_ == Type::npn) ? 1.0 : -1.0;
  const Real vbe = sign * (nodeVoltage(x, nb_) - nodeVoltage(x, ne_));
  const Real vbc = sign * (nodeVoltage(x, nb_) - nodeVoltage(x, nc_));
  const auto fwd = kernels::junctionCurrent(vbe, p_.is, kVt300);
  const auto rev = kernels::junctionCurrent(vbc, p_.is, kVt300);
  const Real ic = std::abs(fwd.i - rev.i);
  const Real ib = std::abs(fwd.i / p_.bf + rev.i / p_.br);

  NoiseSource nc;
  nc.nodePlus = nc_;
  nc.nodeMinus = ne_;
  nc.white = 2.0 * kQElectron * ic;
  nc.label = name() + ".shot_ic";
  out.push_back(nc);

  NoiseSource nb;
  nb.nodePlus = nb_;
  nb.nodeMinus = ne_;
  nb.white = 2.0 * kQElectron * ib;
  nb.flicker = p_.kf * std::pow(ib, p_.af);
  nb.label = name() + ".shot_ib";
  out.push_back(nb);
}

// --------------------------------------------------------------- MOSFET

MOSFET::MOSFET(std::string name, int drain, int gate, int source, Params p,
               Type type)
    : Device(std::move(name)), nd_(drain), ng_(gate), ns_(source), p_(p),
      type_(type) {
  RFIC_REQUIRE(p_.kp > 0, "MOSFET: kp must be positive");
}

kernels::MOSFETParams MOSFET::kparams() const {
  return {p_.vt0, p_.kp, p_.lambda, p_.cgs, p_.cgd, p_.gmin,
          (type_ == Type::nmos) ? 1.0 : -1.0};
}

void MOSFET::stamp(const RVec& x, const RVec* xPrev, Stamp& s) const {
  const Real vd = nodeVoltage(x, nd_);
  const Real vg = nodeVoltage(x, ng_);
  const Real vs = nodeVoltage(x, ns_);
  Real vdOld = 0, vgOld = 0, vsOld = 0;
  if (xPrev) {
    vdOld = nodeVoltage(*xPrev, nd_);
    vgOld = nodeVoltage(*xPrev, ng_);
    vsOld = nodeVoltage(*xPrev, ns_);
  }
  const kernels::MOSFETOut o =
      kernels::mosfetEval(kparams(), vd, vg, vs, vdOld, vgOld, vsOld,
                          xPrev != nullptr, s.wantMatrices());

  s.addF(nd_, o.i);
  s.addF(ns_, -o.i);

  // Fixed overlap capacitances (linear).
  if (p_.cgs > 0) {
    s.addQ(ng_, o.qGS);
    s.addQ(ns_, -o.qGS);
  }
  if (p_.cgd > 0) {
    s.addQ(ng_, o.qGD);
    s.addQ(nd_, -o.qGD);
  }

  if (!s.wantMatrices()) return;

  s.addG(nd_, ng_, o.g[0]);
  s.addG(nd_, nd_, o.g[1]);
  s.addG(nd_, ns_, o.g[2]);
  s.addG(ns_, ng_, o.g[3]);
  s.addG(ns_, nd_, o.g[4]);
  s.addG(ns_, ns_, o.g[5]);

  if (p_.cgs > 0) {
    s.addC(ng_, ng_, p_.cgs);
    s.addC(ng_, ns_, -p_.cgs);
    s.addC(ns_, ng_, -p_.cgs);
    s.addC(ns_, ns_, p_.cgs);
  }
  if (p_.cgd > 0) {
    s.addC(ng_, ng_, p_.cgd);
    s.addC(ng_, nd_, -p_.cgd);
    s.addC(nd_, ng_, -p_.cgd);
    s.addC(nd_, nd_, p_.cgd);
  }
}

void MOSFET::compileBatch(BatchCompiler& bc) const {
  bc.mosfet(nd_, ng_, ns_, kparams());
}

void MOSFET::noiseSources(const RVec& x, std::vector<NoiseSource>& out) const {
  const Real sign = (type_ == Type::nmos) ? 1.0 : -1.0;
  Real vgs = sign * (nodeVoltage(x, ng_) - nodeVoltage(x, ns_));
  Real vds = sign * (nodeVoltage(x, nd_) - nodeVoltage(x, ns_));
  if (vds < 0) {
    const Real v = vgs - vds;
    vds = -vds;
    vgs = v;
  }
  const kernels::MOSFETOpPoint op =
      kernels::mosfetCurrent(vgs, vds, p_.kp, p_.vt0, p_.lambda);
  NoiseSource n;
  n.nodePlus = nd_;
  n.nodeMinus = ns_;
  n.white = 8.0 / 3.0 * kKT * op.gm;  // channel thermal noise
  n.flicker = p_.kf * std::pow(std::abs(op.id), p_.af);
  n.label = name() + ".channel";
  out.push_back(n);
}

}  // namespace rfic::circuit
