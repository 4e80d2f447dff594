// Shared semiconductor evaluation kernels — the single source of truth for
// the diode / Ebers–Moll BJT / square-law MOSFET math.
//
// Both evaluation paths call these exact inline functions:
//
//   - the scalar golden path (Diode/BJT/MOSFET::stamp virtual dispatch), and
//   - the batched SoA path (circuit/device_batch.*), which runs them in a
//     flat loop over per-class parameter tables.
//
// Routing both paths through one definition is what makes the
// `--no-batch-eval` toggle bitwise-safe: the compiler sees a single body, so
// FP contraction and instruction selection cannot diverge between the two
// copies of "the same" formula. The kernels are written branch-minimal and
// as pure elementwise maps (no cross-instance reductions), so the batch
// loop vectorizes where the hardware allows without changing per-element
// results; std::exp/std::pow stay scalar libm calls, which is exactly what
// the scalar path executes.
//
// The numerics-lint `scalar-exp` rule fences std::exp out of the rest of
// src/circuit — new device math belongs here, next to the limiting helpers.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

#include "common.hpp"

namespace rfic::circuit::kernels {

/// True when a limiter handed back a voltage other than the one it was
/// given, compared by bits: then the rest of the evaluation differs from
/// the unlimited one. Equal bits mean it is the unlimited evaluation.
inline bool moved(Real limited, Real raw) {
  return std::bit_cast<std::uint64_t>(limited) !=
         std::bit_cast<std::uint64_t>(raw);
}

/// Beyond this junction voltage the exponential is continued linearly to
/// keep Newton iterates finite.
inline constexpr Real kExpLimit = 80.0;

/// exp(v/nvt) with linear continuation, plus derivative.
struct JunctionExp {
  Real i;   ///< Is*(exp-1)
  Real gd;  ///< dI/dv
};
inline JunctionExp junctionCurrent(Real v, Real is, Real nvt) {
  JunctionExp out;
  const Real arg = v / nvt;
  if (arg > kExpLimit) {
    const Real e = std::exp(kExpLimit);
    out.i = is * (e * (1.0 + (arg - kExpLimit)) - 1.0);
    out.gd = is * e / nvt;
  } else if (arg < -kExpLimit) {
    out.i = -is;
    out.gd = 0.0;
  } else {
    const Real e = std::exp(arg);
    out.i = is * (e - 1.0);
    out.gd = is * e / nvt;
  }
  return out;
}

/// Depletion charge and capacitance of a graded junction with SPICE's
/// linearization above fc*vj.
struct JunctionCharge {
  Real q, c;
};
inline JunctionCharge depletionCharge(Real v, Real cj0, Real vj, Real m,
                                      Real fc) {
  JunctionCharge out{0, 0};
  if (cj0 <= 0) return out;
  const Real vth = fc * vj;
  if (v < vth) {
    const Real u = 1.0 - v / vj;
    const Real um = std::pow(u, -m);
    out.c = cj0 * um;
    out.q = cj0 * vj / (1.0 - m) * (1.0 - u * um);  // = cj0*vj/(1-m)*(1-u^{1-m})
  } else {
    // Linear continuation with matching value and slope at vth.
    const Real u = 1.0 - fc;
    const Real um = std::pow(u, -m);
    const Real cAt = cj0 * um;
    const Real qAt = cj0 * vj / (1.0 - m) * (1.0 - u * um);
    const Real dcdv = cj0 * m / vj * std::pow(u, -m - 1.0);
    const Real dv = v - vth;
    out.c = cAt + dcdv * dv;
    out.q = qAt + cAt * dv + 0.5 * dcdv * dv * dv;
  }
  return out;
}

/// SPICE pnjlim: limit a junction-voltage Newton step to the region where
/// the exponential is well-behaved.
inline Real pnjLimit(Real vNew, Real vOld, Real vt, Real vcrit) {
  if (vNew > vcrit && std::abs(vNew - vOld) > 2.0 * vt) {
    if (vOld > 0) {
      const Real arg = 1.0 + (vNew - vOld) / vt;
      vNew = (arg > 0) ? vOld + vt * std::log(arg) : vcrit;
    } else {
      vNew = vt * std::log(vNew / vt);
    }
  }
  return vNew;
}

/// SPICE DEVfetlim: damp a gate-drive Newton step around the threshold
/// voltage. Far above threshold the square law is locally quadratic and a
/// large step overshoots wildly; near/below threshold steps may move freely
/// so cutoff devices can still turn on in one iteration.
inline Real fetLimit(Real vNew, Real vOld, Real vto) {
  const Real vtsthi = std::abs(2.0 * (vOld - vto)) + 2.0;
  const Real vtstlo = 0.5 * vtsthi + 2.0;
  const Real vtox = vto + 3.5;
  const Real delv = vNew - vOld;
  if (vOld >= vto) {
    if (vOld >= vtox) {
      if (delv <= 0) {
        // Going off.
        if (vNew >= vtox) {
          if (-delv > vtstlo) vNew = vOld - vtstlo;
        } else {
          vNew = std::max(vNew, vto + 2.0);
        }
      } else {
        // Staying on.
        if (delv >= vtsthi) vNew = vOld + vtsthi;
      }
    } else {
      // Middle region.
      if (delv <= 0)
        vNew = std::max(vNew, vto - 0.5);
      else
        vNew = std::min(vNew, vto + 4.0);
    }
  } else {
    // Off.
    if (delv <= 0) {
      if (-delv > vtsthi) vNew = vOld - vtsthi;
    } else {
      const Real vtemp = vto + 0.5;
      if (vNew <= vtemp) {
        if (delv > vtstlo) vNew = vOld + vtstlo;
      } else {
        vNew = vtemp;
      }
    }
  }
  return vNew;
}

/// SPICE limvds: damp a drain-swing Newton step. Large vds steps are cut to
/// a growth factor; steps crossing toward/below zero are clamped so the
/// triode/saturation branch cannot flip across the whole swing at once.
inline Real vdsLimit(Real vNew, Real vOld) {
  if (vOld >= 3.5) {
    if (vNew > vOld) {
      vNew = std::min(vNew, 3.0 * vOld + 2.0);
    } else if (vNew < 3.5) {
      vNew = std::max(vNew, 2.0);
    }
  } else {
    if (vNew > vOld)
      vNew = std::min(vNew, 4.0);
    else
      vNew = std::max(vNew, -0.5);
  }
  return vNew;
}

// ---------------------------------------------------------------- Diode

/// Instance parameters in evaluation form (nvt/vcrit precomputed).
struct DiodeParams {
  Real is, nvt, vcrit, gmin;
  Real cj0, vj, m, fc, tt;
};

/// One diode's stamp values: branch current/conductance and charge/cap.
/// `limited`: the limiter moved the junction voltage, so the values differ
/// from the unlimited evaluation at the same state; when false they are
/// bitwise the unlimited ones.
struct DiodeOut {
  Real i, g, q, c;
  bool limited;
};

/// Full diode evaluation at anode-cathode voltage vRaw with SPICE limiting
/// against the previous-iterate voltage vOld (applied only when `limit`).
inline DiodeOut diodeEval(const DiodeParams& p, Real vRaw, Real vOld,
                          bool limit) {
  Real v = vRaw;
  if (limit) v = pnjLimit(v, vOld, p.nvt, p.vcrit);
  // Evaluate at the limited voltage and extend linearly to the raw iterate
  // (SPICE convention): keeps the Newton residual consistent with the
  // Jacobian while the exponential is tamed.
  const JunctionExp je = junctionCurrent(v, p.is, p.nvt);
  const Real idio = je.i + je.gd * (vRaw - v);
  const JunctionCharge jc = depletionCharge(v, p.cj0, p.vj, p.m, p.fc);
  DiodeOut o;
  o.i = idio + p.gmin * vRaw;
  o.g = je.gd + p.gmin;
  o.q = jc.q + p.tt * idio;
  o.c = jc.c + p.tt * je.gd;
  o.limited = moved(v, vRaw);
  return o;
}

// ------------------------------------------------------------------ BJT

struct BJTParams {
  Real is, bf, br, vaf;
  Real cje, cjc, vje, mje, vjc, mjc, fc, tf, tr;
  Real gmin;
  Real sign;   ///< +1 npn, −1 pnp
  Real vt;     ///< thermal voltage (kVt300)
  Real vcrit;
};

/// One BJT's stamp values. Node currents/charges are the exact addF/addQ
/// arguments; the 3×3 G/C blocks are laid out row-major in the scalar
/// emission order — G rows (collector, base, emitter), C rows (base,
/// emitter, collector), columns (base, emitter, collector) in both.
/// `limited` as in DiodeOut: either junction voltage was moved.
struct BJTOut {
  Real fC, fB, fE;
  Real qB, qE, qC;
  Real g[9];
  Real c[9];
  bool limited;
};

inline BJTOut bjtEval(const BJTParams& p, Real vbRaw, Real veRaw, Real vcRaw,
                      Real vbOld, Real veOld, Real vcOld, bool limit,
                      bool wantMatrices) {
  // PNP handled by polarity reversal of both junction voltages and all
  // resulting currents/charges.
  const Real sign = p.sign;
  const Real vbeRaw = sign * (vbRaw - veRaw);
  const Real vbcRaw = sign * (vbRaw - vcRaw);
  Real vbe = vbeRaw, vbc = vbcRaw;
  if (limit) {
    const Real vbeOld = sign * (vbOld - veOld);
    const Real vbcOld = sign * (vbOld - vcOld);
    vbe = pnjLimit(vbe, vbeOld, p.vt, p.vcrit);
    vbc = pnjLimit(vbc, vbcOld, p.vt, p.vcrit);
  }

  // Junction currents at the limited voltages, extended linearly to the raw
  // iterate (SPICE convention — keeps residual and Jacobian consistent).
  JunctionExp fwd = junctionCurrent(vbe, p.is, p.vt);  // Icc
  JunctionExp rev = junctionCurrent(vbc, p.is, p.vt);  // Iec
  fwd.i += fwd.gd * (vbeRaw - vbe);
  rev.i += rev.gd * (vbcRaw - vbc);

  // Early effect on the transport current only: the SPICE first-order form
  // Ict = (Icc − Iec)·(1 − vbc/vaf); vbc < 0 in forward-active, so the
  // factor exceeds 1 and grows with collector swing.
  Real kq = 1.0, dkq_dvbc = 0.0;
  if (p.vaf > 0) {
    kq = 1.0 - vbc / p.vaf;
    dkq_dvbc = -1.0 / p.vaf;
  }
  const Real ict = kq * (fwd.i - rev.i);
  const Real ib = fwd.i / p.bf + rev.i / p.br + p.gmin * (vbeRaw + vbcRaw);
  const Real icStd = ict - rev.i / p.br - p.gmin * vbcRaw;
  const Real ieStd = -ict - fwd.i / p.bf - p.gmin * vbeRaw;

  BJTOut o;
  o.limited = moved(vbe, vbeRaw) || moved(vbc, vbcRaw);
  o.fC = sign * icStd;
  o.fB = sign * ib;
  o.fE = sign * ieStd;

  const JunctionCharge qbeJ = depletionCharge(vbe, p.cje, p.vje, p.mje, p.fc);
  const JunctionCharge qbcJ = depletionCharge(vbc, p.cjc, p.vjc, p.mjc, p.fc);
  const Real qbe = qbeJ.q + p.tf * fwd.i;
  const Real qbc = qbcJ.q + p.tr * rev.i;
  const Real cbe = qbeJ.c + p.tf * fwd.gd;
  const Real cbc = qbcJ.c + p.tr * rev.gd;
  o.qB = sign * (qbe + qbc);
  o.qE = sign * (-qbe);
  o.qC = sign * (-qbc);

  if (!wantMatrices) {
    for (int k = 0; k < 9; ++k) o.g[k] = o.c[k] = 0.0;
    return o;
  }

  // Derivatives w.r.t. (vbe, vbc); the chain rule to node voltages gives
  // sign² = 1, so the blocks stamp directly in node coordinates. Each row
  // expands (dvbe, dvbc) to columns (base, emitter, collector) as
  // (dvbe+dvbc, −dvbe, −dvbc) — exactly what the scalar stampPair emits.
  const Real dic_dvbe = kq * fwd.gd;
  const Real dic_dvbc =
      dkq_dvbc * (fwd.i - rev.i) - kq * rev.gd - rev.gd / p.br - p.gmin;
  const Real dib_dvbe = fwd.gd / p.bf + p.gmin;
  const Real dib_dvbc = rev.gd / p.br + p.gmin;
  const Real die_dvbe = -kq * fwd.gd - fwd.gd / p.bf - p.gmin;
  const Real die_dvbc = -dkq_dvbc * (fwd.i - rev.i) + kq * rev.gd;

  const auto pair = [](Real* row, Real dvbe, Real dvbc) {
    row[0] = dvbe + dvbc;
    row[1] = -dvbe;
    row[2] = -dvbc;
  };
  pair(o.g + 0, dic_dvbe, dic_dvbc);  // collector row
  pair(o.g + 3, dib_dvbe, dib_dvbc);  // base row
  pair(o.g + 6, die_dvbe, die_dvbc);  // emitter row

  pair(o.c + 0, cbe, cbc);    // base row
  pair(o.c + 3, -cbe, 0.0);   // emitter row
  pair(o.c + 6, 0.0, -cbc);   // collector row
  return o;
}

// --------------------------------------------------------------- MOSFET

struct MOSFETParams {
  Real vt0, kp, lambda, cgs, cgd, gmin;
  Real sign;  ///< +1 nmos, −1 pmos
};

/// Square-law drain current and derivatives for vds >= 0 (type-normalized).
struct MOSFETOpPoint {
  Real id, gm, gds;
};
inline MOSFETOpPoint mosfetCurrent(Real vgs, Real vds, Real kp, Real vt0,
                                   Real lambda) {
  MOSFETOpPoint op{0, 0, 0};
  const Real vov = vgs - vt0;
  if (vov <= 0) return op;  // cutoff
  const Real cl = 1.0 + lambda * vds;
  if (vds < vov) {
    // Triode.
    op.id = kp * (vov * vds - 0.5 * vds * vds) * cl;
    op.gm = kp * vds * cl;
    op.gds = kp * (vov - vds) * cl + kp * (vov * vds - 0.5 * vds * vds) * lambda;
  } else {
    // Saturation.
    op.id = 0.5 * kp * vov * vov * cl;
    op.gm = kp * vov * cl;
    op.gds = 0.5 * kp * vov * vov * lambda;
  }
  return op;
}

/// One MOSFET's stamp values: drain current, overlap charges (valid when
/// cgs/cgd > 0), and the 2×3 conductance block over rows (drain, source) ×
/// columns (gate, drain, source). `limited` as in DiodeOut: the limited
/// (vgs, vds) pair differs from the raw one.
struct MOSFETOut {
  Real i;
  Real qGS, qGD;  ///< cgs·vgsRaw, cgd·vgdRaw
  Real g[6];
  bool limited;
};

inline MOSFETOut mosfetEval(const MOSFETParams& p, Real vdRaw, Real vgRaw,
                            Real vsRaw, Real vdOld, Real vgOld, Real vsOld,
                            bool limit, bool wantMatrices) {
  const Real sign = p.sign;
  const Real vgsRaw = sign * (vgRaw - vsRaw);
  const Real vdsRaw = sign * (vdRaw - vsRaw);
  Real vgs = vgsRaw;
  Real vds = vdsRaw;
  if (limit) {
    // SPICE-style step damping on both controlling voltages: fetLimit keeps
    // the gate drive from overshooting the square law, vdsLimit keeps the
    // drain swing from flipping the triode/saturation branch in one step.
    // When the previous iterate ran source/drain-swapped (vds < 0) the
    // controlling junction is gate-drain, so limit that pair mirrored —
    // otherwise a device settling at negative vds could never reach it.
    const Real vgsOld = sign * (vgOld - vsOld);
    const Real vdsOld = sign * (vdOld - vsOld);
    if (vdsOld >= 0) {
      vgs = fetLimit(vgs, vgsOld, p.vt0);
      vds = vdsLimit(vds, vdsOld);
    } else {
      Real vgd = fetLimit(vgs - vds, vgsOld - vdsOld, p.vt0);
      vds = -vdsLimit(-vds, -vdsOld);
      vgs = vgd + vds;
    }
  }

  // Source-drain symmetry: operate on the terminal pair with vds >= 0.
  bool swapped = false;
  Real vgsEff = vgs, vdsEff = vds;
  if (vds < 0) {
    swapped = true;
    vdsEff = -vds;
    vgsEff = vgs - vds;  // gate-to-(effective source = drain terminal)
  }
  const MOSFETOpPoint op = mosfetCurrent(vgsEff, vdsEff, p.kp, p.vt0, p.lambda);
  const Real idFlow = swapped ? -op.id : op.id;  // current drain->source

  MOSFETOut o;
  // The mirrored branch recombines vgs = vgd + vds, which can round to
  // other bits than the raw vgs even when neither limiter moved anything,
  // so the final pair is what is compared.
  o.limited = moved(vgs, vgsRaw) || moved(vds, vdsRaw);
  o.i = sign * idFlow + sign * p.gmin * vds;

  // Fixed overlap capacitances (linear), on the *raw* node voltages.
  o.qGS = p.cgs * (vgRaw - vsRaw);
  o.qGD = p.cgd * (vgRaw - vdRaw);

  if (!wantMatrices) {
    for (int k = 0; k < 6; ++k) o.g[k] = 0.0;
    return o;
  }

  // Map derivatives back to the unswapped terminals.
  Real gm, gds_eff, gmSrc;  // di/dvg, di/dvd, di/dvs with i = drain current
  if (!swapped) {
    gm = op.gm;
    gds_eff = op.gds;
    gmSrc = -(op.gm + op.gds);
  } else {
    // i = -id(vgs', vds') with vgs' = vgs - vds (gate to real drain),
    // vds' = -vds. d i/d vg = -gm'; d i/d vd = gm' + gds'; chain rule:
    gm = -op.gm;
    gds_eff = op.gm + op.gds;
    gmSrc = -op.gds;
  }
  // Type sign: for PMOS both the controlling voltages and the current flip,
  // so conductances stamp positively in node coordinates (sign²).
  const Real gmin = p.gmin;
  o.g[0] = gm;                // (drain, gate)
  o.g[1] = gds_eff + gmin;    // (drain, drain)
  o.g[2] = gmSrc - gmin;      // (drain, source)
  o.g[3] = -gm;               // (source, gate)
  o.g[4] = -gds_eff - gmin;   // (source, drain)
  o.g[5] = -gmSrc + gmin;     // (source, source)
  return o;
}

}  // namespace rfic::circuit::kernels
