// Nonlinear semiconductor devices: diode, bipolar transistor (Ebers–Moll
// with Early effect), and level-1 MOSFET. These are what make RF ICs
// "consisting mainly of nonlinear elements" (paper Section 2.1) — the
// regime where traditional microwave harmonic balance implementations break
// down and the matrix-implicit formulation of this library is required.
#pragma once

#include "circuit/circuit.hpp"
#include "circuit/junction_kernels.hpp"

namespace rfic::circuit {

/// Thermal voltage at 300 K.
inline constexpr Real kVt300 = 0.025852;
/// Electron charge.
inline constexpr Real kQElectron = 1.602176634e-19;

/// Junction diode with SPICE level-1 statics, depletion + diffusion charge,
/// shot and flicker noise, and pn-junction Newton limiting.
class Diode final : public Device {
 public:
  struct Params {
    Real is = 1e-14;    ///< saturation current [A]
    Real n = 1.0;       ///< emission coefficient
    Real cj0 = 0.0;     ///< zero-bias junction capacitance [F]
    Real vj = 0.8;      ///< junction potential [V]
    Real m = 0.5;       ///< grading coefficient
    Real fc = 0.5;      ///< depletion-cap linearization point
    Real tt = 0.0;      ///< transit time [s] (diffusion charge)
    Real kf = 0.0;      ///< flicker coefficient
    Real af = 1.0;      ///< flicker exponent
    Real gmin = 1e-12;  ///< junction leakage conductance
  };

  Diode(std::string name, int anode, int cathode, Params p);
  void stamp(const RVec& x, const RVec* xPrev, Stamp& s) const override;
  void compileBatch(BatchCompiler& bc) const override;
  void noiseSources(const RVec& x, std::vector<NoiseSource>& out) const override;

  /// Static current at junction voltage v (exposed for tests).
  Real current(Real v) const;

 private:
  kernels::DiodeParams kparams() const;

  int na_, nc_;
  Params p_;
  Real vcrit_;
};

/// Ebers–Moll bipolar transistor (NPN or PNP) with Early effect, junction
/// and diffusion charges, and shot/flicker noise.
class BJT final : public Device {
 public:
  enum class Type { npn, pnp };
  struct Params {
    Real is = 1e-16;   ///< transport saturation current [A]
    Real bf = 100.0;   ///< forward beta
    Real br = 1.0;     ///< reverse beta
    Real vaf = 0.0;    ///< forward Early voltage [V]; 0 disables
    Real cje = 0.0;    ///< B-E zero-bias junction cap [F]
    Real cjc = 0.0;    ///< B-C zero-bias junction cap [F]
    Real vje = 0.75, mje = 0.33;
    Real vjc = 0.75, mjc = 0.33;
    Real fc = 0.5;
    Real tf = 0.0;     ///< forward transit time [s]
    Real tr = 0.0;     ///< reverse transit time [s]
    Real kf = 0.0, af = 1.0;  ///< flicker noise on base current
    Real gmin = 1e-12;
  };

  BJT(std::string name, int collector, int base, int emitter, Params p,
      Type type = Type::npn);
  void stamp(const RVec& x, const RVec* xPrev, Stamp& s) const override;
  void compileBatch(BatchCompiler& bc) const override;
  void noiseSources(const RVec& x, std::vector<NoiseSource>& out) const override;

 private:
  kernels::BJTParams kparams() const;

  int nc_, nb_, ne_;
  Params p_;
  Type type_;
  Real vcrit_;
};

/// Level-1 (square-law) MOSFET with channel-length modulation, fixed
/// overlap capacitances, channel thermal noise and flicker noise.
class MOSFET final : public Device {
 public:
  enum class Type { nmos, pmos };
  struct Params {
    Real vt0 = 0.7;      ///< threshold voltage [V] (positive for both types)
    Real kp = 2e-3;      ///< transconductance μ·Cox·W/L [A/V²]
    Real lambda = 0.01;  ///< channel-length modulation [1/V]
    Real cgs = 0.0;      ///< gate-source capacitance [F]
    Real cgd = 0.0;      ///< gate-drain capacitance [F]
    Real kf = 0.0, af = 1.0;
    Real gmin = 1e-12;
  };

  MOSFET(std::string name, int drain, int gate, int source, Params p,
         Type type = Type::nmos);
  void stamp(const RVec& x, const RVec* xPrev, Stamp& s) const override;
  void compileBatch(BatchCompiler& bc) const override;
  void noiseSources(const RVec& x, std::vector<NoiseSource>& out) const override;

 private:
  kernels::MOSFETParams kparams() const;

  int nd_, ng_, ns_;
  Params p_;
  Type type_;
};

}  // namespace rfic::circuit
