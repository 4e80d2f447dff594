// Independent sources and their waveforms.
//
// A source owns a Waveform and is tagged with the TimeAxis it lives on —
// the slow (t1) or fast (t2) axis of the bivariate MPDE formulation of
// Section 2.2. In ordinary univariate analyses both axes carry the same
// time and the tag is inert. The harmonic-balance and MPDE engines never
// need an analytic spectrum of a source: they sample value() on their time
// grids and transform numerically.
#pragma once

#include <memory>
#include <vector>

#include "circuit/circuit.hpp"

namespace rfic::circuit {

/// Scalar waveform of time.
class Waveform {
 public:
  virtual ~Waveform() = default;
  virtual Real value(Real t) const = 0;
};

/// Constant value.
class DCWave final : public Waveform {
 public:
  explicit DCWave(Real v) : v_(v) {}
  Real value(Real) const override { return v_; }

 private:
  Real v_;
};

/// offset + amp·sin(2πf·t + phase)
class SineWave final : public Waveform {
 public:
  SineWave(Real amplitude, Real freqHz, Real phaseRad = 0, Real offset = 0)
      : amp_(amplitude), f_(freqHz), ph_(phaseRad), off_(offset) {}
  Real value(Real t) const override {
    return off_ + amp_ * std::sin(kTwoPi * f_ * t + ph_);
  }
  Real frequency() const { return f_; }

 private:
  Real amp_, f_, ph_, off_;
};

/// Sum of sinusoids — multi-tone drives for intermodulation studies.
class MultiToneWave final : public Waveform {
 public:
  struct Tone {
    Real amplitude, freqHz, phaseRad;
  };
  MultiToneWave(std::vector<Tone> tones, Real offset = 0)
      : tones_(std::move(tones)), off_(offset) {}
  Real value(Real t) const override {
    Real v = off_;
    for (const auto& tone : tones_)
      v += tone.amplitude * std::sin(kTwoPi * tone.freqHz * t + tone.phaseRad);
    return v;
  }

 private:
  std::vector<Tone> tones_;
  Real off_;
};

/// Periodic trapezoidal square wave between `low` and `high`: useful as the
/// large LO drive of the switching mixer (Section 2.2's example). Edges are
/// smoothed over riseFrac·T to keep Newton well-behaved.
class SquareWave final : public Waveform {
 public:
  SquareWave(Real low, Real high, Real freqHz, Real riseFrac = 0.05)
      : low_(low), high_(high), f_(freqHz), rise_(riseFrac) {
    RFIC_REQUIRE(riseFrac > 0 && riseFrac < 0.25,
                 "SquareWave: riseFrac in (0, 0.25) required");
  }
  Real value(Real t) const override;
  Real frequency() const { return f_; }

 private:
  Real low_, high_, f_, rise_;
};

/// SPICE-style PULSE(v1 v2 delay rise fall width period).
class PulseWave final : public Waveform {
 public:
  PulseWave(Real v1, Real v2, Real delay, Real rise, Real fall, Real width,
            Real period);
  Real value(Real t) const override;

 private:
  Real v1_, v2_, delay_, rise_, fall_, width_, period_;
};

/// Independent voltage source v(n+) − v(n−) = w(t), with a branch current
/// unknown.
class VSource final : public Device {
 public:
  VSource(std::string name, int nPlus, int nMinus, int branch,
          std::shared_ptr<const Waveform> w, TimeAxis axis = TimeAxis::slow);
  void stamp(const RVec& x, const RVec* xPrev, Stamp& s) const override;
  void compileBatch(BatchCompiler& bc) const override;
  int branch() const { return br_; }

 private:
  int np_, nm_, br_;
  std::shared_ptr<const Waveform> w_;
  TimeAxis axis_;
};

/// Independent current source; positive current flows from n+ through the
/// source to n− (SPICE convention), i.e. it is extracted from n+ and
/// injected into n−.
class ISource final : public Device {
 public:
  ISource(std::string name, int nPlus, int nMinus,
          std::shared_ptr<const Waveform> w, TimeAxis axis = TimeAxis::slow);
  void stamp(const RVec& x, const RVec* xPrev, Stamp& s) const override;
  void compileBatch(BatchCompiler& bc) const override;

 private:
  int np_, nm_;
  std::shared_ptr<const Waveform> w_;
  TimeAxis axis_;
};

}  // namespace rfic::circuit
