#include "circuit/sources.hpp"

#include <cmath>

#include "circuit/device_batch.hpp"

namespace rfic::circuit {

Real SquareWave::value(Real t) const {
  // Phase in [0, 1): high on [0, 0.5), low on [0.5, 1), linear edges of
  // width `rise_` centered on the transitions at 0 and 0.5.
  Real ph = t * f_ - std::floor(t * f_);
  const Real e = rise_;
  const Real mid = 0.5 * (low_ + high_);
  const Real half = 0.5 * (high_ - low_);
  if (ph < e * 0.5) return mid + half * (ph / (e * 0.5));
  if (ph < 0.5 - e * 0.5) return high_;
  if (ph < 0.5 + e * 0.5) return mid - half * ((ph - 0.5) / (e * 0.5));
  if (ph < 1.0 - e * 0.5) return low_;
  return mid + half * ((ph - 1.0) / (e * 0.5));
}

PulseWave::PulseWave(Real v1, Real v2, Real delay, Real rise, Real fall,
                     Real width, Real period)
    : v1_(v1),
      v2_(v2),
      delay_(delay),
      rise_(rise),
      fall_(fall),
      width_(width),
      period_(period) {
  RFIC_REQUIRE(period > 0 && rise > 0 && fall > 0,
               "PulseWave: period/rise/fall must be positive");
}

Real PulseWave::value(Real t) const {
  if (t < delay_) return v1_;
  Real ph = std::fmod(t - delay_, period_);
  if (ph < rise_) return v1_ + (v2_ - v1_) * ph / rise_;
  ph -= rise_;
  if (ph < width_) return v2_;
  ph -= width_;
  if (ph < fall_) return v2_ + (v1_ - v2_) * ph / fall_;
  return v1_;
}

VSource::VSource(std::string name, int nPlus, int nMinus, int branch,
                 std::shared_ptr<const Waveform> w, TimeAxis axis)
    : Device(std::move(name)),
      np_(nPlus),
      nm_(nMinus),
      br_(branch),
      w_(std::move(w)),
      axis_(axis) {
  RFIC_REQUIRE(br_ >= 0, "VSource: branch unknown required");
  RFIC_REQUIRE(w_ != nullptr, "VSource: waveform required");
}

void VSource::stamp(const RVec& x, const RVec*, Stamp& s) const {
  const Real ib = x[static_cast<std::size_t>(br_)];
  const Real v = nodeVoltage(x, np_) - nodeVoltage(x, nm_);
  s.addF(np_, ib);
  s.addF(nm_, -ib);
  s.addF(br_, v);
  s.addB(br_, w_->value(s.time(axis_)));
  if (s.wantMatrices()) {
    s.addG(np_, br_, 1.0);
    s.addG(nm_, br_, -1.0);
    s.addG(br_, np_, 1.0);
    s.addG(br_, nm_, -1.0);
  }
}

void VSource::compileBatch(BatchCompiler& bc) const {
  bc.vsource(np_, nm_, br_, w_.get(), axis_);
}

ISource::ISource(std::string name, int nPlus, int nMinus,
                 std::shared_ptr<const Waveform> w, TimeAxis axis)
    : Device(std::move(name)),
      np_(nPlus),
      nm_(nMinus),
      w_(std::move(w)),
      axis_(axis) {
  RFIC_REQUIRE(w_ != nullptr, "ISource: waveform required");
}

void ISource::stamp(const RVec&, const RVec*, Stamp& s) const {
  const Real i = w_->value(s.time(axis_));
  s.addB(np_, -i);
  s.addB(nm_, i);
}

void ISource::compileBatch(BatchCompiler& bc) const {
  bc.isource(np_, nm_, w_.get(), axis_);
}

}  // namespace rfic::circuit
