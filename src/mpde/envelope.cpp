#include "mpde/envelope.hpp"

#include <cmath>
#include <memory>

#include "circuit/mna_workspace.hpp"
#include "fft/plan.hpp"

namespace rfic::mpde {

namespace {

// Fast-axis system at frozen slow time t1 with the BE slow-derivative term:
//   d/dt2 q(y) + f(y) + q(y)/h1 = b̂(t1, t2) + q(x_prev(t2))/h1
// Evaluations run through one MnaWorkspace, so every call after the first
// stamps into the cached pattern with no triplet churn; the dense Jacobians
// the fast-axis BVP solver wants are scattered straight from the cached
// CSR value arrays.
class EnvelopeInner final : public FastSystem {
 public:
  EnvelopeInner(const MnaSystem& sys, Real t1, Real fastPeriod,
                std::size_t m2, Real h1,
                const std::vector<numeric::RVec>* prev)
      : ws_(sys), n_(sys.dim()), m2_(m2), t1_(t1), T2_(fastPeriod), h1_(h1) {
    if (h1_ > 0) {
      RFIC_REQUIRE(prev != nullptr && prev->size() >= m2_,
                   "EnvelopeInner: previous waveform required");
      // Pre-evaluate q along the previous waveform at every fast sample.
      qPrev_.resize(m2_);
      for (std::size_t j = 0; j < m2_; ++j) {
        const Real t2 = T2_ * static_cast<Real>(j) / static_cast<Real>(m2_);
        ws_.evalBivariate((*prev)[j], t1_, t2, false);
        qPrev_[j] = ws_.q();
      }
    }
  }

  std::size_t dim() const override { return n_; }
  std::size_t samples() const override { return m2_; }
  Real period() const override { return T2_; }

  void eval(const numeric::RVec& y, std::size_t j, FastEval& e,
            bool wantMatrices) const override {
    const std::size_t jw = j % m2_;
    const Real t2 = T2_ * static_cast<Real>(jw) / static_cast<Real>(m2_);
    ws_.evalBivariate(y, t1_, t2, wantMatrices);
    e.f = ws_.f();
    e.q = ws_.q();
    e.b = ws_.b();
    const Real w = (h1_ > 0) ? 1.0 / h1_ : 0.0;
    if (h1_ > 0) {
      for (std::size_t u = 0; u < n_; ++u) {
        e.f[u] += w * ws_.q()[u];
        e.b[u] += w * qPrev_[jw][u];
      }
    }
    if (wantMatrices) {
      if (e.G.rows() != n_ || e.G.cols() != n_) {
        e.G = numeric::RMat(n_, n_);
        e.C = numeric::RMat(n_, n_);
      } else {
        e.G.setZero();
        e.C.setZero();
      }
      circuit::scatterDense(ws_.pattern(), ws_.gValues(), e.G);
      circuit::scatterDense(ws_.pattern(), ws_.cValues(), e.G, w);
      circuit::scatterDense(ws_.pattern(), ws_.cValues(), e.C);
    }
  }

 private:
  mutable circuit::MnaWorkspace ws_;
  std::size_t n_, m2_;
  Real t1_, T2_, h1_;
  std::vector<numeric::RVec> qPrev_;
};

}  // namespace

FastPeriodicResult solveEnvelopeStep(
    const MnaSystem& sys, Real t1, Real fastFreq, std::size_t fastSteps,
    Real h1, const std::vector<numeric::RVec>* prevWaveform,
    const numeric::RVec& guess, const FastPeriodicOptions& opts) {
  EnvelopeInner inner(sys, t1, 1.0 / fastFreq, fastSteps, h1, prevWaveform);
  return solveFastPeriodic(inner, guess, opts);
}

std::vector<Complex> EnvelopeResult::harmonicEnvelope(std::size_t u,
                                                               int k) const {
  // One planned FFT per slow sample (replacing the former per-harmonic
  // direct DFT loop): the full fast spectrum costs O(m2 log m2) through the
  // cached plan, and the requested bin is picked out afterwards. The fast
  // grid length is the same at every slow step, so the plan and buffers are
  // fetched once and reused across the sweep.
  std::vector<Complex> out;
  out.reserve(waveforms.size());
  std::vector<Complex> sig, scratch;
  std::shared_ptr<const fft::Plan> plan;
  for (const auto& wf : waveforms) {
    RFIC_REQUIRE(wf.size() >= 2, "harmonicEnvelope: empty fast waveform");
    const std::size_t m2 = wf.size() - 1;  // wrap point excluded
    if (!plan || plan->size() != m2) {
      plan = fft::PlanCache::global().get(m2);
      sig.resize(m2);
      scratch.resize(plan->scratchSize());
    }
    for (std::size_t j = 0; j < m2; ++j) sig[j] = wf[j][u];
    plan->forward(sig.data(), scratch.data());
    const int im2 = static_cast<int>(m2);
    const std::size_t bin = static_cast<std::size_t>(((k % im2) + im2) % im2);
    out.push_back(sig[bin] / static_cast<Real>(m2));
  }
  return out;
}

EnvelopeResult runEnvelope(const MnaSystem& sys, Real fastFreq,
                           const numeric::RVec& dcOp,
                           const EnvelopeOptions& opts) {
  RFIC_REQUIRE(fastFreq > 0, "runEnvelope: bad fast frequency");
  RFIC_REQUIRE(opts.slowSpan > 0 && opts.slowSteps > 0,
               "runEnvelope: slowSpan/slowSteps required");
  EnvelopeResult res;
  res.fastPeriod = 1.0 / fastFreq;
  const Real h1 = opts.slowSpan / static_cast<Real>(opts.slowSteps);

  // Initial condition: fast steady state with slow sources frozen at t1=0.
  FastPeriodicResult step = solveEnvelopeStep(
      sys, 0.0, fastFreq, opts.fastSteps, 0.0, nullptr, dcOp, opts.inner);
  res.status = step.status;
  res.retries += step.retries;
  if (!step.converged) return res;
  res.slowTimes.push_back(0.0);
  res.waveforms.push_back(step.waveform);

  for (std::size_t i = 1; i <= opts.slowSteps; ++i) {
    const Real t1 = h1 * static_cast<Real>(i);
    step = solveEnvelopeStep(sys, t1, fastFreq, opts.fastSteps, h1,
                             &res.waveforms.back(), step.waveform[0],
                             opts.inner);
    res.status = step.status;
    res.retries += step.retries;
    if (!step.converged) return res;
    res.slowTimes.push_back(t1);
    res.waveforms.push_back(step.waveform);
  }
  res.converged = true;
  res.status = diag::SolverStatus::Converged;
  return res;
}

}  // namespace rfic::mpde
