#include "fft/plan.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "perf/perf.hpp"
#include "perf/thread_pool.hpp"

namespace rfic::fft {

namespace {
// Per-thread Bluestein/column scratch. Grow-only, so repeated transforms
// of the same (or smaller) lengths never touch the allocator.
//
// Reentrancy: the batched entry points below run their lambdas on pool
// workers, and a parallelFor issued from inside a worker executes INLINE
// on that worker (nested-inline path) — so a transform invoked from user
// code that is itself inside a transform lambda would claim the same
// thread_local buffer and trample the outer call's scratch. ScratchLease
// makes that impossible: the outer claim marks the buffer busy, and a
// nested claim falls back to a private heap buffer instead of aliasing.
// The fallback never triggers from this library's own call graph (plan
// execution never calls back into the batched entry points) — it is a
// guard for nested user pipelines, tested in test_fft.cpp.
thread_local std::vector<Complex> tlScratch;
thread_local std::vector<Complex> tlColumn;
thread_local bool tlScratchBusy = false;
thread_local bool tlColumnBusy = false;

class ScratchLease {
 public:
  ScratchLease(std::vector<Complex>& buf, bool& busy, std::size_t need)
      : busy_(busy), owner_(!busy) {
    if (owner_) {
      busy_ = true;
      if (buf.size() < need)
        buf.resize(need);  // rt: allow(rt-alloc) grow-once thread-local
                           // scratch; steady state replays at high-water mark
      ptr_ = buf.data();
    } else {
      // Nested (reentrant) claim: private buffer, correctness over speed.
      fallback_.resize(need);  // rt: allow(rt-alloc) reentrant-claim fallback
                               // only — never taken on the library's own paths
      ptr_ = fallback_.data();
    }
  }
  ~ScratchLease() {
    if (owner_) busy_ = false;
  }

  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  Complex* get() { return ptr_; }

 private:
  bool& busy_;
  bool owner_;
  Complex* ptr_ = nullptr;
  std::vector<Complex> fallback_;
};
}  // namespace

bool isPowerOfTwo(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::size_t nextPowerOfTwo(std::size_t n) {
  constexpr std::size_t kLargest =
      std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1);
  RFIC_REQUIRE(n <= kLargest, "fft::nextPowerOfTwo: no power of two >= n fits");
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

Plan::Plan(std::size_t n) : n_(n) {
  RFIC_REQUIRE(n > 0, "fft::Plan: length must be positive");

  if (isPowerOfTwo(n)) {
    // Bit-reversal permutation.
    bitrev_.assign(n, 0);
    std::uint32_t bits = 0;
    while ((std::size_t{1} << bits) < n) ++bits;
    for (std::size_t i = 1; i < n; ++i) {
      std::size_t r = 0;
      for (std::uint32_t b = 0; b < bits; ++b) r |= ((i >> b) & 1u) << (bits - 1 - b);
      bitrev_[i] = static_cast<std::uint32_t>(r);
    }
    // Packed per-stage twiddles: stage `len` owns len/2 factors at offset
    // len/2 - 1, for n - 1 factors total.
    if (n > 1) {
      twFwd_.resize(n - 1);
      twInv_.resize(n - 1);
      for (std::size_t len = 2; len <= n; len <<= 1) {
        const std::size_t half = len / 2;
        Complex* fw = twFwd_.data() + (half - 1);
        Complex* iv = twInv_.data() + (half - 1);
        for (std::size_t k = 0; k < half; ++k) {
          const Real ang = 2.0 * kPi * static_cast<Real>(k) / static_cast<Real>(len);
          fw[k] = Complex(std::cos(ang), -std::sin(ang));
          iv[k] = Complex(std::cos(ang), std::sin(ang));
        }
      }
    }
    return;
  }

  // Bluestein chirp-z. The chirp phase index is k^2 mod 2n; computed
  // incrementally ((k+1)^2 = k^2 + 2k + 1) both residues stay below 2n and
  // their sum below 4n, so the guard below makes overflow impossible even
  // where k*k itself would wrap std::size_t.
  RFIC_REQUIRE(n <= std::numeric_limits<std::size_t>::max() / 4,
               "fft::Plan: length too large for Bluestein chirp indexing");
  const std::size_t mod = 2 * n;
  chirp_.resize(n);
  std::size_t k2 = 0;    // k^2 mod 2n
  std::size_t step = 1;  // 2k + 1 mod 2n
  for (std::size_t k = 0; k < n; ++k) {
    const Real ang = kPi * static_cast<Real>(k2) / static_cast<Real>(n);
    chirp_[k] = Complex(std::cos(ang), -std::sin(ang));
    k2 += step;
    if (k2 >= mod) k2 -= mod;
    step += 2;
    if (step >= mod) step -= mod;
  }

  const std::size_t m = nextPowerOfTwo(2 * n - 1);
  sub_ = std::make_unique<const Plan>(m);

  // Forward-transformed convolution kernels, one per direction: the
  // forward transform convolves with conj(chirp), the inverse with the
  // chirp itself. Both are symmetric (b[m-k] = b[k]) zero-padded to m.
  kernelFwd_.assign(m, Complex(0, 0));
  kernelInv_.assign(m, Complex(0, 0));
  for (std::size_t k = 0; k < n; ++k) {
    const Complex c = std::conj(chirp_[k]);
    kernelFwd_[k] = c;
    kernelInv_[k] = chirp_[k];
    if (k > 0) {
      kernelFwd_[m - k] = c;
      kernelInv_[m - k] = chirp_[k];
    }
  }
  sub_->executePow2(kernelFwd_.data(), false);
  sub_->executePow2(kernelInv_.data(), false);
}

RFIC_REALTIME void Plan::execute(Complex* x, Complex* scratch,
                                 bool inverse) const {
  RFIC_REQUIRE(x != nullptr, "fft::Plan: null signal pointer");
  if (sub_)
    executeBluestein(x, scratch, inverse);
  else
    executePow2(x, inverse);
}

RFIC_REALTIME void Plan::executePow2(Complex* x, bool inverse) const {
  const std::size_t n = n_;
  if (n == 1) return;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(x[i], x[j]);
  }
  const std::vector<Complex>& tw = inverse ? twInv_ : twFwd_;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const Complex* w = tw.data() + (half - 1);
    for (std::size_t i = 0; i < n; i += len) {
      Complex* a = x + i;
      Complex* b = a + half;
      for (std::size_t k = 0; k < half; ++k) {
        const Complex u = a[k];
        const Complex v = b[k] * w[k];
        a[k] = u + v;
        b[k] = u - v;
      }
    }
  }
  if (inverse) {
    const Real inv = Real(1) / static_cast<Real>(n);
    for (std::size_t i = 0; i < n; ++i) x[i] *= inv;
  }
}

RFIC_REALTIME void Plan::executeBluestein(Complex* x, Complex* scratch,
                                          bool inverse) const {
  RFIC_REQUIRE(scratch != nullptr, "fft::Plan: Bluestein path needs scratch");
  const std::size_t n = n_;
  const std::size_t m = sub_->n_;
  // Modulate by the chirp (conjugated for the inverse direction) and pad.
  for (std::size_t k = 0; k < n; ++k) {
    const Complex c = inverse ? std::conj(chirp_[k]) : chirp_[k];
    scratch[k] = x[k] * c;
  }
  for (std::size_t k = n; k < m; ++k) scratch[k] = Complex(0, 0);
  // Circular convolution with the pre-transformed kernel. sub_'s inverse
  // carries the 1/m factor, so FFT → pointwise → IFFT is exactly the
  // convolution.
  sub_->executePow2(scratch, false);
  const std::vector<Complex>& kern = inverse ? kernelInv_ : kernelFwd_;
  for (std::size_t k = 0; k < m; ++k) scratch[k] *= kern[k];
  sub_->executePow2(scratch, true);
  // Demodulate; the inverse direction also applies the 1/n normalization.
  if (inverse) {
    const Real inv = Real(1) / static_cast<Real>(n);
    for (std::size_t k = 0; k < n; ++k)
      x[k] = std::conj(chirp_[k]) * scratch[k] * inv;
  } else {
    for (std::size_t k = 0; k < n; ++k) x[k] = chirp_[k] * scratch[k];
  }
}

PlanCache& PlanCache::global() {
  static PlanCache cache;
  return cache;
}

std::shared_ptr<const Plan> PlanCache::get(std::size_t n) {
  RFIC_REQUIRE(n > 0, "fft::PlanCache: length must be positive");
  {
    diag::LockGuard lock(mu_);
    const auto it = plans_.find(n);
    if (it != plans_.end()) {
      ++hits_;
      perf::global().addPlanCacheHit();
      return it->second;
    }
  }
  // Build outside the lock: plan construction is the expensive part, and
  // concurrent first requests for distinct lengths should not serialize.
  // A lost race simply discards the duplicate plan.
  auto built = std::make_shared<const Plan>(n);
  diag::LockGuard lock(mu_);
  const auto [it, inserted] = plans_.try_emplace(n, std::move(built));
  ++misses_;
  perf::global().addPlanCacheMiss();
  return it->second;
}

std::uint64_t PlanCache::hits() const {
  diag::LockGuard lock(mu_);
  return hits_;
}

std::uint64_t PlanCache::misses() const {
  diag::LockGuard lock(mu_);
  return misses_;
}

RFIC_REALTIME void transformColumns(const Plan& plan, Complex* data,
                                    std::size_t count, bool inverse) {
  RFIC_REQUIRE(count == 0 || data != nullptr,
               "fft::transformColumns: null data with nonzero count");
  if (count == 0) return;
  const std::size_t n = plan.size();
  perf::Timer t;
  // Chunk so one dispatch round-trip covers ~4096 transformed samples —
  // below that the wake-up overhead beats the butterfly work.
  const std::size_t grain = std::size_t{4096} / n + 1;
  perf::ThreadPool::global().parallelFor(
      count,
      [&](std::size_t i) {
        Complex* col = data + i * n;
        ScratchLease scratch(tlScratch, tlScratchBusy, plan.scratchSize());
        if (inverse)
          plan.inverse(col, scratch.get());
        else
          plan.forward(col, scratch.get());
      },
      grain);
  perf::global().addFfts(count, t.ns());
}

RFIC_REALTIME void transformGrid2D(const Plan& rowPlan, const Plan& colPlan,
                                   Complex* x, std::size_t rows,
                                   std::size_t cols, bool inverse) {
  RFIC_REQUIRE(x != nullptr && rowPlan.size() == cols && colPlan.size() == rows,
               "fft::transformGrid2D: plan lengths must match the grid");
  std::uint64_t nTransforms = 0;
  perf::Timer t;
  auto& pool = perf::ThreadPool::global();
  if (cols > 1) {
    const std::size_t grain = std::size_t{4096} / cols + 1;
    pool.parallelFor(
        rows,
        [&](std::size_t r) {
          Complex* row = x + r * cols;
          ScratchLease scratch(tlScratch, tlScratchBusy,
                               rowPlan.scratchSize());
          if (inverse)
            rowPlan.inverse(row, scratch.get());
          else
            rowPlan.forward(row, scratch.get());
        },
        grain);
    nTransforms += rows;
  }
  if (rows > 1) {
    const std::size_t grain = std::size_t{4096} / rows + 1;
    pool.parallelFor(
        cols,
        [&](std::size_t c) {
          ScratchLease column(tlColumn, tlColumnBusy, rows);
          Complex* col = column.get();
          for (std::size_t r = 0; r < rows; ++r) col[r] = x[r * cols + c];
          ScratchLease scratch(tlScratch, tlScratchBusy,
                               colPlan.scratchSize());
          if (inverse)
            colPlan.inverse(col, scratch.get());
          else
            colPlan.forward(col, scratch.get());
          for (std::size_t r = 0; r < rows; ++r) x[r * cols + c] = col[r];
        },
        grain);
    nTransforms += cols;
  }
  if (nTransforms > 0) perf::global().addFfts(nTransforms, t.ns());
}

}  // namespace rfic::fft
