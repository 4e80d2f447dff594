// Fast Fourier transforms: planned, precomputed once, replayed with zero
// allocation.
//
// The harmonic-balance engine (Section 2.1) and the multi-time MPDE methods
// (Section 2.2) move circuit waveforms between the time and frequency
// domains on every residual and Jacobian-vector evaluation; the FFT is what
// makes the matrix-implicit formulation cheap. Radix-2 handles the
// power-of-two oversampled grids used by HB; Bluestein covers arbitrary
// lengths (odd spectral-collocation grids in MMFT); a row-column 2-D
// transform supports two-tone analysis.
//
// What makes that path run at hardware speed is never recomputing what the
// transform length alone determines. A Plan owns everything a length-n DFT
// needs — the bit-reversal permutation and per-stage twiddle tables for the
// radix-2 path, and for arbitrary lengths the Bluestein chirp together with
// its forward-transformed convolution kernel — so executing a transform is
// pure data movement and butterflies. Plans are immutable after
// construction and shared through a process-wide, thread-safe PlanCache
// (the same "precompute once, replay cheaply" discipline the sparse layer
// applies with SymbolicLU).
//
// Execution never allocates: the radix-2 path is in-place, and the
// Bluestein path writes through caller scratch (scratchSize() complex
// slots). transformColumns()/transformGrid2D() are the batched entry
// points the hot loops use — they run columns on the process ThreadPool
// above a grain threshold, reuse per-thread scratch, and feed the
// fftCount/fftNs/planCache perf counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "diag/thread_annotations.hpp"

namespace rfic::perf {
class Counters;
}  // namespace rfic::perf

namespace rfic::fft {

/// True if n is a power of two (and nonzero).
bool isPowerOfTwo(std::size_t n);

/// Smallest power of two ≥ n. Throws InvalidArgument when n > 2⁶³, where no
/// power of two fits in std::size_t.
std::size_t nextPowerOfTwo(std::size_t n);

/// Immutable execution plan for length-n DFTs (forward and inverse).
class Plan {
 public:
  explicit Plan(std::size_t n);

  std::size_t size() const { return n_; }
  /// True when n is not a power of two and execution runs the Bluestein
  /// chirp-z convolution.
  bool usesBluestein() const { return sub_ != nullptr; }
  /// Complex scratch slots execute() needs (0 for the in-place radix-2
  /// path; the Bluestein convolution length otherwise).
  std::size_t scratchSize() const { return sub_ ? sub_->n_ : 0; }

  /// In-place forward DFT of x[0..n). `scratch` must point at
  /// scratchSize() slots (may be null when that is 0). No allocation.
  RFIC_REALTIME void forward(Complex* x, Complex* scratch) const {
    execute(x, scratch, false);
  }
  /// In-place inverse DFT with the 1/n normalization.
  RFIC_REALTIME void inverse(Complex* x, Complex* scratch) const {
    execute(x, scratch, true);
  }

 private:
  RFIC_REALTIME void execute(Complex* x, Complex* scratch, bool inverse) const;
  RFIC_REALTIME void executePow2(Complex* x, bool inverse) const;
  RFIC_REALTIME void executeBluestein(Complex* x, Complex* scratch,
                                      bool inverse) const;

  std::size_t n_ = 0;
  // Radix-2 machinery (n_ a power of two; also the engine under the
  // Bluestein convolution of a parent plan).
  std::vector<std::uint32_t> bitrev_;
  // Per-stage twiddles packed consecutively: stage `len` (2, 4, …, n) owns
  // the len/2 factors exp(∓2πi·k/len) at offset len/2 − 1.
  std::vector<Complex> twFwd_, twInv_;
  // Bluestein machinery (n_ arbitrary): chirp w[k] = exp(-iπk²/n) and the
  // forward transforms of the padded conjugate/plain chirp — the
  // convolution kernels of the forward/inverse transform respectively.
  std::unique_ptr<const Plan> sub_;  ///< radix-2 plan of the padded length
  std::vector<Complex> chirp_;
  std::vector<Complex> kernelFwd_, kernelInv_;
};

/// Process-wide, thread-safe plan cache keyed by transform length. Plans
/// are built on first use and shared (they are immutable); hit/miss
/// counters flow into perf::global() and the --stats / bench JSON outputs.
class PlanCache {
 public:
  static PlanCache& global();

  /// The plan for length n, building and caching it on first request.
  std::shared_ptr<const Plan> get(std::size_t n) RFIC_EXCLUDES(mu_);

  std::uint64_t hits() const RFIC_EXCLUDES(mu_);
  std::uint64_t misses() const RFIC_EXCLUDES(mu_);

 private:
  mutable diag::Mutex mu_;
  std::unordered_map<std::size_t, std::shared_ptr<const Plan>> plans_
      RFIC_GUARDED_BY(mu_);
  std::uint64_t hits_ RFIC_GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ RFIC_GUARDED_BY(mu_) = 0;
};

/// Transform `count` signals, each contiguous of length plan.size(), laid
/// out back to back at `data` (the columns of a column-major matrix).
/// Runs on perf::ThreadPool::global() when the batch is large enough to
/// amortize dispatch, reuses per-thread scratch, and performs no steady-
/// state allocation. Inverse transforms include the 1/n normalization.
/// Counters (fftCount, fftNs) are bumped on perf::global(), so the spectral
/// cost lands in the result snapshot of the analysis that ran it.
RFIC_REALTIME void transformColumns(const Plan& plan, Complex* data,
                                    std::size_t count, bool inverse);

/// 2-D in-place DFT of a rows×cols row-major grid: `rowPlan` must have
/// length cols, `colPlan` length rows. Rows transform contiguously;
/// columns gather/scatter through per-thread scratch. Length-1 axes are
/// skipped. Same counter and normalization conventions as
/// transformColumns.
RFIC_REALTIME void transformGrid2D(const Plan& rowPlan, const Plan& colPlan,
                                   Complex* x, std::size_t rows,
                                   std::size_t cols, bool inverse);

}  // namespace rfic::fft
