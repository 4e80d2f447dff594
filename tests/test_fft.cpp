// FFT kernels: roundtrips, reference DFT comparison, Parseval, the 2-D
// transform used by two-tone HB, and the Plan/PlanCache layer the hot loops
// replay.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <thread>

#include "fft/plan.hpp"
#include "perf/thread_pool.hpp"

namespace rfic::fft {
namespace {

std::vector<Complex> randomSignal(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<Real> u(-1.0, 1.0);
  std::vector<Complex> x(n);
  for (auto& v : x) v = {u(rng), u(rng)};
  return x;
}

// One signal through the cached plan and the batched entry point the hot
// loops use.
void forwardDFT(std::vector<Complex>& x) {
  transformColumns(*PlanCache::global().get(x.size()), x.data(), 1,
                   /*inverse=*/false);
}
void inverseDFT(std::vector<Complex>& x) {
  transformColumns(*PlanCache::global().get(x.size()), x.data(), 1,
                   /*inverse=*/true);
}

// A row-major rows×cols grid through the 2-D entry point of two-tone HB.
void gridDFT(std::vector<Complex>& x, std::size_t rows, std::size_t cols,
             bool inverse) {
  auto& cache = PlanCache::global();
  transformGrid2D(*cache.get(cols), *cache.get(rows), x.data(), rows, cols,
                  inverse);
}

std::vector<Complex> referenceDFT(const std::vector<Complex>& x) {
  const std::size_t n = x.size();
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex s = 0;
    for (std::size_t m = 0; m < n; ++m) {
      const Real ang = -kTwoPi * static_cast<Real>(k * m) / static_cast<Real>(n);
      s += x[m] * Complex(std::cos(ang), std::sin(ang));
    }
    out[k] = s;
  }
  return out;
}

class FFTLengths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FFTLengths, MatchesReferenceDFT) {
  const std::size_t n = GetParam();
  auto x = randomSignal(n, 10 + n);
  const auto ref = referenceDFT(x);
  forwardDFT(x);
  for (std::size_t k = 0; k < n; ++k)
    EXPECT_NEAR(std::abs(x[k] - ref[k]), 0.0, 1e-9 * static_cast<Real>(n))
        << "bin " << k << " length " << n;
}

TEST_P(FFTLengths, RoundTripIdentity) {
  const std::size_t n = GetParam();
  const auto orig = randomSignal(n, 20 + n);
  auto x = orig;
  forwardDFT(x);
  inverseDFT(x);
  for (std::size_t k = 0; k < n; ++k)
    EXPECT_NEAR(std::abs(x[k] - orig[k]), 0.0, 1e-11);
}

TEST_P(FFTLengths, Parseval) {
  const std::size_t n = GetParam();
  auto x = randomSignal(n, 30 + n);
  Real timeEnergy = 0;
  for (const auto& v : x) timeEnergy += std::norm(v);
  forwardDFT(x);
  Real freqEnergy = 0;
  for (const auto& v : x) freqEnergy += std::norm(v);
  EXPECT_NEAR(freqEnergy / static_cast<Real>(n), timeEnergy,
              1e-9 * timeEnergy);
}

INSTANTIATE_TEST_SUITE_P(Lengths, FFTLengths,
                         ::testing::Values(1, 2, 4, 8, 64, 256,  // pow2
                                           3, 5, 7, 12, 15, 100, 127,
                                           243));  // Bluestein

TEST(FFT, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  std::vector<Complex> x(n);
  for (std::size_t m = 0; m < n; ++m)
    x[m] = std::exp(Complex(0, kTwoPi * 5.0 * static_cast<Real>(m) /
                                   static_cast<Real>(n)));
  forwardDFT(x);
  for (std::size_t k = 0; k < n; ++k) {
    if (k == 5)
      EXPECT_NEAR(std::abs(x[k]), static_cast<Real>(n), 1e-9);
    else
      EXPECT_NEAR(std::abs(x[k]), 0.0, 1e-9);
  }
}

TEST(FFT, LinearityHolds) {
  const std::size_t n = 48;
  auto a = randomSignal(n, 1);
  auto b = randomSignal(n, 2);
  std::vector<Complex> sum(n);
  for (std::size_t i = 0; i < n; ++i) sum[i] = 2.0 * a[i] + 3.0 * b[i];
  forwardDFT(a);
  forwardDFT(b);
  forwardDFT(sum);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(sum[i] - (2.0 * a[i] + 3.0 * b[i])), 0.0, 1e-10);
}

TEST(FFT2, SeparableToneInOneBin) {
  const std::size_t rows = 8, cols = 16;
  std::vector<Complex> x(rows * cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      x[r * cols + c] =
          std::exp(Complex(0, kTwoPi * (2.0 * static_cast<Real>(r) /
                                            static_cast<Real>(rows) +
                                        3.0 * static_cast<Real>(c) /
                                            static_cast<Real>(cols))));
  gridDFT(x, rows, cols, /*inverse=*/false);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const Real expected = (r == 2 && c == 3)
                                ? static_cast<Real>(rows * cols)
                                : 0.0;
      EXPECT_NEAR(std::abs(x[r * cols + c]), expected, 1e-8);
    }
  }
}

TEST(FFT2, RoundTrip) {
  const std::size_t rows = 12, cols = 10;  // non-pow2 both dims
  auto x = randomSignal(rows * cols, 7);
  const auto orig = x;
  gridDFT(x, rows, cols, /*inverse=*/false);
  gridDFT(x, rows, cols, /*inverse=*/true);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(x[i] - orig[i]), 0.0, 1e-10);
}

class PlanLengths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PlanLengths, ForwardMatchesReferenceDFT) {
  const std::size_t n = GetParam();
  const Plan plan(n);
  EXPECT_EQ(plan.size(), n);
  EXPECT_EQ(plan.usesBluestein(), !isPowerOfTwo(n));
  auto x = randomSignal(n, 40 + n);
  const auto ref = referenceDFT(x);
  std::vector<Complex> scratch(plan.scratchSize());
  plan.forward(x.data(), scratch.data());
  for (std::size_t k = 0; k < n; ++k)
    EXPECT_NEAR(std::abs(x[k] - ref[k]), 0.0, 1e-9 * static_cast<Real>(n))
        << "bin " << k << " length " << n;
}

TEST_P(PlanLengths, InverseUndoesForward) {
  const std::size_t n = GetParam();
  const Plan plan(n);
  const auto orig = randomSignal(n, 50 + n);
  auto x = orig;
  std::vector<Complex> scratch(plan.scratchSize());
  plan.forward(x.data(), scratch.data());
  plan.inverse(x.data(), scratch.data());
  for (std::size_t k = 0; k < n; ++k)
    EXPECT_NEAR(std::abs(x[k] - orig[k]), 0.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Lengths, PlanLengths,
                         ::testing::Values(1, 2, 4, 8, 64, 256,  // pow2
                                           3, 5, 7, 12, 15, 100, 127,
                                           243));  // Bluestein

TEST(Plan, LargePrimeBluesteinToneLandsInOneBin) {
  // Exercises the incremental k²-mod-2n chirp indexing far past where a
  // naive k*k would overflow intermediate arithmetic carelessly written in
  // 32 bits; the overflow guard admits any n ≤ SIZE_MAX/4.
  const std::size_t n = 104729;  // the 10000th prime
  const Plan plan(n);
  ASSERT_TRUE(plan.usesBluestein());
  const std::size_t bin = 4211;
  std::vector<Complex> x(n);
  for (std::size_t m = 0; m < n; ++m)
    x[m] = std::exp(Complex(0, kTwoPi * static_cast<Real>(bin) *
                                   static_cast<Real>(m) /
                                   static_cast<Real>(n)));
  std::vector<Complex> scratch(plan.scratchSize());
  plan.forward(x.data(), scratch.data());
  EXPECT_NEAR(std::abs(x[bin]), static_cast<Real>(n), 1e-5 * n);
  // Every other bin is numerically empty relative to the tone.
  Real worst = 0;
  for (std::size_t k = 0; k < n; ++k)
    if (k != bin) worst = std::max(worst, std::abs(x[k]));
  EXPECT_LT(worst, 1e-6 * static_cast<Real>(n));
}

TEST(Plan, TransformColumnsMatchesPerColumnFFT) {
  const std::size_t n = 24, cols = 7;
  const Plan plan(n);
  std::vector<Complex> batch(n * cols);
  std::vector<std::vector<Complex>> separate(cols);
  for (std::size_t c = 0; c < cols; ++c) {
    separate[c] = randomSignal(n, 60 + c);
    std::copy(separate[c].begin(), separate[c].end(),
              batch.begin() + static_cast<std::ptrdiff_t>(c * n));
  }
  transformColumns(plan, batch.data(), cols, /*inverse=*/false);
  for (auto& col : separate) forwardDFT(col);
  for (std::size_t c = 0; c < cols; ++c)
    for (std::size_t k = 0; k < n; ++k)
      EXPECT_NEAR(std::abs(batch[c * n + k] - separate[c][k]), 0.0, 1e-10);
  // And the inverse restores the batch through the same entry point.
  transformColumns(plan, batch.data(), cols, /*inverse=*/true);
  for (auto& col : separate) inverseDFT(col);
  for (std::size_t c = 0; c < cols; ++c)
    for (std::size_t k = 0; k < n; ++k)
      EXPECT_NEAR(std::abs(batch[c * n + k] - separate[c][k]), 0.0, 1e-10);
}

TEST(Plan, BatchedTransformsNestInsidePoolTasks) {
  // Reentrancy audit for the thread_local scratch (DESIGN.md §9): the
  // batched entry points run their lambdas on pool workers, and a
  // parallelFor issued from such a worker executes inline on it. A user
  // pipeline that calls transformColumns from inside its own pool task
  // therefore runs the whole transform — including the ScratchLease claim
  // of tlScratch — on a worker thread, nested below another dispatch.
  // Distinct Bluestein lengths per task force scratch buffers of different
  // sizes to be claimed on whichever worker picks the task up; every
  // result must still match the serial reference.
  const std::size_t kTasks = 6;
  const std::size_t lengths[kTasks] = {23, 31, 37, 41, 43, 47};  // Bluestein
  const std::size_t cols = 5;

  std::vector<std::vector<Complex>> batches(kTasks);
  std::vector<std::vector<Complex>> expected(kTasks);
  for (std::size_t t = 0; t < kTasks; ++t) {
    const std::size_t n = lengths[t];
    batches[t].resize(n * cols);
    expected[t].resize(n * cols);
    for (std::size_t c = 0; c < cols; ++c) {
      auto col = randomSignal(n, 900 + t * cols + c);
      std::copy(col.begin(), col.end(),
                batches[t].begin() + static_cast<std::ptrdiff_t>(c * n));
      forwardDFT(col);  // serial reference, computed before any pool activity
      std::copy(col.begin(), col.end(),
                expected[t].begin() + static_cast<std::ptrdiff_t>(c * n));
    }
  }

  perf::ThreadPool::global().parallelFor(kTasks, [&](std::size_t t) {
    const Plan plan(lengths[t]);
    transformColumns(plan, batches[t].data(), cols, /*inverse=*/false);
  });

  for (std::size_t t = 0; t < kTasks; ++t)
    for (std::size_t i = 0; i < batches[t].size(); ++i)
      EXPECT_NEAR(std::abs(batches[t][i] - expected[t][i]), 0.0, 1e-9)
          << "task " << t << " index " << i;
}

TEST(Plan, Grid2DNestsInsidePoolTasks) {
  // Same audit for transformGrid2D, whose column pass holds TWO leases at
  // once (tlColumn for the gather/scatter and tlScratch for Bluestein).
  const std::size_t rows = 6, colsN = 10;
  std::vector<Complex> grid = randomSignal(rows * colsN, 1234);
  std::vector<Complex> expected = grid;
  {
    const Plan rowPlan(colsN), colPlan(rows);
    transformGrid2D(rowPlan, colPlan, expected.data(), rows, colsN,
                    /*inverse=*/false);
  }
  // Two tasks so that (with workers available) at least one grid transform
  // runs nested-inline on a pool worker rather than on the caller.
  std::vector<Complex> nested[2] = {grid, grid};
  perf::ThreadPool::global().parallelFor(2, [&](std::size_t t) {
    const Plan rowPlan(colsN), colPlan(rows);
    transformGrid2D(rowPlan, colPlan, nested[t].data(), rows, colsN,
                    /*inverse=*/false);
  });
  for (std::size_t t = 0; t < 2; ++t)
    for (std::size_t i = 0; i < grid.size(); ++i)
      EXPECT_NEAR(std::abs(nested[t][i] - expected[i]), 0.0, 1e-9)
          << "task " << t << " index " << i;
}

TEST(PlanCache, SecondRequestIsASharedHit) {
  auto& cache = PlanCache::global();
  const std::uint64_t h0 = cache.hits(), m0 = cache.misses();
  const std::size_t n = 977;  // a length no other test plans
  const auto a = cache.get(n);
  const auto b = cache.get(n);
  EXPECT_EQ(a.get(), b.get());  // one immutable plan, shared
  EXPECT_EQ(cache.misses(), m0 + 1);
  EXPECT_GE(cache.hits(), h0 + 1);
}

TEST(PlanCache, ConcurrentGetsYieldOnePlanPerLength) {
  // Hammer the cache from many threads over a few lengths: every caller
  // must receive a working plan and all callers of one length must agree
  // on the same instance once the cache settles. Run under
  // RFIC_SANITIZE=thread this validates the lock discipline.
  // Lengths no other test plans, so the first requests race to build.
  auto& cache = PlanCache::global();
  constexpr std::size_t kThreads = 8, kLengths = 4;
  const std::size_t lengths[kLengths] = {35, 66, 103, 130};
  std::vector<std::shared_ptr<const Plan>> got(kThreads * kLengths);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (std::size_t j = 0; j < kLengths; ++j)
        got[t * kLengths + j] = cache.get(lengths[(t + j) % kLengths]);
    });
  for (auto& th : threads) th.join();
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_NE(got[i], nullptr);
    EXPECT_GT(got[i]->size(), 0u);
  }
  // After the race settles, the cache serves one canonical plan per length.
  for (const std::size_t n : lengths) {
    const auto canonical = cache.get(n);
    EXPECT_EQ(cache.get(n).get(), canonical.get());
    EXPECT_EQ(canonical->size(), n);
  }
}

TEST(FFTUtil, PowerOfTwoHelpers) {
  EXPECT_TRUE(isPowerOfTwo(1));
  EXPECT_TRUE(isPowerOfTwo(64));
  EXPECT_FALSE(isPowerOfTwo(0));
  EXPECT_FALSE(isPowerOfTwo(12));
  EXPECT_EQ(nextPowerOfTwo(1), 1u);
  EXPECT_EQ(nextPowerOfTwo(17), 32u);
  EXPECT_EQ(nextPowerOfTwo(64), 64u);
  // The largest representable power of two is still reachable; past it no
  // power of two fits, which is an error rather than a wrapped shift.
  constexpr std::size_t kTop =
      std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1);
  EXPECT_EQ(nextPowerOfTwo(kTop - 1), kTop);
  EXPECT_EQ(nextPowerOfTwo(kTop), kTop);
  EXPECT_THROW(nextPowerOfTwo(kTop + 1), InvalidArgument);
  EXPECT_THROW(nextPowerOfTwo(std::numeric_limits<std::size_t>::max()),
               InvalidArgument);
}

}  // namespace
}  // namespace rfic::fft
