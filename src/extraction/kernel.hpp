// Batched entry-generator interface for the kernel-independent compressed
// solvers (Section 4). IES³ only ever *samples* the interaction matrix —
// single entries while pivoting, whole rows/columns while building cross
// approximations and dense leaves. Routing those samples through batch
// entry points lets a concrete kernel amortize per-panel setup (local
// frames, centroids) across a span of targets and keeps one virtual call
// per row/column instead of one per matrix entry on the O(n·r) hot path.
#pragma once

#include <cstddef>

#include "common.hpp"

namespace rfic::extraction {

/// Abstract matrix-entry generator: entry(i, j) = interaction of target i
/// with source j, with batch row/column evaluation over index spans. The
/// base-class batches fall back to per-entry calls, so a kernel only
/// overrides what it can accelerate.
class EntryKernel {
 public:
  virtual ~EntryKernel() = default;

  virtual Real entry(std::size_t i, std::size_t j) const = 0;

  /// out[t] = entry(i, cols[t]) for t in [0, n).
  virtual void row(std::size_t i, const std::size_t* cols, std::size_t n,
                   Real* out) const {
    for (std::size_t t = 0; t < n; ++t) out[t] = entry(i, cols[t]);
  }

  /// out[t] = entry(rows[t], j) for t in [0, m).
  virtual void column(std::size_t j, const std::size_t* rows, std::size_t m,
                      Real* out) const {
    for (std::size_t t = 0; t < m; ++t) out[t] = entry(rows[t], j);
  }
};

}  // namespace rfic::extraction
