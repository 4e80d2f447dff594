// IES³-style kernel-independent compressed representation of the dense MoM
// interaction matrix (Section 4, [21]).
//
// The matrix is recursively decomposed over a geometric cluster tree;
// blocks coupling well-separated panel groups are compressed to low-rank
// outer products U·Vᵀ. Following IES³'s kernel independence, compression
// uses only sampled matrix entries (adaptive cross approximation) followed
// by an SVD recompression to minimal rank — no multipole expansion and no
// assumption of a 1/r kernel, which is exactly the advantage over
// FastCap-style multipole methods the paper emphasizes. Storage and matvec
// cost scale near-linearly (Fig. 6); combined with Krylov iteration this
// gives the fast integral-equation solver of Table 1's right column.
//
// Engine mechanics (see DESIGN.md §8): the cluster-pair tree is first
// *planned* into a flat admissible/dense block list, then all blocks are
// compressed/filled concurrently on a perf::ThreadPool with one output
// slot per block, so the built matrix is bitwise identical for any thread
// count. Matvecs run through a pooled grow-only workspace in two phases —
// per-block Vᵀx temporaries, then per-leaf row accumulation over disjoint
// output ranges — and perform zero heap allocations in steady state
// (workspaceGrowth() is the counter-verified contract).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstddef>
#include <memory>
#include <vector>

#include "diag/thread_annotations.hpp"
#include "extraction/geometry.hpp"
#include "extraction/kernel.hpp"
#include "numeric/dense.hpp"
#include "sparse/krylov.hpp"

namespace rfic::perf {
class ThreadPool;
}

namespace rfic::extraction {

using numeric::RMat;
using numeric::RVec;

struct IES3Options {
  std::size_t leafSize = 24;   ///< max panels per cluster-tree leaf
  Real eta = 2.0;              ///< admissibility: dist ≥ diam/η
  Real tolerance = 1e-6;       ///< relative block compression tolerance
  std::size_t maxRank = 80;    ///< ACA rank cap per block
  /// Worker pool for block build, matvecs, and multi-RHS solves; nullptr
  /// uses perf::ThreadPool::global(). The pool must outlive the matrix.
  perf::ThreadPool* pool = nullptr;
  /// Chain the conductor solves serially, warm-starting each from the
  /// previous conductor's charge vector. Helps when successive conductors
  /// are geometrically similar (bus structures); disables the concurrent
  /// multi-RHS path, and changes the GMRES trajectory (results agree to
  /// solver tolerance, not bitwise).
  bool warmStart = false;
};

/// Build-time statistics: where the assembly wall time went, what the ACA
/// found, and how much of the dense matrix survived compression.
struct IES3BuildStats {
  std::uint64_t buildNs = 0;      ///< wall: tree + plan + parallel fill
  std::uint64_t compressNs = 0;   ///< ACA+SVD time, summed across threads
  std::uint64_t denseFillNs = 0;  ///< dense-leaf fill, summed across threads
  std::size_t denseBlockCount = 0;
  std::size_t lowRankBlockCount = 0;
  std::size_t rankMax = 0;
  Real rankMean = 0;              ///< mean retained rank over low-rank blocks
  /// Histogram of retained ranks in power-of-two buckets: bucket k counts
  /// blocks with rank in [2^k, 2^(k+1)), last bucket open-ended.
  std::array<std::size_t, 8> rankHistogram{};
  Real compressionRatio = 0;      ///< storedEntries / dim²
};

/// Hierarchically compressed kernel matrix.
class IES3Matrix final : public sparse::LinearOperator<Real> {
 public:
  /// Build from panel positions (cluster geometry) and a batched entry
  /// generator. The kernel is only sampled during construction and need
  /// not outlive the matrix.
  IES3Matrix(const std::vector<Vec3>& positions, const EntryKernel& kernel,
             const IES3Options& opts = {});

  std::size_t dim() const override { return n_; }
  /// Compressed matvec — the inner loop of every extraction GMRES
  /// iteration; allocation-free in steady state (pooled workspace).
  RFIC_REALTIME void apply(const RVec& x, RVec& y) const override;

  /// Stored floats (dense blocks + low-rank factors) — the Fig. 6 memory
  /// metric. Dense storage would be dim()².
  std::size_t storedEntries() const { return storedEntries_; }
  std::size_t denseBlockCount() const { return denseBlocks_.size(); }
  std::size_t lowRankBlockCount() const { return lowRankBlocks_.size(); }
  /// Inverse of panel self-interaction (Jacobi) preconditioner values.
  const RVec& diagonal() const { return diag_; }
  const IES3BuildStats& buildStats() const { return stats_; }

  /// Matvec workspace growth events (pool acquisitions that allocated).
  /// Flat across repeated apply() calls = the zero-allocation steady-state
  /// contract, asserted by counters rather than allocator hooks.
  std::uint64_t workspaceGrowth() const {
    return wsGrows_.load(std::memory_order_relaxed);
  }
  /// Operator applications since construction, and the wall time inside
  /// them (summed across concurrent callers).
  std::uint64_t matvecCount() const {
    return matvecs_.load(std::memory_order_relaxed);
  }
  std::uint64_t matvecNs() const {
    return matvecNs_.load(std::memory_order_relaxed);
  }

  /// Block-Jacobi preconditioner: LU factors of every diagonal leaf block
  /// (near-field self interactions). Far stronger than the scalar diagonal
  /// for refined meshes. The returned operator is self-contained — it
  /// copies the permutation and owns its factors, so it may outlive the
  /// matrix — and its apply() is allocation-free in steady state.
  std::unique_ptr<sparse::LinearOperator<Real>> makeBlockJacobi() const;

 private:
  struct Cluster {
    std::size_t begin = 0, end = 0;  // range in perm_
    Vec3 lo, hi;                     // bounding box
    int left = -1, right = -1;
    Real diameter() const;
  };
  struct DenseBlock {
    std::size_t rowCluster, colCluster;
    RMat a;
  };
  struct LowRankBlock {
    std::size_t rowCluster, colCluster;
    RMat u, v;  // block ≈ u · vᵀ
  };
  /// Planned block: an admissible (compress) or leaf-pair (dense) task.
  struct BlockTask {
    std::size_t rowCluster, colCluster;
    bool admissible;
  };
  /// Per-leaf matvec work: the dense blocks rooted at this leaf plus the
  /// low-rank blocks whose row range covers it. Leaves partition [0, n),
  /// so phase-2 accumulation writes disjoint output ranges.
  struct LeafWork {
    std::size_t begin = 0, end = 0;
    std::vector<std::size_t> dense;    // indices into denseBlocks_
    std::vector<std::size_t> lowRank;  // indices into lowRankBlocks_
    std::size_t cost = 0;              // flops estimate for scheduling
  };
  /// Grow-once matvec scratch; pooled so concurrent apply() calls (the
  /// multi-RHS solves) each run on their own buffers.
  struct Workspace {
    RVec xt, yt;   // permuted input / output
    RVec scratch;  // per-low-rank-block Vᵀx temporaries, at lrOffset_
  };

  int buildTree(std::vector<Vec3>& pts, std::size_t begin, std::size_t end,
                const IES3Options& opts);
  void planBlocks(const IES3Options& opts, std::vector<BlockTask>& tasks) const;
  void buildBlocks(const EntryKernel& kernel, const IES3Options& opts);
  void buildLeafWork();
  static Real clusterDistance(const Cluster& a, const Cluster& b);

  std::unique_ptr<Workspace> acquireWorkspace() const RFIC_EXCLUDES(wsMu_);
  void releaseWorkspace(std::unique_ptr<Workspace> ws) const
      RFIC_EXCLUDES(wsMu_);

  std::size_t n_ = 0;
  perf::ThreadPool* pool_ = nullptr;
  std::vector<std::size_t> perm_;  // tree ordering -> original index
  std::vector<Cluster> clusters_;
  std::vector<DenseBlock> denseBlocks_;
  std::vector<LowRankBlock> lowRankBlocks_;
  std::vector<std::size_t> leaves_;     // leaf cluster indices, by begin
  std::vector<LeafWork> leafWork_;      // parallel to leaves_
  std::vector<std::size_t> lrOffset_;   // scratch offset per low-rank block
  std::size_t scratchSize_ = 0;
  std::size_t storedEntries_ = 0;
  RVec diag_;
  IES3BuildStats stats_;

  mutable diag::Mutex wsMu_;
  mutable std::vector<std::unique_ptr<Workspace>> wsPool_
      RFIC_GUARDED_BY(wsMu_);
  mutable std::atomic<std::uint64_t> wsGrows_{0};
  mutable std::atomic<std::uint64_t> matvecs_{0};
  mutable std::atomic<std::uint64_t> matvecNs_{0};
};

/// Capacitance extraction with the compressed matrix + preconditioned
/// GMRES: one multi-RHS sweep (all conductors solved concurrently on the
/// pool, each with a persistent per-conductor GmresWorkspace). Reports
/// solver statistics for the Fig. 6 study.
struct IES3CapacitanceResult {
  RMat matrix;  ///< Maxwell capacitance matrix [F]
  std::size_t panelCount = 0;
  std::size_t storedEntries = 0;
  std::size_t gmresIterations = 0;
  IES3BuildStats buildStats;
  std::uint64_t solveNs = 0;  ///< wall ns in the multi-RHS GMRES stage
  std::uint64_t matvecs = 0;  ///< operator applications across all solves
};

IES3CapacitanceResult extractCapacitanceIES3(const PanelMesh& mesh,
                                             const IES3Options& opts = {});

}  // namespace rfic::extraction
