// Fill-reducing column pre-order for the sparse LU factorization.
//
// A full Markowitz search pays an O(n) candidate scan per elimination step
// — O(n²) for the whole analysis — which makes 100k-node MNA systems
// infeasible even though the numeric work itself is nearly linear in the
// fill. SymbolicLU therefore splits the decision: the *column* sequence is
// fixed up front from the pattern alone, and the numeric factorization
// only picks the pivot *row* inside each column, with a relative-magnitude
// threshold. Ordering quality is a pattern property; numerical stability
// stays a value property — the threshold backstop (and the replay repivot
// fallback) is the same under every ordering.
//
// Two column orders exist: `Amd` (the default) is the approximate minimum
// degree order of the symmetrized pattern (Amestoy, Davis & Duff);
// `Natural` is the identity order, a reference mode that fills far more on
// large meshes.
//
// Selection is plumbed three ways, mirroring the batched-eval toggle:
//  - a process-wide default (CLI `--ordering=natural|amd`),
//  - a per-thread override (the daemon's per-job `ordering` submit field,
//    installed around the job so every workspace the job creates sees it),
//  - an explicit Options::ordering on the factorizers (tests, benches).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rfic::sparse {

enum class Ordering {
  Auto,     ///< resolve to effectiveOrdering() at factor() time
  Natural,  ///< identity column order (reference mode)
  Amd,      ///< approximate-minimum-degree column pre-order (default)
};

/// Parses "natural" or "amd" (the CLI/submit-field vocabulary — Auto is an
/// internal sentinel and not accepted). Returns false on anything else.
bool parseOrdering(const std::string& s, Ordering& out);

/// Process-wide default picked up by new factorizations (CLI flag plumbing;
/// relaxed atomic, same pattern as MnaWorkspace::setBatchedEvalDefault).
Ordering orderingDefault();
void setOrderingDefault(Ordering o);

/// The ordering Auto resolves to on this thread: the innermost
/// ScopedOrderingOverride if one is installed, else the process default.
Ordering effectiveOrdering();
/// Auto → effectiveOrdering(); anything else passes through.
Ordering resolveOrdering(Ordering o);

/// RAII per-thread override — how the engine applies a job's `ordering`
/// submit field without racing concurrent jobs on the process default.
/// Every factorizer the job's thread constructs while the override is
/// alive resolves Auto to this value.
class ScopedOrderingOverride {
 public:
  explicit ScopedOrderingOverride(Ordering o);
  ~ScopedOrderingOverride();
  ScopedOrderingOverride(const ScopedOrderingOverride&) = delete;
  ScopedOrderingOverride& operator=(const ScopedOrderingOverride&) = delete;

 private:
  Ordering prev_;
};

/// Approximate-minimum-degree ordering of the symmetrized pattern of an
/// n×n CSR matrix (G∪C∪Gᵀ∪Cᵀ, diagonal ignored). Returns the elimination
/// order: result[k] is the node (column) to eliminate at step k. Fully
/// deterministic — quotient-graph with element absorption, the
/// Amestoy–Davis–Duff two-pass approximate external degree, aggressive
/// element absorption, and index-order tie-breaking. Duplicate column
/// indices and unsorted rows are tolerated. With `lowerNnz`, also reports
/// the entries below the diagonal of the Cholesky factor of the
/// symmetrized pattern in the returned order (Σ|L_p| over the pivots: each
/// new element's list is the exact column of that factor), which SymbolicLU
/// uses to size its factor arrays.
std::vector<std::uint32_t> amdOrder(std::size_t n,
                                    const std::vector<std::size_t>& rowPtr,
                                    const std::vector<std::uint32_t>& colIdx,
                                    std::size_t* lowerNnz = nullptr);

}  // namespace rfic::sparse
