// Batched structure-of-arrays device evaluation.
//
// The scalar evaluation path walks the circuit's device list through
// virtual Device::stamp() calls; every matrix entry pays a binary search
// into the cached CSR pattern, every instance an indirect call. For the
// Newton-heavy steady-state analyses (HB evaluates every device at every
// time sample of every iteration) that bookkeeping dominates the actual
// junction math. This layer compiles the circuit once per sparsity
// pattern into a form where the per-evaluation work is just arithmetic:
//
//  - Diode/BJT/MOSFET instances land in per-class structure-of-arrays
//    tables — contiguous parameters, node indices, precomputed vcrit —
//    and are evaluated as flat loops over the shared kernels in
//    junction_kernels.hpp (phase A);
//  - every G/C entry position is resolved to its CSR slot once, at
//    compile time; evaluation scatters through int32 slot arrays with no
//    searches (phase B);
//  - linear devices whose matrix stamps are compile-time constants
//    (R/L/C, VCCS, source ±1 rows) are folded into constant prefill
//    templates copied over gVals/cVals before each scatter — they cost a
//    memcpy, not per-device work;
//  - independent-source waveform values can be computed once per time
//    sample of a multi-sample sweep and reused across Newton iterations
//    (sample times are fixed for a given HB/shooting grid).
//
// Bitwise contract: with the `--no-batch-eval` toggle the scalar walk is
// the golden reference, and this engine reproduces its f/q/b/G/C output
// bit for bit. That works because (a) both paths execute the *same*
// inline kernels, (b) the scatter walk runs in original device order, so
// every f/q/b vector entry and every CSR slot receives its contributions
// in the exact scalar order, and (c) a slot is folded into the constant
// template only when *all* of its contributions are constants — the
// template then carries the same device-order sum the scalar path forms.
// Devices without a compiled form (VCVS, CCCS, CCVS, mutual inductance,
// multiplier, user-defined Device subclasses) keep their virtual stamp(),
// invoked mid-walk at their original position; their matrix footprint is
// probed at compile time so slots they touch are never prefilled.
//
// A compiled instance whose slot cannot be resolved (a conditional stamp
// absent from the discovery pattern) is demoted to the generic walk; its
// eventual overflow triggers MnaWorkspace's usual growPattern + recompile
// self-healing, keeping the pattern — and therefore the factorization —
// identical between the two evaluation modes.
//
// The first build needs no discovery walk: build() derives the union
// pattern from the same registration pass that compiles the batch. The
// registered entries, the diagonal and the generic devices' probe stamps
// are bucketed by column and then by row (two counting sorts, a per-row
// marker dropping duplicates), and each entry learns its slot as the
// pattern is laid out. The result is the set the scalar walk discovers at
// the same probe point: the only conditional stamp among the compiled
// devices is a diode's C block (stamped where its kernel's c != 0), so
// build() evaluates each such diode at the probe point and leaves a quiet
// block out, demoting the diode if the block's positions are missing.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/junction_kernels.hpp"
#include "sparse/sparse_matrix.hpp"

namespace rfic::circuit {

class Waveform;
class DeviceBatch;

/// Registration interface handed to Device::compileBatch(). Each call
/// claims the device for the batch engine and records its parameters; the
/// op's matrix entries are derived from them (DeviceBatch::forEntries) in
/// the device's scalar stamp() emission order, which is what keeps per-slot
/// accumulation order identical between the paths.
class BatchCompiler {
 public:
  // Linear devices with compile-time-constant matrix stamps.
  void resistor(int n1, int n2, Real g);
  void capacitor(int n1, int n2, Real c);
  void inductor(int n1, int n2, int branch, Real l);
  void vccs(int outPlus, int outMinus, int ctrlPlus, int ctrlMinus, Real gm);
  void vsource(int nPlus, int nMinus, int branch, const Waveform* w,
               TimeAxis axis);
  void isource(int nPlus, int nMinus, const Waveform* w, TimeAxis axis);
  // Nonlinear devices evaluated through the shared kernels.
  void cubicConductance(int n1, int n2, Real g1, Real g3);
  void diode(int anode, int cathode, const kernels::DiodeParams& p);
  void bjt(int collector, int base, int emitter, const kernels::BJTParams& p);
  void mosfet(int drain, int gate, int source, const kernels::MOSFETParams& p);

 private:
  friend class DeviceBatch;
  explicit BatchCompiler(DeviceBatch& b) : b_(b) {}
  DeviceBatch& b_;
};

class DeviceBatch {
 public:
  /// Slot sentinel: ground row/column, dropped (scalar addG/addC semantics).
  static constexpr std::int32_t kDropped = -1;
  /// Slot sentinel: constant entry folded into the prefill template.
  static constexpr std::int32_t kPrefilled = -2;

  /// Per-evaluation kernel outputs. Owned by the caller (one per concurrent
  /// evaluation) so a multi-sample sweep can run samples in parallel over
  /// one compiled DeviceBatch; grown once by eval() to the class counts.
  struct Scratch {
    std::vector<kernels::DiodeOut> diode;
    std::vector<kernels::BJTOut> bjt;
    std::vector<kernels::MOSFETOut> mosfet;
  };

  /// Samples per kernel-sweep block: the nonlinear kernels of a multi-sample
  /// pass are evaluated sample-major over blocks of this size, so the
  /// junction exponentials run as flat loops over contiguous state rows.
  /// Fixed (never derived from thread count) — chunk boundaries must not
  /// change results, and per-sample outputs are independent anyway.
  static constexpr std::size_t kSweepChunk = 32;

  /// Kernel outputs for one sweep block: instance i's output for block
  /// sample j lives at [i * kSweepChunk + j]. One per sweep lane.
  struct SweepScratch {
    std::vector<kernels::DiodeOut> diode;
    std::vector<kernels::BJTOut> bjt;
    std::vector<kernels::MOSFETOut> mosfet;
  };

  /// Compile (or recompile after pattern growth) against a discovered
  /// sparsity pattern. `x`/`xPrev`/`t1`/`t2` form the probe point for the
  /// structural footprint of generic (non-compiled) devices; pass the same
  /// point the pattern itself was discovered at.
  void compile(const Circuit& ckt, const sparse::RCSR& pattern,
               std::size_t dim, const RVec& x, const RVec* xPrev, Real t1,
               Real t2);
  /// One-pass first build: compile and lay out `pattern` (the union of the
  /// diagonal and every position the scalar walk stamps at the probe point
  /// (x, xPrev, t1, t2)) together, with `diagSlots[i]` the position of
  /// (i, i). Equivalent to a discovery walk at that point followed by
  /// compile().
  void build(const Circuit& ckt, std::size_t dim, const RVec& x,
             const RVec* xPrev, Real t1, Real t2, sparse::RCSR& pattern,
             std::vector<std::size_t>& diagSlots);
  bool compiled() const { return compiled_; }

  /// Approximate bytes held by the compiled tables, slot arrays, and
  /// templates — charged to the owning job's diag::MemAccount by the
  /// workspace after each compile.
  std::size_t bytes() const;

  /// Independent-source waveform count / values at (t1, t2), in compiled
  /// source order. A multi-sample sweep computes these once per sample and
  /// feeds them back through eval()'s waveVals to skip re-evaluating
  /// sin/pwl waveforms every Newton iteration (sample times are fixed).
  std::size_t numWaveforms() const { return waves_.size(); }
  void evalWaveforms(Real t1, Real t2, Real* out) const;

  /// One full circuit evaluation, bitwise-identical to the scalar device
  /// walk. `s` must be a pattern-mode (or vector-only) Stamp whose targets
  /// are `gVals`/`cVals`; when matrices are wanted the arrays are prefilled
  /// here from the constant templates — the caller must NOT zero-fill them.
  /// `waveVals` optionally carries evalWaveforms() output for this sample's
  /// times; nullptr evaluates waveforms inline (scalar-identical either
  /// way). Returns true when a junction limiter moved a voltage (only
  /// possible with xPrev): false means the outputs are bitwise those of the
  /// same call without xPrev.
  bool eval(const RVec& x, const RVec* xPrev, Stamp& s,
            std::vector<Real>* gVals, std::vector<Real>* cVals,
            Scratch& scratch, const Real* waveVals) const;

  /// Overwrite `b` with the source vector at (t1, t2): the independent
  /// sources' contributions in device order, bitwise the b of a full
  /// eval() when hasGenericOps() is false (only sources stamp b then).
  void stampSources(Real t1, Real t2, RVec& b) const;

  /// Sample-major kernel phase for a sweep block: evaluate every nonlinear
  /// instance at samples [s0, s0+count) of `xs` (states in columns, count ≤
  /// kSweepChunk) into `sc`. No junction limiting — sweeps evaluate at the
  /// iterate itself (xPrev == nullptr), matching the scalar sweep path.
  /// Each (instance, sample) output is computed by the same inline kernel
  /// call as eval()'s, so results are bitwise independent of blocking.
  void evalKernelsSweep(const numeric::RMat& xs, std::size_t s0,
                        std::size_t count, bool wantMatrices,
                        SweepScratch& sc) const;

  /// Assembly phase for one sample of a sweep block: the constant-template
  /// prefill plus the device-order scatter of eval(), reading instance i's
  /// kernel output from out[i * kSweepChunk + blockIdx] of the SweepScratch
  /// filled by evalKernelsSweep().
  void assemble(const RVec& x, Stamp& s, std::vector<Real>* gVals,
                std::vector<Real>* cVals, const SweepScratch& sc,
                std::size_t blockIdx, const Real* waveVals) const;

  /// True when any device fell back to the generic virtual walk — the
  /// vector-only block assembly below requires an all-compiled circuit.
  bool hasGenericOps() const { return !genericDevs_.empty(); }
  /// True when every G/C value is a constant folded into the prefill
  /// templates (no generic op, no slot written at evaluation time): a
  /// matrix evaluation then yields the same G and C at every state and
  /// time.
  bool matricesConstant() const { return matricesConstant_; }

  /// Vector-only assembly of a whole sweep block at once: accumulates
  /// f/q/b for samples [s0, s0+count) directly into the row-major result
  /// matrices (columns are samples), op-outer / sample-inner so the linear
  /// ops run as flat loops over contiguous rows. Bitwise-identical to
  /// per-sample assemble() without matrices: each (entry, sample) cell
  /// receives the same contributions, in the same device order, from the
  /// same expressions — only the loop nest is interchanged, and samples
  /// never mix. Requires hasGenericOps() == false. `waveVals` is the full
  /// waveform cache laid out sample-major with `nWave` values per sample;
  /// when nullptr, waveforms are evaluated inline at (t1[s], t2[s]).
  void assembleSweepVec(const numeric::RMat& xs, std::size_t s0,
                        std::size_t count, numeric::RMat& fS,
                        numeric::RMat& qS, numeric::RMat& bS,
                        const SweepScratch& sc, const Real* waveVals,
                        std::size_t nWave, const Real* t1,
                        const Real* t2) const;

 private:
  friend class BatchCompiler;

  enum class OpKind : std::uint8_t {
    generic,
    resistor,
    capacitor,
    inductor,
    vccs,
    vsource,
    isource,
    cubic,
    diode,
    bjt,
    mosfet,
  };

  static constexpr std::size_t kNumKinds =
      static_cast<std::size_t>(OpKind::mosfet) + 1;

  /// One device in original circuit order. `idx` points into the kind's
  /// table (or genericDevs_); `slotBase`/`nEntries` into slots_.
  struct Op {
    OpKind kind;
    std::uint32_t idx;
    std::uint32_t slotBase;
    std::uint32_t nEntries;
  };

  /// One matrix entry of an op, as forEntries() derives it from the op's
  /// table. Constant entries carry their value for the prefill-template
  /// fold.
  struct Entry {
    std::int32_t row, col;
    bool isC;
    bool isConst;
    Real constVal;
  };

  struct ResistorOp {
    std::int32_t n1, n2;
    Real g;
  };
  struct CapacitorOp {
    std::int32_t n1, n2;
    Real c;
  };
  struct InductorOp {
    std::int32_t n1, n2, br;
    Real l;
  };
  struct VccsOp {
    std::int32_t op, om, cp, cm;
    Real gm;
  };
  struct SourceOp {
    std::int32_t np, nm, br;  ///< br unused (-1) for current sources
    const Waveform* w;
    TimeAxis axis;
    std::uint32_t waveIdx;
  };
  struct CubicOp {
    std::int32_t n1, n2;
    Real g1, g3;
  };
  /// Structure-of-arrays diode table (kernel phase iterates these flat).
  struct DiodeTable {
    std::vector<Real> is, nvt, vcrit, gmin, cj0, vj, m, fc, tt;
    std::vector<std::int32_t> na, nc;
    std::vector<std::uint8_t> hasC;  ///< cj0>0 || tt>0: C stamps possible
    std::size_t size() const { return na.size(); }
    void reserve(std::size_t n) {
      for (auto* v : {&is, &nvt, &vcrit, &gmin, &cj0, &vj, &m, &fc, &tt})
        v->reserve(n);
      na.reserve(n);
      nc.reserve(n);
      hasC.reserve(n);
    }
  };
  struct BJTTable {
    std::vector<kernels::BJTParams> p;
    std::vector<std::int32_t> nc, nb, ne;
    std::size_t size() const { return nc.size(); }
    void reserve(std::size_t n) {
      p.reserve(n);
      for (auto* v : {&nc, &nb, &ne}) v->reserve(n);
    }
  };
  struct MOSFETTable {
    std::vector<kernels::MOSFETParams> p;
    std::vector<std::int32_t> nd, ng, ns;
    std::vector<std::uint8_t> hasCgs, hasCgd;
    std::size_t size() const { return nd.size(); }
    void reserve(std::size_t n) {
      p.reserve(n);
      for (auto* v : {&nd, &ng, &ns}) v->reserve(n);
      hasCgs.reserve(n);
      hasCgd.reserve(n);
    }
  };

  struct Wave {
    const Waveform* w;
    TimeAxis axis;
  };

  // --- registration helpers (called via BatchCompiler) ---
  /// In the counting pass: tally `kind` and return true (register nothing).
  bool counted(OpKind kind);
  void beginOp(OpKind kind, std::uint32_t idx, std::uint32_t nEntries);
  std::uint32_t addWave(const Waveform* w, TimeAxis axis) {
    waves_.push_back({w, axis});
    return static_cast<std::uint32_t>(waves_.size() - 1);
  }

  /// Reset the tables and run every device's compileBatch() twice: once
  /// to count the ops of each class, once to fill the tables sized by it.
  void registerDevices(const Circuit& ckt);
  /// Call emit(j, entry) for each matrix entry of `op`, j = 0 .. nEntries-1
  /// in the scalar stamp's emission order (the order of the op's slots).
  template <class Emit>
  void forEntries(const Op& op, Emit&& emit) const;
  /// Turn op `k` into a generic walk of `dev` (its entries dropped).
  void demote(std::size_t k, const Device* dev);
  /// Generic devices' matrix footprint at a probe point: stamping over an
  /// empty pattern sends every entry to the triplets.
  static void probe(const std::vector<const Device*>& devs, std::size_t dim,
                    const RVec& x, const RVec* xPrev, Real t1, Real t2,
                    sparse::RTriplets& gT, sparse::RTriplets& cT);
  /// Last compile stage: mark the slots non-constant compiled entries
  /// touch as dynamic (gDyn/cDyn arrive with the generic footprint marked),
  /// fold the constant entries of all-constant slots into the templates,
  /// and list the source ops.
  void finish(std::size_t nnz, std::vector<std::uint8_t>& gDyn,
              std::vector<std::uint8_t>& cDyn);

  void ensureScratch(Scratch& sc) const;
  void ensureSweepScratch(SweepScratch& sc) const;
  /// Shared assembly body: prefill + device-order scatter, with instance
  /// i's kernel output at out[i * stride] (stride 1 for eval()'s Scratch,
  /// kSweepChunk for a SweepScratch block sample).
  void assembleImpl(const RVec& x, const RVec* xPrev, Stamp& s,
                    std::vector<Real>* gVals, std::vector<Real>* cVals,
                    const kernels::DiodeOut* dOut, const kernels::BJTOut* bOut,
                    const kernels::MOSFETOut* mOut, std::size_t stride,
                    const Real* waveVals) const;

  bool compiled_ = false;
  bool matricesConstant_ = false;
  std::vector<Op> ops_;
  std::size_t nSlots_ = 0;           ///< entries of all ops
  std::vector<std::int32_t> slots_;  ///< resolved, one per entry
  std::vector<Real> gTemplate_, cTemplate_;
  std::vector<const Device*> genericDevs_;
  std::vector<std::uint32_t> srcOps_;  ///< V/I source ops, device order
  std::vector<Wave> waves_;
  bool took_ = false;  ///< current device registered something
  bool counting_ = false;  ///< registration's counting pass
  std::array<std::uint32_t, kNumKinds> kindCount_{};

  std::vector<ResistorOp> res_;
  std::vector<CapacitorOp> cap_;
  std::vector<InductorOp> ind_;
  std::vector<VccsOp> vccs_;
  std::vector<SourceOp> vsrc_, isrc_;
  std::vector<CubicOp> cubic_;
  DiodeTable diode_;
  BJTTable bjt_;
  MOSFETTable mos_;
};

}  // namespace rfic::circuit
