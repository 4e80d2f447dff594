#include "circuit/device_batch.hpp"

#include <algorithm>

#include "circuit/sources.hpp"

namespace rfic::circuit {

// ----------------------------------------------------- registration
//
// Registration fills only the op list and the per-class tables; a counting
// pass over the same calls sizes every table first. The matrix entries are
// not stored: forEntries() derives them from the tables.

bool DeviceBatch::counted(OpKind kind) {
  if (!counting_) return false;
  ++kindCount_[static_cast<std::size_t>(kind)];
  return true;
}

void DeviceBatch::beginOp(OpKind kind, std::uint32_t idx,
                          std::uint32_t nEntries) {
  ops_.push_back({kind, idx, static_cast<std::uint32_t>(nSlots_), nEntries});
  nSlots_ += nEntries;
  took_ = true;
}

void BatchCompiler::resistor(int n1, int n2, Real g) {
  if (b_.counted(DeviceBatch::OpKind::resistor)) return;
  b_.beginOp(DeviceBatch::OpKind::resistor,
             static_cast<std::uint32_t>(b_.res_.size()), 4);
  b_.res_.push_back({n1, n2, g});
}

void BatchCompiler::capacitor(int n1, int n2, Real c) {
  if (b_.counted(DeviceBatch::OpKind::capacitor)) return;
  b_.beginOp(DeviceBatch::OpKind::capacitor,
             static_cast<std::uint32_t>(b_.cap_.size()), 4);
  b_.cap_.push_back({n1, n2, c});
}

void BatchCompiler::inductor(int n1, int n2, int branch, Real l) {
  if (b_.counted(DeviceBatch::OpKind::inductor)) return;
  b_.beginOp(DeviceBatch::OpKind::inductor,
             static_cast<std::uint32_t>(b_.ind_.size()), 5);
  b_.ind_.push_back({n1, n2, branch, l});
}

void BatchCompiler::vccs(int outPlus, int outMinus, int ctrlPlus,
                         int ctrlMinus, Real gm) {
  if (b_.counted(DeviceBatch::OpKind::vccs)) return;
  b_.beginOp(DeviceBatch::OpKind::vccs,
             static_cast<std::uint32_t>(b_.vccs_.size()), 4);
  b_.vccs_.push_back({outPlus, outMinus, ctrlPlus, ctrlMinus, gm});
}

void BatchCompiler::vsource(int nPlus, int nMinus, int branch,
                            const Waveform* w, TimeAxis axis) {
  if (b_.counted(DeviceBatch::OpKind::vsource)) return;
  b_.beginOp(DeviceBatch::OpKind::vsource,
             static_cast<std::uint32_t>(b_.vsrc_.size()), 4);
  b_.vsrc_.push_back({nPlus, nMinus, branch, w, axis, b_.addWave(w, axis)});
}

void BatchCompiler::isource(int nPlus, int nMinus, const Waveform* w,
                            TimeAxis axis) {
  if (b_.counted(DeviceBatch::OpKind::isource)) return;
  b_.beginOp(DeviceBatch::OpKind::isource,
             static_cast<std::uint32_t>(b_.isrc_.size()), 0);
  b_.isrc_.push_back({nPlus, nMinus, -1, w, axis, b_.addWave(w, axis)});
}

void BatchCompiler::cubicConductance(int n1, int n2, Real g1, Real g3) {
  if (b_.counted(DeviceBatch::OpKind::cubic)) return;
  b_.beginOp(DeviceBatch::OpKind::cubic,
             static_cast<std::uint32_t>(b_.cubic_.size()), 4);
  b_.cubic_.push_back({n1, n2, g1, g3});
}

void BatchCompiler::diode(int anode, int cathode,
                          const kernels::DiodeParams& p) {
  if (b_.counted(DeviceBatch::OpKind::diode)) return;
  const bool hasC = p.cj0 > 0 || p.tt > 0;
  b_.beginOp(DeviceBatch::OpKind::diode,
             static_cast<std::uint32_t>(b_.diode_.size()), hasC ? 8 : 4);
  DeviceBatch::DiodeTable& t = b_.diode_;
  t.is.push_back(p.is);
  t.nvt.push_back(p.nvt);
  t.vcrit.push_back(p.vcrit);
  t.gmin.push_back(p.gmin);
  t.cj0.push_back(p.cj0);
  t.vj.push_back(p.vj);
  t.m.push_back(p.m);
  t.fc.push_back(p.fc);
  t.tt.push_back(p.tt);
  t.na.push_back(anode);
  t.nc.push_back(cathode);
  t.hasC.push_back(hasC ? 1 : 0);
}

void BatchCompiler::bjt(int collector, int base, int emitter,
                        const kernels::BJTParams& p) {
  if (b_.counted(DeviceBatch::OpKind::bjt)) return;
  b_.beginOp(DeviceBatch::OpKind::bjt,
             static_cast<std::uint32_t>(b_.bjt_.size()), 18);
  b_.bjt_.p.push_back(p);
  b_.bjt_.nc.push_back(collector);
  b_.bjt_.nb.push_back(base);
  b_.bjt_.ne.push_back(emitter);
}

void BatchCompiler::mosfet(int drain, int gate, int source,
                           const kernels::MOSFETParams& p) {
  if (b_.counted(DeviceBatch::OpKind::mosfet)) return;
  const bool hasCgs = p.cgs > 0;
  const bool hasCgd = p.cgd > 0;
  b_.beginOp(DeviceBatch::OpKind::mosfet,
             static_cast<std::uint32_t>(b_.mos_.size()),
             6 + (hasCgs ? 4 : 0) + (hasCgd ? 4 : 0));
  b_.mos_.p.push_back(p);
  b_.mos_.nd.push_back(drain);
  b_.mos_.ng.push_back(gate);
  b_.mos_.ns.push_back(source);
  b_.mos_.hasCgs.push_back(hasCgs ? 1 : 0);
  b_.mos_.hasCgd.push_back(hasCgd ? 1 : 0);
}

// The entries of one op in its scalar stamp's emission order — the order of
// its slots, which assembleImpl indexes as sl[0], sl[1], ...
template <class Emit>
void DeviceBatch::forEntries(const Op& op, Emit&& emit) const {
  std::uint32_t j = 0;
  const auto dyn = [&](bool isC, int row, int col) {
    emit(j++, Entry{row, col, isC, false, 0.0});
  };
  const auto konst = [&](bool isC, int row, int col, Real v) {
    emit(j++, Entry{row, col, isC, true, v});
  };
  // The symmetric two-terminal block: (a,a) v, (a,b) −v, (b,a) −v, (b,b) v.
  const auto konst4 = [&](bool isC, int a, int b, Real v) {
    konst(isC, a, a, v);
    konst(isC, a, b, -v);
    konst(isC, b, a, -v);
    konst(isC, b, b, v);
  };
  const auto dyn4 = [&](bool isC, int a, int b) {
    dyn(isC, a, a);
    dyn(isC, a, b);
    dyn(isC, b, a);
    dyn(isC, b, b);
  };
  switch (op.kind) {
    case OpKind::generic:
    case OpKind::isource:
      break;
    case OpKind::resistor: {
      const ResistorOp& r = res_[op.idx];
      konst4(false, r.n1, r.n2, r.g);
      break;
    }
    case OpKind::capacitor: {
      const CapacitorOp& c = cap_[op.idx];
      konst4(true, c.n1, c.n2, c.c);
      break;
    }
    case OpKind::inductor: {
      const InductorOp& l = ind_[op.idx];
      konst(false, l.n1, l.br, 1.0);
      konst(false, l.n2, l.br, -1.0);
      konst(false, l.br, l.n1, -1.0);
      konst(false, l.br, l.n2, 1.0);
      konst(true, l.br, l.br, l.l);
      break;
    }
    case OpKind::vccs: {
      const VccsOp& v = vccs_[op.idx];
      konst(false, v.op, v.cp, v.gm);
      konst(false, v.op, v.cm, -v.gm);
      konst(false, v.om, v.cp, -v.gm);
      konst(false, v.om, v.cm, v.gm);
      break;
    }
    case OpKind::vsource: {
      const SourceOp& so = vsrc_[op.idx];
      konst(false, so.np, so.br, 1.0);
      konst(false, so.nm, so.br, -1.0);
      konst(false, so.br, so.np, 1.0);
      konst(false, so.br, so.nm, -1.0);
      break;
    }
    case OpKind::cubic: {
      const CubicOp& c = cubic_[op.idx];
      dyn4(false, c.n1, c.n2);
      break;
    }
    case OpKind::diode: {
      const std::int32_t a = diode_.na[op.idx];
      const std::int32_t c = diode_.nc[op.idx];
      dyn4(false, a, c);
      if (diode_.hasC[op.idx] != 0) dyn4(true, a, c);
      break;
    }
    case OpKind::bjt: {
      // G rows in scalar emission order (collector, base, emitter), C rows
      // in (base, emitter, collector); columns (base, emitter, collector).
      const std::int32_t c = bjt_.nc[op.idx];
      const std::int32_t b = bjt_.nb[op.idx];
      const std::int32_t e = bjt_.ne[op.idx];
      for (const std::int32_t row : {c, b, e}) {
        dyn(false, row, b);
        dyn(false, row, e);
        dyn(false, row, c);
      }
      for (const std::int32_t row : {b, e, c}) {
        dyn(true, row, b);
        dyn(true, row, e);
        dyn(true, row, c);
      }
      break;
    }
    case OpKind::mosfet: {
      const std::int32_t d = mos_.nd[op.idx];
      const std::int32_t g = mos_.ng[op.idx];
      const std::int32_t s = mos_.ns[op.idx];
      dyn(false, d, g);
      dyn(false, d, d);
      dyn(false, d, s);
      dyn(false, s, g);
      dyn(false, s, d);
      dyn(false, s, s);
      if (mos_.hasCgs[op.idx] != 0) konst4(true, g, s, mos_.p[op.idx].cgs);
      if (mos_.hasCgd[op.idx] != 0) konst4(true, g, d, mos_.p[op.idx].cgd);
      break;
    }
  }
}

// --------------------------------------------------------- compilation

namespace {

// Position of (row, col) in `pattern`, kDropped for a ground row or column,
// kMissing when the pattern lacks it.
constexpr std::int64_t kMissing = -3;
std::int64_t findSlot(const sparse::RCSR& pattern, std::int64_t row,
                      std::int64_t col) {
  if (row < 0 || col < 0) return DeviceBatch::kDropped;
  const auto& rp = pattern.rowPtr();
  const auto& ci = pattern.colIdx();
  const auto c = static_cast<std::size_t>(col);
  std::size_t lo = rp[static_cast<std::size_t>(row)];
  std::size_t hi = rp[static_cast<std::size_t>(row) + 1];
  const std::size_t end = hi;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (ci[mid] < c)
      lo = mid + 1;
    else
      hi = mid;
  }
  if (lo < end && ci[lo] == c) return static_cast<std::int64_t>(lo);
  return kMissing;
}

// Mark the slots of a probe's triplets in `dyn` (positions the pattern
// lacks are skipped: they overflow at evaluation time and heal through
// growPattern).
void markProbed(const sparse::RCSR& pattern, const sparse::RTriplets& t,
                std::vector<std::uint8_t>& dyn) {
  for (const auto& en : t.entries()) {
    const std::int64_t sl =
        findSlot(pattern, static_cast<std::int64_t>(en.row),
                 static_cast<std::int64_t>(en.col));
    if (sl >= 0) dyn[static_cast<std::size_t>(sl)] = 1;
  }
}

}  // namespace

void DeviceBatch::registerDevices(const Circuit& ckt) {
  ops_.clear();
  slots_.clear();
  genericDevs_.clear();
  srcOps_.clear();
  waves_.clear();
  res_.clear();
  cap_.clear();
  ind_.clear();
  vccs_.clear();
  vsrc_.clear();
  isrc_.clear();
  cubic_.clear();
  diode_ = DiodeTable{};
  bjt_ = BJTTable{};
  mos_ = MOSFETTable{};
  nSlots_ = 0;

  // Counting pass: the same calls, tallied per class, size every table
  // exactly, so the filling pass never reallocates.
  BatchCompiler bc(*this);
  kindCount_.fill(0);
  counting_ = true;
  for (const auto& dev : ckt.devices()) dev->compileBatch(bc);
  counting_ = false;
  const auto count = [&](OpKind k) {
    return kindCount_[static_cast<std::size_t>(k)];
  };
  ops_.reserve(ckt.devices().size());
  res_.reserve(count(OpKind::resistor));
  cap_.reserve(count(OpKind::capacitor));
  ind_.reserve(count(OpKind::inductor));
  vccs_.reserve(count(OpKind::vccs));
  vsrc_.reserve(count(OpKind::vsource));
  isrc_.reserve(count(OpKind::isource));
  waves_.reserve(count(OpKind::vsource) + count(OpKind::isource));
  cubic_.reserve(count(OpKind::cubic));
  diode_.reserve(count(OpKind::diode));
  bjt_.reserve(count(OpKind::bjt));
  mos_.reserve(count(OpKind::mosfet));

  // Registration pass: every device either claims a compiled op or falls
  // back to the generic walk (including all user-defined Device types).
  for (const auto& dev : ckt.devices()) {
    took_ = false;
    dev->compileBatch(bc);
    if (!took_) {
      ops_.push_back({OpKind::generic,
                      static_cast<std::uint32_t>(genericDevs_.size()),
                      static_cast<std::uint32_t>(nSlots_), 0});
      genericDevs_.push_back(dev.get());
    }
  }
  RFIC_REQUIRE(ops_.size() == ckt.devices().size(),
               "DeviceBatch: compileBatch must register exactly one op");
  slots_.assign(nSlots_, kDropped);
}

void DeviceBatch::demote(std::size_t k, const Device* dev) {
  Op& op = ops_[k];
  for (std::uint32_t j = 0; j < op.nEntries; ++j)
    slots_[op.slotBase + j] = kDropped;
  op.kind = OpKind::generic;
  op.idx = static_cast<std::uint32_t>(genericDevs_.size());
  op.nEntries = 0;
  genericDevs_.push_back(dev);
}

void DeviceBatch::probe(const std::vector<const Device*>& devs,
                        std::size_t dim, const RVec& x, const RVec* xPrev,
                        Real t1, Real t2, sparse::RTriplets& gT,
                        sparse::RTriplets& cT) {
  gT.reset(dim, dim);
  cT.reset(dim, dim);
  if (devs.empty()) return;
  RVec f(dim), q(dim), b(dim);
  const sparse::RCSR empty{sparse::RTriplets(dim, dim)};
  std::vector<Real> noVals;
  const Stamp::PatternTarget pt{&empty, &noVals, &noVals, &gT, &cT};
  Stamp s(f, q, b, pt, t1, t2);
  for (const Device* dev : devs) dev->stamp(x, xPrev, s);
}

void DeviceBatch::compile(const Circuit& ckt, const sparse::RCSR& pattern,
                          std::size_t dim, const RVec& x, const RVec* xPrev,
                          Real t1, Real t2) {
  registerDevices(ckt);

  // Resolve every registered entry to its CSR slot. An op with an entry the
  // discovery pattern lacks (a conditional stamp that was inactive at the
  // probe point) is demoted to the generic walk: its scalar stamp will
  // overflow when the entry activates, triggering the workspace's usual
  // growPattern + recompile, so both evaluation modes grow the pattern at
  // the same moment and stay bitwise-aligned.
  for (std::size_t k = 0; k < ops_.size(); ++k) {
    const Op& op = ops_[k];
    if (op.kind == OpKind::generic) continue;
    bool ok = true;
    forEntries(op, [&](std::uint32_t j, const Entry& e) {
      const std::int64_t sl = ok ? findSlot(pattern, e.row, e.col) : kMissing;
      if (sl == kMissing)
        ok = false;
      else
        slots_[op.slotBase + j] = static_cast<std::int32_t>(sl);
    });
    if (!ok) demote(k, ckt.devices()[k].get());
  }

  // A slot any generic device touches at the probe point is dynamic.
  const std::size_t nnz = pattern.nnz();
  std::vector<std::uint8_t> gDyn(nnz, 0), cDyn(nnz, 0);
  sparse::RTriplets gT, cT;
  probe(genericDevs_, dim, x, xPrev, t1, t2, gT, cT);
  markProbed(pattern, gT, gDyn);
  markProbed(pattern, cT, cDyn);
  finish(nnz, gDyn, cDyn);
}

void DeviceBatch::build(const Circuit& ckt, std::size_t dim, const RVec& x,
                        const RVec* xPrev, Real t1, Real t2,
                        sparse::RCSR& pattern,
                        std::vector<std::size_t>& diagSlots) {
  registerDevices(ckt);

  // The one conditional stamp: a diode's C block, stamped only where its
  // kernel's c is nonzero. Evaluate each such diode at the probe point, as
  // the scalar walk would, and keep a quiet block out of the pattern.
  std::vector<std::uint8_t> quiet(ops_.size(), 0);
  for (std::size_t k = 0; k < ops_.size(); ++k) {
    const Op& op = ops_[k];
    if (op.kind != OpKind::diode || diode_.hasC[op.idx] == 0) continue;
    const std::size_t i = op.idx;
    const kernels::DiodeParams p{diode_.is[i], diode_.nvt[i], diode_.vcrit[i],
                                 diode_.gmin[i], diode_.cj0[i], diode_.vj[i],
                                 diode_.m[i],   diode_.fc[i],  diode_.tt[i]};
    const Real v = nodeVoltage(x, diode_.na[i]) - nodeVoltage(x, diode_.nc[i]);
    const Real vOld = xPrev != nullptr ? nodeVoltage(*xPrev, diode_.na[i]) -
                                             nodeVoltage(*xPrev, diode_.nc[i])
                                       : 0.0;
    const kernels::DiodeOut o =
        kernels::diodeEval(p, v, vOld, xPrev != nullptr);
    if (o.c == 0) quiet[k] = 1;  // lint: allow-float-eq (the stamp's gate)
  }
  sparse::RTriplets gT, cT;
  probe(genericDevs_, dim, x, xPrev, t1, t2, gT, cT);

  // Entry ids: [0, P) the ops' entries (their slot indices), [P, P + dim)
  // the diagonal, then the generic G and C triplets. Ground rows and
  // columns and quiet blocks are skipped.
  const std::size_t P = nSlots_;
  const std::size_t nG = gT.entries().size();
  const auto forEachEntry = [&](auto&& emit) {
    for (std::size_t k = 0; k < ops_.size(); ++k) {
      const Op& op = ops_[k];
      forEntries(op, [&](std::uint32_t j, const Entry& e) {
        if ((quiet[k] == 0 || j < 4) && e.row >= 0 && e.col >= 0)
          emit(op.slotBase + j, static_cast<std::size_t>(e.row),
               static_cast<std::size_t>(e.col));
      });
    }
    for (std::size_t i = 0; i < dim; ++i) emit(P + i, i, i);
    std::size_t id = P + dim;
    for (const auto& en : gT.entries()) emit(id++, en.row, en.col);
    for (const auto& en : cT.entries()) emit(id++, en.row, en.col);
  };

  // Counting sort by column: colStart[c] .. colStart[c + 1] holds the
  // (row, id) pairs of column c.
  std::vector<std::size_t> colStart(dim + 1, 0);
  forEachEntry([&](std::size_t, std::size_t, std::size_t c) {
    ++colStart[c + 1];
  });
  for (std::size_t c = 0; c < dim; ++c) colStart[c + 1] += colStart[c];
  const std::size_t m = colStart[dim];
  std::vector<std::uint32_t> byColRow(m), byColId(m);
  {
    std::vector<std::size_t> next(colStart.begin(), colStart.end() - 1);
    forEachEntry([&](std::size_t id, std::size_t r, std::size_t c) {
      const std::size_t p = next[c]++;
      byColRow[p] = static_cast<std::uint32_t>(r);
      byColId[p] = static_cast<std::uint32_t>(id);
    });
  }

  // Walking the columns in order visits each row's columns ascending, so a
  // per-row marker (the last column seen) drops duplicates. Pass one counts
  // each row's distinct columns, pass two lays them out and hands every
  // entry its position.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> last(dim, kNone);
  std::vector<std::size_t> rowPtr(dim + 1, 0);
  for (std::size_t c = 0; c < dim; ++c)
    for (std::size_t p = colStart[c]; p < colStart[c + 1]; ++p) {
      const std::size_t r = byColRow[p];
      if (last[r] != c) {
        last[r] = c;
        ++rowPtr[r + 1];
      }
    }
  for (std::size_t r = 0; r < dim; ++r) rowPtr[r + 1] += rowPtr[r];
  const std::size_t nnz = rowPtr[dim];
  std::vector<std::size_t> colIdx(nnz);
  std::vector<std::uint8_t> gDyn(nnz, 0), cDyn(nnz, 0);
  diagSlots.assign(dim, 0);
  std::fill(last.begin(), last.end(), kNone);
  std::vector<std::size_t> fill(rowPtr.begin(), rowPtr.end() - 1);
  for (std::size_t c = 0; c < dim; ++c)
    for (std::size_t p = colStart[c]; p < colStart[c + 1]; ++p) {
      const std::size_t r = byColRow[p];
      if (last[r] != c) {
        last[r] = c;
        colIdx[fill[r]++] = c;
      }
      const std::size_t slot = fill[r] - 1;
      const std::size_t id = byColId[p];
      if (id < P)
        slots_[id] = static_cast<std::int32_t>(slot);
      else if (id < P + dim)
        diagSlots[id - P] = slot;
      else
        (id < P + dim + nG ? gDyn : cDyn)[slot] = 1;
    }
  pattern = sparse::RCSR(dim, dim, std::move(rowPtr), std::move(colIdx));

  // A quiet block whose positions the pattern lacks demotes its diode, as
  // compile() does; the demoted stamp's footprint is dynamic.
  std::vector<const Device*> demoted;
  for (std::size_t k = 0; k < ops_.size(); ++k) {
    if (quiet[k] == 0) continue;
    const Op& op = ops_[k];
    bool ok = true;
    forEntries(op, [&](std::uint32_t j, const Entry& e) {
      if (j < 4) return;
      const std::int64_t sl = ok ? findSlot(pattern, e.row, e.col) : kMissing;
      if (sl == kMissing)
        ok = false;
      else
        slots_[op.slotBase + j] = static_cast<std::int32_t>(sl);
    });
    if (!ok) {
      demote(k, ckt.devices()[k].get());
      demoted.push_back(ckt.devices()[k].get());
    }
  }
  if (!demoted.empty()) {
    probe(demoted, dim, x, xPrev, t1, t2, gT, cT);
    markProbed(pattern, gT, gDyn);
    markProbed(pattern, cT, cDyn);
  }
  finish(nnz, gDyn, cDyn);
}

void DeviceBatch::finish(std::size_t nnz, std::vector<std::uint8_t>& gDyn,
                         std::vector<std::uint8_t>& cDyn) {
  // Classify slots: a slot is "dynamic" if any non-constant compiled entry
  // or any generic device touches it. Constant contributions to a dynamic
  // slot must stay in the ordered walk, or the scalar accumulation order
  // (and therefore the bitwise sum) would change.
  for (const Op& op : ops_) {
    forEntries(op, [&](std::uint32_t j, const Entry& e) {
      const std::int32_t sl = slots_[op.slotBase + j];
      if (sl >= 0 && !e.isConst) (e.isC ? cDyn : gDyn)[sl] = 1;
    });
  }

  // Fold constants into the prefill templates. Walking ops in device order
  // keeps each template slot's summation order identical to the scalar
  // walk's for its (all-constant) contributions.
  gTemplate_.assign(nnz, 0.0);
  cTemplate_.assign(nnz, 0.0);
  for (std::size_t k = 0; k < ops_.size(); ++k) {
    const Op& op = ops_[k];
    if (op.kind == OpKind::vsource || op.kind == OpKind::isource)
      srcOps_.push_back(static_cast<std::uint32_t>(k));
    forEntries(op, [&](std::uint32_t j, const Entry& e) {
      std::int32_t& sl = slots_[op.slotBase + j];
      if (sl >= 0 && e.isConst &&
          (e.isC ? cDyn : gDyn)[static_cast<std::size_t>(sl)] == 0) {
        (e.isC ? cTemplate_ : gTemplate_)[static_cast<std::size_t>(sl)] +=
            e.constVal;
        sl = kPrefilled;
      }
    });
  }
  // Negative slots are kDropped or kPrefilled: nothing left to scatter.
  matricesConstant_ =
      genericDevs_.empty() &&
      std::all_of(slots_.begin(), slots_.end(),
                  [](std::int32_t sl) { return sl < 0; });
  compiled_ = true;
}

std::size_t DeviceBatch::bytes() const {
  std::size_t b = ops_.size() * sizeof(Op) +
                  slots_.size() * sizeof(std::int32_t) +
                  (gTemplate_.size() + cTemplate_.size()) * sizeof(Real);
  b += res_.size() * sizeof(ResistorOp) + cap_.size() * sizeof(CapacitorOp) +
       ind_.size() * sizeof(InductorOp) + vccs_.size() * sizeof(VccsOp) +
       (vsrc_.size() + isrc_.size()) * sizeof(SourceOp) +
       cubic_.size() * sizeof(CubicOp);
  b += diode_.size() * (9 * sizeof(Real) + 2 * sizeof(std::int32_t) + 1);
  b += bjt_.size() * (sizeof(kernels::BJTParams) + 3 * sizeof(std::int32_t));
  b += mos_.size() *
       (sizeof(kernels::MOSFETParams) + 3 * sizeof(std::int32_t) + 2);
  return b;
}

void DeviceBatch::evalWaveforms(Real t1, Real t2, Real* out) const {
  for (std::size_t k = 0; k < waves_.size(); ++k)
    out[k] = waves_[k].w->value(waves_[k].axis == TimeAxis::fast ? t2 : t1);
}

// ---------------------------------------------------------- evaluation

void DeviceBatch::ensureScratch(Scratch& sc) const {
  // Grow-once: sizes only change on recompile.
  if (sc.diode.size() != diode_.size())
    sc.diode.resize(diode_.size());  // rt: allow(rt-alloc) grow-once scratch
  if (sc.bjt.size() != bjt_.size())
    sc.bjt.resize(bjt_.size());  // rt: allow(rt-alloc) grow-once scratch
  if (sc.mosfet.size() != mos_.size())
    sc.mosfet.resize(mos_.size());  // rt: allow(rt-alloc) grow-once scratch
}

void DeviceBatch::ensureSweepScratch(SweepScratch& sc) const {
  // Grow-once: sizes only change on recompile.
  if (sc.diode.size() != diode_.size() * kSweepChunk)
    sc.diode.resize(diode_.size() *
                    kSweepChunk);  // rt: allow(rt-alloc) grow-once scratch
  if (sc.bjt.size() != bjt_.size() * kSweepChunk)
    sc.bjt.resize(bjt_.size() *
                  kSweepChunk);  // rt: allow(rt-alloc) grow-once scratch
  if (sc.mosfet.size() != mos_.size() * kSweepChunk)
    sc.mosfet.resize(mos_.size() *
                     kSweepChunk);  // rt: allow(rt-alloc) grow-once scratch
}

bool DeviceBatch::eval(const RVec& x, const RVec* xPrev, Stamp& s,
                       std::vector<Real>* gVals, std::vector<Real>* cVals,
                       Scratch& sc, const Real* waveVals) const {
  const bool wantMat = s.wantMatrices();
  const bool limit = xPrev != nullptr;
  bool limited = false;
  ensureScratch(sc);

  // Phase A: flat kernel loops over the SoA tables. Each iteration is an
  // independent elementwise map — no cross-instance state — so per-element
  // results are identical to the scalar path no matter how the compiler
  // schedules or unrolls the loop.
  for (std::size_t i = 0, n = diode_.size(); i < n; ++i) {
    const kernels::DiodeParams p{diode_.is[i], diode_.nvt[i], diode_.vcrit[i],
                                 diode_.gmin[i], diode_.cj0[i], diode_.vj[i],
                                 diode_.m[i],   diode_.fc[i],  diode_.tt[i]};
    const Real v =
        nodeVoltage(x, diode_.na[i]) - nodeVoltage(x, diode_.nc[i]);
    const Real vOld = limit ? nodeVoltage(*xPrev, diode_.na[i]) -
                                  nodeVoltage(*xPrev, diode_.nc[i])
                            : 0.0;
    sc.diode[i] = kernels::diodeEval(p, v, vOld, limit);
    limited |= sc.diode[i].limited;
  }
  for (std::size_t i = 0, n = bjt_.size(); i < n; ++i) {
    const Real vb = nodeVoltage(x, bjt_.nb[i]);
    const Real ve = nodeVoltage(x, bjt_.ne[i]);
    const Real vc = nodeVoltage(x, bjt_.nc[i]);
    Real vbOld = 0, veOld = 0, vcOld = 0;
    if (limit) {
      vbOld = nodeVoltage(*xPrev, bjt_.nb[i]);
      veOld = nodeVoltage(*xPrev, bjt_.ne[i]);
      vcOld = nodeVoltage(*xPrev, bjt_.nc[i]);
    }
    sc.bjt[i] = kernels::bjtEval(bjt_.p[i], vb, ve, vc, vbOld, veOld, vcOld,
                                 limit, wantMat);
    limited |= sc.bjt[i].limited;
  }
  for (std::size_t i = 0, n = mos_.size(); i < n; ++i) {
    const Real vd = nodeVoltage(x, mos_.nd[i]);
    const Real vg = nodeVoltage(x, mos_.ng[i]);
    const Real vs = nodeVoltage(x, mos_.ns[i]);
    Real vdOld = 0, vgOld = 0, vsOld = 0;
    if (limit) {
      vdOld = nodeVoltage(*xPrev, mos_.nd[i]);
      vgOld = nodeVoltage(*xPrev, mos_.ng[i]);
      vsOld = nodeVoltage(*xPrev, mos_.ns[i]);
    }
    sc.mosfet[i] = kernels::mosfetEval(mos_.p[i], vd, vg, vs, vdOld, vgOld,
                                       vsOld, limit, wantMat);
    limited |= sc.mosfet[i].limited;
  }

  assembleImpl(x, xPrev, s, gVals, cVals,
               sc.diode.empty() ? nullptr : sc.diode.data(),
               sc.bjt.empty() ? nullptr : sc.bjt.data(),
               sc.mosfet.empty() ? nullptr : sc.mosfet.data(), 1, waveVals);
  return limited;
}

void DeviceBatch::stampSources(Real t1, Real t2, RVec& b) const {
  b.setZero();
  // The b stamps of assembleImpl's source cases, in the same device order.
  for (const std::uint32_t k : srcOps_) {
    const Op& op = ops_[k];
    if (op.kind == OpKind::vsource) {
      const SourceOp& so = vsrc_[op.idx];
      b[static_cast<std::size_t>(so.br)] +=
          so.w->value(so.axis == TimeAxis::fast ? t2 : t1);
    } else {
      const SourceOp& so = isrc_[op.idx];
      const Real i = so.w->value(so.axis == TimeAxis::fast ? t2 : t1);
      if (so.np >= 0) b[static_cast<std::size_t>(so.np)] += -i;
      if (so.nm >= 0) b[static_cast<std::size_t>(so.nm)] += i;
    }
  }
}

void DeviceBatch::evalKernelsSweep(const numeric::RMat& xs, std::size_t s0,
                                   std::size_t count, bool wantMatrices,
                                   SweepScratch& sc) const {
  ensureSweepScratch(sc);
  // Sample-major flat loops: for each instance, its controlling-node state
  // rows are contiguous across samples, and the junction kernel runs as a
  // tight loop the compiler can pipeline — the exponential per (instance,
  // sample) is the same inline call the per-sample path makes, so blocking
  // changes nothing numerically.
  const Real* const zero = nullptr;
  const auto row = [&](std::int32_t node) {
    return node >= 0 ? xs.rowPtr(static_cast<std::size_t>(node)) + s0 : zero;
  };
  for (std::size_t i = 0, n = diode_.size(); i < n; ++i) {
    const kernels::DiodeParams p{diode_.is[i], diode_.nvt[i], diode_.vcrit[i],
                                 diode_.gmin[i], diode_.cj0[i], diode_.vj[i],
                                 diode_.m[i],   diode_.fc[i],  diode_.tt[i]};
    const Real* xa = row(diode_.na[i]);
    const Real* xc = row(diode_.nc[i]);
    kernels::DiodeOut* out = sc.diode.data() + i * kSweepChunk;
    for (std::size_t j = 0; j < count; ++j) {
      const Real v = (xa != nullptr ? xa[j] : 0.0) -
                     (xc != nullptr ? xc[j] : 0.0);
      out[j] = kernels::diodeEval(p, v, 0.0, false);
    }
  }
  for (std::size_t i = 0, n = bjt_.size(); i < n; ++i) {
    const kernels::BJTParams& p = bjt_.p[i];
    const Real* xb = row(bjt_.nb[i]);
    const Real* xe = row(bjt_.ne[i]);
    const Real* xc = row(bjt_.nc[i]);
    kernels::BJTOut* out = sc.bjt.data() + i * kSweepChunk;
    for (std::size_t j = 0; j < count; ++j) {
      const Real vb = xb != nullptr ? xb[j] : 0.0;
      const Real ve = xe != nullptr ? xe[j] : 0.0;
      const Real vc = xc != nullptr ? xc[j] : 0.0;
      out[j] = kernels::bjtEval(p, vb, ve, vc, 0, 0, 0, false, wantMatrices);
    }
  }
  for (std::size_t i = 0, n = mos_.size(); i < n; ++i) {
    const kernels::MOSFETParams& p = mos_.p[i];
    const Real* xd = row(mos_.nd[i]);
    const Real* xg = row(mos_.ng[i]);
    const Real* xsr = row(mos_.ns[i]);
    kernels::MOSFETOut* out = sc.mosfet.data() + i * kSweepChunk;
    for (std::size_t j = 0; j < count; ++j) {
      const Real vd = xd != nullptr ? xd[j] : 0.0;
      const Real vg = xg != nullptr ? xg[j] : 0.0;
      const Real vs = xsr != nullptr ? xsr[j] : 0.0;
      out[j] =
          kernels::mosfetEval(p, vd, vg, vs, 0, 0, 0, false, wantMatrices);
    }
  }
}

void DeviceBatch::assemble(const RVec& x, Stamp& s, std::vector<Real>* gVals,
                           std::vector<Real>* cVals, const SweepScratch& sc,
                           std::size_t blockIdx, const Real* waveVals) const {
  assembleImpl(x, nullptr, s, gVals, cVals,
               sc.diode.empty() ? nullptr : sc.diode.data() + blockIdx,
               sc.bjt.empty() ? nullptr : sc.bjt.data() + blockIdx,
               sc.mosfet.empty() ? nullptr : sc.mosfet.data() + blockIdx,
               kSweepChunk, waveVals);
}

void DeviceBatch::assembleSweepVec(const numeric::RMat& xs, std::size_t s0,
                                   std::size_t count, numeric::RMat& fS,
                                   numeric::RMat& qS, numeric::RMat& bS,
                                   const SweepScratch& sc,
                                   const Real* waveVals, std::size_t nWave,
                                   const Real* t1, const Real* t2) const {
  const auto xRow = [&](std::int32_t node) -> const Real* {
    return node >= 0 ? xs.rowPtr(static_cast<std::size_t>(node)) + s0
                     : nullptr;
  };
  const auto outRow = [&](numeric::RMat& m, std::int32_t node) -> Real* {
    return node >= 0 ? m.rowPtr(static_cast<std::size_t>(node)) + s0 : nullptr;
  };

  // Zero the block's columns of every row (contiguous runs — the per-sample
  // path zeros lane vectors and overwrites the columns instead).
  for (std::size_t u = 0, n = fS.rows(); u < n; ++u) {
    Real* f = fS.rowPtr(u) + s0;
    Real* q = qS.rowPtr(u) + s0;
    Real* b = bS.rowPtr(u) + s0;
    for (std::size_t j = 0; j < count; ++j) f[j] = 0.0;
    for (std::size_t j = 0; j < count; ++j) q[j] = 0.0;
    for (std::size_t j = 0; j < count; ++j) b[j] = 0.0;
  }

  // Device-order walk, whole block per op. Ground rows (nullptr) drop their
  // adds exactly like Stamp::addF/addQ/addB; `a -= v` is IEEE-identical to
  // `a += -v`, so signs match the scalar emission.
  for (const Op& op : ops_) {
    switch (op.kind) {
      case OpKind::generic:
        RFIC_REQUIRE(false, "assembleSweepVec: generic op in compiled batch");
        break;
      case OpKind::resistor: {
        const ResistorOp& r = res_[op.idx];
        const Real* x1 = xRow(r.n1);
        const Real* x2 = xRow(r.n2);
        Real* f1 = outRow(fS, r.n1);
        Real* f2 = outRow(fS, r.n2);
        for (std::size_t j = 0; j < count; ++j) {
          const Real v =
              (x1 != nullptr ? x1[j] : 0.0) - (x2 != nullptr ? x2[j] : 0.0);
          const Real i = r.g * v;
          if (f1 != nullptr) f1[j] += i;
          if (f2 != nullptr) f2[j] -= i;
        }
        break;
      }
      case OpKind::capacitor: {
        const CapacitorOp& c = cap_[op.idx];
        const Real* x1 = xRow(c.n1);
        const Real* x2 = xRow(c.n2);
        Real* q1 = outRow(qS, c.n1);
        Real* q2 = outRow(qS, c.n2);
        for (std::size_t j = 0; j < count; ++j) {
          const Real v =
              (x1 != nullptr ? x1[j] : 0.0) - (x2 != nullptr ? x2[j] : 0.0);
          const Real qv = c.c * v;
          if (q1 != nullptr) q1[j] += qv;
          if (q2 != nullptr) q2[j] -= qv;
        }
        break;
      }
      case OpKind::inductor: {
        const InductorOp& l = ind_[op.idx];
        const Real* xbr = xRow(l.br);
        const Real* x1 = xRow(l.n1);
        const Real* x2 = xRow(l.n2);
        Real* f1 = outRow(fS, l.n1);
        Real* f2 = outRow(fS, l.n2);
        Real* qbr = outRow(qS, l.br);
        Real* fbr = outRow(fS, l.br);
        for (std::size_t j = 0; j < count; ++j) {
          const Real i = xbr[j];
          const Real v =
              (x1 != nullptr ? x1[j] : 0.0) - (x2 != nullptr ? x2[j] : 0.0);
          if (f1 != nullptr) f1[j] += i;
          if (f2 != nullptr) f2[j] -= i;
          qbr[j] += l.l * i;
          fbr[j] -= v;
        }
        break;
      }
      case OpKind::vccs: {
        const VccsOp& v = vccs_[op.idx];
        const Real* xp = xRow(v.cp);
        const Real* xm = xRow(v.cm);
        Real* fo = outRow(fS, v.op);
        Real* fm = outRow(fS, v.om);
        for (std::size_t j = 0; j < count; ++j) {
          const Real vc =
              (xp != nullptr ? xp[j] : 0.0) - (xm != nullptr ? xm[j] : 0.0);
          const Real i = v.gm * vc;
          if (fo != nullptr) fo[j] += i;
          if (fm != nullptr) fm[j] -= i;
        }
        break;
      }
      case OpKind::vsource: {
        const SourceOp& so = vsrc_[op.idx];
        const Real* xbr = xRow(so.br);
        const Real* xp = xRow(so.np);
        const Real* xm = xRow(so.nm);
        Real* fp = outRow(fS, so.np);
        Real* fm = outRow(fS, so.nm);
        Real* fbr = outRow(fS, so.br);
        Real* bbr = outRow(bS, so.br);
        for (std::size_t j = 0; j < count; ++j) {
          const Real ib = xbr[j];
          const Real v =
              (xp != nullptr ? xp[j] : 0.0) - (xm != nullptr ? xm[j] : 0.0);
          if (fp != nullptr) fp[j] += ib;
          if (fm != nullptr) fm[j] -= ib;
          fbr[j] += v;
          const std::size_t smp = s0 + j;
          bbr[j] += waveVals != nullptr
                        ? waveVals[smp * nWave + so.waveIdx]
                        : so.w->value(so.axis == TimeAxis::fast ? t2[smp]
                                                                : t1[smp]);
        }
        break;
      }
      case OpKind::isource: {
        const SourceOp& so = isrc_[op.idx];
        Real* bp = outRow(bS, so.np);
        Real* bm = outRow(bS, so.nm);
        for (std::size_t j = 0; j < count; ++j) {
          const std::size_t smp = s0 + j;
          const Real i = waveVals != nullptr
                             ? waveVals[smp * nWave + so.waveIdx]
                             : so.w->value(so.axis == TimeAxis::fast
                                               ? t2[smp]
                                               : t1[smp]);
          if (bp != nullptr) bp[j] -= i;
          if (bm != nullptr) bm[j] += i;
        }
        break;
      }
      case OpKind::cubic: {
        const CubicOp& c = cubic_[op.idx];
        const Real* x1 = xRow(c.n1);
        const Real* x2 = xRow(c.n2);
        Real* f1 = outRow(fS, c.n1);
        Real* f2 = outRow(fS, c.n2);
        for (std::size_t j = 0; j < count; ++j) {
          const Real v =
              (x1 != nullptr ? x1[j] : 0.0) - (x2 != nullptr ? x2[j] : 0.0);
          const Real i = c.g1 * v + c.g3 * v * v * v;
          if (f1 != nullptr) f1[j] += i;
          if (f2 != nullptr) f2[j] -= i;
        }
        break;
      }
      case OpKind::diode: {
        const kernels::DiodeOut* o = sc.diode.data() + op.idx * kSweepChunk;
        Real* fa = outRow(fS, diode_.na[op.idx]);
        Real* fc = outRow(fS, diode_.nc[op.idx]);
        Real* qa = outRow(qS, diode_.na[op.idx]);
        Real* qc = outRow(qS, diode_.nc[op.idx]);
        for (std::size_t j = 0; j < count; ++j) {
          if (fa != nullptr) fa[j] += o[j].i;
          if (fc != nullptr) fc[j] -= o[j].i;
          // Exact-zero gate mirrors the scalar stamp's conditional adds.
          if (o[j].q != 0 || o[j].c != 0) {  // lint: allow-float-eq
            if (qa != nullptr) qa[j] += o[j].q;
            if (qc != nullptr) qc[j] -= o[j].q;
          }
        }
        break;
      }
      case OpKind::bjt: {
        const kernels::BJTOut* o = sc.bjt.data() + op.idx * kSweepChunk;
        Real* fc = outRow(fS, bjt_.nc[op.idx]);
        Real* fb = outRow(fS, bjt_.nb[op.idx]);
        Real* fe = outRow(fS, bjt_.ne[op.idx]);
        Real* qb = outRow(qS, bjt_.nb[op.idx]);
        Real* qe = outRow(qS, bjt_.ne[op.idx]);
        Real* qc = outRow(qS, bjt_.nc[op.idx]);
        for (std::size_t j = 0; j < count; ++j) {
          if (fc != nullptr) fc[j] += o[j].fC;
          if (fb != nullptr) fb[j] += o[j].fB;
          if (fe != nullptr) fe[j] += o[j].fE;
          if (qb != nullptr) qb[j] += o[j].qB;
          if (qe != nullptr) qe[j] += o[j].qE;
          if (qc != nullptr) qc[j] += o[j].qC;
        }
        break;
      }
      case OpKind::mosfet: {
        const kernels::MOSFETOut* o = sc.mosfet.data() + op.idx * kSweepChunk;
        const bool hasCgs = mos_.hasCgs[op.idx] != 0;
        const bool hasCgd = mos_.hasCgd[op.idx] != 0;
        Real* fd = outRow(fS, mos_.nd[op.idx]);
        Real* fs = outRow(fS, mos_.ns[op.idx]);
        Real* qg = outRow(qS, mos_.ng[op.idx]);
        Real* qs = outRow(qS, mos_.ns[op.idx]);
        Real* qd = outRow(qS, mos_.nd[op.idx]);
        for (std::size_t j = 0; j < count; ++j) {
          if (fd != nullptr) fd[j] += o[j].i;
          if (fs != nullptr) fs[j] -= o[j].i;
          if (hasCgs) {
            if (qg != nullptr) qg[j] += o[j].qGS;
            if (qs != nullptr) qs[j] -= o[j].qGS;
          }
          if (hasCgd) {
            if (qg != nullptr) qg[j] += o[j].qGD;
            if (qd != nullptr) qd[j] -= o[j].qGD;
          }
        }
        break;
      }
    }
  }
}

void DeviceBatch::assembleImpl(const RVec& x, const RVec* xPrev, Stamp& s,
                               std::vector<Real>* gVals,
                               std::vector<Real>* cVals,
                               const kernels::DiodeOut* dOut,
                               const kernels::BJTOut* bOut,
                               const kernels::MOSFETOut* mOut,
                               std::size_t stride,
                               const Real* waveVals) const {
  const bool wantMat = s.wantMatrices();
  // Constant prefill: replaces the caller's zero fill of the value arrays.
  // Same-size assign — no allocation in steady state.
  if (wantMat && gVals != nullptr) {
    // rt: allow(rt-alloc) same-size overwrite — templates match pattern nnz
    gVals->assign(gTemplate_.begin(), gTemplate_.end());
    // rt: allow(rt-alloc) same-size overwrite — templates match pattern nnz
    cVals->assign(cTemplate_.begin(), cTemplate_.end());
  }

  const auto addSlot = [](std::vector<Real>* vals, std::int32_t slot, Real v) {
    if (slot >= 0) (*vals)[static_cast<std::size_t>(slot)] += v;
  };

  // Phase B: scatter in original device order — every f/q/b entry and every
  // CSR slot receives its contributions in the exact scalar-walk order.
  for (const Op& op : ops_) {
    const std::int32_t* sl = slots_.data() + op.slotBase;
    switch (op.kind) {
      case OpKind::generic:
        genericDevs_[op.idx]->stamp(x, xPrev, s);
        break;
      case OpKind::resistor: {
        const ResistorOp& r = res_[op.idx];
        const Real v = nodeVoltage(x, r.n1) - nodeVoltage(x, r.n2);
        const Real i = r.g * v;
        s.addF(r.n1, i);
        s.addF(r.n2, -i);
        if (wantMat) {
          addSlot(gVals, sl[0], r.g);
          addSlot(gVals, sl[1], -r.g);
          addSlot(gVals, sl[2], -r.g);
          addSlot(gVals, sl[3], r.g);
        }
        break;
      }
      case OpKind::capacitor: {
        const CapacitorOp& c = cap_[op.idx];
        const Real v = nodeVoltage(x, c.n1) - nodeVoltage(x, c.n2);
        const Real qv = c.c * v;
        s.addQ(c.n1, qv);
        s.addQ(c.n2, -qv);
        if (wantMat) {
          addSlot(cVals, sl[0], c.c);
          addSlot(cVals, sl[1], -c.c);
          addSlot(cVals, sl[2], -c.c);
          addSlot(cVals, sl[3], c.c);
        }
        break;
      }
      case OpKind::inductor: {
        const InductorOp& l = ind_[op.idx];
        const Real i = x[static_cast<std::size_t>(l.br)];
        const Real v = nodeVoltage(x, l.n1) - nodeVoltage(x, l.n2);
        s.addF(l.n1, i);
        s.addF(l.n2, -i);
        s.addQ(l.br, l.l * i);
        s.addF(l.br, -v);
        if (wantMat) {
          addSlot(gVals, sl[0], 1.0);
          addSlot(gVals, sl[1], -1.0);
          addSlot(gVals, sl[2], -1.0);
          addSlot(gVals, sl[3], 1.0);
          addSlot(cVals, sl[4], l.l);
        }
        break;
      }
      case OpKind::vccs: {
        const VccsOp& v = vccs_[op.idx];
        const Real vc = nodeVoltage(x, v.cp) - nodeVoltage(x, v.cm);
        const Real i = v.gm * vc;
        s.addF(v.op, i);
        s.addF(v.om, -i);
        if (wantMat) {
          addSlot(gVals, sl[0], v.gm);
          addSlot(gVals, sl[1], -v.gm);
          addSlot(gVals, sl[2], -v.gm);
          addSlot(gVals, sl[3], v.gm);
        }
        break;
      }
      case OpKind::vsource: {
        const SourceOp& so = vsrc_[op.idx];
        const Real ib = x[static_cast<std::size_t>(so.br)];
        const Real v = nodeVoltage(x, so.np) - nodeVoltage(x, so.nm);
        s.addF(so.np, ib);
        s.addF(so.nm, -ib);
        s.addF(so.br, v);
        s.addB(so.br, waveVals != nullptr ? waveVals[so.waveIdx]
                                          : so.w->value(s.time(so.axis)));
        if (wantMat) {
          addSlot(gVals, sl[0], 1.0);
          addSlot(gVals, sl[1], -1.0);
          addSlot(gVals, sl[2], 1.0);
          addSlot(gVals, sl[3], -1.0);
        }
        break;
      }
      case OpKind::isource: {
        const SourceOp& so = isrc_[op.idx];
        const Real i = waveVals != nullptr ? waveVals[so.waveIdx]
                                           : so.w->value(s.time(so.axis));
        s.addB(so.np, -i);
        s.addB(so.nm, i);
        break;
      }
      case OpKind::cubic: {
        const CubicOp& c = cubic_[op.idx];
        const Real v = nodeVoltage(x, c.n1) - nodeVoltage(x, c.n2);
        const Real i = c.g1 * v + c.g3 * v * v * v;
        s.addF(c.n1, i);
        s.addF(c.n2, -i);
        if (wantMat) {
          const Real di = c.g1 + 3.0 * c.g3 * v * v;
          addSlot(gVals, sl[0], di);
          addSlot(gVals, sl[1], -di);
          addSlot(gVals, sl[2], -di);
          addSlot(gVals, sl[3], di);
        }
        break;
      }
      case OpKind::diode: {
        const kernels::DiodeOut& o = dOut[op.idx * stride];
        const std::int32_t na = diode_.na[op.idx];
        const std::int32_t nc = diode_.nc[op.idx];
        s.addF(na, o.i);
        s.addF(nc, -o.i);
        // Exact-zero gates mirror the scalar stamp's conditional adds.
        if (o.q != 0 || o.c != 0) {  // lint: allow-float-eq
          s.addQ(na, o.q);
          s.addQ(nc, -o.q);
        }
        if (wantMat) {
          addSlot(gVals, sl[0], o.g);
          addSlot(gVals, sl[1], -o.g);
          addSlot(gVals, sl[2], -o.g);
          addSlot(gVals, sl[3], o.g);
          if (diode_.hasC[op.idx] != 0 && o.c != 0) {  // lint: allow-float-eq
            addSlot(cVals, sl[4], o.c);
            addSlot(cVals, sl[5], -o.c);
            addSlot(cVals, sl[6], -o.c);
            addSlot(cVals, sl[7], o.c);
          }
        }
        break;
      }
      case OpKind::bjt: {
        const kernels::BJTOut& o = bOut[op.idx * stride];
        const std::int32_t nc = bjt_.nc[op.idx];
        const std::int32_t nb = bjt_.nb[op.idx];
        const std::int32_t ne = bjt_.ne[op.idx];
        s.addF(nc, o.fC);
        s.addF(nb, o.fB);
        s.addF(ne, o.fE);
        s.addQ(nb, o.qB);
        s.addQ(ne, o.qE);
        s.addQ(nc, o.qC);
        if (wantMat) {
          for (int k = 0; k < 9; ++k) addSlot(gVals, sl[k], o.g[k]);
          for (int k = 0; k < 9; ++k) addSlot(cVals, sl[9 + k], o.c[k]);
        }
        break;
      }
      case OpKind::mosfet: {
        const kernels::MOSFETOut& o = mOut[op.idx * stride];
        const std::int32_t nd = mos_.nd[op.idx];
        const std::int32_t ng = mos_.ng[op.idx];
        const std::int32_t ns = mos_.ns[op.idx];
        const bool hasCgs = mos_.hasCgs[op.idx] != 0;
        const bool hasCgd = mos_.hasCgd[op.idx] != 0;
        s.addF(nd, o.i);
        s.addF(ns, -o.i);
        if (hasCgs) {
          s.addQ(ng, o.qGS);
          s.addQ(ns, -o.qGS);
        }
        if (hasCgd) {
          s.addQ(ng, o.qGD);
          s.addQ(nd, -o.qGD);
        }
        if (wantMat) {
          for (int k = 0; k < 6; ++k) addSlot(gVals, sl[k], o.g[k]);
          int base = 6;
          if (hasCgs) {
            const Real cgs = mos_.p[op.idx].cgs;
            addSlot(cVals, sl[base + 0], cgs);
            addSlot(cVals, sl[base + 1], -cgs);
            addSlot(cVals, sl[base + 2], -cgs);
            addSlot(cVals, sl[base + 3], cgs);
            base += 4;
          }
          if (hasCgd) {
            const Real cgd = mos_.p[op.idx].cgd;
            addSlot(cVals, sl[base + 0], cgd);
            addSlot(cVals, sl[base + 1], -cgd);
            addSlot(cVals, sl[base + 2], -cgd);
            addSlot(cVals, sl[base + 3], cgd);
          }
        }
        break;
      }
    }
  }
}

}  // namespace rfic::circuit
