#include "engine/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <optional>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "analysis/ac.hpp"
#include "analysis/dc.hpp"
#include "analysis/noise.hpp"
#include "analysis/transient.hpp"
#include "circuit/lexer.hpp"
#include "circuit/netlist.hpp"
#include "circuit/sources.hpp"
#include "hb/harmonic_balance.hpp"
#include "hb/spectrum.hpp"
#include "perf/perf.hpp"
#include "perf/thread_pool.hpp"
#include "sparse/ordering.hpp"

namespace rfic::engine {

namespace lex = circuit::lex;

const char* toString(JobState s) {
  switch (s) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Done: return "done";
    case JobState::Cancelled: return "cancelled";
  }
  return "?";
}

bool parsePriority(const std::string& s, Priority& out) {
  if (s == "high") {
    out = Priority::High;
  } else if (s == "normal") {
    out = Priority::Normal;
  } else if (s == "batch") {
    out = Priority::Batch;
  } else {
    return false;
  }
  return true;
}

namespace {

#if defined(__GNUC__) || defined(__clang__)
#define RFIC_PRINTF_ARGS(fmtIdx, firstArg) \
  __attribute__((format(printf, fmtIdx, firstArg)))
#else
#define RFIC_PRINTF_ARGS(fmtIdx, firstArg)
#endif

void vappendf(std::string& dst, const char* fmt, va_list ap) {
  va_list ap2;
  va_copy(ap2, ap);
  const int need = std::vsnprintf(nullptr, 0, fmt, ap2);
  va_end(ap2);
  if (need <= 0) return;
  const std::size_t base = dst.size();
  dst.resize(base + static_cast<std::size_t>(need) + 1);
  std::vsnprintf(&dst[base], static_cast<std::size_t>(need) + 1, fmt, ap);
  dst.resize(base + static_cast<std::size_t>(need));
}

RFIC_PRINTF_ARGS(1, 2) std::string strprintf(const char* fmt, ...) {
  std::string s;
  va_list ap;
  va_start(ap, fmt);
  vappendf(s, fmt, ap);
  va_end(ap);
  return s;
}

/// Renders the job's textual output into Stdout/Stderr events, preserving
/// the exact bytes (and the stdout/stderr interleaving) the monolithic CLI
/// produced with printf/fprintf. Stdout text is coalesced until a flush
/// point (a stderr line, an analysis boundary, or job end) so the event
/// stream stays coarse-grained.
class Renderer {
 public:
  Renderer(EventSink& sink, JobId id) : sink_(sink), id_(id) {}
  ~Renderer() { flush(); }

  RFIC_PRINTF_ARGS(2, 3) void outf(const char* fmt, ...) {
    va_list ap;
    va_start(ap, fmt);
    vappendf(pending_, fmt, ap);
    va_end(ap);
  }

  RFIC_PRINTF_ARGS(2, 3) void errf(const char* fmt, ...) {
    flush();  // keep relative stdout/stderr order for merged-stream clients
    std::string s;
    va_list ap;
    va_start(ap, fmt);
    vappendf(s, fmt, ap);
    va_end(ap);
    emit(Event::Kind::Stderr, std::move(s));
  }

  void flush() {
    if (pending_.empty()) return;
    std::string s;
    s.swap(pending_);
    emit(Event::Kind::Stdout, std::move(s));
  }

  void analysisDone(const AnalysisOutcome& a) {
    flush();
    Event e;
    e.kind = Event::Kind::AnalysisDone;
    e.job = id_;
    e.analysis = a;
    sink_.onEvent(e);
  }

 private:
  void emit(Event::Kind kind, std::string text) {
    if (text.empty()) return;
    Event e;
    e.kind = kind;
    e.job = id_;
    e.text = std::move(text);
    sink_.onEvent(e);
  }

  EventSink& sink_;
  JobId id_;
  std::string pending_;
};

/// True when `head`, in any case, names an analysis or output card: the
/// cards the topology key drops.
bool isAnalysisHead(std::string_view head) {
  using lex::iequals;
  return iequals(head, ".op") || iequals(head, ".tran") ||
         iequals(head, ".ac") || iequals(head, ".noise") ||
         iequals(head, ".hb") || iequals(head, ".print") ||
         iequals(head, ".end");
}

/// The numeric argument `tok` of an analysis card, or nullopt when it is
/// not a SPICE number (parseSpiceNumber also rejects nan, inf and values
/// that overflow, so a value returned here is finite).
std::optional<Real> cardNumber(const std::string& tok) {
  try {
    return circuit::parseSpiceNumber(tok);
  } catch (const InvalidArgument&) {
    return std::nullopt;
  }
}

/// Diagnostic for a bad argument t[i] of an analysis card (exit 2).
std::string badArgument(const std::vector<std::string>& t, std::size_t i,
                        const char* what) {
  return t[0] + ": " + what + " (got '" + t[i] + "')";
}

/// The frequency grid of a `.ac`/`.noise` card, whose tokens t[at],
/// t[at + 1], t[at + 2] are points per decade, start and stop frequency.
/// Returns "" on success, else a diagnostic naming the card.
std::string decadeSweep(const std::vector<std::string>& t, std::size_t at,
                        std::vector<Real>& freqs) {
  const auto pts = cardNumber(t[at]);
  const auto f0 = cardNumber(t[at + 1]);
  const auto f1 = cardNumber(t[at + 2]);
  // The bound keeps the integer conversion below defined.
  if (!pts || !(*pts >= 0 && *pts <= 1e9))
    return badArgument(t, at, "points per decade must be a number in [0, 1e9]");
  if (!f0 || !(*f0 > 0))
    return badArgument(t, at + 1, "start frequency must be finite and > 0");
  if (!f1 || !(*f1 > *f0))
    return badArgument(t, at + 2,
                       "stop frequency must be finite and above the start");
  const auto perDecade = static_cast<std::size_t>(*pts);
  const Real decades = std::log10(*f1 / *f0);
  freqs = analysis::logspace(
      *f0, *f1,
      std::max<std::size_t>(
          2, static_cast<std::size_t>(std::lround(perDecade * decades)) + 1));
  return "";
}

/// The ported body of the old rficsim runFile(): runs every analysis card
/// against an acquired context, renders byte-identical output, and fills
/// the structured per-analysis outcomes. Returns the process exit code.
int runCards(const JobSpec& spec, circuit::Circuit& ckt,
             circuit::MnaSystem& sys, circuit::MnaWorkspace& ws,
             diag::RunBudget* budget, Renderer& r, JobResult& res) {
  // Solvers report a generic BudgetExceeded; refine it to the memory
  // flavor (and exit code 6) when the trip came from the byte budget.
  // Non-budgeted jobs never take these paths, so rendered output stays
  // byte-identical to the pre-memory-budget engine.
  const auto effStatus = [budget](diag::SolverStatus st) {
    return st == diag::SolverStatus::BudgetExceeded &&
                   budget->memoryExceeded()
               ? diag::SolverStatus::BudgetExceededMemory
               : st;
  };
  // A tripped budget ends the job: exit 5 cancelled, 6 memory, 4 other.
  const auto budgetStop = [&](const char* card, const char* note = "") {
    if (budget->cancelled()) {
      r.errf("job cancelled during %s%s\n", card, note);
      return 5;
    }
    r.errf("budget exceeded during %s (%s)%s\n", card, budget->reason(),
           note);
    return budget->memoryExceeded() ? 6 : 4;
  };
  const auto badCard = [&](const std::string& why) {
    res.error = why;
    r.errf("%s\n", why.c_str());
    return 2;
  };
  // Collect analysis and print cards (parseNetlist ignores them): the
  // physical lines whose first non-blank byte is '.'.
  struct Card {
    std::vector<std::string> tokens;
  };
  std::vector<Card> cards;
  std::vector<std::string> printNodes;
  {
    lex::LineReader lines(spec.netlist);
    for (std::string_view line; lines.next(line);) {
      line = lex::skipBlanks(line);
      if (line.empty() || line[0] != '.') continue;
      std::vector<std::string> toks;
      for (std::string_view rest = line, w; lex::nextWord(rest, w);)
        toks.emplace_back(w);
      const std::string head = lex::lowered(toks[0]);
      if (head == ".model" || head == ".end") continue;
      if (head == ".print") {
        printNodes.assign(toks.begin() + 1, toks.end());
        continue;
      }
      toks[0] = head;
      cards.push_back({std::move(toks)});
    }
  }
  if (cards.empty()) {
    res.error = "no analysis cards";
    r.errf("no analysis cards (.op/.tran/.ac/.noise/.hb)\n");
    return 2;
  }

  // Output selection. Unknown or ground nodes in .print are a usage error
  // (exit 2) with a diagnostic naming the card — the old CLI either threw
  // (unknown → exit 1) or indexed out of bounds (ground alias → UB).
  std::vector<std::pair<std::string, std::size_t>> outs;
  if (printNodes.empty()) {
    for (std::size_t i = 0; i < sys.dim(); ++i)
      outs.emplace_back(ckt.unknownName(i), i);
  } else {
    for (const auto& name : printNodes) {
      const int id = ckt.lookupNode(name);
      if (id == circuit::Circuit::kNoSuchNode) {
        res.error = ".print: unknown node '" + name + "'";
        r.errf(".print: unknown node '%s' (not in the netlist)\n",
              name.c_str());
        return 2;
      }
      if (id == circuit::Circuit::kGround) {
        res.error = ".print: node '" + name + "' is ground";
        r.errf(".print: node '%s' is ground (identically 0 V, not an "
              "unknown)\n",
              name.c_str());
        return 2;
      }
      outs.emplace_back("V(" + name + ")", static_cast<std::size_t>(id));
    }
  }

  analysis::DCOptions dco;
  dco.budget = budget;
  dco.workspace = &ws;
  const auto dc = analysis::dcOperatingPoint(sys, dco);
  if (dc.status == diag::SolverStatus::BudgetExceeded)
    return budgetStop(".op");

  for (const auto& card : cards) {
    const auto& t = card.tokens;
    if (budget->cancelled()) {
      r.errf("job cancelled\n");
      return 5;
    }
    if (t[0] == ".op") {
      AnalysisOutcome a;
      a.card = ".op";
      a.summary = strprintf("* .op (%s, %zu iterations)", dc.strategy.c_str(),
                            dc.iterations);
      a.status = dc.status;
      a.ok = dc.converged;
      r.outf("%s\n", a.summary.c_str());
      for (const auto& [name, idx] : outs)
        r.outf("%-14s %16.9e\n", name.c_str(), dc.x[idx]);
      res.analyses.push_back(a);
      r.analysisDone(a);
    } else if (t[0] == ".tran" && t.size() >= 3) {
      const auto dt = cardNumber(t[1]);
      const auto tstop = cardNumber(t[2]);
      if (!dt || !(*dt > 0))
        return badCard(badArgument(t, 1, "time step must be finite and > 0"));
      if (!tstop || !(*tstop > 0))
        return badCard(badArgument(t, 2, "stop time must be finite and > 0"));
      analysis::TransientOptions to;
      to.dt = *dt;
      to.tstop = *tstop;
      to.workspace = &ws;
      to.budget = budget;
      to.checkpointPath = spec.checkpointPath;
      if (!spec.checkpointPath.empty()) to.checkpointInterval = 30.0;
      to.resume = spec.resume;
      const auto tr = analysis::runTransient(sys, dc.x, to);
      AnalysisOutcome a;
      a.card = ".tran";
      a.status = effStatus(tr.status);
      a.summary = strprintf(
          "* .tran dt=%g tstop=%g ok=%d status=%s steps=%zu retries=%zu",
          to.dt, to.tstop, tr.ok ? 1 : 0, diag::toString(a.status), tr.steps,
          tr.retries);
      a.ok = tr.ok;
      r.outf("%s\n", a.summary.c_str());
      r.outf("%-16s", "time");
      for (const auto& [name, idx] : outs) r.outf(" %-14s", name.c_str());
      r.outf("\n");
      const std::size_t stride = std::max<std::size_t>(1, tr.time.size() / 50);
      for (std::size_t k = 0; k < tr.time.size(); k += stride) {
        r.outf("%-16.8e", tr.time[k]);
        for (const auto& [name, idx] : outs) r.outf(" %-14.6e", tr.x[k][idx]);
        r.outf("\n");
      }
      res.analyses.push_back(a);
      r.analysisDone(a);
      if (tr.status == diag::SolverStatus::BudgetExceeded)
        return budgetStop(".tran", spec.checkpointPath.empty()
                                       ? ""
                                       : "; checkpoint saved");
    } else if (t[0] == ".ac" && t.size() >= 5) {
      std::vector<Real> freqs;
      if (const auto why = decadeSweep(t, 2, freqs); !why.empty())
        return badCard(why);
      // Drive through the first voltage source in the netlist.
      const circuit::VSource* src = nullptr;
      for (const auto& dev : ckt.devices())
        if ((src = dynamic_cast<const circuit::VSource*>(dev.get()))) break;
      if (!src) return badCard(".ac: no voltage source to drive");
      const auto sweep = analysis::acSweep(
          sys, dc.x, freqs, analysis::acStimulusVSource(sys, *src), budget);
      AnalysisOutcome a;
      a.card = ".ac";
      a.summary = strprintf("* .ac %zu points (driving %s)", sweep.freq.size(),
                            src->name().c_str());
      a.status = effStatus(sweep.status);
      a.ok = sweep.status == diag::SolverStatus::Converged;
      r.outf("%s\n", a.summary.c_str());
      r.outf("%-16s", "freq");
      for (const auto& [name, idx] : outs)
        r.outf(" %-14s %-10s", ("|" + name + "|").c_str(), "phase");
      r.outf("\n");
      for (std::size_t k = 0; k < sweep.freq.size(); ++k) {
        r.outf("%-16.8e", sweep.freq[k]);
        for (const auto& [name, idx] : outs) {
          const Complex v = sweep.x[k][idx];
          r.outf(" %-14.6e %-10.3f", std::abs(v), std::arg(v) * 180.0 / kPi);
        }
        r.outf("\n");
      }
      res.analyses.push_back(a);
      r.analysisDone(a);
      if (!a.ok) return budgetStop(".ac");
    } else if (t[0] == ".noise" && t.size() >= 6) {
      const int node = ckt.lookupNode(t[1]);
      if (node < 0)
        return badCard(".noise: unknown or ground node '" + t[1] + "'");
      std::vector<Real> freqs;
      if (const auto why = decadeSweep(t, 3, freqs); !why.empty())
        return badCard(why);
      const auto nr = analysis::noiseAnalysis(sys, dc.x, node, freqs, budget);
      AnalysisOutcome a;
      a.card = ".noise";
      a.summary = strprintf("* .noise at V(%s)", t[1].c_str());
      a.status = effStatus(nr.status);
      a.ok = nr.status == diag::SolverStatus::Converged;
      r.outf("%s\n", a.summary.c_str());
      r.outf("%-16s %-14s\n", "freq", "PSD (V^2/Hz)");
      for (std::size_t k = 0; k < nr.freq.size(); ++k)
        r.outf("%-16.8e %-14.6e\n", nr.freq[k], nr.totalPsd[k]);
      res.analyses.push_back(a);
      r.analysisDone(a);
      if (!a.ok) return budgetStop(".noise");
    } else if (t[0] == ".hb" && t.size() >= 3) {
      // Tokens: f1 h1 [f2 h2]. The harmonic bound keeps the count exact
      // as an integer, HB's int harmonic indices far from overflow, and
      // each tone's time grid at most 2^19 samples (oversample 4), so the
      // two-tone grid m1·m2 stays below 2^38 samples.
      constexpr Real kMaxHarmonics = 1e5;
      std::vector<hb::Tone> tones;
      const std::size_t toneCount = t.size() >= 5 ? 2 : 1;
      for (std::size_t k = 0; k < toneCount; ++k) {
        const std::size_t i = 1 + 2 * k;
        const auto f = cardNumber(t[i]);
        const auto h = cardNumber(t[i + 1]);
        if (!f || !(*f > 0))
          return badCard(
              badArgument(t, i, "tone frequency must be finite and > 0"));
        if (!h || !(*h >= 1 && *h <= kMaxHarmonics && std::floor(*h) == *h))
          return badCard(badArgument(
              t, i + 1, "harmonic count must be a whole number in [1, 1e5]"));
        tones.push_back({*f, static_cast<std::size_t>(*h)});
      }
      hb::HBOptions ho;
      ho.continuationSteps = 3;
      ho.budget = budget;
      hb::HarmonicBalance eng(sys, tones, ho);
      const auto sol = eng.solve(dc.x);
      AnalysisOutcome a;
      a.card = ".hb";
      a.status = effStatus(sol.status);
      a.summary = strprintf(
          "* .hb converged=%d status=%s strategy=%s unknowns=%zu newton=%zu "
          "gmres=%zu retries=%zu",
          sol.converged ? 1 : 0, diag::toString(a.status),
          sol.strategy.c_str(), sol.realUnknowns, sol.newtonIterations,
          sol.gmresIterations, sol.retries);
      a.ok = sol.converged;
      r.outf("%s\n", a.summary.c_str());
      if (sol.status == diag::SolverStatus::BudgetExceeded) {
        res.analyses.push_back(a);
        r.analysisDone(a);
        return budgetStop(".hb");
      }
      if (!sol.converged) {
        res.analyses.push_back(a);
        r.analysisDone(a);
        return 3;
      }
      for (const auto& [name, idx] : outs) {
        r.outf("spectrum of %s:\n", name.c_str());
        r.outf("  %-14s %-6s %-6s %-14s %-8s\n", "freq", "k1", "k2", "amp (V)",
              "dBc");
        for (const auto& l : hb::spectrumOf(sol, idx)) {
          if (l.amplitude < 1e-15) continue;
          r.outf("  %-14.6e %-6d %-6d %-14.6e %-8.1f\n", l.freq, l.k1, l.k2,
                l.amplitude, l.dbc);
        }
      }
      res.analyses.push_back(a);
      r.analysisDone(a);
    } else {
      res.error = "unrecognized analysis card: " + t[0];
      r.errf("unrecognized analysis card: %s\n", t[0].c_str());
      return 2;
    }
  }
  return 0;
}

}  // namespace

std::string topologyKey(std::string_view netlist) {
  std::string key;
  key.reserve(netlist.size());
  lex::LineReader lines(netlist);
  std::string_view line;
  while (lines.next(line)) {
    line = lex::trimRight(line);
    const std::string_view text = lex::skipBlanks(line);
    if (text.empty() || text[0] == '*') continue;  // blank / comment
    if (text[0] == '.') {
      std::string_view rest = text, head;
      lex::nextWord(rest, head);
      if (isAnalysisHead(head)) continue;
    }
    key += line;
    key += '\n';
  }
  return key;
}

std::uint64_t topologyHash(const std::string& key) {
  std::uint64_t h = 14695981039346656037ULL;  // FNV-1a 64
  for (const unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string preflightCheck(std::string_view netlist,
                           const PreflightLimits& limits) {
  if (limits.maxNetlistBytes != 0 && netlist.size() > limits.maxNetlistBytes)
    return "netlist is " + std::to_string(netlist.size()) +
           " bytes (cap " + std::to_string(limits.maxNetlistBytes) + ")";

  std::size_t devices = 0;
  // Views into `netlist`; filled only when the node cap is armed.
  std::unordered_set<std::string_view> nodes;
  bool sawAnything = false;
  lex::LineReader lines(netlist);
  std::string_view line;
  while (lines.next(line)) {
    line = lex::trimRight(line);
    const std::string_view text = lex::skipBlanks(line);
    if (text.empty()) continue;
    sawAnything = true;
    // Comments, control cards, and '+' continuations (value fields of the
    // previous card) carry no new devices or terminals.
    if (text[0] == '*' || text[0] == '.' || line[0] == '+') continue;
    // The name and the first two terminals; the rest is never looked at.
    std::string_view toks[3];
    std::size_t count = 0;
    for (std::string_view rest = line;
         count < 3 && lex::nextWord(rest, toks[count]);)
      ++count;
    if (count < 3)
      return "malformed element card at line " +
             std::to_string(lines.number()) + ": '" + std::string(line) +
             "' (expected name + two nodes at least)";
    ++devices;
    if (limits.maxDevices != 0 && devices > limits.maxDevices)
      return "too many devices (> cap " + std::to_string(limits.maxDevices) +
             ")";
    if (limits.maxNodes != 0) {
      nodes.insert(toks[1]);
      nodes.insert(toks[2]);
      if (nodes.size() > limits.maxNodes)
        return "too many nodes (> cap " + std::to_string(limits.maxNodes) +
               ")";
    }
  }
  if (!sawAnything) return "empty netlist";
  return "";
}

Engine::PoolStats Engine::poolStats() {
  diag::LockGuard lock(mu_);
  PoolStats st;
  st.pooled = probation_.size() + protected_.size();
  st.probation = probation_.size();
  st.poolEvictions = poolEvictions_;
  for (const auto* seg : {&probation_, &protected_})
    for (const auto& c : *seg)
      st.poolBytes += c->netlistBytes + c->ws->chargedBytes();
  return st;
}

std::unique_ptr<Engine::Context> Engine::acquireContext(const std::string& netlist) {
  const std::string key = topologyKey(netlist);
  const std::uint64_t h = topologyHash(key);
  {
    diag::LockGuard lock(mu_);
    for (auto* seg : {&protected_, &probation_}) {
      for (auto it = seg->begin(); it != seg->end(); ++it) {
        if ((*it)->hash == h && (*it)->key == key) {
          auto ctx = std::move(*it);
          seg->erase(it);
          ctx->reused = true;
          perf::global().addCtxHit();
          return ctx;
        }
      }
    }
  }
  perf::global().addCtxMiss();
  auto ctx = std::make_unique<Context>();
  ctx->key = key;
  ctx->hash = h;
  ctx->netlistBytes = netlist.size();
  circuit::parseNetlist(netlist, ctx->ckt);
  ctx->sys = std::make_unique<circuit::MnaSystem>(ctx->ckt);
  ctx->ws = std::make_unique<circuit::MnaWorkspace>(*ctx->sys);
  // Memory budget: a cold context's parse footprint, estimated by the
  // netlist text size (device and node tables scale with it); the
  // workspace's pattern memory is charged precisely at its grow sites.
  // A warm checkout charges nothing — reuse is the cheap path.
  diag::memCharge(ctx->netlistBytes);
  return ctx;
}

void Engine::releaseContext(std::unique_ptr<Context> ctx) {
  if (ctx == nullptr) return;
  const std::size_t cap = opts_.contextCacheCap;
  const std::size_t probationCap = std::max<std::size_t>(1, cap / 4);
  const std::size_t protectedCap =
      cap > probationCap ? cap - probationCap : 1;
  // Evicted contexts are freed after the lock is released.
  std::vector<std::unique_ptr<Context>> evicted;
  diag::LockGuard lock(mu_);
  (ctx->reused ? protected_ : probation_).push_back(std::move(ctx));
  if (protected_.size() > protectedCap) {
    probation_.push_back(std::move(protected_.front()));
    protected_.erase(protected_.begin());
  }
  while (probation_.size() > probationCap ||
         probation_.size() + protected_.size() > cap) {
    auto& seg = probation_.empty() ? protected_ : probation_;
    evicted.push_back(std::move(seg.front()));
    seg.erase(seg.begin());
    ++poolEvictions_;
  }
}

JobResult Engine::run(const JobSpec& spec, EventSink& sink,
                      diag::RunBudget* budget) {
  JobResult res;
  diag::RunBudget local;
  if (budget == nullptr) {
    if (spec.timeoutSeconds > 0) local.setWallLimit(spec.timeoutSeconds);
    if (spec.newtonLimit > 0) local.setNewtonLimit(spec.newtonLimit);
    if (spec.krylovLimit > 0) local.setKrylovLimit(spec.krylovLimit);
    if (spec.maxBytes > 0) local.setMemoryLimit(spec.maxBytes);
    budget = &local;
  }
  Renderer r(sink, spec.id);
  {
    // Per-job attribution: every counter event on this thread (and on pool
    // workers running this job's parallel sections) lands in jobCounters,
    // then folds into the process totals when the scope exits. The memory
    // scope does the same for workspace-growth charges — ThreadPool batches
    // carry both into their workers.
    perf::Counters jobCounters;
    perf::CounterScope scope(jobCounters);
    diag::MemScope memScope(budget->memAccount());
    std::optional<perf::ThreadPool::ScopedLaneCap> lanes;
    if (spec.threadShare > 0) lanes.emplace(spec.threadShare);
    // Per-job pivot ordering: install a thread-local override so every
    // factorization this job performs (workspace, HB blocks, one-shot AC
    // LUs) resolves Auto to the job's choice without racing other jobs.
    std::optional<sparse::ScopedOrderingOverride> orderingOverride;
    if (!spec.ordering.empty()) {
      sparse::Ordering ord;
      if (!sparse::parseOrdering(spec.ordering, ord)) {
        res.error = "unknown ordering '" + spec.ordering + "'";
        r.errf("error: %s (expected natural|amd)\n", res.error.c_str());
        res.exitCode = 2;
        res.perf = jobCounters.snapshot();
        r.flush();
        return res;
      }
      orderingOverride.emplace(ord);
    }
    std::unique_ptr<Context> ctx;
    try {
      ctx = acquireContext(spec.netlist);
      // Pooled contexts may have been created under a different ordering;
      // re-resolve so the cached workspace re-analyzes if it changed.
      ctx->ws->setOrdering(sparse::effectiveOrdering());
      res.exitCode = runCards(spec, ctx->ckt, *ctx->sys, *ctx->ws, budget, r,
                              res);
    } catch (const std::exception& e) {
      // Parse errors, bad card arguments, solver non-convergence throws:
      // same rendering and exit code as the old CLI's catch-all in main().
      res.error = e.what();
      r.errf("error: %s\n", e.what());
      res.exitCode = 1;
    }
    releaseContext(std::move(ctx));
    res.peakBytes = budget->memAccount().peakBytes();
    jobCounters.noteMemPeak(res.peakBytes);
    res.perf = jobCounters.snapshot();
  }
  r.flush();
  res.cancelled = res.exitCode == 5;
  return res;
}

}  // namespace rfic::engine
