#include "circuit/netlist.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <map>
#include <vector>

#include "circuit/devices.hpp"
#include "circuit/lexer.hpp"
#include "circuit/semiconductors.hpp"
#include "circuit/sources.hpp"
#include "perf/perf.hpp"

namespace rfic::circuit {

namespace {

using lex::iequals;
using lex::lowered;
using Tokens = std::vector<std::string_view>;

struct ModelCard {
  std::string type;  // "d", "npn", "pnp", "nmos", "pmos"
  std::map<std::string, Real, std::less<>> params;
};

Real getParam(const ModelCard& m, std::string_view key, Real dflt) {
  const auto it = m.params.find(key);
  return it == m.params.end() ? dflt : it->second;
}

class Parser {
 public:
  Parser(std::string_view text, Circuit& ckt) : ckt_(ckt) {
    // Two passes: models first so element cards can reference them in any
    // order. Each card is tokenized once, in the pass that parses it. Every
    // per-card parse — including nested throws from parseSpiceNumber and
    // device-constructor validation — is converted to a structured
    // NetlistError carrying the card's first physical line and its text,
    // so no malformed input can escape as an unlocated exception.
    lex::Card card;
    for (lex::CardReader cards(text); cards.next(card);) {
      if (lex::firstTokenChar(card) != '.') continue;
      lex::spiceTokens(card, toks_);
      if (iequals(toks_[0], ".model")) guarded(card, [&] { parseModel(); });
    }
    for (lex::CardReader cards(text); cards.next(card);) {
      const int first = lex::firstTokenChar(card);
      if (first < 0 || first == '.' || first == '*') continue;
      lex::spiceTokens(card, toks_);
      guarded(card, [&] { parseElement(); });
    }
  }

 private:
  /// Run one card's parse; rethrow anything that is not already a
  /// NetlistError as one, attaching this card's location and text.
  template <class F>
  void guarded(const lex::Card& card, F&& f) {
    card_ = &card;
    try {
      f();
    } catch (const NetlistError&) {
      throw;
    } catch (const std::exception& e) {
      fail(e.what());
    }
  }

  [[noreturn]] void fail(const std::string& msg) const {
    throw NetlistError(static_cast<int>(card_->line), card_->joined(), msg);
  }

  void parseModel() {
    const Tokens& toks = toks_;
    if (toks.size() < 3) fail(".model needs a name and a type");
    ModelCard m;
    m.type = lowered(toks[2]);
    // Parameters appear as NAME = VALUE triples (with '(' ')' noise).
    for (std::size_t i = 3; i + 2 < toks.size(); ++i) {
      if (toks[i] == "(" || toks[i] == ")") continue;
      if (toks[i + 1] == "=") {
        m.params[lowered(toks[i])] = parseSpiceNumber(toks[i + 2]);
        i += 2;
      }
    }
    models_[lowered(toks[1])] = std::move(m);
  }

  const ModelCard& findModel(std::string_view name) const {
    const auto it = models_.find(lowered(name));
    if (it == models_.end()) fail("unknown model " + std::string(name));
    return it->second;
  }

  std::shared_ptr<const Waveform> parseWaveform(std::size_t first,
                                                TimeAxis& axis) const {
    const Tokens& toks = toks_;
    axis = TimeAxis::slow;
    // Scan for AXIS=FAST anywhere in the tail.
    for (std::size_t i = first; i + 2 < toks.size(); ++i) {
      if (iequals(toks[i], "axis") && toks[i + 1] == "=" &&
          iequals(toks[i + 2], "fast")) {
        axis = TimeAxis::fast;
      }
    }
    if (first >= toks.size()) return std::make_shared<DCWave>(0.0);
    const std::string kind = lowered(toks[first]);
    auto args = [&](std::size_t count, std::size_t optional) {
      std::vector<Real> vals;
      std::size_t i = first + 1;
      if (i < toks.size() && toks[i] == "(") ++i;
      while (i < toks.size() && toks[i] != ")" && vals.size() < count + optional) {
        if (iequals(toks[i], "axis")) break;
        vals.push_back(parseSpiceNumber(toks[i]));
        ++i;
      }
      if (vals.size() < count)
        fail("waveform " + kind + " needs at least " +
             std::to_string(count) + " arguments");
      return vals;
    };
    if (kind == "dc") {
      const auto v = args(1, 0);
      return std::make_shared<DCWave>(v[0]);
    }
    if (kind == "sin") {
      const auto v = args(3, 1);  // offset amp freq [phaseDeg]
      const Real ph = v.size() > 3 ? v[3] * kPi / 180.0 : 0.0;
      return std::make_shared<SineWave>(v[1], v[2], ph, v[0]);
    }
    if (kind == "pulse") {
      const auto v = args(7, 0);
      return std::make_shared<PulseWave>(v[0], v[1], v[2], v[3], v[4], v[5],
                                         v[6]);
    }
    if (kind == "square") {
      const auto v = args(3, 1);  // low high freq [riseFrac]
      return std::make_shared<SquareWave>(v[0], v[1], v[2],
                                          v.size() > 3 ? v[3] : 0.05);
    }
    if (kind == "multitone") {
      const auto v = args(2, 64);
      RFIC_REQUIRE(v.size() % 2 == 0,
                   "multitone expects (amp freq) pairs");
      std::vector<MultiToneWave::Tone> tones;
      for (std::size_t i = 0; i < v.size(); i += 2)
        tones.push_back({v[i], v[i + 1], 0.0});
      return std::make_shared<MultiToneWave>(std::move(tones));
    }
    // Bare number => DC.
    return std::make_shared<DCWave>(parseSpiceNumber(toks[first]));
  }

  void parseElement() {
    const Tokens& toks = toks_;
    std::string name(toks[0]);  // moved into the device
    const char kind = lex::lowerChar(name[0]);
    auto node = [&](std::size_t i) -> int {
      if (i >= toks.size()) fail("missing node on " + name);
      return ckt_.node(toks[i]);
    };
    switch (kind) {
      case 'r': {
        if (toks.size() < 4) fail("R needs 2 nodes and a value");
        ckt_.add<Resistor>(std::move(name), node(1), node(2),
                           parseSpiceNumber(toks[3]));
        break;
      }
      case 'c': {
        if (toks.size() < 4) fail("C needs 2 nodes and a value");
        ckt_.add<Capacitor>(std::move(name), node(1), node(2),
                            parseSpiceNumber(toks[3]));
        break;
      }
      case 'l': {
        if (toks.size() < 4) fail("L needs 2 nodes and a value");
        const int br = ckt_.allocBranch(name);
        auto& ind = ckt_.add<Inductor>(std::move(name), node(1), node(2), br,
                                       parseSpiceNumber(toks[3]));
        inductors_[lowered(ind.name())] = &ind;
        break;
      }
      case 'k': {
        if (toks.size() < 4) fail("K needs 2 inductors and k");
        const auto l1 = inductors_.find(lowered(toks[1]));
        const auto l2 = inductors_.find(lowered(toks[2]));
        if (l1 == inductors_.end() || l2 == inductors_.end())
          fail("K references unknown inductor");
        ckt_.add<MutualInductance>(std::move(name), *l1->second, *l2->second,
                                   parseSpiceNumber(toks[3]));
        break;
      }
      case 'v': {
        const int np = node(1), nm = node(2);
        TimeAxis axis;
        auto w = parseWaveform(3, axis);
        const int br = ckt_.allocBranch(name);
        vsourceBranches_[lowered(name)] = br;
        ckt_.add<VSource>(std::move(name), np, nm, br, std::move(w), axis);
        break;
      }
      case 'i': {
        const int np = node(1), nm = node(2);
        TimeAxis axis;
        auto w = parseWaveform(3, axis);
        ckt_.add<ISource>(std::move(name), np, nm, std::move(w), axis);
        break;
      }
      case 'f': {
        if (toks.size() < 5) fail("F needs 2 nodes, a Vname, gain");
        const int op = node(1), om = node(2);
        const auto it = vsourceBranches_.find(lowered(toks[3]));
        if (it == vsourceBranches_.end())
          fail("F references unknown V source " + std::string(toks[3]));
        ckt_.add<CCCS>(std::move(name), op, om, it->second,
                       parseSpiceNumber(toks[4]));
        break;
      }
      case 'h': {
        if (toks.size() < 5) fail("H needs 2 nodes, a Vname, ohms");
        const int op = node(1), om = node(2);
        const auto it = vsourceBranches_.find(lowered(toks[3]));
        if (it == vsourceBranches_.end())
          fail("H references unknown V source " + std::string(toks[3]));
        const int br = ckt_.allocBranch(name);
        ckt_.add<CCVS>(std::move(name), op, om, it->second, br,
                       parseSpiceNumber(toks[4]));
        break;
      }
      case 'e': {
        if (toks.size() < 6) fail("E needs 4 nodes and a gain");
        const int op = node(1), om = node(2), cp = node(3), cm = node(4);
        const int br = ckt_.allocBranch(name);
        ckt_.add<VCVS>(std::move(name), op, om, cp, cm, br,
                       parseSpiceNumber(toks[5]));
        break;
      }
      case 'g': {
        if (toks.size() < 6) fail("G needs 4 nodes and a gm");
        ckt_.add<VCCS>(std::move(name), node(1), node(2), node(3), node(4),
                       parseSpiceNumber(toks[5]));
        break;
      }
      case 'd': {
        if (toks.size() < 4) fail("D needs 2 nodes and a model");
        const ModelCard& m = findModel(toks[3]);
        Diode::Params p;
        p.is = getParam(m, "is", p.is);
        p.n = getParam(m, "n", p.n);
        p.cj0 = getParam(m, "cjo", getParam(m, "cj0", p.cj0));
        p.vj = getParam(m, "vj", p.vj);
        p.m = getParam(m, "m", p.m);
        p.tt = getParam(m, "tt", p.tt);
        p.kf = getParam(m, "kf", p.kf);
        p.af = getParam(m, "af", p.af);
        ckt_.add<Diode>(std::move(name), node(1), node(2), p);
        break;
      }
      case 'q': {
        if (toks.size() < 5) fail("Q needs c b e and a model");
        const ModelCard& m = findModel(toks[4]);
        BJT::Params p;
        p.is = getParam(m, "is", p.is);
        p.bf = getParam(m, "bf", p.bf);
        p.br = getParam(m, "br", p.br);
        p.vaf = getParam(m, "vaf", p.vaf);
        p.cje = getParam(m, "cje", p.cje);
        p.cjc = getParam(m, "cjc", p.cjc);
        p.tf = getParam(m, "tf", p.tf);
        p.tr = getParam(m, "tr", p.tr);
        p.kf = getParam(m, "kf", p.kf);
        p.af = getParam(m, "af", p.af);
        const auto type = (m.type == "pnp") ? BJT::Type::pnp : BJT::Type::npn;
        ckt_.add<BJT>(std::move(name), node(1), node(2), node(3), p, type);
        break;
      }
      case 'm': {
        if (toks.size() < 5) fail("M needs d g s and a model");
        const ModelCard& m = findModel(toks[4]);
        MOSFET::Params p;
        p.vt0 = getParam(m, "vto", getParam(m, "vt0", p.vt0));
        p.kp = getParam(m, "kp", p.kp);
        p.lambda = getParam(m, "lambda", p.lambda);
        p.cgs = getParam(m, "cgs", p.cgs);
        p.cgd = getParam(m, "cgd", p.cgd);
        p.kf = getParam(m, "kf", p.kf);
        p.af = getParam(m, "af", p.af);
        const auto type =
            (m.type == "pmos") ? MOSFET::Type::pmos : MOSFET::Type::nmos;
        ckt_.add<MOSFET>(std::move(name), node(1), node(2), node(3), p, type);
        break;
      }
      default:
        fail("unsupported element " + name);
    }
  }

  Circuit& ckt_;
  const lex::Card* card_ = nullptr;  ///< card under parse (for fail())
  Tokens toks_;                      ///< its tokens, views into the text
  std::map<std::string, ModelCard> models_;
  std::map<std::string, const Inductor*> inductors_;
  std::map<std::string, int> vsourceBranches_;
};

}  // namespace

namespace {
std::string renderNetlistError(int line, const std::string& card,
                               const std::string& detail) {
  std::string msg = "netlist line " + std::to_string(line) + ": " + detail;
  if (!card.empty()) msg += " [card: " + card + "]";
  return msg;
}
}  // namespace

NetlistError::NetlistError(int line, std::string card, std::string detail)
    : InvalidArgument(renderNetlistError(line, card, detail)),
      line_(line),
      card_(std::move(card)),
      detail_(std::move(detail)) {}

Real parseSpiceNumber(std::string_view token) {
  RFIC_REQUIRE(!token.empty(), "parseSpiceNumber: empty token");
  const auto bad = [&](const char* what) {
    failInvalid(std::string("parseSpiceNumber: ") + what + " " +
                std::string(token));
  };
  // Scan the decimal syntax first: a general float reader would also
  // accept nan, inf/infinity and (strtod) hex, so the conversion below
  // sees only the span the scan accepted.
  const auto digitAt = [&](std::size_t i) {
    return i < token.size() && token[i] >= '0' && token[i] <= '9';
  };
  std::size_t i = (token[0] == '+' || token[0] == '-') ? 1 : 0;
  const std::size_t intStart = i;
  while (digitAt(i)) ++i;
  std::size_t digits = i - intStart;
  if (i < token.size() && token[i] == '.') {
    const std::size_t fracStart = ++i;
    while (digitAt(i)) ++i;
    digits += i - fracStart;
  }
  if (digits == 0) bad("bad number");
  if (i < token.size() && (token[i] == 'e' || token[i] == 'E')) {
    std::size_t j = i + 1;
    if (j < token.size() && (token[j] == '+' || token[j] == '-')) ++j;
    if (digitAt(j)) {
      i = j;
      while (digitAt(i)) ++i;
    }
  }
  const std::string_view suffix = token.substr(i);
  for (const char c : suffix)
    if (!((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'))) bad("bad number");
  // "0x" and a hex digit is a hex number to strtod, not 0 with a unit.
  if (i == intStart + 1 && token[intStart] == '0' && suffix.size() >= 2 &&
      lex::lowerChar(suffix[0]) == 'x' && lex::lowerChar(suffix[1]) >= 'a' &&
      lex::lowerChar(suffix[1]) <= 'f')
    bad("bad number");
  // from_chars rounds correctly, as strtod does, but takes no '+' sign and
  // leaves the value unset when it under- or overflows; strtod decides
  // those (a NUL-terminated copy, off the hot path).
  const char* begin = token.data() + (token[0] == '+' ? 1 : 0);
  Real v = 0.0;
  const auto [end, ec] = std::from_chars(begin, token.data() + i, v);
  if (ec == std::errc::result_out_of_range)
    v = std::strtod(std::string(token.substr(0, i)).c_str(), nullptr);
  else if (ec != std::errc() || end != token.data() + i)
    bad("bad number");
  if (suffix.size() >= 3 && iequals(suffix.substr(0, 3), "meg")) {
    v *= 1e6;
  } else if (!suffix.empty()) {
    switch (lex::lowerChar(suffix[0])) {
      case 'f': v *= 1e-15; break;
      case 'p': v *= 1e-12; break;
      case 'n': v *= 1e-9; break;
      case 'u': v *= 1e-6; break;
      case 'm': v *= 1e-3; break;
      case 'k': v *= 1e3; break;
      case 'g': v *= 1e9; break;
      case 't': v *= 1e12; break;
      default: break;  // trailing units like "ohm", "v", "hz"
    }
  }
  if (!std::isfinite(v)) bad("number out of range");
  return v;
}

void parseNetlist(std::string_view text, Circuit& ckt) {
  // Bumped on the throwing path too: a rejected parse is parse time.
  struct ParseTime {
    perf::Timer timer;
    ~ParseTime() { perf::global().add(perf::Id::parseNs, timer.ns()); }
  } parseTime;
  Parser parser(text, ckt);
}

}  // namespace rfic::circuit
