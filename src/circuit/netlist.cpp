#include "circuit/netlist.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <map>
#include <sstream>
#include <vector>

#include "circuit/devices.hpp"
#include "circuit/semiconductors.hpp"
#include "circuit/sources.hpp"

namespace rfic::circuit {

namespace {

std::string lower(std::string s) {
  for (auto& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

// Tokenize a card, treating '(' ')' '=' ',' as separators but keeping
// function-style groups attached: "SIN(0 1 1k)" -> "sin" "(" "0" "1" "1k" ")".
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> toks;
  std::string cur;
  auto flush = [&] {
    if (!cur.empty()) {
      toks.push_back(cur);
      cur.clear();
    }
  };
  for (char c : line) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == ',') {
      flush();
    } else if (c == '(' || c == ')' || c == '=') {
      flush();
      toks.emplace_back(1, c);
    } else {
      cur += c;
    }
  }
  flush();
  return toks;
}

struct ModelCard {
  std::string type;  // "d", "npn", "pnp", "nmos", "pmos"
  std::map<std::string, Real> params;
};

Real getParam(const ModelCard& m, const std::string& key, Real dflt) {
  const auto it = m.params.find(key);
  return it == m.params.end() ? dflt : it->second;
}

class Parser {
 public:
  Parser(const std::string& text, Circuit& ckt) : ckt_(ckt) {
    std::istringstream in(text);
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(in, line)) {
      // Strip comments before joining so a trailing ';' comment cannot
      // swallow a '+' continuation.
      line = stripComment(line);
      if (!line.empty() && line[0] == '+' && !lines.empty()) {
        lines.back() += " " + line.substr(1);
      } else {
        lines.push_back(line);
      }
    }
    // Two passes: models first so element cards can reference them in any
    // order. Every per-card parse — including nested throws from
    // parseSpiceNumber and device-constructor validation — is converted to
    // a structured NetlistError carrying the line number and card text, so
    // no malformed input can escape as an unlocated exception.
    int num = 0;
    for (const auto& l : lines) {
      ++num;
      const auto toks = tokenize(stripComment(l));
      if (toks.empty()) continue;
      if (lower(toks[0]) == ".model") guarded(num, l, [&] { parseModel(toks, num); });
    }
    num = 0;
    for (const auto& l : lines) {
      ++num;
      const auto toks = tokenize(stripComment(l));
      if (toks.empty()) continue;
      const std::string head = lower(toks[0]);
      if (head[0] == '.' || head[0] == '*') continue;
      guarded(num, l, [&] { parseElement(toks, num); });
    }
  }

 private:
  static std::string stripComment(const std::string& l) {
    if (!l.empty() && (l[0] == '*')) return {};
    const auto pos = l.find(';');
    return pos == std::string::npos ? l : l.substr(0, pos);
  }

  /// Run one card's parse; rethrow anything that is not already a
  /// NetlistError as one, attaching this card's location and text.
  template <class F>
  void guarded(int lineNum, const std::string& cardText, F&& f) {
    curCard_ = &cardText;
    try {
      f();
    } catch (const NetlistError&) {
      curCard_ = nullptr;
      throw;
    } catch (const std::exception& e) {
      curCard_ = nullptr;
      throw NetlistError(lineNum, cardText, e.what());
    }
    curCard_ = nullptr;
  }

  [[noreturn]] void fail(int lineNum, const std::string& msg) const {
    throw NetlistError(lineNum, curCard_ != nullptr ? *curCard_ : std::string(),
                       msg);
  }

  void parseModel(const std::vector<std::string>& toks, int lineNum) {
    if (toks.size() < 3) fail(lineNum, ".model needs a name and a type");
    ModelCard m;
    m.type = lower(toks[2]);
    // Parameters appear as NAME = VALUE triples (with '(' ')' noise).
    for (std::size_t i = 3; i + 2 < toks.size(); ++i) {
      if (toks[i] == "(" || toks[i] == ")") continue;
      if (toks[i + 1] == "=") {
        m.params[lower(toks[i])] = parseSpiceNumber(toks[i + 2]);
        i += 2;
      }
    }
    models_[lower(toks[1])] = std::move(m);
  }

  const ModelCard& findModel(const std::string& name, int lineNum) const {
    const auto it = models_.find(lower(name));
    if (it == models_.end()) fail(lineNum, "unknown model " + name);
    return it->second;
  }

  std::shared_ptr<const Waveform> parseWaveform(
      const std::vector<std::string>& toks, std::size_t first, int lineNum,
      TimeAxis& axis) const {
    axis = TimeAxis::slow;
    // Scan for AXIS=FAST anywhere in the tail.
    for (std::size_t i = first; i + 2 < toks.size(); ++i) {
      if (lower(toks[i]) == "axis" && toks[i + 1] == "=" &&
          lower(toks[i + 2]) == "fast") {
        axis = TimeAxis::fast;
      }
    }
    if (first >= toks.size()) return std::make_shared<DCWave>(0.0);
    const std::string kind = lower(toks[first]);
    auto args = [&](std::size_t count, std::size_t optional) {
      std::vector<Real> vals;
      std::size_t i = first + 1;
      if (i < toks.size() && toks[i] == "(") ++i;
      while (i < toks.size() && toks[i] != ")" && vals.size() < count + optional) {
        if (lower(toks[i]) == "axis") break;
        vals.push_back(parseSpiceNumber(toks[i]));
        ++i;
      }
      if (vals.size() < count)
        fail(lineNum, "waveform " + kind + " needs at least " +
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

  void parseElement(const std::vector<std::string>& toks, int lineNum) {
    const std::string& name = toks[0];
    const char kind =
        static_cast<char>(std::tolower(static_cast<unsigned char>(name[0])));
    auto node = [&](std::size_t i) -> int {
      if (i >= toks.size()) fail(lineNum, "missing node on " + name);
      return ckt_.node(toks[i]);
    };
    switch (kind) {
      case 'r': {
        if (toks.size() < 4) fail(lineNum, "R needs 2 nodes and a value");
        ckt_.add<Resistor>(name, node(1), node(2), parseSpiceNumber(toks[3]));
        break;
      }
      case 'c': {
        if (toks.size() < 4) fail(lineNum, "C needs 2 nodes and a value");
        ckt_.add<Capacitor>(name, node(1), node(2), parseSpiceNumber(toks[3]));
        break;
      }
      case 'l': {
        if (toks.size() < 4) fail(lineNum, "L needs 2 nodes and a value");
        const int br = ckt_.allocBranch(name);
        auto& ind = ckt_.add<Inductor>(name, node(1), node(2), br,
                                       parseSpiceNumber(toks[3]));
        inductors_[lower(name)] = &ind;
        break;
      }
      case 'k': {
        if (toks.size() < 4) fail(lineNum, "K needs 2 inductors and k");
        const auto l1 = inductors_.find(lower(toks[1]));
        const auto l2 = inductors_.find(lower(toks[2]));
        if (l1 == inductors_.end() || l2 == inductors_.end())
          fail(lineNum, "K references unknown inductor");
        ckt_.add<MutualInductance>(name, *l1->second, *l2->second,
                                   parseSpiceNumber(toks[3]));
        break;
      }
      case 'v': {
        const int np = node(1), nm = node(2);
        TimeAxis axis;
        auto w = parseWaveform(toks, 3, lineNum, axis);
        const int br = ckt_.allocBranch(name);
        vsourceBranches_[lower(name)] = br;
        ckt_.add<VSource>(name, np, nm, br, std::move(w), axis);
        break;
      }
      case 'i': {
        const int np = node(1), nm = node(2);
        TimeAxis axis;
        auto w = parseWaveform(toks, 3, lineNum, axis);
        ckt_.add<ISource>(name, np, nm, std::move(w), axis);
        break;
      }
      case 'f': {
        if (toks.size() < 5) fail(lineNum, "F needs 2 nodes, a Vname, gain");
        const int op = node(1), om = node(2);
        const auto it = vsourceBranches_.find(lower(toks[3]));
        if (it == vsourceBranches_.end())
          fail(lineNum, "F references unknown V source " + toks[3]);
        ckt_.add<CCCS>(name, op, om, it->second,
                       parseSpiceNumber(toks[4]));
        break;
      }
      case 'h': {
        if (toks.size() < 5) fail(lineNum, "H needs 2 nodes, a Vname, ohms");
        const int op = node(1), om = node(2);
        const auto it = vsourceBranches_.find(lower(toks[3]));
        if (it == vsourceBranches_.end())
          fail(lineNum, "H references unknown V source " + toks[3]);
        const int br = ckt_.allocBranch(name);
        ckt_.add<CCVS>(name, op, om, it->second, br,
                       parseSpiceNumber(toks[4]));
        break;
      }
      case 'e': {
        if (toks.size() < 6) fail(lineNum, "E needs 4 nodes and a gain");
        const int op = node(1), om = node(2), cp = node(3), cm = node(4);
        const int br = ckt_.allocBranch(name);
        ckt_.add<VCVS>(name, op, om, cp, cm, br, parseSpiceNumber(toks[5]));
        break;
      }
      case 'g': {
        if (toks.size() < 6) fail(lineNum, "G needs 4 nodes and a gm");
        ckt_.add<VCCS>(name, node(1), node(2), node(3), node(4),
                       parseSpiceNumber(toks[5]));
        break;
      }
      case 'd': {
        if (toks.size() < 4) fail(lineNum, "D needs 2 nodes and a model");
        const ModelCard& m = findModel(toks[3], lineNum);
        Diode::Params p;
        p.is = getParam(m, "is", p.is);
        p.n = getParam(m, "n", p.n);
        p.cj0 = getParam(m, "cjo", getParam(m, "cj0", p.cj0));
        p.vj = getParam(m, "vj", p.vj);
        p.m = getParam(m, "m", p.m);
        p.tt = getParam(m, "tt", p.tt);
        p.kf = getParam(m, "kf", p.kf);
        p.af = getParam(m, "af", p.af);
        ckt_.add<Diode>(name, node(1), node(2), p);
        break;
      }
      case 'q': {
        if (toks.size() < 5) fail(lineNum, "Q needs c b e and a model");
        const ModelCard& m = findModel(toks[4], lineNum);
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
        ckt_.add<BJT>(name, node(1), node(2), node(3), p, type);
        break;
      }
      case 'm': {
        if (toks.size() < 5) fail(lineNum, "M needs d g s and a model");
        const ModelCard& m = findModel(toks[4], lineNum);
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
        ckt_.add<MOSFET>(name, node(1), node(2), node(3), p, type);
        break;
      }
      default:
        fail(lineNum, "unsupported element " + name);
    }
  }

  Circuit& ckt_;
  const std::string* curCard_ = nullptr;  ///< card under parse (for fail())
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

Real parseSpiceNumber(const std::string& token) {
  RFIC_REQUIRE(!token.empty(), "parseSpiceNumber: empty token");
  // Scan the decimal syntax first: strtod alone would also accept nan,
  // inf/infinity and hex ("0x10" as 16), so it must stop where the scan
  // does.
  const auto digitAt = [&](std::size_t i) {
    return i < token.size() &&
           std::isdigit(static_cast<unsigned char>(token[i])) != 0;
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
  if (digits == 0) failInvalid("parseSpiceNumber: bad number " + token);
  if (i < token.size() && (token[i] == 'e' || token[i] == 'E')) {
    std::size_t j = i + 1;
    if (j < token.size() && (token[j] == '+' || token[j] == '-')) ++j;
    if (digitAt(j)) {
      i = j;
      while (digitAt(i)) ++i;
    }
  }
  char* end = nullptr;
  Real v = std::strtod(token.c_str(), &end);
  const std::string suffix = lower(token.substr(i));
  const bool lettersOnly =
      std::all_of(suffix.begin(), suffix.end(), [](char c) {
        return std::isalpha(static_cast<unsigned char>(c)) != 0;
      });
  if (end != token.c_str() + i || !lettersOnly)
    failInvalid("parseSpiceNumber: bad number " + token);
  if (suffix.rfind("meg", 0) == 0) {
    v *= 1e6;
  } else if (!suffix.empty()) {
    switch (suffix[0]) {
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
  if (!std::isfinite(v))
    failInvalid("parseSpiceNumber: number out of range " + token);
  return v;
}

void parseNetlist(const std::string& text, Circuit& ckt) {
  Parser parser(text, ckt);
}

}  // namespace rfic::circuit
