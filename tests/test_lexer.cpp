// The netlist text lexer and the four passes built on it: rficd's
// preflight, the engine's analysis-card scan, the topology key and the
// parser. An edge corpus pins each pass's result; a seeded differential
// test compares the lexer with the stream-based line handling it replaced;
// a property test pins parseSpiceNumber to strtod bit for bit.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "circuit/lexer.hpp"
#include "circuit/netlist.hpp"
#include "engine/engine.hpp"
#include "perf/perf.hpp"

namespace rfic {
namespace {

using circuit::lex::Card;
using circuit::lex::CardReader;

// ---------------------------------------------------------------- oracles
// The stream-based line handling the lexer replaced, kept as the reference
// for the differential test.

std::vector<std::string> oracleWords(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> toks;
  std::string t;
  while (in >> t) toks.push_back(t);
  return toks;
}

std::vector<std::string> oracleLines(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string oracleTrim(std::string line) {
  while (!line.empty() &&
         (line.back() == '\r' || line.back() == ' ' || line.back() == '\t'))
    line.pop_back();
  return line;
}

std::string oracleLower(std::string s) {
  for (auto& c : s)
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

// A line without its leading SPICE separators (whitespace and ','): its
// first byte left classifies it, as the parser classifies a card by its
// first token.
std::string oracleText(const std::string& line) {
  std::size_t i = 0;
  while (i < line.size() &&
         (std::isspace(static_cast<unsigned char>(line[i])) || line[i] == ','))
    ++i;
  return line.substr(i);
}

std::string oracleTopologyKey(const std::string& netlist) {
  std::string key;
  for (std::string line : oracleLines(netlist)) {
    line = oracleTrim(line);
    const std::string text = oracleText(line);
    if (text.empty() || text[0] == '*') continue;
    if (text[0] == '.') {
      const auto toks = oracleWords(text);
      const std::string head = oracleLower(toks[0]);
      if (head == ".op" || head == ".tran" || head == ".ac" ||
          head == ".noise" || head == ".hb" || head == ".print" ||
          head == ".end")
        continue;
    }
    key += line;
    key += '\n';
  }
  return key;
}

std::string oraclePreflight(const std::string& netlist,
                            const engine::PreflightLimits& limits) {
  if (limits.maxNetlistBytes != 0 && netlist.size() > limits.maxNetlistBytes)
    return "netlist is " + std::to_string(netlist.size()) + " bytes (cap " +
           std::to_string(limits.maxNetlistBytes) + ")";
  std::size_t devices = 0, lineNo = 0;
  std::unordered_set<std::string> nodes;
  bool sawAnything = false;
  for (std::string line : oracleLines(netlist)) {
    ++lineNo;
    line = oracleTrim(line);
    const std::string text = oracleText(line);
    if (text.empty()) continue;
    sawAnything = true;
    if (text[0] == '*' || text[0] == '.' || line[0] == '+') continue;
    const auto toks = oracleWords(line);
    if (toks.size() < 3)
      return "malformed element card at line " + std::to_string(lineNo) +
             ": '" + line + "' (expected name + two nodes at least)";
    if (limits.maxDevices != 0 && ++devices > limits.maxDevices)
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
  return sawAnything ? "" : "empty netlist";
}

std::vector<std::string> oracleSpiceTokens(const std::string& line) {
  std::vector<std::string> toks;
  std::string cur;
  const auto flush = [&] {
    if (!cur.empty()) toks.push_back(cur);
    cur.clear();
  };
  for (const char c : line) {
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

struct OracleCard {
  std::size_t line;
  std::string text;
};

// The parser's cards: comment-stripped lines, '+' lines joined to the line
// before them, each card keeping its first physical line.
std::vector<OracleCard> oracleCards(const std::string& text) {
  std::vector<OracleCard> cards;
  std::size_t num = 0;
  for (std::string line : oracleLines(text)) {
    ++num;
    if (!line.empty() && line[0] == '*') line.clear();
    line = line.substr(0, line.find(';'));
    if (!line.empty() && line[0] == '+' && !cards.empty())
      cards.back().text += " " + line.substr(1);
    else
      cards.push_back({num, line});
  }
  return cards;
}

// ------------------------------------------------------------ helpers

std::vector<std::string> strings(const std::vector<std::string_view>& v) {
  return {v.begin(), v.end()};
}

// The parse as text: unknown names, then device names, or the error.
std::string parsed(const std::string& text) {
  circuit::Circuit c;
  try {
    circuit::parseNetlist(text, c);
  } catch (const circuit::NetlistError& e) {
    return std::string("error: ") + e.what();
  }
  std::string s;
  for (std::size_t i = 0; i < c.numUnknowns(); ++i)
    s += c.unknownName(i) + " ";
  s += "/";
  for (const auto& d : c.devices()) s += " " + d->name();
  return s;
}

// The engine's card scan as seen from a job: the analyses it ran, in
// order, and the exit code and error.
std::string scanned(const std::string& text) {
  engine::Engine eng;
  engine::NullSink sink;
  engine::JobSpec spec;
  spec.netlist = text;
  const engine::JobResult res = eng.run(spec, sink);
  std::string s = "exit=" + std::to_string(res.exitCode);
  for (const auto& a : res.analyses) s += " " + a.card;
  if (!res.error.empty()) s += " error=" + res.error;
  return s;
}

// ------------------------------------------------------------ edge corpus

struct Case {
  const char* what;
  std::string text;
  std::string preflight, key, parse, scan;
};

TEST(NetlistLexer, EdgeCorpusThroughAllFourPasses) {
  const engine::PreflightLimits off;
  const std::vector<Case> corpus = {
      {"CRLF line ends",
       "V1 in 0 DC 1\r\nR1 in out 1k\r\nR2 out 0 1k\r\n.op\r\n",
       "", "V1 in 0 DC 1\nR1 in out 1k\nR2 out 0 1k\n",
       "V(in) I(V1) V(out) / V1 R1 R2", "exit=0 .op"},
      // Indentation never changes what a line is: the first non-blank byte
      // makes "\t.op" a control card and "  * note" a comment in every
      // pass, as in the parser.
      {"tabs and leading blanks", "\tV1\tin\t0\tDC\t1\n  R1 in 0 1k\n\t.op\n",
       "", "\tV1\tin\t0\tDC\t1\n  R1 in 0 1k\n", "V(in) I(V1) / V1 R1",
       "exit=0 .op"},
      {"indented comment and control cards",
       "V1 a 0 DC 1\n  * note\nR1 a 0 1k\n \t.print a\n , .op\n", "",
       "V1 a 0 DC 1\nR1 a 0 1k\n", "V(a) I(V1) / V1 R1", "exit=0 .op"},
      {"glued separators",
       "V1 in 0 SIN(0,1,1k)\nR1 in mid 1k\nD1 mid 0 dm\n"
       ".model dm d(is=1e-14,n=1.5)\n.tran 10u 1m\n",
       "",
       "V1 in 0 SIN(0,1,1k)\nR1 in mid 1k\nD1 mid 0 dm\n"
       ".model dm d(is=1e-14,n=1.5)\n",
       "V(in) I(V1) V(mid) / V1 R1 D1", "exit=0 .tran"},
      {"; and * comments",
       "* title\nV1 a 0 DC 1 ; source\nR1 a 0 1k;load\n*R2 a 0 1k\n"
       ".op ; run it\n",
       "", "V1 a 0 DC 1 ; source\nR1 a 0 1k;load\n", "V(a) I(V1) / V1 R1",
       "exit=0 .op"},
      {"+ continuation", "V1 a 0 SIN(0 1\n+ 1k) ; c\nR1 a 0 1k\n.tran 10u 1m\n",
       "", "V1 a 0 SIN(0 1\n+ 1k) ; c\nR1 a 0 1k\n", "V(a) I(V1) / V1 R1",
       "exit=0 .tran"},
      // A '+' line continues whatever line is before it: here the comment,
      // which leaves the card "  2k" on the comment's line.
      {"+ continuation after a comment line",
       "V1 a 0 DC 1\nR1 a 0 1k\n* note\n+ 2k\n.op\n", "",
       "V1 a 0 DC 1\nR1 a 0 1k\n+ 2k\n",
       "error: netlist line 3: unsupported element 2k [card:   2k]",
       "exit=1 error=netlist line 3: unsupported element 2k [card:   2k]"},
      {"no trailing newline", "V1 a 0 DC 1\nR1 a 0 1k\n.op", "",
       "V1 a 0 DC 1\nR1 a 0 1k\n", "V(a) I(V1) / V1 R1", "exit=0 .op"},
      {"empty text", "", "empty netlist", "", "/",
       "exit=2 error=no analysis cards"},
      {"upper-case dot cards",
       ".MODEL DM D (IS=1e-14)\nV1 a 0 DC 0.5\nD1 a 0 DM\n.TRAN 10u 1m\n.OP\n"
       ".PRINT a\n",
       "", ".MODEL DM D (IS=1e-14)\nV1 a 0 DC 0.5\nD1 a 0 DM\n",
       "V(a) I(V1) / V1 D1", "exit=0 .tran .op"},
      // 0xA0 is not a blank in the C locale: it stays inside its token.
      {"bytes >= 0x80",
       "V\xc3\xa9 n\xc3\xa9 0 DC 1\nR1 n\xc3\xa9 n\xa0x 1k\nR2 n\xa0x 0 1k\n"
       ".op\n",
       "",
       "V\xc3\xa9 n\xc3\xa9 0 DC 1\nR1 n\xc3\xa9 n\xa0x 1k\nR2 n\xa0x 0 1k\n",
       "V(n\xc3\xa9) I(V\xc3\xa9) V(n\xa0x) / V\xc3\xa9 R1 R2", "exit=0 .op"},
  };
  for (const Case& c : corpus) {
    SCOPED_TRACE(c.what);
    EXPECT_EQ(engine::preflightCheck(c.text, off), c.preflight);
    EXPECT_EQ(engine::topologyKey(c.text), c.key);
    EXPECT_EQ(parsed(c.text), c.parse);
    EXPECT_EQ(scanned(c.text), c.scan);
  }
}

// After a '+' continuation, a diagnostic names the card's own first
// physical line, not its index among the joined cards.
TEST(NetlistLexer, ErrorNamesPhysicalLineAfterContinuation) {
  circuit::Circuit c;
  try {
    circuit::parseNetlist("* t\nV1 in 0 SIN(0 1\n+ 1k)\nR1 in out -5\n.op\n",
                          c);
    FAIL() << "expected NetlistError";
  } catch (const circuit::NetlistError& e) {
    EXPECT_EQ(e.line(), 4);
    EXPECT_EQ(e.card(), "R1 in out -5");
    EXPECT_NE(std::string(e.what()).find("netlist line 4:"),
              std::string::npos);
  }
  // A failing continued card names its first line and quotes it joined.
  circuit::Circuit d;
  try {
    circuit::parseNetlist("R0 a 0 1k\nR1 a 0 ; c\n+ -5\n+ ohm\n", d);
    FAIL() << "expected NetlistError";
  } catch (const circuit::NetlistError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.card(), "R1 a 0   -5  ohm");
  }
}

// --------------------------------------------------------- differential

// A random netlist: lines of SPICE fragments and random bytes from an
// alphabet rich in separators, comment and continuation marks.
std::string randomNetlist(std::mt19937& rng) {
  static const char* const kFragments[] = {
      "R1 a 0 1k", " R2 a b 2k", "\tC1 b 0 1n", "V1 a 0 SIN(0,1,1k)",
      "+ 5", "+", "* c", "; x", "", "  ", ".op", ".OP ; r", " .tran 1u 1m",
      ".model dm d(is=1e-14)", "R3 a\xc3\xa9 0 1k", "R4 a 0 1k ; c",
      ".print a b", ".end", "x", "E1 o 0 a 0 2", "+ ( 1 , 2 )"};
  static const char kAlphabet[] =
      " \t\v\f\r,()=;*+.aRV0x1k\xc3\xa9\xa0";
  std::uniform_int_distribution<int> lines(0, 12), pick(0, 3), len(0, 16);
  std::uniform_int_distribution<std::size_t> frag(
      0, std::size(kFragments) - 1);
  std::uniform_int_distribution<std::size_t> ch(0, sizeof kAlphabet - 2);
  const bool crlf = pick(rng) == 0;
  std::string text;
  const int n = lines(rng);
  for (int i = 0; i < n; ++i) {
    if (pick(rng) != 0) {
      text += kFragments[frag(rng)];
    } else {
      for (int k = len(rng); k > 0; --k) text += kAlphabet[ch(rng)];
    }
    if (i + 1 < n || pick(rng) != 0) text += crlf ? "\r\n" : "\n";
  }
  return text;
}

TEST(NetlistLexer, MatchesStreamLineHandlingOnRandomNetlists) {
  std::mt19937 rng(20261019);
  std::uniform_int_distribution<std::size_t> cap(0, 4);
  for (int iter = 0; iter < 4000; ++iter) {
    const std::string text = randomNetlist(rng);
    SCOPED_TRACE(testing::PrintToString(text));

    // Physical lines and whitespace words (the card scan's pieces).
    std::vector<std::string> lines;
    circuit::lex::LineReader lr(text);
    for (std::string_view l; lr.next(l);) {
      lines.emplace_back(l);
      std::vector<std::string> words;
      for (std::string_view rest = l, t; circuit::lex::nextWord(rest, t);)
        words.emplace_back(t);
      ASSERT_EQ(words, oracleWords(std::string(l)));
      ASSERT_EQ(lr.number(), lines.size());
    }
    ASSERT_EQ(lines, oracleLines(text));

    // Parser cards: first line, joined text and SPICE tokens.
    const auto expected = oracleCards(text);
    std::size_t k = 0;
    Card card;
    std::vector<std::string_view> toks;
    for (CardReader cr(text); cr.next(card); ++k) {
      ASSERT_LT(k, expected.size());
      EXPECT_EQ(card.line, expected[k].line);
      EXPECT_EQ(card.joined(), expected[k].text);
      circuit::lex::spiceTokens(card, toks);
      const auto want = oracleSpiceTokens(expected[k].text);
      EXPECT_EQ(strings(toks), want);
      EXPECT_EQ(circuit::lex::firstTokenChar(card),
                want.empty() ? -1 : static_cast<unsigned char>(want[0][0]));
    }
    EXPECT_EQ(k, expected.size());

    // The topology key and the preflight, caps armed at random.
    EXPECT_EQ(engine::topologyKey(text), oracleTopologyKey(text));
    engine::PreflightLimits lim;
    lim.maxDevices = cap(rng);
    lim.maxNodes = cap(rng);
    lim.maxNetlistBytes = cap(rng) == 0 ? 40 : 0;
    EXPECT_EQ(engine::preflightCheck(text, lim), oraclePreflight(text, lim));
  }
}

// ------------------------------------------------------- number property

std::uint64_t bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

TEST(SpiceNumberProperty, BitwiseStrtodTimesTheSuffixScale) {
  struct Suffix {
    const char* text;
    double scale;  // 0: a unit, no scaling
  };
  static const Suffix kSuffixes[] = {
      {"", 0},      {"k", 1e3},    {"K", 1e3},      {"meg", 1e6},
      {"MEG", 1e6}, {"Meg", 1e6},  {"m", 1e-3},     {"u", 1e-6},
      {"n", 1e-9},  {"p", 1e-12},  {"f", 1e-15},    {"g", 1e9},
      {"t", 1e12},  {"ohm", 0},    {"v", 0},        {"hz", 0},
      {"kohm", 1e3}, {"nF", 1e-9}, {"megohm", 1e6}, {"e", 0}};
  std::mt19937_64 rng(801);
  std::uniform_int_distribution<int> digits(0, 19), pick(0, 5), expLen(1, 3);
  std::uniform_int_distribution<int> digit(0, 9);
  std::uniform_int_distribution<std::size_t> suffix(
      0, std::size(kSuffixes) - 1);
  int checked = 0, rejected = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    std::string mant;
    if (const int s = pick(rng); s == 0) mant += '+';
    else if (s == 1) mant += '-';
    const int intDigits = digits(rng), fracDigits = digits(rng);
    for (int k = 0; k < intDigits; ++k) mant += char('0' + digit(rng));
    if (pick(rng) != 0 || intDigits == 0) {
      mant += '.';
      for (int k = 0; k < fracDigits; ++k) mant += char('0' + digit(rng));
    }
    if (intDigits == 0 && (fracDigits == 0 || mant.back() == '.'))
      mant += '5';
    if (pick(rng) < 3) {
      mant += pick(rng) < 3 ? 'e' : 'E';
      if (const int s = pick(rng); s == 0) mant += '+';
      else if (s < 3) mant += '-';
      for (int k = expLen(rng); k > 0; --k) mant += char('0' + digit(rng));
    }
    const Suffix& suf = kSuffixes[suffix(rng)];
    const std::string token = mant + suf.text;
    SCOPED_TRACE(token);

    double want = std::strtod(mant.c_str(), nullptr);
    if (suf.scale != 0) want *= suf.scale;
    if (!std::isfinite(want)) {
      EXPECT_THROW(circuit::parseSpiceNumber(token), InvalidArgument);
      ++rejected;
      continue;
    }
    ASSERT_EQ(bits(circuit::parseSpiceNumber(token)), bits(want));
    ++checked;
  }
  EXPECT_GE(checked, 10000);
  EXPECT_GT(rejected, 0);  // the overflowing exponents were reached
}

TEST(SpiceNumberProperty, NonDecimalInputStaysRejected) {
  for (const char* tok :
       {"", "nan", "NaN", "inf", "-inf", "+inf", "infinity", "0x10", "0xff",
        "-0xA", "0X1p3", "1x2", "1.2.3", "1e+", "+", "-", ".", "e5", "k",
        "1e400", "1e308k", "--1", "+-1", "1 2", "2k5"})
    EXPECT_THROW(circuit::parseSpiceNumber(tok), InvalidArgument) << tok;
  // A letter after "0x" that is not a hex digit is a unit.
  EXPECT_EQ(circuit::parseSpiceNumber("0xg"), 0.0);
  EXPECT_EQ(circuit::parseSpiceNumber("00xff"), 0.0);
  // An underflowing mantissa is strtod's value, not an error.
  EXPECT_EQ(bits(circuit::parseSpiceNumber("1e-400")),
            bits(std::strtod("1e-400", nullptr)));
  EXPECT_EQ(bits(circuit::parseSpiceNumber("4.9e-324")),
            bits(std::strtod("4.9e-324", nullptr)));
}

// ------------------------------------------------------------- ledger

TEST(NetlistLexer, ParseTimeIsBumpedOncePerParse) {
  perf::Counters counters;
  {
    const perf::CounterScope scope(counters);
    circuit::Circuit c;
    circuit::parseNetlist("V1 a 0 DC 1\nR1 a 0 1k\n.op\n", c);
  }
  EXPECT_GT(counters.snapshot().parseNs, 0u);
  // A rejected parse is parse time too.
  perf::Counters failed;
  {
    const perf::CounterScope scope(failed);
    circuit::Circuit c;
    EXPECT_THROW(circuit::parseNetlist("R1 a 0 -5\n", c), InvalidArgument);
  }
  EXPECT_GT(failed.snapshot().parseNs, 0u);
}

}  // namespace
}  // namespace rfic
