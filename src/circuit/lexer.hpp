// Netlist text lexer: the one tokenizer for every pass over a job's netlist
// text (rficd's preflight, the engine's card scan and topology key, the
// parser). It works on string_views into the caller's text, which must
// outlive them, and allocates nothing.
//   * LineReader yields physical lines, CardReader SPICE cards: a line and
//     its '+' continuations, comments stripped, with its first line number.
//   * nextWord splits on whitespace only (preflight, card scan, topology
//     key); spiceTokens also on the SPICE separators (the parser).
//   * skipBlanks gives every pass the parser's classification of a line:
//     its first non-blank byte says comment ('*') or control card ('.').
#pragma once

#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace rfic::circuit::lex {

/// std::isspace in the C locale: ' ', '\t', '\n', '\v', '\f', '\r'.
constexpr bool isSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// ASCII lower case (bytes >= 0x80 pass through).
constexpr char lowerChar(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// True when `s` equals the lower-case `lowerLit` ignoring ASCII case.
constexpr bool iequals(std::string_view s, std::string_view lowerLit) {
  if (s.size() != lowerLit.size()) return false;
  for (std::size_t i = 0; i < s.size(); ++i)
    if (lowerChar(s[i]) != lowerLit[i]) return false;
  return true;
}

inline std::string lowered(std::string_view s) {
  std::string out(s);
  for (auto& c : out) c = lowerChar(c);
  return out;
}

/// Physical lines with std::getline semantics: split at '\n', which is
/// dropped ('\r' is kept); a last line without '\n' still counts, and text
/// that ends in '\n' has no empty line after it.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : rest_(text) {}

  /// The next line, or false at the end of the text.
  bool next(std::string_view& line) {
    if (rest_.empty()) return false;
    const auto* nl = static_cast<const char*>(
        std::memchr(rest_.data(), '\n', rest_.size()));
    const std::size_t len = nl != nullptr
                                ? static_cast<std::size_t>(nl - rest_.data())
                                : rest_.size();
    line = rest_.substr(0, len);
    rest_.remove_prefix(nl != nullptr ? len + 1 : len);
    ++number_;
    return true;
  }
  /// 1-based number of the line next() returned last.
  std::size_t number() const { return number_; }
  bool nextStartsWith(char c) const { return !rest_.empty() && rest_[0] == c; }

 private:
  std::string_view rest_;
  std::size_t number_ = 0;
};

/// Cut the next whitespace-separated word off the front of `rest`; false
/// when none is left.
inline bool nextWord(std::string_view& rest, std::string_view& word) {
  std::size_t i = 0;
  while (i < rest.size() && isSpace(rest[i])) ++i;
  std::size_t j = i;
  while (j < rest.size() && !isSpace(rest[j])) ++j;
  word = rest.substr(i, j - i);
  rest.remove_prefix(j);
  return j > i;
}

/// Trailing '\r', ' ' and '\t' removed.
constexpr std::string_view trimRight(std::string_view s) {
  while (!s.empty() &&
         (s.back() == '\r' || s.back() == ' ' || s.back() == '\t'))
    s.remove_suffix(1);
  return s;
}

/// A line starting with '*' is all comment; any other ends at its first ';'.
constexpr std::string_view withoutComment(std::string_view line) {
  if (!line.empty() && line[0] == '*') return {};
  return line.substr(0, line.find(';'));
}

/// One SPICE card: a physical line and the '+' lines that continue it.
struct Card {
  std::size_t line = 0;   ///< 1-based physical line the card starts on
  std::string_view head;  ///< that line without its comment
  std::string_view more;  ///< the continuation lines, raw; "" when none

  /// f(piece) for the head, then for each continuation without its comment
  /// and its '+'. Tokens never span two pieces.
  template <class F>
  void forEachPiece(F&& f) const {
    f(head);
    LineReader lines(more);
    for (std::string_view l; lines.next(l);) f(withoutComment(l).substr(1));
  }

  /// The pieces joined by blanks: the text a diagnostic quotes.
  std::string joined() const {
    std::string s(head);
    LineReader lines(more);
    for (std::string_view l; lines.next(l);)
      (s += ' ') += withoutComment(l).substr(1);
    return s;
  }
};

/// The cards of a netlist. A '+' line continues the physical line before
/// it, whatever that line holds (a comment or a blank line included); a
/// '+' on the first line starts a card of its own.
class CardReader {
 public:
  explicit CardReader(std::string_view text) : lines_(text) {}

  bool next(Card& card) {
    std::string_view line;
    if (!lines_.next(line)) return false;
    card.line = lines_.number();
    card.head = withoutComment(line);
    card.more = {};
    if (!lines_.nextStartsWith('+')) return true;
    const char* begin = line.data() + line.size() + 1;
    while (lines_.nextStartsWith('+')) lines_.next(line);
    card.more = std::string_view(
        begin, static_cast<std::size_t>(line.data() + line.size() - begin));
    return true;
  }

 private:
  LineReader lines_;
};

/// SPICE separators: whitespace and ',' split tokens; '(' ')' '=' split
/// and are tokens of their own ("SIN(0 1" -> "SIN" "(" "0" "1").
constexpr bool isSpiceBlank(char c) { return isSpace(c) || c == ','; }
constexpr bool isSpicePunct(char c) { return c == '(' || c == ')' || c == '='; }

/// `line` without its leading SPICE separators. Every pass classifies a
/// line by the first byte left, as the parser classifies a card by the
/// first byte of its first token: '*' makes it a comment and '.' a control
/// card, wherever the line's indentation puts them. Only a '+' in column 1
/// continues the card before it.
constexpr std::string_view skipBlanks(std::string_view line) {
  std::size_t i = 0;
  while (i < line.size() && isSpiceBlank(line[i])) ++i;
  return line.substr(i);
}

/// Replace `out` with the SPICE tokens of the whole card.
inline void spiceTokens(const Card& card, std::vector<std::string_view>& out) {
  out.clear();
  card.forEachPiece([&](std::string_view s) {
    for (std::size_t i = 0, j = 0; i < s.size(); i = j) {
      j = i + 1;
      if (isSpiceBlank(s[i])) continue;
      if (!isSpicePunct(s[i]))
        while (j < s.size() && !isSpiceBlank(s[j]) && !isSpicePunct(s[j])) ++j;
      out.push_back(s.substr(i, j - i));
    }
  });
}

/// First byte of the card's first SPICE token, or -1 when it has none.
inline int firstTokenChar(const Card& card) {
  int first = -1;
  card.forEachPiece([&](std::string_view p) {
    for (std::size_t i = 0; first < 0 && i < p.size(); ++i)
      if (!isSpiceBlank(p[i])) first = static_cast<unsigned char>(p[i]);
  });
  return first;
}

}  // namespace rfic::circuit::lex
