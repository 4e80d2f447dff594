#include "engine/json.hpp"

#include <cstdio>

namespace rfic::engine {

namespace {

void setErr(std::string* err, const char* what, std::size_t pos) {
  if (err == nullptr) return;
  char buf[128];
  std::snprintf(buf, sizeof buf, "%s at offset %zu", what, pos);
  *err = buf;
}

void skipWs(std::string_view s, std::size_t& i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                          s[i] == '\r'))
    ++i;
}

int hexVal(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

void appendUtf8(std::string& out, unsigned cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

bool parseString(std::string_view s, std::size_t& i, std::string& out,
                 std::string* err) {
  if (i >= s.size() || s[i] != '"') {
    setErr(err, "expected '\"'", i);
    return false;
  }
  ++i;
  out.clear();
  // Copy the runs between escapes in one append each. The first '"' ends
  // the string unless an escape comes before it, so it bounds the size.
  std::size_t quote = s.find('"', i);
  if (quote != std::string_view::npos) out.reserve(quote - i);
  for (;;) {
    const std::size_t end = quote == std::string_view::npos ? s.size() : quote;
    const std::size_t slash = s.substr(0, end).find('\\', i);
    const std::size_t stop = slash == std::string_view::npos ? end : slash;
    out.append(s.data() + i, stop - i);
    i = stop;
    if (slash == std::string_view::npos) break;
    if (i + 1 >= s.size()) {
      setErr(err, "truncated escape", i);
      return false;
    }
    const char e = s[i + 1];
    i += 2;
    switch (e) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (i + 4 > s.size()) {
          setErr(err, "truncated \\u escape", i);
          return false;
        }
        unsigned cp = 0;
        for (int k = 0; k < 4; ++k) {
          const int v = hexVal(s[i + static_cast<std::size_t>(k)]);
          if (v < 0) {
            setErr(err, "bad hex digit in \\u escape", i);
            return false;
          }
          cp = cp * 16 + static_cast<unsigned>(v);
        }
        i += 4;
        // Surrogate pairs are out of scope for this protocol (netlists
        // are ASCII); map any surrogate to U+FFFD instead of garbage.
        if (cp >= 0xD800 && cp <= 0xDFFF) cp = 0xFFFD;
        appendUtf8(out, cp);
        break;
      }
      default:
        setErr(err, "unknown escape", i - 1);
        return false;
    }
    // An escaped '"' was not the end: look for the next one.
    if (quote != std::string_view::npos && quote < i) quote = s.find('"', i);
  }
  if (i < s.size()) {
    ++i;  // the closing '"'
    return true;
  }
  setErr(err, "unterminated string", i);
  return false;
}

bool parseScalar(std::string_view s, std::size_t& i, std::string& out,
                 std::string* err) {
  skipWs(s, i);
  if (i >= s.size()) {
    setErr(err, "expected value", i);
    return false;
  }
  if (s[i] == '"') return parseString(s, i, out, err);
  if (s[i] == '{' || s[i] == '[') {
    setErr(err, "nested values not supported (flat protocol)", i);
    return false;
  }
  const std::size_t start = i;
  while (i < s.size() && s[i] != ',' && s[i] != '}' && s[i] != ' ' &&
         s[i] != '\t' && s[i] != '\n' && s[i] != '\r')
    ++i;
  out.assign(s.substr(start, i - start));
  if (out.empty()) {
    setErr(err, "expected value", start);
    return false;
  }
  if (out == "null") out.clear();
  return true;
}

}  // namespace

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", u);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string jsonString(const std::string& s) {
  return "\"" + jsonEscape(s) + "\"";
}

bool parseFlatJson(std::string_view text,
                   std::map<std::string, std::string>& out,
                   std::string* err) {
  out.clear();
  std::size_t i = 0;
  skipWs(text, i);
  if (i >= text.size() || text[i] != '{') {
    setErr(err, "expected '{'", i);
    return false;
  }
  ++i;
  skipWs(text, i);
  if (i < text.size() && text[i] == '}') {
    ++i;
    skipWs(text, i);
    return i >= text.size();
  }
  for (;;) {
    skipWs(text, i);
    std::string key;
    if (!parseString(text, i, key, err)) return false;
    skipWs(text, i);
    if (i >= text.size() || text[i] != ':') {
      setErr(err, "expected ':'", i);
      return false;
    }
    ++i;
    std::string value;
    if (!parseScalar(text, i, value, err)) return false;
    out[key] = std::move(value);
    skipWs(text, i);
    if (i >= text.size()) {
      setErr(err, "unterminated object", i);
      return false;
    }
    if (text[i] == ',') {
      ++i;
      continue;
    }
    if (text[i] == '}') {
      ++i;
      skipWs(text, i);
      if (i < text.size()) {
        setErr(err, "trailing characters", i);
        return false;
      }
      return true;
    }
    setErr(err, "expected ',' or '}'", i);
    return false;
  }
}

}  // namespace rfic::engine
