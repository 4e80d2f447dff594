// Minimal JSON support for the rficd newline-delimited protocol.
//
// The daemon's wire format is deliberately flat: every request and every
// event is one JSON object per line whose values are strings, numbers,
// booleans, or null — no nesting. That keeps the parser small enough to
// live here (the container images carry no JSON library, and the protocol
// carries netlists, not documents) while still being real JSON: any
// client-side json.dumps()/JSON.stringify of a flat object parses.
#pragma once

#include <map>
#include <string>
#include <string_view>

namespace rfic::engine {

/// Escape `s` for inclusion inside a JSON string literal (quotes not
/// included): ", \, control characters and non-ASCII-safe bytes < 0x20
/// become \-escapes.
std::string jsonEscape(const std::string& s);

/// Render a quoted JSON string: "\"" + jsonEscape(s) + "\"".
std::string jsonString(const std::string& s);

/// Parse one flat JSON object: {"key": value, ...} where value is a
/// string, number, true/false, or null. String values are unescaped
/// (including \uXXXX, encoded as UTF-8); numbers/booleans are stored as
/// their raw text; null stores an empty string. Returns false (and sets
/// *err when non-null) on malformed input or nested arrays/objects.
bool parseFlatJson(std::string_view text,
                   std::map<std::string, std::string>& out,
                   std::string* err = nullptr);

}  // namespace rfic::engine
