// Seeded violation for the numerics-lint text-stream selftest: a stream
// line loop in the engine instead of the shared netlist lexer.
#include <sstream>
#include <string>

namespace fixture {

std::size_t countLinesBad(const std::string& text) {
  std::istringstream in(text);
  std::size_t n = 0;
  for (std::string line; std::getline(in, line);)  // lint: allow-text-stream fixture
    ++n;
  return n;
}

std::size_t countLinesLexer(const std::string& text) {
  // A plain scan is what the rule leaves alone.
  std::size_t n = 0;
  for (const char c : text) n += c == '\n';
  return n;
}

}  // namespace fixture
