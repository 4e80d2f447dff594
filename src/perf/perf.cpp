#include "perf/perf.hpp"

#include <cstdio>

namespace rfic::perf {

namespace {
// Innermost CounterScope on this thread; null = bumps go to process().
thread_local Counters* tlScope = nullptr;
}  // namespace

Counters& process() {
  static Counters instance;
  return instance;
}

Counters& global() {
  Counters* s = tlScope;
  return s != nullptr ? *s : process();
}

CounterScope::CounterScope(Counters& c) : mine_(c), prev_(tlScope) {
  tlScope = &c;
}

CounterScope::~CounterScope() {
  tlScope = prev_;
  // Fold the scope's totals into the enclosing attribution target so the
  // process-wide numbers are unchanged by scoping.
  (prev_ != nullptr ? *prev_ : process()).addSnapshot(mine_.snapshot());
}

Counters* CounterScope::current() { return tlScope; }

Counters* CounterScope::exchange(Counters* c) {
  Counters* prev = tlScope;
  tlScope = c;
  return prev;
}

std::string format(const Snapshot& s) {
  std::string out =
      "pipeline counters (time rows add the elapsed time of every thread "
      "that bumped them, so parallel pool lanes add up)\n";
  char line[96];
  for (const Row& r : kRows) {
    // Subset rows sit indented under their parent.
    const bool child = r.parent[0] != '\0';
    const int width = child ? 20 : 22;
    const char* indent = child ? "  " : "";
    const std::uint64_t v = s.*r.field;
    if (r.unit == Unit::Ns)
      std::snprintf(line, sizeof line, "%s%-*s %14.3f ms\n", indent, width,
                    r.label, static_cast<double>(v) * 1e-6);
    else
      std::snprintf(line, sizeof line, "%s%-*s %14llu%s\n", indent, width,
                    r.label, static_cast<unsigned long long>(v),
                    r.unit == Unit::Bytes ? " B" : "");
    out += line;
  }
  return out;
}

}  // namespace rfic::perf
