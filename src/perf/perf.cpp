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
  char buf[2048];
  const auto ms = [](std::uint64_t ns) {
    return static_cast<double>(ns) * 1e-6;
  };
  std::snprintf(buf, sizeof(buf),
                "evals            %10llu  (%10.3f ms)\n"
                "  batched        %10llu  (%10.3f ms)\n"
                "ordering                     (%10.3f ms)\n"
                "factorizations   %10llu  (%10.3f ms)\n"
                "  fill nnz       %10llu\n"
                "refactorizations %10llu  (%10.3f ms)\n"
                "solves           %10llu  (%10.3f ms)\n"
                "ffts             %10llu  (%10.3f ms)\n"
                "plan cache       %10llu hits / %llu misses\n"
                "matvecs          %10llu  (%10.3f ms)\n"
                "extract builds   %10llu  (%10.3f ms, %10.3f ms compress)\n"
                "engine ctx cache %10llu hits / %llu misses\n"
                "mem peak bytes   %10llu\n"
                "retries          %10llu\n"
                "fallbacks        %10llu\n",
                static_cast<unsigned long long>(s.evals), ms(s.evalNs),
                static_cast<unsigned long long>(s.evalBatched),
                ms(s.evalBatchNs), ms(s.orderingNs),
                static_cast<unsigned long long>(s.factorizations),
                ms(s.factorNs),
                static_cast<unsigned long long>(s.factorFillNnz),
                static_cast<unsigned long long>(s.refactorizations),
                ms(s.refactorNs),
                static_cast<unsigned long long>(s.solves), ms(s.solveNs),
                static_cast<unsigned long long>(s.fftCount), ms(s.fftNs),
                static_cast<unsigned long long>(s.planCacheHits),
                static_cast<unsigned long long>(s.planCacheMisses),
                static_cast<unsigned long long>(s.matvecs), ms(s.matvecNs),
                static_cast<unsigned long long>(s.extractBuilds),
                ms(s.extractBuildNs), ms(s.extractCompressNs),
                static_cast<unsigned long long>(s.ctxHits),
                static_cast<unsigned long long>(s.ctxMisses),
                static_cast<unsigned long long>(s.memPeakBytes),
                static_cast<unsigned long long>(s.retries),
                static_cast<unsigned long long>(s.fallbacks));
  return buf;
}

}  // namespace rfic::perf
