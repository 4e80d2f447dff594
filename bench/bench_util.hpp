// Shared helpers for the reproduction benches: wall-clock timing and
// uniform table output. Every bench prints the rows/series of the paper
// artifact it regenerates (see DESIGN.md experiment index); EXPERIMENTS.md
// records the measured numbers against the paper's.
#pragma once

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "perf/perf.hpp"

namespace rfic::bench {

class Stopwatch {
 public:
  Stopwatch() : t0_(std::chrono::steady_clock::now()) {}
  Real seconds() const {
    return std::chrono::duration<Real>(std::chrono::steady_clock::now() - t0_)
        .count();
  }
  void reset() { t0_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point t0_;
};

inline void header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void rule() {
  std::printf("-----------------------------------------------------------\n");
}

/// Set RFIC_BENCH_QUICK=1 to trim the most expensive sweep points during
/// development; the recorded EXPERIMENTS.md numbers use the full runs.
inline bool quickMode() {
  const char* v = std::getenv("RFIC_BENCH_QUICK");
  return v != nullptr && v[0] == '1';
}

/// Collects headline metrics and writes them to BENCH_<name>.json in the
/// working directory when destroyed (or on an explicit write()) — the
/// machine-readable artifact next to each bench's human-readable tables;
/// the CI perf-smoke job uploads these files.
class JsonReporter {
 public:
  explicit JsonReporter(std::string name) : name_(std::move(name)) {}
  JsonReporter(const JsonReporter&) = delete;
  JsonReporter& operator=(const JsonReporter&) = delete;
  ~JsonReporter() { write(); }

  /// Floating-point metric (non-finite values become JSON null).
  void metric(const std::string& key, Real value) {
    char buf[64];
    if (std::isfinite(value))
      std::snprintf(buf, sizeof buf, "%.17g", static_cast<double>(value));
    else
      std::snprintf(buf, sizeof buf, "null");
    add(key, buf);
  }
  void count(const std::string& key, std::size_t value) {
    add(key, std::to_string(value));
  }
  void flag(const std::string& key, bool value) {
    add(key, value ? "true" : "false");
  }
  void text(const std::string& key, const std::string& value) {
    add(key, "\"" + escaped(value) + "\"");
  }
  /// Expands a perf snapshot into one <prefix>.<row> key per perf table row,
  /// the row name in snake_case (fftCount → <prefix>.fft_count).
  void counters(const std::string& prefix, const perf::Snapshot& s) {
    for (const perf::Row& row : perf::kRows) {
      std::string key = prefix + ".";
      for (const char* c = row.name; *c != '\0'; ++c) {
        const auto u = static_cast<unsigned char>(*c);
        if (std::isupper(u) != 0) key += '_';
        key += static_cast<char>(std::tolower(u));
      }
      count(key, static_cast<std::size_t>(s.*row.field));
    }
  }

  void write() {
    if (written_) return;
    written_ = true;
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "JsonReporter: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"quick\": %s",
                 escaped(name_).c_str(), quickMode() ? "true" : "false");
    for (const auto& [key, literal] : entries_)
      std::fprintf(f, ",\n  \"%s\": %s", escaped(key).c_str(),
                   literal.c_str());
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("[json] wrote %s\n", path.c_str());
  }

 private:
  static std::string escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out.push_back(c);
    }
    return out;
  }
  // Last write wins: benches that loop over sweep points can record each
  // iteration and the final (usually finest/largest) one lands in the file.
  void add(const std::string& key, std::string literal) {
    for (auto& [k, v] : entries_)
      if (k == key) {
        v = std::move(literal);
        return;
      }
    entries_.emplace_back(key, std::move(literal));
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> entries_;
  bool written_ = false;
};

}  // namespace rfic::bench
