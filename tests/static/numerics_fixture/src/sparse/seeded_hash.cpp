// Seeded violation for the numerics-lint sparse-hash selftest: a hash map
// in the sparse layer instead of flat index arrays.
#include <cstddef>
#include <map>

namespace fixture {

std::size_t countEntriesBad(std::size_t n) {
  std::unordered_map<std::size_t, double> row;
  for (std::size_t c = 0; c < n; ++c) row[c] = 1.0;
  return row.size();
}

std::size_t countEntriesOrdered(std::size_t n) {
  // An ordered map is not a hash container; the rule leaves it alone.
  std::map<std::size_t, double> row;
  for (std::size_t c = 0; c < n; ++c) row[c] = 1.0;
  return row.size();
}

std::size_t countDistinctJustified(std::size_t n) {
  std::unordered_set<std::size_t> seen;  // lint: allow-sparse-hash fixture
  for (std::size_t c = 0; c < n; ++c) seen.insert(c % 3);
  return seen.size();
}

}  // namespace fixture
