#include "circuit/mna.hpp"

namespace rfic::circuit {

std::vector<NoiseSource> MnaSystem::noiseSources(const RVec& x) const {
  std::vector<NoiseSource> out;
  noiseSources(x, out);
  return out;
}

void MnaSystem::noiseSources(const RVec& x,
                             std::vector<NoiseSource>& out) const {
  out.clear();
  for (const auto& dev : ckt_.devices()) dev->noiseSources(x, out);
}

}  // namespace rfic::circuit
