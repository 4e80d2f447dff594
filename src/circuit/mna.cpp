#include "circuit/mna.hpp"

namespace rfic::circuit {

std::vector<NoiseSource> MnaSystem::noiseSources(const RVec& x) const {
  std::vector<NoiseSource> out;
  for (const auto& dev : ckt_.devices()) dev->noiseSources(x, out);
  return out;
}

}  // namespace rfic::circuit
