#include "numeric/dense.hpp"

namespace rfic::numeric {

CMat toComplex(const RMat& a) {
  CMat c(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) c(i, j) = a(i, j);
  return c;
}

}  // namespace rfic::numeric
