#include "diag/fe_trap.hpp"

#include <cfenv>

namespace rfic::diag {

#if defined(__GLIBC__)

ScopedFeTrap::ScopedFeTrap() {
  previousMask_ = fegetexcept();
  feenableexcept(FE_INVALID | FE_DIVBYZERO | FE_OVERFLOW);
}

ScopedFeTrap::~ScopedFeTrap() {
  fedisableexcept(FE_ALL_EXCEPT);
  if (previousMask_ >= 0) feenableexcept(previousMask_);
}

#else

ScopedFeTrap::ScopedFeTrap() = default;
ScopedFeTrap::~ScopedFeTrap() = default;

#endif

}  // namespace rfic::diag
