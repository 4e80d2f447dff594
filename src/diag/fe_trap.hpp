// Floating-point exception trapping for debug runs.
//
// In normal IEEE-754 operation an invalid operation (0/0, sqrt(-1), Inf−Inf)
// quietly produces a NaN that can propagate through an entire HB or
// phase-noise solve before anyone notices. With trapping enabled, the FPU
// raises SIGFPE at the instruction that *created* the first NaN/Inf, turning
// a corrupted-spectrum bug into a stack trace at its origin.
//
// glibc-only (feenableexcept is a GNU extension); a no-op elsewhere so the
// code stays portable. Not async-signal-safe to mix with code that expects
// quiet NaNs — scope it tightly around the solver under investigation.
#pragma once

namespace rfic::diag {

/// RAII guard: enables FE_INVALID | FE_DIVBYZERO | FE_OVERFLOW traps on
/// construction, restores the previous trap mask on destruction.
class ScopedFeTrap {
 public:
  ScopedFeTrap();
  ~ScopedFeTrap();
  ScopedFeTrap(const ScopedFeTrap&) = delete;
  ScopedFeTrap& operator=(const ScopedFeTrap&) = delete;

 private:
  int previousMask_ = 0;
};

}  // namespace rfic::diag
