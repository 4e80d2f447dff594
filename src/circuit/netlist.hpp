// SPICE-style netlist parser.
//
// Supports the element cards needed by the paper's circuit classes:
//   R/C/L/K       passives and mutual coupling
//   V/I           independent sources with DC / SIN / PULSE / SQUARE /
//                 MULTITONE waveforms; optional AXIS=FAST tag assigns the
//                 source to the fast time axis for MPDE analyses
//   E/G           linear controlled sources (VCVS / VCCS)
//   D/Q/M         diode, BJT, MOSFET — parameters via .model cards
// plus `*` comments and standard engineering suffixes (f p n u m k meg g t).
#pragma once

#include <string>
#include <string_view>

#include "circuit/circuit.hpp"

namespace rfic::circuit {

/// Structured netlist diagnostic: every parse failure carries the 1-based
/// physical line the offending card starts on and the card's text, so a
/// long-lived server (rficd) can reject a bad job per-request with an
/// actionable message instead of a bare string. Derives from
/// InvalidArgument, so existing catch sites keep working; what() renders
/// "netlist line <N>: <detail> [card: <text>]".
class NetlistError : public InvalidArgument {
 public:
  NetlistError(int line, std::string card, std::string detail);

  int line() const { return line_; }
  const std::string& card() const { return card_; }
  const std::string& detail() const { return detail_; }

 private:
  int line_;
  std::string card_;
  std::string detail_;
};

/// Parse a netlist from text into a Circuit. Throws NetlistError (an
/// InvalidArgument) with the card's first physical line and its text on
/// malformed input. Never aborts: every malformed card — including nested
/// device-parameter validation failures (e.g. a non-positive resistance) —
/// surfaces as a structured NetlistError a caller can catch per-job. Adds
/// its time to the parseNs ledger row.
void parseNetlist(std::string_view text, Circuit& ckt);

/// Parse a numeric field with SPICE engineering suffixes ("2.2k", "1MEG",
/// "100n"): a decimal mantissa with an optional exponent, then letters only
/// (scale factor and/or units). Throws InvalidArgument on anything else —
/// nan, inf, hex — and on a value that is not finite after scaling. The
/// value is bitwise strtod's of the mantissa and exponent, times the scale.
Real parseSpiceNumber(std::string_view token);

}  // namespace rfic::circuit
