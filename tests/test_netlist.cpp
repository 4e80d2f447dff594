// SPICE-netlist parser: numbers, element cards, models, error handling,
// and end-to-end parse → DC.
#include <gtest/gtest.h>

#include "analysis/dc.hpp"
#include "circuit/mna_workspace.hpp"
#include "circuit/netlist.hpp"

namespace rfic::circuit {
namespace {

TEST(SpiceNumber, PlainAndScientific) {
  EXPECT_DOUBLE_EQ(parseSpiceNumber("42"), 42.0);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("-3.5e2"), -350.0);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("1.5E-3"), 1.5e-3);
}

TEST(SpiceNumber, EngineeringSuffixes) {
  EXPECT_DOUBLE_EQ(parseSpiceNumber("2.2k"), 2200.0);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("1MEG"), 1e6);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("1meg"), 1e6);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("100n"), 1e-7);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("3p"), 3e-12);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("5f"), 5e-15);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("2u"), 2e-6);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("7m"), 7e-3);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("1g"), 1e9);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("2t"), 2e12);
}

TEST(SpiceNumber, TrailingUnitsIgnored) {
  EXPECT_DOUBLE_EQ(parseSpiceNumber("50ohm"), 50.0);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("2.2kohm"), 2200.0);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("5v"), 5.0);
}

TEST(SpiceNumber, MalformedThrows) {
  EXPECT_THROW(parseSpiceNumber(""), InvalidArgument);
  EXPECT_THROW(parseSpiceNumber("abc"), InvalidArgument);
  // Not decimal syntax, or not finite once scaled.
  for (const char* tok :
       {"nan", "inf", "-inf", "infinity", "1e400", "1e308k", "0x10", "0xff"})
    EXPECT_THROW(parseSpiceNumber(tok), InvalidArgument) << tok;
}

TEST(Netlist, ParsesPassivesAndSources) {
  Circuit c;
  parseNetlist(R"(* test circuit
V1 in 0 DC 10
R1 in mid 1k
R2 mid 0 1k
C1 mid 0 1u
L1 mid out 10n
)",
               c);
  // in, mid, out nodes + V1 branch + L1 branch.
  EXPECT_EQ(c.numUnknowns(), 5u);
  EXPECT_EQ(c.devices().size(), 5u);
}

TEST(Netlist, ParsedDividerSolvesCorrectly) {
  Circuit c;
  parseNetlist("V1 in 0 DC 9\nR1 in mid 2k\nR2 mid 0 1k\n", c);
  analysis::MnaSystem sys(c);
  const auto dc = analysis::dcOperatingPoint(sys);
  EXPECT_TRUE(dc.converged);
  EXPECT_NEAR(dc.x[static_cast<std::size_t>(c.findNode("mid"))], 3.0, 1e-9);
}

TEST(Netlist, DiodeWithModel) {
  Circuit c;
  parseNetlist(R"(
.model dfast d (is=1e-15 n=1.2 cjo=2p tt=5n)
V1 a 0 DC 5
R1 a b 1k
D1 b 0 dfast
)",
               c);
  analysis::MnaSystem sys(c);
  const auto dc = analysis::dcOperatingPoint(sys);
  EXPECT_TRUE(dc.converged);
  const Real vd = dc.x[static_cast<std::size_t>(c.findNode("b"))];
  EXPECT_GT(vd, 0.5);
  EXPECT_LT(vd, 1.0);
}

TEST(Netlist, BJTInverterBias) {
  Circuit c;
  parseNetlist(R"(
.model qn npn (is=1e-16 bf=100 vaf=60)
VCC vcc 0 DC 5
VIN in 0 DC 0.65
RC vcc c 4.7k
Q1 c in 0 qn
)",
               c);
  analysis::MnaSystem sys(c);
  const auto dc = analysis::dcOperatingPoint(sys);
  EXPECT_TRUE(dc.converged);
  const Real vc = dc.x[static_cast<std::size_t>(c.findNode("c"))];
  EXPECT_LT(vc, 5.0);  // transistor pulls the collector down
  EXPECT_GT(vc, 0.0);
}

TEST(Netlist, ContinuationLinesAndComments) {
  Circuit c;
  parseNetlist("* comment\nR1 a 0 ; trailing comment\n+ 1k\nV1 a 0 DC 1\n", c);
  analysis::MnaSystem sys(c);
  const auto dc = analysis::dcOperatingPoint(sys);
  EXPECT_TRUE(dc.converged);
}

TEST(Netlist, SinSourceAndFastAxisTag) {
  Circuit c;
  parseNetlist("V1 a 0 SIN(0 1 1meg) AXIS=FAST\nR1 a 0 50\n", c);
  analysis::MnaSystem sys(c);
  circuit::MnaWorkspace ws(sys);
  numeric::RVec x(2, 0.0);
  // Fast axis at a quarter of the 1 MHz period.
  ws.evalBivariate(x, 0.0, 0.25e-6, false);
  EXPECT_NEAR(ws.b()[1], 1.0, 1e-9);
  // Slow axis alone leaves the source at zero phase.
  ws.evalBivariate(x, 0.25e-6, 0.0, false);
  EXPECT_NEAR(ws.b()[1], 0.0, 1e-9);
}

TEST(Netlist, MutualInductanceCard) {
  Circuit c;
  parseNetlist(R"(
L1 a 0 10n
L2 b 0 10n
K1 L1 L2 0.8
R1 a 0 50
R2 b 0 50
)",
               c);
  EXPECT_EQ(c.devices().size(), 5u);
}

TEST(Netlist, CurrentControlledSourceCards) {
  Circuit c;
  parseNetlist(R"(
V1 in 0 DC 2
Rin in 0 100
F1 o1 0 V1 2.0
Ro1 o1 0 50
H1 o2 0 V1 500
Ro2 o2 0 1k
)",
               c);
  analysis::MnaSystem sys(c);
  const auto dc = analysis::dcOperatingPoint(sys);
  ASSERT_TRUE(dc.converged);
  // iV1 = -2/100 = -20 mA. CCCS: 2·iV1 = -40 mA extracted from o1 → v(o1)
  // = -(-0.04)·50 ... sign: F pushes gain·i out of o1: f[o1] += 2·iV1.
  const Real vo1 = dc.x[static_cast<std::size_t>(c.findNode("o1"))];
  EXPECT_NEAR(vo1, 2.0, 1e-9);  // -(2·(-0.02))·50 = +2 V
  const Real vo2 = dc.x[static_cast<std::size_t>(c.findNode("o2"))];
  EXPECT_NEAR(vo2, 500.0 * -0.02, 1e-9);  // r·iV1 = -10 V
}

TEST(Netlist, CCCSUnknownSourceThrows) {
  Circuit c;
  EXPECT_THROW(parseNetlist("F1 a 0 VX 2.0\nRa a 0 1k\n", c),
               InvalidArgument);
}

TEST(Netlist, ErrorsCarryLineNumbers) {
  Circuit c;
  try {
    parseNetlist("R1 a 0 1k\nXBOGUS a b c\n", c);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Netlist, NonFiniteNumbersAreLocatedErrors) {
  for (const std::string card :
       {"R1 in out inf", "V1 in 0 nan", "V1 in 0 SIN(0 nan 1k)",
        ".model dm d n=inf"}) {
    Circuit c;
    try {
      parseNetlist("R0 in 0 1k\n" + card + "\n", c);
      ADD_FAILURE() << "expected NetlistError for " << card;
    } catch (const NetlistError& e) {
      EXPECT_EQ(e.line(), 2) << card;
      EXPECT_EQ(e.card(), card);
    }
  }
}

TEST(Netlist, UnknownModelThrows) {
  Circuit c;
  EXPECT_THROW(parseNetlist("D1 a 0 nosuchmodel\n", c), InvalidArgument);
}

TEST(Netlist, MissingNodesThrow) {
  Circuit c;
  EXPECT_THROW(parseNetlist("R1 a\n", c), InvalidArgument);
}

}  // namespace
}  // namespace rfic::circuit
