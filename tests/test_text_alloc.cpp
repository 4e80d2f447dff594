// Heap allocations of the netlist text passes, counted by replacing the
// global operator new for this test program only: the preflight and the
// topology key allocate nothing per line, and the parser allocates nothing
// per card beyond the device and its name.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <string>

#include "circuit/netlist.hpp"
#include "engine/engine.hpp"

namespace {
thread_local bool gCounting = false;
thread_local std::size_t gAllocations = 0;
}  // namespace

// Out of line, so the compiler does not pair an inlined free() with the
// `new` expression at a call site and warn about a mismatch.
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (gCounting) ++gAllocations;
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace rfic {
namespace {

/// Allocations made by f() on this thread.
template <class F>
std::size_t allocationsOf(F&& f) {
  gAllocations = 0;
  gCounting = true;
  f();
  gCounting = false;
  return gAllocations;
}

/// `cards` resistor cards named with `nameLen` characters between two
/// nodes, with comments, a continuation, a blank line and analysis cards.
std::string netlist(std::size_t cards, std::size_t nameLen) {
  std::string text = "* allocation probe\r\nV1 a 0 SIN(0 1\n+ 1k)\n\n";
  for (std::size_t i = 0; i < cards; ++i) {
    std::string name = "R" + std::to_string(i);
    name.resize(nameLen, 'x');
    text += name + (i % 2 != 0 ? " a b 1k ; load\n" : "\ta\tb\t2.2k\r\n");
  }
  return text + ".print a\n.tran 1u 1m\n.op\n";
}

TEST(TextAllocations, PreflightAllocatesNothingPerLine) {
  const std::string text = netlist(2000, 6);
  engine::PreflightLimits lim;
  std::string verdict = "unset";
  EXPECT_EQ(allocationsOf([&] { verdict = engine::preflightCheck(text, lim); }),
            0u);
  EXPECT_EQ(verdict, "");
  lim.maxDevices = 100000;
  lim.maxNetlistBytes = 1u << 20;
  EXPECT_EQ(allocationsOf([&] { verdict = engine::preflightCheck(text, lim); }),
            0u);
  EXPECT_EQ(verdict, "");
  // An armed node cap builds the node set: a few allocations for its
  // three distinct names, still none per line.
  lim.maxNodes = 3;
  EXPECT_LE(allocationsOf([&] { verdict = engine::preflightCheck(text, lim); }),
            8u);
  EXPECT_EQ(verdict, "");
}

TEST(TextAllocations, TopologyKeyAllocatesOnlyTheKey) {
  const std::string text = netlist(2000, 6);
  std::string key;
  EXPECT_EQ(allocationsOf([&] { key = engine::topologyKey(text); }), 1u);
  EXPECT_EQ(key.find(".tran"), std::string::npos);
}

TEST(TextAllocations, ParserAllocatesTheDeviceAndItsNamePerCard) {
  constexpr std::size_t kCards = 2000;
  // Short names live inside the device's std::string: one allocation per
  // card. Long ones take a second. The slack covers the fixed cost (the
  // V source and its waveform, the node and device tables, the token
  // buffer) and does not grow with the card count.
  constexpr std::size_t kSlack = 32;
  for (const std::size_t nameLen : {6u, 40u}) {
    const std::string text = netlist(kCards, nameLen);
    circuit::Circuit c;
    const std::size_t n =
        allocationsOf([&] { circuit::parseNetlist(text, c); });
    EXPECT_EQ(c.devices().size(), kCards + 1);
    const std::size_t perCard = nameLen < 16 ? 1 : 2;
    EXPECT_LE(n, perCard * kCards + kSlack) << "name length " << nameLen;
    EXPECT_GE(n, perCard * kCards) << "name length " << nameLen;
  }
}

}  // namespace
}  // namespace rfic
