#include "fx.hpp"

namespace fx {

int usedByA(int x) { return x + 1; }

int usedByB(int x) { return x * 2; }

int seededDead(int x) { return x - 3; }

int helperOfAllowlisted(int x) { return x * x; }

int allowlisted(int x) { return helperOfAllowlisted(x) + 1; }

}  // namespace fx
