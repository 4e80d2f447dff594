#include "fx.hpp"

// A test reaching a function does not keep it alive.
int main() { return fx::seededDead(3) == 0 ? 0 : 1; }
