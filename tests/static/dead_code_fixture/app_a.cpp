#include "fx.hpp"

int main(int argc, char**) { return fx::usedByA(argc) == 0 ? 1 : 0; }
