#include "fx.hpp"

int main(int argc, char**) { return fx::usedByB(argc) == 0 ? 1 : 0; }
