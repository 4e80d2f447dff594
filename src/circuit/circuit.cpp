#include "circuit/circuit.hpp"

namespace rfic::circuit {

int Circuit::node(std::string_view name) {
  if (name == "0" || name == "gnd" || name == "GND") return -1;
  if (const auto it = nodeIndex_.find(name); it != nodeIndex_.end())
    return it->second;
  const int idx = static_cast<int>(unknownNames_.size());
  nodeIndex_.emplace(std::string(name), idx);
  unknownNames_.push_back("V(" + std::string(name) + ")");
  return idx;
}

int Circuit::allocBranch(const std::string& label) {
  const int idx = static_cast<int>(unknownNames_.size());
  unknownNames_.push_back("I(" + label + ")");
  return idx;
}

int Circuit::findNode(const std::string& name) const {
  const int idx = lookupNode(name);
  RFIC_REQUIRE(idx != kNoSuchNode, "Circuit::findNode: unknown node " + name);
  return idx;
}

int Circuit::lookupNode(std::string_view name) const {
  if (name == "0" || name == "gnd" || name == "GND") return kGround;
  const auto it = nodeIndex_.find(name);
  return it != nodeIndex_.end() ? it->second : kNoSuchNode;
}

}  // namespace rfic::circuit
