#include "circuit/circuit.hpp"

namespace rfic::circuit {

int Circuit::node(const std::string& name) {
  if (name == "0" || name == "gnd" || name == "GND") return -1;
  const auto [it, inserted] =
      nodeIndex_.try_emplace(name, static_cast<int>(unknownNames_.size()));
  if (inserted) unknownNames_.push_back("V(" + name + ")");
  return it->second;
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

int Circuit::lookupNode(const std::string& name) const {
  if (name == "0" || name == "gnd" || name == "GND") return kGround;
  const auto it = nodeIndex_.find(name);
  return it != nodeIndex_.end() ? it->second : kNoSuchNode;
}

}  // namespace rfic::circuit
