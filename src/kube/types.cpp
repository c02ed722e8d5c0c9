#include "kube/types.hpp"

#include <sstream>

#include "util/units.hpp"

namespace chase::kube {

bool selector_matches(const Labels& selector, const Labels& labels) {
  for (const auto& [k, v] : selector) {
    auto it = labels.find(k);
    if (it == labels.end() || it->second != v) return false;
  }
  return true;
}

ResourceList& ResourceList::operator-=(const ResourceList& o) {
  cpu -= o.cpu;
  memory = memory >= o.memory ? memory - o.memory : 0;
  gpus -= o.gpus;
  return *this;
}

std::string ResourceList::to_string() const {
  std::ostringstream os;
  os << "cpu=" << cpu << " mem=" << util::format_bytes(static_cast<double>(memory))
     << " gpus=" << gpus;
  return os.str();
}

ResourceList Pod::requests() const {
  ResourceList total;
  for (const auto& c : spec.containers) total += c.requests;
  return total;
}

}  // namespace chase::kube
