#include "core/solution_store.h"

#include <string>

namespace kbiplex {

SolutionStore::SolutionStore(size_t btree_order) : tree_(btree_order) {}

bool SolutionStore::Insert(const Biplex& b) {
  return tree_.Insert(EncodeBiplexKey(b));
}

bool SolutionStore::Contains(const Biplex& b) const {
  return tree_.Contains(EncodeBiplexKey(b));
}

size_t SolutionStore::Size() const { return tree_.Size(); }

void SolutionStore::ForEach(
    const std::function<void(const Biplex&)>& fn) const {
  tree_.ForEach([&](std::string_view key) { fn(DecodeBiplexKey(key)); });
}

std::vector<Biplex> SolutionStore::ToVector() const {
  std::vector<Biplex> out;
  out.reserve(Size());
  ForEach([&](const Biplex& b) { out.push_back(b); });
  return out;
}

}  // namespace kbiplex
