// Output checks of the benchmark, independent of the library: its own
// adjacency structure and maximality test over the generated edge list,
// plus an order-independent solution hash so the timed run only keeps
// 8 bytes per solution while the check compares whole solution sets.
#ifndef KBENCH_ORACLE_H_
#define KBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"

namespace kbench {

/// Hash of one solution, independent of the order of ids within a side.
/// Left and right ids are salted apart.
uint64_t SolutionHash(const uint32_t* left, size_t num_left,
                      const uint32_t* right, size_t num_right);

/// The multiset of solution hashes of one run, sorted.
struct SolutionSet {
  std::vector<uint64_t> hashes;

  void Finish();                   // sorts
  uint64_t Duplicates() const;     // requires Finish()
  uint64_t SetHash() const;        // order-independent digest
  bool operator==(const SolutionSet& o) const { return hashes == o.hashes; }
};

bool WriteHashes(const SolutionSet& set, const std::string& path);
bool ReadHashes(const std::string& path, SolutionSet* set);

/// Decides whether (L', R') is a maximal k-biplex of `g` meeting the size
/// thresholds. Not thread-safe (reuses scratch arrays).
class Oracle {
 public:
  explicit Oracle(const EdgeList& g);

  /// Empty when the solution passes; otherwise the first failed property.
  std::string Check(std::vector<uint32_t> left, std::vector<uint32_t> right,
                    int k, size_t theta_left, size_t theta_right);

 private:
  bool Adjacent(uint32_t l, uint32_t r) const;
  /// True iff some vertex of side `side` (0 = left) outside `same` can
  /// join; `disc_other[i]` is the disconnection count of other[i].
  bool AnyAddable(int side, const std::vector<uint32_t>& same,
                  const std::vector<uint32_t>& other,
                  const std::vector<uint32_t>& disc_other, int k);

  size_t n_[2];
  std::vector<size_t> off_[2];
  std::vector<uint32_t> adj_[2];
  std::vector<uint32_t> count_[2];
  std::vector<uint8_t> member_[2];
};

}  // namespace kbench

#endif  // KBENCH_ORACLE_H_
