// Input generation for the repository benchmark. Every input is a pure
// function of the workload seed: the graphs written as edge-list files,
// the serve-mixed operation stream and its update batches. The generators
// here are the benchmark's own (not the library's graph/generators), so a
// change to the library never changes what it is measured on.
#ifndef KBENCH_INPUTS_H_
#define KBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace kbench {

/// xoshiro256** seeded through splitmix64; identical streams on every
/// platform (no std:: distributions involved).
class Rng {
 public:
  explicit Rng(uint64_t seed);
  uint64_t Next();
  /// Uniform in [0, n), n >= 1.
  uint64_t Below(uint64_t n);
  /// Uniform in [0, 1).
  double Unit();

 private:
  uint64_t s_[4];
};

/// 64-bit finalizer (splitmix64's), used for seeds and solution hashes.
uint64_t Mix64(uint64_t x);

struct Edge {
  uint32_t l = 0;
  uint32_t r = 0;
  friend bool operator<(const Edge& a, const Edge& b) {
    return a.l != b.l ? a.l < b.l : a.r < b.r;
  }
  friend bool operator==(const Edge& a, const Edge& b) {
    return a.l == b.l && a.r == b.r;
  }
};

/// A bipartite edge list with fixed side sizes; edges sorted and distinct
/// after Normalize().
struct EdgeList {
  size_t num_left = 0;
  size_t num_right = 0;
  std::vector<Edge> edges;

  void Normalize();
  bool Contains(Edge e) const;  // requires Normalize()
};

/// Writes "L R M" then one "l r" line per edge. Returns false on I/O error.
bool WriteEdgeList(const EdgeList& g, const std::string& path);
/// The benchmark's own reader for files written by WriteEdgeList.
bool ReadEdgeList(const std::string& path, EdgeList* g);

/// `communities`: Chung-Lu power-law base (98k x 32k, exponent 3.5,
/// 370k edges) plus 8 blocks of 12..18 vertices per side at p = 0.9 on
/// vertices appended to both sides, each block vertex tied to two random
/// base vertices. The base is flat enough that its own (theta-k)-core is
/// empty: the large-MBP work is in the blocks, which are the same on
/// every seed.
EdgeList CommunitiesGraph(uint64_t seed);
/// A random (side/2)-regular bipartite graph, side x side. `dense-full`
/// enumerates several of them; the serve-mixed `dense` graph is one with
/// side 22.
EdgeList DenseGraph(uint64_t seed, uint32_t side);
/// serve-mixed `comm`: power-law base (~17.5k edges) plus 16 planted
/// blocks of 8..12 per side at p = 0.9.
EdgeList CommGraph(uint64_t seed);

/// One serve-mixed operation class.
enum class OpKind { kStream, kShortCircuit, kThetaCount, kUpdate, kChurn };
const char* OpKindName(OpKind kind);

struct Op {
  OpKind kind = OpKind::kStream;
  int variant = 0;  // request variant within the class
};

/// Deterministic operation stream of one serve-mixed client. Only client 0
/// issues updates, so the update order — and the final graph — is a
/// function of the seed and the number of updates applied.
class OpStream {
 public:
  OpStream(uint64_t seed, int client);
  Op Next();

 private:
  Rng rng_;
  int client_;
};

/// Number of request variants per class (see serve_mix.cc for the
/// request each variant maps to).
inline constexpr int kStreamVariants = 2;
inline constexpr int kShortVariants = 3;
inline constexpr int kThetaVariants = 2;

struct UpdateBatch {
  std::vector<Edge> insert;
  std::vector<Edge> remove;
};

/// Update batch `index` (0-based) against `base`: inserts
/// kUpdateInserts fresh non-edges of `base` and deletes the edges batch
/// index-1 inserted, so the graph never drifts more than one batch from
/// `base`.
inline constexpr size_t kUpdateInserts = 10;
UpdateBatch MakeUpdateBatch(const EdgeList& base, uint64_t seed,
                            uint64_t index);
/// `base` after batches 0..applied-1.
EdgeList GraphAfterUpdates(const EdgeList& base, uint64_t seed,
                           uint64_t applied);

}  // namespace kbench

#endif  // KBENCH_INPUTS_H_
