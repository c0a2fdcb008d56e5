#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>

namespace kbench {

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

Rng::Rng(uint64_t seed) {
  uint64_t x = seed;
  for (uint64_t& s : s_) {
    x = Mix64(x);
    s = x;
  }
}

uint64_t Rng::Next() {
  const auto rotl = [](uint64_t v, int k) { return (v << k) | (v >> (64 - k)); };
  const uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

uint64_t Rng::Below(uint64_t n) {
  return static_cast<uint64_t>((static_cast<unsigned __int128>(Next()) * n) >>
                               64);
}

double Rng::Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

void EdgeList::Normalize() {
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
}

bool EdgeList::Contains(Edge e) const {
  return std::binary_search(edges.begin(), edges.end(), e);
}

bool WriteEdgeList(const EdgeList& g, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%zu %zu %zu\n", g.num_left, g.num_right, g.edges.size());
  for (const Edge& e : g.edges) std::fprintf(f, "%u %u\n", e.l, e.r);
  return std::fclose(f) == 0;
}

bool ReadEdgeList(const std::string& path, EdgeList* g) {
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  size_t m = 0;
  bool ok = std::fscanf(f, "%zu %zu %zu", &g->num_left, &g->num_right, &m) == 3;
  g->edges.clear();
  g->edges.reserve(m);
  for (size_t i = 0; ok && i < m; ++i) {
    Edge e;
    ok = std::fscanf(f, "%u %u", &e.l, &e.r) == 2 && e.l < g->num_left &&
         e.r < g->num_right;
    g->edges.push_back(e);
  }
  std::fclose(f);
  if (ok) g->Normalize();
  return ok && g->edges.size() == m;
}

namespace {

/// Cumulative Chung-Lu weights w_i = (i + 1)^(-1 / (gamma - 1)).
std::vector<double> PowerLawCdf(size_t n, double gamma) {
  std::vector<double> cdf(n);
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += std::pow(static_cast<double>(i + 1), -1.0 / (gamma - 1.0));
    cdf[i] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

uint32_t SampleCdf(const std::vector<double>& cdf, Rng* rng) {
  const double u = rng->Unit();
  const size_t i = static_cast<size_t>(
      std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  return static_cast<uint32_t>(std::min(i, cdf.size() - 1));
}

uint64_t Key(Edge e) { return (uint64_t{e.l} << 32) | e.r; }

/// Power-law base graph with exactly `m` distinct edges. Vertex ids are
/// shuffled so hubs are spread over the id range.
EdgeList PowerLaw(size_t nl, size_t nr, size_t m, double gamma, Rng* rng) {
  const std::vector<double> lcdf = PowerLawCdf(nl, gamma);
  const std::vector<double> rcdf = PowerLawCdf(nr, gamma);
  std::vector<uint32_t> lperm(nl), rperm(nr);
  for (size_t i = 0; i < nl; ++i) lperm[i] = static_cast<uint32_t>(i);
  for (size_t i = 0; i < nr; ++i) rperm[i] = static_cast<uint32_t>(i);
  for (size_t i = nl; i > 1; --i) std::swap(lperm[i - 1], lperm[rng->Below(i)]);
  for (size_t i = nr; i > 1; --i) std::swap(rperm[i - 1], rperm[rng->Below(i)]);

  EdgeList g;
  g.num_left = nl;
  g.num_right = nr;
  std::unordered_set<uint64_t> seen;
  seen.reserve(m * 2);
  g.edges.reserve(m);
  while (g.edges.size() < m) {
    const Edge e{lperm[SampleCdf(lcdf, rng)], rperm[SampleCdf(rcdf, rng)]};
    if (seen.insert(Key(e)).second) g.edges.push_back(e);
  }
  return g;
}

/// Plants `count` blocks among distinct random base vertices, each block
/// pair an edge with probability p. Side sizes cycle through
/// [min_side, max_side] (not drawn), so every seed plants the same mix of
/// block sizes and the enumeration work stays close across seeds.
void PlantBlocks(EdgeList* g, size_t count, size_t min_side, size_t max_side,
                 double p, Rng* rng) {
  std::unordered_set<uint32_t> used_l, used_r;
  const size_t span = max_side - min_side + 1;
  for (size_t b = 0; b < count; ++b) {
    const size_t sl = min_side + b % span;
    const size_t sr = min_side + (b / span + b) % span;
    std::vector<uint32_t> ls, rs;
    while (ls.size() < sl) {
      const uint32_t v = static_cast<uint32_t>(rng->Below(g->num_left));
      if (used_l.insert(v).second) ls.push_back(v);
    }
    while (rs.size() < sr) {
      const uint32_t v = static_cast<uint32_t>(rng->Below(g->num_right));
      if (used_r.insert(v).second) rs.push_back(v);
    }
    for (uint32_t l : ls)
      for (uint32_t r : rs)
        if (rng->Unit() < p) g->edges.push_back({l, r});
  }
  g->Normalize();
}

/// Appends `count` blocks on new vertices after the base ids of both
/// sides (side sizes cycling through [min_side, max_side], each block pair
/// an edge with probability p) and ties every block vertex to `attach`
/// random base vertices of the other side. The block edges come from a
/// fixed stream, so every seed plants the same blocks on the same ids: the
/// (theta-k)-core the enumeration works on, and so its work, is the same
/// for every seed. `rng` draws only the attachments.
void AppendBlocks(EdgeList* g, size_t count, size_t min_side, size_t max_side,
                  double p, size_t attach, Rng* rng) {
  const size_t base_left = g->num_left, base_right = g->num_right;
  const size_t span = max_side - min_side + 1;
  Rng pattern(0xb10c5);
  for (size_t b = 0; b < count; ++b) {
    const size_t sl = min_side + b % span;
    const size_t sr = min_side + (b / span + b) % span;
    const uint32_t l0 = static_cast<uint32_t>(g->num_left);
    const uint32_t r0 = static_cast<uint32_t>(g->num_right);
    g->num_left += sl;
    g->num_right += sr;
    for (uint32_t l = l0; l < l0 + sl; ++l)
      for (uint32_t r = r0; r < r0 + sr; ++r)
        if (pattern.Unit() < p) g->edges.push_back({l, r});
    for (uint32_t l = l0; l < l0 + sl; ++l)
      for (size_t a = 0; a < attach; ++a)
        g->edges.push_back({l, static_cast<uint32_t>(rng->Below(base_right))});
    for (uint32_t r = r0; r < r0 + sr; ++r)
      for (size_t a = 0; a < attach; ++a)
        g->edges.push_back({static_cast<uint32_t>(rng->Below(base_left)), r});
  }
  g->Normalize();
}

}  // namespace

EdgeList CommunitiesGraph(uint64_t seed) {
  Rng rng(Mix64(seed) ^ 0xc0ffee);
  EdgeList g = PowerLaw(98000, 32000, 370000, 3.5, &rng);
  AppendBlocks(&g, 8, 12, 18, 0.9, 2, &rng);
  return g;
}

EdgeList DenseGraph(uint64_t seed, uint32_t side) {
  // A random (side/2)-regular bipartite graph: start from the circulant
  // graph l ~ (l + j) mod side, j < side/2, and randomize it with
  // degree-preserving double-edge swaps. Fixing every degree keeps the
  // enumeration work close across seeds, where G(n, M) varies it by
  // about 10%.
  const uint32_t kSide = side, kDegree = side / 2;
  Rng rng(Mix64(seed) ^ 0xde75e);
  std::vector<uint8_t> adj(kSide * kSide, 0);
  std::vector<Edge> edges;
  for (uint32_t l = 0; l < kSide; ++l) {
    for (uint32_t j = 0; j < kDegree; ++j) {
      const uint32_t r = (l + j) % kSide;
      adj[l * kSide + r] = 1;
      edges.push_back({l, r});
    }
  }
  for (size_t swaps = 0; swaps < 20 * edges.size();) {
    Edge& a = edges[rng.Below(edges.size())];
    Edge& b = edges[rng.Below(edges.size())];
    if (a.l == b.l || a.r == b.r || adj[a.l * kSide + b.r] ||
        adj[b.l * kSide + a.r]) {
      continue;
    }
    adj[a.l * kSide + a.r] = adj[b.l * kSide + b.r] = 0;
    std::swap(a.r, b.r);
    adj[a.l * kSide + a.r] = adj[b.l * kSide + b.r] = 1;
    ++swaps;
  }
  EdgeList g;
  g.num_left = kSide;
  g.num_right = kSide;
  g.edges = std::move(edges);
  g.Normalize();
  return g;
}

EdgeList CommGraph(uint64_t seed) {
  Rng rng(Mix64(seed) ^ 0xc0330);
  EdgeList g = PowerLaw(9000, 4600, 17500, 2.8, &rng);
  PlantBlocks(&g, 16, 8, 12, 0.9, &rng);
  return g;
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kStream: return "stream";
    case OpKind::kShortCircuit: return "short";
    case OpKind::kThetaCount: return "theta";
    case OpKind::kUpdate: return "update";
    case OpKind::kChurn: return "churn";
  }
  return "?";
}

OpStream::OpStream(uint64_t seed, int client)
    : rng_(Mix64(seed) ^ Mix64(0x5e77e + static_cast<uint64_t>(client))),
      client_(client) {}

Op OpStream::Next() {
  // Per-client shares (percent). Client 0 carries every update, so the
  // two-client mix is ~50% stream, ~20% short-circuit, ~15% theta
  // counts, ~10% updates, ~5% churn.
  const uint64_t roll = rng_.Below(100);
  const uint64_t update_share = client_ == 0 ? 20 : 0;
  Op op;
  if (roll < 50) {
    op.kind = OpKind::kStream;
    op.variant = static_cast<int>(rng_.Below(kStreamVariants));
  } else if (roll < 65) {
    op.kind = OpKind::kThetaCount;
    op.variant = static_cast<int>(rng_.Below(kThetaVariants));
  } else if (roll < 70) {
    op.kind = OpKind::kChurn;
    op.variant = static_cast<int>(rng_.Below(kShortVariants));
  } else if (roll < 70 + update_share) {
    op.kind = OpKind::kUpdate;
  } else {
    op.kind = OpKind::kShortCircuit;
    op.variant = static_cast<int>(rng_.Below(kShortVariants));
  }
  return op;
}

namespace {

std::vector<Edge> BatchInserts(const EdgeList& base, uint64_t seed,
                               uint64_t index) {
  Rng rng(Mix64(seed ^ 0xba7c4) ^ Mix64(index));
  std::vector<Edge> out;
  while (out.size() < kUpdateInserts) {
    // Consecutive batches draw from left ids of opposite parity, so a
    // batch never inserts an edge it also deletes.
    const Edge e{static_cast<uint32_t>(2 * rng.Below(base.num_left / 2) +
                                       (index & 1)),
                 static_cast<uint32_t>(rng.Below(base.num_right))};
    if (base.Contains(e) ||
        std::find(out.begin(), out.end(), e) != out.end()) {
      continue;
    }
    out.push_back(e);
  }
  return out;
}

}  // namespace

UpdateBatch MakeUpdateBatch(const EdgeList& base, uint64_t seed,
                            uint64_t index) {
  UpdateBatch batch;
  batch.insert = BatchInserts(base, seed, index);
  if (index > 0) batch.remove = BatchInserts(base, seed, index - 1);
  return batch;
}

EdgeList GraphAfterUpdates(const EdgeList& base, uint64_t seed,
                           uint64_t applied) {
  EdgeList g = base;
  if (applied == 0) return g;
  // Batch i deletes exactly what batch i-1 inserted, so only the last
  // batch's inserts survive (a delete of an edge the same batch inserts
  // cannot happen: inserts are non-edges of the base).
  for (const Edge& e : BatchInserts(base, seed, applied - 1))
    g.edges.push_back(e);
  g.Normalize();
  return g;
}

}  // namespace kbench
