#include "core/biplex.h"

#include <algorithm>
#include <cassert>

namespace kbiplex {
namespace {

void AppendBigEndian(std::string* out, uint32_t x) {
  out->push_back(static_cast<char>((x >> 24) & 0xff));
  out->push_back(static_cast<char>((x >> 16) & 0xff));
  out->push_back(static_cast<char>((x >> 8) & 0xff));
  out->push_back(static_cast<char>(x & 0xff));
}

uint32_t ReadBigEndian(const char* p) {
  return (static_cast<uint32_t>(static_cast<unsigned char>(p[0])) << 24) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 8) |
         static_cast<uint32_t>(static_cast<unsigned char>(p[3]));
}

}  // namespace

std::string EncodeBiplexKey(const Biplex& b) {
  std::string key;
  key.reserve(4 * (1 + b.left.size() + b.right.size()));
  AppendBigEndian(&key, static_cast<uint32_t>(b.left.size()));
  for (VertexId v : b.left) AppendBigEndian(&key, v);
  for (VertexId u : b.right) AppendBigEndian(&key, u);
  return key;
}

Biplex DecodeBiplexKey(std::string_view key) {
  assert(key.size() % 4 == 0 && key.size() >= 4);
  Biplex b;
  const size_t total = key.size() / 4 - 1;
  const size_t nl = ReadBigEndian(key.data());
  assert(nl <= total);
  b.left.reserve(nl);
  b.right.reserve(total - nl);
  for (size_t i = 1; i <= total; ++i) {
    uint32_t id = ReadBigEndian(key.data() + 4 * i);
    if (i <= nl) {
      b.left.push_back(id);
    } else {
      b.right.push_back(id);
    }
  }
  return b;
}

bool IsKBiplex(const BipartiteGraph& g, const Biplex& b, KPair k) {
  for (VertexId v : b.left) {
    if (g.DiscCount(Side::kLeft, v, b.right) >
        static_cast<size_t>(k.left)) {
      return false;
    }
  }
  for (VertexId u : b.right) {
    if (g.DiscCount(Side::kRight, u, b.left) >
        static_cast<size_t>(k.right)) {
      return false;
    }
  }
  return true;
}

bool CanAdd(const BipartiteGraph& g, const Biplex& b, Side side, VertexId v,
            KPair k) {
  const size_t own_budget = static_cast<size_t>(k.ForSide(side));
  const size_t other_budget =
      static_cast<size_t>(k.ForSide(Opposite(side)));
  const std::vector<VertexId>& same = b.SideSet(side);
  const std::vector<VertexId>& other = b.SideSet(Opposite(side));
  if (sorted::Contains(same, v)) return false;  // already a member
  if (g.DiscCount(side, v, other) > own_budget) return false;
  // Every opposite member newly disconnected (from v) must tolerate one
  // more disconnection.
  for (VertexId u : other) {
    if (g.IsAdjacent(side, v, u)) continue;
    if (g.DiscCount(Opposite(side), u, same) + 1 > other_budget) {
      return false;
    }
  }
  return true;
}

bool IsMaximalKBiplex(const BipartiteGraph& g, const Biplex& b, KPair k) {
  if (!IsKBiplex(g, b, k)) return false;
  MaximalExtender extender(g, k);
  return !extender.AnyAddable(b, Side::kLeft) &&
         !extender.AnyAddable(b, Side::kRight);
}

MaximalExtender::MaximalExtender(const BipartiteGraph& g, KPair k,
                                 const AdjacencyIndex* index)
    : g_(g),
      k_(k),
      accel_(index != nullptr ? index : g.adjacency_index()) {
  conn_count_[0].assign(g.NumLeft(), 0);
  conn_count_[1].assign(g.NumRight(), 0);
}

void MaximalExtender::CollectCandidates(const Biplex& b, Side side,
                                        std::vector<VertexId>* out) const {
  const std::vector<VertexId>& same = b.SideSet(side);
  const std::vector<VertexId>& other = b.SideSet(Opposite(side));
  const size_t uk = static_cast<size_t>(k_.ForSide(side));
  if (other.size() <= uk) {
    // Every non-member trivially satisfies the connection lower bound
    // δ(v, other) >= |other| - k; fall back to scanning the side.
    const size_t n = g_.NumOnSide(side);
    out->reserve(n - same.size());
    for (VertexId v = 0; v < n; ++v) {
      if (!sorted::Contains(same, v)) out->push_back(v);
    }
    return;
  }
  // Count connections into `other` by one sweep over its adjacency lists.
  const size_t side_idx = side == Side::kLeft ? 0 : 1;
  std::vector<uint32_t>& conn = conn_count_[side_idx];
  std::vector<VertexId>& touched = touched_[side_idx];
  touched.clear();
  for (VertexId u : other) {
    for (VertexId w : g_.Neighbors(Opposite(side), u)) {
      if (conn[w] == 0) touched.push_back(w);
      ++conn[w];
    }
  }
  std::sort(touched.begin(), touched.end());
  const size_t need = other.size() - uk;
  for (VertexId w : touched) {
    if (conn[w] >= need && !sorted::Contains(same, w)) out->push_back(w);
    conn[w] = 0;  // reset scratch
  }
}

bool MaximalExtender::AnyAddable(const Biplex& b, Side side) const {
  // A non-member v joins iff its own budget admits it and it connects
  // every "tight" opposite member, one already at its budget (v would
  // push it past). So the candidates are the common neighbors of the
  // tight members, searched from the one of least degree; with no tight
  // member every candidate of CollectCandidates joins. This avoids
  // scanning the whole side when the candidate-side budget would
  // otherwise admit every vertex (the hot case of the right-shrinking
  // filter on solutions with a tiny anchored side).
  const Side o = Opposite(side);
  const std::vector<VertexId>& same = b.SideSet(side);
  const std::vector<VertexId>& other = b.SideSet(o);
  const size_t own_budget = static_cast<size_t>(k_.ForSide(side));
  const size_t other_budget = static_cast<size_t>(k_.ForSide(o));
  std::vector<VertexId> tight;  // ascending, like `other`
  VertexId tightest = kInvalidVertex;
  for (VertexId a : other) {
    if (same.size() - Conn(o, a, same) < other_budget) continue;
    tight.push_back(a);
    if (tightest == kInvalidVertex ||
        g_.Degree(o, a) < g_.Degree(o, tightest)) {
      tightest = a;
    }
  }
  if (tight.empty()) {
    // Any non-member qualifies unconditionally.
    if (other.size() <= own_budget) return same.size() < g_.NumOnSide(side);
    std::vector<VertexId> candidates;
    CollectCandidates(b, side, &candidates);
    return !candidates.empty();
  }
  const size_t need =
      other.size() > own_budget ? other.size() - own_budget : 0;
  for (VertexId v : g_.Neighbors(o, tightest)) {
    if (sorted::Contains(same, v)) continue;
    if (Conn(side, v, tight) != tight.size()) continue;
    if (Conn(side, v, other) >= need) return true;
  }
  return false;
}

void MaximalExtender::ExtendSide(Biplex* b, Side side) const {
  std::vector<VertexId>& same = b->MutableSideSet(side);
  const std::vector<VertexId>& other = b->SideSet(Opposite(side));
  const size_t other_budget =
      static_cast<size_t>(k_.ForSide(Opposite(side)));

  // Candidates whose own budget admits them. `other` is fixed during this
  // pass (only `same` grows), so one adjacency sweep suffices.
  std::vector<VertexId> candidates;
  CollectCandidates(*b, side, &candidates);

  // Disconnection counters of `other` members and the "tight" ones already
  // at their budget: a candidate is addable iff it connects every tight
  // member. Maintained incrementally per accepted vertex, which turns the
  // per-candidate test into O(|tight|) instead of a full CanAdd scan.
  std::vector<size_t> disc(other.size());
  std::vector<VertexId> tight;
  for (size_t i = 0; i < other.size(); ++i) {
    disc[i] = same.size() - Conn(Opposite(side), other[i], same);
    if (disc[i] == other_budget) tight.push_back(other[i]);
  }

  for (VertexId v : candidates) {
    if (Conn(side, v, tight) != tight.size()) continue;
    sorted::Insert(&same, v);
    // Update counters of the members v misses.
    for (size_t i = 0; i < other.size(); ++i) {
      if (AcceleratedIsAdjacent(accel_, g_, side, v, other[i])) continue;
      if (++disc[i] == other_budget) sorted::Insert(&tight, other[i]);
    }
  }
}

void MaximalExtender::Extend(Biplex* b, bool grow_left,
                             bool grow_right) const {
  for (Side side : {Side::kLeft, Side::kRight}) {
    if (side == Side::kLeft && !grow_left) continue;
    if (side == Side::kRight && !grow_right) continue;
    ExtendSide(b, side);
  }
}

}  // namespace kbiplex
