#include "oracle.h"

#include <algorithm>
#include <cstdio>

namespace kbench {

uint64_t SolutionHash(const uint32_t* left, size_t num_left,
                      const uint32_t* right, size_t num_right) {
  uint64_t h = Mix64(num_left * 0x10001ULL + num_right);
  for (size_t i = 0; i < num_left; ++i) h += Mix64(uint64_t{left[i]} << 1);
  for (size_t i = 0; i < num_right; ++i)
    h += Mix64((uint64_t{right[i]} << 1) | 1);
  return Mix64(h);
}

void SolutionSet::Finish() { std::sort(hashes.begin(), hashes.end()); }

uint64_t SolutionSet::Duplicates() const {
  uint64_t dup = 0;
  for (size_t i = 1; i < hashes.size(); ++i) dup += hashes[i] == hashes[i - 1];
  return dup;
}

uint64_t SolutionSet::SetHash() const {
  uint64_t h = Mix64(hashes.size());
  for (uint64_t x : hashes) h += Mix64(x);
  return h;
}

bool WriteHashes(const SolutionSet& set, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const size_t n = set.hashes.size();
  bool ok = std::fwrite(set.hashes.data(), sizeof(uint64_t), n, f) == n;
  return std::fclose(f) == 0 && ok;
}

bool ReadHashes(const std::string& path, SolutionSet* set) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  set->hashes.clear();
  uint64_t buf[4096];
  size_t got;
  while ((got = std::fread(buf, sizeof(uint64_t), 4096, f)) > 0)
    set->hashes.insert(set->hashes.end(), buf, buf + got);
  std::fclose(f);
  return true;
}

Oracle::Oracle(const EdgeList& g) {
  n_[0] = g.num_left;
  n_[1] = g.num_right;
  for (int s = 0; s < 2; ++s) {
    off_[s].assign(n_[s] + 1, 0);
    count_[s].assign(n_[s], 0);
    member_[s].assign(n_[s], 0);
  }
  for (const Edge& e : g.edges) {
    ++off_[0][e.l + 1];
    ++off_[1][e.r + 1];
  }
  for (int s = 0; s < 2; ++s) {
    for (size_t i = 0; i < n_[s]; ++i) off_[s][i + 1] += off_[s][i];
    adj_[s].resize(g.edges.size());
  }
  std::vector<size_t> fill[2] = {off_[0], off_[1]};
  for (const Edge& e : g.edges) {  // sorted by (l, r): rows come out sorted
    adj_[0][fill[0][e.l]++] = e.r;
    adj_[1][fill[1][e.r]++] = e.l;
  }
}

bool Oracle::Adjacent(uint32_t l, uint32_t r) const {
  const uint32_t* b = adj_[0].data() + off_[0][l];
  const uint32_t* e = adj_[0].data() + off_[0][l + 1];
  return std::binary_search(b, e, r);
}

bool Oracle::AnyAddable(int side, const std::vector<uint32_t>& same,
                        const std::vector<uint32_t>& other,
                        const std::vector<uint32_t>& disc_other, int k) {
  const int os = 1 - side;
  const size_t uk = static_cast<size_t>(k);
  for (uint32_t v : same) member_[side][v] = 1;
  std::vector<uint32_t> candidates;
  if (other.size() <= uk) {
    for (uint32_t v = 0; v < n_[side]; ++v) candidates.push_back(v);
  } else {
    // A joining vertex misses at most k of `other`, so it neighbors one.
    for (uint32_t u : other) {
      for (size_t i = off_[os][u]; i < off_[os][u + 1]; ++i) {
        const uint32_t v = adj_[os][i];
        if (count_[side][v]++ == 0) candidates.push_back(v);
      }
    }
  }
  bool addable = false;
  for (uint32_t v : candidates) {
    if (addable || member_[side][v]) continue;
    size_t missed = 0;
    bool ok = true;
    for (size_t i = 0; ok && i < other.size(); ++i) {
      const bool adj = side == 0 ? Adjacent(v, other[i]) : Adjacent(other[i], v);
      if (adj) continue;
      ok = ++missed <= uk && disc_other[i] + 1 <= uk;
    }
    addable = ok;
  }
  for (uint32_t v : candidates) count_[side][v] = 0;
  for (uint32_t v : same) member_[side][v] = 0;
  return addable;
}

std::string Oracle::Check(std::vector<uint32_t> left,
                          std::vector<uint32_t> right, int k,
                          size_t theta_left, size_t theta_right) {
  std::sort(left.begin(), left.end());
  std::sort(right.begin(), right.end());
  if (std::adjacent_find(left.begin(), left.end()) != left.end() ||
      std::adjacent_find(right.begin(), right.end()) != right.end()) {
    return "repeated vertex";
  }
  if ((!left.empty() && left.back() >= n_[0]) ||
      (!right.empty() && right.back() >= n_[1])) {
    return "vertex out of range";
  }
  if (left.size() < theta_left || right.size() < theta_right)
    return "below theta";
  const size_t uk = static_cast<size_t>(k);
  std::vector<uint32_t> disc_left(left.size()), disc_right(right.size());
  for (size_t i = 0; i < left.size(); ++i) {
    for (size_t j = 0; j < right.size(); ++j) {
      if (Adjacent(left[i], right[j])) continue;
      ++disc_left[i];
      ++disc_right[j];
    }
  }
  for (uint32_t d : disc_left)
    if (d > uk) return "not a k-biplex";
  for (uint32_t d : disc_right)
    if (d > uk) return "not a k-biplex";
  if (AnyAddable(0, left, right, disc_right, k) ||
      AnyAddable(1, right, left, disc_left, k)) {
    return "not maximal";
  }
  return "";
}

}  // namespace kbench
