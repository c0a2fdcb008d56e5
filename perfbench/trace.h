// In-memory span recorder of the benchmark's traced mode. Spans are
// recorded around calls into the library from the benchmark's own code
// (nothing inside src/ is instrumented): each has a name, start, end, a
// parent (the enclosing span on the same thread) and the request id it
// belongs to. Spans stay in memory and are written out once, at exit.
// When the tracer is disabled every operation is a single branch.
#ifndef KBENCH_TRACE_H_
#define KBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace kbench {

class Tracer {
 public:
  struct Span {
    const char* name;
    double start = 0;  // seconds since the tracer was created
    double end = 0;
    int parent = -1;   // index of the enclosing span, -1 at the root
    uint64_t request = 0;
  };

  struct Totals {
    uint64_t count = 0;
    double total_s = 0;
    double self_s = 0;  // total minus the time child spans cover
  };

  explicit Tracer(bool enabled)
      : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }

  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  /// Opens a span on the calling thread; returns its index (-1 when
  /// disabled).
  int Begin(const char* name, uint64_t request = 0) {
    if (!enabled_) return -1;
    const double now = Now();
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = name;
    s.start = now;
    s.parent = Current();
    s.request = request;
    spans_.push_back(s);
    const int index = static_cast<int>(spans_.size()) - 1;
    Stack().push_back(index);
    return index;
  }

  void End(int index) {
    if (index < 0) return;
    const double now = Now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(index)].end = now;
    std::vector<int>& stack = Stack();
    if (!stack.empty() && stack.back() == index) stack.pop_back();
  }

  /// Per-name count, total and self time.
  std::map<std::string, Totals> Summary() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> child_time(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_time[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, Totals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = out[spans_[i].name];
      const double d = spans_[i].end - spans_[i].start;
      ++t.count;
      t.total_s += d;
      t.self_s += d - child_time[i];
    }
    return out;
  }

  /// Writes every span as one JSON array.
  bool Write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("[", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,"
                   "\"end\":%.9f,\"parent\":%d,\"request\":%llu}",
                   i == 0 ? "" : ",", i, s.name, s.start, s.end, s.parent,
                   static_cast<unsigned long long>(s.request));
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
  }

 private:
  int Current() {
    const std::vector<int>& stack = Stack();
    return stack.empty() ? -1 : stack.back();
  }
  static std::vector<int>& Stack() {
    thread_local std::vector<int> stack;
    return stack;
  }

  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request = 0)
      : tracer_(tracer), index_(tracer->Begin(name, request)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace kbench

#endif  // KBENCH_TRACE_H_
