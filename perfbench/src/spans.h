// In-memory span log for the traced run: one span per call the benchmark
// makes into a layer (experiment construct, start, launch_client, each
// run_for slice, collect, each probe), kept in memory and written out as
// JSONL when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t id = 0;
  std::int64_t parent = -1;  // -1: a root span
  std::int64_t rep = -1;     // repetition (or probe round) index
  std::int64_t exp = -1;     // experiment index within the repetition
  std::int64_t host_start_ns = 0;
  std::int64_t host_end_ns = 0;
  std::int64_t virt_start_ns = 0;  // simulated clock; 0 outside a simulation
  std::int64_t virt_end_ns = 0;
  /// Registry counter deltas over the span (run_for slices only).
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

class SpanLog {
 public:
  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span and returns its id.
  std::int64_t begin(std::string name, std::int64_t parent, std::int64_t rep,
                     std::int64_t exp, std::int64_t virt_now = 0) {
    Span s;
    s.name = std::move(name);
    s.id = static_cast<std::int64_t>(spans_.size());
    s.parent = parent;
    s.rep = rep;
    s.exp = exp;
    s.virt_start_ns = virt_now;
    s.host_start_ns = host_now();
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  /// Closes span `id`; returns its host duration in ns.
  std::int64_t end(std::int64_t id, std::int64_t virt_now = 0) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.host_end_ns = host_now();
    s.virt_end_ns = virt_now;
    return s.host_end_ns - s.host_start_ns;
  }

  Span& at(std::int64_t id) { return spans_[static_cast<std::size_t>(id)]; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as one JSON object per line; false on I/O error.
  [[nodiscard]] bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"id\": %lld, \"parent\": %lld, \"name\": \"%s\", "
                   "\"rep\": %lld, \"exp\": %lld, \"host_start_ns\": %lld, "
                   "\"host_end_ns\": %lld, \"virt_start_ns\": %lld, "
                   "\"virt_end_ns\": %lld, \"counters\": {",
                   static_cast<long long>(s.id),
                   static_cast<long long>(s.parent), s.name.c_str(),
                   static_cast<long long>(s.rep),
                   static_cast<long long>(s.exp),
                   static_cast<long long>(s.host_start_ns),
                   static_cast<long long>(s.host_end_ns),
                   static_cast<long long>(s.virt_start_ns),
                   static_cast<long long>(s.virt_end_ns));
      for (std::size_t i = 0; i < s.counters.size(); ++i) {
        std::fprintf(f, "%s\"%s\": %llu", i == 0 ? "" : ", ",
                     s.counters[i].first.c_str(),
                     static_cast<unsigned long long>(s.counters[i].second));
      }
      std::fprintf(f, "}}\n");
    }
    return std::fclose(f) == 0;
  }

 private:
  [[nodiscard]] std::int64_t host_now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
