// In-memory span recorder for the benchmark's traced run.
//
// A span is one timed call into a library layer: its name is
// "<layer>.<call>" (e.g. "core.run"), it belongs to one repetition (the run
// id), and it nests under whichever span was open when it started. Spans
// stay in memory while the benchmark measures and are written out once, at
// exit, so recording costs one clock read and one vector append per
// boundary. A null recorder turns every Scope into a no-op, which is how the
// untraced repetitions run.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int run = 0;
  int parent = -1;  ///< index into the recorder's span list; -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
  std::string_view layer() const {
    const std::string_view view(name);
    return view.substr(0, view.find('.'));
  }
};

class SpanRecorder {
 public:
  /// Opens a span on construction and closes it on destruction.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, std::string_view name)
        : recorder_(recorder),
          index_(recorder == nullptr ? -1 : recorder->open(name)) {}
    ~Scope() {
      if (recorder_ != nullptr) recorder_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    int index_;
  };

  /// Spans opened from now on belong to repetition `run`.
  void begin_run(int run) { run_ = run; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Total duration of the spans named `name` in repetition `run`.
  double seconds(int run, std::string_view name) const {
    double total = 0.0;
    for (const Span& span : spans_) {
      if (span.run == run && span.name == name) total += span.seconds();
    }
    return total;
  }

  /// Self time per layer in repetition `run`: each span's duration minus
  /// the time its direct children cover, summed by layer name.
  std::map<std::string, double, std::less<>> self_seconds(int run) const {
    std::vector<double> self(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].run != run) continue;
      self[i] += spans_[i].seconds();
      if (spans_[i].parent >= 0) {
        self[static_cast<std::size_t>(spans_[i].parent)] -= spans_[i].seconds();
      }
    }
    std::map<std::string, double, std::less<>> by_layer;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].run == run) by_layer[std::string(spans_[i].layer())] += self[i];
    }
    return by_layer;
  }

  /// Writes every span as one JSON array; false if the file cannot be
  /// written.
  bool write_json(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fputs("[\n", out);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::fprintf(out,
                   "  {\"id\": %zu, \"name\": \"%s\", \"run\": %d, \"parent\": %d, "
                   "\"start_ns\": %lld, \"end_ns\": %lld}%s\n",
                   i, span.name.c_str(), span.run, span.parent,
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]\n", out);
    return std::fclose(out) == 0;
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  int open(std::string_view name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{std::string(name), run_, parent, now_ns(), 0});
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }

  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    open_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<int> open_;  ///< stack of open span indexes
  int run_ = 0;
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
};

}  // namespace perfbench
