// In-memory span recorder for the benchmark's own calls into dnswild.
//
// Each span has a name, the layer (src/ module) it times, a start, an end
// and a parent. Spans stay in memory until the run ends, then go out as
// Chrome trace-event JSON (matched "B"/"E" pairs, loadable in Perfetto).
// A null Tracer* turns every Scope into a no-op, which is how the timed
// (untraced) iterations run.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRec {
  std::string name;
  std::string layer;
  double start_us = 0;
  double end_us = 0;
  int parent = -1;  // index into Tracer::spans(); -1 = root
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  int open(std::string name, std::string layer) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(
        SpanRec{std::move(name), std::move(layer), now_us(), 0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[id].end_us = now_us();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }
  // Adds an already-finished span (the program's own stage records).
  int add(SpanRec span) {
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
  }

  const std::vector<SpanRec>& spans() const { return spans_; }

  // Self time per layer over the subtree rooted at `root`: each span's
  // duration minus the part its direct children cover.
  std::map<std::string, double> self_seconds(int root) const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const SpanRec& span : spans_) {
      if (span.parent >= 0) {
        child_us[span.parent] += span.end_us - span.start_us;
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (!within(static_cast<int>(i), root)) continue;
      const double self = spans_[i].end_us - spans_[i].start_us - child_us[i];
      out[spans_[i].layer] += self / 1e6;
    }
    return out;
  }

  bool write_chrome_json(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", file);
    std::fputs(
        "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
        "\"args\": {\"name\": \"perfbench\"}}",
        file);
    std::vector<std::vector<int>> children(spans_.size());
    std::vector<int> roots;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      (spans_[i].parent < 0 ? roots : children[spans_[i].parent])
          .push_back(static_cast<int>(i));
    }
    for (int root : roots) emit(file, root, children);
    std::fputs("\n]}\n", file);
    return std::fclose(file) == 0;
  }

 private:
  bool within(int span, int root) const {
    for (int i = span; i >= 0; i = spans_[i].parent) {
      if (i == root) return true;
    }
    return false;
  }

  // Depth-first, so every "E" closes the innermost open "B".
  void emit(std::FILE* file, int id,
            const std::vector<std::vector<int>>& children) const {
    const SpanRec& span = spans_[id];
    std::fprintf(file,
                 ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"B\", "
                 "\"ts\": %.3f, \"pid\": 1, \"tid\": 1, \"args\": "
                 "{\"id\": %d, \"parent\": %d}}",
                 span.name.c_str(), span.layer.c_str(), span.start_us, id,
                 span.parent);
    for (int child : children[id]) emit(file, child, children);
    std::fprintf(file,
                 ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"E\", "
                 "\"ts\": %.3f, \"pid\": 1, \"tid\": 1}",
                 span.name.c_str(), span.layer.c_str(), span.end_us);
  }

  Clock::time_point origin_;
  std::vector<SpanRec> spans_;
  std::vector<int> stack_;
};

// RAII span; does nothing when `tracer` is null.
class Scope {
 public:
  Scope(Tracer* tracer, std::string name, std::string layer)
      : tracer_(tracer),
        id_(tracer != nullptr
                ? tracer->open(std::move(name), std::move(layer))
                : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
