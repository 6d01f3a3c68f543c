// Span recorder of the traced runs, written as Chrome trace-event JSON.
//
// A span is (name, layer, start, duration, parent, counters). Root spans
// are "setup", "op" (one per timed operation) and "check"; every other
// span is a call into one layer, named "<layer>.<what>". Spans stay in
// memory and are written once when the run ends. A disabled tracer
// records nothing and reads no clock, so the same code measures the
// untraced baseline.
#pragma once

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "support/json.hpp"
#include "support/telemetry.hpp"

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Switches recording on or off between operations (no span open).
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Opens a span as a child of the innermost open span; returns its id
  /// (0 when disabled).
  std::size_t begin(const std::string& name);
  /// Closes the innermost open span, which must be `id`.
  void end(std::size_t id);
  /// Adds to a counter of span `id` (no-op when disabled or id is 0).
  void count(std::size_t id, const std::string& key, double value);
  /// Renames span `id` (a span's name can depend on what the call did).
  void rename(std::size_t id, const std::string& name);
  /// Adds the stages of a facade's SearchTelemetry as closed children of
  /// span `parent`, laid out back to back from the parent's start.
  /// `names` maps a telemetry stage to a span name; other stages are
  /// skipped (their time stays in the parent's self time).
  void add_stages(std::size_t parent, const nusys::SearchTelemetry& telemetry,
                  const std::map<std::string, std::string>& names);

  /// Writes every closed span as Chrome trace-event JSON, with `other` as
  /// the file's "otherData" block, one event at a time.
  void write_chrome(std::ostream& out, const nusys::JsonValue& other) const;

 private:
  /// Id of the innermost open span (0 when none).
  [[nodiscard]] std::size_t current() const noexcept;

  struct Span {
    std::string name;
    double start = 0.0;
    double duration = -1.0;  ///< < 0 while open.
    std::size_t parent = 0;
    std::map<std::string, double> counters;
  };
  bool enabled_;
  double origin_ = 0.0;
  std::vector<Span> spans_;          ///< Span id i is spans_[i - 1].
  std::vector<std::size_t> open_;    ///< Stack of open span ids.
};

/// Opens a span for the lifetime of the guard.
class SpanGuard {
 public:
  SpanGuard(Tracer& tracer, const std::string& name)
      : tracer_(tracer), id_(tracer.begin(name)) {}
  ~SpanGuard() { tracer_.end(id_); }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

  [[nodiscard]] std::size_t id() const noexcept { return id_; }
  void count(const std::string& key, double value) {
    tracer_.count(id_, key, value);
  }

 private:
  Tracer& tracer_;
  std::size_t id_;
};

/// Runs `body(span_id)` inside a span named `name` and returns its result.
template <typename F>
auto traced(Tracer& tracer, const std::string& name, F&& body) {
  const SpanGuard span(tracer, name);
  return body(span.id());
}

}  // namespace perfbench
