#include "trace.hpp"

#include "bench.hpp"

namespace perfbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(now_s()) {}

std::size_t Tracer::begin(const std::string& name) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.parent = current();
  span.start = now_s() - origin_;
  spans_.push_back(std::move(span));
  open_.push_back(spans_.size());
  return spans_.size();
}

void Tracer::end(std::size_t id) {
  if (!enabled_ || id == 0) return;
  Span& span = spans_.at(id - 1);
  span.duration = now_s() - origin_ - span.start;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::count(std::size_t id, const std::string& key, double value) {
  if (!enabled_ || id == 0) return;
  spans_.at(id - 1).counters[key] += value;
}

void Tracer::rename(std::size_t id, const std::string& name) {
  if (!enabled_ || id == 0) return;
  spans_.at(id - 1).name = name;
}

std::size_t Tracer::current() const noexcept {
  return open_.empty() ? 0 : open_.back();
}

void Tracer::add_stages(std::size_t parent,
                        const nusys::SearchTelemetry& telemetry,
                        const std::map<std::string, std::string>& names) {
  if (!enabled_ || parent == 0) return;
  double at = spans_.at(parent - 1).start;
  for (const auto& stage : telemetry.stages) {
    const auto it = names.find(stage.stage);
    if (it != names.end()) {
      Span span;
      span.name = it->second;
      span.start = at;
      span.duration = stage.wall_seconds;
      span.parent = parent;
      const std::string layer = it->second.substr(0, it->second.find('.'));
      span.counters[layer + ".examined"] =
          static_cast<double>(stage.examined);
      span.counters[layer + ".feasible"] =
          static_cast<double>(stage.feasible);
      span.counters[layer + ".pruned"] = static_cast<double>(stage.pruned);
      spans_.push_back(std::move(span));
    }
    at += stage.wall_seconds;
  }
}

void Tracer::write_chrome(std::ostream& out,
                          const nusys::JsonValue& other) const {
  out << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << other.dump()
      << ", \"traceEvents\": [";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.duration < 0.0) continue;
    JsonValue args;
    args.set("id", i + 1);
    args.set("parent", span.parent);
    JsonValue counters = JsonValue::Object{};
    for (const auto& [key, value] : span.counters) counters.set(key, value);
    args.set("counters", std::move(counters));
    JsonValue event;
    event.set("name", span.name);
    event.set("cat", span.name.substr(0, span.name.find('.')));
    event.set("ph", "X");
    event.set("ts", span.start * 1e6);
    event.set("dur", span.duration * 1e6);
    event.set("pid", 1);
    event.set("tid", 1);
    event.set("args", std::move(args));
    out << (first ? "\n" : ",\n") << event.dump();
    first = false;
  }
  out << "\n]}\n";
}

}  // namespace perfbench
