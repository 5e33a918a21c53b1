#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "cts/metrics.h"

namespace perfbench {

using lubt::Json;

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

Tail ReportedTail(const std::vector<double>& v) {
  Tail tail;
  tail.value = Percentile(v, 0.5);
  for (const int p : {90, 99}) {
    const double beyond = static_cast<double>(v.size()) * (100 - p) / 100.0;
    if (beyond < 10.0) break;
    tail.percentile = p;
    tail.value = Percentile(v, p / 100.0);
  }
  return tail;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

void Outcome::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(what);
}

namespace {

Json ValueUnit(double value, const std::string& unit) {
  Json entry = Json::MakeObject();
  entry.Set("value", Json::MakeNumber(value));
  entry.Set("unit", Json::MakeString(unit));
  return entry;
}

}  // namespace

void Outcome::Metric(const std::string& name, double value,
                     const std::string& unit) {
  metrics_.Set(name, ValueUnit(value, unit));
}

void Outcome::Report(const std::string& name, double value,
                     const std::string& unit) {
  report_.Set(name, ValueUnit(value, unit));
}

Json Outcome::MetricsJson() const { return metrics_; }
Json Outcome::ReportJson() const { return report_; }

Tracer::Scope::Scope(Tracer* tracer, std::string name) : tracer_(tracer) {
  Span span;
  span.name = std::move(name);
  span.parent = tracer_->open_;
  span.start = NowSeconds();
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_ = index_;
}

Tracer::Scope::~Scope() {
  Span& span = tracer_->spans_[static_cast<std::size_t>(index_)];
  span.end = NowSeconds();
  tracer_->open_ = span.parent;
}

double Tracer::SelfSeconds(const std::string& name) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  double total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name.empty() || spans_[i].name == name) {
      total += spans_[i].end - spans_[i].start - child[i];
    }
  }
  return total;
}

double Tracer::TotalSelfSeconds() const { return SelfSeconds(""); }

std::string Tracer::ChromeTraceJson() const {
  Json events = Json::MakeArray();
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  for (const Span& s : spans_) {
    Json e = Json::MakeObject();
    e.Set("name", Json::MakeString(s.name));
    e.Set("ph", Json::MakeString("X"));
    e.Set("ts", Json::MakeNumber((s.start - t0) * 1e6));
    e.Set("dur", Json::MakeNumber((s.end - s.start) * 1e6));
    e.Set("pid", Json::MakeNumber(1));
    e.Set("tid", Json::MakeNumber(1));
    events.Append(std::move(e));
  }
  Json doc = Json::MakeObject();
  doc.Set("traceEvents", std::move(events));
  return doc.Dump();
}

double MedianSetupSeconds(int reps, const std::function<void()>& setup,
                          const std::function<void()>& teardown) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const double t0 = NowSeconds();
    setup();
    times.push_back(NowSeconds() - t0);
    if (r + 1 < reps) teardown();
  }
  return Median(std::move(times));
}

std::vector<lubt::DelayBounds> WindowBounds(const lubt::SinkSet& set,
                                            double lower, double upper) {
  const double radius = lubt::Radius(set.sinks, set.source);
  return std::vector<lubt::DelayBounds>(
      set.sinks.size(), lubt::DelayBounds{lower * radius, upper * radius});
}

double RelDiff(double a, double b) {
  return std::abs(a - b) / std::max(std::abs(b), 1e-300);
}

}  // namespace perfbench
