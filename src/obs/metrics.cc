#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "common/strings.h"

namespace mic::obs {
namespace {

// %.17g round-trips doubles exactly and stays valid JSON for finite
// values; the metrics here (seconds, likelihood deltas) are finite by
// construction.
std::string FormatDouble(double value) {
  if (!std::isfinite(value)) return "null";
  return StrFormat("%.17g", value);
}

std::string FormatUint(std::uint64_t value) {
  return StrFormat("%llu", static_cast<unsigned long long>(value));
}

template <typename Map, typename Fn>
void AppendSection(std::string& out, const char* section, const Map& map,
                   Fn&& format_value, bool& first_section) {
  if (!first_section) out += ',';
  first_section = false;
  out += '"';
  out += section;
  out += "\":{";
  bool first = true;
  for (const auto& [name, metric] : map) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":";
    out += format_value(*metric);
  }
  out += '}';
}

std::string HistogramJson(const Histogram& histogram) {
  std::string out = "{\"count\":" + FormatUint(histogram.count()) +
                    ",\"sum\":" + FormatDouble(histogram.sum()) +
                    ",\"buckets\":[";
  const std::vector<double>& edges = histogram.edges();
  for (std::size_t i = 0; i <= edges.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"le\":";
    out += i < edges.size() ? FormatDouble(edges[i]) : "\"inf\"";
    out += ",\"count\":" + FormatUint(histogram.bucket_count(i)) + '}';
  }
  out += "]}";
  return out;
}

}  // namespace

Histogram::Histogram(std::vector<double> edges)
    : edges_(std::move(edges)) {
  std::sort(edges_.begin(), edges_.end());
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      edges_.size() + 1);
  for (std::size_t i = 0; i <= edges_.size(); ++i) buckets_[i] = 0;
}

void Histogram::Reset() {
  for (std::size_t i = 0; i <= edges_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

void Histogram::Observe(double value) {
  const auto it =
      std::lower_bound(edges_.begin(), edges_.end(), value);
  const std::size_t bucket =
      static_cast<std::size_t>(it - edges_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double current = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(current, current + value,
                                     std::memory_order_relaxed)) {
  }
}

Counter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>())
             .first;
  }
  return it->second.get();
}

Timer* MetricsRegistry::timer(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = timers_.find(name);
  if (it == timers_.end()) {
    it = timers_.emplace(std::string(name), std::make_unique<Timer>())
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> edges) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::unique_ptr<Histogram>(
                          new Histogram(std::move(edges))))
             .first;
  }
  return it->second.get();
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

std::string MetricsRegistry::CountersToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":" + FormatUint(counter->value());
  }
  out += '}';
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{";
  bool first_section = true;
  AppendSection(out, "counters", counters_,
                [](const Counter& counter) {
                  return FormatUint(counter.value());
                },
                first_section);
  AppendSection(out, "gauges", gauges_,
                [](const Gauge& gauge) {
                  return FormatDouble(gauge.value());
                },
                first_section);
  AppendSection(out, "timers", timers_,
                [](const Timer& timer) {
                  return "{\"count\":" + FormatUint(timer.count()) +
                         ",\"seconds\":" + FormatDouble(timer.seconds()) +
                         '}';
                },
                first_section);
  AppendSection(out, "histograms", histograms_, HistogramJson,
                first_section);
  out += '}';
  return out;
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricsRegistry::SnapshotCounters() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.emplace_back(name, counter->value());
  }
  return out;
}

std::vector<std::pair<std::string, double>>
MetricsRegistry::SnapshotGauges() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.emplace_back(name, gauge->value());
  }
  return out;
}

std::vector<std::pair<std::string, MetricsRegistry::TimerValue>>
MetricsRegistry::SnapshotTimers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, TimerValue>> out;
  out.reserve(timers_.size());
  for (const auto& [name, timer] : timers_) {
    out.emplace_back(name, TimerValue{timer->count(), timer->seconds()});
  }
  return out;
}

std::vector<std::pair<std::string, MetricsRegistry::HistogramValue>>
MetricsRegistry::SnapshotHistograms() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, HistogramValue>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramValue value;
    value.edges = histogram->edges();
    value.buckets.reserve(value.edges.size() + 1);
    for (std::size_t i = 0; i <= value.edges.size(); ++i) {
      value.buckets.push_back(histogram->bucket_count(i));
    }
    value.count = histogram->count();
    value.sum = histogram->sum();
    out.emplace_back(name, std::move(value));
  }
  return out;
}

Status WriteMetricsJsonFile(const MetricsRegistry& registry,
                            const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path);
  out << registry.ToJson() << '\n';
  if (!out) return Status::IoError("failed writing " + path);
  return Status::OK();
}

}  // namespace mic::obs
