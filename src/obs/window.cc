#include "obs/window.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace mic::obs {
namespace {

// Matches the registry exporter: %.17g round-trips doubles and stays
// valid JSON for the finite values windowed stats produce.
std::string FormatDouble(double value) {
  if (!std::isfinite(value)) return "null";
  return StrFormat("%.17g", value);
}

std::string FormatUint(std::uint64_t value) {
  return StrFormat("%llu", static_cast<unsigned long long>(value));
}

// Upper edge of the bucket holding the rank-th observation (1-based)
// in a merged bucket-count vector; the overflow bucket reports the
// last finite edge, which understates extreme tails but keeps the
// export finite and monotone.
double QuantileEdge(const std::vector<double>& edges,
                    const std::vector<std::uint64_t>& buckets,
                    std::uint64_t count, double q) {
  if (count == 0 || edges.empty()) return 0.0;
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             static_cast<double>(count) * q + 0.999999999));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      return i < edges.size() ? edges[i] : edges.back();
    }
  }
  return edges.back();
}

}  // namespace

const std::vector<double>& DefaultLatencyEdgesSeconds() {
  static const std::vector<double> kEdges = {
      0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
      0.05,   0.1,     0.25,   0.5,   1.0,    2.5,   5.0,  10.0};
  return kEdges;
}

WindowedChannel::WindowedChannel(const WindowRegistry* owner)
    : owner_(owner) {
  const WindowOptions& options = owner_->options();
  const std::vector<double>& edges = options.value_edges.empty()
                                         ? DefaultLatencyEdgesSeconds()
                                         : options.value_edges;
  slots_.reserve(options.num_slots);
  for (std::size_t i = 0; i < options.num_slots; ++i) {
    slots_.push_back(std::make_unique<Slot>(edges));
  }
}

WindowedChannel::Slot* WindowedChannel::ActiveSlot() {
  const std::uint64_t epoch =
      owner_->NowNs() / owner_->options().slot_width_ns;
  Slot* slot = slots_[epoch % slots_.size()].get();
  while (true) {
    std::uint64_t seen = slot->epoch.load(std::memory_order_acquire);
    if (seen == epoch) return slot;
    if (seen != kEmptyEpoch && seen > epoch) {
      // Another thread already turned the slot over to a later epoch
      // (its clock read was ahead of ours): recording here would land
      // in the wrong window, so drop the sample instead.
      return nullptr;
    }
    if (slot->epoch.compare_exchange_weak(seen, epoch,
                                          std::memory_order_acq_rel)) {
      // This thread won the turnover and clears the slot's previous
      // occupancy. A recorder racing between the exchange and these
      // stores can lose its sample — bounded telemetry smear, never a
      // torn value (every field is an atomic).
      slot->hist.Reset();
      slot->errors.store(0, std::memory_order_relaxed);
      return slot;
    }
  }
}

void WindowedChannel::Record(double value, bool error) {
  // The totals take every sample, including one a lost turnover race
  // drops from the windows below. Integer nanoseconds keep the sum
  // exact under concurrent adds; the bound keeps the cast defined for
  // any value (NaN fails both comparisons).
  total_requests_.fetch_add(1, std::memory_order_relaxed);
  if (error) total_errors_.fetch_add(1, std::memory_order_relaxed);
  if (value > 0.0 && value < 1e9) {
    total_nanos_.fetch_add(static_cast<std::uint64_t>(value * 1e9 + 0.5),
                           std::memory_order_relaxed);
  }
  Slot* slot = ActiveSlot();
  if (slot == nullptr) return;
  slot->hist.Observe(value);
  if (error) slot->errors.fetch_add(1, std::memory_order_relaxed);
}

ChannelTotals WindowedChannel::Totals() const {
  ChannelTotals totals;
  totals.requests = total_requests_.load(std::memory_order_relaxed);
  totals.errors = total_errors_.load(std::memory_order_relaxed);
  totals.nanos = total_nanos_.load(std::memory_order_relaxed);
  return totals;
}

WindowStats WindowedChannel::Aggregate(std::uint64_t lookback_ns) const {
  const WindowOptions& options = owner_->options();
  const std::uint64_t width = options.slot_width_ns;
  const std::uint64_t current = owner_->NowNs() / width;
  std::uint64_t lookback_slots =
      std::max<std::uint64_t>(1, (lookback_ns + width - 1) / width);
  lookback_slots = std::min<std::uint64_t>(lookback_slots, slots_.size());

  const std::vector<double>& edges = slots_[0]->hist.edges();
  std::vector<std::uint64_t> buckets(edges.size() + 1, 0);
  WindowStats stats;
  double sum = 0.0;
  for (const std::unique_ptr<Slot>& slot : slots_) {
    const std::uint64_t epoch =
        slot->epoch.load(std::memory_order_acquire);
    if (epoch == kEmptyEpoch || epoch > current ||
        epoch + lookback_slots <= current) {
      continue;
    }
    std::uint64_t slot_observed = slot->hist.count();
    std::uint64_t slot_errors =
        slot->errors.load(std::memory_order_relaxed);
    double slot_sum = slot->hist.sum();
    std::vector<std::uint64_t> slot_buckets(buckets.size(), 0);
    for (std::size_t i = 0; i < slot_buckets.size(); ++i) {
      slot_buckets[i] = slot->hist.bucket_count(i);
    }
    if (slot->epoch.load(std::memory_order_acquire) != epoch) {
      // The slot turned over while we were copying it; its contents
      // now describe a different epoch, so skip it rather than mix
      // two windows.
      continue;
    }
    stats.count += slot_observed;
    stats.errors += slot_errors;
    sum += slot_sum;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      buckets[i] += slot_buckets[i];
    }
  }

  const double seconds =
      static_cast<double>(lookback_slots) * static_cast<double>(width) *
      1e-9;
  if (seconds > 0.0) stats.rps = static_cast<double>(stats.count) / seconds;
  if (stats.count > 0) {
    stats.error_rate =
        static_cast<double>(stats.errors) / static_cast<double>(stats.count);
    stats.mean = sum / static_cast<double>(stats.count);
    stats.p50 = QuantileEdge(edges, buckets, stats.count, 0.50);
    stats.p95 = QuantileEdge(edges, buckets, stats.count, 0.95);
    stats.p99 = QuantileEdge(edges, buckets, stats.count, 0.99);
    for (std::size_t i = buckets.size(); i-- > 0;) {
      if (buckets[i] > 0) {
        stats.max = i < edges.size() ? edges[i] : edges.back();
        break;
      }
    }
  }
  return stats;
}

WindowRegistry::WindowRegistry(WindowOptions options, ClockFn clock)
    : options_(std::move(options)),
      clock_(std::move(clock)),
      epoch_(std::chrono::steady_clock::now()) {
  if (options_.slot_width_ns == 0) {
    options_.slot_width_ns = 10ull * 1000ull * 1000ull * 1000ull;
  }
  if (options_.num_slots == 0) options_.num_slots = 60;
  if (options_.lookback_seconds.empty()) {
    options_.lookback_seconds = {60, 300, 600};
  }
}

std::uint64_t WindowRegistry::NowNs() const {
  if (clock_) return clock_();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

WindowedChannel* WindowRegistry::channel(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = channels_.find(name);
  if (it == channels_.end()) {
    it = channels_
             .emplace(std::string(name),
                      std::unique_ptr<WindowedChannel>(
                          new WindowedChannel(this)))
             .first;
  }
  return it->second.get();
}

std::vector<std::pair<std::string, const WindowedChannel*>>
WindowRegistry::Channels() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, const WindowedChannel*>> out;
  out.reserve(channels_.size());
  for (const auto& [name, channel] : channels_) {
    out.emplace_back(name, channel.get());
  }
  return out;
}

std::string WindowRegistry::ToJson() const {
  const std::vector<std::pair<std::string, const WindowedChannel*>>
      channels = Channels();
  std::string out = "{\"slot_width_seconds\":" +
                    FormatDouble(static_cast<double>(
                                     options_.slot_width_ns) *
                                 1e-9) +
                    ",\"slots\":" +
                    FormatUint(options_.num_slots) + ",\"totals\":{";
  bool first_total = true;
  for (const auto& [name, channel] : channels) {
    const ChannelTotals totals = channel->Totals();
    if (!first_total) out += ',';
    first_total = false;
    out += '"';
    out += name;
    out += "\":{\"requests\":" + FormatUint(totals.requests) +
           ",\"errors\":" + FormatUint(totals.errors) +
           ",\"seconds\":" + FormatDouble(totals.seconds()) +
           '}';
  }
  out += "},\"windows\":{";
  bool first_window = true;
  for (const std::uint64_t lookback : options_.lookback_seconds) {
    if (!first_window) out += ',';
    first_window = false;
    out += '"' + FormatUint(lookback) + "s\":{";
    bool first_channel = true;
    for (const auto& [name, channel] : channels) {
      const WindowStats stats =
          channel->Aggregate(lookback * 1000ull * 1000ull * 1000ull);
      if (!first_channel) out += ',';
      first_channel = false;
      out += '"';
      out += name;
      out += "\":{\"count\":" + FormatUint(stats.count) +
             ",\"errors\":" + FormatUint(stats.errors) +
             ",\"rps\":" + FormatDouble(stats.rps) +
             ",\"error_rate\":" + FormatDouble(stats.error_rate) +
             ",\"mean\":" + FormatDouble(stats.mean) +
             ",\"p50\":" + FormatDouble(stats.p50) +
             ",\"p95\":" + FormatDouble(stats.p95) +
             ",\"p99\":" + FormatDouble(stats.p99) +
             ",\"max\":" + FormatDouble(stats.max) + '}';
    }
    out += '}';
  }
  out += "}}";
  return out;
}

}  // namespace mic::obs
