#include "obs/openmetrics.h"

#include <cmath>
#include <vector>

#include "common/strings.h"

namespace mic::obs {
namespace {

// OpenMetrics numbers: integers verbatim, doubles via round-tripping
// %.17g; non-finite values are spelled the way the exposition format
// defines them.
std::string FormatValue(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  return StrFormat("%.17g", value);
}

std::string FormatValue(std::uint64_t value) {
  return StrFormat("%llu", static_cast<unsigned long long>(value));
}

// Escapes a HELP text or label value: backslash, double quote (labels
// travel inside quotes), and newline.
void AppendEscaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
}

void AppendFamilyHeader(std::string& out, const std::string& family,
                        const char* type, std::string_view help) {
  out += "# HELP ";
  out += family;
  out += ' ';
  AppendEscaped(out, help);
  out += '\n';
  out += "# TYPE ";
  out += family;
  out += ' ';
  out += type;
  out += '\n';
}

void AppendLabel(std::string& out, bool& first, std::string_view key,
                 std::string_view value) {
  out += first ? "{" : ",";
  first = false;
  out += key;
  out += "=\"";
  AppendEscaped(out, value);
  out += '"';
}

std::string WindowLabel(std::uint64_t lookback_seconds) {
  return StrFormat("%llus",
                   static_cast<unsigned long long>(lookback_seconds));
}

// One cumulative counter family, one sample per channel.
template <typename ValueFn>
void AppendChannelCounterFamily(
    std::string& out,
    const std::vector<std::pair<std::string, const WindowedChannel*>>&
        channels,
    const std::string& family, std::string_view help, ValueFn&& value_of) {
  AppendFamilyHeader(out, family, "counter", help);
  for (const auto& [name, channel] : channels) {
    out += family + "_total";
    bool first = true;
    AppendLabel(out, first, "channel", name);
    out += "} ";
    out += value_of(channel->Totals());
    out += '\n';
  }
}

// One windowed gauge family across every channel x lookback.
template <typename ValueFn>
void AppendWindowFamily(
    std::string& out, const WindowRegistry& windows,
    const std::vector<std::pair<std::string, const WindowedChannel*>>&
        channels,
    const std::string& family, std::string_view help, ValueFn&& value_of) {
  AppendFamilyHeader(out, family, "gauge", help);
  for (const auto& [name, channel] : channels) {
    for (const std::uint64_t lookback :
         windows.options().lookback_seconds) {
      const WindowStats stats =
          channel->Aggregate(lookback * 1000ull * 1000ull * 1000ull);
      out += family;
      bool first = true;
      AppendLabel(out, first, "channel", name);
      AppendLabel(out, first, "window", WindowLabel(lookback));
      out += "} ";
      out += value_of(stats);
      out += '\n';
    }
  }
}

}  // namespace

std::string OpenMetricsName(std::string_view name) {
  std::string out = "mictrend_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

std::string RenderOpenMetrics(const MetricsRegistry* metrics,
                              const WindowRegistry* windows) {
  std::string out;
  if (metrics != nullptr) {
    for (const auto& [name, value] : metrics->SnapshotCounters()) {
      const std::string family = OpenMetricsName(name);
      AppendFamilyHeader(out, family, "counter", name);
      out += family + "_total " + FormatValue(value) + '\n';
    }
    for (const auto& [name, value] : metrics->SnapshotGauges()) {
      const std::string family = OpenMetricsName(name);
      AppendFamilyHeader(out, family, "gauge", name);
      out += family + ' ' + FormatValue(value) + '\n';
    }
    for (const auto& [name, value] : metrics->SnapshotTimers()) {
      const std::string calls = OpenMetricsName(name) + "_calls";
      AppendFamilyHeader(out, calls, "counter", name + " (count)");
      out += calls + "_total " + FormatValue(value.count) + '\n';
      const std::string seconds = OpenMetricsName(name) + "_seconds";
      AppendFamilyHeader(out, seconds, "counter", name + " (seconds)");
      out += seconds + "_total " + FormatValue(value.seconds) + '\n';
    }
    for (const auto& [name, value] : metrics->SnapshotHistograms()) {
      const std::string family = OpenMetricsName(name);
      AppendFamilyHeader(out, family, "histogram", name);
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < value.buckets.size(); ++i) {
        cumulative += value.buckets[i];
        out += family + "_bucket{le=\"";
        out += i < value.edges.size() ? FormatValue(value.edges[i])
                                      : std::string("+Inf");
        out += "\"} " + FormatValue(cumulative) + '\n';
      }
      out += family + "_count " + FormatValue(value.count) + '\n';
      out += family + "_sum " + FormatValue(value.sum) + '\n';
    }
  }

  if (windows != nullptr) {
    const auto channels = windows->Channels();
    AppendChannelCounterFamily(out, channels, "mictrend_channel_requests",
                               "requests per channel since start",
                               [](const ChannelTotals& totals) {
                                 return FormatValue(totals.requests);
                               });
    AppendChannelCounterFamily(out, channels, "mictrend_channel_errors",
                               "errors per channel since start",
                               [](const ChannelTotals& totals) {
                                 return FormatValue(totals.errors);
                               });
    AppendChannelCounterFamily(out, channels, "mictrend_channel_seconds",
                               "recorded seconds per channel since start",
                               [](const ChannelTotals& totals) {
                                 return FormatValue(totals.seconds());
                               });
    AppendWindowFamily(out, *windows, channels,
                       "mictrend_window_requests",
                       "windowed request count per channel",
                       [](const WindowStats& stats) {
                         return FormatValue(stats.count);
                       });
    AppendWindowFamily(out, *windows, channels, "mictrend_window_errors",
                       "windowed error count per channel",
                       [](const WindowStats& stats) {
                         return FormatValue(stats.errors);
                       });
    AppendWindowFamily(out, *windows, channels, "mictrend_window_rps",
                       "windowed request rate per channel",
                       [](const WindowStats& stats) {
                         return FormatValue(stats.rps);
                       });
    AppendWindowFamily(out, *windows, channels,
                       "mictrend_window_error_rate",
                       "windowed error rate per channel",
                       [](const WindowStats& stats) {
                         return FormatValue(stats.error_rate);
                       });
    // Quantiles share one family with a quantile label, so the three
    // per-window samples stay contiguous within it.
    const std::string family = "mictrend_window_latency_seconds";
    AppendFamilyHeader(out, family, "gauge",
                       "windowed latency quantiles per channel");
    for (const auto& [name, channel] : channels) {
      for (const std::uint64_t lookback :
           windows->options().lookback_seconds) {
        const WindowStats stats =
            channel->Aggregate(lookback * 1000ull * 1000ull * 1000ull);
        const std::pair<const char*, double> quantiles[] = {
            {"0.5", stats.p50}, {"0.95", stats.p95}, {"0.99", stats.p99}};
        for (const auto& [quantile, value] : quantiles) {
          out += family;
          bool first = true;
          AppendLabel(out, first, "channel", name);
          AppendLabel(out, first, "window", WindowLabel(lookback));
          AppendLabel(out, first, "quantile", quantile);
          out += "} " + FormatValue(value) + '\n';
        }
      }
    }
  }

  out += "# EOF\n";
  return out;
}

}  // namespace mic::obs
