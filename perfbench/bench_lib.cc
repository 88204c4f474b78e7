#include "bench_lib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>
#include <utility>

namespace perfbench {
namespace {

struct OpenSpan {
  const SpanRecorder* recorder;
  int id;
};
thread_local std::vector<OpenSpan> open_spans;

void AppendEscaped(std::string& out, const std::string& text) {
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
}

}  // namespace

Percentile NearestRank(std::vector<double> samples, double q) {
  Percentile result;
  result.samples = samples.size();
  if (samples.empty()) return result;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  result.value = samples[rank - 1];
  result.beyond = samples.size() - rank;
  result.reportable = result.beyond >= kMinBeyond;
  return result;
}

double CrossingRate(const std::vector<double>& rates,
                    const std::vector<double>& shares,
                    const std::vector<double>& weights, double limit) {
  // Pool adjacent violators: blocks of (weighted sum, weight, length).
  struct Block {
    double sum, weight;
    std::size_t length;
    double mean() const { return sum / weight; }
  };
  std::vector<Block> blocks;
  for (std::size_t i = 0; i < shares.size(); ++i) {
    blocks.push_back({shares[i] * weights[i], weights[i], 1});
    while (blocks.size() > 1 &&
           blocks[blocks.size() - 2].mean() > blocks.back().mean()) {
      const Block last = blocks.back();
      blocks.pop_back();
      blocks.back().sum += last.sum;
      blocks.back().weight += last.weight;
      blocks.back().length += last.length;
    }
  }
  std::vector<double> fit;
  for (const Block& block : blocks) {
    fit.insert(fit.end(), block.length, block.mean());
  }
  for (std::size_t i = 0; i < fit.size(); ++i) {
    if (fit[i] <= limit) continue;
    if (i == 0) return rates[0] * limit / fit[0];
    return rates[i - 1] + (limit - fit[i - 1]) / (fit[i] - fit[i - 1]) *
                              (rates[i] - rates[i - 1]);
  }
  return rates.empty() ? 0.0 : rates.back();
}

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double NextUniform(std::uint64_t& state) {
  state = MixSeed(state, 0);
  return static_cast<double>(state >> 11) * 0x1.0p-53;
}

std::vector<double> PoissonSchedule(std::uint64_t seed, double rate_per_s,
                                    double duration_s) {
  std::vector<double> times;
  if (!(rate_per_s > 0.0) || !(duration_s > 0.0)) return times;
  std::uint64_t state = seed;
  double t = 0.0;
  while (true) {
    t += -std::log1p(-NextUniform(state)) / rate_per_s;
    if (t >= duration_s) break;
    times.push_back(t);
  }
  return times;
}

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

double SpanRecorder::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int SpanRecorder::ThreadIndex() {
  const std::uint64_t key =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  auto [it, inserted] =
      threads_.emplace(key, static_cast<int>(threads_.size()) + 1);
  return it->second;
}

int SpanRecorder::Begin(const std::string& name, std::uint64_t request) {
  int parent = -1;
  for (auto it = open_spans.rbegin(); it != open_spans.rend(); ++it) {
    if (it->recorder == this) {
      parent = it->id;
      break;
    }
  }
  const double start = Now();
  int id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    if (request == 0 && parent >= 0) request = spans_[parent].request;
    spans_.push_back(
        SpanRecord{name, start, start, id, parent, ThreadIndex(), request});
  }
  open_spans.push_back(OpenSpan{this, id});
  return id;
}

void SpanRecorder::End(int id) {
  const double end = Now();
  for (auto it = open_spans.rbegin(); it != open_spans.rend(); ++it) {
    if (it->recorder == this && it->id == id) {
      open_spans.erase(std::next(it).base());
      break;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end = end;
}

int SpanRecorder::Add(const std::string& name, double start, double end,
                      int parent, std::uint64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(
      SpanRecord{name, start, end, id, parent, ThreadIndex(), request});
  return id;
}

std::vector<SpanRecord> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string SpanRecorder::ToChromeTraceJson() const {
  const std::vector<SpanRecord> spans = Snapshot();
  // Per thread, a depth-first walk of the span tree (children in start
  // order) writes each span's "B" before and its "E" after everything
  // nested in it, so the pairs nest even where timestamps tie.
  std::vector<std::vector<int>> children(spans.size());
  std::map<int, std::vector<int>> roots;  // by thread
  for (const SpanRecord& span : spans) {
    if (span.parent >= 0 && spans[span.parent].thread == span.thread) {
      children[span.parent].push_back(span.id);
    } else {
      roots[span.thread].push_back(span.id);
    }
  }
  const auto by_start = [&spans](int a, int b) {
    return spans[a].start < spans[b].start ||
           (spans[a].start == spans[b].start && a < b);
  };
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buffer[160];
  const auto event = [&](const SpanRecord& span, bool begin) {
    out += first ? "{\"name\":\"" : ",{\"name\":\"";
    first = false;
    AppendEscaped(out, span.name);
    std::snprintf(buffer, sizeof(buffer),
                  "\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":1,\"tid\":%d",
                  begin ? "B" : "E", (begin ? span.start : span.end) * 1e6,
                  span.thread);
    out += buffer;
    if (begin) {
      std::snprintf(buffer, sizeof(buffer),
                    ",\"args\":{\"id\":%d,\"parent\":%d,\"request\":%llu}",
                    span.id, span.parent,
                    static_cast<unsigned long long>(span.request));
      out += buffer;
    }
    out += '}';
  };
  const std::function<void(int)> walk = [&](int id) {
    event(spans[id], true);
    std::sort(children[id].begin(), children[id].end(), by_start);
    for (int child : children[id]) walk(child);
    event(spans[id], false);
  };
  for (auto& [thread, ids] : roots) {
    std::snprintf(buffer, sizeof(buffer),
                  "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%d,\"args\":{\"name\":\"bench-%d\"}}",
                  first ? "" : ",", thread, thread);
    out += buffer;
    first = false;
    std::sort(ids.begin(), ids.end(), by_start);
    for (int id : ids) walk(id);
  }
  out += "],\"droppedEvents\":0}";
  return out;
}

std::vector<double> SelfTimes(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(
      spans.size());
  for (const SpanRecord& span : spans) {
    if (span.parent >= 0) {
      children[span.parent].emplace_back(span.start, span.end);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double start = spans[i].start;
    const double end = spans[i].end;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cursor = start;
    for (const auto& [kid_start, kid_end] : kids) {
      const double from = std::max(cursor, kid_start);
      const double to = std::min(end, kid_end);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    self[i] = std::max(0.0, (end - start) - covered);
  }
  return self;
}

std::map<std::string, double> SelfTimeByLayer(
    const std::vector<SpanRecord>& spans) {
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, double> layers;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string& name = spans[i].name;
    layers[name.substr(0, name.find('.'))] += self[i];
  }
  return layers;
}

}  // namespace perfbench
