#include "obs/trace.h"

#include "obs/trace_log.h"

namespace mic::obs {
namespace {

using Clock = std::chrono::steady_clock;

thread_local Span* tl_current_span = nullptr;

std::uint64_t NanosSince(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

}  // namespace

Span::Span(MetricsRegistry* registry, std::string_view name)
    : Span(registry, nullptr, name) {}

Span::Span(const ExecContext& context, std::string_view name)
    : Span(context.metrics, context.trace, name) {}

Span::Span(MetricsRegistry* registry, TraceLog* trace,
           std::string_view name)
    : registry_(registry), trace_(trace) {
  if (registry_ == nullptr && trace_ == nullptr) return;
  engaged_ = true;
  parent_ = tl_current_span;
  path_ = parent_ == nullptr ? std::string(name)
                             : parent_->path_ + '/' + std::string(name);
  tl_current_span = this;
  if (trace_ != nullptr) trace_->BeginEvent(path_);
  if (registry_ != nullptr) start_ = Clock::now();
}

Span::Span(std::string path) : engaged_(true), path_(std::move(path)) {
  parent_ = tl_current_span;
  tl_current_span = this;
}

Span::~Span() {
  if (!engaged_) return;
  if (registry_ != nullptr) {
    registry_->timer(path_)->Record(NanosSince(start_));
  }
  if (trace_ != nullptr) trace_->EndEvent(path_);
  tl_current_span = parent_;
}

std::string Span::CurrentPath() {
  return tl_current_span == nullptr ? std::string()
                                    : tl_current_span->path_;
}

ScopedTimer::ScopedTimer(Timer* timer) : timer_(timer) {
  if (timer_ != nullptr) start_ = Clock::now();
}

ScopedTimer::ScopedTimer(MetricsRegistry* registry, std::string_view name)
    : ScopedTimer(registry == nullptr ? nullptr : registry->timer(name)) {}

ScopedTimer::ScopedTimer(Timer* timer, TraceLog* trace,
                         std::string_view name)
    : timer_(timer), trace_(trace) {
  if (trace_ != nullptr) {
    trace_path_ = Span::CurrentPath();
    if (trace_path_.empty()) {
      trace_path_.assign(name);
    } else {
      trace_path_ += '/';
      trace_path_ += std::string(name);
    }
    trace_->BeginEvent(trace_path_);
  }
  if (timer_ != nullptr) start_ = Clock::now();
}

ScopedTimer::~ScopedTimer() {
  if (timer_ != nullptr) timer_->Record(NanosSince(start_));
  if (trace_ != nullptr) trace_->EndEvent(trace_path_);
}

}  // namespace mic::obs
