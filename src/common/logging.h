// Leveled logging with a text stderr sink and an optional JSON-lines
// file sink, plus CHECK macros for invariant enforcement.
//
// Messages below the global threshold are discarded before any
// formatting work. The stderr sink renders the human one-liner
// (`[INFO file.cc:12] message`); the optional file sink receives JSON
// lines, one object per record:
//
//   {"ts":1754500000.123456,"level":"info","file":"pipeline.cc",
//    "line":15,"thread":0,"message":"..."}
//
// `thread` is a dense process-local id in first-log order (0 is
// normally the main thread), matching the tid scheme of the obs trace
// layer. LogRunMetadata() stamps a run's identity (command, seed,
// thread count, build info) as the first structured record so a
// `*.jsonl` run log is self-describing.
//
// CHECK failures abort: they indicate programmer error, never data error
// (data errors travel through Status/Result).

#ifndef MICTREND_COMMON_LOGGING_H_
#define MICTREND_COMMON_LOGGING_H_

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "common/result.h"

namespace mic {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Global log threshold; messages below it are discarded.
LogLevel GetLogLevel();
void SetLogLevel(LogLevel level);

/// Parses "debug" / "info" / "warning" / "error" (case-sensitive,
/// lowercase); anything else is an InvalidArgument naming the input.
Result<LogLevel> ParseLogLevel(std::string_view name);

/// Applies the MICTREND_LOG_LEVEL environment variable, when set to a
/// parseable level name. Call once at process start (the CLI does).
void ApplyLogLevelFromEnv();

/// Opens `path` as a JSON-lines log sink alongside stderr (truncates an
/// existing file); IoError when the file cannot be opened. The sink
/// stays open until CloseLogFile() or process exit.
Status OpenLogFile(const std::string& path);
void CloseLogFile();

/// Identity of one run, logged as the first structured record.
struct RunMetadata {
  std::string command;      // e.g. "pipeline"
  std::uint64_t seed = 0;   // world/generator seed, 0 = not applicable
  int threads = 0;          // pool width (workers + caller)
};

/// Emits an Info record with `run` plus compile-time build info
/// (compiler, C++ standard, build mode) as structured fields.
void LogRunMetadata(const RunMetadata& run);

namespace internal {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line, bool fatal = false);
  ~LogMessage();

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  bool fatal_;
  bool enabled_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace mic

#define MIC_LOG(level)                                                  \
  ::mic::internal::LogMessage(::mic::LogLevel::k##level, __FILE__,      \
                              __LINE__)                                 \
      .stream()

#define MIC_CHECK(condition)                                            \
  if (!(condition))                                                     \
  ::mic::internal::LogMessage(::mic::LogLevel::kError, __FILE__,        \
                              __LINE__, /*fatal=*/true)                 \
          .stream()                                                     \
      << "Check failed: " #condition " "

#define MIC_CHECK_OP(lhs, rhs, op) MIC_CHECK((lhs)op(rhs))
#define MIC_CHECK_EQ(lhs, rhs) MIC_CHECK_OP(lhs, rhs, ==)
#define MIC_CHECK_NE(lhs, rhs) MIC_CHECK_OP(lhs, rhs, !=)
#define MIC_CHECK_LT(lhs, rhs) MIC_CHECK_OP(lhs, rhs, <)
#define MIC_CHECK_LE(lhs, rhs) MIC_CHECK_OP(lhs, rhs, <=)
#define MIC_CHECK_GT(lhs, rhs) MIC_CHECK_OP(lhs, rhs, >)
#define MIC_CHECK_GE(lhs, rhs) MIC_CHECK_OP(lhs, rhs, >=)

#define MIC_CHECK_OK(expr)                   \
  do {                                       \
    ::mic::Status _mic_s = (expr);           \
    MIC_CHECK(_mic_s.ok()) << _mic_s;        \
  } while (false)

#endif  // MICTREND_COMMON_LOGGING_H_
