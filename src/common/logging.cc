#include "common/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>

#include "common/strings.h"

namespace mic {
namespace {

std::atomic<int> g_log_level{static_cast<int>(LogLevel::kInfo)};

// Serializes sink emission so messages logged from parallel runtime
// stages never interleave mid-line. Each message is formatted into its
// LogMessage-local buffer first, so the critical section is one write.
std::mutex& SinkMutex() {
  static std::mutex mutex;
  return mutex;
}

// The optional JSON-lines file sink; guarded by SinkMutex().
std::ofstream* g_log_file = nullptr;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

const char* LevelNameLower(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarning:
      return "warning";
    case LogLevel::kError:
      return "error";
  }
  return "?";
}

// Dense process-local thread id, assigned on a thread's first log
// record (0 is normally the main thread).
std::uint32_t ThisThreadLogId() {
  static std::atomic<std::uint32_t> next{0};
  thread_local std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

const char* FileBaseName(const char* file) {
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') base = p + 1;
  }
  return base;
}

double WallClockSeconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

// One record as a JSON line; `extra` is a pre-rendered fragment of
// additional key/value members ("" or ",\"key\":value,...").
std::string JsonRecord(LogLevel level, const char* file, int line,
                       std::string_view message, std::string_view extra) {
  std::string json = StrFormat(
      "{\"ts\":%.6f,\"level\":\"%s\",\"file\":\"", WallClockSeconds(),
      LevelNameLower(level));
  AppendJsonEscaped(json, FileBaseName(file));
  json += StrFormat("\",\"line\":%d,\"thread\":%u,\"message\":\"", line,
                    ThisThreadLogId());
  AppendJsonEscaped(json, message);
  json += '"';
  json += extra;
  json += '}';
  return json;
}

// Writes one already-formatted record to the enabled sinks.
void EmitRecord(LogLevel level, const char* file, int line,
                const std::string& message, std::string_view extra) {
  std::lock_guard<std::mutex> lock(SinkMutex());
  std::cerr << "[" << LevelName(level) << " " << FileBaseName(file) << ":"
            << line << "] " << message << std::endl;
  if (g_log_file != nullptr) {
    *g_log_file << JsonRecord(level, file, line, message, extra) << '\n';
    g_log_file->flush();
  }
}

}  // namespace

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_log_level.load(std::memory_order_relaxed));
}

void SetLogLevel(LogLevel level) {
  g_log_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

Result<LogLevel> ParseLogLevel(std::string_view name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warning") return LogLevel::kWarning;
  if (name == "error") return LogLevel::kError;
  return Status::InvalidArgument(
      "unknown log level '" + std::string(name) +
      "' (expected debug, info, warning, or error)");
}

void ApplyLogLevelFromEnv() {
  const char* value = std::getenv("MICTREND_LOG_LEVEL");
  if (value == nullptr) return;
  auto level = ParseLogLevel(value);
  if (level.ok()) SetLogLevel(*level);
}

Status OpenLogFile(const std::string& path) {
  auto file = new std::ofstream(path, std::ios::trunc);
  if (!*file) {
    delete file;
    return Status::IoError("cannot open log file '" + path + "'");
  }
  std::lock_guard<std::mutex> lock(SinkMutex());
  delete g_log_file;
  g_log_file = file;
  return Status::OK();
}

void CloseLogFile() {
  std::lock_guard<std::mutex> lock(SinkMutex());
  delete g_log_file;
  g_log_file = nullptr;
}

void LogRunMetadata(const RunMetadata& run) {
  if (LogLevel::kInfo < GetLogLevel()) return;
  std::string extra = ",\"event\":\"run_start\",\"command\":\"";
  AppendJsonEscaped(extra, run.command);
  extra += StrFormat(
      "\",\"seed\":%llu,\"threads\":%d,"
      "\"build\":{\"compiler\":\"",
      static_cast<unsigned long long>(run.seed), run.threads);
#if defined(__VERSION__)
  AppendJsonEscaped(extra, __VERSION__);
#endif
  extra += StrFormat("\",\"std\":%ld,\"mode\":\"",
                     static_cast<long>(__cplusplus));
#if defined(NDEBUG)
  extra += "release";
#else
  extra += "debug";
#endif
  extra += "\"}";
  EmitRecord(LogLevel::kInfo, __FILE__, __LINE__,
             "run started: " + run.command, extra);
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line, bool fatal)
    : level_(level),
      file_(file),
      line_(line),
      fatal_(fatal),
      enabled_(fatal || level >= GetLogLevel()) {}

LogMessage::~LogMessage() {
  if (enabled_) {
    EmitRecord(level_, file_, line_, stream_.str(), "");
  }
  if (fatal_) std::abort();
}

}  // namespace internal
}  // namespace mic
