#include "tools/cli_common.h"

#include <cstdio>
#include <deque>

#include "common/logging.h"
#include "mic/io.h"
#include "obs/runtime_metrics.h"
#include "obs/trace.h"
#include "serve/registry.h"
#include "store/claim_store.h"

namespace mic::tools {
namespace {

// Shared flag groups, spliced into the per-command flag lists below.
// Every subcommand takes the observability outputs; the parallel ones
// additionally take --threads.
std::vector<FlagSpec> WithObsFlags(std::vector<FlagSpec> flags) {
  flags.push_back({"metrics-out", "m.json"});
  flags.push_back({"trace-out", "t.json"});
  flags.push_back({"log-json", "run.jsonl"});
  return flags;
}

std::vector<FlagSpec> WithExecFlags(std::vector<FlagSpec> flags) {
  flags.push_back({"threads", "N"});
  flags.push_back({"cache", "off|read|write|rw"});
  flags.push_back({"cache-dir", "dir"});
  return WithObsFlags(std::move(flags));
}

// The claim-store ingest group, for subcommands that read a corpus.
std::vector<FlagSpec> WithStoreFlags(std::vector<FlagSpec> flags) {
  flags.push_back({"store", "auto|mmap|file"});
  flags.push_back({"store-dir", "dir"});
  return flags;
}

// `query` flags come from the serve endpoint registry (wire member
// names with '_' turned into '-'). FlagSpec holds string_views, so the
// generated strings are interned in a deque (stable addresses) that
// lives as long as the command table does.
std::string_view Intern(std::string text) {
  static std::deque<std::string>* strings = new std::deque<std::string>();
  for (const std::string& existing : *strings) {
    if (existing == text) return existing;
  }
  strings->push_back(std::move(text));
  return strings->back();
}

std::string_view InternedCliFlagName(std::string_view param) {
  return Intern(CliFlagName(param));
}

// "health|metrics|...|shutdown": the --op value hint enumerates every
// registered op so the usage screen stays in lockstep with the server.
std::string_view OpValuePlaceholder() {
  std::string ops;
  for (const serve::EndpointSpec& endpoint : serve::EndpointTable()) {
    if (!ops.empty()) ops += '|';
    ops += endpoint.name;
  }
  return Intern(std::move(ops));
}

std::vector<FlagSpec> DetectorFlags(std::string_view margin,
                                    std::string_view min_tail,
                                    std::string_view algorithm) {
  return {
      {"algorithm", algorithm},
      {"margin", margin},
      {"criterion", "aic|aicc|bic"},
      {"kind", "slope|level|pulse|auto"},
      {"seasonal", "true"},
      {"min-tail", min_tail},
  };
}

std::vector<CommandSpec> BuildCommandTable() {
  std::vector<CommandSpec> table;
  table.push_back(
      {"generate",
       WithObsFlags({{"out", "corpus.csv", true},
                     {"world", "world.cfg"},
                     {"hospitals-out", "h.csv"},
                     {"months", "43"},
                     {"patients", "2000"},
                     {"background", "40"},
                     {"seed", "20190411"}})});
  table.push_back(
      {"import",
       WithObsFlags({{"corpus", "corpus.csv", true},
                     {"store-dir", "dir", true},
                     {"store", "auto|mmap|file"},
                     {"hospitals", "h.csv"},
                     {"append", ""}})});
  table.push_back(
      {"stats",
       WithObsFlags(WithStoreFlags({{"corpus", "corpus.csv", true}}))});
  table.push_back(
      {"reproduce",
       WithExecFlags(WithStoreFlags({{"corpus", "corpus.csv", true},
                                     {"out", "series.csv", true},
                                     {"min-total", "10"},
                                     {"coupling", "0"},
                                     {"model", "proposed|cooccurrence"}}))});
  {
    std::vector<FlagSpec> detect_flags = {{"series", "series.csv", true}};
    for (FlagSpec& flag : DetectorFlags("0", "1", "exact|approx")) {
      detect_flags.push_back(flag);
    }
    detect_flags.push_back({"max-breaks", "1"});
    table.push_back({"detect", WithExecFlags(std::move(detect_flags))});
  }
  {
    std::vector<FlagSpec> pipeline_flags =
        WithStoreFlags({{"corpus", "corpus.csv", true},
                        {"out", "report.csv"},
                        {"min-total", "10"}});
    for (FlagSpec& flag : DetectorFlags("4", "3", "approx|exact")) {
      pipeline_flags.push_back(flag);
    }
    table.push_back({"pipeline",
                     WithExecFlags(std::move(pipeline_flags))});
  }
  {
    std::vector<FlagSpec> serve_flags = {{"store-dir", "dir", true},
                                         {"store", "auto|mmap|file"},
                                         {"host", "127.0.0.1"},
                                         {"port", "0"},
                                         {"port-file", "port.txt"},
                                         {"workers", "4"},
                                         {"max-pending", "64"},
                                         {"max-frame", "8388608"},
                                         {"access-log", "access.jsonl"},
                                         {"swap-stall-ms", "1000"},
                                         {"min-total", "10"},
                                         {"coupling", "0"},
                                         {"model", "proposed|cooccurrence"}};
    for (FlagSpec& flag : DetectorFlags("4", "3", "approx|exact")) {
      serve_flags.push_back(flag);
    }
    table.push_back({"serve", WithExecFlags(std::move(serve_flags))});
  }
  {
    // Offline twin of the served `drilldown` / `explain` endpoints:
    // same tree, same JSON renderer, so --json / --explain-out files
    // byte-compare against `query --op drilldown/explain --out`.
    std::vector<FlagSpec> drill_flags =
        WithStoreFlags({{"corpus", "corpus.csv", true},
                        {"axis", "medicine|disease|hospital", true},
                        {"hospitals", "h.csv"},
                        {"out", "drill.csv"},
                        {"json", "drill.json"},
                        {"explain", "node"},
                        {"explain-out", "explain.json"},
                        {"min-share", "0.6"},
                        {"min-total", "10"},
                        {"coupling", "0"},
                        {"model", "proposed|cooccurrence"}});
    for (FlagSpec& flag : DetectorFlags("4", "3", "approx|exact")) {
      drill_flags.push_back(flag);
    }
    table.push_back({"drilldown", WithExecFlags(std::move(drill_flags))});
  }
  {
    // The request-parameter flags are generated from the serve
    // endpoint registry — the same table the server validates against —
    // so the client cannot drift from the protocol.
    std::vector<FlagSpec> query_flags = {{"port", "N", true},
                                         {"host", "127.0.0.1"},
                                         {"op", OpValuePlaceholder()},
                                         {"out", "resp.json"},
                                         {"timeout-ms", "30000"}};
    for (const serve::EndpointSpec& endpoint : serve::EndpointTable()) {
      for (const serve::ParamSpec& param : endpoint.params) {
        const std::string_view flag = InternedCliFlagName(param.name);
        bool seen = false;
        for (const FlagSpec& existing : query_flags) {
          if (existing.name == flag) {
            seen = true;
            break;
          }
        }
        if (!seen) {
          query_flags.push_back({flag, serve::ParamTypeName(param.type)});
        }
      }
    }
    table.push_back({"query", WithObsFlags(std::move(query_flags))});
  }
  return table;
}

}  // namespace

std::string CliFlagName(std::string_view param) {
  std::string flag(param);
  for (char& c : flag) {
    if (c == '_') c = '-';
  }
  return flag;
}

const std::vector<CommandSpec>& CommandTable() {
  static const std::vector<CommandSpec>* table =
      new std::vector<CommandSpec>(BuildCommandTable());
  return *table;
}

const CommandSpec* FindCommand(std::string_view name) {
  for (const CommandSpec& command : CommandTable()) {
    if (command.name == name) return &command;
  }
  return nullptr;
}

std::string BuildUsageText() {
  std::string usage = "usage: mictrend <";
  const std::vector<CommandSpec>& table = CommandTable();
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (i > 0) usage += '|';
    usage += table[i].name;
  }
  usage += "> [--flags]\n";

  constexpr std::size_t kIndent = 12;
  constexpr std::size_t kWidth = 76;
  for (const CommandSpec& command : table) {
    std::string line = "  ";
    line += command.name;
    while (line.size() < kIndent) line += ' ';
    for (const FlagSpec& flag : command.flags) {
      std::string item = "--";
      item += flag.name;
      if (!flag.value.empty()) {
        item += ' ';
        item += flag.value;
      }
      if (!flag.required) item = "[" + item + "]";
      if (line.size() + 1 + item.size() > kWidth &&
          line.size() > kIndent) {
        usage += line;
        usage += '\n';
        line.assign(kIndent, ' ');
      } else if (line.size() > kIndent) {
        line += ' ';
      }
      line += item;
    }
    usage += line;
    usage += '\n';
  }
  usage +=
      "--threads defaults to the hardware concurrency; 1 runs inline\n"
      "(either way the output is bit-identical). --metrics-out writes\n"
      "the run's counters, timers, and histograms as JSON; --trace-out\n"
      "writes a Chrome-trace/Perfetto event timeline; --log-json writes\n"
      "a structured JSON-lines run log (MICTREND_LOG_LEVEL filters it).\n"
      "--cache-dir names an incremental snapshot store and --cache sets\n"
      "the mode: write seeds it, read serves from it, rw does both;\n"
      "warm results are byte-identical to a cold run.\n"
      "`import` seeds a persistent claim store from a corpus CSV\n"
      "(--append extends it by the new months); --store-dir points the\n"
      "corpus-reading commands at one so they skip the CSV parse, and\n"
      "--store picks the segment backend. Store-ingested runs produce\n"
      "byte-identical reports to CSV runs; a failed store read warns\n"
      "and falls back to the --corpus CSV.\n"
      "`drilldown` aggregates the analyzed series up one hierarchy\n"
      "axis (--axis medicine|disease|hospital), writes the rollup tree\n"
      "(--out CSV, --json JSON), and --explain <node> descends to the\n"
      "smallest subgroup explaining that node's detected shift.\n"
      "`serve` holds a store's analyzed world hot behind an immutable\n"
      "snapshot and answers queries over a length-prefixed JSON TCP\n"
      "protocol (docs/serve_protocol.md); `query` is the matching\n"
      "client. An ingest appends new months, warm-starts the pipeline\n"
      "via the cache, and swaps the snapshot atomically; served\n"
      "reports and drill-down documents stay byte-identical to their\n"
      "offline `pipeline` / `drilldown` twins.\n"
      "query ops (generated from the serve endpoint registry; a wire\n"
      "parameter's '_' becomes '-' in its flag):\n" +
      serve::BuildOpsUsageText();
  return usage;
}

Status ValidateFlags(const CommandSpec& spec, const Flags& flags) {
  for (const std::string& key : flags.Keys()) {
    if (key == "runtime-stats") {
      // Removed after its PR 2 deprecation; keep the pointer to the
      // replacement rather than a generic unknown-flag error.
      return Status::InvalidArgument(
          "--runtime-stats was removed; use --metrics-out <file> (the "
          "JSON includes the runtime.* stage stats)");
    }
    bool known = false;
    for (const FlagSpec& flag : spec.flags) {
      if (flag.name == key) {
        known = true;
        break;
      }
    }
    if (!known) {
      return Status::InvalidArgument("unknown flag --" + key +
                                     " for command '" +
                                     std::string(spec.name) + "'");
    }
  }
  for (const FlagSpec& flag : spec.flags) {
    if (flag.required && !flags.Has(std::string(flag.name))) {
      return Status::InvalidArgument(std::string(spec.name) + ": --" +
                                     std::string(flag.name) +
                                     " is required");
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<runtime::ThreadPool>> MakePoolFromFlags(
    const Flags& flags) {
  MIC_ASSIGN_OR_RETURN(std::int64_t threads, flags.GetInt("threads", 0));
  if (flags.Has("threads") && threads < 1) {
    return Status::InvalidArgument("--threads must be >= 1");
  }
  return std::make_unique<runtime::ThreadPool>(static_cast<int>(threads));
}

Result<trend::CacheConfig> CacheConfigFromFlags(const Flags& flags) {
  trend::CacheConfig config;
  const std::string mode_text = flags.GetString("cache", "off");
  MIC_ASSIGN_OR_RETURN(config.mode, cache::ParseCacheMode(mode_text));
  config.directory = flags.GetString("cache-dir");
  if (config.mode != cache::CacheMode::kOff && config.directory.empty()) {
    return Status::InvalidArgument("--cache=" + mode_text +
                                   " requires --cache-dir <dir>");
  }
  if (config.mode == cache::CacheMode::kOff && !config.directory.empty()) {
    return Status::InvalidArgument(
        "--cache-dir is set but --cache is 'off'; pass "
        "--cache={read,write,rw} to use it");
  }
  return config;
}

Result<trend::StoreConfig> StoreConfigFromFlags(const Flags& flags) {
  trend::StoreConfig config;
  config.directory = flags.GetString("store-dir");
  const std::string backend_text = flags.GetString("store", "auto");
  MIC_ASSIGN_OR_RETURN(config.backend,
                       store::ParseBackendKind(backend_text));
  if (flags.Has("store") && config.directory.empty()) {
    return Status::InvalidArgument("--store=" + backend_text +
                                   " requires --store-dir <dir>");
  }
  return config;
}

Result<MicCorpus> LoadCorpusFromFlags(const Flags& flags,
                                      const CliRun& run) {
  MIC_ASSIGN_OR_RETURN(trend::StoreConfig store_config,
                       StoreConfigFromFlags(flags));
  const ExecContext context = run.context();
  if (store_config.enabled()) {
    Status failed = Status::OK();
    {
      obs::Span ingest_span(context, "ingest/store");
      auto opened = store::ClaimStore::Open(
          store_config.directory, {.backend = store_config.backend},
          run.metrics());
      if (opened.ok()) {
        auto world = opened->OpenWorld();
        if (world.ok()) {
          std::fprintf(stderr,
                       "ingested %zu months from store %s (%s backend)\n",
                       world->num_months(), store_config.directory.c_str(),
                       std::string(opened->backend_name()).c_str());
          return world;
        }
        failed = world.status();
      } else {
        failed = opened.status();
      }
    }
    // The store failed loudly (it is a source of truth, not a cache),
    // but this command also holds the original CSV — degrade to a cold
    // parse rather than failing the run.
    std::fprintf(stderr,
                 "warning: store ingest failed (%s); falling back to "
                 "cold CSV parse\n",
                 failed.ToString().c_str());
  }
  obs::Span ingest_span(context, "ingest/csv");
  return ReadCorpusCsvFile(flags.GetString("corpus"));
}

Result<trend::PipelineConfig> PipelineConfigFromFlags(
    const Flags& flags, const DetectorFlagDefaults& defaults) {
  trend::PipelineConfig config;
  MIC_ASSIGN_OR_RETURN(double min_total,
                       flags.GetDouble("min-total", 10.0));
  config.reproducer.min_series_total = min_total;
  MIC_ASSIGN_OR_RETURN(double coupling, flags.GetDouble("coupling", 0.0));
  config.reproducer.model_options.prior_strength = coupling;
  const std::string model = flags.GetString("model", "proposed");
  if (model == "cooccurrence") {
    config.reproducer.model_kind = medmodel::LinkModelKind::kCooccurrence;
  } else if (model != "proposed") {
    return Status::InvalidArgument("unknown --model: " + model);
  }
  MIC_ASSIGN_OR_RETURN(config.analyzer.detector,
                       DetectorOptionsFromFlags(flags, defaults));
  MIC_ASSIGN_OR_RETURN(const bool exact,
                       UseExactAlgorithm(flags, defaults));
  config.analyzer.use_approximate = !exact;
  MIC_ASSIGN_OR_RETURN(config.cache, CacheConfigFromFlags(flags));
  MIC_ASSIGN_OR_RETURN(config.store, StoreConfigFromFlags(flags));
  MIC_RETURN_IF_ERROR(config.Validate());
  return config;
}

Result<CliRun> CliRun::FromFlags(const Flags& flags, bool with_pool,
                                 bool force_metrics, bool force_trace) {
  CliRun run;
  if (with_pool) {
    MIC_ASSIGN_OR_RETURN(run.pool_, MakePoolFromFlags(flags));
  } else {
    run.pool_ = std::make_unique<runtime::ThreadPool>(1);
  }
  if (force_metrics || flags.Has("metrics-out")) {
    run.metrics_ = std::make_unique<obs::MetricsRegistry>();
  }
  if (force_trace || flags.Has("trace-out")) {
    run.trace_ = std::make_unique<obs::TraceLog>();
  }
  MIC_ASSIGN_OR_RETURN(trend::CacheConfig cache_config,
                       CacheConfigFromFlags(flags));
  if (cache_config.mode != cache::CacheMode::kOff) {
    auto store = std::make_unique<cache::CacheStore>(
        cache_config.directory, cache_config.mode, run.metrics_.get());
    if (Status opened = store->Open(); opened.ok()) {
      run.cache_ = std::move(store);
    } else {
      // The cache is an accelerator: a store that cannot open degrades
      // to a cold, uncached run instead of failing the command.
      std::fprintf(stderr, "warning: cache disabled for this run: %s\n",
                   opened.ToString().c_str());
    }
  }
  const std::string log_path = flags.GetString("log-json");
  if (!log_path.empty()) {
    MIC_RETURN_IF_ERROR(OpenLogFile(log_path));
    RunMetadata metadata;
    metadata.command = flags.command();
    MIC_ASSIGN_OR_RETURN(std::int64_t seed, flags.GetInt("seed", 0));
    metadata.seed = static_cast<std::uint64_t>(seed);
    metadata.threads = run.pool_->num_threads();
    LogRunMetadata(metadata);
  }
  return run;
}

Status CliRun::Finish(const Flags& flags) {
  const std::string metrics_path = flags.GetString("metrics-out");
  if (!metrics_path.empty()) {
    obs::FoldRuntimeStats(pool_->stats(), pool_->num_threads(),
                          metrics_.get());
    if (trace_ != nullptr) {
      // Wall-clock artifact of ring capacity vs. event volume — a
      // gauge, never a counter, so the deterministic counters section
      // stays thread-count- and tracing-invariant.
      metrics_->gauge("obs.trace.dropped")
          ->Set(static_cast<double>(trace_->dropped_count()));
    }
    MIC_RETURN_IF_ERROR(obs::WriteMetricsJsonFile(*metrics_, metrics_path));
    // stderr: `detect` streams its report CSV to stdout.
    std::fprintf(stderr, "wrote metrics to %s\n", metrics_path.c_str());
  }
  const std::string trace_path = flags.GetString("trace-out");
  if (!trace_path.empty()) {
    MIC_RETURN_IF_ERROR(obs::WriteTraceJsonFile(*trace_, trace_path));
    std::fprintf(stderr, "wrote trace to %s\n", trace_path.c_str());
  }
  if (flags.Has("log-json")) {
    MIC_LOG(Info) << "run finished: " << flags.command();
    CloseLogFile();
  }
  return Status::OK();
}

Result<ssm::ChangePointOptions> DetectorOptionsFromFlags(
    const Flags& flags, const DetectorFlagDefaults& defaults) {
  ssm::ChangePointOptions options;
  MIC_ASSIGN_OR_RETURN(options.seasonal, flags.GetBool("seasonal", true));
  MIC_ASSIGN_OR_RETURN(double margin,
                       flags.GetDouble("margin", defaults.margin));
  options.aic_margin = margin;
  MIC_ASSIGN_OR_RETURN(
      std::int64_t min_tail,
      flags.GetInt("min-tail", defaults.min_tail));
  options.min_tail_observations = static_cast<int>(min_tail);
  const std::string criterion = flags.GetString("criterion", "aic");
  if (criterion == "aic") {
    options.criterion = ssm::SelectionCriterion::kAic;
  } else if (criterion == "aicc") {
    options.criterion = ssm::SelectionCriterion::kAicc;
  } else if (criterion == "bic") {
    options.criterion = ssm::SelectionCriterion::kBic;
  } else {
    return Status::InvalidArgument("unknown --criterion: " + criterion);
  }
  const std::string kind = flags.GetString("kind", "slope");
  if (kind == "slope") {
    options.candidate_kinds = {ssm::InterventionKind::kSlopeShift};
  } else if (kind == "level") {
    options.candidate_kinds = {ssm::InterventionKind::kLevelShift};
  } else if (kind == "pulse") {
    options.candidate_kinds = {ssm::InterventionKind::kPulse};
  } else if (kind == "auto") {
    options.candidate_kinds = {ssm::InterventionKind::kSlopeShift,
                               ssm::InterventionKind::kLevelShift};
  } else {
    return Status::InvalidArgument("unknown --kind: " + kind);
  }
  return options;
}

Result<bool> UseExactAlgorithm(const Flags& flags,
                               const DetectorFlagDefaults& defaults) {
  const std::string algorithm =
      flags.GetString("algorithm", std::string(defaults.algorithm));
  if (algorithm == "exact") return true;
  if (algorithm == "approx") return false;
  return Status::InvalidArgument("unknown --algorithm: " + algorithm);
}

}  // namespace mic::tools
