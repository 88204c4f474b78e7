// mictrend command-line tool: the library's pipeline as composable
// shell steps over CSV files. Run `mictrend` with no arguments for the
// usage screen — it is generated from the command table in
// tools/cli_common.cc, the same table that validates the flags.

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include <unistd.h>

#include "cache/fingerprint.h"
#include "common/logging.h"
#include "common/strings.h"
#include "medmodel/series_io.h"
#include "serve/drill_json.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "trend/drilldown.h"
#include "medmodel/timeseries.h"
#include "mic/io.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"
#include "ssm/changepoint.h"
#include "stats/metrics.h"
#include "store/claim_store.h"
#include "synth/generator.h"
#include "synth/scenario.h"
#include "synth/world_io.h"
#include "tools/cli_common.h"
#include "tools/flags.h"
#include "trend/pipeline.h"
#include "trend/report_io.h"
#include "trend/trend_analyzer.h"

namespace mic::tools {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fputs(BuildUsageText().c_str(), stderr);
  return 2;
}

Result<synth::GeneratedData> GenerateFromFlags(const Flags& flags) {
  synth::WorldConfig config;
  if (flags.Has("world")) {
    // Custom world from the world_io text format.
    MIC_ASSIGN_OR_RETURN(
        config, synth::ReadWorldConfigFile(flags.GetString("world")));
  } else {
    synth::PaperWorldOptions options;
    MIC_ASSIGN_OR_RETURN(std::int64_t months, flags.GetInt("months", 43));
    MIC_ASSIGN_OR_RETURN(std::int64_t patients,
                         flags.GetInt("patients", 2000));
    MIC_ASSIGN_OR_RETURN(std::int64_t background,
                         flags.GetInt("background", 40));
    MIC_ASSIGN_OR_RETURN(std::int64_t seed,
                         flags.GetInt("seed", 20190411));
    options.num_months = static_cast<int>(months);
    options.num_patients = static_cast<std::size_t>(patients);
    options.num_background_diseases = static_cast<std::size_t>(background);
    options.seed = static_cast<std::uint64_t>(seed);
    config = synth::MakePaperWorldConfig(options);
  }
  MIC_ASSIGN_OR_RETURN(std::int64_t seed_override,
                       flags.GetInt("seed", 0));
  if (flags.Has("world") && seed_override != 0) {
    config.seed = static_cast<std::uint64_t>(seed_override);
  }
  MIC_ASSIGN_OR_RETURN(synth::World world,
                       synth::World::Create(std::move(config)));
  synth::ClaimGenerator generator(&world);
  return generator.Generate();
}

int RunGenerate(const Flags& flags) {
  auto run = CliRun::FromFlags(flags, /*with_pool=*/false);
  if (!run.ok()) return Fail(run.status());
  const std::string out_path = flags.GetString("out");
  auto data = GenerateFromFlags(flags);
  if (!data.ok()) return Fail(data.status());
  if (Status status = WriteCorpusCsvFile(data->corpus, out_path);
      !status.ok()) {
    return Fail(status);
  }
  std::printf("wrote %zu records over %zu months to %s\n",
              data->corpus.TotalRecords(), data->corpus.num_months(),
              out_path.c_str());
  const std::string hospitals_path = flags.GetString("hospitals-out");
  if (!hospitals_path.empty()) {
    std::ofstream out(hospitals_path);
    if (!out) {
      return Fail(Status::IoError("cannot open " + hospitals_path));
    }
    if (Status status =
            WriteHospitalsCsv(data->corpus.catalog(), out);
        !status.ok()) {
      return Fail(status);
    }
    std::printf("wrote hospital attributes to %s\n",
                hospitals_path.c_str());
  }
  obs::Increment(obs::GetCounter(run->metrics(), "cli.records_written"),
                 data->corpus.TotalRecords());
  obs::Increment(obs::GetCounter(run->metrics(), "cli.months_written"),
                 data->corpus.num_months());
  if (Status status = run->Finish(flags); !status.ok()) {
    return Fail(status);
  }
  return 0;
}

int RunImport(const Flags& flags) {
  auto run = CliRun::FromFlags(flags, /*with_pool=*/false);
  if (!run.ok()) return Fail(run.status());
  auto corpus = ReadCorpusCsvFile(flags.GetString("corpus"));
  if (!corpus.ok()) return Fail(corpus.status());
  const std::string hospitals_path = flags.GetString("hospitals");
  if (!hospitals_path.empty()) {
    std::ifstream in(hospitals_path);
    if (!in) {
      return Fail(Status::IoError("cannot open " + hospitals_path));
    }
    if (Status status = ReadHospitalsCsv(in, corpus->catalog());
        !status.ok()) {
      return Fail(status);
    }
  }
  auto append = flags.GetBool("append", false);
  if (!append.ok()) return Fail(append.status());
  auto store_config = StoreConfigFromFlags(flags);
  if (!store_config.ok()) return Fail(store_config.status());
  auto store = store::ClaimStore::Open(store_config->directory,
                                       {.backend = store_config->backend},
                                       run->metrics());
  if (!store.ok()) return Fail(store.status());
  if (!*append && store->num_months() > 0) {
    return Fail(Status::FailedPrecondition(
        "store at '" + store->directory() + "' already holds " +
        std::to_string(store->num_months()) +
        " months; pass --append to extend it"));
  }
  auto appended = store::ImportCorpus(*corpus, *store);
  if (!appended.ok()) return Fail(appended.status());
  std::printf("imported %zu of %zu months (%zu records) into %s "
              "(%s backend)\n",
              *appended, corpus->num_months(), corpus->TotalRecords(),
              store->directory().c_str(),
              std::string(store->backend_name()).c_str());
  std::printf("store fingerprint: %s\n",
              cache::KeyToHex(store->Fingerprint()).c_str());
  if (Status status = run->Finish(flags); !status.ok()) {
    return Fail(status);
  }
  return 0;
}

int RunStats(const Flags& flags) {
  auto run = CliRun::FromFlags(flags, /*with_pool=*/false);
  if (!run.ok()) return Fail(run.status());
  auto corpus = LoadCorpusFromFlags(flags, *run);
  if (!corpus.ok()) return Fail(corpus.status());
  std::printf("months: %zu\nrecords: %zu\n", corpus->num_months(),
              corpus->TotalRecords());
  double mean_diseases = 0.0;
  double mean_medicines = 0.0;
  std::size_t nonempty = 0;
  for (std::size_t t = 0; t < corpus->num_months(); ++t) {
    const MonthlyDataset& month = corpus->month(t);
    if (month.empty()) continue;
    mean_diseases += month.MeanDiseasesPerRecord();
    mean_medicines += month.MeanMedicinesPerRecord();
    ++nonempty;
    std::printf("  month %2zu: %6zu records, %5zu diseases, %5zu "
                "medicines\n",
                t, month.size(), month.CountDistinctDiseases(),
                month.CountDistinctMedicines());
  }
  if (nonempty > 0) {
    std::printf("mean diseases/record: %.3f\nmean medicines/record: %.3f\n",
                mean_diseases / static_cast<double>(nonempty),
                mean_medicines / static_cast<double>(nonempty));
  }
  obs::Increment(obs::GetCounter(run->metrics(), "cli.records_read"),
                 corpus->TotalRecords());
  if (Status status = run->Finish(flags); !status.ok()) {
    return Fail(status);
  }
  return 0;
}

int RunReproduce(const Flags& flags) {
  auto run = CliRun::FromFlags(flags, /*with_pool=*/true);
  if (!run.ok()) return Fail(run.status());
  auto corpus = LoadCorpusFromFlags(flags, *run);
  if (!corpus.ok()) return Fail(corpus.status());
  const std::string out_path = flags.GetString("out");

  auto config = PipelineConfigFromFlags(flags, DetectorFlagDefaults{});
  if (!config.ok()) return Fail(config.status());

  auto series =
      medmodel::ReproduceSeries(*corpus, config->reproducer,
                                run->context());
  if (!series.ok()) return Fail(series.status());
  if (Status status = medmodel::WriteSeriesCsvFile(
          *series, corpus->catalog(), out_path);
      !status.ok()) {
    return Fail(status);
  }
  std::printf("wrote %zu disease, %zu medicine, %zu prescription series "
              "to %s\n",
              series->num_diseases(), series->num_medicines(),
              series->num_pairs(), out_path.c_str());
  if (Status status = run->Finish(flags); !status.ok()) {
    return Fail(status);
  }
  return 0;
}

int RunDetect(const Flags& flags) {
  Catalog catalog;
  auto series = medmodel::ReadSeriesCsvFile(flags.GetString("series"),
                                            catalog);
  if (!series.ok()) return Fail(series.status());

  auto run = CliRun::FromFlags(flags, /*with_pool=*/true);
  if (!run.ok()) return Fail(run.status());

  const DetectorFlagDefaults defaults;  // margin 0, tail 1, exact
  auto options = DetectorOptionsFromFlags(flags, defaults);
  if (!options.ok()) return Fail(options.status());
  auto exact = UseExactAlgorithm(flags, defaults);
  if (!exact.ok()) return Fail(exact.status());
  auto max_breaks = flags.GetInt("max-breaks", 1);
  if (!max_breaks.ok()) return Fail(max_breaks.status());

  std::printf("kind,disease,medicine,change,month,lambda,criterion,"
              "criterion_no_change\n");

  const auto kind_name = [](trend::SeriesKind kind) {
    return kind == trend::SeriesKind::kDisease
               ? "disease"
               : (kind == trend::SeriesKind::kMedicine ? "medicine"
                                                       : "prescription");
  };
  const auto disease_name = [&catalog](trend::SeriesKind kind,
                                       DiseaseId d) {
    return kind != trend::SeriesKind::kMedicine
               ? catalog.diseases().Name(d)
               : std::string("-");
  };
  const auto medicine_name = [&catalog](trend::SeriesKind kind,
                                        MedicineId m) {
    return kind != trend::SeriesKind::kDisease
               ? catalog.medicines().Name(m)
               : std::string("-");
  };

  if (*max_breaks > 1) {
    // Multi-break report: run the greedy extension per series, serially
    // (the multi-break search is itself the expensive path).
    ssm::ChangePointOptions detector_options = *options;
    detector_options.fit.metrics = run->metrics();
    auto emit = [&](trend::SeriesKind kind, DiseaseId d, MedicineId m,
                    const std::vector<double>& values) {
      std::vector<double> normalized = values;
      const double sd = stats::StdDev(values);
      if (sd > 0.0) {
        for (double& value : normalized) value /= sd;
      }
      ssm::ChangePointDetector detector(normalized, detector_options);
      auto result = detector.DetectMultiple(static_cast<int>(*max_breaks));
      if (!result.ok()) return;
      std::string months;
      std::string lambdas;
      for (std::size_t k = 0; k < result->interventions.size(); ++k) {
        if (k > 0) {
          months += '|';
          lambdas += '|';
        }
        months += std::to_string(result->interventions[k].change_point);
        lambdas += StrFormat(
            "%.3f", (k < result->best_model.lambdas.size()
                         ? result->best_model.lambdas[k] * sd
                         : 0.0));
      }
      std::printf("%s,%s,%s,%d,%s,%s,%.3f,%.3f\n", kind_name(kind),
                  disease_name(kind, d).c_str(),
                  medicine_name(kind, m).c_str(),
                  result->interventions.empty() ? 0 : 1,
                  months.empty() ? "-" : months.c_str(),
                  lambdas.empty() ? "-" : lambdas.c_str(),
                  result->best_aic, result->aic_without_intervention);
    };
    series->ForEachDisease([&](DiseaseId d, const std::vector<double>& v) {
      emit(trend::SeriesKind::kDisease, d, MedicineId(), v);
    });
    series->ForEachMedicine(
        [&](MedicineId m, const std::vector<double>& v) {
          emit(trend::SeriesKind::kMedicine, DiseaseId(), m, v);
        });
    series->ForEachPair(
        [&](DiseaseId d, MedicineId m, const std::vector<double>& v) {
          emit(trend::SeriesKind::kPrescription, d, m, v);
        });
  } else {
    // Single-break: analyze every series through AnalyzeAll so --threads
    // parallelizes the fits; the report preserves the serial traversal
    // order, so the printed rows are bit-identical at any thread count.
    trend::TrendAnalyzerOptions analyzer_options;
    analyzer_options.detector = *options;
    analyzer_options.use_approximate = !*exact;
    trend::TrendAnalyzer analyzer(analyzer_options);
    auto report = analyzer.AnalyzeAll(run->context(), *series);
    if (!report.ok()) return Fail(report.status());
    auto emit_analysis = [&](const trend::SeriesAnalysis& analysis) {
      std::printf("%s,%s,%s,%d,%d,%.3f,%.3f,%.3f\n",
                  kind_name(analysis.kind),
                  disease_name(analysis.kind, analysis.disease).c_str(),
                  medicine_name(analysis.kind, analysis.medicine).c_str(),
                  analysis.has_change ? 1 : 0, analysis.change_point,
                  analysis.lambda, analysis.aic,
                  analysis.aic_without_intervention);
    };
    for (const trend::SeriesAnalysis& analysis : report->diseases) {
      emit_analysis(analysis);
    }
    for (const trend::SeriesAnalysis& analysis : report->medicines) {
      emit_analysis(analysis);
    }
    for (const trend::SeriesAnalysis& analysis : report->prescriptions) {
      emit_analysis(analysis);
    }
  }
  if (Status status = run->Finish(flags); !status.ok()) {
    return Fail(status);
  }
  return 0;
}

int RunPipeline(const Flags& flags) {
  auto run = CliRun::FromFlags(flags, /*with_pool=*/true);
  if (!run.ok()) return Fail(run.status());
  auto corpus = LoadCorpusFromFlags(flags, *run);
  if (!corpus.ok()) return Fail(corpus.status());

  const DetectorFlagDefaults defaults{4.0, 3, "approx"};
  auto config = PipelineConfigFromFlags(flags, defaults);
  if (!config.ok()) return Fail(config.status());

  auto result = trend::RunPipeline(*corpus, *config, run->context());
  if (!result.ok()) return Fail(result.status());
  const medmodel::SeriesSet& series = result->series;
  const trend::TrendReport& report = result->report;
  std::printf("reproduced %zu disease, %zu medicine, %zu prescription "
              "series\n",
              series.num_diseases(), series.num_medicines(),
              series.num_pairs());

  trend::TrendAnalyzer analyzer(config->analyzer);
  const Catalog& catalog = corpus->catalog();
  const std::string out_path = flags.GetString("out");
  if (!out_path.empty()) {
    if (Status status = trend::WriteReportCsvFile(report, analyzer,
                                                  catalog, out_path);
        !status.ok()) {
      return Fail(status);
    }
    std::printf("wrote analysis report to %s\n", out_path.c_str());
  }
  std::printf("\ndetected changes (algorithm %s, margin %g, tail %d):\n",
              config->analyzer.use_approximate ? "2 (approx)"
                                               : "1 (exact)",
              config->analyzer.detector.aic_margin,
              config->analyzer.detector.min_tail_observations);
  for (const trend::SeriesAnalysis& analysis : report.medicines) {
    if (!analysis.has_change) continue;
    std::printf("  medicine      %-32s month %2d  lambda %+8.2f\n",
                catalog.medicines().Name(analysis.medicine).c_str(),
                analysis.change_point, analysis.lambda);
  }
  for (const trend::SeriesAnalysis& analysis : report.diseases) {
    if (!analysis.has_change) continue;
    std::printf("  disease       %-32s month %2d  lambda %+8.2f\n",
                catalog.diseases().Name(analysis.disease).c_str(),
                analysis.change_point, analysis.lambda);
  }
  for (const trend::SeriesAnalysis& analysis : report.prescriptions) {
    if (!analysis.has_change) continue;
    const trend::ChangeCause cause =
        analyzer.ClassifyPrescriptionChange(report, analysis);
    std::printf("  prescription  %s -> %s  month %2d  %s\n",
                catalog.diseases().Name(analysis.disease).c_str(),
                catalog.medicines().Name(analysis.medicine).c_str(),
                analysis.change_point,
                std::string(trend::ChangeCauseName(cause)).c_str());
  }
  if (Status status = run->Finish(flags); !status.ok()) {
    return Fail(status);
  }
  return 0;
}

int RunDrilldown(const Flags& flags) {
  auto run = CliRun::FromFlags(flags, /*with_pool=*/true);
  if (!run.ok()) return Fail(run.status());
  auto corpus = LoadCorpusFromFlags(flags, *run);
  if (!corpus.ok()) return Fail(corpus.status());
  const std::string hospitals_path = flags.GetString("hospitals");
  if (!hospitals_path.empty()) {
    std::ifstream in(hospitals_path);
    if (!in) {
      return Fail(Status::IoError("cannot open " + hospitals_path));
    }
    if (Status status = ReadHospitalsCsv(in, corpus->catalog());
        !status.ok()) {
      return Fail(status);
    }
  }
  auto axis = trend::ParseDrillAxis(flags.GetString("axis"));
  if (!axis.ok()) return Fail(axis.status());
  auto min_share = flags.GetDouble("min-share", 0.6);
  if (!min_share.ok()) return Fail(min_share.status());
  if (!(*min_share > 0.0) || *min_share > 1.0) {
    return Fail(Status::InvalidArgument("--min-share must be in (0, 1]"));
  }
  if (flags.Has("explain-out") && !flags.Has("explain")) {
    return Fail(Status::InvalidArgument(
        "--explain-out requires --explain <node>"));
  }

  const DetectorFlagDefaults defaults{4.0, 3, "approx"};
  auto config = PipelineConfigFromFlags(flags, defaults);
  if (!config.ok()) return Fail(config.status());
  config->drilldown_axes = {*axis};

  auto result = trend::RunPipeline(*corpus, *config, run->context());
  if (!result.ok()) return Fail(result.status());
  const trend::DrillDownReport& drill = result->drilldowns.front();

  std::size_t leaves = 0;
  std::size_t changed = 0;
  for (const trend::DrillNode& node : drill.nodes) {
    if (node.is_leaf) ++leaves;
    if (node.analysis.has_change) ++changed;
  }
  std::printf("%s axis: %zu nodes (%zu leaves) over %d months, "
              "%zu with a detected change\n",
              std::string(trend::DrillAxisName(drill.axis)).c_str(),
              drill.nodes.size(), leaves, drill.num_months, changed);

  const std::string out_path = flags.GetString("out");
  if (!out_path.empty()) {
    if (Status status = trend::WriteDrillDownCsvFile(drill, out_path);
        !status.ok()) {
      return Fail(status);
    }
    std::printf("wrote drill-down CSV to %s\n", out_path.c_str());
  }
  const std::string json_path = flags.GetString("json");
  if (!json_path.empty()) {
    // Byte-identical to `query --op drilldown --out`: same renderer,
    // same deterministic serialization (the drill-smoke gate relies on
    // this).
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      return Fail(Status::IoError("cannot open " + json_path));
    }
    out << serve::DrillDownToJson(drill).Serialize() << "\n";
    std::printf("wrote drill-down JSON to %s\n", json_path.c_str());
  }
  if (flags.Has("explain")) {
    auto explain =
        trend::ExplainShift(drill, flags.GetString("explain"), *min_share);
    if (!explain.ok()) return Fail(explain.status());
    std::printf("shift of '%s' at month %d (delta %+.3f):\n",
                explain->target.c_str(), explain->change_month,
                explain->delta);
    for (const trend::ExplainStep& step : explain->path) {
      std::printf("  %-40s delta %+10.3f  share %.3f\n",
                  step.node.c_str(), step.delta, step.share);
    }
    std::printf("driver: %s (%.1f%% of the shift)\n",
                explain->driver.c_str(), 100.0 * explain->driver_share);
    const std::string explain_path = flags.GetString("explain-out");
    if (!explain_path.empty()) {
      std::ofstream out(explain_path, std::ios::binary);
      if (!out) {
        return Fail(Status::IoError("cannot open " + explain_path));
      }
      out << serve::ExplainToJson(drill, *explain).Serialize() << "\n";
      std::printf("wrote explain JSON to %s\n", explain_path.c_str());
    }
  }
  if (Status status = run->Finish(flags); !status.ok()) {
    return Fail(status);
  }
  return 0;
}

int RunServe(const Flags& flags) {
  // force_metrics: the daemon's `metrics` endpoint and the cache.*
  // warm-start counters need a registry whether or not this run also
  // exports --metrics-out at exit. force_trace: the daemon records
  // request-scoped spans whether or not --trace-out exports them.
  auto run = CliRun::FromFlags(flags, /*with_pool=*/true,
                               /*force_metrics=*/true,
                               /*force_trace=*/true);
  if (!run.ok()) return Fail(run.status());

  const DetectorFlagDefaults defaults{4.0, 3, "approx"};
  auto config = PipelineConfigFromFlags(flags, defaults);
  if (!config.ok()) return Fail(config.status());

  auto service = serve::TrendService::Create(*config, run->context());
  if (!service.ok()) return Fail(service.status());

  serve::ServerOptions options;
  options.host = flags.GetString("host", "127.0.0.1");
  auto port = flags.GetInt("port", 0);
  if (!port.ok()) return Fail(port.status());
  options.port = static_cast<int>(*port);
  auto workers = flags.GetInt("workers", 4);
  if (!workers.ok()) return Fail(workers.status());
  options.num_workers = static_cast<int>(*workers);
  auto max_pending = flags.GetInt("max-pending", 64);
  if (!max_pending.ok()) return Fail(max_pending.status());
  options.max_pending = static_cast<int>(*max_pending);
  auto max_frame = flags.GetInt(
      "max-frame", static_cast<std::int64_t>(options.limits.max_frame_bytes));
  if (!max_frame.ok()) return Fail(max_frame.status());
  if (*max_frame < 16) {
    return Fail(Status::InvalidArgument(
        "--max-frame must be at least 16 bytes"));
  }
  options.limits.max_frame_bytes = static_cast<std::size_t>(*max_frame);
  options.access_log_path = flags.GetString("access-log");
  auto stall_ms = flags.GetInt("swap-stall-ms", 1000);
  if (!stall_ms.ok()) return Fail(stall_ms.status());
  options.swap_stall_deadline_ms = static_cast<int>(*stall_ms);

  auto server = serve::TcpServer::Start(service->get(), options);
  if (!server.ok()) return Fail(server.status());
  std::printf("serving on %s:%d (%d workers)\n", options.host.c_str(),
              (*server)->port(), options.num_workers);
  std::fflush(stdout);
  const std::string port_file = flags.GetString("port-file");
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    if (!out) {
      return Fail(Status::IoError("cannot open " + port_file));
    }
    out << (*server)->port() << "\n";
  }
  if (Status status = (*server)->Serve(); !status.ok()) {
    return Fail(status);
  }
  std::printf("server stopped\n");
  if (Status status = run->Finish(flags); !status.ok()) {
    return Fail(status);
  }
  return 0;
}

// Builds the request document for `op` from the flags, driven entirely
// by the op's registry row: each declared parameter maps to the flag
// CliFlagName(param) and is encoded per its declared type. Flags that
// belong to a DIFFERENT op are rejected up front (mirror of the
// server's unknown-parameter policy), as are missing required ones —
// both fail client-side with the flag's name instead of a wire round
// trip.
Result<serve::JsonValue> BuildQueryRequest(const serve::EndpointSpec& spec,
                                           const Flags& flags) {
  for (const serve::EndpointSpec& other : serve::EndpointTable()) {
    for (const serve::ParamSpec& param : other.params) {
      if (spec.FindParam(param.name) != nullptr) continue;
      const std::string flag = CliFlagName(param.name);
      if (flags.Has(flag)) {
        return Status::InvalidArgument(
            "--" + flag + " does not apply to op '" +
            std::string(spec.name) + "'");
      }
    }
  }
  serve::JsonValue request = serve::JsonValue::Object();
  request.Set("op", serve::JsonValue::String(std::string(spec.name)));
  for (const serve::ParamSpec& param : spec.params) {
    const std::string flag = CliFlagName(param.name);
    if (!flags.Has(flag)) {
      if (param.required) {
        return Status::InvalidArgument(
            "query --op " + std::string(spec.name) + ": --" + flag +
            " is required");
      }
      continue;
    }
    const std::string key(param.name);
    switch (param.type) {
      case serve::ParamType::kString:
        request.Set(key, serve::JsonValue::String(flags.GetString(flag)));
        break;
      case serve::ParamType::kInt: {
        MIC_ASSIGN_OR_RETURN(const std::int64_t value,
                             flags.GetInt(flag, 0));
        request.Set(key, serve::JsonValue::Int(value));
        break;
      }
      case serve::ParamType::kDouble: {
        MIC_ASSIGN_OR_RETURN(const double value,
                             flags.GetDouble(flag, 0.0));
        request.Set(key, serve::JsonValue::Number(value));
        break;
      }
      case serve::ParamType::kBool: {
        MIC_ASSIGN_OR_RETURN(const bool value, flags.GetBool(flag, false));
        request.Set(key, serve::JsonValue::Bool(value));
        break;
      }
      case serve::ParamType::kStringList: {
        serve::JsonValue list = serve::JsonValue::Array();
        for (const std::string& item : Split(flags.GetString(flag), ',')) {
          list.Append(serve::JsonValue::String(item));
        }
        request.Set(key, std::move(list));
        break;
      }
      case serve::ParamType::kIntList: {
        serve::JsonValue list = serve::JsonValue::Array();
        for (const std::string& item : Split(flags.GetString(flag), ',')) {
          MIC_ASSIGN_OR_RETURN(const std::int64_t parsed,
                               ParseInt64(item));
          list.Append(serve::JsonValue::Int(parsed));
        }
        request.Set(key, std::move(list));
        break;
      }
    }
  }
  return request;
}

int RunQuery(const Flags& flags) {
  auto run = CliRun::FromFlags(flags, /*with_pool=*/false);
  if (!run.ok()) return Fail(run.status());
  const std::string op = flags.GetString("op", "health");
  const serve::EndpointSpec* spec = serve::FindEndpoint(op);
  if (spec == nullptr) {
    std::string ops;
    for (const serve::EndpointSpec& endpoint : serve::EndpointTable()) {
      if (!ops.empty()) ops += '|';
      ops += endpoint.name;
    }
    return Fail(Status::InvalidArgument("unknown --op: " + op +
                                        " (expected " + ops + ")"));
  }
  auto request = BuildQueryRequest(*spec, flags);
  if (!request.ok()) return Fail(request.status());

  auto port = flags.GetInt("port", 0);
  if (!port.ok()) return Fail(port.status());
  auto fd = serve::ConnectTcp(flags.GetString("host", "127.0.0.1"),
                              static_cast<int>(*port));
  if (!fd.ok()) return Fail(fd.status());
  serve::WireLimits limits;
  auto timeout = flags.GetInt("timeout-ms", 30000);
  if (!timeout.ok()) return Fail(timeout.status());
  limits.timeout_ms = static_cast<int>(*timeout);
  auto response = serve::RoundTrip(*fd, *request, limits);
  ::close(*fd);
  if (!response.ok()) return Fail(response.status());

  // --out treatment follows the registry's per-op ResponseMode:
  // kRawMember writes data[raw_member]'s raw bytes (report_csv
  // byte-compares against the offline `pipeline --out` artifact),
  // kDataOnly writes data's deterministic serialization (drilldown /
  // explain byte-compare against `mictrend drilldown` output), and
  // kEnvelope writes the whole response.
  const bool ok = response->GetBool("ok", false);
  const std::string out_path = flags.GetString("out");
  const serve::JsonValue* data = response->Find("data");
  if (ok && !out_path.empty() && data != nullptr &&
      spec->response == serve::ResponseMode::kRawMember) {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      return Fail(Status::IoError("cannot open " + out_path));
    }
    out << data->GetString(std::string(spec->raw_member));
  } else if (ok && !out_path.empty() && data != nullptr &&
             spec->response == serve::ResponseMode::kDataOnly) {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      return Fail(Status::IoError("cannot open " + out_path));
    }
    out << data->Serialize() << "\n";
  } else if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      return Fail(Status::IoError("cannot open " + out_path));
    }
    out << response->Serialize() << "\n";
  } else {
    std::printf("%s\n", response->Serialize().c_str());
  }
  if (Status status = run->Finish(flags); !status.ok()) {
    return Fail(status);
  }
  return ok ? 0 : 1;
}

int Main(int argc, char** argv) {
  ApplyLogLevelFromEnv();
  auto flags = Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 flags.status().ToString().c_str());
    return Usage();
  }
  const CommandSpec* spec = FindCommand(flags->command());
  if (spec == nullptr) return Usage();
  if (Status status = ValidateFlags(*spec, *flags); !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return Usage();
  }
  const std::string& command = flags->command();
  if (command == "generate") return RunGenerate(*flags);
  if (command == "import") return RunImport(*flags);
  if (command == "stats") return RunStats(*flags);
  if (command == "reproduce") return RunReproduce(*flags);
  if (command == "detect") return RunDetect(*flags);
  if (command == "pipeline") return RunPipeline(*flags);
  if (command == "drilldown") return RunDrilldown(*flags);
  if (command == "serve") return RunServe(*flags);
  if (command == "query") return RunQuery(*flags);
  return Usage();
}

}  // namespace
}  // namespace mic::tools

int main(int argc, char** argv) { return mic::tools::Main(argc, argv); }
