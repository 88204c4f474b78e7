#include "serve/service.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <fstream>
#include <utility>
#include <vector>

#include "apps/geo_spread.h"
#include "apps/hospital_gap.h"
#include "cache/fingerprint.h"
#include "mic/io.h"
#include "obs/trace.h"
#include "serve/drill_json.h"

namespace mic::serve {
namespace {

std::string_view ErrorCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kInvalidArgument:
      return "bad_request";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kFailedPrecondition:
    case StatusCode::kAlreadyExists:
      return "conflict";
    case StatusCode::kIoError:
      return "io_error";
    default:
      return "internal";
  }
}

std::string_view KindName(trend::SeriesKind kind) {
  switch (kind) {
    case trend::SeriesKind::kDisease:
      return "disease";
    case trend::SeriesKind::kMedicine:
      return "medicine";
    case trend::SeriesKind::kPrescription:
      return "prescription";
  }
  return "prescription";
}

Result<trend::SeriesKind> ParseKind(const std::string& kind) {
  if (kind == "disease") return trend::SeriesKind::kDisease;
  if (kind == "medicine") return trend::SeriesKind::kMedicine;
  if (kind == "prescription") return trend::SeriesKind::kPrescription;
  return Status::InvalidArgument(
      "unknown series kind '" + kind +
      "' (expected disease, medicine, or prescription)");
}

/// The standard success envelope: the version/months pair next to the
/// payload is what clients assert snapshot consistency against.
JsonValue Envelope(const WorldSnapshot& snapshot, JsonValue data) {
  JsonValue response = JsonValue::Object();
  response.Set("ok", JsonValue::Bool(true))
      .Set("version",
           JsonValue::Int(static_cast<std::int64_t>(snapshot.version)))
      .Set("months",
           JsonValue::Int(static_cast<std::int64_t>(snapshot.months)))
      .Set("data", std::move(data));
  return response;
}

/// One SeriesAnalysis as a JSON object, mirroring the report CSV's
/// columns (absent names print "-", cause is filled only for
/// prescription rows with a detected change).
JsonValue AnalysisToJson(const WorldSnapshot& snapshot,
                         const trend::SeriesAnalysis& analysis) {
  const Catalog& catalog = snapshot.corpus.catalog();
  JsonValue row = JsonValue::Object();
  row.Set("kind", JsonValue::String(std::string(KindName(analysis.kind))));
  row.Set("disease",
          JsonValue::String(
              analysis.kind != trend::SeriesKind::kMedicine
                  ? catalog.diseases().Name(analysis.disease)
                  : std::string("-")));
  row.Set("medicine",
          JsonValue::String(
              analysis.kind != trend::SeriesKind::kDisease
                  ? catalog.medicines().Name(analysis.medicine)
                  : std::string("-")));
  row.Set("change", JsonValue::Bool(analysis.has_change));
  row.Set("month", JsonValue::Int(analysis.change_point));
  row.Set("lambda", JsonValue::Number(analysis.lambda));
  row.Set("criterion", JsonValue::Number(analysis.aic));
  row.Set("criterion_no_change",
          JsonValue::Number(analysis.aic_without_intervention));
  std::string cause = "-";
  if (analysis.kind == trend::SeriesKind::kPrescription &&
      analysis.has_change) {
    cause = std::string(trend::ChangeCauseName(
        snapshot.analyzer.ClassifyPrescriptionChange(snapshot.report,
                                                     analysis)));
  }
  row.Set("cause", JsonValue::String(std::move(cause)));
  return row;
}

}  // namespace

JsonValue ErrorEnvelope(const Status& status) {
  JsonValue error = JsonValue::Object();
  error.Set("code",
            JsonValue::String(std::string(ErrorCodeName(status.code()))));
  error.Set("message", JsonValue::String(status.message()));
  JsonValue response = JsonValue::Object();
  response.Set("ok", JsonValue::Bool(false))
      .Set("error", std::move(error));
  return response;
}

TrendService::TrendService(const trend::PipelineConfig& config,
                           const ExecContext& context,
                           store::ClaimStore store)
    : config_(config), context_(context), store_(std::move(store)),
      windows_(std::make_unique<obs::WindowRegistry>()) {
  const std::span<const EndpointSpec> endpoints = EndpointTable();
  for (std::size_t i = 0; i < kNumOpSlots; ++i) {
    const std::string_view name =
        i == endpoints.size() ? "unknown" : endpoints[i].name;
    op_windows_[i] = windows_->channel("serve." + std::string(name));
  }
  drain_channel_ = windows_->channel("serve.swap.drain");
}

Result<std::unique_ptr<TrendService>> TrendService::Create(
    const trend::PipelineConfig& config, const ExecContext& context) {
  MIC_RETURN_IF_ERROR(config.Validate());
  if (!config.store.enabled()) {
    return Status::InvalidArgument(
        "serve requires a claim store (--store-dir): the daemon's world "
        "lives in the store, not in a CSV");
  }
  MIC_ASSIGN_OR_RETURN(
      store::ClaimStore store,
      store::ClaimStore::Open(config.store.directory,
                              {.backend = config.store.backend},
                              context.metrics));
  if (store.num_months() == 0) {
    return Status::FailedPrecondition(
        "store at '" + store.directory() +
        "' is empty; run `mictrend import` first");
  }
  auto service = std::unique_ptr<TrendService>(
      new TrendService(config, context, std::move(store)));
  MIC_ASSIGN_OR_RETURN(
      const WorldSnapshot* first,
      BuildSnapshot(1, service->store_, service->config_,
                    service->context_));
  service->hub_.Publish(first);
  obs::Increment(
      obs::GetCounter(service->context_.metrics,
                      "serve.snapshots_published"));
  return service;
}

JsonValue TrendService::Handle(const JsonValue& request,
                               const SnapshotReader& reader) {
  const std::string op = request.GetString("op");
  const auto start = std::chrono::steady_clock::now();
  JsonValue response;
  {
    // The trace event nests under the transport's current span path
    // ("req/<id>/serve/<op>" when the server opened a request span).
    obs::ScopedTimer trace_event(nullptr, context_.trace, "serve/" + op);
    const std::int64_t protocol =
        request.GetInt("protocol", kProtocolVersion);
    if (protocol != kProtocolVersion) {
      response = ErrorEnvelope(Status::InvalidArgument(
          "unsupported protocol version " + std::to_string(protocol) +
          " (this server speaks " + std::to_string(kProtocolVersion) +
          ")"));
    } else {
      Result<JsonValue> result = Dispatch(op, request, reader);
      response = result.ok() ? std::move(result).value()
                             : ErrorEnvelope(result.status());
    }
  }
  const double seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - start)
          .count();
  op_windows_[EndpointIndex(op)]->Record(seconds,
                                         !response.GetBool("ok", false));
  return response;
}

Result<JsonValue> TrendService::Dispatch(const std::string& op,
                                         const JsonValue& request,
                                         const SnapshotReader& reader) {
  // Positional handler binding for the registry's endpoint table: one
  // row per EndpointTable() entry, in table order. Mutating ops carry
  // nullptr — they are routed below, before a snapshot pin exists.
  using QueryHandler = Result<JsonValue> (TrendService::*)(
      const JsonValue&, const WorldSnapshot&);
  static constexpr std::array<QueryHandler, kNumEndpoints> kHandlers = {
      &TrendService::HandleHealth,      &TrendService::HandleMetrics,
      &TrendService::HandleStats,       &TrendService::HandleSeries,
      &TrendService::HandleTopChanges,  &TrendService::HandleGeoSpread,
      &TrendService::HandleHospitalGap, &TrendService::HandleDrilldown,
      &TrendService::HandleExplain,     &TrendService::HandleReportCsv,
      /*ingest=*/nullptr,               &TrendService::HandleShutdown,
  };
  const std::size_t index = EndpointIndex(op);
  if (index >= kNumEndpoints) {
    return Status::InvalidArgument("unknown op '" + op + "'");
  }
  const EndpointSpec& spec = EndpointTable()[index];
  MIC_RETURN_IF_ERROR(ValidateRequest(spec, request));
  if (spec.mutates) {
    // No pin: the ingest path publishes, and Publish waits for pins of
    // the superseded snapshot — holding one here would self-deadlock.
    return HandleIngest(request);
  }
  SnapshotPin pin = hub_.Acquire(reader);
  return (this->*kHandlers[index])(request, *pin);
}

Result<JsonValue> TrendService::HandleHealth(
    const JsonValue& /*request*/, const WorldSnapshot& snapshot) {
  JsonValue data = JsonValue::Object();
  data.Set("status", JsonValue::String("ok"));
  data.Set("protocol", JsonValue::Int(kProtocolVersion));
  data.Set("store_fingerprint",
           JsonValue::String(cache::KeyToHex(snapshot.store_fingerprint)));
  data.Set("diseases",
           JsonValue::Int(
               static_cast<std::int64_t>(snapshot.series.num_diseases())));
  data.Set("medicines",
           JsonValue::Int(static_cast<std::int64_t>(
               snapshot.series.num_medicines())));
  data.Set("prescriptions",
           JsonValue::Int(
               static_cast<std::int64_t>(snapshot.series.num_pairs())));
  return Envelope(snapshot, std::move(data));
}

Result<JsonValue> TrendService::HandleMetrics(
    const JsonValue& /*request*/, const WorldSnapshot& snapshot) {
  JsonValue counters = JsonValue::Object();
  if (context_.metrics != nullptr) {
    // CountersToJson is already the deterministic sorted-name JSON
    // object; parse it into the document rather than re-walking the
    // registry.
    MIC_ASSIGN_OR_RETURN(counters,
                         JsonValue::Parse(context_.metrics->CountersToJson()));
  }
  JsonValue data = JsonValue::Object();
  data.Set("counters", std::move(counters));
  return Envelope(snapshot, std::move(data));
}

Result<JsonValue> TrendService::HandleStats(
    const JsonValue& /*request*/, const WorldSnapshot& snapshot) {
  // ToJson is the single source for both this op and the HTTP /varz
  // body; parsing it into the envelope keeps the two byte-equivalent in
  // structure.
  MIC_ASSIGN_OR_RETURN(JsonValue data,
                       JsonValue::Parse(windows_->ToJson()));
  return Envelope(snapshot, std::move(data));
}

Result<JsonValue> TrendService::HandleSeries(
    const JsonValue& request, const WorldSnapshot& snapshot) {
  MIC_ASSIGN_OR_RETURN(
      const trend::SeriesKind kind,
      ParseKind(request.GetString("kind", "prescription")));
  const Catalog& catalog = snapshot.corpus.catalog();
  DiseaseId disease;
  MedicineId medicine;
  if (kind != trend::SeriesKind::kMedicine) {
    const std::string name = request.GetString("disease");
    if (name.empty()) {
      return Status::InvalidArgument("missing 'disease' name");
    }
    MIC_ASSIGN_OR_RETURN(disease, catalog.diseases().Lookup(name));
  }
  if (kind != trend::SeriesKind::kDisease) {
    const std::string name = request.GetString("medicine");
    if (name.empty()) {
      return Status::InvalidArgument("missing 'medicine' name");
    }
    MIC_ASSIGN_OR_RETURN(medicine, catalog.medicines().Lookup(name));
  }
  const trend::SeriesAnalysis* analysis = nullptr;
  switch (kind) {
    case trend::SeriesKind::kDisease: {
      auto it = snapshot.report.disease_index.find(disease);
      if (it != snapshot.report.disease_index.end()) {
        analysis = &snapshot.report.diseases[it->second];
      }
      break;
    }
    case trend::SeriesKind::kMedicine: {
      auto it = snapshot.report.medicine_index.find(medicine);
      if (it != snapshot.report.medicine_index.end()) {
        analysis = &snapshot.report.medicines[it->second];
      }
      break;
    }
    case trend::SeriesKind::kPrescription: {
      for (const trend::SeriesAnalysis& row :
           snapshot.report.prescriptions) {
        if (row.disease == disease && row.medicine == medicine) {
          analysis = &row;
          break;
        }
      }
      break;
    }
  }
  if (analysis == nullptr) {
    return Status::NotFound(
        "no analyzed series for the requested keys (rare series are "
        "pruned before analysis; see --min-total)");
  }
  return Envelope(snapshot, AnalysisToJson(snapshot, *analysis));
}

Result<JsonValue> TrendService::HandleTopChanges(
    const JsonValue& request, const WorldSnapshot& snapshot) {
  const std::string kind_name = request.GetString("kind", "all");
  const std::int64_t k = request.GetInt("k", 10);
  if (k <= 0) {
    return Status::InvalidArgument("'k' must be positive");
  }
  bool include[3] = {true, true, true};
  if (kind_name != "all") {
    MIC_ASSIGN_OR_RETURN(const trend::SeriesKind kind,
                         ParseKind(kind_name));
    include[0] = kind == trend::SeriesKind::kDisease;
    include[1] = kind == trend::SeriesKind::kMedicine;
    include[2] = kind == trend::SeriesKind::kPrescription;
  }
  std::vector<const trend::SeriesAnalysis*> changed;
  const auto collect = [&changed](
                           const std::vector<trend::SeriesAnalysis>& rows) {
    for (const trend::SeriesAnalysis& row : rows) {
      if (row.has_change) changed.push_back(&row);
    }
  };
  if (include[0]) collect(snapshot.report.diseases);
  if (include[1]) collect(snapshot.report.medicines);
  if (include[2]) collect(snapshot.report.prescriptions);
  // Rank by AIC improvement of modeling the intervention; stable sort
  // keeps the deterministic report order among ties.
  std::stable_sort(changed.begin(), changed.end(),
                   [](const trend::SeriesAnalysis* a,
                      const trend::SeriesAnalysis* b) {
                     return (a->aic_without_intervention - a->aic) >
                            (b->aic_without_intervention - b->aic);
                   });
  if (changed.size() > static_cast<std::size_t>(k)) {
    changed.resize(static_cast<std::size_t>(k));
  }
  JsonValue rows = JsonValue::Array();
  for (const trend::SeriesAnalysis* row : changed) {
    JsonValue entry = AnalysisToJson(snapshot, *row);
    entry.Set("criterion_drop",
              JsonValue::Number(row->aic_without_intervention - row->aic));
    rows.Append(std::move(entry));
  }
  JsonValue data = JsonValue::Object();
  data.Set("changes", std::move(rows));
  return Envelope(snapshot, std::move(data));
}

Result<JsonValue> TrendService::HandleGeoSpread(
    const JsonValue& request, const WorldSnapshot& snapshot) {
  const Catalog& catalog = snapshot.corpus.catalog();
  const JsonValue* medicine_names = request.Find("medicines");
  if (medicine_names == nullptr || !medicine_names->is_array() ||
      medicine_names->items().empty()) {
    return Status::InvalidArgument(
        "'medicines' must be a non-empty array of medicine names");
  }
  std::vector<MedicineId> medicines;
  for (const JsonValue& name : medicine_names->items()) {
    if (!name.is_string()) {
      return Status::InvalidArgument("'medicines' entries must be strings");
    }
    MIC_ASSIGN_OR_RETURN(const MedicineId id,
                         catalog.medicines().Lookup(name.string_value()));
    medicines.push_back(id);
  }
  apps::GeoSpreadOptions options;
  options.reproducer = config_.reproducer;
  const JsonValue* months = request.Find("snapshot_months");
  if (months == nullptr || !months->is_array() ||
      months->items().empty()) {
    return Status::InvalidArgument(
        "'snapshot_months' must be a non-empty array of month indexes");
  }
  for (const JsonValue& month : months->items()) {
    if (!month.is_number()) {
      return Status::InvalidArgument(
          "'snapshot_months' entries must be integers");
    }
    const std::int64_t t = month.int_value();
    if (t < 0 || t >= static_cast<std::int64_t>(snapshot.months)) {
      return Status::OutOfRange(
          "snapshot month " + std::to_string(t) +
          " outside [0, " + std::to_string(snapshot.months) + ")");
    }
    options.snapshot_months.push_back(static_cast<int>(t));
  }
  MIC_ASSIGN_OR_RETURN(
      const apps::GeoSpreadReport report,
      apps::AnalyzeGeoSpread(snapshot.corpus, medicines, options));
  JsonValue month_list = JsonValue::Array();
  for (const int t : report.snapshot_months) {
    month_list.Append(JsonValue::Int(t));
  }
  JsonValue cells = JsonValue::Array();
  for (const apps::GeoCell& cell : report.cells) {
    JsonValue counts = JsonValue::Array();
    for (const double count : cell.counts) {
      counts.Append(JsonValue::Number(count));
    }
    JsonValue row = JsonValue::Object();
    row.Set("city", JsonValue::String(catalog.cities().Name(cell.city)));
    row.Set("medicine",
            JsonValue::String(catalog.medicines().Name(cell.medicine)));
    row.Set("counts", std::move(counts));
    cells.Append(std::move(row));
  }
  JsonValue data = JsonValue::Object();
  data.Set("snapshot_months", std::move(month_list));
  data.Set("cells", std::move(cells));
  return Envelope(snapshot, std::move(data));
}

Result<JsonValue> TrendService::HandleHospitalGap(
    const JsonValue& request, const WorldSnapshot& snapshot) {
  const Catalog& catalog = snapshot.corpus.catalog();
  const std::string medicine_name = request.GetString("medicine");
  if (medicine_name.empty()) {
    return Status::InvalidArgument("missing 'medicine' name");
  }
  MIC_ASSIGN_OR_RETURN(const MedicineId medicine,
                       catalog.medicines().Lookup(medicine_name));
  const std::int64_t top_k = request.GetInt("top_k", 10);
  if (top_k <= 0) {
    return Status::InvalidArgument("'top_k' must be positive");
  }
  apps::HospitalGapOptions options;
  options.reproducer = config_.reproducer;
  options.top_k = static_cast<std::size_t>(top_k);
  MIC_ASSIGN_OR_RETURN(
      const apps::HospitalGapReport report,
      apps::AnalyzeHospitalGap(snapshot.corpus, medicine, options));
  JsonValue classes = JsonValue::Array();
  for (const apps::HospitalClassRanking& ranking : report.classes) {
    JsonValue top = JsonValue::Array();
    for (const apps::DiseaseShare& share : ranking.top_diseases) {
      JsonValue row = JsonValue::Object();
      row.Set("disease",
              JsonValue::String(catalog.diseases().Name(share.disease)));
      row.Set("ratio", JsonValue::Number(share.ratio));
      top.Append(std::move(row));
    }
    JsonValue entry = JsonValue::Object();
    entry.Set("hospital_class",
              JsonValue::String(std::string(
                  HospitalClassName(ranking.hospital_class))));
    entry.Set("total_prescriptions",
              JsonValue::Number(ranking.total_prescriptions));
    entry.Set("top_diseases", std::move(top));
    classes.Append(std::move(entry));
  }
  JsonValue data = JsonValue::Object();
  data.Set("medicine", JsonValue::String(medicine_name));
  data.Set("classes", std::move(classes));
  return Envelope(snapshot, std::move(data));
}

Result<JsonValue> TrendService::HandleDrilldown(
    const JsonValue& request, const WorldSnapshot& snapshot) {
  MIC_ASSIGN_OR_RETURN(const trend::DrillAxis axis,
                       trend::ParseDrillAxis(request.GetString("axis")));
  return Envelope(snapshot,
                  DrillDownToJson(
                      snapshot.drilldowns[static_cast<std::size_t>(axis)]));
}

Result<JsonValue> TrendService::HandleExplain(
    const JsonValue& request, const WorldSnapshot& snapshot) {
  MIC_ASSIGN_OR_RETURN(const trend::DrillAxis axis,
                       trend::ParseDrillAxis(request.GetString("axis")));
  const double min_share = request.GetDouble("min_share", 0.6);
  if (!(min_share > 0.0) || min_share > 1.0) {
    return Status::InvalidArgument("'min_share' must be in (0, 1]");
  }
  const trend::DrillDownReport& drill =
      snapshot.drilldowns[static_cast<std::size_t>(axis)];
  MIC_ASSIGN_OR_RETURN(
      const trend::ExplainResult result,
      trend::ExplainShift(drill, request.GetString("node"), min_share));
  return Envelope(snapshot, ExplainToJson(drill, result));
}

Result<JsonValue> TrendService::HandleReportCsv(
    const JsonValue& /*request*/, const WorldSnapshot& snapshot) {
  JsonValue data = JsonValue::Object();
  data.Set("csv", JsonValue::String(snapshot.report_csv));
  return Envelope(snapshot, std::move(data));
}

Result<JsonValue> TrendService::HandleShutdown(
    const JsonValue& /*request*/, const WorldSnapshot& snapshot) {
  shutdown_.store(true, std::memory_order_seq_cst);
  JsonValue data = JsonValue::Object();
  data.Set("stopping", JsonValue::Bool(true));
  return Envelope(snapshot, std::move(data));
}

Result<JsonValue> TrendService::HandleIngest(const JsonValue& request) {
  std::lock_guard<std::mutex> lock(ingest_mu_);
  obs::Span span(ExecContext{nullptr, context_.metrics, context_.trace},
                 "serve-ingest");
  std::size_t appended = 0;
  const std::string corpus_path = request.GetString("corpus");
  if (!corpus_path.empty()) {
    MIC_ASSIGN_OR_RETURN(MicCorpus corpus,
                         ReadCorpusCsvFile(corpus_path));
    const std::string hospitals_path = request.GetString("hospitals");
    if (!hospitals_path.empty()) {
      std::ifstream in(hospitals_path);
      if (!in) {
        return Status::IoError("cannot open " + hospitals_path);
      }
      MIC_RETURN_IF_ERROR(ReadHospitalsCsv(in, corpus.catalog()));
    }
    MIC_ASSIGN_OR_RETURN(appended, store::ImportCorpus(corpus, store_));
  } else {
    // Refresh: reopen the store directory to pick up months appended
    // externally (e.g. `mictrend import --append` against the same
    // directory).
    const std::size_t before = store_.num_months();
    MIC_ASSIGN_OR_RETURN(
        store::ClaimStore reopened,
        store::ClaimStore::Open(config_.store.directory,
                                {.backend = config_.store.backend},
                                context_.metrics));
    appended = reopened.num_months() - before;
    store_ = std::move(reopened);
  }
  MIC_ASSIGN_OR_RETURN(
      const WorldSnapshot* next,
      BuildSnapshot(next_version_, store_, config_, context_));
  // Stamp the swap start (never 0, which means "no swap in flight") so
  // the server's watchdog can flag a publish stuck waiting on a pinned
  // reader; clear it as soon as the drain completes.
  swap_started_ns_.store(std::max<std::uint64_t>(1, windows_->NowNs()),
                         std::memory_order_relaxed);
  const double drain_seconds = hub_.Publish(next);
  swap_started_ns_.store(0, std::memory_order_relaxed);
  obs::Record(drain_channel_, drain_seconds);
  ++next_version_;
  obs::Increment(obs::GetCounter(context_.metrics,
                                 "serve.snapshots_published"));
  obs::Increment(obs::GetCounter(context_.metrics,
                                 "serve.ingest.months_appended"),
                 appended);
  JsonValue data = JsonValue::Object();
  data.Set("appended",
           JsonValue::Int(static_cast<std::int64_t>(appended)));
  data.Set("drain_seconds", JsonValue::Number(drain_seconds));
  return Envelope(*next, std::move(data));
}

}  // namespace mic::serve
