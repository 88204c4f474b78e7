// Tests for the serve layer: the wire JSON model and framing, the
// hazard-pointer SnapshotHub, the TrendService request handlers
// (including byte-identity of the served report against the offline
// pipeline and live ingest), and the TCP transport end to end.
//
// The hammer test is the torn-snapshot detector: reader threads query
// report_csv/health in a tight loop while the main thread publishes new
// snapshots via ingest, and every response must be internally
// consistent — months == base_months + (version - 1) and the CSV must
// be the one offline run that matches that version, never a mix.

#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache_store.h"
#include "common/exec_context.h"
#include "mic/io.h"
#include "obs/metrics.h"
#include "obs/trace_log.h"
#include "serve/drill_json.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/wire.h"
#include "store/claim_store.h"
#include "synth/generator.h"
#include "synth/scenario.h"
#include "trend/drilldown.h"
#include "trend/pipeline.h"
#include "trend/report_io.h"

namespace mic::serve {
namespace {

namespace fs = std::filesystem;

fs::path FreshDir(const char* name) {
  fs::path dir = fs::path(::testing::TempDir()) / name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  return dir;
}

MicCorpus TinyCorpus(int months, std::uint64_t seed) {
  auto world = synth::World::Create(synth::MakeTinyWorldConfig(months, seed));
  EXPECT_TRUE(world.ok());
  synth::ClaimGenerator generator(&*world);
  auto data = generator.Generate();
  EXPECT_TRUE(data.ok());
  return std::move(data->corpus);
}

// The first `months` months of `corpus`, sharing its catalog.
MicCorpus Prefix(const MicCorpus& corpus, std::size_t months) {
  MicCorpus prefix(corpus.shared_catalog());
  for (std::size_t t = 0; t < months; ++t) {
    EXPECT_TRUE(prefix.AddMonth(corpus.month(t)).ok());
  }
  return prefix;
}

// The pipeline configuration every serve test shares: small filters so
// the tiny world keeps series, deterministic cold fits (no cache).
trend::PipelineConfig TestConfig(const std::string& store_dir) {
  trend::PipelineConfig config;
  config.reproducer.filter_options.min_disease_count = 1;
  config.reproducer.filter_options.min_medicine_count = 1;
  config.reproducer.min_series_total = 5.0;
  config.analyzer.detector.seasonal = false;
  config.analyzer.detector.fit.optimizer.max_evaluations = 150;
  config.store.directory = store_dir;
  return config;
}

// Writes month-prefix CSVs of one synthetic world plus its hospitals
// attribute file, then seeds a claim store from the `seed_months`
// prefix *as parsed back from CSV* — the same entity ordering a real
// deployment gets, so later CSV ingests extend the store's dictionary
// instead of conflicting with it.
struct ServeWorld {
  fs::path dir;               // working dir (CSVs live here)
  fs::path store_dir;         // the seeded claim store
  std::string hospitals_csv;  // path of the hospitals attribute file
  std::vector<std::string> corpus_csv;  // corpus_csv[m] = first m months

  static ServeWorld Create(const char* name, int total_months,
                           int seed_months, std::uint64_t seed = 7) {
    ServeWorld world;
    world.dir = FreshDir(name);
    world.store_dir = world.dir / "store";
    const MicCorpus full = TinyCorpus(total_months, seed);

    world.hospitals_csv = (world.dir / "hospitals.csv").string();
    {
      std::ofstream out(world.hospitals_csv);
      EXPECT_TRUE(WriteHospitalsCsv(full.catalog(), out).ok());
    }
    world.corpus_csv.resize(total_months + 1);
    for (int m = seed_months; m <= total_months; ++m) {
      world.corpus_csv[m] =
          (world.dir / ("corpus" + std::to_string(m) + ".csv")).string();
      EXPECT_TRUE(
          WriteCorpusCsvFile(Prefix(full, m), world.corpus_csv[m]).ok());
    }

    MicCorpus parsed = world.ParseCorpus(seed_months);
    auto store = store::ClaimStore::Open(world.store_dir.string());
    EXPECT_TRUE(store.ok());
    auto imported = store::ImportCorpus(parsed, *store);
    EXPECT_TRUE(imported.ok());
    EXPECT_EQ(*imported, static_cast<std::size_t>(seed_months));
    return world;
  }

  // The first `months` months as a deployment sees them: parsed from
  // CSV with hospital attributes joined in.
  MicCorpus ParseCorpus(int months) const {
    auto corpus = ReadCorpusCsvFile(corpus_csv[months]);
    EXPECT_TRUE(corpus.ok());
    std::ifstream in(hospitals_csv);
    EXPECT_TRUE(ReadHospitalsCsv(in, corpus->catalog()).ok());
    return std::move(*corpus);
  }

  // The offline reference: `mictrend pipeline` over the first `months`
  // months, serialized exactly as report_io writes it.
  std::string OfflineReportCsv(int months) const {
    const MicCorpus corpus = ParseCorpus(months);
    const trend::PipelineConfig config = TestConfig(store_dir.string());
    auto result = trend::RunPipeline(corpus, config);
    EXPECT_TRUE(result.ok()) << result.status();
    std::ostringstream csv;
    trend::TrendAnalyzer analyzer(config.analyzer);
    EXPECT_TRUE(trend::WriteReportCsv(result->report, analyzer,
                                      corpus.catalog(), csv)
                    .ok());
    return csv.str();
  }
};

JsonValue MakeRequest(std::string_view op) {
  JsonValue request = JsonValue::Object();
  request.Set("op", JsonValue::String(std::string(op)));
  return request;
}

std::string ErrorCode(const JsonValue& response) {
  const JsonValue* error = response.Find("error");
  return error == nullptr ? "" : error->GetString("code");
}

// ----------------------------------------------------------- JsonValue

TEST(JsonValueTest, RoundTripsEveryKindDeterministically) {
  const std::string text =
      R"({"null":null,"t":true,"f":false,"int":-42,"big":9007199254740993,)"
      R"("dbl":0.5,"str":"a\"b\\c\né","arr":[1,[2,3],{"k":"v"}],)"
      R"("obj":{"z":1,"a":2}})";
  auto parsed = JsonValue::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const std::string once = parsed->Serialize();
  auto reparsed = JsonValue::Parse(once);
  ASSERT_TRUE(reparsed.ok());
  // Deterministic: serialize(parse(serialize(x))) == serialize(x).
  EXPECT_EQ(reparsed->Serialize(), once);
  // Insertion order is preserved, so "z" still precedes "a".
  const JsonValue* obj = parsed->Find("obj");
  ASSERT_NE(obj, nullptr);
  ASSERT_EQ(obj->members().size(), 2u);
  EXPECT_EQ(obj->members()[0].first, "z");
}

TEST(JsonValueTest, DistinguishesIntegersFromDoubles) {
  auto parsed = JsonValue::Parse(R"({"i":5,"d":2.5,"huge":1e300})");
  ASSERT_TRUE(parsed.ok());
  // The 64-bit counter case: integers must not pick up a decimal point
  // (9007199254740993 would not survive a double round-trip).
  EXPECT_EQ(JsonValue::Parse("9007199254740993")->Serialize(),
            "9007199254740993");
  EXPECT_EQ(parsed->Find("i")->int_value(), 5);
  EXPECT_EQ(parsed->Find("i")->Serialize(), "5");
  EXPECT_EQ(parsed->Find("d")->Serialize(), "2.5");
  EXPECT_EQ(parsed->Find("huge")->number_value(), 1e300);
}

TEST(JsonValueTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{} trailing").ok());    // strict parse
  EXPECT_FALSE(JsonValue::Parse(R"({"a":})").ok());
  EXPECT_FALSE(JsonValue::Parse(R"("unterminated)").ok());
  EXPECT_FALSE(JsonValue::Parse("nul").ok());
  EXPECT_FALSE(JsonValue::Parse("[1,]").ok());
  // Depth limit: 70 nested arrays exceed the 64-container budget.
  std::string deep(70, '[');
  deep += std::string(70, ']');
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

TEST(JsonValueTest, TypedGettersFallBack) {
  auto parsed = JsonValue::Parse(
      R"({"s":"text","i":7,"d":2.5,"b":true,"wrong":"type"})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetString("s"), "text");
  EXPECT_EQ(parsed->GetString("missing", "fb"), "fb");
  EXPECT_EQ(parsed->GetInt("i", -1), 7);
  EXPECT_EQ(parsed->GetInt("wrong", -1), -1);
  EXPECT_EQ(parsed->GetDouble("d", 0.0), 2.5);
  EXPECT_EQ(parsed->GetBool("b", false), true);
  EXPECT_EQ(parsed->GetBool("missing", true), true);
}

// ------------------------------------------------------------- framing

struct SocketPair {
  int fds[2];
  SocketPair() { EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
  ~SocketPair() {
    if (fds[0] >= 0) close(fds[0]);
    if (fds[1] >= 0) close(fds[1]);
  }
  void CloseWriter() {
    close(fds[0]);
    fds[0] = -1;
  }
};

TEST(WireTest, FramesRoundTripAndCleanCloseIsNotFound) {
  SocketPair pair;
  const std::string payload = R"({"op":"health"})";
  ASSERT_TRUE(WriteFrame(pair.fds[0], payload).ok());
  auto read = ReadFrame(pair.fds[1]);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(*read, payload);

  pair.CloseWriter();
  auto eof = ReadFrame(pair.fds[1]);
  EXPECT_EQ(eof.status().code(), StatusCode::kNotFound);
}

TEST(WireTest, TornFrameIsAnIoError) {
  SocketPair pair;
  // A header promising 100 bytes, then only 3 bytes and EOF.
  const unsigned char header[4] = {0, 0, 0, 100};
  ASSERT_EQ(write(pair.fds[0], header, 4), 4);
  ASSERT_EQ(write(pair.fds[0], "abc", 3), 3);
  pair.CloseWriter();
  auto read = ReadFrame(pair.fds[1]);
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

TEST(WireTest, OversizeDeclaredLengthIsAProtocolError) {
  SocketPair pair;
  WireLimits limits;
  limits.max_frame_bytes = 16;
  const unsigned char header[4] = {0, 0, 1, 0};  // declares 256 bytes
  ASSERT_EQ(write(pair.fds[0], header, 4), 4);
  auto read = ReadFrame(pair.fds[1], limits);
  EXPECT_EQ(read.status().code(), StatusCode::kFailedPrecondition);
  // And the writer refuses to produce such a frame in the first place.
  EXPECT_EQ(WriteFrame(pair.fds[0], std::string(32, 'x'), 16).code(),
            StatusCode::kInvalidArgument);
}

TEST(WireTest, WritingToAClosedPeerIsAnErrorNotASignal) {
  SocketPair pair;
  close(pair.fds[1]);
  pair.fds[1] = -1;
  // A plain write(2) here raises SIGPIPE, which kills the process.
  const Status status = WriteFrame(pair.fds[0], R"({"op":"health"})");
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status;
}

TEST(WireTest, StopFlagAndTimeoutBoundABlockedRead) {
  SocketPair pair;
  WireLimits limits;
  limits.poll_interval_ms = 10;

  std::atomic<bool> stop{true};
  auto stopped = ReadFrame(pair.fds[1], limits, &stop);
  EXPECT_EQ(stopped.status().code(), StatusCode::kFailedPrecondition);

  limits.timeout_ms = 30;
  auto timed_out = ReadFrame(pair.fds[1], limits);
  EXPECT_EQ(timed_out.status().code(), StatusCode::kOutOfRange);
}

// --------------------------------------------------------- SnapshotHub

WorldSnapshot* BareSnapshot(std::uint64_t version) {
  auto* snapshot = new WorldSnapshot();
  snapshot->version = version;
  return snapshot;
}

TEST(SnapshotHubTest, PublishWaitsForThePinnedReaderToDrain) {
  SnapshotHub hub;
  hub.Publish(BareSnapshot(1));
  auto reader = hub.Register();
  ASSERT_TRUE(reader.ok());

  std::atomic<bool> published{false};
  std::thread publisher;
  {
    SnapshotPin pin = hub.Acquire(*reader);
    EXPECT_EQ(pin->version, 1u);
    publisher = std::thread([&hub, &published] {
      hub.Publish(BareSnapshot(2));
      published.store(true, std::memory_order_seq_cst);
    });
    // The publisher must stall while the pin is live: the pinned
    // snapshot stays valid the whole time.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(published.load(std::memory_order_seq_cst));
    EXPECT_EQ(pin->version, 1u);
  }  // pin released -> publisher may retire version 1
  publisher.join();
  EXPECT_TRUE(published.load(std::memory_order_seq_cst));
  EXPECT_EQ(hub.UnsafeCurrent()->version, 2u);
}

TEST(SnapshotHubTest, RegisterExhaustsAndRecyclesSlots) {
  SnapshotHub hub;
  std::vector<SnapshotReader> readers;
  for (int i = 0; i < SnapshotHub::kMaxReaders; ++i) {
    auto reader = hub.Register();
    ASSERT_TRUE(reader.ok()) << i;
    readers.push_back(std::move(*reader));
  }
  EXPECT_EQ(hub.Register().status().code(),
            StatusCode::kFailedPrecondition);
  readers.pop_back();  // releasing a slot makes it claimable again
  EXPECT_TRUE(hub.Register().ok());
}

// ------------------------------------------------------- TrendService

TEST(ServiceTest, AnswersQueriesFromThePublishedSnapshot) {
  ServeWorld world = ServeWorld::Create("serve_queries", 8, 8);
  obs::MetricsRegistry metrics;
  ExecContext context;
  context.metrics = &metrics;
  auto service =
      TrendService::Create(TestConfig(world.store_dir.string()), context);
  ASSERT_TRUE(service.ok()) << service.status();
  auto reader = (*service)->hub().Register();
  ASSERT_TRUE(reader.ok());

  JsonValue health = (*service)->Handle(MakeRequest("health"), *reader);
  EXPECT_TRUE(health.GetBool("ok", false)) << health.Serialize();
  EXPECT_EQ(health.GetInt("version", -1), 1);
  EXPECT_EQ(health.GetInt("months", -1), 8);
  const JsonValue* data = health.Find("data");
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->GetInt("protocol", -1), kProtocolVersion);
  EXPECT_GT(data->GetInt("diseases", 0), 0);
  EXPECT_GT(data->GetInt("prescriptions", 0), 0);

  JsonValue series = MakeRequest("series");
  series.Set("kind", JsonValue::String("disease"));
  series.Set("disease", JsonValue::String("flu"));
  JsonValue row = (*service)->Handle(series, *reader);
  EXPECT_TRUE(row.GetBool("ok", false)) << row.Serialize();
  EXPECT_EQ(row.Find("data")->GetString("kind"), "disease");
  EXPECT_EQ(row.Find("data")->GetString("disease"), "flu");
  EXPECT_EQ(row.Find("data")->GetString("medicine"), "-");

  JsonValue top = MakeRequest("top_changes");
  top.Set("k", JsonValue::Int(3));
  JsonValue changes = (*service)->Handle(top, *reader);
  EXPECT_TRUE(changes.GetBool("ok", false)) << changes.Serialize();
  const JsonValue* rows = changes.Find("data")->Find("changes");
  ASSERT_NE(rows, nullptr);
  EXPECT_LE(rows->items().size(), 3u);
  // Ranked by criterion drop, descending.
  for (std::size_t i = 1; i < rows->items().size(); ++i) {
    EXPECT_GE(rows->items()[i - 1].GetDouble("criterion_drop", 0.0),
              rows->items()[i].GetDouble("criterion_drop", 0.0));
  }

  // Error envelopes: unknown op, unknown name, protocol mismatch.
  EXPECT_EQ(ErrorCode((*service)->Handle(MakeRequest("nope"), *reader)),
            "bad_request");
  JsonValue missing = MakeRequest("series");
  missing.Set("kind", JsonValue::String("disease"));
  missing.Set("disease", JsonValue::String("no-such-disease"));
  EXPECT_EQ(ErrorCode((*service)->Handle(missing, *reader)), "not_found");
  JsonValue future = MakeRequest("health");
  future.Set("protocol", JsonValue::Int(99));
  EXPECT_EQ(ErrorCode((*service)->Handle(future, *reader)), "bad_request");

  // Every op above also bumped its pre-resolved counters.
  EXPECT_EQ(metrics.counter_value("serve.requests.health"), 2u);
  EXPECT_EQ(metrics.counter_value("serve.requests.series"), 2u);
  EXPECT_EQ(metrics.counter_value("serve.errors.series"), 1u);
  EXPECT_EQ(metrics.counter_value("serve.requests.unknown"), 1u);
}

TEST(ServiceTest, ServedReportIsByteIdenticalToTheOfflinePipeline) {
  ServeWorld world = ServeWorld::Create("serve_identity", 8, 8);
  auto service =
      TrendService::Create(TestConfig(world.store_dir.string()), {});
  ASSERT_TRUE(service.ok()) << service.status();
  auto reader = (*service)->hub().Register();
  ASSERT_TRUE(reader.ok());

  JsonValue response =
      (*service)->Handle(MakeRequest("report_csv"), *reader);
  ASSERT_TRUE(response.GetBool("ok", false)) << response.Serialize();
  const std::string served = response.Find("data")->GetString("csv");
  EXPECT_FALSE(served.empty());
  EXPECT_EQ(served, world.OfflineReportCsv(8));
}

TEST(ServiceTest, RegistryRejectsUnknownAndMalformedParameters) {
  ServeWorld world = ServeWorld::Create("serve_registry", 8, 8);
  auto service =
      TrendService::Create(TestConfig(world.store_dir.string()), {});
  ASSERT_TRUE(service.ok()) << service.status();
  auto reader = (*service)->hub().Register();
  ASSERT_TRUE(reader.ok());

  // An unknown member is rejected naming the offender (protocol v2
  // behavior; a typo'd parameter is a client bug, not noise).
  JsonValue typo = MakeRequest("series");
  typo.Set("kind", JsonValue::String("disease"));
  typo.Set("diseaze", JsonValue::String("flu"));
  JsonValue rejected = (*service)->Handle(typo, *reader);
  EXPECT_EQ(ErrorCode(rejected), "bad_request");
  EXPECT_NE(rejected.Find("error")->GetString("message").find("diseaze"),
            std::string::npos)
      << rejected.Serialize();
  EXPECT_NE(rejected.Find("error")->GetString("message").find("series"),
            std::string::npos);

  // A declared parameter with the wrong JSON shape is also a
  // bad_request, before the handler ever runs.
  JsonValue shape = MakeRequest("top_changes");
  shape.Set("k", JsonValue::String("3"));
  JsonValue wrong = (*service)->Handle(shape, *reader);
  EXPECT_EQ(ErrorCode(wrong), "bad_request");
  EXPECT_NE(wrong.Find("error")->GetString("message").find("integer"),
            std::string::npos)
      << wrong.Serialize();

  // Missing required parameters fail schema validation uniformly.
  EXPECT_EQ(ErrorCode((*service)->Handle(MakeRequest("drilldown"), *reader)),
            "bad_request");
  EXPECT_EQ(ErrorCode((*service)->Handle(MakeRequest("explain"), *reader)),
            "bad_request");

  // "protocol" is an envelope member, never an unknown parameter.
  JsonValue versioned = MakeRequest("health");
  versioned.Set("protocol", JsonValue::Int(kProtocolVersion));
  EXPECT_TRUE((*service)->Handle(versioned, *reader).GetBool("ok", false));

  // The registry table itself: every op resolves, and the generated
  // usage text mentions each one (the docs cross-check relies on it).
  EXPECT_EQ(EndpointTable().size(), kNumEndpoints);
  const std::string usage = BuildOpsUsageText();
  for (const EndpointSpec& endpoint : EndpointTable()) {
    EXPECT_NE(FindEndpoint(endpoint.name), nullptr) << endpoint.name;
    EXPECT_NE(usage.find(endpoint.name), std::string::npos) << endpoint.name;
  }
  EXPECT_EQ(FindEndpoint("nope"), nullptr);
  // Usage prints CLI-style flags: wire "min_share" appears dashed.
  EXPECT_NE(usage.find("--min-share"), std::string::npos);
  EXPECT_EQ(usage.find("min_share"), std::string::npos);
}

TEST(ServiceTest, ServesDrilldownAndExplainFromTheSnapshot) {
  ServeWorld world = ServeWorld::Create("serve_drill", 8, 8);
  obs::MetricsRegistry metrics;
  ExecContext context;
  context.metrics = &metrics;
  auto service =
      TrendService::Create(TestConfig(world.store_dir.string()), context);
  ASSERT_TRUE(service.ok()) << service.status();
  auto reader = (*service)->hub().Register();
  ASSERT_TRUE(reader.ok());

  // Every axis is precomputed into the snapshot and served as-is.
  for (const char* axis : {"medicine", "disease", "hospital"}) {
    JsonValue request = MakeRequest("drilldown");
    request.Set("axis", JsonValue::String(axis));
    JsonValue response = (*service)->Handle(request, *reader);
    ASSERT_TRUE(response.GetBool("ok", false)) << response.Serialize();
    const JsonValue* data = response.Find("data");
    ASSERT_NE(data, nullptr);
    EXPECT_EQ(data->GetString("axis"), axis);
    const JsonValue* nodes = data->Find("nodes");
    ASSERT_NE(nodes, nullptr) << axis;
    ASSERT_FALSE(nodes->items().empty()) << axis;
    EXPECT_EQ(nodes->items()[0].GetString("name"), "all");
    EXPECT_EQ(data->GetInt("months", -1), 8);
  }
  EXPECT_GT(metrics.counter_value("trend.rollup.nodes"), 0u);

  // Unknown axis / node / changeless target surface as typed errors.
  JsonValue bad_axis = MakeRequest("drilldown");
  bad_axis.Set("axis", JsonValue::String("city"));
  EXPECT_EQ(ErrorCode((*service)->Handle(bad_axis, *reader)), "bad_request");

  JsonValue explain = MakeRequest("explain");
  explain.Set("axis", JsonValue::String("medicine"));
  explain.Set("node", JsonValue::String("no-such-node"));
  EXPECT_EQ(ErrorCode((*service)->Handle(explain, *reader)), "not_found");
}

TEST(ServiceTest, ServedDrilldownIsByteIdenticalToTheOfflineBuild) {
  ServeWorld world = ServeWorld::Create("serve_drill_identity", 8, 8);
  auto service =
      TrendService::Create(TestConfig(world.store_dir.string()), {});
  ASSERT_TRUE(service.ok()) << service.status();
  auto reader = (*service)->hub().Register();
  ASSERT_TRUE(reader.ok());

  // The offline twin: `mictrend drilldown --json` over the same months.
  const MicCorpus corpus = world.ParseCorpus(8);
  trend::PipelineConfig config = TestConfig(world.store_dir.string());
  config.drilldown_axes = {trend::DrillAxis::kMedicine};
  auto offline = trend::RunPipeline(corpus, config);
  ASSERT_TRUE(offline.ok()) << offline.status();
  ASSERT_EQ(offline->drilldowns.size(), 1u);
  const std::string offline_json =
      DrillDownToJson(offline->drilldowns.front()).Serialize();

  JsonValue request = MakeRequest("drilldown");
  request.Set("axis", JsonValue::String("medicine"));
  JsonValue response = (*service)->Handle(request, *reader);
  ASSERT_TRUE(response.GetBool("ok", false)) << response.Serialize();
  EXPECT_EQ(response.Find("data")->Serialize(), offline_json);
}

TEST(ServiceTest, IngestAppendsPublishesAndStaysByteIdentical) {
  ServeWorld world = ServeWorld::Create("serve_ingest", 9, 7);
  obs::MetricsRegistry metrics;
  ExecContext context;
  context.metrics = &metrics;
  auto service =
      TrendService::Create(TestConfig(world.store_dir.string()), context);
  ASSERT_TRUE(service.ok()) << service.status();
  auto reader = (*service)->hub().Register();
  ASSERT_TRUE(reader.ok());

  // Live ingest: the full-corpus CSV (months 0..7) appends month 7.
  JsonValue ingest = MakeRequest("ingest");
  ingest.Set("corpus", JsonValue::String(world.corpus_csv[8]));
  ingest.Set("hospitals", JsonValue::String(world.hospitals_csv));
  JsonValue response = (*service)->Handle(ingest, *reader);
  ASSERT_TRUE(response.GetBool("ok", false)) << response.Serialize();
  EXPECT_EQ(response.GetInt("version", -1), 2);
  EXPECT_EQ(response.GetInt("months", -1), 8);
  EXPECT_EQ(response.Find("data")->GetInt("appended", -1), 1);

  JsonValue report = (*service)->Handle(MakeRequest("report_csv"), *reader);
  ASSERT_TRUE(report.GetBool("ok", false));
  EXPECT_EQ(report.GetInt("version", -1), 2);
  EXPECT_EQ(report.Find("data")->GetString("csv"),
            world.OfflineReportCsv(8));

  // Re-ingesting the same corpus is a no-op append but still publishes
  // a fresh snapshot of the unchanged world.
  JsonValue again = (*service)->Handle(ingest, *reader);
  ASSERT_TRUE(again.GetBool("ok", false)) << again.Serialize();
  EXPECT_EQ(again.Find("data")->GetInt("appended", -1), 0);
  EXPECT_EQ(again.GetInt("months", -1), 8);

  // Refresh (no corpus in the request) picks up an external append.
  {
    MicCorpus nine = world.ParseCorpus(9);
    auto external = store::ClaimStore::Open(world.store_dir.string());
    ASSERT_TRUE(external.ok());
    auto appended = store::ImportCorpus(nine, *external);
    ASSERT_TRUE(appended.ok());
    EXPECT_EQ(*appended, 1u);
  }
  JsonValue refresh = (*service)->Handle(MakeRequest("ingest"), *reader);
  ASSERT_TRUE(refresh.GetBool("ok", false)) << refresh.Serialize();
  EXPECT_EQ(refresh.GetInt("months", -1), 9);
  EXPECT_EQ(refresh.Find("data")->GetInt("appended", -1), 1);

  JsonValue final_report =
      (*service)->Handle(MakeRequest("report_csv"), *reader);
  EXPECT_EQ(final_report.Find("data")->GetString("csv"),
            world.OfflineReportCsv(9));
  EXPECT_EQ(metrics.counter_value("serve.snapshots_published"), 4u);
  EXPECT_EQ(metrics.counter_value("serve.ingest.months_appended"), 2u);
}

TEST(ServiceTest, WarmIngestHitsTheCacheInsteadOfRefitting) {
  ServeWorld world = ServeWorld::Create("serve_warm", 8, 7);
  obs::MetricsRegistry metrics;
  cache::CacheStore cache((FreshDir("serve_warm_cache") / "c").string(),
                          cache::CacheMode::kReadWrite, &metrics);
  ASSERT_TRUE(cache.Open().ok());
  ExecContext context;
  context.metrics = &metrics;
  context.cache = &cache;
  trend::PipelineConfig config = TestConfig(world.store_dir.string());
  config.cache.mode = cache::CacheMode::kReadWrite;
  config.cache.directory = cache.directory();

  auto service = TrendService::Create(config, context);
  ASSERT_TRUE(service.ok()) << service.status();
  auto reader = (*service)->hub().Register();
  ASSERT_TRUE(reader.ok());
  const std::uint64_t cold_hits = metrics.counter_value("cache.hits");

  JsonValue ingest = MakeRequest("ingest");
  ingest.Set("corpus", JsonValue::String(world.corpus_csv[8]));
  ingest.Set("hospitals", JsonValue::String(world.hospitals_csv));
  JsonValue response = (*service)->Handle(ingest, *reader);
  ASSERT_TRUE(response.GetBool("ok", false)) << response.Serialize();
  EXPECT_EQ(response.GetInt("months", -1), 8);
  // The rebuild warm-started from the version-1 snapshot's cache
  // entries instead of refitting the first seven months cold.
  EXPECT_GT(metrics.counter_value("cache.hits"), cold_hits);
}

// The torn-snapshot detector. Reader threads hammer health/report_csv
// while the main thread ingests two more months; every response must be
// internally consistent with exactly one published version.
TEST(ServiceTest, ConcurrentQueriesNeverObserveATornSnapshot) {
  ServeWorld world = ServeWorld::Create("serve_hammer", 9, 7);
  auto service =
      TrendService::Create(TestConfig(world.store_dir.string()), {});
  ASSERT_TRUE(service.ok()) << service.status();
  constexpr std::size_t kBaseMonths = 7;

  // The offline truth each version must serve, keyed by version.
  const std::string expected_csv[4] = {
      "", world.OfflineReportCsv(7), world.OfflineReportCsv(8),
      world.OfflineReportCsv(9)};

  constexpr int kReaders = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> responses{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kReaders; ++i) {
    threads.emplace_back([&, i] {
      auto reader = (*service)->hub().Register();
      if (!reader.ok()) {
        ++failures;
        return;
      }
      std::uint64_t last_version = 0;
      while (!stop.load(std::memory_order_seq_cst)) {
        const bool want_csv = (responses.fetch_add(1) + i) % 2 == 0;
        JsonValue response = (*service)->Handle(
            MakeRequest(want_csv ? "report_csv" : "health"), *reader);
        if (!response.GetBool("ok", false)) {
          ++failures;
          continue;
        }
        const std::int64_t version = response.GetInt("version", -1);
        const std::int64_t months = response.GetInt("months", -1);
        // The consistency invariant: every ingest below appends exactly
        // one month, so months is a function of version.
        if (version < 1 || version > 3 ||
            months != static_cast<std::int64_t>(kBaseMonths) + version - 1) {
          ++failures;
          continue;
        }
        if (version < static_cast<std::int64_t>(last_version)) {
          ++failures;  // a reader must never travel back in time
          continue;
        }
        last_version = static_cast<std::uint64_t>(version);
        if (want_csv &&
            response.Find("data")->GetString("csv") !=
                expected_csv[version]) {
          ++failures;  // torn: payload from a different version
        }
      }
    });
  }

  auto ingest_reader = (*service)->hub().Register();
  ASSERT_TRUE(ingest_reader.ok());
  for (int months = 8; months <= 9; ++months) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    JsonValue ingest = MakeRequest("ingest");
    ingest.Set("corpus", JsonValue::String(world.corpus_csv[months]));
    ingest.Set("hospitals", JsonValue::String(world.hospitals_csv));
    JsonValue response = (*service)->Handle(ingest, *ingest_reader);
    ASSERT_TRUE(response.GetBool("ok", false)) << response.Serialize();
    EXPECT_EQ(response.GetInt("months", -1), months);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  stop.store(true, std::memory_order_seq_cst);
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(responses.load(), 0u);
  EXPECT_EQ((*service)->hub().UnsafeCurrent()->version, 3u);
}

// ----------------------------------------------------------- TcpServer

TEST(ServerTest, ServesQueriesIngestAndShutdownOverLoopback) {
  ServeWorld world = ServeWorld::Create("serve_tcp", 8, 7);
  auto service =
      TrendService::Create(TestConfig(world.store_dir.string()), {});
  ASSERT_TRUE(service.ok()) << service.status();

  ServerOptions options;
  options.num_workers = 2;
  options.limits.poll_interval_ms = 10;
  auto server = TcpServer::Start(service->get(), options);
  ASSERT_TRUE(server.ok()) << server.status();
  EXPECT_GT((*server)->port(), 0);

  std::thread serving([&server] {
    EXPECT_TRUE((*server)->Serve().ok());
  });

  auto fd = ConnectTcp("127.0.0.1", (*server)->port());
  ASSERT_TRUE(fd.ok()) << fd.status();
  WireLimits limits;
  limits.timeout_ms = 30000;

  auto health = RoundTrip(*fd, MakeRequest("health"), limits);
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_TRUE(health->GetBool("ok", false));
  EXPECT_EQ(health->GetInt("months", -1), 7);

  JsonValue ingest = MakeRequest("ingest");
  ingest.Set("corpus", JsonValue::String(world.corpus_csv[8]));
  ingest.Set("hospitals", JsonValue::String(world.hospitals_csv));
  auto appended = RoundTrip(*fd, ingest, limits);
  ASSERT_TRUE(appended.ok()) << appended.status();
  EXPECT_TRUE(appended->GetBool("ok", false)) << appended->Serialize();
  EXPECT_EQ(appended->GetInt("months", -1), 8);

  // A second connection sees the new snapshot.
  auto fd2 = ConnectTcp("127.0.0.1", (*server)->port());
  ASSERT_TRUE(fd2.ok());
  auto health2 = RoundTrip(*fd2, MakeRequest("health"), limits);
  ASSERT_TRUE(health2.ok());
  EXPECT_EQ(health2->GetInt("version", -1), 2);
  EXPECT_EQ(health2->GetInt("months", -1), 8);
  close(*fd2);

  auto stopping = RoundTrip(*fd, MakeRequest("shutdown"), limits);
  ASSERT_TRUE(stopping.ok()) << stopping.status();
  EXPECT_TRUE(stopping->GetBool("ok", false));
  EXPECT_TRUE(stopping->Find("data")->GetBool("stopping", false));
  close(*fd);

  serving.join();  // the shutdown request winds the accept loop down
}

TEST(ServerTest, OversizeFrameIsAnsweredAndTheConnectionClosed) {
  ServeWorld world = ServeWorld::Create("serve_toolarge", 6, 6);
  auto service =
      TrendService::Create(TestConfig(world.store_dir.string()), {});
  ASSERT_TRUE(service.ok()) << service.status();

  ServerOptions options;
  options.num_workers = 1;
  options.limits.max_frame_bytes = 256;
  options.limits.poll_interval_ms = 10;
  auto server = TcpServer::Start(service->get(), options);
  ASSERT_TRUE(server.ok());
  std::thread serving([&server] { (*server)->Serve(); });

  auto fd = ConnectTcp("127.0.0.1", (*server)->port());
  ASSERT_TRUE(fd.ok());
  // A syntactically valid request padded past the server's frame limit
  // (the client's own limit is larger, so WriteFrame allows it).
  JsonValue request = MakeRequest("health");
  request.Set("padding", JsonValue::String(std::string(512, 'x')));
  ASSERT_TRUE(WriteFrame(*fd, request.Serialize(), 8u << 20).ok());
  WireLimits limits;
  limits.timeout_ms = 30000;
  auto response = ReadFrame(*fd, limits);
  ASSERT_TRUE(response.ok()) << response.status();
  auto parsed = JsonValue::Parse(*response);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->GetBool("ok", true));
  EXPECT_EQ(ErrorCode(*parsed), "frame_too_large");
  // The server closes the connection after answering.
  EXPECT_EQ(ReadFrame(*fd, limits).status().code(), StatusCode::kNotFound);
  close(*fd);

  (*server)->RequestStop();
  serving.join();
}

TEST(ServiceTest, StatsOpReportsWindowedTelemetry) {
  ServeWorld world = ServeWorld::Create("serve_stats", 6, 6);
  auto service =
      TrendService::Create(TestConfig(world.store_dir.string()), {});
  ASSERT_TRUE(service.ok()) << service.status();
  auto reader = (*service)->hub().Register();
  ASSERT_TRUE(reader.ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE((*service)
                    ->Handle(MakeRequest("health"), *reader)
                    .GetBool("ok", false));
  }
  JsonValue stats = (*service)->Handle(MakeRequest("stats"), *reader);
  ASSERT_TRUE(stats.GetBool("ok", false)) << stats.Serialize();
  const JsonValue* data = stats.Find("data");
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->GetInt("slot_width_seconds", -1), 10);
  EXPECT_EQ(data->GetInt("slots", -1), 60);
  const JsonValue* windows = data->Find("windows");
  ASSERT_NE(windows, nullptr);
  const JsonValue* minute = windows->Find("60s");
  ASSERT_NE(minute, nullptr);
  const JsonValue* health = minute->Find("serve.health");
  ASSERT_NE(health, nullptr);
  EXPECT_EQ(health->GetInt("count", -1), 3);
  EXPECT_EQ(health->GetInt("errors", -1), 0);
  EXPECT_GT(health->GetDouble("rps", 0.0), 0.0);
  EXPECT_GT(health->GetDouble("p99", 0.0), 0.0);
  // A request's own window sample lands after its response is built, so
  // the first stats call is visible to the second.
  JsonValue again = (*service)->Handle(MakeRequest("stats"), *reader);
  EXPECT_EQ(again.Find("data")
                ->Find("windows")
                ->Find("60s")
                ->Find("serve.stats")
                ->GetInt("count", -1),
            1);
  // Errors count into the same window.
  (void)(*service)->Handle(MakeRequest("nope"), *reader);
  JsonValue after = (*service)->Handle(MakeRequest("stats"), *reader);
  const JsonValue* unknown = after.Find("data")
                                 ->Find("windows")
                                 ->Find("60s")
                                 ->Find("serve.unknown");
  ASSERT_NE(unknown, nullptr);
  EXPECT_EQ(unknown->GetInt("count", -1), 1);
  EXPECT_EQ(unknown->GetInt("errors", -1), 1);
}

TEST(ServerTest, RequestStopWindsDownAnIdleServer) {
  ServeWorld world = ServeWorld::Create("serve_stop", 6, 6);
  auto service =
      TrendService::Create(TestConfig(world.store_dir.string()), {});
  ASSERT_TRUE(service.ok()) << service.status();

  ServerOptions options;
  options.num_workers = 2;
  options.limits.poll_interval_ms = 10;
  auto server = TcpServer::Start(service->get(), options);
  ASSERT_TRUE(server.ok());
  std::thread serving([&server] {
    EXPECT_TRUE((*server)->Serve().ok());
  });
  // An open but idle connection must not block shutdown: the worker's
  // blocked frame read observes the stop flag within one poll interval.
  auto fd = ConnectTcp("127.0.0.1", (*server)->port());
  ASSERT_TRUE(fd.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  (*server)->RequestStop();
  serving.join();
  close(*fd);
}

// A loopback daemon over a 6-month world for the transport tests below:
// started in the constructor, stopped and joined in the destructor.
class LoopbackDaemon {
 public:
  explicit LoopbackDaemon(const char* name, int num_workers = 2)
      : world_(ServeWorld::Create(name, 6, 6)) {
    auto service =
        TrendService::Create(TestConfig(world_.store_dir.string()), {});
    EXPECT_TRUE(service.ok()) << service.status();
    if (!service.ok()) return;
    service_ = std::move(*service);
    ServerOptions options;
    options.num_workers = num_workers;
    options.limits.poll_interval_ms = 10;
    auto server = TcpServer::Start(service_.get(), options);
    EXPECT_TRUE(server.ok()) << server.status();
    if (!server.ok()) return;
    server_ = std::move(*server);
    serving_ = std::thread([this] { EXPECT_TRUE(server_->Serve().ok()); });
  }
  LoopbackDaemon(const LoopbackDaemon&) = delete;
  LoopbackDaemon& operator=(const LoopbackDaemon&) = delete;
  ~LoopbackDaemon() {
    if (server_ != nullptr) server_->RequestStop();
    if (serving_.joinable()) serving_.join();
  }

  bool ok() const { return server_ != nullptr; }

  Result<int> Connect() const {
    return ConnectTcp("127.0.0.1", server_->port());
  }

 private:
  ServeWorld world_;
  std::unique_ptr<TrendService> service_;
  std::unique_ptr<TcpServer> server_;
  std::thread serving_;
};

double ProcessCpuSeconds() {
  struct timespec now;
  EXPECT_EQ(clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now), 0);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

TEST(ServerTest, ClosedLoopRoundTripsDoNotWaitForDelayedAcks) {
  LoopbackDaemon daemon("serve_nodelay");
  ASSERT_TRUE(daemon.ok());
  auto fd = daemon.Connect();
  ASSERT_TRUE(fd.ok()) << fd.status();
  WireLimits limits;
  limits.timeout_ms = 30000;
  // A reply sent as prefix and payload in two writes, without
  // TCP_NODELAY, waits ~40 ms for the client's delayed ACK of the
  // prefix; almost every round trip below then takes >= 20 ms.
  constexpr int kRoundTrips = 50;
  int slow = 0;
  for (int i = 0; i < kRoundTrips; ++i) {
    const auto start = std::chrono::steady_clock::now();
    auto reply =
        RoundTrip(*fd, MakeRequest(i % 2 == 0 ? "health" : "report_csv"),
                  limits);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    ASSERT_TRUE(reply.ok()) << reply.status();
    ASSERT_TRUE(reply->GetBool("ok", false)) << reply->Serialize();
    if (elapsed >= std::chrono::milliseconds(20)) ++slow;
  }
  EXPECT_LE(slow, 2) << slow << " of " << kRoundTrips
                     << " round trips took 20 ms or more";
  close(*fd);
}

TEST(ServerTest, ClientsThatHangUpOnPipelinedRequestsCannotKillTheDaemon) {
  LoopbackDaemon daemon("serve_hangup");
  ASSERT_TRUE(daemon.ok());
  // Three requests in flight, then close without reading a reply: the
  // daemon's later writes land on a reset connection. A write that
  // raises SIGPIPE there ends this whole test process.
  const std::string request = MakeRequest("report_csv").Serialize();
  for (int i = 0; i < 50; ++i) {
    auto fd = daemon.Connect();
    ASSERT_TRUE(fd.ok()) << fd.status();
    for (int r = 0; r < 3; ++r) ASSERT_TRUE(WriteFrame(*fd, request).ok());
    close(*fd);
  }
  auto fd = daemon.Connect();
  ASSERT_TRUE(fd.ok()) << fd.status();
  WireLimits limits;
  limits.timeout_ms = 30000;
  auto health = RoundTrip(*fd, MakeRequest("health"), limits);
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_TRUE(health->GetBool("ok", false));
  close(*fd);
}

TEST(ServerTest, APartialFirstPrefixDoesNotSpinAWorker) {
  LoopbackDaemon daemon("serve_partial", /*num_workers=*/1);
  ASSERT_TRUE(daemon.ok());
  auto fd = daemon.Connect();
  ASSERT_TRUE(fd.ok()) << fd.status();
  const std::string payload = MakeRequest("health").Serialize();
  const auto length = static_cast<std::uint32_t>(payload.size());
  std::string frame;
  frame += static_cast<char>(length >> 24);
  frame += static_cast<char>(length >> 16);
  frame += static_cast<char>(length >> 8);
  frame += static_cast<char>(length);
  frame += payload;

  // One byte of the prefix, then an idle second. The worker waiting
  // for the other three must block in poll, not busy-loop on a socket
  // that stays readable.
  const double cpu_before = ProcessCpuSeconds();
  ASSERT_EQ(write(*fd, frame.data(), 1), 1);
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const double cpu_spent = ProcessCpuSeconds() - cpu_before;
  EXPECT_LT(cpu_spent, 0.3) << "CPU seconds burnt by an idle connection";

  // The rest of the frame completes the request.
  ASSERT_EQ(write(*fd, frame.data() + 1, frame.size() - 1),
            static_cast<ssize_t>(frame.size() - 1));
  WireLimits limits;
  limits.timeout_ms = 30000;
  auto reply = ReadFrame(*fd, limits);
  ASSERT_TRUE(reply.ok()) << reply.status();
  auto parsed = JsonValue::Parse(*reply);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->GetBool("ok", false)) << *reply;
  close(*fd);
}

// --------------------------------------------- transport observability

// One-shot HTTP exchange against the daemon's port: sends `request`
// verbatim and returns everything until the server closes.
std::string HttpExchange(int port, const std::string& request) {
  auto fd = ConnectTcp("127.0.0.1", port);
  EXPECT_TRUE(fd.ok()) << fd.status();
  if (!fd.ok()) return "";
  EXPECT_EQ(write(*fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = read(*fd, buffer, sizeof(buffer));
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  close(*fd);
  return response;
}

std::string HttpBody(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

std::vector<JsonValue> ReadAccessLog(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::vector<JsonValue> records;
  std::string line;
  while (std::getline(in, line)) {
    auto parsed = JsonValue::Parse(line);
    EXPECT_TRUE(parsed.ok()) << line;
    if (parsed.ok()) records.push_back(std::move(*parsed));
  }
  return records;
}

TEST(ServerTest, AnswersHttpMetricsHealthzAndVarzOnTheFramedPort) {
  ServeWorld world = ServeWorld::Create("serve_http", 6, 6);
  obs::MetricsRegistry metrics;
  ExecContext context;
  context.metrics = &metrics;
  auto service =
      TrendService::Create(TestConfig(world.store_dir.string()), context);
  ASSERT_TRUE(service.ok()) << service.status();

  ServerOptions options;
  options.num_workers = 2;
  options.limits.poll_interval_ms = 10;
  auto server = TcpServer::Start(service->get(), options);
  ASSERT_TRUE(server.ok()) << server.status();
  std::thread serving([&server] { (*server)->Serve(); });
  const int port = (*server)->port();

  // One framed request first, so the windowed stats have something to
  // show and the multiplexer is exercised in both directions.
  {
    auto fd = ConnectTcp("127.0.0.1", port);
    ASSERT_TRUE(fd.ok());
    WireLimits limits;
    limits.timeout_ms = 30000;
    auto health = RoundTrip(*fd, MakeRequest("health"), limits);
    ASSERT_TRUE(health.ok()) << health.status();
    EXPECT_TRUE(health->GetBool("ok", false));
    close(*fd);
  }

  const std::string healthz =
      HttpExchange(port, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(healthz.rfind("HTTP/1.1 200 OK", 0), 0u) << healthz;
  EXPECT_EQ(HttpBody(healthz), "ok\n");

  const std::string exposition =
      HttpExchange(port, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(exposition.rfind("HTTP/1.1 200 OK", 0), 0u);
  EXPECT_NE(exposition.find("application/openmetrics-text"),
            std::string::npos);
  const std::string body = HttpBody(exposition);
  EXPECT_NE(
      body.find("# TYPE mictrend_serve_requests_health counter"),
      std::string::npos);
  EXPECT_NE(body.find("mictrend_serve_requests_health_total 1"),
            std::string::npos);
  EXPECT_NE(
      body.find(
          "mictrend_window_requests{channel=\"serve.health\",window=\"60s\"} 1"),
      std::string::npos);
  EXPECT_NE(body.find("mictrend_window_latency_seconds{"
                      "channel=\"serve.health\",window=\"60s\","
                      "quantile=\"0.99\"}"),
            std::string::npos);
  // OpenMetrics requires the EOF marker as the final line.
  EXPECT_EQ(body.substr(body.size() - 6), "# EOF\n");

  const std::string varz =
      HttpExchange(port, "GET /varz HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(varz.rfind("HTTP/1.1 200 OK", 0), 0u);
  auto parsed = JsonValue::Parse(HttpBody(varz));
  ASSERT_TRUE(parsed.ok()) << HttpBody(varz);
  const JsonValue* health_window =
      parsed->Find("windows")->Find("60s")->Find("serve.health");
  ASSERT_NE(health_window, nullptr);
  EXPECT_EQ(health_window->GetInt("count", -1), 1);

  // HEAD answers the same Content-Length with no body; unknown targets
  // are 404, and both close the connection after one exchange.
  const std::string head =
      HttpExchange(port, "HEAD /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(head.rfind("HTTP/1.1 200 OK", 0), 0u);
  EXPECT_NE(head.find("Content-Length: 3"), std::string::npos);
  EXPECT_EQ(HttpBody(head), "");
  const std::string missing =
      HttpExchange(port, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
  EXPECT_EQ(missing.rfind("HTTP/1.1 404 Not Found", 0), 0u);

  (*server)->RequestStop();
  serving.join();
}

TEST(ServerTest, SaturatedPendingQueueRejectsWithCounterAndAccessLog) {
  ServeWorld world = ServeWorld::Create("serve_overload", 6, 6);
  obs::MetricsRegistry metrics;
  ExecContext context;
  context.metrics = &metrics;
  auto service =
      TrendService::Create(TestConfig(world.store_dir.string()), context);
  ASSERT_TRUE(service.ok()) << service.status();

  ServerOptions options;
  options.num_workers = 1;
  // max_pending 0 makes every accepted connection an overload — the
  // deterministic way to pin the rejection path without racing a
  // worker for the queue.
  options.max_pending = 0;
  options.access_log_path = (world.dir / "access.jsonl").string();
  options.limits.poll_interval_ms = 10;
  auto server = TcpServer::Start(service->get(), options);
  ASSERT_TRUE(server.ok()) << server.status();
  std::thread serving([&server] { (*server)->Serve(); });

  auto fd = ConnectTcp("127.0.0.1", (*server)->port());
  ASSERT_TRUE(fd.ok());
  WireLimits limits;
  limits.timeout_ms = 30000;
  // The server answers unprompted before closing.
  auto response = ReadFrame(*fd, limits);
  ASSERT_TRUE(response.ok()) << response.status();
  auto parsed = JsonValue::Parse(*response);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->GetBool("ok", true));
  EXPECT_EQ(ErrorCode(*parsed), "overloaded");
  close(*fd);

  (*server)->RequestStop();
  serving.join();

  EXPECT_EQ(metrics.counter_value("serve.overload_rejections"), 1u);
  const std::vector<JsonValue> records =
      ReadAccessLog(options.access_log_path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].GetString("endpoint"), "connect");
  EXPECT_EQ(records[0].GetString("error"), "overloaded");
  EXPECT_FALSE(records[0].GetString("id").empty());
}

TEST(ServerTest, AccessLogAndRequestScopedTraceShareIds) {
  ServeWorld world = ServeWorld::Create("serve_access", 7, 6);
  obs::MetricsRegistry metrics;
  obs::TraceLog trace;
  ExecContext context;
  context.metrics = &metrics;
  context.trace = &trace;
  auto service =
      TrendService::Create(TestConfig(world.store_dir.string()), context);
  ASSERT_TRUE(service.ok()) << service.status();

  ServerOptions options;
  options.num_workers = 1;
  options.access_log_path = (world.dir / "access.jsonl").string();
  // 1 ms: a health round trip stays under it, an ingest rebuild does
  // not, so tail-based retention keeps exactly the slow request.
  options.slow_request_threshold_ms = 1;
  options.limits.poll_interval_ms = 10;
  auto server = TcpServer::Start(service->get(), options);
  ASSERT_TRUE(server.ok()) << server.status();
  std::thread serving([&server] { (*server)->Serve(); });

  auto fd = ConnectTcp("127.0.0.1", (*server)->port());
  ASSERT_TRUE(fd.ok());
  WireLimits limits;
  limits.timeout_ms = 30000;
  auto health = RoundTrip(*fd, MakeRequest("health"), limits);
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_TRUE(health->GetBool("ok", false));
  JsonValue ingest = MakeRequest("ingest");
  ingest.Set("corpus", JsonValue::String(world.corpus_csv[7]));
  ingest.Set("hospitals", JsonValue::String(world.hospitals_csv));
  auto appended = RoundTrip(*fd, ingest, limits);
  ASSERT_TRUE(appended.ok()) << appended.status();
  EXPECT_TRUE(appended->GetBool("ok", false)) << appended->Serialize();
  close(*fd);

  (*server)->RequestStop();
  serving.join();

  const std::vector<JsonValue> records =
      ReadAccessLog(options.access_log_path);
  ASSERT_EQ(records.size(), 2u);
  const std::string health_id = records[0].GetString("id");
  const std::string ingest_id = records[1].GetString("id");
  EXPECT_EQ(records[0].GetString("endpoint"), "health");
  EXPECT_EQ(records[1].GetString("endpoint"), "ingest");
  EXPECT_TRUE(records[0].GetBool("ok", false));
  EXPECT_TRUE(records[1].GetBool("ok", false));
  EXPECT_EQ(records[0].GetInt("version", -1), 1);
  EXPECT_EQ(records[1].GetInt("version", -1), 2);
  EXPECT_FALSE(health_id.empty());
  EXPECT_NE(health_id, ingest_id);
  EXPECT_GT(records[0].GetDouble("latency_seconds", 0.0), 0.0);
  EXPECT_GT(records[0].GetInt("bytes_in", 0), 0);
  EXPECT_GT(records[0].GetInt("bytes_out", 0), 0);

  // The ids in the log are the ids on the trace timeline: every event
  // the request produced is nested under "req/<id>/".
  std::vector<std::string> names;
  for (const obs::ThreadTrace& thread : trace.Snapshot()) {
    for (const obs::TraceEvent& event : thread.events) {
      names.push_back(event.name);
    }
  }
  const auto has = [&names](const std::string& name) {
    for (const std::string& candidate : names) {
      if (candidate == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("req/" + health_id + "/serve/health")) << health_id;
  EXPECT_TRUE(has("req/" + ingest_id + "/serve/ingest")) << ingest_id;

  // Tail-based sampling retained the slow ingest's span tree under its
  // request id — and only that request.
  const std::vector<obs::RetainedTrace> retained =
      trace.RetainedSnapshot();
  ASSERT_EQ(retained.size(), 1u);
  EXPECT_EQ(retained[0].label, ingest_id);
  ASSERT_FALSE(retained[0].events.empty());
  bool saw_ingest_event = false;
  for (const obs::TraceEvent& event : retained[0].events) {
    if (event.name == "req/" + ingest_id + "/serve/ingest") {
      saw_ingest_event = true;
    }
  }
  EXPECT_TRUE(saw_ingest_event);
}

TEST(ServerTest, WatchdogCountsASwapStalledOnAPinnedReader) {
  ServeWorld world = ServeWorld::Create("serve_stall", 7, 6);
  obs::MetricsRegistry metrics;
  ExecContext context;
  context.metrics = &metrics;
  auto service =
      TrendService::Create(TestConfig(world.store_dir.string()), context);
  ASSERT_TRUE(service.ok()) << service.status();

  ServerOptions options;
  options.num_workers = 1;
  options.limits.poll_interval_ms = 10;
  options.swap_stall_deadline_ms = 50;
  auto server = TcpServer::Start(service->get(), options);
  ASSERT_TRUE(server.ok()) << server.status();
  std::thread serving([&server] { (*server)->Serve(); });

  auto pinner = (*service)->hub().Register();
  ASSERT_TRUE(pinner.ok());
  std::thread ingesting;
  {
    // Pin the live snapshot so the ingest's publish cannot drain.
    SnapshotPin pin = (*service)->hub().Acquire(*pinner);
    EXPECT_EQ(pin->version, 1u);
    ingesting = std::thread([&server, &world] {
      auto fd = ConnectTcp("127.0.0.1", (*server)->port());
      ASSERT_TRUE(fd.ok());
      WireLimits limits;
      limits.timeout_ms = 30000;
      JsonValue ingest = MakeRequest("ingest");
      ingest.Set("corpus", JsonValue::String(world.corpus_csv[7]));
      ingest.Set("hospitals", JsonValue::String(world.hospitals_csv));
      auto response = RoundTrip(*fd, ingest, limits);
      ASSERT_TRUE(response.ok()) << response.status();
      EXPECT_TRUE(response->GetBool("ok", false))
          << response->Serialize();
      close(*fd);
    });
    // The publish is now stuck on our pin; the watchdog must flag the
    // episode within deadline + a few poll intervals.
    for (int i = 0;
         i < 500 && metrics.counter_value("serve.swap.stalls") == 0;
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(metrics.counter_value("serve.swap.stalls"), 1u);
    // One stuck drain is one episode, however long it lasts.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    EXPECT_EQ(metrics.counter_value("serve.swap.stalls"), 1u);
  }  // pin released -> the drain completes
  ingesting.join();

  (*server)->RequestStop();
  serving.join();
  EXPECT_EQ(metrics.counter_value("serve.swap.stalls"), 1u);
}

TEST(ServerTest, TraceRingDropRateIsExportedPerWindow) {
  ServeWorld world = ServeWorld::Create("serve_drops", 6, 6);
  obs::MetricsRegistry metrics;
  // A ring this small wraps after a handful of requests, so the hammer
  // below is guaranteed to drop events.
  obs::TraceLog trace(8);
  ExecContext context;
  context.metrics = &metrics;
  context.trace = &trace;
  auto service =
      TrendService::Create(TestConfig(world.store_dir.string()), context);
  ASSERT_TRUE(service.ok()) << service.status();

  ServerOptions options;
  options.num_workers = 2;
  options.limits.poll_interval_ms = 10;
  options.slow_request_threshold_ms = 0;  // retention off: drops only
  auto server = TcpServer::Start(service->get(), options);
  ASSERT_TRUE(server.ok()) << server.status();
  std::thread serving([&server] { (*server)->Serve(); });

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 30;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server] {
      auto fd = ConnectTcp("127.0.0.1", (*server)->port());
      ASSERT_TRUE(fd.ok());
      WireLimits limits;
      limits.timeout_ms = 30000;
      for (int i = 0; i < kRequestsPerClient; ++i) {
        auto response = RoundTrip(*fd, MakeRequest("health"), limits);
        ASSERT_TRUE(response.ok()) << response.status();
        EXPECT_TRUE(response->GetBool("ok", false));
      }
      close(*fd);
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_GT(trace.dropped_count(), 0u);

  // The watchdog samples the drop totals into gauges and feeds the
  // per-interval delta into the "obs.trace.dropped" window channel.
  const auto dropped_gauge = [&metrics] {
    for (const auto& [name, value] : metrics.SnapshotGauges()) {
      if (name == "obs.trace.dropped") return value;
    }
    return -1.0;
  };
  for (int i = 0; i < 500 && dropped_gauge() <= 0.0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const double first = dropped_gauge();
  EXPECT_GT(first, 0.0);

  auto fd = ConnectTcp("127.0.0.1", (*server)->port());
  ASSERT_TRUE(fd.ok());
  WireLimits limits;
  limits.timeout_ms = 30000;
  auto stats = RoundTrip(*fd, MakeRequest("stats"), limits);
  ASSERT_TRUE(stats.ok()) << stats.status();
  ASSERT_TRUE(stats->GetBool("ok", false)) << stats->Serialize();
  const JsonValue* drops = stats->Find("data")
                               ->Find("windows")
                               ->Find("60s")
                               ->Find("obs.trace.dropped");
  ASSERT_NE(drops, nullptr);
  EXPECT_GT(drops->GetInt("count", 0), 0);
  EXPECT_GT(drops->GetDouble("rps", 0.0), 0.0);
  close(*fd);

  // The exported total is monotone: more traffic can only grow it.
  const double second = dropped_gauge();
  EXPECT_GE(second, first);

  (*server)->RequestStop();
  serving.join();
}

}  // namespace
}  // namespace mic::serve
