// Tests for the observability layer (src/obs/): histogram bucket geometry
// and shard merging, the metrics registry and its text exposition, trace
// trees and their Chrome JSON export, the stage ledger and its StageScope
// writer, the slow-request log line, and the two engine-level contracts —
// byte-identical results with tracing on or off, and span durations that
// reconcile with the stage ledger.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "datagen/imdb.h"
#include "obs/metrics.h"
#include "obs/stats_export.h"
#include "obs/trace.h"
#include "util/str.h"

namespace lakefuzz {
namespace {

// ------------------------------------------------------------ histogram

TEST(HistogramTest, BucketGeometryCoversU64Contiguously) {
  // Values 0..3 land in their own exact buckets.
  for (uint64_t v = 0; v < 4; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), v);
    EXPECT_EQ(Histogram::BucketLowerBound(v), v);
    EXPECT_EQ(Histogram::BucketUpperBound(v), v);
  }
  // Every bucket starts exactly one past the previous bucket's end.
  for (size_t i = 1; i < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketLowerBound(i),
              Histogram::BucketUpperBound(i - 1) + 1)
        << "gap or overlap at bucket " << i;
  }
  // Round-trip: each probe value falls inside its own bucket's bounds.
  std::vector<uint64_t> probes = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 100, 1000,
                                  (1ull << 20) - 1, 1ull << 20,
                                  (1ull << 20) + 1, 1ull << 40,
                                  (1ull << 63) - 1, 1ull << 63, UINT64_MAX};
  for (uint64_t v : probes) {
    const size_t b = Histogram::BucketIndex(v);
    ASSERT_LT(b, Histogram::kNumBuckets) << v;
    EXPECT_LE(Histogram::BucketLowerBound(b), v);
    EXPECT_GE(Histogram::BucketUpperBound(b), v);
  }
  // The top bucket reaches UINT64_MAX.
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kNumBuckets - 1),
            UINT64_MAX);
  // Relative bucket width (the quantile error bound): <= 25% of the lower
  // bound everywhere past the exact range.
  for (size_t i = 4; i < Histogram::kNumBuckets; ++i) {
    const double lo = static_cast<double>(Histogram::BucketLowerBound(i));
    const double width = static_cast<double>(Histogram::BucketUpperBound(i)) -
                         lo + 1.0;
    EXPECT_LE(width / lo, 0.25 + 1e-9) << "bucket " << i;
  }
}

TEST(HistogramTest, ConcurrentObservesMergeExactly) {
  Histogram hist;
  constexpr size_t kThreads = 8;
  constexpr uint64_t kPerThread = 10000;
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&hist, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) hist.Observe(t * 100);
    });
  }
  for (auto& w : workers) w.join();
  const HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.total_count, kThreads * kPerThread);
  uint64_t expected_sum = 0;
  for (size_t t = 0; t < kThreads; ++t) expected_sum += t * 100 * kPerThread;
  EXPECT_EQ(snap.sum, expected_sum);
}

TEST(HistogramTest, QuantileWithinBucketErrorBound) {
  Histogram hist;
  for (uint64_t v = 0; v < 1000; ++v) hist.Observe(v);
  const HistogramSnapshot snap = hist.Snapshot();
  for (double q : {0.10, 0.50, 0.90, 0.99}) {
    const double exact = q * 999.0;
    const double est = static_cast<double>(snap.Quantile(q));
    // The log-linear geometry bounds the error by one bucket width: <= 25%
    // relative (plus a couple of counts of rank rounding).
    EXPECT_NEAR(est, exact, exact * 0.25 + 2.0) << "q=" << q;
  }
  // Degenerate cases.
  EXPECT_EQ(HistogramSnapshot{}.Quantile(0.5), 0u);
  Histogram one;
  one.Observe(42);
  EXPECT_NEAR(static_cast<double>(one.Snapshot().Quantile(0.5)), 42.0, 42.0 * 0.25);
}

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  Counter c;
  constexpr size_t kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

// ------------------------------------------------------------- registry

TEST(MetricsRegistryTest, StablePointersAndKindSafety) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("requests", "served");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(registry.GetCounter("requests", "served"), c);  // same object
  // Same name, different kind: refused instead of aliased.
  EXPECT_EQ(registry.GetGauge("requests", ""), nullptr);
  EXPECT_EQ(registry.GetHistogram("requests", ""), nullptr);
  c->Add(3);
  Gauge* g = registry.GetGauge("depth", "queue depth");
  g->Set(-7);
  Histogram* h = registry.GetHistogram("lat", "latency");
  h->Observe(100);

  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.samples.size(), 3u);
  const MetricSample* rs = snap.Find("requests");
  ASSERT_NE(rs, nullptr);
  EXPECT_EQ(rs->kind, MetricKind::kCounter);
  EXPECT_DOUBLE_EQ(rs->value, 3.0);
  const MetricSample* gs = snap.Find("depth");
  ASSERT_NE(gs, nullptr);
  EXPECT_DOUBLE_EQ(gs->value, -7.0);
  const MetricSample* hs = snap.Find("lat");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->hist.total_count, 1u);
  EXPECT_EQ(hs->hist.sum, 100u);
}

TEST(MetricsRegistryTest, TextExpositionRendersTheSnapshot) {
  MetricsRegistry registry;
  registry.GetCounter("reqs", "requests served")->Add(41);
  registry.GetGauge("depth", "")->Set(5);
  Histogram* h = registry.GetHistogram("lat", "latency ns");
  h->Observe(1);
  h->Observe(1000);

  const MetricsSnapshot snap = registry.Snapshot();
  const std::string text = RenderMetricsText(snap);
  // The exposition is rendered from the same snapshot the API returns, so
  // the numbers agree by construction; spot-check the wire format.
  EXPECT_NE(text.find("# HELP reqs requests served\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE reqs counter\n"), std::string::npos);
  EXPECT_NE(text.find("reqs 41\n"), std::string::npos);
  EXPECT_NE(text.find("depth 5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat histogram\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_sum 1001\n"), std::string::npos);
  EXPECT_NE(text.find("lat_count 2\n"), std::string::npos);
}

// ---------------------------------------------------------------- tracer

TEST(TracerTest, SpanTreeNestingAndAttrs) {
  Tracer tracer;
  const uint64_t root = tracer.BeginSpan("request");
  const uint64_t child = tracer.BeginSpan("fd", root);
  const uint64_t grandchild = tracer.BeginSpan("fd_task", child);
  tracer.AddAttr(grandchild, "nodes", int64_t{42});
  tracer.AddAttr(root, "mode", std::string("integrate"));
  tracer.EndSpan(grandchild);
  tracer.EndSpan(child);
  tracer.EndSpan(root);

  const std::vector<Span> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "request");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[2].parent, child);
  EXPECT_FALSE(spans[2].open);
  EXPECT_GE(spans[0].duration_ns, spans[1].duration_ns);

  // Attribute round-trip through the Chrome export.
  const std::string json = tracer.ToChromeJson();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"fd_task\""), std::string::npos);
  EXPECT_NE(json.find("\"nodes\":42"), std::string::npos);
  EXPECT_NE(json.find("\"mode\":\"integrate\""), std::string::npos);
  EXPECT_NE(json.find(StrFormat("\"parent\":%llu",
                                static_cast<unsigned long long>(child))),
            std::string::npos);

  // Flame summary aggregates by path with indentation by depth.
  const std::string flame = tracer.FlameSummary();
  EXPECT_NE(flame.find("request"), std::string::npos);
  EXPECT_NE(flame.find("  fd"), std::string::npos);
  EXPECT_NE(flame.find("    fd_task"), std::string::npos);
}

TEST(TracerTest, NullIdAndSpanCap) {
  TraceOptions opts;
  opts.max_spans = 2;
  Tracer tracer(opts);
  // The null id is accepted everywhere as a no-op.
  tracer.EndSpan(0);
  tracer.AddAttr(0, "k", int64_t{1});
  EXPECT_EQ(tracer.span_count(), 0u);
  const uint64_t a = tracer.BeginSpan("a");
  const uint64_t b = tracer.BeginSpan("b");
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_EQ(tracer.BeginSpan("c"), 0u);  // over the cap → null id
  EXPECT_EQ(tracer.span_count(), 2u);
  EXPECT_EQ(tracer.dropped_spans(), 1u);
}

TEST(TracerTest, ScopedSpanNullPathIsFree) {
  // A default ScopedSpan and one over a null context are inert.
  ScopedSpan none;
  none.AddAttr("k", int64_t{1});
  none.End();
  EXPECT_FALSE(none.active());
  RequestContext ctx;  // tracer == nullptr
  ScopedSpan via_ctx(ctx, "stage");
  EXPECT_FALSE(via_ctx.active());
  EXPECT_EQ(via_ctx.id(), 0u);
}

TEST(StageScopeTest, RecordsLedgerSpanAndProgress) {
  Tracer tracer;
  StageLedger stages;
  std::vector<ProgressEvent> events;
  const ProgressFn progress = [&events](const ProgressEvent& e) {
    events.push_back(e);
  };
  RequestContext ctx;
  ctx.tracer = &tracer;
  ctx.ledger = &stages;
  ctx.progress = &progress;
  {
    StageScope align(ctx, Stage::kAlign);
    align.AddAttr("cached", int64_t{0});
    EXPECT_NE(align.span_id(), 0u);
    const uint64_t ns = align.End();
    EXPECT_EQ(stages.wall_ns(Stage::kAlign), ns);
  }
  {
    // Destroyed without End(): an aborted stage is still timed and traced,
    // but reports no completion.
    StageScope build(ctx, Stage::kFdBuild);
  }
  {
    // Ledger-only stages fire no progress at all.
    StageScope fd(ctx, Stage::kFd);
    fd.End();
  }
  EXPECT_EQ(stages.runs(Stage::kAlign), 1u);
  EXPECT_EQ(stages.runs(Stage::kFdBuild), 1u);
  EXPECT_EQ(stages.runs(Stage::kFd), 1u);
  EXPECT_EQ(stages.runs(Stage::kMatch), 0u);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].stage, Stage::kAlign);
  EXPECT_EQ(events[0].done, 0u);
  EXPECT_EQ(events[1].stage, Stage::kAlign);
  EXPECT_EQ(events[1].done, 1u);
  EXPECT_EQ(events[2].stage, Stage::kFdBuild);
  EXPECT_EQ(events[2].done, 0u);

  const std::vector<Span> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "align");
  EXPECT_EQ(spans[1].name, "fd_build");
  EXPECT_EQ(spans[2].name, "fd");
  for (const Span& s : spans) EXPECT_FALSE(s.open) << s.name;
  ASSERT_EQ(spans[0].attrs.size(), 1u);
  EXPECT_EQ(spans[0].attrs[0].key, "cached");

  // A bare context (no tracer, ledger or progress) is a valid scope too.
  StageScope bare(RequestContext(), Stage::kMatch);
  EXPECT_EQ(bare.span_id(), 0u);
  bare.End();
}

TEST(TracerTest, SlowRequestLineFormat) {
  StageLedger stages;
  stages.Record(Stage::kAlign, 3'100'000);
  stages.Record(Stage::kFd, 401'000'000);
  // Sub-stages of fd are not top-level: the line leaves them out.
  stages.Record(Stage::kFdEnumerate, 390'000'000);
  SlowLogInfo info;
  info.request_id = 7;
  info.mode = "integrate";
  info.tables = {"a", "b"};
  info.total_ms = 812.4;
  info.threshold_ms = 500.0;
  info.error = "ok";
  const std::string line = SlowRequestLine(info, stages);
  EXPECT_NE(line.find("slow_request id=7 mode=integrate"), std::string::npos);
  EXPECT_NE(line.find("total_ms=812.4"), std::string::npos);
  EXPECT_NE(line.find("threshold_ms=500.0"), std::string::npos);
  EXPECT_NE(line.find("error=ok"), std::string::npos);
  EXPECT_NE(line.find("truncated=0"), std::string::npos);
  EXPECT_NE(line.find("tables=a,b"), std::string::npos);
  EXPECT_NE(line.find(" stages=[align=3.1 fd=401.0]"), std::string::npos)
      << line;
  // Stages that never ran are left out.
  EXPECT_NE(SlowRequestLine(info, StageLedger()).find("stages=[]"),
            std::string::npos);
}

// ------------------------------------------------- engine-level contracts

bool TablesEqual(const Table& a, const Table& b) {
  if (a.NumRows() != b.NumRows() || a.NumColumns() != b.NumColumns()) {
    return false;
  }
  for (size_t r = 0; r < a.NumRows(); ++r) {
    for (size_t c = 0; c < a.NumColumns(); ++c) {
      if (!(a.At(r, c) == b.At(r, c))) return false;
    }
  }
  return true;
}

std::unique_ptr<LakeEngine> MakeImdbEngine(size_t threads,
                                           ImdbBenchmark* bench) {
  ImdbOptions gen;
  gen.target_tuples = 300;
  *bench = GenerateImdb(gen);
  auto engine =
      LakeEngine::Create(EngineOptions().SetNumThreads(threads));
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  for (const auto& t : bench->tables) {
    EXPECT_TRUE((*engine)->RegisterTable(t.name(), t).ok());
  }
  return std::move(engine).value();
}

TEST(TracedEngineTest, TracingOnOffByteIdentity) {
  // Tracing is observation-only: the exact same tuples, in the same order,
  // with and without a tracer attached — at 1, 2, and 8 threads.
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    ImdbBenchmark bench;
    auto engine = MakeImdbEngine(threads, &bench);
    std::vector<std::string> names;
    for (const auto& t : bench.tables) names.push_back(t.name());
    RequestOptions req;
    req.holistic_alignment = false;

    auto plain = engine->Integrate(names, req);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();

    Tracer tracer;
    RequestOptions traced_req = req;
    traced_req.tracer = &tracer;
    auto traced = engine->Integrate(names, traced_req);
    ASSERT_TRUE(traced.ok()) << traced.status().ToString();
    EXPECT_TRUE(TablesEqual(plain->integrated, traced->integrated))
        << "tracing changed Integrate output at " << threads << " threads";
    EXPECT_GT(tracer.span_count(), 0u);

    // Discovery: identical candidate ranking traced and untraced.
    auto top_plain = engine->DiscoverUnionable(names.front(), 3);
    ASSERT_TRUE(top_plain.ok());
    Tracer dtracer;
    RequestContext dctx;
    dctx.tracer = &dtracer;
    auto top_traced = engine->DiscoverUnionable(names.front(), 3, dctx);
    ASSERT_TRUE(top_traced.ok());
    ASSERT_EQ(top_plain->size(), top_traced->size());
    for (size_t i = 0; i < top_plain->size(); ++i) {
      EXPECT_EQ((*top_plain)[i].name, (*top_traced)[i].name);
      EXPECT_DOUBLE_EQ((*top_plain)[i].score, (*top_traced)[i].score);
    }
    EXPECT_GT(dtracer.span_count(), 0u);
  }
}

class NullSink : public RowSink {
 public:
  Status OnBatch(const std::vector<FdResultTuple>& batch) override {
    rows_ += batch.size();
    return Status::OK();
  }
  size_t rows_ = 0;
};

class CountingSink : public NullSink {
 public:
  Status OnBatch(const std::vector<FdResultTuple>& batch) override {
    ++batches_;
    return NullSink::OnBatch(batch);
  }
  size_t batches_ = 0;
};

TEST(TracedEngineTest, DiscoverAndIntegrateSpanCoverageAndReconciliation) {
  ImdbBenchmark bench;
  auto engine = MakeImdbEngine(2, &bench);
  TraceOptions topts;
  topts.request_id = 99;  // stamps the export's pid
  Tracer tracer(topts);
  RequestOptions req;
  req.holistic_alignment = false;
  req.tracer = &tracer;
  req.request_id = 99;
  NullSink sink;
  auto report = engine->DiscoverAndIntegrate(bench.tables.front().name(), 3,
                                             &sink, req);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GT(sink.rows_, 0u);

  // The span tree covers every pipeline stage.
  std::set<std::string> names;
  for (const Span& s : tracer.Spans()) {
    names.insert(s.name);
    EXPECT_FALSE(s.open) << s.name << " left open";
  }
  for (const char* expected :
       {"request", "discover", "discover_rank", "align", "match", "rewrite",
        "fd", "fd_build", "fd_index", "fd_enumerate", "fd_subsume", "emit"}) {
    EXPECT_TRUE(names.count(expected)) << "missing span: " << expected;
  }

  // The export is one complete event per span, stamped with the request id.
  const std::string json = tracer.ToChromeJson();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":99"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);

  // The root's align, match, rewrite and fd child spans reconcile with the
  // report's ledger: total_seconds() = align + match + rewrite + fd, and
  // each of those spans is opened by the StageScope that fills the ledger.
  const std::vector<Span> spans = tracer.Spans();
  uint64_t root = 0;
  for (const Span& s : spans) {
    if (s.parent == 0 && s.name == "request") root = s.id;
  }
  ASSERT_NE(root, 0u);
  double span_total = 0.0;
  for (const Span& s : spans) {
    if (s.parent == root && (s.name == "align" || s.name == "match" ||
                             s.name == "rewrite" || s.name == "fd")) {
      span_total += static_cast<double>(s.duration_ns) / 1e9;
    }
  }
  const double report_total = report->total_seconds();
  EXPECT_NEAR(span_total, report_total,
              report_total * 0.05 + 0.002)
      << "span tree and stage ledger disagree";

  // The emit span counts the batches the sink received — including one
  // batch of everything when batch_rows is as large as it gets.
  const std::vector<std::string> one_table = {bench.tables.front().name()};
  for (size_t batch_rows : {size_t{4}, SIZE_MAX}) {
    Tracer emit_tracer;
    RequestOptions emit_req;
    emit_req.holistic_alignment = false;
    emit_req.tracer = &emit_tracer;
    emit_req.batch_rows = batch_rows;
    CountingSink counted;
    auto streamed =
        engine->IntegrateToSink(one_table, &counted, emit_req);
    ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
    ASSERT_GT(counted.rows_, 0u);
    int64_t batches = -1;
    for (const Span& s : emit_tracer.Spans()) {
      if (s.name != "emit") continue;
      for (const SpanAttr& attr : s.attrs) {
        if (attr.key == "batches") batches = attr.num;
      }
    }
    EXPECT_EQ(batches, static_cast<int64_t>(counted.batches_))
        << "batch_rows " << batch_rows;
    if (batch_rows == SIZE_MAX) EXPECT_EQ(counted.batches_, 1u);
  }
}

TEST(TracedEngineTest, MetricsSnapshotCountsRequests) {
  ImdbBenchmark bench;
  auto engine = MakeImdbEngine(2, &bench);
  std::vector<std::string> names;
  for (const auto& t : bench.tables) names.push_back(t.name());
  RequestOptions req;
  req.holistic_alignment = false;
  ASSERT_TRUE(engine->Integrate(names, req).ok());
  ASSERT_TRUE(engine->Integrate(names, req).ok());
  RequestOptions regular = req;
  regular.fuzzy = false;
  ASSERT_TRUE(engine->Integrate(names, regular).ok());

  const MetricsSnapshot snap = engine->MetricsSnapshot();
  const MetricSample* total = snap.Find("lakefuzz_requests_total");
  ASSERT_NE(total, nullptr);
  EXPECT_DOUBLE_EQ(total->value, 3.0);
  const MetricSample* latency = snap.Find("lakefuzz_request_latency_ns");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->hist.total_count, 3u);
  // One histogram per stage, observed only for the stages a request ran:
  // the regular-FD request skipped match and rewrite, nobody discovered.
  auto stage_count = [&snap](const std::string& stage) -> uint64_t {
    const MetricSample* s =
        snap.Find("lakefuzz_stage_" + stage + "_latency_ns");
    EXPECT_NE(s, nullptr) << stage;
    return s != nullptr ? s->hist.total_count : 0;
  };
  EXPECT_EQ(stage_count("match"), 2u);
  EXPECT_EQ(stage_count("rewrite"), 2u);
  for (const char* stage : {"admission_wait", "align", "fd", "fd_build",
                            "fd_index", "fd_enumerate", "fd_subsume",
                            "emit"}) {
    EXPECT_EQ(stage_count(stage), 3u) << stage;
  }
  EXPECT_EQ(stage_count("discover"), 0u);
  const MetricSample* tables = snap.Find("lakefuzz_registered_tables");
  ASSERT_NE(tables, nullptr);
  EXPECT_DOUBLE_EQ(tables->value,
                   static_cast<double>(bench.tables.size()));
  const MetricSample* rss = snap.Find("lakefuzz_process_peak_rss_bytes");
  ASSERT_NE(rss, nullptr);
  EXPECT_GT(rss->value, 0.0);

  // The text exposition renders exactly this snapshot.
  const std::string text = RenderMetricsText(snap);
  EXPECT_NE(text.find("lakefuzz_requests_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("lakefuzz_request_latency_ns_count 3\n"),
            std::string::npos);
  for (const MetricSample& s : snap.samples) {
    EXPECT_NE(text.find("# TYPE " + s.name + " "), std::string::npos)
        << s.name << " missing from exposition";
  }
}

TEST(TracedEngineTest, SlowLogFiresAboveThreshold) {
  ImdbBenchmark bench;
  ImdbOptions gen;
  gen.target_tuples = 300;
  bench = GenerateImdb(gen);
  std::vector<std::string> slow_lines;
  EngineOptions opts;
  opts.SetNumThreads(1).SetSlowRequestMs(0.0001);  // everything is "slow"
  opts.SetSlowLog([&slow_lines](const std::string& line) {
    slow_lines.push_back(line);
  });
  auto engine = LakeEngine::Create(opts);
  ASSERT_TRUE(engine.ok());
  std::vector<std::string> names;
  for (const auto& t : bench.tables) {
    ASSERT_TRUE((*engine)->RegisterTable(t.name(), t).ok());
    names.push_back(t.name());
  }
  // Untraced, as production runs: the stage list comes from the ledger
  // every request carries.
  RequestOptions req;
  req.holistic_alignment = false;
  ASSERT_TRUE((*engine)->Integrate(names, req).ok());
  ASSERT_EQ(slow_lines.size(), 1u);
  EXPECT_NE(slow_lines[0].find("slow_request id=1 mode=integrate"),
            std::string::npos);
  const size_t stages = slow_lines[0].find("stages=[");
  ASSERT_NE(stages, std::string::npos);
  EXPECT_NE(slow_lines[0].find("align=", stages), std::string::npos);
  EXPECT_NE(slow_lines[0].find("fd=", stages), std::string::npos);
}

TEST(StatsExportTest, FdExtrasMatchTheStatsFields) {
  FdStats stats;
  stats.intra_tasks = 3;
  stats.pool_tasks = 5;
  stats.pool_busy_seconds = 0.25;
  auto extras = FdExecutionExtras(stats);
  auto find = [&extras](const std::string& key) -> double {
    for (const auto& [k, v] : extras) {
      if (k == key) return v;
    }
    ADD_FAILURE() << "missing extra: " << key;
    return -1.0;
  };
  EXPECT_DOUBLE_EQ(find("intra_tasks"), 3.0);
  EXPECT_DOUBLE_EQ(find("pool_tasks"), 5.0);
  EXPECT_DOUBLE_EQ(find("pool_busy_s"), 0.25);
  EXPECT_GT(find("peak_rss_mb"), 0.0);
}

}  // namespace
}  // namespace lakefuzz
