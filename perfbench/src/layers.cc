// Per-layer metric assembly shared by all workloads, plus the workload
// table and engine factory.
#include <cmath>

#include "util/str.h"
#include "workloads.h"

namespace perfbench {

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"imdb_fd", 1, 2, &RunImdbFd},
      {"fuzzy_lake", 1, 2, &RunFuzzyLake},
      {"lake_churn", 1, 2, &RunLakeChurn},
  };
  return kWorkloads;
}

std::unique_ptr<lakefuzz::LakeEngine> MakeEngine(size_t workers) {
  auto engine = lakefuzz::LakeEngine::Create(
      lakefuzz::EngineOptions().SetNumThreads(workers));
  return engine.ok() ? std::move(engine).value() : nullptr;
}

lakefuzz::Status MeasureSetup(const std::function<void()>& teardown,
                              const std::function<lakefuzz::Status()>& setup,
                              double* median_s) {
  std::vector<double> seconds;
  double total = 0.0;
  while (seconds.size() < kMinSetupReps ||
         (total < kSetupBudgetS && seconds.size() < kMaxSetupReps)) {
    if (!seconds.empty()) teardown();
    const auto start = Clock::now();
    LAKEFUZZ_RETURN_IF_ERROR(setup());
    seconds.push_back(MillisSince(start) / 1e3);
    total += seconds.back();
  }
  *median_s = Median(std::move(seconds));
  return lakefuzz::Status::OK();
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The layers the trace attributes self time to, in report order.
const char* const kLayers[] = {"match", "core",      "fd",     "table",
                               "session", "discovery", "catalog"};

}  // namespace

void CountEngineWork(const lakefuzz::Tracer& tracer,
                     const lakefuzz::FuzzyFdReport* report, SpanLog* log) {
  for (const lakefuzz::Span& s : tracer.Spans()) {
    if (s.name != "align") continue;
    for (const lakefuzz::SpanAttr& attr : s.attrs) {
      if (attr.key == "cached") {
        log->Count(attr.num ? "core.schema_cache_hits" : "match.align_calls",
                   1);
      }
    }
  }
  if (report == nullptr) return;
  const auto& ms = report->match_stats;
  log->Count("core.cost_evaluations", ms.cost_evaluations);
  log->Count("core.pruned_evaluations", ms.pruned_evaluations);
  log->Count("core.values_rewritten", report->values_rewritten);
  log->Count("assignment.dense_solves", ms.dense_solves);
  log->Count("assignment.sparse_solves", ms.sparse_solves);
  log->Count("embedding.hits", ms.embedding_cache_hits);
  log->Count("embedding.misses", ms.embedding_cache_misses);
  const auto& fd = report->fd_stats;
  log->Count("fd.enumeration_ms", fd.enumeration_seconds * 1e3);
  log->Count("fd.search_nodes", static_cast<double>(fd.search_nodes));
  log->Count("fd.results", static_cast<double>(fd.results));
  log->Count("fd.results_before_subsumption",
             static_cast<double>(fd.results_before_subsumption));
  log->Count("fd.largest_component",
             static_cast<double>(fd.largest_component));
  log->Count("fd.pool_busy_ms", fd.pool_busy_seconds * 1e3);
  log->Count("fd.pool_wait_ms", fd.pool_wait_seconds * 1e3);
}

void AddPerLayer(const std::vector<const SpanLog*>& request_logs,
                 const SpanLog& setup_log, double engine_ms, size_t workers,
                 RunReport* report) {
  const SpanSummary sum = Summarize(request_logs);
  const SpanSummary setup = Summarize({&setup_log});
  Counters c;
  for (const SpanLog* log : request_logs) {
    for (const auto& [name, value] : log->counters()) c[name] += value;
  }
  const double requests = static_cast<double>(sum.requests);
  auto per_request = [&](const char* name) { return Ratio(c[name], requests); };
  auto add = [&](const char* name, double value, const char* unit) {
    report->metrics.push_back({name, value, unit});
  };

  // Spans with children: fd.stage (its self time is decoding) and
  // discovery.query (ranking is discovery.rank); every other span is a leaf.
  add("fd.build_ms", sum.Median({"fd.build"}), "ms");
  add("fd.index_ms", sum.Median({"fd.index"}), "ms");
  add("fd.run_ms", sum.Median({"fd.enumerate", "fd.subsume"}), "ms");
  add("fd.emit_ms", sum.Median({"fd.stage", "fd.emit"}), "ms");
  add("fd.search_nodes", per_request("fd.search_nodes"), "count");
  add("fd.ns_per_node",
      Ratio(c["fd.enumeration_ms"] * 1e6, c["fd.search_nodes"]), "ns");
  add("fd.nodes_per_output_tuple",
      Ratio(c["fd.search_nodes"], c["fd.results"]), "ratio");
  add("fd.subsumption_keep_ratio",
      Ratio(c["fd.results"], c["fd.results_before_subsumption"]), "ratio");
  add("fd.largest_component", per_request("fd.largest_component"), "count");
  add("fd.pool_busy_ms", per_request("fd.pool_busy_ms"), "ms");
  add("fd.pool_wait_ms", per_request("fd.pool_wait_ms"), "ms");
  add("fd.parallel_efficiency",
      Ratio(c["fd.pool_busy_ms"], sum.Total({"fd.enumerate", "fd.subsume"}) *
                                      static_cast<double>(workers)),
      "ratio");
  add("fd.values_interned", per_request("fd.values_interned"), "count");

  add("core.match_rewrite_ms", sum.Median({"core.match", "core.rewrite"}),
      "ms");
  add("core.cost_evaluations", per_request("core.cost_evaluations"), "count");
  add("core.pruned_ratio",
      Ratio(c["core.pruned_evaluations"], c["core.cost_evaluations"]),
      "ratio");
  add("core.values_rewritten", per_request("core.values_rewritten"), "count");
  add("core.schema_cache_hit_ratio",
      Ratio(c["core.schema_cache_hits"],
            c["core.schema_cache_hits"] + c["match.align_calls"]),
      "ratio");
  add("assignment.dense_solves", per_request("assignment.dense_solves"),
      "count");
  add("assignment.sparse_solves", per_request("assignment.sparse_solves"),
      "count");
  add("embedding.hit_ratio",
      Ratio(c["embedding.hits"], c["embedding.hits"] + c["embedding.misses"]),
      "ratio");
  add("embedding.misses", per_request("embedding.misses"), "count");
  add("match.align_ms", sum.Median({"match.align"}), "ms");
  add("match.align_calls", per_request("match.align_calls"), "count");
  add("table.csv_parse_ms", sum.Median({"table.csv_parse"}), "ms");
  add("discovery.sketch_ms", sum.Median({"discovery.sketch"}), "ms");
  add("discovery.query_ms", sum.Median({"discovery.query", "discovery.rank"}),
      "ms");
  add("catalog.open_ms", setup.Median({"catalog.open"}), "ms");
  add("catalog.save_ms", sum.Median({"catalog.save"}), "ms");
  add("catalog.bytes_written_per_save",
      Ratio(c["catalog.bytes_written"], c["catalog.saves"]), "bytes");
  add("catalog.write_amp",
      Ratio(c["catalog.bytes_written"], c["catalog.cell_bytes_registered"]),
      "ratio");
  add("catalog.tables_reused_ratio",
      Ratio(c["catalog.tables_reused"],
            c["catalog.tables_reused"] + c["catalog.tables_written"]),
      "ratio");

  double self_total = 0.0;
  for (const char* layer : kLayers) {
    auto it = sum.layer_self_ms.find(layer);
    if (it != sum.layer_self_ms.end()) self_total += it->second;
  }
  for (const char* layer : kLayers) {
    auto it = sum.layer_self_ms.find(layer);
    const double self = it == sum.layer_self_ms.end() ? 0.0 : it->second;
    report->metrics.push_back(
        {std::string(layer) + ".self_ms", Ratio(self, requests), "ms"});
    report->info.push_back({std::string(layer) + ".self_share",
                            Ratio(self, self_total) * 100, "%"});
  }

  const double covered_ms = Median(sum.covered_ms);
  const double gap_pct = Ratio(engine_ms - covered_ms, engine_ms) * 100;
  const bool reconciled = std::abs(gap_pct) <= kGapTolerancePct;
  add("trace.engine_ms", engine_ms, "ms");
  add("trace.covered_ms", covered_ms, "ms");
  add("trace.layer_gap_pct", std::abs(gap_pct), "%");
  add("trace.requests", requests, "count");
  report->info.push_back({"trace.signed_gap_pct", gap_pct, "%"});
  ++report->attempted;
  if (!reconciled) ++report->failed;
  report->notes.push_back(lakefuzz::StrFormat(
      "trace reconciles with the untraced engine within +-%.0f%%: %s "
      "(gap %.1f%%)",
      kGapTolerancePct, reconciled ? "yes" : "NO, counted as a failed check",
      gap_pct));
}

void WriteSpans(const RunConfig& config,
                const std::vector<const SpanLog*>& request_logs,
                const SpanLog& setup_log, RunReport* report) {
  std::vector<const SpanLog*> all = request_logs;
  all.push_back(&setup_log);
  const std::string path = config.out_dir + "/" + config.workload + "-seed" +
                           std::to_string(config.seed) + "-spans.json";
  if (WriteSpansJson(all, path)) {
    report->notes.push_back("spans written to " + path);
  } else {
    report->notes.push_back("could not write spans to " + path);
  }
}

}  // namespace perfbench
