#include "core/fuzzy_fd.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "obs/trace.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace lakefuzz {
namespace {

/// Output of the FD stage proper: the problem (decoding through the
/// session dictionary) plus the post-subsumption interned result rows.
/// Keeping results interned here is what lets the pipeline decode in
/// batches without ever materializing the full result set.
struct FdStage {
  FdProblem problem;
  std::vector<FdCodeTuple> codes;
  FdStats stats;
};

/// The FD stage: outer-union gather of the (remapped) code columns +
/// executor run to interned codes. Also fills `report->fd_stats` when a
/// report is given.
Result<FdStage> RunFdStage(const EncodedTables& tables,
                           const AlignedSchema& aligned,
                           const CodeRemaps& remaps,
                           const FuzzyFdOptions& options,
                           const RequestContext& ctx, FuzzyFdReport* report) {
  StageScope build(ctx, Stage::kFdBuild);
  LAKEFUZZ_FAULT_POINT("fd/build");
  Result<FdProblem> built = FdProblem::BuildInterned(
      tables, aligned, options.session_dict->dict(), remaps);
  if (!built.ok()) return built.status();
  FdProblem problem = std::move(built).value();
  build.AddAttr("tuples", static_cast<int64_t>(problem.num_tuples()));
  build.End();
  // Post-build stop: under kTruncate a deadline that expired during the
  // build falls through to the executor, whose first per-component
  // checkpoint records the truncation (0 components completed) — the
  // graceful-degradation path, not a hard error.
  Status post_build = ctx.CheckStop("full disjunction");
  if (!post_build.ok() && !ctx.ShouldTruncate(post_build.code())) {
    return post_build;
  }

  FdStats stats;
  LAKEFUZZ_ASSIGN_OR_RETURN(
      std::vector<FdCodeTuple> codes,
      FullDisjunction(options.fd).RunCodes(&problem, options.pool, &stats,
                                           ctx));

  // Result-tuple budget, enforced once here post-subsumption so every
  // consumer sees the same cut.
  if (ctx.budget.max_result_tuples > 0 &&
      codes.size() > ctx.budget.max_result_tuples) {
    if (ctx.policy != BudgetPolicy::kTruncate) {
      return Status::ResourceExhausted(
          "result budget exhausted (ResourceBudget::max_result_tuples)");
    }
    codes.resize(ctx.budget.max_result_tuples);
    if (!stats.truncation.truncated) {
      stats.truncation.truncated = true;
      stats.truncation.stage = Stage::kEmit;
      stats.truncation.reason =
          "result budget exhausted (ResourceBudget::max_result_tuples)";
    }
    stats.truncation.tuples_emitted = codes.size();
  }

  if (report != nullptr) {
    report->fd_stats = stats;
    report->truncation.Merge(stats.truncation);
  }
  return FdStage{std::move(problem), std::move(codes), stats};
}

/// Decodes `codes` on `pool` in windows of `batch_rows` and hands each
/// window to `emit` (reusing one batch buffer). Returns the number of tuples
/// emitted. A stop between batches aborts the stream — except a
/// deadline/budget stop under kTruncate, which ends it cleanly after the
/// batches already delivered and records the cut in `truncation` (when
/// given).
Result<size_t> EmitCodeBatches(const FdProblem& problem,
                               const std::vector<FdCodeTuple>& codes,
                               size_t batch_rows, ThreadPool* pool,
                               const FdBatchFn& emit,
                               const RequestContext& ctx,
                               Truncation* truncation) {
  StageScope emit_scope(ctx, Stage::kEmit);
  std::vector<FdResultTuple> batch;
  size_t emitted = 0;
  size_t batches = 0;
  while (emitted < codes.size()) {
    Status stop = ctx.CheckStop("result emission");
    if (!stop.ok()) {
      if (!ctx.ShouldTruncate(stop.code())) return stop;
      if (truncation != nullptr) {
        if (!truncation->truncated) {
          truncation->truncated = true;
          truncation->stage = Stage::kEmit;
          truncation->reason = stop.message();
        }
        truncation->tuples_emitted = emitted;
      }
      break;
    }
    LAKEFUZZ_FAULT_POINT("sink/write");
    const size_t start = emitted;
    batch.resize(std::min(batch_rows, codes.size() - start));
    MaybeParallelFor(pool, batch.size(), [&](size_t i) {
      batch[i] = DecodeCodeTuple(codes[start + i], problem.dict());
    });
    emitted += batch.size();
    ++batches;
    LAKEFUZZ_RETURN_IF_ERROR(emit(&batch));
    ReportProgress(ctx, Stage::kEmit, emitted, codes.size());
  }
  if (codes.empty()) ReportProgress(ctx, Stage::kEmit, 0, 0);
  emit_scope.AddAttr("tuples", static_cast<int64_t>(emitted));
  emit_scope.AddAttr("batches", static_cast<int64_t>(batches));
  return emitted;
}

/// The codes of one aligning column keyed by their rendering (ToString),
/// each with its cell count. Typed twins such as Int(5) and String("5")
/// share one rendering, so a rendering may carry several codes (first
/// occurrence first).
using RenderedCodes =
    std::unordered_map<std::string, std::vector<std::pair<uint32_t, size_t>>>;

/// Reads the distinct non-null values of one aligning column from its code
/// column: appends each distinct rendering once, in first-occurrence order,
/// to `strings` (the matcher's input) and returns the codes behind them.
RenderedCodes DistinctValues(const std::vector<uint32_t>& column,
                             const ValueDict& dict,
                             std::vector<std::string>* strings) {
  std::vector<uint32_t> order;
  std::unordered_map<uint32_t, size_t> cells;
  for (uint32_t code : column) {
    if (code == ValueDict::kNullCode) continue;
    auto [it, fresh] = cells.try_emplace(code, 0);
    if (fresh) order.push_back(code);
    ++it->second;
  }
  RenderedCodes out;
  for (uint32_t code : order) {
    std::string str = dict.Decode(code).ToString();
    auto [it, fresh] = out.try_emplace(str);
    it->second.emplace_back(code, cells[code]);
    if (fresh) strings->push_back(std::move(str));
  }
  return out;
}

/// One matched universal column: its aligning (table, column) sources, the
/// codes behind the values the matcher saw per source, and the groups it
/// found.
struct MatchedColumn {
  std::vector<std::pair<size_t, size_t>> sources;
  std::vector<RenderedCodes> codes;
  std::vector<ValueGroup> groups;
};

/// The match + rewrite stages (paper Sec 2.2): shared core of the
/// inspection API RewriteTables and the pipeline. Returns the rewrite as
/// per-(table, column) code remaps: every member of a matched group maps to
/// its representative's code (typed: the code of the representative
/// rendering's first occurrence in its column).
Result<CodeRemaps> RewriteCore(const FuzzyFdOptions& options,
                               const RequestContext& ctx,
                               const EncodedTables& tables,
                               const AlignedSchema& aligned,
                               FuzzyFdReport* report) {
  LAKEFUZZ_RETURN_IF_ERROR(ValidateAlignedSchema(aligned, tables));
  const ValueDict& dict = options.session_dict->dict();
  StageScope match(ctx, Stage::kMatch);
  ValueMatcherOptions matcher_options = options.matcher;
  // Session plumbing: the request's pool reaches the matcher unless the
  // caller already set a matcher-specific one.
  if (matcher_options.pool == nullptr) {
    matcher_options.pool = options.pool;
  }
  ValueMatcher matcher(matcher_options);

  std::vector<MatchedColumn> matched_columns;
  ValueMatchStats agg_stats;

  // Under kTruncate, a deadline (or matcher-internal budget) stop here
  // degrades instead of failing: matching stops at the current universal
  // column and integration proceeds over the groups found so far — the FD
  // stage then truncates in turn at its own first checkpoint.
  auto degrade = [&](const Status& stop) {
    if (report != nullptr && !report->truncation.truncated) {
      report->truncation.truncated = true;
      report->truncation.stage = Stage::kMatch;
      report->truncation.reason = stop.message();
    }
  };

  const size_t num_universal = aligned.NumUniversal();
  for (size_t u = 0; u < num_universal; ++u) {
    ReportProgress(ctx, Stage::kMatch, u, num_universal);
    Status stop = ctx.CheckStop("fuzzy value matching");
    if (!stop.ok()) {
      if (!ctx.ShouldTruncate(stop.code())) return stop;
      degrade(stop);
      break;
    }
    MatchedColumn m;
    m.sources = aligned.SourcesOf(u);
    if (m.sources.size() < 2) continue;  // nothing to make consistent

    std::vector<std::vector<std::string>> columns(m.sources.size());
    for (size_t s = 0; s < m.sources.size(); ++s) {
      const auto [l, c] = m.sources[s];
      m.codes.push_back(
          DistinctValues(tables[l]->codes[c], dict, &columns[s]));
    }

    Result<ValueMatchResult> matched_result =
        matcher.MatchColumns(columns, ctx);
    if (!matched_result.ok()) {
      if (!ctx.ShouldTruncate(matched_result.code())) {
        return matched_result.status();
      }
      degrade(matched_result.status());
      break;
    }
    ValueMatchResult matched = std::move(matched_result).value();
    agg_stats.exact_matches += matched.stats.exact_matches;
    agg_stats.assignment_matches += matched.stats.assignment_matches;
    agg_stats.dense_solves += matched.stats.dense_solves;
    agg_stats.sparse_solves += matched.stats.sparse_solves;
    agg_stats.cost_evaluations += matched.stats.cost_evaluations;
    agg_stats.pruned_evaluations += matched.stats.pruned_evaluations;
    agg_stats.embedding_cache_hits += matched.stats.embedding_cache_hits;
    agg_stats.embedding_cache_misses += matched.stats.embedding_cache_misses;
    agg_stats.thresholds_used.insert(agg_stats.thresholds_used.end(),
                                     matched.stats.thresholds_used.begin(),
                                     matched.stats.thresholds_used.end());
    m.groups = std::move(matched.groups);
    matched_columns.push_back(std::move(m));
  }
  ReportProgress(ctx, Stage::kMatch, num_universal, num_universal);
  match.AddAttr("sets_matched", static_cast<int64_t>(matched_columns.size()));
  match.AddAttr("cost_evaluations",
                static_cast<int64_t>(agg_stats.cost_evaluations));
  match.AddAttr("embedding_cache_hits",
                static_cast<int64_t>(agg_stats.embedding_cache_hits));
  match.End();

  StageScope rewrite(ctx, Stage::kRewrite);
  ReportProgress(ctx, Stage::kRewrite, 0, tables.size());
  CodeRemaps remaps(tables.size());
  for (size_t l = 0; l < tables.size(); ++l) {
    remaps[l].resize(tables[l]->codes.size());
  }
  size_t values_rewritten = 0;
  for (const MatchedColumn& m : matched_columns) {
    for (const ValueGroup& g : m.groups) {
      if (g.members.size() < 2) continue;
      const auto& [rep_src, rep_str] = g.members[g.representative_member];
      const uint32_t rep_code = m.codes[rep_src].at(rep_str).front().first;
      for (const auto& [src, str] : g.members) {
        if (str == rep_str) continue;
        auto [l, c] = m.sources[src];
        for (const auto& [code, cells] : m.codes[src].at(str)) {
          remaps[l][c].emplace(code, rep_code);
          values_rewritten += cells;
        }
      }
    }
  }
  ReportProgress(ctx, Stage::kRewrite, tables.size(), tables.size());
  rewrite.AddAttr("values_rewritten", static_cast<int64_t>(values_rewritten));
  rewrite.End();

  if (report != nullptr) {
    report->aligned_sets_matched = matched_columns.size();
    report->values_rewritten = values_rewritten;
    report->match_stats = agg_stats;
  }
  return remaps;
}

Status RequireSessionDict(const FuzzyFdOptions& options) {
  if (options.session_dict == nullptr) {
    return Status::InvalidArgument(
        "the pipeline requires FuzzyFdOptions::session_dict (the dictionary "
        "the tables were encoded into)");
  }
  return Status::OK();
}

/// The pipeline's context: the caller's, recording into the report's own
/// ledger when the caller brought none (a bare pipeline run, no engine).
RequestContext PipelineContext(const FuzzyFdOptions& options,
                               FuzzyFdReport* report) {
  RequestContext ctx = options.context;
  if (ctx.ledger == nullptr && report != nullptr) ctx.ledger = &report->stages;
  return ctx;
}

}  // namespace

Result<std::vector<Table>> FuzzyFullDisjunction::RewriteTables(
    const EncodedTables& tables, const AlignedSchema& aligned,
    FuzzyFdReport* report) const {
  LAKEFUZZ_RETURN_IF_ERROR(RequireSessionDict(options_));
  LAKEFUZZ_ASSIGN_OR_RETURN(
      CodeRemaps remaps,
      RewriteCore(options_, PipelineContext(options_, report), tables,
                  aligned, report));
  const ValueDict& dict = options_.session_dict->dict();
  std::vector<Table> out;
  out.reserve(tables.size());
  for (size_t l = 0; l < tables.size(); ++l) {
    const EncodedTable& t = *tables[l];
    Table decoded(t.name, t.schema);
    std::vector<Value> row(t.codes.size());
    for (size_t r = 0; r < t.NumRows(); ++r) {
      for (size_t c = 0; c < t.codes.size(); ++c) {
        auto it = remaps[l][c].find(t.codes[c][r]);
        row[c] = dict.Decode(it == remaps[l][c].end() ? t.codes[c][r]
                                                      : it->second);
      }
      LAKEFUZZ_RETURN_IF_ERROR(decoded.AppendRow(row));
    }
    out.push_back(std::move(decoded));
  }
  return out;
}

Result<size_t> FuzzyFullDisjunction::RunToBatches(
    const EncodedTables& tables, const AlignedSchema& aligned, bool fuzzy,
    size_t batch_rows, const FdBatchFn& emit, FuzzyFdReport* report) const {
  LAKEFUZZ_RETURN_IF_ERROR(RequireSessionDict(options_));
  if (batch_rows == 0) {
    return Status::InvalidArgument("batch_rows must be positive");
  }
  if (emit == nullptr) {
    return Status::InvalidArgument("the pipeline requires an emit callback");
  }
  const RequestContext ctx = PipelineContext(options_, report);
  CodeRemaps remaps;
  if (fuzzy) {
    LAKEFUZZ_ASSIGN_OR_RETURN(
        remaps, RewriteCore(options_, ctx, tables, aligned, report));
  }
  // The fd stage covers build + enumerate + subsume + batch decode/emit;
  // the sub-stages hang off its span as children.
  StageScope fd(ctx, Stage::kFd);
  const RequestContext fd_ctx = ctx.WithSpan(fd.span_id());
  LAKEFUZZ_ASSIGN_OR_RETURN(
      FdStage stage,
      RunFdStage(tables, aligned, remaps, options_, fd_ctx, report));
  // Emitting an already-truncated partial is cleanup: it still honors
  // cancellation but is not re-aborted by the expired deadline.
  const RequestContext emit_ctx =
      stage.stats.truncation.truncated ? fd_ctx.CancelOnly() : fd_ctx;
  Result<size_t> emitted = EmitCodeBatches(
      stage.problem, stage.codes, batch_rows, options_.pool, emit, emit_ctx,
      report != nullptr ? &report->truncation : nullptr);
  fd.AddAttr("results", static_cast<int64_t>(stage.codes.size()));
  fd.AddAttr("search_nodes", static_cast<int64_t>(stage.stats.search_nodes));
  fd.AddAttr("components", static_cast<int64_t>(stage.stats.num_components));
  fd.End();
  // The report counts what the sink received, after every cut.
  if (report != nullptr && emitted.ok()) report->fd_stats.results = *emitted;
  return emitted;
}

Result<FdResult> FuzzyFullDisjunction::RunToTuples(
    const EncodedTables& tables, const AlignedSchema& aligned, bool fuzzy,
    FuzzyFdReport* report) const {
  FuzzyFdReport local_report;
  if (report == nullptr) report = &local_report;
  FdResult result;
  // One window: the whole result decodes in a single parallel pass.
  LAKEFUZZ_RETURN_IF_ERROR(
      RunToBatches(tables, aligned, fuzzy, SIZE_MAX,
                   [&result](std::vector<FdResultTuple>* batch) {
                     result.tuples = std::move(*batch);
                     return Status::OK();
                   },
                   report)
          .status());
  result.stats = report->fd_stats;
  return result;
}

}  // namespace lakefuzz
