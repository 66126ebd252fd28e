#include "core/fuzzy_fd.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "fd/session_dict.h"
#include "fd/value_dict.h"
#include "obs/trace.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace lakefuzz {
namespace {

/// Original typed Value for each distinct string of one source column
/// (first occurrence wins; ToString is injective enough in practice, and
/// collisions only affect which typed twin survives the rewrite).
using StringToValue = std::unordered_map<std::string, Value>;

/// Output of the FD stage proper: the problem (owning the decode
/// dictionary) plus the post-subsumption interned result rows. Keeping
/// results interned here is what lets the pipeline decode in batches
/// without ever materializing the full result set.
struct FdStage {
  FdProblem problem;
  std::vector<FdCodeTuple> codes;
  FdStats stats;
};

/// The FD stage: outer-union build + executor run to interned codes. With a
/// session dictionary the build interns codes straight from the source
/// tables (tables pinned in the dictionary scatter memoized column codes);
/// otherwise the legacy padded-row Build runs. Also fills
/// `report->fd_stats` when a report is given.
Result<FdStage> RunFdStage(const TableList& tables,
                           const AlignedSchema& aligned,
                           const FuzzyFdOptions& options,
                           const RequestContext& ctx, FuzzyFdReport* report) {
  StageScope build(ctx, Stage::kFdBuild);
  LAKEFUZZ_FAULT_POINT("fd/build");
  Result<FdProblem> built =
      options.session_dict != nullptr
          ? FdProblem::BuildInterned(tables, aligned, options.session_dict)
          : FdProblem::Build(tables, aligned);
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

/// Match + rewrite output in borrowed form: tables the rewrite stage never
/// touched stay caller-owned pointers (so a session dictionary can serve
/// their memoized column codes), only modified tables are materialized.
struct RewrittenSet {
  std::vector<Table> storage;  ///< rewritten copies, in input order
  TableList list;              ///< per input: original pointer or &storage[k]
  std::vector<char> borrowed;  ///< list[l] points at the caller's table
};

/// The match + rewrite stages (paper Sec 2.2): shared core of the public
/// copying RewriteTables and the borrowing pipeline.
Result<RewrittenSet> RewriteCore(const FuzzyFdOptions& options,
                                 const RequestContext& ctx,
                                 const TableList& tables,
                                 const AlignedSchema& aligned,
                                 FuzzyFdReport* report) {
  LAKEFUZZ_RETURN_IF_ERROR(ValidateAlignedSchema(aligned, tables));
  StageScope match(ctx, Stage::kMatch);
  ValueMatcherOptions matcher_options = options.matcher;
  // Session plumbing: the request's pool reaches the matcher unless the
  // caller already set a matcher-specific one.
  if (matcher_options.pool == nullptr) {
    matcher_options.pool = options.pool;
  }
  ValueMatcher matcher(matcher_options);

  // Per (table, column): value-string → replacement Value.
  std::vector<std::vector<std::unordered_map<std::string, Value>>> rewrites(
      tables.size());
  for (size_t l = 0; l < tables.size(); ++l) {
    rewrites[l].resize(tables[l]->NumColumns());
  }

  size_t sets_matched = 0;
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
    auto sources = aligned.SourcesOf(u);
    if (sources.size() < 2) continue;  // nothing to make consistent

    // Distinct value strings per aligning column, plus their typed originals.
    std::vector<std::vector<std::string>> columns(sources.size());
    std::vector<StringToValue> originals(sources.size());
    for (size_t s = 0; s < sources.size(); ++s) {
      auto [l, c] = sources[s];
      for (const Value& v : tables[l]->DistinctNonNull(c)) {
        std::string str = v.ToString();
        if (originals[s].emplace(str, v).second) {
          columns[s].push_back(std::move(str));
        }
      }
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
    ++sets_matched;
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

    for (const auto& g : matched.groups) {
      if (g.members.size() < 2) continue;
      // Typed representative: the original Value of the elected member.
      const auto& [rep_src, rep_str] = g.members[g.representative_member];
      const Value& rep_value = originals[rep_src].at(rep_str);
      for (const auto& [src, str] : g.members) {
        if (str == rep_str) continue;
        auto [l, c] = sources[src];
        rewrites[l][c].emplace(str, rep_value);
      }
    }
  }
  ReportProgress(ctx, Stage::kMatch, num_universal, num_universal);
  match.AddAttr("sets_matched", static_cast<int64_t>(sets_matched));
  match.AddAttr("cost_evaluations",
                static_cast<int64_t>(agg_stats.cost_evaluations));
  match.AddAttr("embedding_cache_hits",
                static_cast<int64_t>(agg_stats.embedding_cache_hits));
  match.End();

  StageScope rewrite(ctx, Stage::kRewrite);
  ReportProgress(ctx, Stage::kRewrite, 0, tables.size());
  RewrittenSet out;
  // Reserve up front: list holds pointers into storage, which must not
  // reallocate as modified tables are appended.
  out.storage.reserve(tables.size());
  out.list.reserve(tables.size());
  out.borrowed.assign(tables.size(), 0);
  size_t values_rewritten = 0;
  for (size_t l = 0; l < tables.size(); ++l) {
    bool touched = false;
    for (const auto& map : rewrites[l]) {
      if (!map.empty()) {
        touched = true;
        break;
      }
    }
    if (!touched) {
      // No value of this table matched anything fuzzily: borrow the
      // caller's table instead of copying it. On the engine path this keeps
      // the registry snapshot's identity, so its interned column codes stay
      // cache hits.
      out.borrowed[l] = 1;
      out.list.push_back(tables[l]);
      continue;
    }
    Table t = *tables[l];
    for (size_t c = 0; c < t.NumColumns(); ++c) {
      const auto& map = rewrites[l][c];
      if (map.empty()) continue;
      // Interned scan (ROADMAP PR-2 follow-up): cells are interned into a
      // per-column ValueDict, so the string key is materialized and hashed
      // once per *distinct* value; every repeat of a value hits the flat
      // code-indexed replacement table instead of re-running ToString +
      // string hashing per cell. Codes are dense, so the table grows by
      // exactly one slot per new value; slot 0 is the (unused) null code.
      ValueDict dict;
      std::vector<const Value*> replacement(1, nullptr);
      for (size_t r = 0; r < t.NumRows(); ++r) {
        const Value& v = t.At(r, c);
        if (v.is_null()) continue;
        const uint32_t code = dict.Intern(v);
        if (code >= replacement.size()) {
          auto it = map.find(v.ToString());
          replacement.push_back(it != map.end() ? &it->second : nullptr);
        }
        if (replacement[code] != nullptr) {
          t.Set(r, c, *replacement[code]);
          ++values_rewritten;
        }
      }
    }
    out.storage.push_back(std::move(t));
    out.list.push_back(&out.storage.back());
  }
  ReportProgress(ctx, Stage::kRewrite, tables.size(), tables.size());
  rewrite.AddAttr("values_rewritten", static_cast<int64_t>(values_rewritten));
  rewrite.End();

  if (report != nullptr) {
    report->aligned_sets_matched = sets_matched;
    report->values_rewritten = values_rewritten;
    report->match_stats = agg_stats;
  }
  return out;
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
    const TableList& tables, const AlignedSchema& aligned,
    FuzzyFdReport* report) const {
  LAKEFUZZ_ASSIGN_OR_RETURN(
      RewrittenSet set,
      RewriteCore(options_, PipelineContext(options_, report), tables,
                  aligned, report));
  std::vector<Table> out;
  out.reserve(tables.size());
  size_t k = 0;
  for (size_t l = 0; l < tables.size(); ++l) {
    if (set.borrowed[l]) {
      out.push_back(*tables[l]);
    } else {
      out.push_back(std::move(set.storage[k++]));
    }
  }
  return out;
}

Result<size_t> FuzzyFullDisjunction::RunToBatches(
    const TableList& tables, const AlignedSchema& aligned, bool fuzzy,
    size_t batch_rows, const FdBatchFn& emit, FuzzyFdReport* report) const {
  if (batch_rows == 0) {
    return Status::InvalidArgument("batch_rows must be positive");
  }
  if (emit == nullptr) {
    return Status::InvalidArgument("the pipeline requires an emit callback");
  }
  const RequestContext ctx = PipelineContext(options_, report);
  RewrittenSet rewritten;
  if (fuzzy) {
    LAKEFUZZ_ASSIGN_OR_RETURN(
        rewritten, RewriteCore(options_, ctx, tables, aligned, report));
  }
  const TableList& fd_tables = fuzzy ? rewritten.list : tables;
  // The fd stage covers build + enumerate + subsume + batch decode/emit;
  // the sub-stages hang off its span as children.
  StageScope fd(ctx, Stage::kFd);
  const RequestContext fd_ctx = ctx.WithSpan(fd.span_id());
  LAKEFUZZ_ASSIGN_OR_RETURN(
      FdStage stage, RunFdStage(fd_tables, aligned, options_, fd_ctx, report));
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
    const TableList& tables, const AlignedSchema& aligned, bool fuzzy,
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
