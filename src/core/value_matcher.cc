#include "core/value_matcher.h"

#include "assignment/jonker_volgenant.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "assignment/parallel_cost.h"
#include "embedding/vector_ops.h"
#include "text/normalize.h"
#include "util/str.h"
#include "util/thread_pool.h"

namespace lakefuzz {
namespace {

/// Working state of one group during the sequential merge.
struct GroupState {
  ValueGroup group;
  /// Unit-normalized representative embedding, shared with the cache
  /// (embedding mode only).
  std::shared_ptr<const Vec> rep_embedding;
};

}  // namespace

ValueMatcher::ValueMatcher(ValueMatcherOptions options)
    : options_(std::move(options)) {}

std::vector<std::pair<std::pair<size_t, std::string>,
                      std::pair<size_t, std::string>>>
CrossColumnPairs(const ValueMatchResult& result) {
  std::vector<std::pair<std::pair<size_t, std::string>,
                        std::pair<size_t, std::string>>>
      pairs;
  for (const auto& g : result.groups) {
    for (size_t i = 0; i < g.members.size(); ++i) {
      for (size_t j = i + 1; j < g.members.size(); ++j) {
        const auto& a = g.members[i];
        const auto& b = g.members[j];
        if (a.first == b.first) continue;  // cannot happen (clean-clean)
        if (a.first < b.first) {
          pairs.emplace_back(a, b);
        } else {
          pairs.emplace_back(b, a);
        }
      }
    }
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

Result<ValueMatchResult> ValueMatcher::MatchColumns(
    const std::vector<std::vector<std::string>>& columns,
    const RequestContext& ctx) const {
  const bool use_embeddings =
      options_.shared_cache != nullptr || options_.model != nullptr;
  const bool use_bounded_distance =
      !use_embeddings && options_.bounded_string_distance != nullptr;
  if (!use_embeddings && options_.string_distance == nullptr &&
      !use_bounded_distance) {
    return Status::InvalidArgument(
        "ValueMatcherOptions: one of shared_cache, model, string_distance, "
        "or bounded_string_distance must be set");
  }
  for (size_t c = 0; c < columns.size(); ++c) {
    std::unordered_set<std::string> distinct(columns[c].begin(),
                                             columns[c].end());
    if (distinct.size() != columns[c].size()) {
      return Status::InvalidArgument(StrFormat(
          "column %zu contains duplicate values (clean-clean violated)", c));
    }
  }

  ValueMatchResult result;
  if (columns.empty()) return result;

  // Scoring substrate: an embedding cache (representatives recur across
  // merge rounds; values recur across columns — and, with a session-shared
  // cache, across MatchColumns calls) and the caller's thread pool, shared
  // by every fill below large enough to use it — the many small residual
  // problems left after the exact-match prepass run serially. Output is
  // identical with or without a pool and at any cache state because each
  // cost cell is a pure function of its (group, value) pair.
  std::unique_ptr<EmbeddingCache> local_cache;
  const EmbeddingCache* cache = options_.shared_cache.get();
  if (use_embeddings && cache == nullptr) {
    local_cache = std::make_unique<EmbeddingCache>(options_.model);
    cache = local_cache.get();
  }
  const EmbeddingCache::Counters counters_before =
      cache != nullptr ? cache->counters() : EmbeddingCache::Counters{};
  auto pool_for = [&](size_t work_items, size_t min_work) -> ThreadPool* {
    return work_items < min_work ? nullptr : options_.pool;
  };
  // Embedding calls are heavyweight relative to pool dispatch; a much
  // smaller batch than a cost fill already amortizes the pool.
  constexpr size_t kMinParallelEmbeds = 64;

  std::atomic<size_t> pruned_evaluations{0};

  auto string_cost = [&](const std::string& rep, const std::string& value,
                         double budget) -> double {
    if (use_bounded_distance) {
      bool pruned = false;
      double d =
          options_.bounded_string_distance(rep, value, budget, &pruned);
      if (pruned) pruned_evaluations.fetch_add(1, std::memory_order_relaxed);
      return d;
    }
    return options_.string_distance(rep, value);
  };

  // Global frequency of each value across all aligning columns — the
  // electorate for representative selection (paper Sec 2.2, Ex. 4).
  std::unordered_map<std::string, size_t> freq;
  for (const auto& col : columns) {
    for (const auto& v : col) ++freq[v];
  }

  auto elect_representative = [&](GroupState* g) {
    size_t best = 0;
    size_t best_freq = 0;
    for (size_t m = 0; m < g->group.members.size(); ++m) {
      const auto& [col, value] = g->group.members[m];
      size_t f = freq[value];
      // Tie → the member from the earliest column; members are appended in
      // column order, so strict '>' keeps the earliest.
      if (f > best_freq) {
        best_freq = f;
        best = m;
      }
    }
    const std::string& rep = g->group.members[best].second;
    if (rep != g->group.representative || g->group.members.size() == 1) {
      g->group.representative = rep;
      g->group.representative_member = best;
      // Cache hit whenever the representative survived a previous round or
      // equals any already-seen value — the common case.
      if (use_embeddings) g->rep_embedding = cache->GetNormalized(rep);
    }
  };

  std::vector<GroupState> combined;
  combined.reserve(columns[0].size());
  for (const auto& v : columns[0]) {
    GroupState g;
    g.group.members.emplace_back(0, v);
    elect_representative(&g);
    combined.push_back(std::move(g));
  }

  // auto_threshold's dense probe solves one unconstrained assignment per
  // merge round over closely related matrices (the group side only grows).
  // The duals of each probe warm-start the next (ROADMAP PR 1 follow-up) —
  // clamped to feasibility inside the solver, so every solve stays exactly
  // optimal.
  JvDuals probe_duals;

  for (size_t c = 1; c < columns.size(); ++c) {
    // Cooperative cancellation / deadline between merge rounds — the unit
    // after which no partial state escapes.
    LAKEFUZZ_RETURN_IF_ERROR(ctx.CheckStop("value matching"));
    const auto& values = columns[c];
    std::vector<char> value_matched(values.size(), 0);

    // Exact pre-pass: identity-equal values never need the assignment.
    if (options_.exact_match_prepass) {
      std::unordered_map<std::string, size_t> rep_index;
      for (size_t gi = 0; gi < combined.size(); ++gi) {
        std::string key = options_.normalize_identity
                              ? NormalizeForIdentity(combined[gi].group.representative)
                              : combined[gi].group.representative;
        rep_index.emplace(std::move(key), gi);  // first group wins
      }
      std::vector<char> group_claimed(combined.size(), 0);
      for (size_t vi = 0; vi < values.size(); ++vi) {
        std::string key = options_.normalize_identity
                              ? NormalizeForIdentity(values[vi])
                              : values[vi];
        auto it = rep_index.find(key);
        if (it == rep_index.end() || group_claimed[it->second]) continue;
        group_claimed[it->second] = 1;
        value_matched[vi] = 1;
        combined[it->second].group.members.emplace_back(c, values[vi]);
        elect_representative(&combined[it->second]);
        ++result.stats.exact_matches;
      }
    }

    // Residual assignment problem over unmatched groups × unmatched values.
    std::vector<size_t> open_groups;
    for (size_t gi = 0; gi < combined.size(); ++gi) {
      // A group may absorb at most one value per column (bipartite 1:1);
      // skip groups that already took a value from column c.
      if (!combined[gi].group.members.empty() &&
          combined[gi].group.members.back().first == c) {
        continue;
      }
      open_groups.push_back(gi);
    }
    std::vector<size_t> open_values;
    for (size_t vi = 0; vi < values.size(); ++vi) {
      if (!value_matched[vi]) open_values.push_back(vi);
    }

    if (!open_groups.empty() && !open_values.empty()) {
      std::vector<std::shared_ptr<const Vec>> value_embs;
      if (use_embeddings) {
        // Warm the cache in parallel; each slot is written by exactly one
        // worker, and the vectors themselves are deterministic, so the
        // outcome is thread-count independent.
        value_embs.resize(open_values.size());
        ParallelIndexFor(
            open_values.size(),
            [&](size_t k) {
              value_embs[k] = cache->GetNormalized(values[open_values[k]]);
            },
            pool_for(open_values.size(), kMinParallelEmbeds));
      }
      const size_t cells = open_groups.size() * open_values.size();
      const bool dense = cells <= options_.max_dense_cells;
      // Pruning budget for the bounded string distance. A pruned pair is
      // reported as distance 1.0 instead of its true above-budget value, so
      // pruning is enabled only where that substitution provably cannot
      // change the result: sparse mode drops edges >= θ before solving, and
      // dense mask-before-solve masks cells >= θ to forbidden either way.
      // The default dense solve-then-filter mode optimizes the
      // *unconstrained* matrix — a capped above-θ cost could flip which
      // below-θ pairs win — and auto-threshold reads the entire distance
      // distribution; both get budget 1.0, which the bounded-distance
      // contract defines as fully exact.
      const bool prune_safe =
          !options_.auto_threshold && (!dense || options_.mask_before_solve);
      const double distance_budget = prune_safe ? options_.threshold : 1.0;
      auto pair_cost = [&](size_t r, size_t k) -> double {
        const GroupState& g = combined[open_groups[r]];
        if (use_embeddings) {
          return CosineDistancePrenormalized(*g.rep_embedding, *value_embs[k]);
        }
        return string_cost(g.group.representative, values[open_values[k]],
                           distance_budget);
      };

      ThresholdedOptions topts;
      topts.threshold = options_.threshold;
      topts.algorithm = options_.algorithm;
      topts.mask_before_solve = options_.mask_before_solve;

      Assignment assignment;
      if (dense) {
        CostMatrix cost(open_groups.size(), open_values.size());
        FillCostMatrixParallel(&cost, pair_cost,
                               pool_for(cells, kMinParallelWork));
        result.stats.cost_evaluations += cells;
        if (options_.auto_threshold) {
          // Probe solve without a threshold: the optimal pairing's distance
          // distribution is bimodal (matches vs forced non-matches); the
          // widest gap locates this instance's θ. The probe is warm-started
          // from the previous round's duals.
          LAKEFUZZ_ASSIGN_OR_RETURN(Assignment probe,
                                    SolveAssignment(cost, &probe_duals));
          std::vector<double> dists;
          dists.reserve(probe.pairs.size());
          for (auto [r, k] : probe.pairs) dists.push_back(cost.at(r, k));
          AutoThresholdOptions ato = options_.auto_threshold_options;
          ato.fallback = options_.threshold;
          topts.threshold = SelectThresholdByGap(std::move(dists), ato);
          result.stats.thresholds_used.push_back(topts.threshold);
          if (!topts.mask_before_solve &&
              topts.algorithm == AssignmentAlgorithm::kOptimal) {
            // Solve-then-filter over the unchanged matrix would re-run the
            // exact solve the probe just did — filter the probe instead.
            // This halves the O(n³) work of every auto-threshold round.
            assignment = Assignment{};
            for (auto [r, k] : probe.pairs) {
              const double d = cost.at(r, k);
              if (d < topts.threshold) {
                assignment.pairs.emplace_back(r, k);
                assignment.total_cost += d;
              }
            }
          } else {
            // Masked (or greedy) final solve: a different matrix, but the
            // probe duals still warm-start it.
            LAKEFUZZ_ASSIGN_OR_RETURN(
                assignment, SolveThresholded(cost, topts, &probe_duals));
          }
        } else {
          result.stats.thresholds_used.push_back(topts.threshold);
          LAKEFUZZ_ASSIGN_OR_RETURN(assignment,
                                    SolveThresholded(cost, topts));
        }
        ++result.stats.dense_solves;
      } else {
        std::vector<std::string> reps;
        reps.reserve(open_groups.size());
        for (size_t gi : open_groups) {
          reps.push_back(combined[gi].group.representative);
        }
        std::vector<std::string> vals;
        vals.reserve(open_values.size());
        for (size_t vi : open_values) vals.push_back(values[vi]);
        auto candidates = GenerateCandidates(reps, vals, options_.blocking);
        std::vector<SparseEdge> edges;
        edges.reserve(candidates.size());
        for (auto [r, k] : candidates) {
          edges.push_back(SparseEdge{r, k, 0.0});
        }
        ScoreEdgesParallel(&edges, pair_cost,
                           pool_for(edges.size(), kMinParallelWork));
        result.stats.cost_evaluations += edges.size();
        if (options_.auto_threshold && !edges.empty()) {
          // No cheap unconstrained probe in sparse mode; the candidate-edge
          // distances themselves carry the bimodal signal.
          std::vector<double> dists;
          dists.reserve(edges.size());
          for (const auto& e : edges) dists.push_back(e.cost);
          AutoThresholdOptions ato = options_.auto_threshold_options;
          ato.fallback = options_.threshold;
          topts.threshold = SelectThresholdByGap(std::move(dists), ato);
        }
        result.stats.thresholds_used.push_back(topts.threshold);
        LAKEFUZZ_ASSIGN_OR_RETURN(
            assignment, SolveSparseThresholded(open_groups.size(),
                                               open_values.size(), edges,
                                               topts));
        ++result.stats.sparse_solves;
      }

      for (auto [r, k] : assignment.pairs) {
        size_t gi = open_groups[r];
        size_t vi = open_values[k];
        combined[gi].group.members.emplace_back(c, values[vi]);
        elect_representative(&combined[gi]);
        value_matched[vi] = 1;
        ++result.stats.assignment_matches;
      }
    }

    // Values with no partner join the combined column as singletons.
    for (size_t vi = 0; vi < values.size(); ++vi) {
      if (value_matched[vi]) continue;
      GroupState g;
      g.group.members.emplace_back(c, values[vi]);
      elect_representative(&g);
      combined.push_back(std::move(g));
    }
  }

  result.stats.pruned_evaluations =
      pruned_evaluations.load(std::memory_order_relaxed);
  if (cache != nullptr) {
    // Delta against the call-start snapshot: identical to the absolute
    // counters for a per-call cache, and the per-call share for a
    // session-shared one.
    const EmbeddingCache::Counters after = cache->counters();
    result.stats.embedding_cache_hits = after.hits - counters_before.hits;
    result.stats.embedding_cache_misses =
        after.misses - counters_before.misses;
  }
  result.groups.reserve(combined.size());
  for (auto& g : combined) result.groups.push_back(std::move(g.group));
  return result;
}

}  // namespace lakefuzz
