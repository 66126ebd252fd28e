// Micro-benchmarks (google-benchmark) for the substrates behind the paper
// pipeline: the JV assignment solver, Full Disjunction enumeration,
// embedding throughput, string distances, CSV parsing, and subsumption.
#include <benchmark/benchmark.h>

#include "assignment/jonker_volgenant.h"
#include "core/value_matcher.h"
#include "datagen/imdb.h"
#include "embedding/model_zoo.h"
#include "fd/aligned_schema.h"
#include "fd/full_disjunction.h"
#include "fd/subsumption.h"
#include "table/csv.h"
#include "text/distance.h"
#include "util/rng.h"

namespace lakefuzz {
namespace {

void BM_JonkerVolgenant(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(7);
  CostMatrix m(n, n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) m.set(r, c, rng.UniformReal());
  }
  for (auto _ : state) {
    auto result = SolveAssignment(m);
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_JonkerVolgenant)->Range(16, 1024)->Complexity();

void BM_FullDisjunctionImdb(benchmark::State& state) {
  ImdbOptions gen;
  gen.target_tuples = static_cast<size_t>(state.range(0));
  ImdbBenchmark bench = GenerateImdb(gen);
  SessionDict dict;
  const EncodedTables tables = EncodeTables(bench.tables, &dict);
  auto aligned = AlignByName(tables);
  for (auto _ : state) {
    auto problem = FdProblem::BuildInterned(tables, *aligned, dict.dict());
    auto result = FullDisjunction().Run(&problem.value());
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(bench.total_tuples));
}
BENCHMARK(BM_FullDisjunctionImdb)->Arg(1000)->Arg(4000)->Arg(16000)
    ->Unit(benchmark::kMillisecond);

void BM_EmbedValue(benchmark::State& state) {
  auto model = MakeModel(ModelKind::kMistral);
  Rng rng(3);
  std::vector<std::string> values;
  for (int i = 0; i < 512; ++i) values.push_back(rng.AlphaString(12));
  size_t i = 0;
  for (auto _ : state) {
    // One model call per iteration: MakeModel does not memoize (only an
    // EmbeddingCache does), so this times the embedding itself.
    Vec v = model->Embed(values[i++ & 511]);
    benchmark::DoNotOptimize(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EmbedValue);

void BM_Levenshtein(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  Rng rng(5);
  std::string a = rng.AlphaString(len);
  std::string b = rng.AlphaString(len);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Levenshtein(a, b));
  }
  state.SetComplexityN(static_cast<int64_t>(len));
}
BENCHMARK(BM_Levenshtein)->Range(8, 512)->Complexity();

void BM_CsvParse(benchmark::State& state) {
  ImdbOptions gen;
  gen.target_tuples = 4000;
  ImdbBenchmark bench = GenerateImdb(gen);
  std::string csv = WriteCsv(bench.tables[4]);  // title_principals
  for (auto _ : state) {
    auto table = ReadCsv(csv, "principals");
    benchmark::DoNotOptimize(table);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(csv.size()));
}
BENCHMARK(BM_CsvParse);

void BM_Subsumption(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(11);
  std::vector<FdCodeTuple> tuples;
  tuples.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    FdCodeTuple t;
    t.codes.resize(6, FdProblem::kNullCode);
    for (size_t c = 0; c < 6; ++c) {
      if (rng.Bernoulli(0.4)) continue;
      t.codes[c] = 1 + static_cast<uint32_t>(rng.Uniform(n / 4 + 1));
    }
    t.tids = {static_cast<uint32_t>(i)};
    tuples.push_back(std::move(t));
  }
  for (auto _ : state) {
    auto copy = tuples;
    auto result = EliminateSubsumedCodes(std::move(copy));
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_Subsumption)->Range(256, 8192)->Complexity();

void BM_ValueMatcherColumnPair(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto model = MakeModel(ModelKind::kMistral);
  Rng rng(13);
  std::vector<std::string> left, right;
  for (size_t i = 0; i < n; ++i) {
    std::string base = rng.AlphaString(10);
    left.push_back(base);
    std::string variant = base;
    variant[5] = 'z';  // one substitution → fuzzy pair
    right.push_back(variant);
  }
  ValueMatcherOptions opts;
  opts.model = model;
  ValueMatcher matcher(opts);
  for (auto _ : state) {
    auto result = matcher.MatchColumns({left, right});
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_ValueMatcherColumnPair)->Range(32, 512)->Complexity()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lakefuzz
