#include "fd/subsumption.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <unordered_map>

#include "fd/posting_shards.h"
#include "fd/value_dict.h"
#include "util/hash.h"
#include "util/str.h"
#include "util/thread_pool.h"

namespace lakefuzz {

FdResultTuple DecodeCodeTuple(const FdCodeTuple& t, const ValueDict& dict) {
  FdResultTuple out;
  out.values.reserve(t.codes.size());
  for (uint32_t code : t.codes) out.values.push_back(dict.Decode(code));
  out.tids = t.tids;
  return out;
}

bool Subsumes(const FdResultTuple& b, const FdResultTuple& a) {
  assert(a.values.size() == b.values.size());
  for (size_t c = 0; c < a.values.size(); ++c) {
    if (a.values[c].is_null()) continue;
    if (b.values[c].is_null() || !(b.values[c] == a.values[c])) return false;
  }
  return true;
}

size_t NonNullCount(const FdResultTuple& t) {
  size_t n = 0;
  for (const auto& v : t.values) {
    if (!v.is_null()) ++n;
  }
  return n;
}

Table FdResultsToTable(const std::vector<FdResultTuple>& results,
                       const std::vector<std::string>& column_names,
                       const std::string& table_name,
                       bool include_provenance) {
  std::vector<std::string> names;
  if (include_provenance) names.push_back("TIDs");
  names.insert(names.end(), column_names.begin(), column_names.end());
  Table out(table_name, Schema::FromNames(names));
  AppendFdResults(results, include_provenance, &out);
  return out;
}

void AppendFdResults(const std::vector<FdResultTuple>& results,
                     bool include_provenance, Table* out) {
  for (const auto& r : results) {
    std::vector<Value> row;
    row.reserve(out->NumColumns());
    if (include_provenance) {
      std::string prov = "{";
      for (size_t i = 0; i < r.tids.size(); ++i) {
        if (i > 0) prov += ",";
        prov += StrFormat("t%u", r.tids[i]);
      }
      prov += "}";
      row.push_back(Value::String(std::move(prov)));
    }
    row.insert(row.end(), r.values.begin(), r.values.end());
    Status s = out->AppendRow(std::move(row));
    assert(s.ok());
    (void)s;
  }
}

namespace {

uint64_t CodesSignature(const FdCodeTuple& t) {
  uint64_t h = 0x5ca1ab1e;
  for (size_t c = 0; c < t.codes.size(); ++c) {
    if (t.codes[c] == ValueDict::kNullCode) continue;
    h = HashCombine(h, HashCombine(Mix64(c), Mix64(t.codes[c])));
  }
  return h;
}

/// Code-row form of Subsumes: b agrees wherever a is non-null.
bool SubsumesCodes(const FdCodeTuple& b, const FdCodeTuple& a) {
  for (size_t c = 0; c < a.codes.size(); ++c) {
    const uint32_t ac = a.codes[c];
    if (ac == ValueDict::kNullCode) continue;
    if (b.codes[c] != ac) return false;
  }
  return true;
}

}  // namespace

Result<std::vector<FdCodeTuple>> EliminateSubsumedCodes(
    std::vector<FdCodeTuple> tuples, ThreadPool* pool,
    const RequestContext* ctx) {
  const size_t n = tuples.size();
  if (n == 0) return tuples;

  // Cancel/deadline checkpoints: parallel passes flag a stop at amortized
  // intervals and drain as no-ops (a lambda cannot early-return the loop);
  // the typed status is re-derived between passes on the driving thread.
  std::atomic<bool> stop_flag{false};
  auto stopped = [&](size_t i) {
    if (ctx == nullptr) return false;
    if ((i & 0xfff) == 0 && !ctx->CheckStop("subsumption").ok()) {
      stop_flag.store(true, std::memory_order_relaxed);
    }
    return stop_flag.load(std::memory_order_relaxed);
  };
  auto check_stop = [&]() {
    return ctx == nullptr ? Status::OK() : ctx->CheckStop("subsumption");
  };

  // Signatures and non-null counts are pure per tuple → parallel.
  std::vector<uint64_t> sig(n);
  std::vector<uint32_t> nn(n);
  MaybeParallelFor(pool, n, [&](size_t i) {
    if (stopped(i)) return;
    sig[i] = CodesSignature(tuples[i]);
    uint32_t count = 0;
    for (uint32_t code : tuples[i].codes) {
      count += code != ValueDict::kNullCode;
    }
    nn[i] = count;
  });
  LAKEFUZZ_RETURN_IF_ERROR(check_stop());

  // Pass 1 (serial): collapse exact duplicates (same codes). The survivor —
  // most complete provenance, then lexicographically smallest TIDs — is a
  // running maximum under a total preference, so it does not depend on the
  // order the executors appended results in.
  auto prefer = [](const FdCodeTuple& a, const FdCodeTuple& b) {
    if (a.tids.size() != b.tids.size()) {
      return a.tids.size() > b.tids.size();
    }
    return a.tids < b.tids;
  };
  std::unordered_map<uint64_t, std::vector<uint32_t>> by_sig;
  by_sig.reserve(n);
  std::vector<char> dead(n, 0);
  for (uint32_t i = 0; i < n; ++i) {
    if ((i & 0xfff) == 0) LAKEFUZZ_RETURN_IF_ERROR(check_stop());
    auto& bucket = by_sig[sig[i]];
    bool merged = false;
    for (uint32_t j : bucket) {
      if (tuples[j].codes == tuples[i].codes) {
        // nn/sig depend only on codes, so the swap keeps them consistent.
        if (prefer(tuples[i], tuples[j])) std::swap(tuples[i], tuples[j]);
        dead[i] = 1;
        merged = true;
        break;
      }
    }
    if (!merged) bucket.push_back(i);
  }

  // Pass 2: sharded posting lists over live tuples, keyed by (column, code)
  // (fd/posting_shards.h).
  const size_t cols = tuples[0].codes.size();
  std::vector<PostingShard> shard = BuildPostingShards(
      pool, n, cols, [&](uint32_t i) -> const uint32_t* {
        return dead[i] ? nullptr : tuples[i].codes.data();
      });
  const size_t shards = shard.size();
  LAKEFUZZ_RETURN_IF_ERROR(check_stop());

  // Pass 3: each tuple checks only the tuples sharing its rarest non-null
  // (column, code). Runs against the pass-1 snapshot of `dead`, which gives
  // the same survivor set as the sequential in-place version: any subsumer
  // that is itself subsumed is subsumed by a strictly-more-complete live
  // tuple appearing in the same posting lists, so reachability of a live
  // subsumer is order-independent.
  size_t live_count = 0;
  for (size_t i = 0; i < n; ++i) live_count += !dead[i];
  std::vector<char> dead_out = dead;
  MaybeParallelFor(pool, n, [&](size_t i) {
    if (stopped(i) || dead[i]) return;
    const uint32_t nn_i = nn[i];
    if (nn_i == 0) {
      // All-null tuple: subsumed by any *other* tuple (vacuously); survives
      // only when it is the sole live tuple. Pass 1 collapsed all-null
      // duplicates to one, so live_count > 1 means a distinct tuple exists.
      if (live_count > 1) dead_out[i] = 1;
      return;
    }
    const auto& codes = tuples[i].codes;
    const std::vector<uint32_t>* best = nullptr;
    for (size_t c = 0; c < codes.size(); ++c) {
      if (codes[c] == ValueDict::kNullCode) continue;
      const uint64_t key = PostingKey(c, codes[c]);
      const PostingShard& sh = shard[PostingShardOf(key, shards)];
      const auto& lst = sh.lists[sh.index.find(key)->second];
      if (best == nullptr || lst.size() < best->size()) best = &lst;
    }
    for (uint32_t j : *best) {
      if (j == i || dead[j]) continue;
      if (nn[j] <= nn_i) continue;  // equal ⇒ duplicate, handled in pass 1
      if (SubsumesCodes(tuples[j], tuples[i])) {
        dead_out[i] = 1;
        break;
      }
    }
  });

  LAKEFUZZ_RETURN_IF_ERROR(check_stop());

  // Surviving FD tuples never share a TID set (values are a function of the
  // member set, and identical code rows were collapsed in pass 1), so TID
  // order alone is total.
  std::vector<FdCodeTuple> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!dead_out[i]) out.push_back(std::move(tuples[i]));
  }
  std::sort(out.begin(), out.end(),
            [](const FdCodeTuple& a, const FdCodeTuple& b) {
              return a.tids < b.tids;
            });
  return out;
}

}  // namespace lakefuzz
