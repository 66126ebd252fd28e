// TableRegistry: the named-table store behind a LakeEngine session.
//
// A long-lived engine serves many Integrate calls over one lake, so tables
// are registered once under a unique name and borrowed per request instead
// of being re-read / re-copied per call. Entries are the tables' one record,
// immutable shared_ptr<const EncodedTable> (name, schema and session code
// columns, fd/session_dict.h): a request pins the snapshot it resolved even
// if another thread replaces or removes the name mid-flight, so there is no
// torn read and no lifetime coupling between requests.
#ifndef LAKEFUZZ_CORE_ENGINE_REGISTRY_H_
#define LAKEFUZZ_CORE_ENGINE_REGISTRY_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "fd/session_dict.h"
#include "util/result.h"

namespace lakefuzz {

/// Thread-safe name → record map. All methods may be called concurrently.
class TableRegistry {
 public:
  /// What Register would answer for `name` right now:
  /// ErrorCode::kInvalidArgument on an empty name, kAlreadyExists when the
  /// name is taken. Lets a caller refuse a registration before doing work
  /// for it (LakeEngine checks before encoding); Register checks again
  /// under its lock.
  Status CheckName(const std::string& name) const;

  /// Registers `table` under `name` (CheckName's errors, or
  /// kInvalidArgument for a null record). On success, a non-null `version`
  /// receives the registry version this registration produced — read under
  /// the same lock, so derived indexes can attribute the mutation exactly
  /// even under concurrent writers.
  Status Register(std::string name, std::shared_ptr<const EncodedTable> table,
                  uint64_t* version = nullptr);

  /// The record registered under `name`, or ErrorCode::kNotFound.
  Result<std::shared_ptr<const EncodedTable>> Get(
      const std::string& name) const;

  /// Resolves every name (in the given order) under one lock acquisition,
  /// so an Integrate request sees a consistent snapshot of the registry.
  /// Fails with kNotFound naming the first missing table. When `version` is
  /// non-null it receives the registry version the snapshot was taken at
  /// (same lock hold), the key derived caches — the engine's AlignedSchema
  /// cache — validate against.
  Result<EncodedTables> GetMany(const std::vector<std::string>& names,
                                uint64_t* version = nullptr) const;

  /// Atomic remove-and-return: the record that was registered under
  /// `name`, or null when absent (the version is then unchanged). Lets a
  /// caller release exactly the registration it removed (LakeEngine drops
  /// it from the discovery index) without racing a concurrent
  /// re-registration of the name. In-flight requests holding the record are
  /// unaffected. On removal, a non-null `version` receives the resulting
  /// registry version (same lock hold, like Register).
  std::shared_ptr<const EncodedTable> Take(const std::string& name,
                                           uint64_t* version = nullptr);

  /// Mutation counter: bumped by every successful Register and Take.
  /// Equal versions ⇒ identical name → record mapping.
  uint64_t version() const;

  /// Registered names, sorted (deterministic listing for CLIs and tests).
  std::vector<std::string> Names() const;

  /// Every (name, record) pair sorted by name, resolved in one lock hold
  /// together with the registry version — the consistent view derived
  /// indexes (the engine's discovery index) resync against.
  std::vector<std::pair<std::string, std::shared_ptr<const EncodedTable>>>
  Snapshot(uint64_t* version = nullptr) const;

  size_t size() const;

 private:
  /// CheckName with mu_ held.
  Status CheckNameLocked(const std::string& name) const;

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const EncodedTable>>
      tables_;
  uint64_t version_ = 0;
};

}  // namespace lakefuzz

#endif  // LAKEFUZZ_CORE_ENGINE_REGISTRY_H_
