// TableRegistry: the named-table store behind a LakeEngine session.
//
// A long-lived engine serves many Integrate calls over one lake, so tables
// are registered once under a unique name and borrowed per request instead
// of being re-read / re-copied per call. Entries are immutable
// shared_ptr<const Table>: a request pins the snapshot it resolved even if
// another thread replaces or removes the name mid-flight, so there is no
// torn read and no lifetime coupling between requests.
#ifndef LAKEFUZZ_CORE_ENGINE_REGISTRY_H_
#define LAKEFUZZ_CORE_ENGINE_REGISTRY_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "table/table.h"
#include "util/result.h"

namespace lakefuzz {

/// Thread-safe name → table map. All methods may be called concurrently.
class TableRegistry {
 public:
  /// Registers a table under `name`. ErrorCode::kAlreadyExists when the
  /// name is taken, kInvalidArgument on an empty name.
  Status Register(std::string name, Table table);

  /// Shared-ownership form: registers an externally owned snapshot without
  /// copying (one-shot callers wrap their tables in non-owning aliases;
  /// callers sharing real ownership just pass their shared_ptr). On
  /// success, a non-null `version` receives the registry version this
  /// registration produced — read under the same lock, so derived indexes
  /// can attribute the mutation exactly even under concurrent writers.
  Status Register(std::string name, std::shared_ptr<const Table> table,
                  uint64_t* version = nullptr);

  /// The snapshot registered under `name`, or ErrorCode::kNotFound.
  Result<std::shared_ptr<const Table>> Get(const std::string& name) const;

  /// Resolves every name (in the given order) under one lock acquisition,
  /// so an Integrate request sees a consistent snapshot of the registry.
  /// Fails with kNotFound naming the first missing table. When `version` is
  /// non-null it receives the registry version the snapshot was taken at
  /// (same lock hold), the key derived caches — the engine's AlignedSchema
  /// cache — validate against.
  Result<std::vector<std::shared_ptr<const Table>>> GetMany(
      const std::vector<std::string>& names,
      uint64_t* version = nullptr) const;

  /// Removes `name`; false when absent. In-flight requests holding the
  /// snapshot are unaffected.
  bool Remove(const std::string& name);

  /// Typed removal: ErrorCode::kNotFound when `name` is absent (so callers
  /// branch on codes, matching Register's kAlreadyExists), version bump on
  /// success. In-flight requests holding the snapshot are unaffected.
  Status Unregister(const std::string& name);

  /// Atomic remove-and-return: the snapshot that was registered under
  /// `name`, or null when absent. Lets a caller release exactly the
  /// registration it removed (LakeEngine unpins it from the session
  /// dictionary) without racing a concurrent re-registration of the name.
  /// On removal, a non-null `version` receives the resulting registry
  /// version (same lock hold, like Register).
  std::shared_ptr<const Table> Take(const std::string& name,
                                    uint64_t* version = nullptr);

  /// Mutation counter: bumped by every successful Register and Remove.
  /// Equal versions ⇒ identical name → snapshot mapping.
  uint64_t version() const;

  /// Registered names, sorted (deterministic listing for CLIs and tests).
  std::vector<std::string> Names() const;

  /// Every (name, snapshot) pair sorted by name, resolved in one lock hold
  /// together with the registry version — the consistent view derived
  /// indexes (the engine's discovery index) resync against.
  std::vector<std::pair<std::string, std::shared_ptr<const Table>>> Snapshot(
      uint64_t* version = nullptr) const;

  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const Table>> tables_;
  uint64_t version_ = 0;
};

}  // namespace lakefuzz

#endif  // LAKEFUZZ_CORE_ENGINE_REGISTRY_H_
