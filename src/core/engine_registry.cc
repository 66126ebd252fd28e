#include "core/engine_registry.h"

#include <algorithm>

#include "util/str.h"

namespace lakefuzz {

Status TableRegistry::CheckName(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return CheckNameLocked(name);
}

Status TableRegistry::CheckNameLocked(const std::string& name) const {
  if (name.empty()) {
    return Status::InvalidArgument("registry table name must be non-empty");
  }
  if (tables_.count(name) != 0) {
    return Status::AlreadyExists(
        StrFormat("table '%s' is already registered", name.c_str()));
  }
  return Status::OK();
}

Status TableRegistry::Register(std::string name,
                               std::shared_ptr<const EncodedTable> table,
                               uint64_t* version) {
  if (table == nullptr) {
    return Status::InvalidArgument(
        StrFormat("cannot register null table '%s'", name.c_str()));
  }
  std::lock_guard<std::mutex> lock(mu_);
  LAKEFUZZ_RETURN_IF_ERROR(CheckNameLocked(name));
  tables_.emplace(std::move(name), std::move(table));
  ++version_;
  if (version != nullptr) *version = version_;
  return Status::OK();
}

Result<std::shared_ptr<const EncodedTable>> TableRegistry::Get(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound(
        StrFormat("table '%s' is not registered", name.c_str()));
  }
  return it->second;
}

Result<EncodedTables> TableRegistry::GetMany(
    const std::vector<std::string>& names, uint64_t* version) const {
  EncodedTables out;
  out.reserve(names.size());
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& name : names) {
    auto it = tables_.find(name);
    if (it == tables_.end()) {
      return Status::NotFound(
          StrFormat("table '%s' is not registered", name.c_str()));
    }
    out.push_back(it->second);
  }
  if (version != nullptr) *version = version_;
  return out;
}

std::shared_ptr<const EncodedTable> TableRegistry::Take(
    const std::string& name, uint64_t* version) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) return nullptr;
  std::shared_ptr<const EncodedTable> out = std::move(it->second);
  tables_.erase(it);
  ++version_;
  if (version != nullptr) *version = version_;
  return out;
}

uint64_t TableRegistry::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return version_;
}

std::vector<std::string> TableRegistry::Names() const {
  std::vector<std::string> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(tables_.size());
    for (const auto& [name, table] : tables_) out.push_back(name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::string, std::shared_ptr<const EncodedTable>>>
TableRegistry::Snapshot(uint64_t* version) const {
  std::vector<std::pair<std::string, std::shared_ptr<const EncodedTable>>> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(tables_.size());
    for (const auto& [name, table] : tables_) out.emplace_back(name, table);
    if (version != nullptr) *version = version_;
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

size_t TableRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.size();
}

}  // namespace lakefuzz
