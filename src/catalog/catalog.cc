#include "catalog/catalog.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <set>
#include <utility>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>
#define LAKEFUZZ_CATALOG_POSIX 1
#endif

#include "catalog/mapped_file.h"
#include "discovery/lsh_index.h"
#include "util/fault_injection.h"
#include "util/hash.h"
#include "util/stopwatch.h"
#include "util/str.h"

namespace lakefuzz {
namespace {

// ------------------------------------------------------------ byte codecs
// All integers are written in host byte order; the manifest's endianness
// probe (kCatalogEndianCheck) rejects a catalog written on a different
// architecture with a typed error instead of silently mis-decoding.

class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    buf_.append(s);
  }
  void Raw(const void* data, size_t len) {
    buf_.append(static_cast<const char*>(data), len);
  }

  const std::string& bytes() const { return buf_; }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// Bounds-checked reader over a byte span. Any overrun sets a sticky
/// failure flag (checked by the caller at block granularity) and returns
/// zeros — corrupt input can never read out of bounds or loop unbounded.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : p_(data), size_(size) {}

  uint8_t U8() {
    if (!Require(1)) return 0;
    return p_[off_++];
  }
  uint32_t U32() {
    uint32_t v = 0;
    if (!Require(sizeof(v))) return 0;
    std::memcpy(&v, p_ + off_, sizeof(v));
    off_ += sizeof(v);
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    if (!Require(sizeof(v))) return 0;
    std::memcpy(&v, p_ + off_, sizeof(v));
    off_ += sizeof(v);
    return v;
  }
  double F64() {
    double v = 0;
    if (!Require(sizeof(v))) return 0;
    std::memcpy(&v, p_ + off_, sizeof(v));
    off_ += sizeof(v);
    return v;
  }
  bool Str(std::string* out) {
    const uint32_t n = U32();
    if (!Require(n)) return false;
    out->assign(reinterpret_cast<const char*>(p_ + off_), n);
    off_ += n;
    return true;
  }
  bool U64Span(size_t count, std::vector<uint64_t>* out) {
    if (count > (size_ - off_) / sizeof(uint64_t)) {
      failed_ = true;
      return false;
    }
    out->resize(count);
    std::memcpy(out->data(), p_ + off_, count * sizeof(uint64_t));
    off_ += count * sizeof(uint64_t);
    return true;
  }
  bool U32Span(size_t count, std::vector<uint32_t>* out) {
    if (count > (size_ - off_) / sizeof(uint32_t)) {
      failed_ = true;
      return false;
    }
    out->resize(count);
    std::memcpy(out->data(), p_ + off_, count * sizeof(uint32_t));
    off_ += count * sizeof(uint32_t);
    return true;
  }

  bool failed() const { return failed_; }
  size_t offset() const { return off_; }
  size_t remaining() const { return size_ - off_; }

 private:
  bool Require(size_t n) {
    if (failed_ || size_ - off_ < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  const uint8_t* p_;
  size_t size_;
  size_t off_ = 0;
  bool failed_ = false;
};

// --------------------------------------------------------------- file I/O

std::string JoinPath(const std::string& dir, const std::string& name) {
  if (dir.empty()) return name;
  return dir.back() == '/' ? dir + name : dir + "/" + name;
}

Status EnsureDir(const std::string& dir) {
#ifdef LAKEFUZZ_CATALOG_POSIX
  if (mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return Status::OK();
  return Status::IoError(
      StrFormat("cannot create catalog directory '%s'", dir.c_str()));
#else
  (void)dir;
  return Status::Unimplemented("catalog requires a POSIX filesystem");
#endif
}

/// Size of `path`, or -1 when it does not exist / cannot be stat'ed.
int64_t FileSizeOf(const std::string& path) {
#ifdef LAKEFUZZ_CATALOG_POSIX
  struct stat st;
  if (stat(path.c_str(), &st) != 0) return -1;
  return static_cast<int64_t>(st.st_size);
#else
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return -1;
  std::fseek(f, 0, SEEK_END);
  long len = std::ftell(f);
  std::fclose(f);
  return len;
#endif
}

/// Flush + fsync + close, each surfacing its own typed kIoError naming the
/// path — a failed close after a clean write is still a lost write. The
/// fclose always runs (even when flush/fsync failed or the "catalog/fsync"
/// fault fired), so no FILE* leaks on any error path. The fault is poked
/// directly instead of via LAKEFUZZ_FAULT_POINT because the macro returns
/// from the enclosing function, which would skip the close.
Status SyncAndClose(std::FILE* f, const std::string& path) {
  Status injected = Status::OK();
#ifdef LAKEFUZZ_FAULT_POINTS
  if (FaultInjector::Instance().enabled()) {
    injected = FaultInjector::Instance().Poke("catalog/fsync");
  }
#endif
  Status st = Status::OK();
  if (std::fflush(f) != 0) {
    st = Status::IoError(StrFormat("cannot flush '%s'", path.c_str()));
  }
#ifdef LAKEFUZZ_CATALOG_POSIX
  if (st.ok() && injected.ok() && fsync(fileno(f)) != 0) {
    st = Status::IoError(StrFormat("cannot fsync '%s'", path.c_str()));
  }
#endif
  if (std::fclose(f) != 0 && st.ok()) {
    st = Status::IoError(StrFormat("cannot close '%s'", path.c_str()));
  }
  return injected.ok() ? st : injected;
}

/// fsync on the directory, making a rename inside it durable. Failure is
/// surfaced: an un-fsynced rename can vanish on power loss, which for the
/// CURRENT commit would silently roll back a checkpoint the caller was
/// told succeeded.
Status SyncDirDurable(const std::string& dir) {
#ifdef LAKEFUZZ_CATALOG_POSIX
  LAKEFUZZ_FAULT_POINT("catalog/fsync");
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError(
        StrFormat("cannot open directory '%s' for fsync", dir.c_str()));
  }
  const bool ok = fsync(fd) == 0;
  ::close(fd);
  if (!ok) {
    return Status::IoError(
        StrFormat("cannot fsync directory '%s'", dir.c_str()));
  }
#else
  (void)dir;
#endif
  return Status::OK();
}

/// rename with its own fault point; the temp file is removed on failure.
Status RenameFile(const std::string& from, const std::string& to) {
#ifdef LAKEFUZZ_FAULT_POINTS
  if (FaultInjector::Instance().enabled()) {
    Status injected = FaultInjector::Instance().Poke("catalog/rename");
    if (!injected.ok()) {
      std::remove(from.c_str());
      return injected;
    }
  }
#endif
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    std::remove(from.c_str());
    return Status::IoError(
        StrFormat("cannot rename '%s' to '%s'", from.c_str(), to.c_str()));
  }
  return Status::OK();
}

Status ReadFileBytes(const std::string& path, std::string* out) {
  LAKEFUZZ_FAULT_POINT("catalog/read");
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError(
        StrFormat("cannot open catalog file '%s'", path.c_str()));
  }
  std::fseek(f, 0, SEEK_END);
  const long len = std::ftell(f);
  if (len < 0) {
    std::fclose(f);
    return Status::IoError(StrFormat("cannot size '%s'", path.c_str()));
  }
  std::fseek(f, 0, SEEK_SET);
  out->resize(static_cast<size_t>(len));
  const size_t got =
      out->empty() ? 0 : std::fread(&(*out)[0], 1, out->size(), f);
  std::fclose(f);
  if (got != out->size()) {
    return Status::IoError(StrFormat("short read on '%s'", path.c_str()));
  }
  return Status::OK();
}

/// Temp file + fsync + rename + directory fsync: readers observe either the
/// old bytes or the new bytes, never a torn write.
Status WriteFileAtomic(const std::string& dir, const std::string& name,
                       const std::string& bytes) {
  LAKEFUZZ_FAULT_POINT("catalog/write");
  const std::string final_path = JoinPath(dir, name);
  const std::string tmp_path = final_path + ".tmp";
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError(
        StrFormat("cannot create catalog file '%s'", tmp_path.c_str()));
  }
  const size_t written =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), f);
  if (written != bytes.size()) {
    std::fclose(f);
    std::remove(tmp_path.c_str());
    return Status::IoError(
        StrFormat("short write to '%s'", tmp_path.c_str()));
  }
  Status synced = SyncAndClose(f, tmp_path);
  if (!synced.ok()) {
    std::remove(tmp_path.c_str());
    return synced;
  }
  LAKEFUZZ_RETURN_IF_ERROR(RenameFile(tmp_path, final_path));
  return SyncDirDurable(dir);
}

/// Appends past the committed prefix. A crash mid-append leaves trailing
/// garbage beyond the manifest's logical size, which the prefix checksums
/// ignore — the previous catalog stays openable.
Status AppendToFile(const std::string& path, const std::string& bytes) {
  if (bytes.empty()) return Status::OK();
  LAKEFUZZ_FAULT_POINT("catalog/write");
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return Status::IoError(
        StrFormat("cannot append to catalog file '%s'", path.c_str()));
  }
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  if (written != bytes.size()) {
    std::fclose(f);
    return Status::IoError(StrFormat("short append to '%s'", path.c_str()));
  }
  return SyncAndClose(f, path);
}

// --------------------------------------------------- fencing + generations

/// Advisory lock fencing CURRENT commits, CURRENT reads + pin creation, and
/// generation GC. Held on kCatalogLockFile (stable inode), never on CURRENT
/// itself — CURRENT is replaced by rename every commit and flock binds to
/// the inode, so a lock on it would fence nothing after the first commit.
/// flock is released by the kernel when the holder dies, so a killed writer
/// never wedges the directory.
class CatalogLock {
 public:
  CatalogLock() = default;
  CatalogLock(CatalogLock&& other) noexcept : fd_(other.fd_) {
    other.fd_ = -1;
  }
  CatalogLock& operator=(CatalogLock&& other) noexcept {
    if (this != &other) {
      Release();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  CatalogLock(const CatalogLock&) = delete;
  CatalogLock& operator=(const CatalogLock&) = delete;
  ~CatalogLock() { Release(); }

  /// Writer side: commits and GC.
  static Result<CatalogLock> Exclusive(const std::string& dir) {
    return Acquire(dir, true);
  }
  /// Reader side: CURRENT read + pin creation (held briefly).
  static Result<CatalogLock> Shared(const std::string& dir) {
    return Acquire(dir, false);
  }

 private:
  static Result<CatalogLock> Acquire(const std::string& dir, bool exclusive) {
#ifdef LAKEFUZZ_CATALOG_POSIX
    const std::string path = JoinPath(dir, kCatalogLockFile);
    const int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd < 0) {
      return Status::IoError(
          StrFormat("cannot open catalog lock '%s'", path.c_str()));
    }
    while (flock(fd, exclusive ? LOCK_EX : LOCK_SH) != 0) {
      if (errno != EINTR) {
        ::close(fd);
        return Status::IoError(
            StrFormat("cannot lock catalog lock '%s'", path.c_str()));
      }
    }
    CatalogLock lock;
    lock.fd_ = fd;
    return lock;
#else
    (void)dir;
    (void)exclusive;
    return CatalogLock();
#endif
  }

  void Release() {
#ifdef LAKEFUZZ_CATALOG_POSIX
    if (fd_ >= 0) {
      ::close(fd_);  // closing the descriptor drops the flock
      fd_ = -1;
    }
#endif
  }

  int fd_ = -1;
};

/// CURRENT body: "LFCUR1 <decimal generation>\n". Committed whole via
/// temp + fsync + rename, so readers see the old pointer or the new one.
std::string SerializeCurrent(uint64_t gen) {
  return StrFormat("LFCUR1 %llu\n", static_cast<unsigned long long>(gen));
}

Status ParseCurrent(const std::string& bytes, uint64_t* gen) {
  static constexpr char kPrefix[] = "LFCUR1 ";
  const size_t prefix_len = sizeof(kPrefix) - 1;
  Status torn = Status::IoError("catalog CURRENT pointer is torn or invalid");
  if (bytes.size() < prefix_len + 2 ||
      bytes.compare(0, prefix_len, kPrefix) != 0 || bytes.back() != '\n') {
    return torn;
  }
  uint64_t g = 0;
  for (size_t i = prefix_len; i + 1 < bytes.size(); ++i) {
    const char c = bytes[i];
    if (c < '0' || c > '9') return torn;
    g = g * 10 + static_cast<uint64_t>(c - '0');
  }
  if (g == 0) return torn;
  *gen = g;
  return Status::OK();
}

/// The committed generation, or a typed error when the directory holds no
/// committed catalog / a torn pointer. Caller must hold the lock.
Status ReadCurrent(const std::string& dir, uint64_t* gen) {
  std::string bytes;
  LAKEFUZZ_RETURN_IF_ERROR(
      ReadFileBytes(JoinPath(dir, kCatalogCurrentFile), &bytes));
  return ParseCurrent(bytes, gen);
}

bool AllDigits(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

uint64_t DigitsToU64(const std::string& s) {
  uint64_t v = 0;
  for (char c : s) v = v * 10 + static_cast<uint64_t>(c - '0');
  return v;
}

std::vector<std::string> SplitDots(const std::string& s) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == '.') {
      parts.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

bool ParseManifestFileName(const std::string& name, uint64_t* gen) {
  const auto parts = SplitDots(name);
  if (parts.size() != 3 || parts[0] != "manifest" || parts[2] != "lfc" ||
      !AllDigits(parts[1])) {
    return false;
  }
  *gen = DigitsToU64(parts[1]);
  return true;
}

bool ParseSegmentFileName(const std::string& name, uint64_t* base) {
  const auto parts = SplitDots(name);
  if (parts.size() != 3 || parts[2] != "seg" || !AllDigits(parts[1])) {
    return false;
  }
  if (parts[0] != kCatalogValuesStem && parts[0] != kCatalogHashesStem &&
      parts[0] != kCatalogTablesStem && parts[0] != kCatalogSketchesStem) {
    return false;
  }
  *base = DigitsToU64(parts[1]);
  return true;
}

bool ParsePinFileName(const std::string& name, uint64_t* gen, int64_t* pid) {
  const auto parts = SplitDots(name);
  if (parts.size() != 4 || parts[0] != "pin" || !AllDigits(parts[1]) ||
      !AllDigits(parts[2]) || !AllDigits(parts[3])) {
    return false;
  }
  *gen = DigitsToU64(parts[1]);
  *pid = static_cast<int64_t>(DigitsToU64(parts[2]));
  return true;
}

Status ListDir(const std::string& dir, std::vector<std::string>* names) {
#ifdef LAKEFUZZ_CATALOG_POSIX
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) {
    return Status::IoError(
        StrFormat("cannot list catalog directory '%s'", dir.c_str()));
  }
  while (struct dirent* e = readdir(d)) {
    names->emplace_back(e->d_name);
  }
  closedir(d);
  return Status::OK();
#else
  (void)dir;
  (void)names;
  return Status::Unimplemented("catalog requires a POSIX filesystem");
#endif
}

/// Creates the reader's retention claim on `gen`. Must be called while
/// holding at least the shared lock, so the writer's GC (exclusive lock)
/// can never observe CURRENT-read-done-but-pin-not-yet-created.
Result<std::string> CreatePinFile(const std::string& dir, uint64_t gen) {
  static std::atomic<uint64_t> seq{0};
#ifdef LAKEFUZZ_CATALOG_POSIX
  const int64_t pid = static_cast<int64_t>(::getpid());
#else
  const int64_t pid = 0;
#endif
  const std::string path = JoinPath(
      dir, CatalogPinFileName(gen, pid, seq.fetch_add(1)));
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError(
        StrFormat("cannot create catalog pin '%s'", path.c_str()));
  }
  std::fclose(f);
  return path;
}

/// Removes the pin on destruction unless released — keeps a failed open
/// from leaking a retention claim that would pin generations forever.
class PinGuard {
 public:
  explicit PinGuard(std::string path) : path_(std::move(path)) {}
  ~PinGuard() {
    if (!path_.empty()) std::remove(path_.c_str());
  }
  void Release() { path_.clear(); }

 private:
  std::string path_;
};

// ------------------------------------------------------ value (de)coding

void WriteValue(ByteWriter* w, const Value& v) {
  w->U8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;  // never stored: dict codes are non-null by construction
    case ValueType::kString:
      w->Str(v.AsString());
      break;
    case ValueType::kInt64: {
      uint64_t bits;
      int64_t i = v.AsInt();
      std::memcpy(&bits, &i, sizeof(bits));
      w->U64(bits);
      break;
    }
    case ValueType::kDouble: {
      uint64_t bits;
      double d = v.AsDouble();
      std::memcpy(&bits, &d, sizeof(bits));
      w->U64(bits);
      break;
    }
    case ValueType::kBool:
      w->U8(v.AsBool() ? 1 : 0);
      break;
  }
}

Status ReadValue(ByteReader* r, Value* out) {
  const uint8_t type = r->U8();
  switch (static_cast<ValueType>(type)) {
    case ValueType::kString: {
      std::string s;
      if (!r->Str(&s)) break;
      *out = Value::String(std::move(s));
      return Status::OK();
    }
    case ValueType::kInt64: {
      const uint64_t bits = r->U64();
      if (r->failed()) break;
      int64_t i;
      std::memcpy(&i, &bits, sizeof(i));
      *out = Value::Int(i);
      return Status::OK();
    }
    case ValueType::kDouble: {
      const uint64_t bits = r->U64();
      if (r->failed()) break;
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      *out = Value::Double(d);
      return Status::OK();
    }
    case ValueType::kBool: {
      const uint8_t b = r->U8();
      if (r->failed()) break;
      *out = Value::Bool(b != 0);
      return Status::OK();
    }
    default:
      return Status::IoError(StrFormat(
          "catalog value segment holds unknown type tag %u", unsigned{type}));
  }
  return Status::IoError("catalog value segment truncated");
}

// --------------------------------------------------------- table payloads

/// Everything SaveCatalog needs about one registered table, gathered from
/// the live session before any byte is written.
struct TablePayload {
  std::string name;
  std::shared_ptr<const EncodedTable> table;
  std::shared_ptr<const std::vector<ColumnSketch>> sketches;
  uint64_t fingerprint = 0;
};

void SerializeTableBlock(ByteWriter* w, const EncodedTable& t) {
  w->U32(static_cast<uint32_t>(t.NumColumns()));
  w->U64(t.NumRows());
  for (const Field& f : t.schema.fields()) {
    w->Str(f.name);
    w->U8(static_cast<uint8_t>(f.type));
  }
  for (const auto& col : t.codes) {
    w->Raw(col.data(), col.size() * sizeof(uint32_t));
  }
}

void SerializeSketchBlock(ByteWriter* w,
                          const std::vector<ColumnSketch>& sketches,
                          const LshIndex& keyer) {
  w->U32(static_cast<uint32_t>(sketches.size()));
  std::vector<uint64_t> keys;
  for (const ColumnSketch& s : sketches) {
    w->Str(s.name);
    w->U64(s.profile.rows);
    w->U64(s.profile.nulls);
    w->U64(s.profile.distinct);
    w->F64(s.profile.frac_string);
    w->F64(s.profile.frac_int);
    w->F64(s.profile.frac_double);
    w->F64(s.profile.frac_bool);
    w->F64(s.profile.avg_len);
    // Empty columns carry no signature or band keys (they are never
    // LSH-indexed); non-empty ones persist both, so a warm load re-buckets
    // the LSH index without recomputing a single MinHash or band key.
    if (s.empty()) {
      w->U32(0);
      w->U32(0);
      continue;
    }
    w->U32(static_cast<uint32_t>(s.signature.size()));
    w->Raw(s.signature.data(), s.signature.size() * sizeof(uint64_t));
    keyer.ComputeBandKeys(s.signature, &keys);
    w->U32(static_cast<uint32_t>(keys.size()));
    w->Raw(keys.data(), keys.size() * sizeof(uint64_t));
  }
}

// --------------------------------------------------------------- manifest

struct ManifestEntry {
  std::string name;
  CatalogState::TableState state;
};

struct Manifest {
  uint64_t generation = 0;  ///< the generation this manifest commits
  uint64_t base = 0;        ///< segment base its extents reference
  uint64_t signature_size = 0, bands = 0, rows_per_band = 0, seed = 0;
  uint64_t value_count = 0;
  CatalogState::Segment values, hashes, tables, sketches;
  std::vector<ManifestEntry> entries;
};

std::string SerializeManifest(const Manifest& m) {
  ByteWriter w;
  w.Raw(kCatalogMagic, sizeof(kCatalogMagic));
  w.U32(kCatalogFormatVersion);
  w.U32(kCatalogEndianCheck);
  w.U64(m.generation);
  w.U64(m.base);
  w.U64(m.signature_size);
  w.U64(m.bands);
  w.U64(m.rows_per_band);
  w.U64(m.seed);
  w.U64(m.value_count);
  for (const CatalogState::Segment* seg :
       {&m.values, &m.hashes, &m.tables, &m.sketches}) {
    w.U64(seg->size);
    w.U64(seg->checksum);
  }
  w.U64(m.entries.size());
  for (const ManifestEntry& e : m.entries) {
    w.Str(e.name);
    w.U64(e.state.fingerprint);
    w.U64(e.state.rows);
    w.U32(e.state.cols);
    w.U64(e.state.table_off);
    w.U64(e.state.table_size);
    w.U64(e.state.sketch_off);
    w.U64(e.state.sketch_size);
  }
  ByteWriter out;
  out.Raw(w.bytes().data(), w.size());
  out.U64(Fnv1a64(w.bytes().data(), w.size()));
  return out.bytes();
}

/// Smallest serialized manifest entry: an empty name's length prefix plus
/// the fixed fields (fingerprint, rows, cols, two offset/size pairs). A
/// declared table count is bounded by the bytes left / this before
/// anything is allocated for it.
constexpr size_t kMinManifestEntryBytes = 4 + 8 + 8 + 4 + 4 * 8;

/// `discovery_options` may be null (GC parses manifests only for their
/// base; it has no discovery context and skips the parameter check).
Status ParseManifest(const std::string& bytes,
                     const DiscoveryOptions* discovery_options,
                     Manifest* out) {
  if (bytes.size() < sizeof(kCatalogMagic) + 2 * sizeof(uint32_t) +
                         sizeof(uint64_t)) {
    return Status::IoError("catalog manifest truncated");
  }
  if (std::memcmp(bytes.data(), kCatalogMagic, sizeof(kCatalogMagic)) != 0) {
    return Status::InvalidArgument(
        "not a lakefuzz catalog manifest (bad magic)");
  }
  ByteReader r(reinterpret_cast<const uint8_t*>(bytes.data()),
               bytes.size() - sizeof(uint64_t));
  r.U64();  // magic, already checked
  const uint32_t format_version = r.U32();
  if (format_version != kCatalogFormatVersion) {
    return Status::InvalidArgument(StrFormat(
        "catalog format version %u is not supported (this build reads %u)",
        format_version, kCatalogFormatVersion));
  }
  const uint32_t endian = r.U32();
  if (endian != kCatalogEndianCheck) {
    return Status::InvalidArgument(
        "catalog was written with a different byte order");
  }
  // Integrity before content: the trailing checksum covers every preceding
  // byte, so any flip in the body below surfaces here as kIoError.
  uint64_t stored_checksum;
  std::memcpy(&stored_checksum,
              bytes.data() + bytes.size() - sizeof(uint64_t),
              sizeof(uint64_t));
  if (Fnv1a64(bytes.data(), bytes.size() - sizeof(uint64_t)) !=
      stored_checksum) {
    return Status::IoError("catalog manifest checksum mismatch");
  }
  out->generation = r.U64();
  out->base = r.U64();
  out->signature_size = r.U64();
  out->bands = r.U64();
  out->rows_per_band = r.U64();
  out->seed = r.U64();
  out->value_count = r.U64();
  for (CatalogState::Segment* seg :
       {&out->values, &out->hashes, &out->tables, &out->sketches}) {
    seg->size = r.U64();
    seg->checksum = r.U64();
  }
  const uint64_t num_tables = r.U64();
  if (r.failed() || num_tables > r.remaining() / kMinManifestEntryBytes ||
      out->value_count >= UINT32_MAX || out->generation == 0 ||
      out->base == 0 || out->base > out->generation) {
    return Status::IoError("catalog manifest truncated");
  }
  out->entries.resize(static_cast<size_t>(num_tables));
  for (ManifestEntry& e : out->entries) {
    if (!r.Str(&e.name)) break;
    e.state.fingerprint = r.U64();
    e.state.rows = r.U64();
    e.state.cols = r.U32();
    e.state.table_off = r.U64();
    e.state.table_size = r.U64();
    e.state.sketch_off = r.U64();
    e.state.sketch_size = r.U64();
  }
  if (r.failed()) return Status::IoError("catalog manifest truncated");
  if (discovery_options != nullptr &&
      (out->signature_size != discovery_options->signature_size ||
       out->bands != discovery_options->bands ||
       out->rows_per_band != discovery_options->rows_per_band ||
       out->seed != discovery_options->seed)) {
    return Status::InvalidArgument(StrFormat(
        "catalog sketch parameters (k=%llu, %llux%llu, seed=%llu) do not "
        "match this engine's discovery options — rebuild required",
        static_cast<unsigned long long>(out->signature_size),
        static_cast<unsigned long long>(out->bands),
        static_cast<unsigned long long>(out->rows_per_band),
        static_cast<unsigned long long>(out->seed)));
  }
  return Status::OK();
}

Status VerifySegment(const MappedFile& file, const CatalogState::Segment& seg,
                     const char* name) {
  if (file.size() < seg.size) {
    return Status::IoError(
        StrFormat("catalog segment '%s' truncated (%zu < committed %llu)",
                  name, file.size(),
                  static_cast<unsigned long long>(seg.size)));
  }
  // Only the committed prefix participates: bytes past it are an aborted
  // append, not corruption.
  if (Fnv1a64(file.data(), static_cast<size_t>(seg.size)) != seg.checksum) {
    return Status::IoError(
        StrFormat("catalog segment '%s' checksum mismatch", name));
  }
  return Status::OK();
}

Status GatherPayloads(TableRegistry* registry, const SessionDict& dict,
                      DiscoveryIndex* discovery,
                      std::vector<TablePayload>* payloads,
                      size_t* columns_resketched) {
  auto snapshot = registry->Snapshot();
  payloads->reserve(snapshot.size());
  for (auto& [name, table] : snapshot) {
    TablePayload p;
    p.name = name;
    p.table = table;
    const size_t cols = table->codes.size();
    p.sketches = discovery->TableSketches(name, table.get());
    if (p.sketches == nullptr || p.sketches->size() != cols) {
      // Index was never built (lazy mode, unsynced) — sketch here so the
      // catalog is complete either way.
      p.sketches = std::make_shared<const std::vector<ColumnSketch>>(
          discovery->SketchTable(*table));
      *columns_resketched += cols;
    }
    p.fingerprint = CatalogTableFingerprint(*table, dict.dict());
    payloads->push_back(std::move(p));
  }
  return Status::OK();
}

// -------------------------------------------------------------- retention

/// Garbage-collects retired generations under the exclusive lock, after a
/// commit. Keeps: the newest `retain` committed generations (always
/// including `current_gen`), every generation a live process has pinned,
/// and the segment bases any kept manifest references. Removes: retired
/// manifests, orphan manifests above `current_gen` (uncommitted partials
/// from a crashed writer), segment files whose base no kept manifest uses,
/// stale pins of dead processes, and leftover *.tmp files. Best-effort —
/// a failure here can only leave extra files, never break a reader.
size_t CollectGarbage(const std::string& dir, uint64_t current_gen,
                      size_t retain) {
  if (retain == 0) retain = 1;
  std::vector<std::string> names;
  if (!ListDir(dir, &names).ok()) return 0;

  std::vector<uint64_t> manifest_gens;
  std::vector<std::pair<std::string, uint64_t>> segment_files;
  std::set<uint64_t> pinned;
  std::vector<std::string> tmp_files;
  for (const std::string& name : names) {
    uint64_t gen = 0, base = 0;
    int64_t pid = 0;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      tmp_files.push_back(name);
    } else if (ParseManifestFileName(name, &gen)) {
      manifest_gens.push_back(gen);
    } else if (ParseSegmentFileName(name, &base)) {
      segment_files.emplace_back(name, base);
    } else if (ParsePinFileName(name, &gen, &pid)) {
#ifdef LAKEFUZZ_CATALOG_POSIX
      if (kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH) {
        // The pinning process is gone; its claim dies with it.
        std::remove(JoinPath(dir, name).c_str());
        continue;
      }
#endif
      pinned.insert(gen);
    }
  }

  std::sort(manifest_gens.begin(), manifest_gens.end(),
            std::greater<uint64_t>());
  std::set<uint64_t> keep;
  for (uint64_t gen : manifest_gens) {
    if (gen > current_gen) continue;  // uncommitted partial — garbage
    if (gen == current_gen || keep.size() < retain ||
        pinned.count(gen) != 0) {
      keep.insert(gen);
    }
  }

  // Bases the kept manifests reference. If any kept manifest fails to parse
  // we cannot know which segments are live — skip segment GC this round.
  std::set<uint64_t> keep_bases;
  bool bases_known = true;
  for (uint64_t gen : keep) {
    std::string bytes;
    Manifest m;
    if (!ReadFileBytes(JoinPath(dir, CatalogManifestFileName(gen)), &bytes)
             .ok() ||
        !ParseManifest(bytes, nullptr, &m).ok()) {
      bases_known = false;
      break;
    }
    keep_bases.insert(m.base);
  }

  size_t removed = 0;
  for (uint64_t gen : manifest_gens) {
    if (keep.count(gen) != 0) continue;
    if (std::remove(JoinPath(dir, CatalogManifestFileName(gen)).c_str()) ==
        0) {
      ++removed;
    }
  }
  if (bases_known) {
    for (const auto& [name, base] : segment_files) {
      if (keep_bases.count(base) == 0) {
        std::remove(JoinPath(dir, name).c_str());
      }
    }
  }
  for (const std::string& name : tmp_files) {
    std::remove(JoinPath(dir, name).c_str());
  }
  return removed;
}

}  // namespace

// ----------------------------------------------------------- public names

std::string CatalogManifestFileName(uint64_t generation) {
  return StrFormat("manifest.%llu.lfc",
                   static_cast<unsigned long long>(generation));
}

std::string CatalogSegmentFileName(const char* stem, uint64_t base) {
  return StrFormat("%s.%llu.seg", stem,
                   static_cast<unsigned long long>(base));
}

std::string CatalogPinFileName(uint64_t generation, int64_t pid,
                               uint64_t seq) {
  return StrFormat("pin.%llu.%lld.%llu",
                   static_cast<unsigned long long>(generation),
                   static_cast<long long>(pid),
                   static_cast<unsigned long long>(seq));
}

uint64_t CatalogTableFingerprint(const EncodedTable& table,
                                 const ValueDict& dict) {
  uint64_t fp = Fnv1a64("lakefuzz.catalog.table.v1");
  fp = HashCombine(fp, table.NumRows());
  fp = HashCombine(fp, table.NumColumns());
  for (const Field& f : table.schema.fields()) {
    fp = HashCombine(fp, Fnv1a64(f.name));
    fp = HashCombine(fp, static_cast<uint64_t>(f.type));
  }
  for (const auto& col : table.codes) {
    for (uint32_t code : col) {
      fp = HashCombine(fp,
                       code == ValueDict::kNullCode ? 0 : dict.HashOf(code));
    }
  }
  return fp;
}

Result<uint64_t> CatalogCurrentGeneration(const std::string& dir) {
  LAKEFUZZ_ASSIGN_OR_RETURN(CatalogLock lock, CatalogLock::Shared(dir));
  uint64_t gen = 0;
  LAKEFUZZ_RETURN_IF_ERROR(ReadCurrent(dir, &gen));
  return gen;
}

// ---------------------------------------------------------------- save

Result<CatalogSaveReport> SaveCatalogFrom(
    const std::string& dir, TableRegistry* registry, const SessionDict* dict,
    DiscoveryIndex* discovery, const DiscoveryOptions& discovery_options,
    CatalogState* state, size_t retain_generations) {
  Stopwatch watch;
  CatalogSaveReport report;
  LAKEFUZZ_RETURN_IF_ERROR(EnsureDir(dir));
  // Exclusive for the whole save: serializes concurrent writers and fences
  // readers' CURRENT-read + pin-creation against the commit and the GC.
  LAKEFUZZ_ASSIGN_OR_RETURN(CatalogLock lock, CatalogLock::Exclusive(dir));

  // Committed generation on disk. A missing or torn CURRENT reads as 0; the
  // new generation is still allocated past every manifest present, so
  // observers never see the sequence go backwards even when recovering
  // from a corrupt pointer.
  uint64_t committed = 0;
  {
    Status current = ReadCurrent(dir, &committed);
    if (!current.ok()) committed = 0;
  }
  uint64_t max_gen = committed;
  if (state->valid() && state->dir == dir) {
    max_gen = std::max(max_gen, state->generation);
  }
  {
    std::vector<std::string> names;
    if (ListDir(dir, &names).ok()) {
      for (const std::string& name : names) {
        uint64_t gen = 0;
        if (ParseManifestFileName(name, &gen)) {
          max_gen = std::max(max_gen, gen);
        }
      }
    }
  }
  const uint64_t gen = max_gen + 1;

  std::vector<TablePayload> payloads;
  LAKEFUZZ_RETURN_IF_ERROR(GatherPayloads(registry, *dict, discovery,
                                          &payloads,
                                          &report.columns_resketched));
  // Captured AFTER gathering: every code referenced by a payload is
  // <= value_count, and codes appended by concurrent registrations past it
  // are simply left for the next checkpoint (the dict is append-only).
  const uint64_t value_count = dict->NumDistinct();

  // Incremental only when this engine's state mirrors the committed
  // generation (another writer advancing the directory invalidates our
  // extents) and the base segments still end exactly at the committed
  // sizes. Appends go to the same base; a full rewrite allocates base=gen
  // so files older generations reference are never touched.
  const bool incremental =
      state->valid() && state->dir == dir && committed != 0 &&
      state->generation == committed && state->codes_identical &&
      value_count >= state->values_persisted &&
      FileSizeOf(JoinPath(dir, CatalogSegmentFileName(kCatalogValuesStem,
                                                      state->base))) ==
          static_cast<int64_t>(state->values.size) &&
      FileSizeOf(JoinPath(dir, CatalogSegmentFileName(kCatalogHashesStem,
                                                      state->base))) ==
          static_cast<int64_t>(state->hashes.size) &&
      FileSizeOf(JoinPath(dir, CatalogSegmentFileName(kCatalogTablesStem,
                                                      state->base))) ==
          static_cast<int64_t>(state->tables.size) &&
      FileSizeOf(JoinPath(dir, CatalogSegmentFileName(kCatalogSketchesStem,
                                                      state->base))) ==
          static_cast<int64_t>(state->sketches.size);
  const uint64_t base = incremental ? state->base : gen;
  // A full rewrite is an append to empty segments under the fresh base, so
  // both modes run one loop: serialize the dict entries past `prior`'s
  // prefix and every table whose fingerprint `prior` does not hold (the
  // rest reuse their extents), then extend `prior`'s segments.
  const CatalogState empty;
  const CatalogState& prior = incremental ? *state : empty;
  report.incremental = incremental;

  // Band keys are recomputed once per signature at save time (cheap FNV
  // folds); persisting them makes the warm open's LSH rebuild a pure copy.
  const LshIndex keyer(discovery_options.bands,
                       discovery_options.rows_per_band);

  Manifest m;
  m.generation = gen;
  m.base = base;
  m.signature_size = discovery_options.signature_size;
  m.bands = discovery_options.bands;
  m.rows_per_band = discovery_options.rows_per_band;
  m.seed = discovery_options.seed;
  m.value_count = value_count;

  ByteWriter vbuf, hbuf, tbuf, sbuf;
  for (uint64_t code = prior.values_persisted + 1; code <= value_count;
       ++code) {
    WriteValue(&vbuf, dict->dict().Decode(static_cast<uint32_t>(code)));
    hbuf.U64(dict->dict().HashOf(static_cast<uint32_t>(code)));
  }
  std::map<std::string, CatalogState::TableState> table_states;
  for (const TablePayload& p : payloads) {
    auto it = prior.tables_by_name.find(p.name);
    if (it != prior.tables_by_name.end() &&
        it->second.fingerprint == p.fingerprint) {
      table_states[p.name] = it->second;
      ++report.tables_reused;
      continue;
    }
    CatalogState::TableState ts;
    ts.fingerprint = p.fingerprint;
    ts.rows = p.table->NumRows();
    ts.cols = static_cast<uint32_t>(p.table->NumColumns());
    ts.table_off = prior.tables.size + tbuf.size();
    SerializeTableBlock(&tbuf, *p.table);
    ts.table_size = prior.tables.size + tbuf.size() - ts.table_off;
    ts.sketch_off = prior.sketches.size + sbuf.size();
    SerializeSketchBlock(&sbuf, *p.sketches, keyer);
    ts.sketch_size = prior.sketches.size + sbuf.size() - ts.sketch_off;
    table_states[p.name] = ts;
    ++report.tables_written;
  }
  report.values_appended = value_count - prior.values_persisted;

  // Each segment's checksum streams forward from the prior prefix's (FNV
  // seeded with it). Incremental saves append past the committed sizes;
  // a full rewrite writes fresh files through the temp-file commit and
  // leaves every prior generation's segments untouched, so a crash at any
  // point leaves each committed generation fully intact.
  struct SegmentWrite {
    const char* stem;
    const CatalogState::Segment* prior;
    const ByteWriter* buf;
    CatalogState::Segment* extended;
  };
  for (const SegmentWrite& w :
       {SegmentWrite{kCatalogValuesStem, &prior.values, &vbuf, &m.values},
        SegmentWrite{kCatalogHashesStem, &prior.hashes, &hbuf, &m.hashes},
        SegmentWrite{kCatalogTablesStem, &prior.tables, &tbuf, &m.tables},
        SegmentWrite{kCatalogSketchesStem, &prior.sketches, &sbuf,
                     &m.sketches}}) {
    const std::string& bytes = w.buf->bytes();
    *w.extended = {w.prior->size + bytes.size(),
                   Fnv1a64(bytes.data(), bytes.size(), w.prior->checksum)};
    const std::string file = CatalogSegmentFileName(w.stem, base);
    LAKEFUZZ_RETURN_IF_ERROR(incremental
                                 ? AppendToFile(JoinPath(dir, file), bytes)
                                 : WriteFileAtomic(dir, file, bytes));
    report.bytes_written += bytes.size();
  }

  m.entries.reserve(table_states.size());
  for (auto& [name, ts] : table_states) {
    m.entries.push_back(ManifestEntry{name, ts});
  }
  const std::string manifest = SerializeManifest(m);
  LAKEFUZZ_RETURN_IF_ERROR(
      WriteFileAtomic(dir, CatalogManifestFileName(gen), manifest));
  report.bytes_written += manifest.size();

  // THE commit point: readers follow CURRENT, so until this rename lands
  // the new generation does not exist for them — and after it, the old one
  // is still complete (only GC below may retire it).
  LAKEFUZZ_RETURN_IF_ERROR(
      WriteFileAtomic(dir, kCatalogCurrentFile, SerializeCurrent(gen)));

  report.generations_removed = CollectGarbage(dir, gen, retain_generations);

  state->dir = dir;
  state->generation = gen;
  state->base = base;
  state->codes_identical = true;  // file codes 1..value_count == session codes
  state->values_persisted = value_count;
  state->values = m.values;
  state->hashes = m.hashes;
  state->tables = m.tables;
  state->sketches = m.sketches;
  state->tables_by_name = std::move(table_states);
  report.generation = gen;
  report.base = base;
  report.seconds = watch.ElapsedSeconds();
  return report;
}

// ---------------------------------------------------------------- open

namespace {

/// One fully parsed, not-yet-registered catalog table.
struct StagedTable {
  std::shared_ptr<const EncodedTable> table;
  std::vector<ColumnSketch> sketches;
  std::vector<std::vector<uint64_t>> band_keys;
  bool replaces_live = false;  ///< refresh: a stale live table must go first
};

Status ParseTableBlock(const MappedFile& seg, const ManifestEntry& e,
                       uint64_t value_count,
                       const std::vector<uint32_t>& remap,
                       StagedTable* out) {
  if (e.state.table_off > seg.size() ||
      e.state.table_size > seg.size() - e.state.table_off) {
    return Status::IoError(StrFormat(
        "catalog table block for '%s' out of bounds", e.name.c_str()));
  }
  ByteReader r(seg.data() + e.state.table_off,
               static_cast<size_t>(e.state.table_size));
  const uint32_t cols = r.U32();
  const uint64_t rows = r.U64();
  if (r.failed() || cols != e.state.cols || rows != e.state.rows) {
    return Status::IoError(StrFormat(
        "catalog table block for '%s' does not match its manifest entry",
        e.name.c_str()));
  }
  // Each column holds at least a name length and a type byte: bound the
  // declared count by the block before allocating for it.
  constexpr size_t kMinColumnBytes = 4 + 1;
  if (cols > r.remaining() / kMinColumnBytes) {
    return Status::IoError(
        StrFormat("catalog table block for '%s' truncated", e.name.c_str()));
  }
  // The column spans below bound the row count by the block's bytes; a
  // table without columns has none, so it may not declare rows.
  if (cols == 0 && rows != 0) {
    return Status::IoError(StrFormat(
        "catalog table block for '%s' declares rows but no columns",
        e.name.c_str()));
  }
  std::vector<Field> fields(cols);
  for (Field& f : fields) {
    if (!r.Str(&f.name)) break;
    const uint8_t type = r.U8();
    if (type > static_cast<uint8_t>(ValueType::kBool)) {
      return Status::IoError(StrFormat(
          "catalog table block for '%s' holds unknown field type tag %u",
          e.name.c_str(), unsigned{type}));
    }
    f.type = static_cast<ValueType>(type);
  }
  if (r.failed()) {
    return Status::IoError(
        StrFormat("catalog table block for '%s' truncated", e.name.c_str()));
  }
  // The record is the block's fields and remapped codes: no cell is
  // decoded, since every consumer reads values through the dictionary.
  auto record = std::make_shared<EncodedTable>();
  record->name = e.name;
  record->schema = Schema(std::move(fields));
  record->codes.resize(cols);
  std::vector<uint32_t> file_codes;
  for (uint32_t c = 0; c < cols; ++c) {
    if (!r.U32Span(static_cast<size_t>(rows), &file_codes)) {
      return Status::IoError(StrFormat(
          "catalog table block for '%s' truncated", e.name.c_str()));
    }
    std::vector<uint32_t>& session_codes = record->codes[c];
    session_codes.reserve(file_codes.size());
    for (uint32_t code : file_codes) {
      if (code > value_count) {
        return Status::IoError(StrFormat(
            "catalog table block for '%s' references code %u beyond the "
            "dictionary (%llu entries)",
            e.name.c_str(), code,
            static_cast<unsigned long long>(value_count)));
      }
      session_codes.push_back(remap[code]);
    }
  }
  out->table = std::move(record);
  return Status::OK();
}

Status ParseSketchBlock(const MappedFile& seg, const ManifestEntry& e,
                        const DiscoveryOptions& options, StagedTable* out) {
  if (e.state.sketch_off > seg.size() ||
      e.state.sketch_size > seg.size() - e.state.sketch_off) {
    return Status::IoError(StrFormat(
        "catalog sketch block for '%s' out of bounds", e.name.c_str()));
  }
  ByteReader r(seg.data() + e.state.sketch_off,
               static_cast<size_t>(e.state.sketch_size));
  const uint32_t cols = r.U32();
  if (r.failed() || cols != e.state.cols) {
    return Status::IoError(StrFormat(
        "catalog sketch block for '%s' does not match its manifest entry",
        e.name.c_str()));
  }
  // Each column sketch holds at least a name length, three counts, five
  // fractions and two array lengths: bound the declared count by the block
  // before allocating for it.
  constexpr size_t kMinSketchBytes = 4 + 3 * 8 + 5 * 8 + 4 + 4;
  if (cols > r.remaining() / kMinSketchBytes) {
    return Status::IoError(
        StrFormat("catalog sketch block for '%s' truncated", e.name.c_str()));
  }
  out->sketches.resize(cols);
  out->band_keys.resize(cols);
  for (uint32_t c = 0; c < cols; ++c) {
    ColumnSketch& s = out->sketches[c];
    if (!r.Str(&s.name)) break;
    s.profile.rows = r.U64();
    s.profile.nulls = r.U64();
    s.profile.distinct = r.U64();
    s.profile.frac_string = r.F64();
    s.profile.frac_int = r.F64();
    s.profile.frac_double = r.F64();
    s.profile.frac_bool = r.F64();
    s.profile.avg_len = r.F64();
    const uint32_t sig_count = r.U32();
    if (sig_count != 0 && sig_count != options.signature_size) {
      return Status::IoError(StrFormat(
          "catalog sketch for '%s' has signature size %u (expected %zu)",
          e.name.c_str(), sig_count, options.signature_size));
    }
    if (!r.U64Span(sig_count, &s.signature)) break;
    const uint32_t band_count = r.U32();
    if (band_count != 0 && band_count != options.bands) {
      return Status::IoError(StrFormat(
          "catalog sketch for '%s' has %u band keys (expected %zu)",
          e.name.c_str(), band_count, options.bands));
    }
    if (!r.U64Span(band_count, &out->band_keys[c])) break;
    // A column with values must carry a signature (and vice versa) or the
    // LSH rebuild would silently drop it from the index.
    if (s.empty() != (sig_count == 0)) {
      return Status::IoError(StrFormat(
          "catalog sketch for '%s' is inconsistent (distinct=%llu, "
          "signature=%u)",
          e.name.c_str(),
          static_cast<unsigned long long>(s.profile.distinct), sig_count));
    }
  }
  if (r.failed()) {
    return Status::IoError(StrFormat(
        "catalog sketch block for '%s' truncated", e.name.c_str()));
  }
  return Status::OK();
}

/// The engine's Unregister sequence, replicated for refresh: take the table
/// out of the registry, remove it from discovery.
void DropLiveTable(const std::string& name, TableRegistry* registry,
                   DiscoveryIndex* discovery) {
  uint64_t version = 0;
  if (registry->Take(name, &version) == nullptr) return;
  discovery->RemoveTable(name, version);
}

}  // namespace

Result<CatalogOpenReport> OpenCatalogInto(
    const std::string& dir, TableRegistry* registry, SessionDict* dict,
    DiscoveryIndex* discovery, const DiscoveryOptions& discovery_options,
    CatalogState* state, const CatalogOpenRequest& request) {
  Stopwatch watch;
  CatalogOpenReport report;
  const bool refresh = request.mode == CatalogOpenMode::kRefresh;

  // Read CURRENT and (for replicas) pin its generation under the shared
  // lock: the writer's GC takes the exclusive lock, so it can never retire
  // a generation between our CURRENT read and the pin landing.
  uint64_t gen = 0;
  std::string pin_path;
  {
    LAKEFUZZ_ASSIGN_OR_RETURN(CatalogLock lock, CatalogLock::Shared(dir));
    LAKEFUZZ_RETURN_IF_ERROR(ReadCurrent(dir, &gen));
    if (request.pin_path != nullptr) {
      LAKEFUZZ_ASSIGN_OR_RETURN(pin_path, CreatePinFile(dir, gen));
    }
  }
  PinGuard pin_guard(pin_path);
  report.generation = gen;

  // Refresh fast path: the engine already mirrors this generation.
  if (refresh && state->valid() && state->dir == dir &&
      state->generation == gen) {
    report.tables_kept = state->tables_by_name.size();
    if (request.pin_path != nullptr) *request.pin_path = pin_path;
    pin_guard.Release();
    report.seconds = watch.ElapsedSeconds();
    return report;
  }

  std::string manifest_bytes;
  LAKEFUZZ_RETURN_IF_ERROR(ReadFileBytes(
      JoinPath(dir, CatalogManifestFileName(gen)), &manifest_bytes));
  Manifest m;
  LAKEFUZZ_RETURN_IF_ERROR(
      ParseManifest(manifest_bytes, &discovery_options, &m));
  if (m.generation != gen) {
    return Status::IoError(StrFormat(
        "catalog manifest records generation %llu but CURRENT points at "
        "%llu",
        static_cast<unsigned long long>(m.generation),
        static_cast<unsigned long long>(gen)));
  }

  // Map and verify every segment BEFORE touching any engine structure: a
  // corrupt catalog degrades to a cold rebuild with a typed error; it never
  // half-loads.
  LAKEFUZZ_ASSIGN_OR_RETURN(
      MappedFile values_seg,
      MappedFile::Open(JoinPath(
          dir, CatalogSegmentFileName(kCatalogValuesStem, m.base))));
  LAKEFUZZ_ASSIGN_OR_RETURN(
      MappedFile hashes_seg,
      MappedFile::Open(JoinPath(
          dir, CatalogSegmentFileName(kCatalogHashesStem, m.base))));
  LAKEFUZZ_ASSIGN_OR_RETURN(
      MappedFile tables_seg,
      MappedFile::Open(JoinPath(
          dir, CatalogSegmentFileName(kCatalogTablesStem, m.base))));
  LAKEFUZZ_ASSIGN_OR_RETURN(
      MappedFile sketches_seg,
      MappedFile::Open(JoinPath(
          dir, CatalogSegmentFileName(kCatalogSketchesStem, m.base))));
  LAKEFUZZ_RETURN_IF_ERROR(VerifySegment(values_seg, m.values, "values"));
  LAKEFUZZ_RETURN_IF_ERROR(VerifySegment(hashes_seg, m.hashes, "hashes"));
  LAKEFUZZ_RETURN_IF_ERROR(VerifySegment(tables_seg, m.tables, "tables"));
  LAKEFUZZ_RETURN_IF_ERROR(
      VerifySegment(sketches_seg, m.sketches, "sketches"));
  if (m.hashes.size != m.value_count * sizeof(uint64_t)) {
    return Status::IoError(
        "catalog hash segment size does not match the dictionary count");
  }
  for (const MappedFile* f :
       {&values_seg, &hashes_seg, &tables_seg, &sketches_seg}) {
    if (f->mapped()) report.mapped_bytes += f->size();
  }

  // Dict replay in file-code order. The persisted hash side table is the
  // point: values re-enter the session dictionary without a single
  // re-hash (the hashes are read straight out of the mapping), and the
  // file→session code remap is identity on a fresh engine. A refreshing
  // replica whose dict already mirrors the committed prefix of the same
  // segment base replays only the delta — O(new values), not O(values).
  LAKEFUZZ_FAULT_POINT("catalog/read");
  const bool delta_replay =
      refresh && state->valid() && state->dir == dir &&
      state->base == m.base && state->codes_identical &&
      m.value_count >= state->values_persisted &&
      dict->NumDistinct() == state->values_persisted;
  std::vector<uint32_t> remap(static_cast<size_t>(m.value_count) + 1, 0);
  bool identical = true;
  uint64_t first = 1;
  uint64_t values_off = 0;
  if (delta_replay) {
    for (uint64_t i = 1; i <= state->values_persisted; ++i) {
      remap[static_cast<size_t>(i)] = static_cast<uint32_t>(i);
    }
    first = state->values_persisted + 1;
    values_off = state->values.size;
  }
  ByteReader vr(values_seg.data() + values_off,
                static_cast<size_t>(m.values.size - values_off));
  for (uint64_t i = first; i <= m.value_count; ++i) {
    Value v;
    LAKEFUZZ_RETURN_IF_ERROR(ReadValue(&vr, &v));
    uint64_t hash;
    std::memcpy(&hash, hashes_seg.data() + (i - 1) * sizeof(uint64_t),
                sizeof(hash));
    const uint32_t code = dict->RestoreValue(std::move(v), hash);
    remap[static_cast<size_t>(i)] = code;
    identical = identical && code == i;
  }
  report.values_loaded = m.value_count - (first - 1);

  // Stage every table that needs (re)loading before committing any: a
  // corrupt block aborts the whole open with the registry untouched.
  // kOpen: live tables win over the persisted snapshot. kRefresh: the
  // catalog wins — unchanged fingerprints keep the live table, changed
  // ones are staged for replacement.
  std::vector<StagedTable> staged;
  staged.reserve(m.entries.size());
  std::set<std::string> manifest_names;
  for (const ManifestEntry& e : m.entries) {
    manifest_names.insert(e.name);
    const bool live = registry->Get(e.name).ok();
    if (live) {
      if (!refresh) {
        ++report.tables_kept;
        continue;
      }
      auto it = state->tables_by_name.find(e.name);
      if (it != state->tables_by_name.end() &&
          it->second.fingerprint == e.state.fingerprint) {
        ++report.tables_kept;
        continue;
      }
    }
    LAKEFUZZ_FAULT_POINT("catalog/read");
    StagedTable st;
    st.replaces_live = live;
    LAKEFUZZ_RETURN_IF_ERROR(
        ParseTableBlock(tables_seg, e, m.value_count, remap, &st));
    LAKEFUZZ_RETURN_IF_ERROR(
        ParseSketchBlock(sketches_seg, e, discovery_options, &st));
    staged.push_back(std::move(st));
  }
  // Refresh: live tables the new manifest no longer lists are dropped at
  // commit — the replica must mirror the generation, not accrete history.
  std::vector<std::string> vanished;
  if (refresh) {
    for (const auto& [name, ts] : state->tables_by_name) {
      if (manifest_names.count(name) == 0 && registry->Get(name).ok()) {
        vanished.push_back(name);
      }
    }
  }

  // Commit: replace/register the records and insert the pre-built
  // sketches + band keys — zero columns re-sketched for an unchanged lake.
  for (StagedTable& st : staged) {
    if (st.replaces_live) {
      DropLiveTable(st.table->name, registry, discovery);
      ++report.tables_replaced;
    }
    uint64_t version = 0;
    Status registered =
        registry->Register(st.table->name, st.table, &version);
    if (!registered.ok()) {
      ++report.tables_kept;  // raced by a concurrent registration
      continue;
    }
    discovery->LoadTable(st.table->name, st.table, std::move(st.sketches),
                         st.band_keys, version);
    ++report.tables_loaded;
  }
  for (const std::string& name : vanished) {
    DropLiveTable(name, registry, discovery);
    ++report.tables_dropped;
  }

  state->dir = dir;
  state->generation = gen;
  state->base = m.base;
  state->codes_identical = delta_replay ? true : identical;
  state->values_persisted = m.value_count;
  state->values = m.values;
  state->hashes = m.hashes;
  state->tables = m.tables;
  state->sketches = m.sketches;
  state->tables_by_name.clear();
  for (ManifestEntry& e : m.entries) {
    state->tables_by_name[e.name] = e.state;
  }
  if (request.pin_path != nullptr) *request.pin_path = pin_path;
  pin_guard.Release();
  report.seconds = watch.ElapsedSeconds();
  return report;
}

}  // namespace lakefuzz
