// Durable lake catalog: persist session state, restart warm, serve replicas.
//
// Everything a LakeEngine session derives from its lake — the interned
// ValueDict (values + content hashes), per-table column code spans, and the
// discovery index's MinHash sketches, profiles, and LSH band keys — dies
// with the process, so every restart re-reads, re-interns, and re-sketches
// the whole lake. The catalog is that state on disk, in a directory of
// append-only segments plus generation-numbered manifests:
//
//   values.<base>.seg    dict entries in code order (type tag + payload)
//   hashes.<base>.seg    the 64-bit content hash per code (HashOf side table)
//   tables.<base>.seg    per-table blocks: schema + per-column uint32 code rows
//   sketches.<base>.seg  per-column profile + MinHash signature + LSH band keys
//   manifest.<gen>.lfc   magic, format version, generation, segment base,
//                        discovery params, segment sizes/checksums, and
//                        per-table entries (name, content fingerprint, extents)
//   CURRENT              the commit pointer: the generation readers open
//   CURRENT.lock         stable flock target fencing commits, reads, and GC
//   pin.<gen>.<pid>.<seq>  a reader's claim that generation <gen> must survive
//
// Every SaveCatalog commits a new generation: segments are written (full
// rewrite, under a fresh <base> = <gen>) or appended (incremental, same
// <base>), then `manifest.<gen>.lfc` and finally `CURRENT` go through the
// temp-file + fsync + rename commit. The CURRENT rename is the single commit
// point — a crash anywhere before it leaves the previous generation exactly
// as it was, because a committed generation's extents are immutable: full
// rewrites allocate a new base instead of truncating files an older manifest
// references, incremental checkpoints only append past the committed prefix,
// and every checksum covers exactly the logical prefix its manifest records.
//
// Readers (OpenCatalogInto, LakeEngine::OpenReplica) take a shared flock on
// CURRENT.lock, read CURRENT, and optionally drop a pin file for that
// generation before releasing the lock. The writer garbage-collects old
// generations under the exclusive lock after each commit, keeping the newest
// `retain_generations` plus any generation a live process has pinned (pins
// whose pid is dead are swept). CURRENT itself is replaced by rename on
// every commit and flock binds to the inode, hence the stable sibling lock.
//
// A reopened engine replays the dict with the persisted hashes (no value
// re-hashing), rebuilds each table's record (fd/session_dict.h
// EncodedTable) from its block's fields and remapped codes — no cell is
// decoded and no row is materialized — and inserts pre-built sketches,
// re-sketching 0 columns for an unchanged lake. Corruption never
// crashes: a truncated, bit-flipped, or version-skewed file fails
// OpenCatalogInto with a typed kIoError / kInvalidArgument before any
// engine structure is touched, and the caller rebuilds cold.
// LAKEFUZZ_FAULT_POINT seams "catalog/read", "catalog/write",
// "catalog/fsync", "catalog/rename", and "catalog/mmap" wire the IO paths
// into the chaos harness, and LAKEFUZZ_CRASH_POINT (see fault_injection.h)
// turns any of them into a process kill for the recovery harness.
#ifndef LAKEFUZZ_CATALOG_CATALOG_H_
#define LAKEFUZZ_CATALOG_CATALOG_H_

#include <cstdint>
#include <map>
#include <string>

#include "core/engine_registry.h"
#include "discovery/discovery.h"
#include "fd/session_dict.h"
#include "util/hash.h"
#include "util/result.h"

namespace lakefuzz {

// ------------------------------------------------------------- file format
// Public so tests can craft precise corruption (bad magic with a fixed-up
// checksum, version skew, truncation at exact boundaries, torn CURRENT).

inline constexpr const char* kCatalogCurrentFile = "CURRENT";
/// flock target for commit/read/GC fencing. CURRENT is replaced by rename on
/// every commit and flock binds to the inode, so the lock needs a sibling
/// file that is never renamed.
inline constexpr const char* kCatalogLockFile = "CURRENT.lock";

inline constexpr const char* kCatalogValuesStem = "values";
inline constexpr const char* kCatalogHashesStem = "hashes";
inline constexpr const char* kCatalogTablesStem = "tables";
inline constexpr const char* kCatalogSketchesStem = "sketches";

/// "manifest.<gen>.lfc"
std::string CatalogManifestFileName(uint64_t generation);
/// "<stem>.<base>.seg" — base is the generation of the last full rewrite;
/// incremental checkpoints append to the same base files.
std::string CatalogSegmentFileName(const char* stem, uint64_t base);
/// "pin.<gen>.<pid>.<seq>" — a live reader's retention claim on <gen>.
std::string CatalogPinFileName(uint64_t generation, int64_t pid, uint64_t seq);

/// First 8 manifest bytes. Followed by format version (u32) and an
/// endianness probe (u32 = kCatalogEndianCheck as written by the producer).
inline constexpr char kCatalogMagic[8] = {'L', 'F', 'C', 'A',
                                          'T', 'L', 'G', '1'};
/// v2 added generation numbers, segment bases, and the CURRENT pointer.
inline constexpr uint32_t kCatalogFormatVersion = 2;
inline constexpr uint32_t kCatalogEndianCheck = 0x01020304u;

/// Default for the retention knob: how many committed generations a save
/// keeps on disk (pinned generations always survive in addition).
inline constexpr size_t kCatalogDefaultRetainGenerations = 2;

// ------------------------------------------------------------ engine state

/// What the engine remembers about the directory it last opened or saved,
/// enabling incremental checkpoints and replica refreshes. Invalidated
/// (full rewrite on next save) whenever the session's code assignment
/// diverged from the file's.
struct CatalogState {
  struct Segment {
    uint64_t size = 0;  ///< committed logical size (files may be longer)
    /// Streaming FNV-1a over the logical prefix; an empty prefix holds the
    /// FNV basis, so a full rewrite extends an empty Segment like an append.
    uint64_t checksum = Fnv1a64(nullptr, 0);
  };
  struct TableState {
    uint64_t fingerprint = 0;  ///< content hash (schema + cell hashes)
    uint64_t rows = 0;
    uint32_t cols = 0;
    uint64_t table_off = 0, table_size = 0;    ///< extent in tables.<base>.seg
    uint64_t sketch_off = 0, sketch_size = 0;  ///< extent in sketches.<base>.seg
  };

  std::string dir;  ///< empty = no catalog association yet
  /// The committed generation this state mirrors (0 = none yet).
  uint64_t generation = 0;
  /// Segment base the generation's extents live in (gen of last full rewrite).
  uint64_t base = 0;
  /// File code i == session code i for all persisted codes. Required for
  /// appending dict entries and reusing table blocks (their code rows are
  /// file codes). False after opening into a non-fresh dictionary.
  bool codes_identical = false;
  /// Dict codes 1..values_persisted are on disk.
  uint64_t values_persisted = 0;
  Segment values, hashes, tables, sketches;
  /// Ordered by name — the manifest serialization order, so manifests are
  /// byte-deterministic for a given lake.
  std::map<std::string, TableState> tables_by_name;

  bool valid() const { return !dir.empty(); }
};

/// One OpenCatalog / RefreshReplica outcome (accumulated into CatalogStats).
struct CatalogOpenReport {
  uint64_t generation = 0;   ///< the committed generation that was opened
  size_t tables_loaded = 0;  ///< reconstructed + registered from the catalog
  size_t tables_kept = 0;    ///< names already live and current (skipped)
  size_t tables_replaced = 0;  ///< refresh: live tables superseded on disk
  size_t tables_dropped = 0;   ///< refresh: live tables gone from the manifest
  uint64_t values_loaded = 0;
  /// Columns that had to be re-sketched. 0 for an unchanged lake — the
  /// round-trip acceptance gate.
  size_t columns_resketched = 0;
  /// Bytes of segment data served via mmap during the load.
  uint64_t mapped_bytes = 0;
  double seconds = 0.0;
};

/// One SaveCatalog outcome.
struct CatalogSaveReport {
  uint64_t generation = 0;  ///< the generation this save committed
  uint64_t base = 0;        ///< segment base the generation's extents live in
  bool incremental = false;
  size_t tables_written = 0;
  size_t tables_reused = 0;  ///< unchanged fingerprint, extents reused
  /// Manifest files garbage-collected after the commit (their orphaned
  /// segment bases go with them).
  size_t generations_removed = 0;
  uint64_t values_appended = 0;
  uint64_t bytes_written = 0;
  /// Columns sketched during the save because the discovery index had no
  /// current sketch for them (engine was never synced, e.g. lazy mode).
  size_t columns_resketched = 0;
  double seconds = 0.0;
};

/// Engine-lifetime catalog counters (LakeEngine::catalog_stats()).
struct CatalogStats {
  uint64_t opens = 0;
  uint64_t open_failures = 0;  ///< typed failures that degraded to rebuild
  uint64_t saves = 0;
  uint64_t refreshes = 0;  ///< replica refreshes that loaded a new generation
  uint64_t generation = 0;  ///< last committed/observed generation
  uint64_t generations_removed = 0;  ///< retired by retention GC
  uint64_t tables_loaded = 0;
  uint64_t tables_written = 0;
  uint64_t tables_reused = 0;
  uint64_t values_loaded = 0;
  uint64_t values_appended = 0;
  uint64_t columns_resketched = 0;
  uint64_t mmap_bytes = 0;  ///< segment bytes mapped by the last open
  uint64_t bytes_written = 0;
};

// -------------------------------------------------------------- operations

/// Content fingerprint of a registered table: schema (field names + types),
/// row count, and the per-cell content hash sequence (`dict`.HashOf of the
/// record's codes — order-sensitive, null = 0). Independent of code
/// numbering, so writer and reader agree across sessions. This is what
/// keys "rebuild only tables whose content changed".
uint64_t CatalogTableFingerprint(const EncodedTable& table,
                                 const ValueDict& dict);

/// How OpenCatalogInto reconciles the manifest with tables already live in
/// the registry.
enum class CatalogOpenMode {
  /// Initial open: live tables win; manifest entries whose name is already
  /// registered are skipped (counted in tables_kept).
  kOpen,
  /// Replica refresh: the catalog wins. Live tables whose fingerprint
  /// changed on disk are replaced, tables that vanished from the manifest
  /// are dropped, unchanged tables are kept without reload.
  kRefresh,
};

struct CatalogOpenRequest {
  CatalogOpenMode mode = CatalogOpenMode::kOpen;
  /// When non-null, a generation pin file is created for the opened
  /// generation (under the shared CURRENT lock, so GC can never race it
  /// away) and its path is returned here. The caller owns the pin: remove
  /// the file to release the generation. Replica fencing uses this.
  std::string* pin_path = nullptr;
};

/// The committed generation at `dir` (reads CURRENT under a shared lock).
/// kIoError when the directory holds no committed catalog or CURRENT is
/// torn. Cheap — replicas poll this to detect new generations.
Result<uint64_t> CatalogCurrentGeneration(const std::string& dir);

/// Loads the committed generation at `dir` into the engine structures. The
/// entire generation is validated (CURRENT, manifest header, version,
/// discovery params, per-segment checksums, block bounds) and parsed into
/// staging buffers BEFORE any table is registered, so a corrupt catalog
/// returns its typed error with the registry and discovery index untouched
/// (the dictionary may have interned the catalog's values — harmless, it
/// only grows). On success `state` records the directory and
/// generation for incremental saves / refreshes. `discovery_options` must
/// match the persisted sketch parameters (signature size, banding, seed) or
/// the open fails with kInvalidArgument — signatures from a different
/// family are garbage.
Result<CatalogOpenReport> OpenCatalogInto(const std::string& dir,
                                          TableRegistry* registry,
                                          SessionDict* dict,
                                          DiscoveryIndex* discovery,
                                          const DiscoveryOptions& discovery_options,
                                          CatalogState* state,
                                          const CatalogOpenRequest& request = {});

/// Persists the engine's current lake to `dir` (created if missing) as a
/// new generation, then garbage-collects generations beyond
/// `retain_generations` that no live reader has pinned. Incremental when
/// `state` matches the committed generation and the on-disk segments still
/// have the committed sizes: new dict entries and changed tables append to
/// the same segment base, unchanged tables reuse their extents. Otherwise a
/// full rewrite under a fresh base — segment files a prior generation
/// references are never modified. The CURRENT rename is the commit point.
/// The caller must have the discovery index synced to the registry if it
/// wants sketches persisted without re-sketching (LakeEngine::SaveCatalog
/// does).
Result<CatalogSaveReport> SaveCatalogFrom(
    const std::string& dir, TableRegistry* registry, const SessionDict* dict,
    DiscoveryIndex* discovery, const DiscoveryOptions& discovery_options,
    CatalogState* state,
    size_t retain_generations = kCatalogDefaultRetainGenerations);

}  // namespace lakefuzz

#endif  // LAKEFUZZ_CATALOG_CATALOG_H_
