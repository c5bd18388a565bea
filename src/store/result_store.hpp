// Keyed, versioned, crash-safe on-disk result store.
//
// Backs `csense_bench --checkpoint` and the testbed ensemble cache:
// expensive deterministic units of work (scenario results, campaign
// replications, testbed ensembles) persist under a string key as they
// complete, and a restarted run loads completed units instead of
// recomputing them.
//
// Guarantees:
//  - Atomic visibility: a record is written to `<file>.tmp` and renamed
//    into place, so readers only ever see a complete rename or nothing.
//    (Rename gives consistency, not durability: a power cut may lose a
//    recent record, never corrupt the store silently.)
//  - Self-validation: every record carries a magic line, the store's
//    schema version, its own key, the payload byte count and an FNV-1a
//    checksum. Truncated, bit-flipped or misplaced records fail
//    validation on load.
//  - Quarantine-then-recompute: a record that fails validation is moved
//    to `<root>/quarantine/` (never deleted, never trusted) and load()
//    reports a miss, so the caller transparently recomputes. A record
//    with a different schema version is merely stale: it reads as a
//    miss and is overwritten by the recompute.
//
// Thread safety: concurrent load/put on *distinct* keys is safe
// (distinct files, atomic counters). Concurrent access to one key is
// the caller's responsibility — the campaign layer's per-replication
// keys satisfy this by construction.
//
// The filesystem mutation points (temp-file write, rename) are
// injectable through fs_hooks so fault-injection tests can simulate
// torn writes, truncated files, bit flips and crashes between shards
// without touching production code paths.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace csense::store {

/// FNV-1a 64-bit content hash (record checksums, key -> filename).
std::uint64_t fnv1a64(std::string_view data) noexcept;

/// Test-only filesystem shim over the store's two mutation points.
/// Default-constructed hooks perform the real operation; tests swap in
/// faulty implementations (write half the bytes, skip the rename, ...).
struct fs_hooks {
    /// Writes `data` to `path`, truncating. Returns false on failure.
    std::function<bool(const std::filesystem::path& path,
                       std::string_view data)>
        write_file;
    /// Renames `from` onto `to` (atomic within a filesystem). Returning
    /// false simulates a crash between the temp write and the rename.
    std::function<bool(const std::filesystem::path& from,
                       const std::filesystem::path& to)>
        rename_file;
};

/// Monotonic operation counters (snapshot; see result_store::stats).
struct store_stats {
    std::uint64_t hits = 0;          ///< valid record loaded
    std::uint64_t misses = 0;        ///< no record / stale schema
    std::uint64_t writes = 0;        ///< records stored
    std::uint64_t write_failures = 0;
    std::uint64_t quarantined = 0;   ///< corrupt records moved aside
};

class result_store {
public:
    /// Opens (creating if needed) the store rooted at `root`. Records
    /// validate against `schema_version` (e.g. "csense-testbed/1"):
    /// bump it whenever the payload semantics change and every old
    /// record becomes a clean miss. Throws std::runtime_error when the
    /// root cannot be created.
    explicit result_store(std::filesystem::path root,
                          std::string schema_version,
                          fs_hooks hooks = {});

    /// Loads the payload stored under `key`. Corrupt records are
    /// quarantined and read as a miss; stale-schema records read as a
    /// miss in place.
    std::optional<std::string> load(std::string_view key);

    /// Stores `payload` under `key` (overwriting) via temp-file +
    /// rename. Returns false when either filesystem step fails.
    bool put(std::string_view key, std::string_view payload);

    /// Removes the record for `key` if present.
    void erase(std::string_view key);

    /// The record file a key maps to (sanitized key + key hash).
    std::filesystem::path path_for(std::string_view key) const;

    const std::filesystem::path& root() const noexcept { return root_; }
    std::filesystem::path quarantine_dir() const;
    store_stats stats() const noexcept;

private:
    bool quarantine(const std::filesystem::path& file);

    std::filesystem::path root_;
    std::string schema_version_;
    fs_hooks hooks_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> writes_{0};
    std::atomic<std::uint64_t> write_failures_{0};
    std::atomic<std::uint64_t> quarantined_{0};
};

/// Exact round-trip codec for fixed-width double payloads (shortest
/// round-trip std::to_chars text, one value per field): the encode ->
/// store -> decode path must reproduce bit-identical doubles or a
/// resumed campaign would diverge from an uninterrupted one.
std::string encode_doubles(const double* values, std::size_t count);

/// Decodes exactly `count` doubles; false on any mismatch.
bool decode_doubles(std::string_view payload, double* values,
                    std::size_t count);

}  // namespace csense::store
