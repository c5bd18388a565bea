// The one place the checkpoint-store key scheme of
// `csense_bench --checkpoint` lives. Records outlive the binary that
// wrote them, so a resumed run must rebuild these strings
// byte-for-byte:
//
//   env fingerprint   sorted "K=V;K=V" of every CSENSE_* variable
//                     except CSENSE_THREADS (results are thread-count
//                     invariant by contract)
//   unit fingerprint  "<scenario>?seed=<n>&env=<fp>"
//   scenario record   "scenario/<unit_fp>&repeat=<n>&timings=<0|1>"
//   replication       "shard/<unit_fp>/<campaign-suffix>/rep<i>"
//                     (the campaign suffix, e.g. "/n500", is chosen by
//                     the scenario; replication_prefix() returns the
//                     "shard/<unit_fp>" stem, named after the campaign
//                     layer's shards and kept so existing stores load)
//
// Any change here is a store schema change: bump kBenchStoreSchema so
// old records read as stale misses instead of aliasing.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace csense::store {

/// Schema version every csense_bench checkpoint store validates
/// against. /2: floor-off runs moved to the neighbour-list medium, so
/// records written before must read as stale, not splice into new output.
inline constexpr std::string_view kBenchStoreSchema = "csense-bench/2";

/// Fingerprint of the calling process's own environment: its CSENSE_*
/// entries (except CSENSE_THREADS), sorted, joined with ';'.
std::string current_env_fingerprint();

/// "<scenario>?seed=<n>&env=<fp>" — the run-configuration fingerprint
/// every checkpoint record of one scenario keys on.
std::string scenario_unit_fingerprint(std::string_view scenario_name,
                                      std::uint64_t seed,
                                      std::string_view env_fp);

/// "scenario/<unit_fp>&repeat=<n>&timings=<0|1>" — the key of the
/// completed-scenario JSON record.
std::string scenario_record_key(std::string_view unit_fp, int repeat,
                                bool timings);

/// "shard/<unit_fp>" — the stem campaign replication records hang off.
std::string replication_prefix(std::string_view unit_fp);

}  // namespace csense::store
