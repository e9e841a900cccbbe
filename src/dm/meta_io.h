#ifndef DIRECTMESH_DM_META_IO_H_
#define DIRECTMESH_DM_META_IO_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "dm/dm_store.h"

namespace dm {

/// A parsed `<base>.meta` sidecar file: the DmMeta needed to reopen the
/// database, plus optional build-time extras.
struct LoadedDmMeta {
  DmMeta meta;
  /// LOD quantiles recorded at build time ((fraction, e) pairs).
  std::vector<std::pair<double, double>> quantiles;
  /// Per-stage build timings (name, wall millis) as recorded by the
  /// `dmctl build` that wrote the meta file; empty for older files.
  std::vector<std::pair<std::string, double>> stages;
};

/// Writes the key=value sidecar `dmctl` and the shard builder share, so
/// every replica file a ShardSet lays down is also a valid `dmctl
/// verify` / `dmctl scrub` target. Unknown keys are ignored on read,
/// which is the format's forward-compatibility rule.
Status SaveDmMeta(
    const std::string& path, const DmMeta& meta,
    const std::vector<std::pair<double, double>>& quantiles = {},
    const std::vector<std::pair<std::string, double>>& stages = {});

/// Parses a sidecar written by SaveDmMeta. A `codec=` value goes
/// through ParseDmCodec, so the retired per-record codec (1) is
/// NotSupported and any other unknown value is Corruption. The
/// parent-reach table is one
/// `reach=h,d` line per breakpoint; a malformed, negative, non-finite
/// or non-monotone entry is Corruption, and a file without any opens
/// with an empty table (no bounded fetch).
Result<LoadedDmMeta> LoadDmMeta(const std::string& path);

}  // namespace dm

#endif  // DIRECTMESH_DM_META_IO_H_
