#ifndef DIRECTMESH_DM_META_IO_H_
#define DIRECTMESH_DM_META_IO_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "dm/dm_store.h"

namespace dm {

/// A parsed `<base>.meta` sidecar file: the DmMeta needed to reopen the
/// database, plus the LOD quantiles recorded at build time.
struct LoadedDmMeta {
  DmMeta meta;
  /// LOD quantiles recorded at build time ((fraction, e) pairs).
  std::vector<std::pair<double, double>> quantiles;
};

/// Writes the key=value sidecar that `dmctl`, `ShardSet::Build` and the
/// bench dataset cache share, so every store any of them lays down is
/// also a valid `dmctl verify` / `dmctl scrub` target. The file
/// describes the store only, so two builds of one store write equal
/// files. Unknown keys are ignored on read (older files' `stage=`
/// timing lines among them), which is the format's
/// forward-compatibility rule.
Status SaveDmMeta(
    const std::string& path, const DmMeta& meta,
    const std::vector<std::pair<double, double>>& quantiles = {});

/// Parses a sidecar written by SaveDmMeta. A `codec=` value goes
/// through ParseDmCodec, so the retired per-record codec (1) is
/// NotSupported and any other unknown value is Corruption. The
/// parent-reach table is one `reach=h,d` line per breakpoint; a
/// malformed, negative, non-finite or non-monotone entry is
/// Corruption, and so is a file without any whose id space
/// (max(num_nodes, id_space)) holds more than one node.
Result<LoadedDmMeta> LoadDmMeta(const std::string& path);

}  // namespace dm

#endif  // DIRECTMESH_DM_META_IO_H_
