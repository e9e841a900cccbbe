#include "storage/db_env.h"

#include <vector>

#include "storage/page_crc.h"

namespace dm {

Result<std::unique_ptr<DbEnv>> DbEnv::Open(const std::string& path,
                                           const DbOptions& options) {
  if (!options.async_backend.empty() && options.async_backend != "off") {
    return Status::InvalidArgument("async_backend '" + options.async_backend +
                                   "' is not supported: reads are synchronous");
  }
  DM_ASSIGN_OR_RETURN(
      auto disk,
      DiskManager::Open(path, options.page_size, options.truncate));
  if (!options.truncate && disk->num_pages() > 0) {
    // Version gate: classify page 0's trailer byte before any pool
    // fetch, so a store written by a different on-disk format version
    // fails with a VersionMismatch naming both versions instead of a
    // per-page Corruption deep inside the first query (DESIGN.md §15).
    std::vector<uint8_t> page0(options.page_size);
    DM_RETURN_NOT_OK(disk->ReadPage(0, page0.data()));
    DM_RETURN_NOT_OK(CheckStoreFormatVersion(page0.data(), options.page_size));
  }
  std::unique_ptr<FaultInjectingDevice> fault;
  PageDevice* device = disk.get();
  if (options.enable_fault_injection) {
    fault = std::make_unique<FaultInjectingDevice>(disk.get());
    device = fault.get();
  }
  auto pool = std::make_unique<BufferPool>(device, options.pool_pages,
                                           options.pool_shards);
  return std::unique_ptr<DbEnv>(new DbEnv(
      std::move(disk), std::move(fault), std::move(pool), options));
}

}  // namespace dm
