#include "storage/db_env.h"

#include <cstdlib>
#include <vector>

#include "storage/page_crc.h"

namespace dm {

namespace {
// "" defers to the DM_ASYNC_BACKEND environment variable so every
// existing tool and test can be swept across backends without a flag;
// unset means off (seed behavior).
std::string ResolveAsyncBackend(const std::string& opt) {
  if (!opt.empty()) return opt;
  const char* env = std::getenv("DM_ASYNC_BACKEND");
  return env != nullptr ? std::string(env) : std::string("off");
}
}  // namespace

Result<std::unique_ptr<DbEnv>> DbEnv::Open(const std::string& path,
                                           const DbOptions& options) {
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
  auto env = std::unique_ptr<DbEnv>(new DbEnv(
      std::move(disk), std::move(fault), std::move(pool), options));
  env->EnableAsync(ResolveAsyncBackend(options.async_backend));
  return env;
}

const char* DbEnv::EnableAsync(const std::string& backend) {
  pool_->set_async_device(nullptr);  // drains prefetch, unbinds
  async_.reset();
  if (backend == "off" || backend.empty()) return "off";
  async_ = CreateAsyncPageDevice(read_chain(), backend);
  pool_->set_async_device(async_.get());
  return async_->backend_name();
}

}  // namespace dm
