// The three benchmark workloads (README.md, "Workloads"). Each fills a
// Report with raw samples and counters; run.py turns them into the
// reported metrics.
#ifndef DIRECTMESH_PERFBENCH_WORKLOADS_H_
#define DIRECTMESH_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for DEM files and stores (emptied by the caller).
  std::string work_dir;
};

struct Report {
  // Host and fixed thread counts.
  int nproc = 0;
  int build_threads = 0;
  int clients = 0;         // closed-loop outstanding requests (0: serial)
  int service_workers = 0;  // QueryService workers (0: not used)

  std::vector<double> setup_s;  // one per set-up repetition
  double warm_s = 0.0;          // untimed warm-up pass, part of set-up
  std::vector<double> build_s;  // one per store build
  int64_t store_bytes = 0;
  int64_t points = 0;
  double peak_rss_mb = 0.0;

  // Timed phase (untraced queries only in a traced run).
  int64_t queries = 0;
  double query_wall_s = 0.0;
  std::vector<double> latency_ms;
  int64_t page_fetches = 0;
  int64_t disk_reads = 0;

  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  // failed checks, first few
  std::map<std::string, double> kind_median_vertices;

  // Traced run only.
  int64_t traced_queries = 0;
  double traced_wall_s = 0.0;
  std::vector<double> queue_ms;  // QueryService queue wait per query
  std::vector<double> exec_ms;   // QueryService execution per query
  std::map<std::string, double> layer;  // per-layer counts and ratios

  void Fail(const std::string& what);
};

dm::Status RunPaperCold(const RunOptions& opt, Report* report);
dm::Status RunServeWarm(const RunOptions& opt, Report* report);
dm::Status RunIngest(const RunOptions& opt, Report* report);

}  // namespace perfbench

#endif  // DIRECTMESH_PERFBENCH_WORKLOADS_H_
