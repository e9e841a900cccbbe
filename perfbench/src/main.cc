// dm_perfbench: runs one benchmark workload and writes its raw samples
// and counters as JSON for run.py, which computes the reported metrics.
//
//   dm_perfbench --workload paper_cold|serve_warm|ingest --seed N
//                --seconds S --trace 0|1 --work DIR --report FILE
//                [--spans FILE]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace {

void WriteArray(std::FILE* f, const std::vector<double>& v) {
  std::fputc('[', f);
  for (size_t i = 0; i < v.size(); ++i) {
    std::fprintf(f, i == 0 ? "%.9g" : ",%.9g", v[i]);
  }
  std::fputc(']', f);
}

void WriteString(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (char c : s) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', f);
      std::fputc(c, f);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(f, "\\u%04x", c);
    } else {
      std::fputc(c, f);
    }
  }
  std::fputc('"', f);
}

void WriteMap(std::FILE* f, const std::map<std::string, double>& m) {
  std::fputc('{', f);
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) std::fputc(',', f);
    first = false;
    WriteString(f, k);
    std::fprintf(f, ":%.9g", v);
  }
  std::fputc('}', f);
}

bool WriteReport(const std::string& path, const perfbench::Report& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  auto num = [f](const char* key, double v) {
    std::fprintf(f, "\"%s\":%.9g,\n", key, v);
  };
  auto arr = [f](const char* key, const std::vector<double>& v) {
    std::fprintf(f, "\"%s\":", key);
    WriteArray(f, v);
    std::fputs(",\n", f);
  };
  std::fputs("{\n", f);
  num("nproc", r.nproc);
  num("build_threads", r.build_threads);
  num("clients", r.clients);
  num("service_workers", r.service_workers);
  arr("setup_s", r.setup_s);
  num("warm_s", r.warm_s);
  arr("build_s", r.build_s);
  num("store_bytes", static_cast<double>(r.store_bytes));
  num("points", static_cast<double>(r.points));
  num("peak_rss_mb", r.peak_rss_mb);
  num("queries", static_cast<double>(r.queries));
  num("query_wall_s", r.query_wall_s);
  arr("latency_ms", r.latency_ms);
  num("page_fetches", static_cast<double>(r.page_fetches));
  num("disk_reads", static_cast<double>(r.disk_reads));
  num("attempted", static_cast<double>(r.attempted));
  num("failed", static_cast<double>(r.failed));
  num("traced_queries", static_cast<double>(r.traced_queries));
  num("traced_wall_s", r.traced_wall_s);
  arr("queue_ms", r.queue_ms);
  arr("exec_ms", r.exec_ms);
  std::fputs("\"kind_median_vertices\":", f);
  WriteMap(f, r.kind_median_vertices);
  std::fputs(",\n\"layer\":", f);
  WriteMap(f, r.layer);
  std::fputs(",\n\"errors\":[", f);
  for (size_t i = 0; i < r.errors.size(); ++i) {
    if (i > 0) std::fputc(',', f);
    WriteString(f, r.errors[i]);
  }
  std::fputs("]\n}\n", f);
  return std::fclose(f) == 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: dm_perfbench --workload paper_cold|serve_warm|ingest "
               "--seed N --seconds S --trace 0|1 --work DIR --report FILE "
               "[--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  for (const char* key : {"workload", "seed", "seconds", "trace", "work",
                          "report"}) {
    if (args.count(key) == 0) return Usage();
  }
  perfbench::RunOptions opt;
  opt.workload = args["workload"];
  opt.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  opt.seconds = std::strtod(args["seconds"].c_str(), nullptr);
  opt.trace = args["trace"] == "1";
  opt.work_dir = args["work"];
  std::filesystem::create_directories(opt.work_dir);

  perfbench::Report report;
  report.nproc = static_cast<int>(std::thread::hardware_concurrency());
  dm::Status st;
  if (opt.workload == "paper_cold") {
    st = perfbench::RunPaperCold(opt, &report);
  } else if (opt.workload == "serve_warm") {
    st = perfbench::RunServeWarm(opt, &report);
  } else if (opt.workload == "ingest") {
    st = perfbench::RunIngest(opt, &report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return Usage();
  }
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", opt.workload.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  if (!WriteReport(args["report"], report)) {
    std::fprintf(stderr, "cannot write %s\n", args["report"].c_str());
    return 1;
  }
  if (args.count("spans") != 0) {
    st = perfbench::Tracer::Get().WriteTsv(args["spans"]);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
