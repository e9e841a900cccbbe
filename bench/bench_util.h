#ifndef DIRECTMESH_BENCH_BENCH_UTIL_H_
#define DIRECTMESH_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "workload/bench_context.h"

namespace dm::bench {

/// Minimal ordered JSON emitter for machine-readable bench artifacts
/// (BENCH_*.json at the repo root). Output shape:
///
///   {"bench": "<name>", "metrics": {"<metric>": <number>, ...}}
///
/// Metrics keep insertion order; non-finite values are emitted as
/// `null` so the file always parses as strict JSON.
class BenchJsonWriter {
 public:
  explicit BenchJsonWriter(std::string bench) : bench_(std::move(bench)) {}

  void Add(const std::string& name, double value) {
    metrics_.emplace_back(name, Value{value, "", false});
  }
  /// String-valued metric (host names, dataset labels, git revisions);
  /// emitted as a JSON string with full escaping.
  void Add(const std::string& name, const std::string& value) {
    metrics_.emplace_back(name, Value{0.0, value, true});
  }

  std::string ToJson() const {
    std::string out;
    out.append("{\"bench\": \"");
    out.append(Escaped(bench_));
    out.append("\", \"metrics\": {");
    bool first = true;
    for (const auto& [name, value] : metrics_) {
      if (!first) out += ", ";
      first = false;
      out.append("\"");
      out.append(Escaped(name));
      out.append("\": ");
      if (value.is_string) {
        out.append("\"");
        out.append(Escaped(value.str));
        out.append("\"");
      } else if (std::isfinite(value.num)) {
        char buf[64];
        // Integral metrics (byte counts, disk reads, query counts)
        // must round-trip exactly: %.6g would render cache_bytes
        // 67108864 as 6.71089e+07. Any whole number in the
        // exactly-representable double range is emitted as an integer
        // literal; true fractions keep the compact %.6g form.
        if (value.num == std::floor(value.num) &&
            std::fabs(value.num) < 9007199254740992.0 /* 2^53 */) {
          std::snprintf(buf, sizeof(buf), "%lld",
                        static_cast<long long>(value.num));
        } else {
          std::snprintf(buf, sizeof(buf), "%.6g", value.num);
        }
        out += buf;
      } else {
        out += "null";
      }
    }
    out += "}}\n";
    return out;
  }

  /// Writes the JSON document to `path`; returns false (and logs) on
  /// I/O failure.
  bool WriteFile(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "[bench] cannot open %s for writing\n",
                   path.c_str());
      return false;
    }
    const std::string doc = ToJson();
    const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
    std::fclose(f);
    if (ok) std::fprintf(stderr, "[bench] wrote %s\n", path.c_str());
    return ok;
  }

 private:
  struct Value {
    double num = 0.0;
    std::string str;
    bool is_string = false;
  };

  /// Escapes `"`, `\`, and the control range (U+0000..U+001F) per RFC
  /// 8259, so any byte sequence round-trips as a strict-JSON string.
  static std::string Escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      const auto u = static_cast<unsigned char>(c);
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (u < 0x20) {
        switch (c) {
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default: {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", u);
            out += buf;
          }
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  std::string bench_;
  std::vector<std::pair<std::string, Value>> metrics_;
};

/// Console reporter that additionally mirrors every finished run's
/// user counters into a BenchJsonWriter, metric names
/// "<benchmark name>/<counter>" plus "<benchmark name>/real_time".
/// Lets the ablation binaries keep their google-benchmark console
/// tables while also emitting a machine-readable BENCH_*.json for the
/// regression gate.
class JsonCounterReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCounterReporter(BenchJsonWriter* writer) : writer_(writer) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      const std::string base = run.benchmark_name();
      writer_->Add(base + "/real_time", run.GetAdjustedRealTime());
      for (const auto& [name, counter] : run.counters) {
        writer_->Add(base + "/" + name, static_cast<double>(counter.value));
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  BenchJsonWriter* writer_;
};

/// Shared main body of the ablation binaries: run the registered
/// benchmarks through a JsonCounterReporter and write
/// BENCH_<name>.json in the working directory. Returns the process
/// exit code.
inline int AblationMain(int argc, char** argv, const std::string& name) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  BenchJsonWriter writer(name);
  JsonCounterReporter reporter(&writer);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return writer.WriteFile("BENCH_" + name + ".json") ? 0 : 1;
}

/// Number of random query locations averaged per data point (the paper
/// uses 20); override with DM_BENCH_LOCATIONS for quick runs.
inline int QueryLocations() {
  const char* v = std::getenv("DM_BENCH_LOCATIONS");
  const int n = v != nullptr ? std::atoi(v) : 20;
  return n > 0 ? n : 20;
}

/// Lazily built, process-wide contexts for the two paper datasets.
inline BenchContext& GetContext(bool crater) {
  static std::unique_ptr<BenchContext> small;
  static std::unique_ptr<BenchContext> big;
  auto& slot = crater ? big : small;
  if (!slot) {
    const DatasetSpec spec =
        crater ? CraterDatasetSpec() : SmallDatasetSpec();
    std::fprintf(stderr, "[bench] preparing dataset '%s' (%d x %d)...\n",
                 spec.name.c_str(), spec.side, spec.side);
    auto ctx_or = BenchContext::Create(BenchDataDir(), spec);
    if (!ctx_or.ok()) {
      std::fprintf(stderr, "dataset build failed: %s\n",
                   ctx_or.status().ToString().c_str());
      std::abort();
    }
    slot = std::make_unique<BenchContext>(std::move(ctx_or).value());
    std::fprintf(stderr,
                 "[bench] '%s' ready: %lld points, %lld PM nodes, "
                 "max LOD %.3f\n",
                 spec.name.c_str(),
                 static_cast<long long>(slot->dataset().num_leaves),
                 static_cast<long long>(slot->dataset().num_nodes),
                 slot->dataset().max_lod);
  }
  return *slot;
}

/// Collects the series so each binary can end by printing the figure
/// the same way the paper plots it: one row per x value, one column
/// per method.
class FigureTable {
 public:
  /// `key` is the short machine-readable id ("fig6a") used for JSON
  /// metric names; figures constructed without one are skipped by
  /// AppendJson.
  explicit FigureTable(std::string title, std::string key = "")
      : title_(std::move(title)), key_(std::move(key)) {}

  void Add(double x, Method m, double da) { rows_[x][m] = da; }

  /// Appends every cell as "<key>/x_<x>/<method>" -> DA.
  void AppendJson(BenchJsonWriter* writer) const {
    if (key_.empty()) return;
    for (const auto& [x, cols] : rows_) {
      char xbuf[32];
      std::snprintf(xbuf, sizeof(xbuf), "%g", x);
      for (const auto& [m, da] : cols) {
        writer->Add(key_ + "/x_" + xbuf + "/" + MethodName(m), da);
      }
    }
  }

  void Print() const {
    std::printf("\n=== %s ===\n", title_.c_str());
    std::printf("%10s", "x");
    for (Method m : kColumns) {
      bool any = false;
      for (const auto& [x, cols] : rows_) any |= cols.count(m) > 0;
      if (any) std::printf("%12s", MethodName(m));
    }
    std::printf("\n");
    for (const auto& [x, cols] : rows_) {
      std::printf("%10.3f", x);
      for (Method m : kColumns) {
        bool any = false;
        for (const auto& [x2, cols2] : rows_) any |= cols2.count(m) > 0;
        if (!any) continue;
        auto it = cols.find(m);
        if (it != cols.end()) {
          std::printf("%12.1f", it->second);
        } else {
          std::printf("%12s", "-");
        }
      }
      std::printf("\n");
    }
  }

 private:
  static constexpr Method kColumns[] = {Method::kDmSingleBase,
                                        Method::kDmMultiBase,
                                        Method::kDmBounded, Method::kPm,
                                        Method::kHdov};

  std::string title_;
  std::string key_;
  std::map<double, std::map<Method, double>> rows_;
};

/// Shared registry of figures to print after the benchmark run.
inline std::vector<FigureTable>& Figures() {
  static std::vector<FigureTable> figures;
  return figures;
}

inline void PrintAllFigures() {
  for (const auto& fig : Figures()) fig.Print();
}

/// Dumps every keyed figure in the registry into one BENCH_*.json
/// document named `bench_name` at `path`.
inline void WriteFiguresJson(const std::string& bench_name,
                             const std::string& path) {
  BenchJsonWriter writer(bench_name);
  for (const auto& fig : Figures()) fig.AppendJson(&writer);
  writer.WriteFile(path);
}

}  // namespace dm::bench

#endif  // DIRECTMESH_BENCH_BENCH_UTIL_H_
