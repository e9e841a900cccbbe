// dmctl — command-line front end for Direct Mesh terrain databases.
//
//   dmctl build --out <base> [--dem file.asc | --synthetic fractal|crater]
//               [--side N] [--seed S] [--codec flat|group] [--threads T]
//   dmctl info  --db <base>
//   dmctl verify --db <base> [--max-violations N]
//   dmctl query --db <base> --roi x0,y0,x1,y1 (--lod E | --keep FRAC)
//               [--obj out.obj] [--ppm out.ppm]
//   dmctl view  --db <base> --roi x0,y0,x1,y1 --emin E --emax E
//               [--single] [--obj out.obj] [--ppm out.ppm]
//
// `<base>` names two files: `<base>.db` (pages) and `<base>.meta`
// (catalog). ROI coordinates are in DEM grid units; `--keep` picks the
// LOD whose uniform cut retains that fraction of the points.

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "dem/crater.h"
#include "dem/dem_io.h"
#include "dem/fractal.h"
#include "dm/dm_query.h"
#include "dm/dm_store.h"
#include "dm/invariants.h"
#include "dm/meta_io.h"
#include "mesh/obj_io.h"
#include "mesh/render.h"
#include "pm/pm_tree.h"
#include "server/query_service.h"
#include "simplify/simplifier.h"
#include "storage/buffer_pool.h"
#include "storage/db_env.h"
#include "storage/page_crc.h"

namespace dm {
namespace {

// Strict number parsing: the whole value must parse and fit, so
// `--keep 0.5abc`, `--side 12x`, `--keep ""` and an overflowing int are
// usage errors rather than silently truncated.
bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  if (*end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

bool ParseInt(const std::string& text, int64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  bool Has(const std::string& key) const { return flags.count(key) > 0; }
  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  // Values were checked by CheckFlags before any command ran.
  double GetDouble(const std::string& key, double fallback) const {
    double v = fallback;
    if (Has(key)) ParseDouble(flags.at(key), &v);
    return v;
  }
  int64_t GetInt(const std::string& key, int64_t fallback) const {
    int64_t v = fallback;
    if (Has(key)) ParseInt(flags.at(key), &v);
    return v;
  }
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  if (argc > 1) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      args.flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && !(argv[i + 1][0] == '-' &&
                                  argv[i + 1][1] == '-')) {
      // Anything but another flag is this flag's value, so negative
      // numbers (`--keep -1`, `--emin -5`) reach their flag.
      args.flags[arg] = argv[++i];
    } else {
      args.flags[arg] = "1";
    }
  }
  return args;
}

// The flags each subcommand reads, with the kind of value each takes.
// A flag outside its command's list, or a number that does not parse,
// is a usage error before any work starts.
enum class FlagKind { kText, kInt, kDouble };
using FlagSpec = std::map<std::string, FlagKind>;

const FlagSpec* FlagsOf(const std::string& command) {
  using K = FlagKind;
  // Every command that opens a store reads these (see Open).
  const FlagSpec open = {{"db", K::kText}, {"shards", K::kInt},
                         {"cache-mb", K::kInt}};
  const FlagSpec workload = {{"read-latency-us", K::kInt},
                             {"queries", K::kInt},
                             {"seed", K::kInt},
                             {"roi-pct", K::kDouble},
                             {"persp-pct", K::kInt},
                             {"mb-pct", K::kInt}};
  auto with = [](FlagSpec base, const FlagSpec& more) {
    base.insert(more.begin(), more.end());
    return base;
  };
  static const std::map<std::string, FlagSpec> kCommands = {
      {"build", {{"out", K::kText},
                 {"dem", K::kText},
                 {"synthetic", K::kText},
                 {"side", K::kInt},
                 {"seed", K::kInt},
                 {"codec", K::kText},
                 {"compress", K::kText},
                 {"threads", K::kInt}}},
      {"info", open},
      {"verify", with(open, {{"max-violations", K::kInt}})},
      {"scrub", {{"db", K::kText},
                 {"json", K::kText},
                 {"max-violations", K::kInt}}},
      {"query", with(open, {{"roi", K::kText},
                            {"lod", K::kDouble},
                            {"keep", K::kDouble},
                            {"obj", K::kText},
                            {"ppm", K::kText}})},
      {"view", with(open, {{"roi", K::kText},
                           {"emin", K::kDouble},
                           {"emax", K::kDouble},
                           {"single", K::kText},
                           {"obj", K::kText},
                           {"ppm", K::kText}})},
      {"cache-stats", with(open, workload)},
      {"io-stats", with(open, workload)},
  };
  const auto it = kCommands.find(command);
  return it == kCommands.end() ? nullptr : &it->second;
}

Status CheckFlags(const Args& args, const FlagSpec& spec) {
  for (const auto& [name, value] : args.flags) {
    const auto it = spec.find(name);
    if (it == spec.end()) {
      return Status::InvalidArgument("unknown flag --" + name + " for dmctl " +
                                     args.command);
    }
    double d = 0.0;
    int64_t i = 0;
    if ((it->second == FlagKind::kDouble && !ParseDouble(value, &d)) ||
        (it->second == FlagKind::kInt && !ParseInt(value, &i))) {
      return Status::InvalidArgument("bad value for --" + name + ": '" +
                                     value + "'");
    }
  }
  return Status::OK();
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  dmctl build --out BASE [--dem FILE.asc | --synthetic "
      "fractal|crater] [--side N] [--seed S] "
      "[--codec flat|group] [--threads T]\n"
      "  dmctl info  --db BASE\n"
      "  dmctl verify --db BASE [--max-violations N]\n"
      "  dmctl scrub --db BASE [--json] [--max-violations N]\n"
      "  dmctl query --db BASE --roi x0,y0,x1,y1 (--lod E | --keep F) "
      "[--obj OUT] [--ppm OUT]\n"
      "  dmctl view  --db BASE --roi x0,y0,x1,y1 --emin E --emax E "
      "[--single] [--obj OUT] [--ppm OUT]\n"
      "  dmctl cache-stats --db BASE [--cache-mb MB] [--queries N] "
      "[--roi-pct P] [--seed S] [--read-latency-us N]\n"
      "  dmctl io-stats --db BASE [--queries N] [--roi-pct P] [--seed S] "
      "[--read-latency-us N]\n");
  return 2;
}

Result<Rect> ParseRoi(const std::string& spec) {
  Rect roi;
  char c;
  std::stringstream ss(spec);
  if (!(ss >> roi.lo_x >> c >> roi.lo_y >> c >> roi.hi_x >> c >>
        roi.hi_y) ||
      roi.empty()) {
    return Status::InvalidArgument("bad --roi, expected x0,y0,x1,y1");
  }
  return roi;
}

Status ExportResult(const Args& args, const DmQueryResult& r) {
  if (args.Has("obj")) {
    DM_RETURN_NOT_OK(
        WriteObj(r.vertices, r.positions, r.triangles, args.Get("obj")));
    std::printf("wrote %s\n", args.Get("obj").c_str());
  }
  if (args.Has("ppm")) {
    DM_RETURN_NOT_OK(RenderHillshade(r.vertices, r.positions, r.triangles,
                                     args.Get("ppm")));
    std::printf("wrote %s\n", args.Get("ppm").c_str());
  }
  return Status::OK();
}

// ---- commands ------------------------------------------------------

Status RunBuild(const Args& args) {
  const std::string base = args.Get("out");
  if (base.empty()) return Status::InvalidArgument("--out required");
  DmStoreOptions options;
  // Group blocks are the default; --codec flat selects the paper's
  // fixed-width records. Checked before any terrain work.
  if (args.Has("compress")) {
    return Status::InvalidArgument(
        "--compress (the per-record codec) is retired; use --codec flat|group");
  }
  const std::string codec_name = args.Get("codec", "group");
  if (codec_name == "flat") {
    options.codec = DmCodec::kFlat;
  } else if (codec_name == "group") {
    options.codec = DmCodec::kGroup;
  } else {
    return Status::InvalidArgument("unknown --codec " + codec_name +
                                   " (want flat or group)");
  }
  const int threads =
      EffectiveThreads(static_cast<int>(args.GetInt("threads", 1)));

  // Per-stage wall-clock bookkeeping: every finished stage prints one
  // progress line immediately, so long builds aren't silent.
  double total_millis = 0.0;
  auto print_stage = [&](const char* name, double millis) {
    total_millis += millis;
    std::printf("[build] %-17s %9.1f ms\n", name, millis);
    std::fflush(stdout);
  };
  auto clock = std::chrono::steady_clock::now();
  auto stage_done = [&](const char* name) {
    print_stage(name, std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - clock)
                          .count());
    clock = std::chrono::steady_clock::now();
  };

  DemGrid dem;
  if (args.Has("dem")) {
    DM_ASSIGN_OR_RETURN(dem, ReadEsriAsciiGrid(args.Get("dem")));
  } else if (args.Get("synthetic", "fractal") == "crater") {
    CraterParams p;
    p.side = static_cast<int>(args.GetInt("side", 257));
    p.seed = static_cast<uint64_t>(args.GetInt("seed", 4242));
    dem = GenerateCraterDem(p);
  } else {
    FractalParams p;
    p.side = static_cast<int>(args.GetInt("side", 257));
    p.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
    dem = GenerateFractalDem(p);
  }
  std::printf("terrain: %d x %d samples, %d thread%s\n", dem.width(),
              dem.height(), threads, threads == 1 ? "" : "s");
  stage_done("dem");

  const TriangleMesh mesh = TriangulateDem(dem);
  stage_done("triangulate");

  SimplifyOptions simplify_options;
  simplify_options.threads = threads;
  const SimplifyResult sr = SimplifyMesh(mesh, simplify_options);
  stage_done("simplify");
  DM_ASSIGN_OR_RETURN(const PmTree tree, PmTree::Build(mesh, sr));
  stage_done("pm-tree");

  DM_ASSIGN_OR_RETURN(auto env, DbEnv::Open(base + ".db", {}));
  options.threads = threads;
  DmBuildTimings timings;
  options.timings = &timings;
  DM_ASSIGN_OR_RETURN(const DmStore store,
                      DmStore::Build(env.get(), mesh, tree, sr, options));
  // Build times its own stages.
  print_stage("connection-lists", timings.conn_millis);
  print_stage("str-order", timings.str_millis);
  print_stage("encode", timings.encode_millis);
  print_stage("heap-append", timings.append_millis);
  print_stage("rtree-pack", timings.bulkload_millis);
  print_stage("catalog", timings.catalog_millis);

  // LOD quantiles for --keep.
  std::vector<std::pair<double, double>> quantiles;
  for (double f : {1.0, 0.75, 0.5, 0.25, 0.1, 0.05, 0.02, 0.01, 0.005}) {
    quantiles.emplace_back(f, tree.LodForCutFraction(f));
  }
  DM_RETURN_NOT_OK(SaveDmMeta(base + ".meta", store.meta(), quantiles));
  std::printf("built %s.db (%lld nodes, max LOD %.4g, %s codec) in %.1f ms\n",
              base.c_str(), static_cast<long long>(store.meta().num_nodes),
              store.meta().max_lod, DmCodecName(store.meta().codec),
              total_millis);
  return Status::OK();
}

struct OpenDb {
  std::unique_ptr<DbEnv> env;
  std::unique_ptr<DmStore> store;
  LoadedDmMeta lm;
};

Result<OpenDb> Open(const Args& args) {
  const std::string base = args.Get("db");
  if (base.empty()) return Status::InvalidArgument("--db required");
  OpenDb db;
  DM_ASSIGN_OR_RETURN(db.lm, LoadDmMeta(base + ".meta"));
  DbOptions options;
  options.truncate = false;
  // Paper-exact single shard unless --shards overrides.
  options.pool_shards = static_cast<uint32_t>(args.GetInt("shards", 1));
  // Decoded-node cache, off by default (paper-exact disk accounting);
  // any command accepts --cache-mb to turn it on.
  options.node_cache_bytes =
      static_cast<size_t>(args.GetInt("cache-mb", 0)) * (1u << 20);
  DM_ASSIGN_OR_RETURN(db.env, DbEnv::Open(base + ".db", options));
  DM_ASSIGN_OR_RETURN(DmStore store, DmStore::Open(db.env.get(), db.lm.meta));
  db.store = std::make_unique<DmStore>(std::move(store));
  return db;
}

Status RunInfo(const Args& args) {
  DM_ASSIGN_OR_RETURN(OpenDb db, Open(args));
  const DmMeta& m = db.lm.meta;
  std::printf("nodes:       %lld (%lld terrain points)\n",
              static_cast<long long>(m.num_nodes),
              static_cast<long long>(m.num_leaves));
  std::printf("bounds:      %s\n", m.bounds.ToString().c_str());
  std::printf("max LOD:     %.6g\n", m.max_lod);
  std::printf("codec:       %s\n", DmCodecName(m.codec));
  std::printf("heap pages:  %lld\n",
              static_cast<long long>(db.store->heap().num_pages()));
  if (m.num_nodes > 0) {
    const double bpn =
        static_cast<double>(db.store->heap().num_pages()) *
        static_cast<double>(db.env->options().page_size) /
        static_cast<double>(m.num_nodes);
    std::printf("bytes/node:  %.1f (%.1f records per %u B page)\n", bpn,
                static_cast<double>(m.num_nodes) /
                    std::max<double>(1.0, static_cast<double>(
                                              db.store->heap().num_pages())),
                db.env->options().page_size);
  }
  std::printf("index nodes: %zu\n",
              db.store->cost_catalog().stats().nodes.size());
  std::printf("LOD ladder (fraction of points kept -> e):\n");
  for (const auto& [f, e] : db.lm.quantiles) {
    std::printf("  %6.1f%% -> %.6g\n", f * 100, e);
  }
  return Status::OK();
}

Status RunVerify(const Args& args) {
  DM_ASSIGN_OR_RETURN(OpenDb db, Open(args));
  InvariantOptions options;
  options.max_violations_per_invariant = args.GetInt("max-violations", 16);
  DM_ASSIGN_OR_RETURN(const InvariantReport report,
                      VerifyDmStore(*db.store, options));
  std::printf("%s\n", report.ToString().c_str());
  if (!report.ok()) {
    if (report.violations.empty()) {
      return Status::Corruption("invariant violations (all suppressed)");
    }
    return Status::Corruption("invariant violation: [" +
                              report.violations.front().invariant + "] " +
                              report.violations.front().detail);
  }
  return Status::OK();
}

// Offline integrity audit (DESIGN.md §11/§16): verifies the CRC32C
// trailer of every physical page, decodes every heap record, then
// cross-checks the structural invariants. The sweep covers EVERY page
// (a chaos harness wants the full damage taxonomy, not the first bad
// page), and the exit code is a stable damage class the chaos CI job
// keys on:
//
//   0  clean
//   1  operational error (cannot open/read the store infrastructure)
//   2  usage error
//   3  page damage (CRC trailer mismatch or raw read error)
//   4  record damage (undecodable records or catalog count mismatch)
//   5  invariant violation (structurally inconsistent store)
//
// With --json, one machine-readable summary line goes to stdout: the
// per-phase counters plus a capped per-page damage list.
struct ScrubDamage {
  PageId page = 0;
  const char* kind = "";  // "read" | "checksum" | "decode"
};

int ScrubExitOf(const Status& st) {
  return st.code() == StatusCode::kInvalidArgument ? 2 : 1;
}

void PrintScrubJson(const char* status, int exit_code, int64_t pages,
                    int64_t read_bad, int64_t checksum_bad, int64_t records,
                    int64_t decode_bad, int64_t catalog_records,
                    int64_t invariant_violations,
                    const std::vector<ScrubDamage>& damage,
                    int64_t damage_total) {
  std::printf("{\"command\": \"scrub\", \"status\": \"%s\", "
              "\"exit_code\": %d, \"pages\": %lld, "
              "\"read_failed_pages\": %lld, \"checksum_bad_pages\": %lld, "
              "\"records_decoded\": %lld, \"decode_bad_records\": %lld, "
              "\"catalog_records\": %lld, \"invariant_violations\": %lld, "
              "\"damage_total\": %lld, \"damage\": [",
              status, exit_code, static_cast<long long>(pages),
              static_cast<long long>(read_bad),
              static_cast<long long>(checksum_bad),
              static_cast<long long>(records),
              static_cast<long long>(decode_bad),
              static_cast<long long>(catalog_records),
              static_cast<long long>(invariant_violations),
              static_cast<long long>(damage_total));
  for (size_t i = 0; i < damage.size(); ++i) {
    std::printf("%s{\"page\": %lld, \"kind\": \"%s\"}", i == 0 ? "" : ", ",
                static_cast<long long>(damage[i].page), damage[i].kind);
  }
  std::printf("]}\n");
}

int RunScrub(const Args& args) {
  const bool json = args.Has("json");
  constexpr size_t kMaxDamageListed = 64;
  // Open only the meta file and the raw environment up front: the full
  // store open reads index pages through the checksum layer, so on a
  // damaged file it would fail before the sweep could take inventory.
  const std::string base = args.Get("db");
  LoadedDmMeta lm;
  std::unique_ptr<DbEnv> env;
  {
    Status open_st = Status::OK();
    if (base.empty()) {
      open_st = Status::InvalidArgument("--db required");
    } else {
      auto lm_or = LoadDmMeta(base + ".meta");
      if (!lm_or.ok()) {
        open_st = lm_or.status();
      } else {
        lm = std::move(lm_or).value();
        DbOptions options;
        options.truncate = false;
        auto env_or = DbEnv::Open(base + ".db", options);
        if (!env_or.ok()) {
          open_st = env_or.status();
        } else {
          env = std::move(env_or).value();
        }
      }
    }
    if (!open_st.ok()) {
      const int code = ScrubExitOf(open_st);
      if (json) {
        PrintScrubJson(code == 2 ? "usage" : "error", code, 0, 0, 0, 0, 0,
                       0, 0, {}, 0);
      }
      std::fprintf(stderr, "error: %s\n", open_st.ToString().c_str());
      return code;
    }
  }

  // Phase 1: raw page sweep, straight through the disk manager so the
  // buffer pool cannot hide a bad page behind a cached copy.
  DiskManager& disk = env->disk();
  const uint32_t physical = disk.page_size();
  const PageId pages = disk.num_pages();
  std::vector<uint8_t> buf(physical);
  std::vector<ScrubDamage> damage;
  int64_t read_bad = 0;
  int64_t checksum_bad = 0;
  for (PageId id = 0; id < pages; ++id) {
    const char* kind = nullptr;
    if (!disk.ReadPage(id, buf.data()).ok()) {
      ++read_bad;
      kind = "read";
    } else if (!VerifyPageTrailer(buf.data(), physical, id).ok()) {
      ++checksum_bad;
      kind = "checksum";
    }
    if (kind != nullptr && damage.size() < kMaxDamageListed) {
      damage.push_back({id, kind});
    }
  }
  if (read_bad + checksum_bad > 0) {
    // Damaged pages: the heap scan and the invariant audit would read
    // the same bytes through the pool and fail on the same pages, so
    // the later phases are skipped — the page taxonomy IS the report.
    if (json) {
      PrintScrubJson("page-damage", 3, pages, read_bad, checksum_bad, 0, 0,
                     lm.meta.num_nodes, 0, damage,
                     read_bad + checksum_bad);
    } else {
      std::fprintf(stderr,
                   "scrub: %lld of %lld pages damaged (%lld read failures, "
                   "%lld checksum mismatches), first bad page %lld\n",
                   static_cast<long long>(read_bad + checksum_bad),
                   static_cast<long long>(pages),
                   static_cast<long long>(read_bad),
                   static_cast<long long>(checksum_bad),
                   static_cast<long long>(damage.front().page));
    }
    return 3;
  }
  if (!json) {
    std::printf("scrub: %lld pages checksum-clean\n",
                static_cast<long long>(pages));
  }

  // Pages are clean: now the full store can open safely. A clean file
  // that still refuses to open is structurally inconsistent (a bad
  // root pointer, a foreign format) — the invariant damage class.
  std::unique_ptr<DmStore> store;
  {
    auto store_or = DmStore::Open(env.get(), lm.meta);
    if (!store_or.ok()) {
      if (json) {
        PrintScrubJson("invariant-damage", 5, pages, 0, 0, 0, 0,
                       lm.meta.num_nodes, 1, damage, 1);
      }
      std::fprintf(stderr, "error: store open failed on clean pages: %s\n",
                   store_or.status().ToString().c_str());
      return 5;
    }
    store = std::make_unique<DmStore>(std::move(store_or).value());
  }

  // Phase 2: decode every node record (a page can be checksum-clean
  // yet hold a record a buggy writer truncated). The scan keeps going
  // past bad records to count them all.
  const DmCodec codec = lm.meta.codec;
  int64_t records = 0;
  int64_t decode_bad = 0;
  const Status scan_st = store->heap().Scan(
      [&](RecordId rid, const uint8_t* data, uint32_t len) {
        const Result<DmNode> node = DecodeDmRecord(codec, rid.slot, data, len);
        if (!node.ok()) {
          ++decode_bad;
          if (damage.size() < kMaxDamageListed) {
            damage.push_back({rid.page, "decode"});
          }
          return true;
        }
        ++records;
        return true;
      });
  if (!scan_st.ok()) {
    if (json) {
      PrintScrubJson("error", 1, pages, 0, 0, records, decode_bad,
                     lm.meta.num_nodes, 0, damage, decode_bad);
    }
    std::fprintf(stderr, "error: heap scan failed: %s\n",
                 scan_st.ToString().c_str());
    return 1;
  }
  if (decode_bad > 0 || records != lm.meta.num_nodes) {
    if (json) {
      PrintScrubJson("record-damage", 4, pages, 0, 0, records, decode_bad,
                     lm.meta.num_nodes, 0, damage, decode_bad);
    } else {
      std::fprintf(stderr,
                   "scrub: %lld records undecodable; %lld decoded vs %lld "
                   "in the catalog\n",
                   static_cast<long long>(decode_bad),
                   static_cast<long long>(records),
                   static_cast<long long>(lm.meta.num_nodes));
    }
    return 4;
  }
  if (!json) {
    std::printf("scrub: %lld records decode cleanly\n",
                static_cast<long long>(records));
  }

  // Phase 3: structural invariants across heap + index + tree shape.
  InvariantOptions options;
  options.max_violations_per_invariant = args.GetInt("max-violations", 16);
  auto report_or = VerifyDmStore(*store, options);
  if (!report_or.ok()) {
    if (json) {
      PrintScrubJson("error", 1, pages, 0, 0, records, 0,
                     lm.meta.num_nodes, 0, damage, 0);
    }
    std::fprintf(stderr, "error: invariant audit failed: %s\n",
                 report_or.status().ToString().c_str());
    return 1;
  }
  const InvariantReport& report = report_or.value();
  const int64_t violations =
      static_cast<int64_t>(report.violations.size()) + report.suppressed;
  if (!report.ok()) {
    if (json) {
      PrintScrubJson("invariant-damage", 5, pages, 0, 0, records, 0,
                     lm.meta.num_nodes, violations, damage, violations);
    } else {
      std::fprintf(stderr, "scrub: invariant violations\n%s\n",
                   report.ToString().c_str());
    }
    return 5;
  }
  if (json) {
    PrintScrubJson("clean", 0, pages, 0, 0, records, 0,
                   lm.meta.num_nodes, 0, {}, 0);
  } else {
    std::printf("scrub: invariants hold (%s)\n", report.ToString().c_str());
    std::printf("scrub: clean\n");
  }
  return 0;
}

Result<double> LodFromArgs(const Args& args, const LoadedDmMeta& lm) {
  if (args.Has("lod")) return args.GetDouble("lod", 0.0);
  const double keep = args.GetDouble("keep", 0.1);
  if (!(keep >= 0.0 && keep <= 1.0)) {  // also rejects NaN
    return Status::InvalidArgument("--keep " + args.Get("keep") +
                                   " is not a fraction in [0, 1]");
  }
  // Nearest quantile at or below the requested fraction.
  double e = 0.0;
  for (const auto& [f, q] : lm.quantiles) {
    e = q;
    if (f <= keep) break;
  }
  return e;
}

Status RunQuery(const Args& args) {
  DM_ASSIGN_OR_RETURN(OpenDb db, Open(args));
  DM_ASSIGN_OR_RETURN(const Rect roi, ParseRoi(args.Get("roi")));
  DM_ASSIGN_OR_RETURN(const double e, LodFromArgs(args, db.lm));

  DM_RETURN_NOT_OK(db.env->FlushAll());
  DmQueryProcessor proc(db.store.get());
  DM_ASSIGN_OR_RETURN(const DmQueryResult r,
                      proc.ViewpointIndependent(roi, e));
  std::printf(
      "e=%.6g vertices=%zu triangles=%zu disk_accesses=%lld "
      "(index %lld) cpu=%.2fms\n",
      e, r.vertices.size(), r.triangles.size(),
      static_cast<long long>(r.stats.disk_accesses),
      static_cast<long long>(r.stats.index_io), r.stats.cpu_millis);
  return ExportResult(args, r);
}

Status RunView(const Args& args) {
  DM_ASSIGN_OR_RETURN(OpenDb db, Open(args));
  DM_ASSIGN_OR_RETURN(const Rect roi, ParseRoi(args.Get("roi")));
  ViewQuery q;
  q.roi = roi;
  q.e_min = args.GetDouble("emin", 0.0);
  // Default far-plane LOD: the quantile keeping ~5% of the points
  // (raw e values are skewed, so a fraction of max would be useless).
  double far_default = db.lm.meta.max_lod * 0.2;
  for (const auto& [f, e] : db.lm.quantiles) {
    if (f <= 0.05) {
      far_default = e;
      break;
    }
  }
  q.e_max = args.GetDouble("emax", far_default);

  DM_RETURN_NOT_OK(db.env->FlushAll());
  DmQueryProcessor proc(db.store.get());
  DmQueryResult r;
  if (args.Has("single")) {
    DM_ASSIGN_OR_RETURN(r, proc.SingleBase(q));
  } else {
    DM_ASSIGN_OR_RETURN(r, proc.MultiBase(q));
  }
  std::printf(
      "%s e=[%.4g, %.4g] vertices=%zu triangles=%zu cubes=%lld "
      "disk_accesses=%lld cpu=%.2fms\n",
      args.Has("single") ? "single-base" : "multi-base", q.e_min, q.e_max,
      r.vertices.size(), r.triangles.size(),
      static_cast<long long>(r.stats.range_queries),
      static_cast<long long>(r.stats.disk_accesses), r.stats.cpu_millis);
  return ExportResult(args, r);
}

// Replays a deterministic query batch twice over a node-cache-enabled
// store and reports decoded-node-cache and buffer-pool counters for
// the cold and warm passes. The warm pass shows the steady-state hit
// rate and how many disk reads the cache absorbs.
Status RunCacheStats(const Args& args) {
  Args open_args = args;
  if (!open_args.Has("cache-mb")) open_args.flags["cache-mb"] = "64";
  DM_ASSIGN_OR_RETURN(OpenDb db, Open(open_args));
  if (db.store->node_cache() == nullptr) {
    return Status::InvalidArgument("--cache-mb must be > 0");
  }
  db.env->disk().set_simulated_read_latency_micros(
      static_cast<uint32_t>(args.GetInt("read-latency-us", 0)));
  // As in io-stats: empty the pool and zero its counters, so the cold
  // pass's buffer-pool deltas describe the queries, not Open()'s
  // catalog scan.
  DM_RETURN_NOT_OK(db.env->FlushAll());
  db.env->ResetStats();

  const int count = static_cast<int>(args.GetInt("queries", 64));
  if (count <= 0) return Status::InvalidArgument("--queries must be > 0");
  const DmMeta& meta = db.lm.meta;
  const std::vector<QueryRequest> workload = MakeMixedWorkload(
      meta.bounds, meta.max_lod, count,
      static_cast<uint64_t>(args.GetInt("seed", 12345)),
      args.GetDouble("roi-pct", 10.0) / 100.0,
      static_cast<int>(args.GetInt("persp-pct", 40)),
      static_cast<int>(args.GetInt("mb-pct", 25)));

  NodeCacheStats prev_cache;
  IoStats prev_io;
  DmStoreSource source(db.store.get());
  for (const char* pass : {"cold", "warm"}) {
    DM_ASSIGN_OR_RETURN(const ThroughputReport r,
                        RunThroughput(&source, workload, 1));
    const NodeCacheStats c = db.store->node_cache_stats();
    const IoStats io = db.env->stats();
    const int64_t hits = c.hits - prev_cache.hits;
    const int64_t misses = c.misses - prev_cache.misses;
    const double hit_rate =
        hits + misses > 0
            ? 100.0 * static_cast<double>(hits) /
                  static_cast<double>(hits + misses)
            : 0.0;
    std::printf("%s pass: %lld queries, %.1f q/s\n", pass,
                static_cast<long long>(r.queries), r.qps);
    std::printf(
        "  node cache:  hits=%lld misses=%lld (%.1f%% hit) "
        "resident=%lld entries, %.2f of %.0f MiB\n",
        static_cast<long long>(hits), static_cast<long long>(misses),
        hit_rate, static_cast<long long>(c.entries),
        static_cast<double>(c.bytes) / (1u << 20),
        static_cast<double>(db.store->node_cache()->capacity_bytes()) /
            (1u << 20));
    std::printf(
        "  buffer pool: fetches=%lld disk_reads=%lld evictions=%lld\n",
        static_cast<long long>(io.logical_fetches - prev_io.logical_fetches),
        static_cast<long long>(io.disk_reads - prev_io.disk_reads),
        static_cast<long long>(io.evictions - prev_io.evictions));
    prev_cache = c;
    prev_io = io;
  }
  return Status::OK();
}

// Replays a deterministic query batch twice (cold, warm) and reports
// the buffer-pool I/O counters and the page-run histogram of the
// batched read path (DESIGN.md §13) for each pass — the I/O analogue
// of cache-stats.
Status RunIoStats(const Args& args) {
  DM_ASSIGN_OR_RETURN(OpenDb db, Open(args));
  db.env->disk().set_simulated_read_latency_micros(
      static_cast<uint32_t>(args.GetInt("read-latency-us", 0)));
  // Open() itself faulted the catalog and index extents in; empty the
  // pool and zero its counters so the cold pass demand-fetches every
  // page it needs and the counters below describe the queries, not
  // Open().
  DM_RETURN_NOT_OK(db.env->FlushAll());
  db.env->ResetStats();

  const int count = static_cast<int>(args.GetInt("queries", 64));
  if (count <= 0) return Status::InvalidArgument("--queries must be > 0");
  const DmMeta& meta = db.lm.meta;
  const std::vector<QueryRequest> workload = MakeMixedWorkload(
      meta.bounds, meta.max_lod, count,
      static_cast<uint64_t>(args.GetInt("seed", 12345)),
      args.GetDouble("roi-pct", 10.0) / 100.0,
      static_cast<int>(args.GetInt("persp-pct", 40)),
      static_cast<int>(args.GetInt("mb-pct", 25)));

  IoStats prev_io;
  DmStoreSource source(db.store.get());
  for (const char* pass : {"cold", "warm"}) {
    DM_ASSIGN_OR_RETURN(const ThroughputReport r,
                        RunThroughput(&source, workload, 1));
    const IoStats io = db.env->stats();
    std::printf("%s pass: %lld queries, %.1f q/s\n", pass,
                static_cast<long long>(r.queries), r.qps);
    std::printf(
        "  buffer pool: fetches=%lld disk_reads=%lld evictions=%lld "
        "retries=%lld\n",
        static_cast<long long>(io.logical_fetches - prev_io.logical_fetches),
        static_cast<long long>(io.disk_reads - prev_io.disk_reads),
        static_cast<long long>(io.evictions - prev_io.evictions),
        static_cast<long long>(io.io_retries - prev_io.io_retries));
    const int64_t runs = io.fetch_runs - prev_io.fetch_runs;
    const int64_t run_pages = io.fetch_run_pages - prev_io.fetch_run_pages;
    std::printf(
        "  page runs:   runs=%lld pages=%lld (%.2f pages/run) "
        "lengths 1|2|3-4|5-8|9-16|17+ =",
        static_cast<long long>(runs), static_cast<long long>(run_pages),
        runs > 0 ? static_cast<double>(run_pages) / static_cast<double>(runs)
                 : 0.0);
    for (int b = 0; b < IoStats::kRunBuckets; ++b) {
      std::printf(" %lld", static_cast<long long>(io.run_length_hist[b] -
                                                  prev_io.run_length_hist[b]));
    }
    std::printf("\n");
    prev_io = io;
  }
  return Status::OK();
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const FlagSpec* spec = FlagsOf(args.command);
  if (spec == nullptr) return Usage();
  if (const Status flags_st = CheckFlags(args, *spec); !flags_st.ok()) {
    std::fprintf(stderr, "error: %s\n", flags_st.ToString().c_str());
    return Usage();
  }
  Status st;
  if (args.command == "build") {
    st = RunBuild(args);
  } else if (args.command == "info") {
    st = RunInfo(args);
  } else if (args.command == "verify") {
    st = RunVerify(args);
  } else if (args.command == "scrub") {
    // Scrub owns its exit codes (stable damage taxonomy; see RunScrub).
    return RunScrub(args);
  } else if (args.command == "query") {
    st = RunQuery(args);
  } else if (args.command == "view") {
    st = RunView(args);
  } else if (args.command == "cache-stats") {
    st = RunCacheStats(args);
  } else if (args.command == "io-stats") {
    st = RunIoStats(args);
  } else {
    return Usage();
  }
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    // A malformed build request (no --out, unknown codec) or query
    // (non-finite LOD, --keep outside [0, 1], inverted LOD range, empty
    // or non-finite ROI) is a usage error.
    if ((args.command == "build" || args.command == "query" ||
         args.command == "view") &&
        st.code() == StatusCode::kInvalidArgument) {
      return 2;
    }
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dm

int main(int argc, char** argv) { return dm::Main(argc, argv); }
