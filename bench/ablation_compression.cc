// Ablation of record encoding (the compressed-MTM direction of the
// paper's reference [2], Danovaro et al.): the same Direct Mesh built
// two ways — the paper's flat fixed-width records and the v6
// page-level group codec (frame-of-reference coordinates + shared
// e-value dictionary, DESIGN.md §15) — compared on storage footprint,
// query disk accesses, and decode CPU.
//
// Smaller records mean more records per page, so every query's heap
// portion drops proportionally; the index portion is unchanged. The
// group codec amortizes the coordinate/LOD redundancy across a whole
// page, which is where the 2-4x density comes from.
// Decode cost is measured separately on a warm pool so the I/O savings
// and the CPU price are visible as independent numbers.

#include <benchmark/benchmark.h>

#include "bench_util.h"

#include <chrono>
#include <memory>
#include <vector>

#include "dem/fractal.h"
#include "dm/dm_query.h"
#include "dm/dm_store.h"
#include "pm/pm_tree.h"
#include "simplify/simplifier.h"
#include "workload/bench_context.h"

namespace dm::bench {
namespace {

struct Built {
  std::unique_ptr<DbEnv> env;
  std::unique_ptr<DmStore> store;
  double max_lod = 0.0;
  Rect bounds;
  double decode_ms = 0.0;  // warm full-scan decode time, pool hits only
};

/// Warm decode cost: fetch-and-decode every record with the whole store
/// resident in the buffer pool, so the measurement is pure codec CPU.
double MeasureWarmDecodeMs(DmStore& store) {
  std::vector<uint64_t> rids;
  if (!store.rtree()
           .RangeQuery(Box::Of(-1e30, -1e30, -1e30, 1e30, 1e30, 1e30), &rids)
           .ok()) {
    std::abort();
  }
  // One untimed pass to fault every page in.
  for (uint64_t packed : rids) {
    if (!store.FetchNode(RecordId::Unpack(packed)).ok()) std::abort();
  }
  const auto t0 = std::chrono::steady_clock::now();
  constexpr int kReps = 3;
  for (int rep = 0; rep < kReps; ++rep) {
    for (uint64_t packed : rids) {
      auto node_or = store.FetchNode(RecordId::Unpack(packed));
      if (!node_or.ok()) std::abort();
      benchmark::DoNotOptimize(node_or.value().pos.x);
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count() / kReps;
}

Built BuildVariant(DmCodec codec) {
  FractalParams params;
  params.side = 193;
  params.seed = 42;
  const DemGrid dem = GenerateFractalDem(params);
  const TriangleMesh base = TriangulateDem(dem);
  const SimplifyResult sr = SimplifyMesh(base);
  auto tree_or = PmTree::Build(base, sr);
  if (!tree_or.ok()) std::abort();
  const PmTree& tree = tree_or.value();

  Built b;
  const std::string path =
      BenchDataDir() + "/comp_" + DmCodecName(codec) + ".db";
  b.env = std::move(DbEnv::Open(path, {})).ValueOrDie();
  DmStoreOptions options;
  options.codec = codec;
  auto store_or = DmStore::Build(b.env.get(), base, tree, sr, options);
  if (!store_or.ok()) std::abort();
  b.store = std::make_unique<DmStore>(std::move(store_or).value());
  b.max_lod = tree.max_lod();
  b.bounds = tree.bounds();
  b.decode_ms = MeasureWarmDecodeMs(*b.store);
  return b;
}

/// The store built with `codec`; both variants are built on first use.
Built& Variant(DmCodec codec) {
  static Built flat = BuildVariant(DmCodec::kFlat);
  static Built group = BuildVariant(DmCodec::kGroup);
  return codec == DmCodec::kFlat ? flat : group;
}

// Cold disk-access counts from the flat (Arg(0)) run, filled in before
// the group variant runs — google-benchmark executes registered args
// in order, so Arg(2) can report ratios against them.
double g_flat_da_uniform = 0.0;
double g_flat_da_view = 0.0;

void Compression(benchmark::State& state) {
  // The argument is the persisted codec value, so result keys read
  // Compression/0 (flat) and Compression/2 (group).
  const DmCodec codec = static_cast<DmCodec>(state.range(0));
  Built& b = Variant(codec);
  Built& flat = Variant(DmCodec::kFlat);
  DmQueryProcessor proc(b.store.get());

  // A uniform query at a fine LOD plus a steep view-dependent query,
  // both cold (pool flushed), so disk accesses reflect the layout.
  const Rect roi = Rect::Of(
      b.bounds.lo_x + b.bounds.width() * 0.2,
      b.bounds.lo_y + b.bounds.height() * 0.2,
      b.bounds.lo_x + b.bounds.width() * 0.7,
      b.bounds.lo_y + b.bounds.height() * 0.7);

  for (auto _ : state) {
    if (!b.env->FlushAll().ok()) {
      state.SkipWithError("flush failed");
      return;
    }
    auto uni_or = proc.ViewpointIndependent(roi, 0.0);
    if (!uni_or.ok()) {
      state.SkipWithError(uni_or.status().ToString().c_str());
      return;
    }
    ViewQuery q;
    q.roi = roi;
    q.e_min = 0.0;
    q.e_max = 0.2 * b.max_lod;
    if (!b.env->FlushAll().ok()) {
      state.SkipWithError("flush failed");
      return;
    }
    auto view_or = proc.MultiBase(q);
    if (!view_or.ok()) {
      state.SkipWithError(view_or.status().ToString().c_str());
      return;
    }
    const double pages = static_cast<double>(b.store->heap().num_pages());
    const double da_uniform =
        static_cast<double>(uni_or.value().stats.disk_accesses);
    const double da_view =
        static_cast<double>(view_or.value().stats.disk_accesses);
    state.counters["heap_pages"] = pages;
    state.counters["nodes_per_page"] =
        static_cast<double>(b.store->heap().num_records()) / pages;
    state.counters["DA_uniform"] = da_uniform;
    state.counters["DA_view"] = da_view;
    state.counters["cpu_ms"] = uni_or.value().stats.cpu_millis +
                               view_or.value().stats.cpu_millis;
    state.counters["decode_ms"] = b.decode_ms;
    if (codec == DmCodec::kFlat) {
      g_flat_da_uniform = da_uniform;
      g_flat_da_view = da_view;
    } else {
      // Headline ratios vs the flat baseline, consumed by
      // check_bench_regression.py (density floor, disk-access floor,
      // decode-overhead cap).
      state.counters["density_x"] =
          static_cast<double>(flat.store->heap().num_pages()) / pages;
      state.counters["da_uniform_x"] =
          da_uniform > 0.0 ? g_flat_da_uniform / da_uniform : 0.0;
      state.counters["da_view_x"] =
          da_view > 0.0 ? g_flat_da_view / da_view : 0.0;
      state.counters["decode_overhead_pct"] =
          flat.decode_ms > 0.0
              ? (b.decode_ms - flat.decode_ms) / flat.decode_ms * 100.0
              : 0.0;
    }
  }
}

BENCHMARK(Compression)->Arg(0)->Arg(2)->Iterations(1)->Unit(
    benchmark::kMillisecond);

}  // namespace
}  // namespace dm::bench

int main(int argc, char** argv) {
  return dm::bench::AblationMain(argc, argv, "ablation_compression");
}
