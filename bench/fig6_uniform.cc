// Reproduces Figure 6 of the paper: viewpoint-independent (uniform
// LOD) query cost, measured in disk accesses, for DM (single-base; the
// multi-base optimization "is not applicable to viewpoint-independent
// queries"), the PM + LOD-quadtree baseline, and the HDoV-tree.
//
//   fig6a: varying ROI, small dataset   fig6b: varying LOD, small
//   fig6c: varying ROI, crater dataset  fig6d: varying LOD, crater
//
// The LOD of the varying-ROI tests is the dataset's average LOD; the
// ROI of the varying-LOD tests is 10% (small) / 5% (crater), matching
// Section 6.1.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace dm::bench {
namespace {

constexpr double kRoiSweep[] = {0.01, 0.02, 0.05, 0.10, 0.15, 0.20};
// LOD swept as the fraction of original points the uniform cut keeps
// (QEM error values span orders of magnitude, so a naive percentage of
// the max LOD collapses onto the coarse end; the paper likewise
// restricts its sweep to "the LOD value range that contains
// substantial number of points").
constexpr double kLodSweep[] = {0.50, 0.25, 0.10, 0.05, 0.02, 0.01};
// Stand-in for the paper's "average LOD value of the dataset" in the
// varying-ROI tests: the cut keeping 10% of the points.
constexpr double kWorkingResolution = 0.10;

Method MethodFromIndex(int64_t i) {
  switch (i) {
    case 0:
      return Method::kDmSingleBase;
    case 1:
      return Method::kPm;
    default:
      return Method::kHdov;
  }
}

void RunVaryRoi(benchmark::State& state, bool crater, FigureTable* fig) {
  BenchContext& ctx = GetContext(crater);
  const Method method = MethodFromIndex(state.range(0));
  const double roi_pct = static_cast<double>(state.range(1)) / 100.0;
  const double e = ctx.dataset().LodForCutFraction(kWorkingResolution);
  const auto rois = ctx.SampleRois(roi_pct, QueryLocations());

  double avg_da = 0;
  for (auto _ : state) {
    auto point_or = ctx.Average(rois, [&](const Rect& roi) {
      return ctx.RunUniform(method, roi, e);
    });
    if (!point_or.ok()) {
      state.SkipWithError(point_or.status().ToString().c_str());
      return;
    }
    avg_da = point_or.value().disk_accesses;
    state.counters["DA"] = avg_da;
    state.counters["nodes"] = point_or.value().nodes_fetched;
  }
  fig->Add(roi_pct * 100.0, method, avg_da);
}

void RunVaryLod(benchmark::State& state, bool crater, FigureTable* fig) {
  BenchContext& ctx = GetContext(crater);
  const Method method = MethodFromIndex(state.range(0));
  const double cut_frac = static_cast<double>(state.range(1)) / 1000.0;
  const double roi_pct = crater ? 0.05 : 0.10;
  const double e = ctx.dataset().LodForCutFraction(cut_frac);
  const auto rois = ctx.SampleRois(roi_pct, QueryLocations());

  double avg_da = 0;
  for (auto _ : state) {
    auto point_or = ctx.Average(rois, [&](const Rect& roi) {
      return ctx.RunUniform(method, roi, e);
    });
    if (!point_or.ok()) {
      state.SkipWithError(point_or.status().ToString().c_str());
      return;
    }
    avg_da = point_or.value().disk_accesses;
    state.counters["DA"] = avg_da;
    state.counters["e"] = e;
  }
  fig->Add(cut_frac * 100.0, method, avg_da);
}

void RegisterAll() {
  auto& figs = Figures();
  figs.reserve(4);
  figs.emplace_back(
      "Figure 6(a): varying ROI (% of area), 'small' dataset, DA", "fig6a");
  figs.emplace_back(
      "Figure 6(b): varying LOD (cut keeps x% of points), 'small', DA",
      "fig6b");
  figs.emplace_back(
      "Figure 6(c): varying ROI (% of area), 'crater' dataset, DA", "fig6c");
  figs.emplace_back(
      "Figure 6(d): varying LOD (cut keeps x% of points), 'crater', DA",
      "fig6d");
  FigureTable* fig6a = &figs[0];
  FigureTable* fig6b = &figs[1];
  FigureTable* fig6c = &figs[2];
  FigureTable* fig6d = &figs[3];

  for (int method = 0; method < 3; ++method) {
    const std::string mname = MethodName(MethodFromIndex(method));
    for (double roi : kRoiSweep) {
      const std::string suffix =
          mname + "/roi_pct:" + std::to_string(static_cast<int>(roi * 100));
      benchmark::RegisterBenchmark(
          ("fig6a/" + suffix).c_str(),
          [fig6a](benchmark::State& s) { RunVaryRoi(s, false, fig6a); })
          ->Args({method, static_cast<int64_t>(roi * 100)})
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
      benchmark::RegisterBenchmark(
          ("fig6c/" + suffix).c_str(),
          [fig6c](benchmark::State& s) { RunVaryRoi(s, true, fig6c); })
          ->Args({method, static_cast<int64_t>(roi * 100)})
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
    for (double lod : kLodSweep) {
      const std::string suffix =
          mname + "/cut_pct:" + std::to_string(static_cast<int>(lod * 100));
      benchmark::RegisterBenchmark(
          ("fig6b/" + suffix).c_str(),
          [fig6b](benchmark::State& s) { RunVaryLod(s, false, fig6b); })
          ->Args({method, static_cast<int64_t>(lod * 1000)})
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
      benchmark::RegisterBenchmark(
          ("fig6d/" + suffix).c_str(),
          [fig6d](benchmark::State& s) { RunVaryLod(s, true, fig6d); })
          ->Args({method, static_cast<int64_t>(lod * 1000)})
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace
}  // namespace dm::bench

int main(int argc, char** argv) {
  dm::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  dm::bench::PrintAllFigures();
  dm::bench::WriteFiguresJson("fig6_uniform", "BENCH_fig6.json");
  return 0;
}
