// Reproduces Figure 8 of the paper: viewpoint-dependent query cost in
// disk accesses for DM single-base (SB), DM multi-base (MB), the PM +
// LOD-quadtree baseline, and the HDoV-tree. One repo-local arm rides
// along: DM-BF (single-base with the surface-bounded fetch, DESIGN.md
// §18).
//
//   fig8a/d: varying ROI   (angle = theta_max / 2)
//   fig8b/e: varying e_min (angle = theta_max / 2)
//   fig8c/f: varying angle (e_min = 1% of max LOD)
//
// a-c run on the 'small' dataset, d-f on 'crater' (Section 6.2).

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace dm::bench {
namespace {

constexpr double kRoiSweep[] = {0.01, 0.02, 0.05, 0.10, 0.15, 0.20};
// e_min swept as the resolution fraction of its uniform cut (see
// fig6_uniform.cc for why the raw e axis is unusable with QEM errors);
// smaller fraction = coarser near plane.
constexpr double kEminSweep[] = {0.75, 0.50, 0.25, 0.10, 0.05};
constexpr double kAngleSweep[] = {0.1, 0.25, 0.5, 0.75, 0.9};
// Near-plane resolution for the ROI and angle sweeps (the paper pins
// e_min to 1% of the max LOD "to allow for a large angle range"; ours
// keeps half the points, the analogous fine setting).
constexpr double kDefaultEminFraction = 0.5;

Method MethodFromIndex(int64_t i) {
  switch (i) {
    case 0:
      return Method::kDmSingleBase;
    case 1:
      return Method::kDmMultiBase;
    case 2:
      return Method::kPm;
    case 3:
      return Method::kHdov;
    default:
      return Method::kDmBounded;
  }
}

struct Sweep {
  double roi_pct = 0.10;
  double e_min_frac = kDefaultEminFraction;
  double angle_frac = 0.5;
};

void RunView(benchmark::State& state, bool crater, const Sweep& sweep,
             double x_value, FigureTable* fig) {
  BenchContext& ctx = GetContext(crater);
  const Method method = MethodFromIndex(state.range(0));
  const auto rois = ctx.SampleRois(sweep.roi_pct, QueryLocations());
  const double e_min = ctx.dataset().LodForCutFraction(sweep.e_min_frac);

  double avg_da = 0;
  for (auto _ : state) {
    auto point_or = ctx.Average(rois, [&](const Rect& roi) {
      const ViewQuery q = ViewQuery::FromAngle(
          roi, e_min, sweep.angle_frac, ctx.dataset().max_lod);
      return ctx.RunView(method, q);
    });
    if (!point_or.ok()) {
      state.SkipWithError(point_or.status().ToString().c_str());
      return;
    }
    avg_da = point_or.value().disk_accesses;
    state.counters["DA"] = avg_da;
    state.counters["nodes"] = point_or.value().nodes_fetched;
  }
  fig->Add(x_value, method, avg_da);
}

void RegisterAll() {
  auto& figs = Figures();
  figs.reserve(6);
  figs.emplace_back("Figure 8(a): varying ROI (%), 'small', DA", "fig8a");
  figs.emplace_back(
      "Figure 8(b): varying e_min (cut keeps x% of points), 'small', DA",
      "fig8b");
  figs.emplace_back("Figure 8(c): varying angle (% of theta_max), 'small', DA",
                    "fig8c");
  figs.emplace_back("Figure 8(d): varying ROI (%), 'crater', DA", "fig8d");
  figs.emplace_back(
      "Figure 8(e): varying e_min (cut keeps x% of points), 'crater', DA",
      "fig8e");
  figs.emplace_back("Figure 8(f): varying angle (% of theta_max), 'crater', DA",
                    "fig8f");

  for (int crater = 0; crater <= 1; ++crater) {
    FigureTable* roi_fig = &Figures()[crater == 0 ? 0 : 3];
    FigureTable* emin_fig = &Figures()[crater == 0 ? 1 : 4];
    FigureTable* angle_fig = &Figures()[crater == 0 ? 2 : 5];
    const char* tag = crater == 0 ? "small" : "crater";
    const std::string prefix_roi =
        std::string("fig8_roi/") + tag + "/";
    for (int method = 0; method < 5; ++method) {
      const std::string mname = MethodName(MethodFromIndex(method));
      for (double roi : kRoiSweep) {
        Sweep sweep;
        sweep.roi_pct = roi;
        const std::string name =
            prefix_roi + mname + "/roi_pct:" +
            std::to_string(static_cast<int>(roi * 100));
        benchmark::RegisterBenchmark(
            name.c_str(),
            [=](benchmark::State& s) {
              RunView(s, crater != 0, sweep, roi * 100, roi_fig);
            })
            ->Args({method})
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
      }
      for (double emin : kEminSweep) {
        Sweep sweep;
        sweep.e_min_frac = emin;
        const std::string name =
            std::string("fig8_emin/") + tag + "/" + mname + "/cut_pct:" +
            std::to_string(static_cast<int>(emin * 100));
        benchmark::RegisterBenchmark(
            name.c_str(),
            [=](benchmark::State& s) {
              RunView(s, crater != 0, sweep, emin * 100, emin_fig);
            })
            ->Args({method})
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
      }
      for (double angle : kAngleSweep) {
        Sweep sweep;
        sweep.angle_frac = angle;
        const std::string name =
            std::string("fig8_angle/") + tag + "/" + mname +
            "/angle_pct:" + std::to_string(static_cast<int>(angle * 100));
        benchmark::RegisterBenchmark(
            name.c_str(),
            [=](benchmark::State& s) {
              RunView(s, crater != 0, sweep, angle * 100, angle_fig);
            })
            ->Args({method})
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
      }
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
  dm::bench::WriteFiguresJson("fig8_viewdep", "BENCH_fig8.json");
  return 0;
}
