#include "workload/bench_context.h"

#include <cmath>
#include <cstdlib>
#include <sys/stat.h>

#include "baseline/pmdb/pmdb_query.h"
#include "common/rng.h"
#include "dm/dm_query.h"

namespace dm {

const char* MethodName(Method m) {
  switch (m) {
    case Method::kDmSingleBase:
      return "DM-SB";
    case Method::kDmMultiBase:
      return "DM-MB";
    case Method::kPm:
      return "PM";
    case Method::kHdov:
      return "HDoV";
    case Method::kDmBounded:
      return "DM-BF";
  }
  return "?";
}

std::string BenchDataDir() {
  const char* env = std::getenv("DM_DATA_DIR");
  const std::string dir = env != nullptr ? env : "./dm_bench_data";
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

Result<BenchContext> BenchContext::Create(const std::string& dir,
                                          const DatasetSpec& spec,
                                          const DbOptions& options) {
  DM_ASSIGN_OR_RETURN(BuiltDataset ds,
                      BuildOrLoadDataset(dir, spec, options));
  return BenchContext(std::move(ds));
}

std::vector<Rect> BenchContext::SampleRois(double area_fraction,
                                           int locations,
                                           uint64_t seed) const {
  const Rect& b = ds_.bounds;
  const double side =
      std::sqrt(area_fraction * b.Area());
  Rng rng(seed ^ (ds_.spec.seed * 0x9e3779b97f4a7c15ULL));
  std::vector<Rect> rois;
  rois.reserve(static_cast<size_t>(locations));
  for (int i = 0; i < locations; ++i) {
    const double x = rng.Uniform(b.lo_x, std::max(b.lo_x, b.hi_x - side));
    const double y = rng.Uniform(b.lo_y, std::max(b.lo_y, b.hi_y - side));
    rois.push_back(Rect::Of(x, y, std::min(x + side, b.hi_x),
                            std::min(y + side, b.hi_y)));
  }
  return rois;
}

Status BenchContext::FlushAll() {
  DM_RETURN_NOT_OK(ds_.dm_env->FlushAll());
  DM_RETURN_NOT_OK(ds_.pm_env->FlushAll());
  return ds_.hdov_env->FlushAll();
}

Result<QueryStats> BenchContext::RunUniform(Method m, const Rect& roi,
                                            double e) {
  DM_RETURN_NOT_OK(FlushAll());
  switch (m) {
    case Method::kDmSingleBase:
    case Method::kDmMultiBase:
    case Method::kDmBounded: {
      DmQueryProcessor proc(&*ds_.dm);
      DM_ASSIGN_OR_RETURN(DmQueryResult r, proc.ViewpointIndependent(roi, e));
      return r.stats;
    }
    case Method::kPm: {
      PmQueryProcessor proc(&*ds_.pm);
      DM_ASSIGN_OR_RETURN(PmQueryResult r, proc.Uniform(roi, e));
      return r.stats;
    }
    case Method::kHdov: {
      DM_ASSIGN_OR_RETURN(DmQueryResult r, ds_.hdov->Uniform(roi, e));
      return r.stats;
    }
  }
  return Status::InvalidArgument("unknown method");
}

Result<QueryStats> BenchContext::RunView(Method m, const ViewQuery& q) {
  DM_RETURN_NOT_OK(FlushAll());
  // The paper's protocol fetches the whole cube; only DM-BF bounds it.
  DmQueryOptions paper;
  paper.bounded_fetch = false;
  switch (m) {
    case Method::kDmSingleBase: {
      DmQueryProcessor proc(&*ds_.dm, paper);
      DM_ASSIGN_OR_RETURN(DmQueryResult r, proc.SingleBase(q));
      return r.stats;
    }
    case Method::kDmMultiBase: {
      DmQueryProcessor proc(&*ds_.dm, paper);
      DM_ASSIGN_OR_RETURN(DmQueryResult r, proc.MultiBase(q));
      return r.stats;
    }
    case Method::kDmBounded: {
      DmQueryProcessor proc(&*ds_.dm);
      DM_ASSIGN_OR_RETURN(DmQueryResult r, proc.SingleBase(q));
      return r.stats;
    }
    case Method::kPm: {
      PmQueryProcessor proc(&*ds_.pm);
      DM_ASSIGN_OR_RETURN(PmQueryResult r, proc.ViewDependent(q));
      return r.stats;
    }
    case Method::kHdov: {
      // Viewer at the center of the near (fine-LOD) edge of the ROI.
      Point2 viewer;
      if (q.gradient_along_y) {
        viewer = Point2{(q.roi.lo_x + q.roi.hi_x) / 2, q.roi.lo_y};
      } else {
        viewer = Point2{q.roi.lo_x, (q.roi.lo_y + q.roi.hi_y) / 2};
      }
      DM_ASSIGN_OR_RETURN(DmQueryResult r,
                          ds_.hdov->ViewDependent(q, viewer));
      return r.stats;
    }
  }
  return Status::InvalidArgument("unknown method");
}

}  // namespace dm
