#include "dm/meta_io.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

namespace dm {

Status SaveDmMeta(const std::string& path, const DmMeta& meta,
                  const std::vector<std::pair<double, double>>& quantiles,
                  const std::vector<std::pair<std::string, double>>& stages) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot write " + path);
  out.precision(17);
  out << "heap_first=" << meta.heap_first << "\n"
      << "rtree_root=" << meta.rtree_root << "\n"
      << "rtree_size=" << meta.rtree_size << "\n"
      << "num_nodes=" << meta.num_nodes << "\n"
      << "num_leaves=" << meta.num_leaves << "\n"
      << "max_lod=" << meta.max_lod << "\n"
      << "mean_lod=" << meta.mean_lod << "\n"
      << "codec=" << static_cast<int>(meta.codec) << "\n"
      << "bounds=" << meta.bounds.lo_x << "," << meta.bounds.lo_y << ","
      << meta.bounds.hi_x << "," << meta.bounds.hi_y << "\n";
  // Written only when set, so complete-store meta files stay
  // byte-identical to pre-shard builds.
  if (meta.id_space > 0) out << "id_space=" << meta.id_space << "\n";
  for (const ReachStep& r : meta.reach) {
    out << "reach=" << r.e_high << "," << r.dist << "\n";
  }
  for (const auto& [f, e] : quantiles) {
    out << "quantile=" << f << "," << e << "\n";
  }
  for (const auto& [name, millis] : stages) {
    out << "stage=" << name << "," << millis << "\n";
  }
  return Status::OK();
}

Result<LoadedDmMeta> LoadDmMeta(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("no meta file at " + path);
  LoadedDmMeta lm;
  std::string line;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    std::stringstream ss(value);
    if (key == "heap_first") ss >> lm.meta.heap_first;
    if (key == "rtree_root") ss >> lm.meta.rtree_root;
    if (key == "rtree_size") ss >> lm.meta.rtree_size;
    if (key == "num_nodes") ss >> lm.meta.num_nodes;
    if (key == "num_leaves") ss >> lm.meta.num_leaves;
    if (key == "max_lod") ss >> lm.meta.max_lod;
    if (key == "mean_lod") ss >> lm.meta.mean_lod;
    if (key == "id_space") ss >> lm.meta.id_space;
    if (key == "codec") {
      int64_t v = 0;
      ss >> v;
      DM_ASSIGN_OR_RETURN(lm.meta.codec, ParseDmCodec(v));
    }
    if (key == "bounds") {
      char c;
      ss >> lm.meta.bounds.lo_x >> c >> lm.meta.bounds.lo_y >> c >>
          lm.meta.bounds.hi_x >> c >> lm.meta.bounds.hi_y;
    }
    if (key == "reach") {
      ReachStep r;
      char c = 0;
      ss >> r.e_high >> c >> r.dist;
      if (!ss || c != ',') {
        return Status::Corruption("meta file: malformed reach entry '" +
                                  value + "'");
      }
      lm.meta.reach.push_back(r);
    }
    if (key == "quantile") {
      double f;
      double e;
      char c;
      ss >> f >> c >> e;
      lm.quantiles.emplace_back(f, e);
    }
    if (key == "stage") {
      const auto comma = value.find(',');
      if (comma != std::string::npos) {
        lm.stages.emplace_back(
            value.substr(0, comma),
            std::strtod(value.c_str() + comma + 1, nullptr));
      }
    }
  }
  DM_RETURN_NOT_OK(ValidateReachTable(lm.meta.reach));
  return lm;
}

}  // namespace dm
