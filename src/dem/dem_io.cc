#include "dem/dem_io.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <limits>
#include <vector>

namespace dm {

Result<DemGrid> ReadEsriAsciiGrid(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);

  int ncols = -1;
  int nrows = -1;
  double nodata = -9999.0;
  std::string key;
  // Header: key/value pairs until the first numeric row. xllcorner,
  // yllcorner and cellsize only rescale the footprint, which this
  // codebase normalizes anyway, so they are parsed and ignored.
  for (int i = 0; i < 6; ++i) {
    std::streampos pos = in.tellg();
    if (!(in >> key)) return Status::Corruption("truncated header");
    if (!key.empty() && (std::isdigit(key[0]) || key[0] == '-')) {
      in.seekg(pos);
      break;
    }
    double value = 0;
    if (!(in >> value)) return Status::Corruption("bad header value");
    for (auto& c : key) c = static_cast<char>(std::tolower(c));
    if (key == "ncols") ncols = static_cast<int>(value);
    if (key == "nrows") nrows = static_cast<int>(value);
    if (key == "nodata_value") nodata = value;
  }
  if (ncols <= 0 || nrows <= 0) {
    return Status::Corruption("missing ncols/nrows in " + path);
  }

  DemGrid grid(ncols, nrows);
  double min_valid = std::numeric_limits<double>::infinity();
  std::vector<std::pair<int, int>> holes;
  for (int row = 0; row < nrows; ++row) {
    for (int col = 0; col < ncols; ++col) {
      double z = 0;
      if (!(in >> z)) return Status::Corruption("truncated grid data");
      // Esri rows run north to south; flip to our y-up convention.
      const int y = nrows - 1 - row;
      if (z == nodata) {
        holes.emplace_back(col, y);
      } else {
        grid.set(col, y, z);
        min_valid = std::min(min_valid, z);
      }
    }
  }
  if (min_valid == std::numeric_limits<double>::infinity()) min_valid = 0.0;
  for (auto [x, y] : holes) grid.set(x, y, min_valid);
  return grid;
}

}  // namespace dm
