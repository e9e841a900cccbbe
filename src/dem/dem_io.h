#ifndef DIRECTMESH_DEM_DEM_IO_H_
#define DIRECTMESH_DEM_DEM_IO_H_

#include <string>

#include "common/status.h"
#include "dem/dem_grid.h"

namespace dm {

/// Parses the ASCII Esri grid format (the distribution format of USGS
/// DEMs such as Crater Lake): header lines `ncols`, `nrows`,
/// `xllcorner`, `yllcorner`, `cellsize`, `NODATA_value` followed by
/// rows of elevations, north to south. NODATA cells are filled with
/// the minimum valid elevation.
Result<DemGrid> ReadEsriAsciiGrid(const std::string& path);

}  // namespace dm

#endif  // DIRECTMESH_DEM_DEM_IO_H_
