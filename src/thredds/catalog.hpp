#pragma once
/// \file catalog.hpp
/// Dataset catalog for the THREDDS substitute (paper §III-A): scientific
/// datasets composed of many timestamped files, each holding several
/// variables. THREDDS' key capability used by the paper is *variable
/// subsetting* — "transfer only that specific variable instead of the entire
/// file", which reduced the MERRA-2 archive from 455 GB to 246 GB.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace chase::thredds {

using util::Bytes;

/// Days since 1970-01-01 for a civil date (Howard Hinnant's algorithm);
/// valid for all Gregorian dates of interest.
std::int64_t days_from_civil(int year, int month, int day);

struct DateTime {
  int year = 1970, month = 1, day = 1, hour = 0;
  std::string to_string() const;  // "1980-01-01T03:00Z"
};

struct Variable {
  std::string name;          // e.g. "IVT"
  Bytes bytes_per_file = 0;  // size of this variable's slab in one file
};

/// A time series of NetCDF-ish files on a regular cadence.
struct Dataset {
  std::string name;          // e.g. "M2I3NPASM"
  DateTime start;
  double cadence_hours = 3;  // file every N hours
  std::size_t file_count = 0;
  std::vector<Variable> variables;
  /// Grid metadata (global resolution of 576x361 pixels, 42 levels).
  int grid_x = 576, grid_y = 361, levels = 42;

  /// Bytes of one whole file (all variables).
  Bytes file_bytes() const;
  /// Bytes of one file when subset to `variable`; nullopt if unknown.
  std::optional<Bytes> subset_bytes(const std::string& variable) const;
  /// Whole-archive byte totals.
  Bytes total_bytes() const { return file_bytes() * file_count; }
  std::optional<Bytes> total_subset_bytes(const std::string& variable) const;

  DateTime file_time(std::size_t index) const;
  /// "/thredds/M2I3NPASM/1980-01-01T03:00Z.nc4"
  std::string file_url(std::size_t index) const;
};

/// Build the paper's archive: MERRA-2 M2I3NPASM, 3-hourly from
/// 1980-01-01T00Z through 2018-05-31T21Z (the paper counts 112,249 NetCDF
/// files and 455 GB total; the IVT subset is 246 GB).
Dataset make_merra2_m2i3npasm();

}  // namespace chase::thredds
