#include "thredds/catalog.hpp"

#include <cstdio>

namespace chase::thredds {

std::int64_t days_from_civil(int y, int m, int d) {
  y -= m <= 2;
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = (153u * static_cast<unsigned>(m + (m > 2 ? -3 : 9)) + 2u) / 5u +
                       static_cast<unsigned>(d) - 1u;
  const unsigned doe = yoe * 365u + yoe / 4u - yoe / 100u + doy;
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

namespace {

/// Inverse of days_from_civil.
void civil_from_days(std::int64_t z, int& y, int& m, int& d) {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t yy = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const unsigned mp = (5 * doy + 2) / 153;
  d = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  m = static_cast<int>(mp + (mp < 10 ? 3 : -9));
  y = static_cast<int>(yy + (m <= 2));
}

}  // namespace

std::string DateTime::to_string() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:00Z", year, month, day, hour);
  return buf;
}

Bytes Dataset::file_bytes() const {
  Bytes total = 0;
  for (const auto& v : variables) total += v.bytes_per_file;
  return total;
}

std::optional<Bytes> Dataset::subset_bytes(const std::string& variable) const {
  for (const auto& v : variables) {
    if (v.name == variable) return v.bytes_per_file;
  }
  return std::nullopt;
}

std::optional<Bytes> Dataset::total_subset_bytes(const std::string& variable) const {
  auto per_file = subset_bytes(variable);
  if (!per_file) return std::nullopt;
  return *per_file * file_count;
}

DateTime Dataset::file_time(std::size_t index) const {
  const double hours_total = start.hour + cadence_hours * static_cast<double>(index);
  const std::int64_t day_offset = static_cast<std::int64_t>(hours_total / 24.0);
  const int hour = static_cast<int>(hours_total - static_cast<double>(day_offset) * 24.0);
  const std::int64_t day = days_from_civil(start.year, start.month, start.day) + day_offset;
  DateTime t;
  civil_from_days(day, t.year, t.month, t.day);
  t.hour = hour;
  return t;
}

std::string Dataset::file_url(std::size_t index) const {
  return "/thredds/" + name + "/" + file_time(index).to_string() + ".nc4";
}

Dataset make_merra2_m2i3npasm() {
  Dataset ds;
  ds.name = "M2I3NPASM";
  ds.start = DateTime{1980, 1, 1, 0};
  ds.cadence_hours = 3;
  // 1980-01-01 .. 2018-05-31 inclusive is 14,031 days of 8 files, plus the
  // 2018-06-01T00Z instantaneous file = the paper's 112,249 NetCDF files.
  const std::int64_t days =
      days_from_civil(2018, 5, 31) - days_from_civil(1980, 1, 1) + 1;
  ds.file_count = static_cast<std::size_t>(days) * 8 + 1;

  // Per-file variable slabs chosen so the archive totals match the paper:
  // whole archive 455 GB, IVT subset 246 GB.
  const Bytes ivt = 246'000'000'000ULL / ds.file_count;         // ~2.19 MB
  const Bytes rest = 209'000'000'000ULL / ds.file_count;        // ~1.86 MB
  ds.variables = {
      {"IVT", ivt},
      {"T", rest * 30 / 100},
      {"U", rest * 20 / 100},
      {"V", rest * 20 / 100},
      {"QV", rest * 18 / 100},
      {"H", rest * 12 / 100},
  };
  return ds;
}

}  // namespace chase::thredds
