#pragma once
/// \file csv.hpp
/// Minimal CSV writer for exporting figure data series alongside the ASCII
/// charts, so results can be re-plotted externally.

#include <fstream>
#include <string>
#include <vector>

namespace chase::util {

class CsvWriter {
 public:
  /// Opens `path` for writing and emits the header row. Throws
  /// std::runtime_error if the file cannot be opened.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  void add_row(const std::vector<std::string>& cells);

 private:
  std::ofstream out_;
  std::size_t columns_;
};

/// Quote a CSV field if needed.
std::string csv_escape(const std::string& s);

}  // namespace chase::util
