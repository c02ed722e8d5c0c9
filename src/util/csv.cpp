#include "util/csv.hpp"

#include <stdexcept>

namespace chase::util {

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

CsvWriter::CsvWriter(const std::string& path, const std::vector<std::string>& header)
    : out_(path), columns_(header.size()) {
  if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path);
  add_row(header);
}

void CsvWriter::add_row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out_ << ',';
    out_ << csv_escape(cells[i]);
  }
  out_ << '\n';
}

}  // namespace chase::util
