// Fixed-width table printing for benchmark output.
//
// Every figure bench prints the same row schema so scripts/bench_json.sh can
// parse it mechanically:  figure, series, x, wall_s, model_s, extra...
// perfbench/README.md is the reading guide to the metrics.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace pgasnb {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers)
      : headers_(std::move(headers)) {
    widths_.reserve(headers_.size());
    for (const auto& h : headers_) widths_.push_back(h.size());
  }

  void addRow(std::vector<std::string> cells) {
    for (std::size_t i = 0; i < cells.size() && i < widths_.size(); ++i) {
      widths_[i] = std::max(widths_[i], cells[i].size());
    }
    rows_.push_back(std::move(cells));
  }

  void print(std::FILE* out = stdout) const {
    printRow(out, headers_);
    std::string rule;
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      rule += std::string(widths_[i], '-');
      if (i + 1 < headers_.size()) rule += "-+-";
    }
    std::fprintf(out, "%s\n", rule.c_str());
    for (const auto& row : rows_) printRow(out, row);
    std::fflush(out);
  }

 private:
  void printRow(std::FILE* out, const std::vector<std::string>& cells) const {
    std::string line;
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      const std::string& cell = i < cells.size() ? cells[i] : std::string();
      line += cell;
      if (cell.size() < widths_[i]) line += std::string(widths_[i] - cell.size(), ' ');
      if (i + 1 < headers_.size()) line += " | ";
    }
    std::fprintf(out, "%s\n", line.c_str());
  }

  std::vector<std::string> headers_;
  std::vector<std::size_t> widths_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string formatSeconds(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", seconds);
  return buf;
}

}  // namespace pgasnb
