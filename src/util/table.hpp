// Fixed-width text table writer used by every bench binary to print
// paper-style tables (Tables I-V of the paper). Also renders GitHub
// markdown tables.
#pragma once

#include <string>
#include <vector>

namespace cas::util {

enum class Align { kLeft, kRight };

/// A simple row/column table. Cells are strings; the writer computes column
/// widths. First row added with `header()` is underlined in text mode.
class Table {
 public:
  explicit Table(std::string title = "") : title_(std::move(title)) {}

  /// Set the header row and per-column alignment (default: right).
  void header(std::vector<std::string> cells, std::vector<Align> align = {});

  /// Append a data row; must match header width if a header was set.
  void row(std::vector<std::string> cells);

  /// Append a horizontal separator between row groups (e.g. between sizes).
  void separator();

  [[nodiscard]] std::string to_text() const;
  [[nodiscard]] std::string to_markdown() const;
  [[nodiscard]] std::string to_csv() const;

  [[nodiscard]] size_t num_rows() const { return rows_.size(); }
  [[nodiscard]] const std::string& title() const { return title_; }

 private:
  struct Row {
    std::vector<std::string> cells;
    bool is_separator = false;
  };
  std::vector<size_t> widths() const;

  std::string title_;
  std::vector<std::string> header_;
  std::vector<Align> align_;
  std::vector<Row> rows_;
};

}  // namespace cas::util
