#include "support/table.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "support/check.hpp"
#include "support/str.hpp"

namespace earthred {

Table::Table(std::string title) : title_(std::move(title)) {}

void Table::set_header(std::vector<std::string> header,
                       std::vector<Align> align) {
  ER_EXPECTS(rows_.empty());
  ER_EXPECTS(align.empty() || align.size() == header.size());
  header_ = std::move(header);
  if (align.empty()) {
    align_.assign(header_.size(), Align::Right);
    if (!align_.empty()) align_[0] = Align::Left;
  } else {
    align_ = std::move(align);
  }
}

void Table::add_row(std::vector<std::string> row) {
  ER_EXPECTS_MSG(row.size() == header_.size(),
                 "row width must match header width");
  rows_.push_back(Row{std::move(row), false});
}

void Table::add_rule() { rows_.push_back(Row{{}, true}); }

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size(), 0);
  for (std::size_t c = 0; c < header_.size(); ++c)
    width[c] = header_[c].size();
  for (const Row& r : rows_) {
    if (r.rule) continue;
    for (std::size_t c = 0; c < r.cells.size(); ++c)
      width[c] = std::max(width[c], r.cells[c].size());
  }

  // As wide as a row: '|' plus " cell |" (width + 3) per column.
  std::size_t total = 3 * header_.size() + 1;
  for (auto w : width) total += w;

  if (!title_.empty()) os << "== " << title_ << " ==\n";
  auto emit_rule = [&] { os << std::string(total, '-') << '\n'; };
  auto emit_row = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      std::string cell = cells[c];
      cell = (align_[c] == Align::Left) ? pad_right(std::move(cell), width[c])
                                        : pad_left(std::move(cell), width[c]);
      os << ' ' << cell << " |";
    }
    os << '\n';
  };

  emit_rule();
  emit_row(header_);
  emit_rule();
  for (const Row& r : rows_) {
    if (r.rule) {
      emit_rule();
    } else {
      emit_row(r.cells);
    }
  }
  emit_rule();
}

std::string Table::to_string() const {
  std::ostringstream os;
  print(os);
  return os.str();
}

}  // namespace earthred
