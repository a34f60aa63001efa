#include "common/text.h"

#include <fstream>
#include <sstream>

namespace cluert {

std::optional<std::string> readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool writeFile(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

std::vector<std::string_view> fields(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t pos = 0;
  while (pos <= line.size()) {
    std::size_t sp = line.find(' ', pos);
    if (sp == std::string_view::npos) sp = line.size();
    if (sp > pos) out.push_back(line.substr(pos, sp - pos));
    pos = sp + 1;
  }
  return out;
}

}  // namespace cluert
