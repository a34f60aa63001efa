#include "sim/corpus.h"

#include <algorithm>
#include <filesystem>

namespace cluert::sim {

std::optional<Fault> faultFromName(std::string_view name) {
  for (std::size_t i = 0; i < kFaultCount; ++i) {
    const Fault f = static_cast<Fault>(i);
    if (faultName(f) == name) return f;
  }
  return std::nullopt;
}

std::string_view scenarioFamily(std::string_view text) {
  LineReader in(text);
  const auto header = in.next();
  if (!header) return {};
  const auto f = fields(*header);
  if (f.size() != 3 || f[1] != "v1") return {};
  // Topology scenarios (topo/scenario.h) share the corpus directory and
  // replay machinery; the header word routes them to the topo parser.
  if (f[0] == "cluert-topo") return f[2] == "ipv4" ? "topo4" : std::string_view{};
  if (f[0] != "cluert-scenario") return {};
  if (f[2] == "ipv4" || f[2] == "ipv6") return f[2] == "ipv4" ? "ipv4" : "ipv6";
  return {};
}

std::vector<std::string> listCorpusFiles(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != ".scn") continue;
    out.push_back(entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace cluert::sim
