#include "lookup/lookup_method.h"

namespace cluert::lookup {

std::string_view methodName(Method m) {
  switch (m) {
    case Method::kRegular:
      return "Regular";
    case Method::kPatricia:
      return "Patricia";
    case Method::kBinary:
      return "Binary";
    case Method::kMultiway:
      return "6-way";
    case Method::kLogW:
      return "LogW";
    case Method::kStride:
      return "Stride8";
  }
  return "unknown";
}

std::string_view clueModeName(ClueMode c) {
  switch (c) {
    case ClueMode::kCommon:
      return "Common";
    case ClueMode::kSimple:
      return "Simple";
    case ClueMode::kAdvance:
      return "Advance";
  }
  return "unknown";
}

std::optional<Method> methodFromName(std::string_view name) {
  for (const Method m : kExtendedMethods) {
    if (methodName(m) == name) return m;
  }
  return std::nullopt;
}

std::optional<ClueMode> clueModeFromName(std::string_view name) {
  if (name == "simple" || name == "Simple") return ClueMode::kSimple;
  if (name == "advance" || name == "Advance") return ClueMode::kAdvance;
  return std::nullopt;
}

}  // namespace cluert::lookup
