// The five base lookup methods compared in the paper's §6, plus the clue
// mode applied on top of them. §6 evaluates 15 combinations:
// {Common, Simple, Advance} x {Regular, Patricia, Binary, 6-way, Log W}.
#pragma once

#include <array>
#include <optional>
#include <string_view>

namespace cluert::lookup {

// Base best-matching-prefix algorithms (§2, §4, §6):
enum class Method {
  kRegular,   // bit-by-bit binary trie scan [22, 23]
  kPatricia,  // path-compressed trie [22, 23]
  kBinary,    // binary search on prefix intervals [19]
  kMultiway,  // B-way (B=6) search exploiting wide memory lines [11]
  kLogW,      // binary search on prefix lengths with hash tables [26]
  kStride,    // extended: 8-bit multibit trie with leaf pushing [24]
};

inline constexpr std::size_t kMethodCount = 6;

// The five methods of the paper's §6 comparison.
inline constexpr std::array<Method, 5> kAllMethods = {
    Method::kRegular, Method::kPatricia, Method::kBinary, Method::kMultiway,
    Method::kLogW};

// The paper's five plus the extended stride trie.
inline constexpr std::array<Method, kMethodCount> kExtendedMethods = {
    Method::kRegular, Method::kPatricia, Method::kBinary,
    Method::kMultiway, Method::kLogW,    Method::kStride};

// How (whether) the clue carried by the packet is used (§3, §6):
enum class ClueMode {
  kCommon,   // no clue — the plain method
  kSimple,   // §3.1.1: Ptr empty iff clue vertex absent or has no descendants
  kAdvance,  // §3.1.2: additionally applies Claim 1 / condition C1
};

inline constexpr std::array<ClueMode, 3> kAllClueModes = {
    ClueMode::kCommon, ClueMode::kSimple, ClueMode::kAdvance};

std::string_view methodName(Method m);
std::string_view clueModeName(ClueMode c);

// The method methodName gives `name`, or nullopt.
std::optional<Method> methodFromName(std::string_view name);
// The mode a table is built for: Simple or Advance, written as clueModeName
// gives it or in lower case. Common names no such mode and gives nullopt.
std::optional<ClueMode> clueModeFromName(std::string_view name);

}  // namespace cluert::lookup
