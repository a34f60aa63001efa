// Standalone driver for fuzz targets when the toolchain has no libFuzzer
// (-fsanitize=fuzzer is clang-only; the gcc build still wants the targets
// exercised). Replays corpus files byte-for-byte and/or streams bounded
// random inputs through LLVMFuzzerTestOneInput:
//
//   fuzz_<target> [--rand N] [--seed S] [--max-len L] [file...]
//
// Exits 2 for a file it cannot read, a count that is not a number or a
// --max-len past 1 MiB, and otherwise nonzero only if the target
// aborts/crashes (the process dies), so a clean pass is exactly libFuzzer's
// -runs=N semantics.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "common/text.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

namespace {

// Reads `*out` from `s`; false when `s` is not a T.
template <typename T>
bool number(const char* s, T* out) {
  const auto v = cluert::parseNumber<T>(s);
  if (v) *out = *v;
  return v.has_value();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t rand_runs = 0;
  std::uint64_t seed = 1;
  std::size_t max_len = 512;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    bool ok = true;
    if (std::strcmp(argv[i], "--rand") == 0 && i + 1 < argc) {
      ok = number(argv[++i], &rand_runs);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      ok = number(argv[++i], &seed);
    } else if (std::strcmp(argv[i], "--max-len") == 0 && i + 1 < argc) {
      // Bounded so that max_len + 1 cannot wrap to a zero divisor; the
      // targets read a few KiB at most.
      ok = number(argv[++i], &max_len) && max_len <= (1u << 20);
    } else {
      files.emplace_back(argv[i]);
    }
    if (!ok) {
      std::fprintf(stderr, "%s: bad value '%s'\n", argv[i - 1], argv[i]);
      return 2;
    }
  }

  std::size_t executed = 0;
  for (const auto& path : files) {
    const auto bytes = cluert::readFile(path);
    if (!bytes) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return 2;
    }
    LLVMFuzzerTestOneInput(
        reinterpret_cast<const std::uint8_t*>(bytes->data()), bytes->size());
    ++executed;
  }

  std::mt19937_64 rng(seed);
  std::vector<std::uint8_t> buf;
  for (std::size_t i = 0; i < rand_runs; ++i) {
    const std::size_t len = rng() % (max_len + 1);
    buf.resize(len);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
    LLVMFuzzerTestOneInput(buf.data(), buf.size());
    ++executed;
  }

  std::printf("executed %zu inputs (%zu files, %zu random)\n", executed,
              files.size(), rand_runs);
  return 0;
}
