/**
 * @file
 * FNV-1a 64 digests for golden tests: a short, exact pin of a string
 * the test builds from bit-exact (`%a`) values.
 */

#ifndef VESPERA_TESTS_DIGEST_H
#define VESPERA_TESTS_DIGEST_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace vespera::test {

inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ull;

/** Folds `s` into the FNV-1a 64 state `h`. */
inline std::uint64_t
fnv1a(std::string_view s, std::uint64_t h = kFnv1aBasis)
{
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** `h` as 16 hex digits. */
inline std::string
hex16(std::uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** FNV-1a 64 of `s` as 16 hex digits. */
inline std::string
hexDigest(std::string_view s)
{
    return hex16(fnv1a(s));
}

} // namespace vespera::test

#endif // VESPERA_TESTS_DIGEST_H
