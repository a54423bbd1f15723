/**
 * @file
 * FNV-1a 64 digests for golden tests: a short, exact pin of a string
 * the test builds from bit-exact (`%a`) values.
 */

#ifndef VESPERA_TESTS_DIGEST_H
#define VESPERA_TESTS_DIGEST_H

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <string_view>

#include "common/logging.h"
#include "obs/counters.h"

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

/**
 * FNV-1a 64 over (name, value, peak, updates), bit for bit, of every
 * updated counter whose name starts with one of `prefixes`, as 16 hex
 * digits.
 */
inline std::string
counterDigest(std::initializer_list<std::string_view> prefixes)
{
    std::uint64_t h = kFnv1aBasis;
    for (const obs::CounterSnapshot &c :
         obs::CounterRegistry::instance().snapshot()) {
        bool match = false;
        for (const std::string_view p : prefixes)
            match = match || std::string_view(c.name).starts_with(p);
        if (!match || c.updates == 0)
            continue;
        h = fnv1a(strfmt("%s=%a/%a/%llu;", c.name.c_str(), c.value, c.peak,
                         static_cast<unsigned long long>(c.updates)),
                  h);
    }
    return hex16(h);
}

} // namespace vespera::test

#endif // VESPERA_TESTS_DIGEST_H
