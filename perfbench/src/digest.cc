#include "digest.h"

#include <cstdio>

namespace perfbench {

void
Digest::mix(std::string_view bytes)
{
    for (const char c : bytes) {
        h_ ^= static_cast<unsigned char>(c);
        h_ *= 0x100000001b3ull;
    }
    // Field separator, so ("ab","c") and ("a","bc") differ.
    h_ ^= 0xff;
    h_ *= 0x100000001b3ull;
}

Digest &
Digest::add(std::string_view text)
{
    mix(text);
    return *this;
}

Digest &
Digest::add(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    mix(buf);
    return *this;
}

Digest &
Digest::add(std::int64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    mix(buf);
    return *this;
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

} // namespace perfbench
