/**
 * @file
 * Exact digests of simulated outputs.
 *
 * Every job folds the simulated results it produced (times,
 * utilizations, serving metrics, analyzer findings, scorecard
 * parity) into a Digest. Doubles enter as their `%a` spelling, so two
 * digests agree only when every bit of every value agrees; the
 * benchmark compares them across its passes and against the expected
 * digests stored beside it.
 */

#ifndef PERFBENCH_DIGEST_H
#define PERFBENCH_DIGEST_H

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

/** 64-bit FNV-1a over a canonical text rendering of the values. */
class Digest
{
  public:
    Digest &add(std::string_view text);
    Digest &add(double v);
    Digest &add(std::int64_t v);
    Digest &add(std::uint64_t v) { return add(static_cast<std::int64_t>(v)); }
    Digest &add(int v) { return add(static_cast<std::int64_t>(v)); }

    /** 16 lowercase hex digits. */
    std::string hex() const;

    std::uint64_t value() const { return h_; }

  private:
    void mix(std::string_view bytes);

    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

} // namespace perfbench

#endif // PERFBENCH_DIGEST_H
