/**
 * @file
 * Per-invariant case lists for the value-parameterized property suites.
 *
 * INSTANTIATE_TEST_SUITE_P runs every TEST_P of a suite over one case
 * list, so an invariant that holds only on part of it (a Gaudi-only
 * cost model, an HCCL-only topology effect) would generate instances
 * that can only skip. registerCaseSubset() registers such an invariant
 * over its own filtered list instead, into the same suite, with the
 * "<prefix>/<Suite>.<Test>/<index>" name and printed case that
 * INSTANTIATE_TEST_SUITE_P gives its TEST_Ps. Every registered
 * instance runs.
 */

#ifndef VESPERA_TESTS_PROPERTY_CASE_SUBSET_H
#define VESPERA_TESTS_PROPERTY_CASE_SUBSET_H

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace vespera::testing_util {

/**
 * Registers `body` as test `test` of suite `<prefix>/<suite>` once per
 * case of `cases` that `keep` accepts. `Fixture` must be the suite's
 * TEST_P fixture (gtest requires one fixture class per suite); the
 * body takes its case as an argument rather than from GetParam().
 * Call it from a namespace-scope initializer, before RUN_ALL_TESTS.
 */
template <class Fixture, class Case, class Keep>
bool
registerCaseSubset(const char *prefix, const char *suite,
                   const char *test, const std::vector<Case> &cases,
                   Keep keep, void (*body)(const Case &))
{
    class Instance : public Fixture
    {
      public:
        Instance(Case c, void (*b)(const Case &)) : case_(c), body_(b) {}
        void TestBody() override { body_(case_); }

      private:
        Case case_;
        void (*body_)(const Case &);
    };

    const std::string suite_name = std::string(prefix) + "/" + suite;
    int index = 0;
    for (const Case &c : cases) {
        if (!keep(c))
            continue;
        const std::string name =
            std::string(test) + "/" + std::to_string(index++);
        ::testing::RegisterTest(
            suite_name.c_str(), name.c_str(), nullptr,
            ::testing::PrintToString(c).c_str(), __FILE__, __LINE__,
            [c, body]() -> Fixture * { return new Instance(c, body); });
    }
    return true;
}

} // namespace vespera::testing_util

#endif // VESPERA_TESTS_PROPERTY_CASE_SUBSET_H
