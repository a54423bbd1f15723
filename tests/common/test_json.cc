#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/io.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/rng.h"

namespace vespera::json {

namespace {

TEST(JsonParse, Scalars)
{
    Value v;
    ASSERT_TRUE(parse("null", v, nullptr));
    EXPECT_TRUE(v.isNull());
    ASSERT_TRUE(parse("true", v, nullptr));
    EXPECT_TRUE(v.boolean());
    ASSERT_TRUE(parse("false", v, nullptr));
    EXPECT_FALSE(v.boolean());
    ASSERT_TRUE(parse("-12.5e2", v, nullptr));
    EXPECT_DOUBLE_EQ(v.number(), -1250.0);
    ASSERT_TRUE(parse("\"hi\"", v, nullptr));
    EXPECT_EQ(v.str(), "hi");
}

TEST(JsonParse, NestedContainersAndWhitespace)
{
    Value v;
    ASSERT_TRUE(parse(" { \"a\" : [ 1 , 2 , { \"b\" : null } ] , "
                      "\"c\" : true } ",
                      v, nullptr));
    ASSERT_TRUE(v.isObject());
    const Value *a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->array().size(), 3u);
    EXPECT_DOUBLE_EQ(a->array()[1].number(), 2.0);
    EXPECT_TRUE(a->array()[2].find("b")->isNull());
    EXPECT_TRUE(v.find("c")->boolean());
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParse, StringEscapes)
{
    Value v;
    ASSERT_TRUE(parse(R"("a\"b\\c\nd\tA")", v, nullptr));
    EXPECT_EQ(v.str(), "a\"b\\c\nd\tA");
}

TEST(JsonParse, RejectsMalformedInput)
{
    Value v;
    std::string err;
    EXPECT_FALSE(parse("", v, &err));
    EXPECT_FALSE(parse("{", v, &err));
    EXPECT_FALSE(parse("[1,]", v, &err));
    EXPECT_FALSE(parse("{\"a\":1,}", v, &err));
    EXPECT_FALSE(parse("\"unterminated", v, &err));
    EXPECT_FALSE(parse("1 2", v, &err)); // Trailing garbage.
    EXPECT_FALSE(parse("nul", v, &err));
    EXPECT_FALSE(err.empty());
}

TEST(JsonParse, RejectsRunawayNesting)
{
    std::string deep(128, '[');
    deep += std::string(128, ']');
    Value v;
    EXPECT_FALSE(parse(deep, v, nullptr));
}

TEST(JsonParse, RunawayNestingNamesTheDepth)
{
    // A million open brackets fail at the depth limit, long before
    // the recursion could exhaust the stack.
    Value v;
    std::string err;
    EXPECT_FALSE(parse(std::string(1000000, '['), v, &err));
    EXPECT_EQ(err, "nesting depth 65 exceeds the limit of 64 at byte 65");
    // 64 levels below the top-level value still parse.
    std::string deepest(64, '[');
    deepest += "1" + std::string(64, ']');
    EXPECT_TRUE(parse(deepest, v, &err)) << err;
}

/**
 * The committed documents the tools read: every vespera-stat baseline
 * under tools/bench_baseline/ and the vespera-lint warnings baseline,
 * as (name, text) pairs in name order.
 */
std::vector<std::pair<std::string, std::string>>
committedDocuments()
{
    namespace fs = std::filesystem;
    const fs::path root(VESPERA_SOURCE_DIR);
    std::vector<fs::path> paths = {root / "tools" / "lint_baseline.json"};
    for (const auto &entry :
         fs::directory_iterator(root / "tools" / "bench_baseline")) {
        if (entry.path().extension() == ".json")
            paths.push_back(entry.path());
    }
    std::sort(paths.begin(), paths.end());
    std::vector<std::pair<std::string, std::string>> docs;
    for (const fs::path &p : paths) {
        std::string text;
        EXPECT_TRUE(readFile(p.string(), text)) << p;
        docs.emplace_back(p.filename().string(), std::move(text));
    }
    return docs;
}

/**
 * One fuzz input must either parse, and then survive a serialize /
 * parse round trip unchanged, or fail with a message that names a
 * byte offset inside the input.
 */
void
expectParsesOrFailsWithMessage(const std::string &text,
                               const std::string &what)
{
    Value v;
    std::string err;
    if (parse(text, v, &err)) {
        const std::string once = serialize(v);
        Value again;
        ASSERT_TRUE(parse(once, again, &err)) << what << ": " << err;
        EXPECT_EQ(serialize(again), once) << what;
        return;
    }
    const std::size_t at = err.rfind(" at byte ");
    ASSERT_NE(at, std::string::npos) << what << ": '" << err << "'";
    EXPECT_GT(at, 0u) << what << ": '" << err << "'";
    EXPECT_LE(std::stoull(err.substr(at + 9)), text.size())
        << what << ": '" << err << "'";
}

// Seeded fuzz over the committed baselines: truncations, byte flips
// and deep nesting (wrapped around the document or spliced into it).
TEST(JsonFuzz, MutatedBaselinesParseOrFailWithMessage)
{
    const auto docs = committedDocuments();
    ASSERT_GE(docs.size(), 6u);
    Rng rng(25);
    for (const auto &[name, text] : docs) {
        SCOPED_TRACE(name);
        Value v;
        std::string err;
        ASSERT_TRUE(parse(text, v, &err)) << err;
        const std::size_t n = text.size();

        for (int i = 0; i < 200; i++) {
            const std::size_t cut = rng.below(n);
            expectParsesOrFailsWithMessage(
                text.substr(0, cut), strfmt("truncated at %zu", cut));
        }
        for (int i = 0; i < 300; i++) {
            std::string flipped = text;
            const int flips = 1 + static_cast<int>(rng.below(8));
            for (int f = 0; f < flips; f++) {
                flipped[rng.below(n)] ^=
                    static_cast<char>(1 + rng.below(255));
            }
            expectParsesOrFailsWithMessage(
                flipped, strfmt("%d byte flips, pass %d", flips, i));
        }
        for (const std::size_t depth :
             {1ul, 8ul, 64ul, 65ul, 1000ul, 100000ul}) {
            const std::string wrapped = std::string(depth, '[') + text +
                                        std::string(depth, ']');
            expectParsesOrFailsWithMessage(
                wrapped, strfmt("wrapped %zu deep", depth));
            const bool parsed = parse(wrapped, v, &err);
            EXPECT_EQ(parsed, depth < 64) << depth << ": " << err;
            if (!parsed) {
                EXPECT_NE(err.find("exceeds the limit of 64"),
                          std::string::npos)
                    << err;
            }
        }
        for (int i = 0; i < 50; i++) {
            const std::size_t at = rng.below(n);
            const std::size_t depth = 1 + rng.below(5000);
            std::string spliced = text;
            spliced.insert(at, std::string(depth, i % 2 ? '[' : '{'));
            expectParsesOrFailsWithMessage(
                spliced, strfmt("%zu brackets at %zu", depth, at));
        }
    }
}

TEST(JsonValue, FindPathWalksDottedKeys)
{
    Value v;
    ASSERT_TRUE(parse(R"({"a":{"b":{"c":3}},"a.b":7})", v, nullptr));
    const Value *c = v.findPath("a.b.c");
    ASSERT_NE(c, nullptr);
    EXPECT_DOUBLE_EQ(c->number(), 3.0);
    // Literal keys win over path splitting where both exist.
    const Value *literal = v.findPath("a.b");
    ASSERT_NE(literal, nullptr);
    EXPECT_DOUBLE_EQ(literal->number(), 7.0);
    EXPECT_EQ(v.findPath("a.x"), nullptr);
}

TEST(JsonSerialize, RoundTripPreservesStructure)
{
    Value v;
    ASSERT_TRUE(parse(
        R"({"s":"q\"uote","n":-2.5,"b":false,"l":[1,null],"o":{}})", v,
        nullptr));
    Value again;
    ASSERT_TRUE(parse(serialize(v), again, nullptr));
    EXPECT_EQ(again.find("s")->str(), "q\"uote");
    EXPECT_DOUBLE_EQ(again.find("n")->number(), -2.5);
    EXPECT_FALSE(again.find("b")->boolean());
    ASSERT_EQ(again.find("l")->array().size(), 2u);
    EXPECT_TRUE(again.find("l")->array()[1].isNull());
    EXPECT_TRUE(again.find("o")->object().empty());
}

} // namespace
} // namespace vespera::json
