/**
 * @file
 * Seeded round-trip and garbage fuzzing of the service's flat-JSON
 * parser (svc::parseFlatJson), the first thing every untrusted
 * request line meets. Every input either is rejected with a
 * diagnostic or parses to an object that JsonWriter renders back to
 * a line parsing to the same object; no input may crash or hang the
 * parser or the request layer above it.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "svc/json.h"
#include "svc/request.h"
#include "util/rng.h"

namespace {

using namespace ct;
using svc::JsonObject;
using svc::JsonValue;
using util::Rng;

/** Any byte string: printable text, quotes, backslashes, control
 *  characters and high (UTF-8) bytes. */
std::string
randomText(Rng &rng)
{
    static const std::string specials = "\"\\/\n\t\r\b\f\x01\x1f";
    std::string out;
    for (std::uint64_t n = rng.nextBelow(12); n > 0; --n) {
        switch (rng.nextBelow(4)) {
          case 0:
            out += specials[rng.nextBelow(specials.size())];
            break;
          case 1:
            out += static_cast<char>(0x80 + rng.nextBelow(0x80));
            break;
          default:
            out += static_cast<char>(0x20 + rng.nextBelow(0x5f));
            break;
        }
    }
    return out;
}

/** Render @p value the way a response would carry it. */
void
writeValue(svc::JsonWriter &w, const std::string &key,
           const JsonValue &value)
{
    switch (value.kind) {
      case JsonValue::Kind::String:
        w.field(key, value.str);
        break;
      case JsonValue::Kind::Bool:
        w.field(key, value.boolean);
        break;
      case JsonValue::Kind::Null:
        w.raw(key, "null");
        break;
      case JsonValue::Kind::Number: {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value.num);
        w.raw(key, buf);
        break;
      }
    }
}

std::string
render(const JsonObject &obj)
{
    svc::JsonWriter w;
    for (const auto &[key, value] : obj)
        writeValue(w, key, value);
    return w.str();
}

void
expectSameObject(const JsonObject &a, const JsonObject &b,
                 const std::string &line)
{
    ASSERT_EQ(a.size(), b.size()) << line;
    for (const auto &[key, value] : a) {
        auto it = b.find(key);
        ASSERT_NE(it, b.end()) << "key lost: " << line;
        const JsonValue &other = it->second;
        ASSERT_EQ(value.kind, other.kind) << line;
        EXPECT_EQ(value.str, other.str) << line;
        EXPECT_EQ(value.boolean, other.boolean) << line;
        if (value.kind == JsonValue::Kind::Number) {
            EXPECT_TRUE(std::isfinite(value.num)) << line;
            EXPECT_EQ(std::memcmp(&value.num, &other.num, 8), 0)
                << line;
        }
    }
}

/** A random well-formed object written through JsonWriter. */
std::pair<JsonObject, std::string>
randomObject(Rng &rng)
{
    JsonObject expect;
    svc::JsonWriter w;
    for (std::uint64_t n = rng.nextBelow(6); n > 0; --n) {
        std::string key = randomText(rng);
        if (expect.count(key))
            continue;
        JsonValue value;
        switch (rng.nextBelow(5)) {
          case 0:
            value.kind = JsonValue::Kind::String;
            value.str = randomText(rng);
            w.field(key, value.str);
            break;
          case 1:
            value.kind = JsonValue::Kind::Bool;
            value.boolean = rng.nextBelow(2) == 1;
            w.field(key, value.boolean);
            break;
          case 2: {
            // Integers up to 2^53 are exact in a double.
            std::uint64_t v = rng.next() >> (11 + rng.nextBelow(50));
            value.kind = JsonValue::Kind::Number;
            value.num = static_cast<double>(v);
            w.field(key, v);
            break;
          }
          case 3: {
            double v = (rng.nextDouble() - 0.5) * 1e6;
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.3f", v);
            value.kind = JsonValue::Kind::Number;
            value.num = std::strtod(buf, nullptr);
            w.fixed(key, v);
            break;
          }
          default:
            value.kind = JsonValue::Kind::Null;
            w.raw(key, "null");
            break;
        }
        expect.emplace(key, value);
    }
    return {expect, w.str()};
}

/** Garbage derived from @p valid by character edits drawn from the
 *  JSON alphabet, or a fully random byte string. */
std::string
mutate(Rng &rng, const std::string &valid)
{
    static const std::string alphabet =
        "{}[]:,\"\\ ntrufalse0123456789.-+eEu\x01\xff";
    auto random_char = [&] {
        return alphabet[rng.nextBelow(alphabet.size())];
    };
    if (rng.nextBelow(8) == 0) {
        std::string out;
        for (std::uint64_t n = rng.nextBelow(40); n > 0; --n)
            out += static_cast<char>(rng.nextBelow(256));
        return out;
    }
    std::string out = valid;
    for (std::uint64_t edits = 1 + rng.nextBelow(4); edits > 0;
         --edits) {
        std::size_t at = out.empty() ? 0 : rng.nextBelow(out.size());
        switch (rng.nextBelow(4)) {
          case 0:
            out.insert(out.begin() + static_cast<long>(at),
                       random_char());
            break;
          case 1:
            if (!out.empty())
                out.erase(out.begin() + static_cast<long>(at));
            break;
          case 2:
            if (!out.empty())
                out[at] = random_char();
            break;
          default:
            // Truncate: unterminated strings, escapes and objects.
            out.resize(at);
            break;
        }
    }
    return out;
}

const std::string kRequestSeeds[] = {
    R"({"id":7,"op":"plan","machine":"t3d","xqy":"1Q16"})",
    R"({"id":8,"op":"sim","machine":"paragon","xqy":"wQw","words":4096,"budget":1000})",
    R"({"id":9,"op":"sim","machine":"t3d","xqy":"1Q1","faults":"drop=0.01,seed=3"})",
    R"({"id":10,"op":"health"})",
    R"({"k":"a\"b\\c\nd\te\u0001","n":-1.5e3,"b":false,"z":null})",
};

class FlatJsonFuzz : public testing::TestWithParam<std::uint64_t>
{};

TEST_P(FlatJsonFuzz, WriterOutputRoundTrips)
{
    Rng rng(GetParam());
    for (int round = 0; round < 400; ++round) {
        auto [expect, line] = randomObject(rng);
        std::string error;
        auto parsed = svc::parseFlatJson(line, &error);
        ASSERT_TRUE(parsed) << line << ": " << error;
        expectSameObject(expect, *parsed, line);
    }
}

TEST_P(FlatJsonFuzz, GarbageIsRejectedOrRoundTrips)
{
    Rng rng(GetParam());
    int accepted = 0;
    for (int round = 0; round < 3000; ++round) {
        std::string valid = rng.nextBelow(2) == 0
                                ? kRequestSeeds[rng.nextBelow(
                                      std::size(kRequestSeeds))]
                                : randomObject(rng).second;
        std::string line = mutate(rng, valid);
        std::string error;
        auto parsed = svc::parseFlatJson(line, &error);
        if (!parsed) {
            EXPECT_FALSE(error.empty()) << "silent reject: " << line;
            continue;
        }
        ++accepted;
        std::string again = render(*parsed);
        auto reparsed = svc::parseFlatJson(again, &error);
        ASSERT_TRUE(reparsed) << line << " -> " << again << ": "
                              << error;
        expectSameObject(*parsed, *reparsed, line);

        // The request layer above must answer or reject, never crash.
        std::uint64_t id = 0;
        svc::Request::tryParse(line, &error, &id);
        svc::peekRequestId(line);
    }
    // Some mutations (a changed digit, an edited string) stay valid.
    EXPECT_GT(accepted, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlatJsonFuzz,
                         testing::Values(1995u, 2718u, 1u, 42u, 7u, 99u));

TEST(FlatJsonFuzz, FoundCasesStayFixed)
{
    std::string error;
    // The writer renders other control characters as \u00XX; the
    // parser reads them back.
    auto obj = svc::parseFlatJson(R"({"k":"\u0001\u001f\b\f"})", &error);
    ASSERT_TRUE(obj) << error;
    EXPECT_EQ(obj->at("k").str, "\x01\x1f\b\f");
    svc::JsonWriter w;
    w.field("k", std::string("\x01\x1f"));
    ASSERT_TRUE(svc::parseFlatJson(w.str(), &error)) << error;
    auto utf8 = svc::parseFlatJson(R"({"k":"é€"})", &error);
    ASSERT_TRUE(utf8) << error;
    EXPECT_EQ(utf8->at("k").str, "\xc3\xa9\xe2\x82\xac");

    // Only JSON numbers: no strtod extensions, no overflow to inf.
    for (const char *bad :
         {R"({"n":nan})", R"({"n":inf})", R"({"n":-infinity})",
          R"({"n":0x10})", R"({"n":+1})", R"({"n":1e999})",
          R"({"n":01})", R"({"n":1.})", R"({"n":.5})", R"({"n":1e})",
          R"({"k":"\u12"})", R"({"k":"\ud800"})"}) {
        error.clear();
        EXPECT_FALSE(svc::parseFlatJson(bad, &error)) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
    for (const char *good :
         {R"({"n":0})", R"({"n":-0.5})", R"({"n":1E+2})",
          R"({"n":12.5e-3})"})
        EXPECT_TRUE(svc::parseFlatJson(good, &error)) << good;

    // An id past 2^64 is unreadable, not a wrapped number.
    EXPECT_EQ(svc::peekRequestId(R"({"id":1e30})"), 0u);
    EXPECT_EQ(svc::peekRequestId(R"({"id":12})"), 12u);
}

} // namespace
