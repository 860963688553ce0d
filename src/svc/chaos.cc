#include "svc/chaos.h"

#include <cstdlib>
#include <sstream>

#include "util/rng.h"
#include "util/string_util.h"

namespace ct::svc {

namespace {

/** FNV-1a over a byte string (stable decision hashing). */
std::uint64_t
fnv1a(const std::string &s, std::uint64_t state)
{
    for (unsigned char c : s) {
        state ^= c;
        state *= 0x100000001B3ULL;
    }
    return state;
}

std::uint64_t
fnv1aU64(std::uint64_t v, std::uint64_t state)
{
    for (int i = 0; i < 8; ++i) {
        state ^= (v >> (i * 8)) & 0xFFu;
        state *= 0x100000001B3ULL;
    }
    return state;
}

/**
 * Private decision stream: seed mixed with a per-purpose tag and the
 * stable identifier. Each decision draws from a fresh Rng so no
 * ordering between decisions can shift any other decision.
 */
util::Rng
streamFor(std::uint64_t seed, const char *tag, std::uint64_t id)
{
    std::uint64_t h = fnv1a(tag, 0xcbf29ce484222325ULL);
    h = fnv1aU64(id, h);
    return util::Rng(seed ^ h);
}

util::Rng
streamForKey(std::uint64_t seed, const char *tag,
             const std::string &key)
{
    std::uint64_t h = fnv1a(tag, 0xcbf29ce484222325ULL);
    h = fnv1a(key, h);
    return util::Rng(seed ^ h);
}

bool
splitFields(const std::string &item, std::vector<std::string> &out)
{
    out.clear();
    std::size_t start = 0;
    while (true) {
        std::size_t colon = item.find(':', start);
        if (colon == std::string::npos) {
            out.push_back(item.substr(start));
            return !out.back().empty();
        }
        out.push_back(item.substr(start, colon - start));
        if (out.back().empty())
            return false;
        start = colon + 1;
    }
}

bool
parseRate(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    if (*end != '\0' || v < 0.0 || v > 1.0)
        return false;
    out = v;
    return true;
}

} // namespace

bool
SvcChaos::stallFor(std::uint64_t index) const
{
    if (stallRate <= 0.0)
        return false;
    util::Rng rng = streamFor(seed, "svc.stall", index);
    return rng.nextDouble() < stallRate;
}

std::optional<std::uint32_t>
SvcChaos::flipBitFor(const std::string &key) const
{
    if (flipRate <= 0.0)
        return std::nullopt;
    util::Rng rng = streamForKey(seed, "svc.flip", key);
    if (rng.nextDouble() >= flipRate)
        return std::nullopt;
    return static_cast<std::uint32_t>(rng.nextBelow(1u << 20));
}

bool
SvcChaos::saturatedAt(std::uint64_t index) const
{
    for (const SaturationWindow &w : saturations)
        if (index >= w.start && index - w.start < w.count)
            return true;
    return false;
}

std::optional<SvcChaos>
SvcChaos::tryParse(const std::string &spec, std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return std::nullopt;
    };

    SvcChaos chaos;
    // "none" is the canonical rendering of an inactive plan (see
    // summary()); accept it so summaries always round-trip.
    if (spec.empty() || spec == "none")
        return chaos;

    std::vector<std::string> items;
    std::size_t start = 0;
    while (true) {
        std::size_t semi = spec.find(';', start);
        if (semi == std::string::npos) {
            items.push_back(spec.substr(start));
            break;
        }
        items.push_back(spec.substr(start, semi - start));
        start = semi + 1;
    }

    bool seed_seen = false, stall_seen = false, flip_seen = false;
    for (const std::string &item : items) {
        if (item.empty())
            return fail("empty item in svc-chaos spec");

        std::vector<std::string> f;
        if (!splitFields(item, f))
            return fail("empty field in svc-chaos item '" + item +
                        "'");
        const std::string &verb = f[0];
        if (verb == "seed") {
            if (f.size() != 2 ||
                !util::parseDecimal(f[1], 0, UINT64_MAX, chaos.seed))
                return fail("bad seed item '" + item +
                            "' (expected seed:N)");
            if (seed_seen)
                return fail("duplicate seed item '" + item + "'");
            seed_seen = true;
        } else if (verb == "stall") {
            std::uint64_t ms = 0;
            if (f.size() != 3 || !parseRate(f[1], chaos.stallRate) ||
                !util::parseDecimal(f[2], 0, 60000, ms))
                return fail("bad stall item '" + item +
                            "' (expected stall:RATE:MS, rate in "
                            "[0,1], ms <= 60000)");
            if (stall_seen)
                return fail("duplicate stall item '" + item + "'");
            chaos.stallMillis = static_cast<std::uint32_t>(ms);
            stall_seen = true;
        } else if (verb == "flip") {
            if (f.size() != 2 || !parseRate(f[1], chaos.flipRate))
                return fail("bad flip item '" + item +
                            "' (expected flip:RATE, rate in [0,1])");
            if (flip_seen)
                return fail("duplicate flip item '" + item + "'");
            flip_seen = true;
        } else if (verb == "satq") {
            SaturationWindow w;
            if (f.size() != 3 ||
                !util::parseDecimal(f[1], 0, UINT64_MAX, w.start) ||
                !util::parseDecimal(f[2], 1, UINT64_MAX, w.count))
                return fail("bad satq item '" + item +
                            "' (expected satq:START:COUNT, "
                            "count > 0)");
            chaos.saturations.push_back(w);
        } else
            return fail("unknown svc-chaos verb '" + verb + "'");
    }
    return chaos;
}

std::string
SvcChaos::summary() const
{
    if (!any())
        return "none";
    std::ostringstream os;
    os << "seed:" << seed;
    if (stallRate > 0.0)
        os << ";stall:" << stallRate << ':' << stallMillis;
    if (flipRate > 0.0)
        os << ";flip:" << flipRate;
    for (const SaturationWindow &w : saturations)
        os << ";satq:" << w.start << ':' << w.count;
    return os.str();
}

} // namespace ct::svc
