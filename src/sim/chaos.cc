#include "chaos.h"

#include <algorithm>
#include <climits>
#include <cstdlib>
#include <sstream>

#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace ct::sim {

namespace {

/**
 * Victim-selection stream seed. Same splitmix64-style mixing as the
 * injector's per-class streams (fault.cc), on a stream id far above
 * the injector's 1..6 so the two families never collide.
 */
std::uint64_t
victimStreamSeed(std::uint64_t seed)
{
    std::uint64_t z = seed + 101 * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

bool
parseRateField(const std::string &token, double &out,
               std::string *error)
{
    char *end = nullptr;
    out = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') {
        if (error)
            *error = "bad rate '" + token + "'";
        return false;
    }
    if (!(out >= 0.0 && out <= 1.0)) { // NaN fails both
        if (error)
            *error = "rate '" + token + "' outside [0, 1]";
        return false;
    }
    return true;
}

bool
parseCountField(const std::string &token, std::uint64_t &out,
                std::string *error)
{
    if (!util::parseDecimal(token, 0, UINT64_MAX, out)) {
        if (error)
            *error = "bad count '" + token + "'";
        return false;
    }
    return true;
}

std::optional<ChaosSchedule::RateClass>
parseClass(const std::string &token)
{
    using RC = ChaosSchedule::RateClass;
    if (token == "drop")
        return RC::Drop;
    if (token == "corrupt")
        return RC::Corrupt;
    if (token == "dup")
        return RC::Dup;
    return std::nullopt;
}

const char *
className(ChaosSchedule::RateClass cls)
{
    using RC = ChaosSchedule::RateClass;
    switch (cls) {
      case RC::Drop:
        return "drop";
      case RC::Corrupt:
        return "corrupt";
      case RC::Dup:
        return "dup";
    }
    return "?";
}

bool
fail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

/** Parse one semicolon-separated item into @p out. */
bool
parseItem(const std::string &item, ChaosSchedule &out,
          std::string *error)
{
    std::vector<std::string> f;
    for (const std::string &field : util::split(item, ':'))
        f.emplace_back(util::trim(field));
    const std::string &verb = f[0];

    if (verb == "seed") {
        if (f.size() != 2)
            return fail(error, "seed takes one field, got '" + item +
                                   "'");
        return parseCountField(f[1], out.seed, error);
    }

    if (verb == "step" || verb == "ramp") {
        bool step = verb == "step";
        std::size_t want = step ? 4 : 6;
        if (f.size() != want)
            return fail(error, verb + " takes " +
                                   (step ? std::string("CLASS:R:T")
                                         : std::string(
                                               "CLASS:R0:R1:T0:T1")) +
                                   ", got '" + item + "'");
        auto cls = parseClass(f[1]);
        if (!cls)
            return fail(error, "unknown fault class '" + f[1] +
                                   "' (expected drop, corrupt, dup)");
        ChaosSchedule::RatePhase phase;
        phase.cls = *cls;
        std::uint64_t t0 = 0, t1 = 0;
        if (step) {
            if (!parseRateField(f[2], phase.r1, error) ||
                !parseCountField(f[3], t0, error))
                return false;
            phase.r0 = phase.r1;
            phase.t0 = phase.t1 = t0;
        } else {
            if (!parseRateField(f[2], phase.r0, error) ||
                !parseRateField(f[3], phase.r1, error) ||
                !parseCountField(f[4], t0, error) ||
                !parseCountField(f[5], t1, error))
                return false;
            if (t1 <= t0)
                return fail(error, "ramp needs T1 > T0 in '" + item +
                                       "'");
            phase.t0 = t0;
            phase.t1 = t1;
        }
        out.phases.push_back(phase);
        return true;
    }

    if (verb == "cascade" || verb == "flap") {
        bool cascade = verb == "cascade";
        std::size_t want = cascade ? 5 : 6;
        if (f.size() != want)
            return fail(error,
                        verb + " takes " +
                            (cascade
                                 ? std::string("link|node:N:T:GAP")
                                 : std::string(
                                       "link|node:N:T:PERIOD:DOWN")) +
                            ", got '" + item + "'");
        bool nodes;
        if (f[1] == "link")
            nodes = false;
        else if (f[1] == "node")
            nodes = true;
        else
            return fail(error, "unknown target '" + f[1] +
                                   "' (expected link or node)");
        std::uint64_t count = 0;
        if (!parseCountField(f[2], count, error))
            return false;
        if (count == 0)
            return fail(error, verb + " needs at least one victim "
                                      "in '" +
                                   item + "'");
        if (count > INT_MAX)
            return fail(error, "victim count '" + f[2] +
                                   "' out of range in '" + item + "'");
        if (cascade) {
            ChaosSchedule::Cascade c;
            c.nodes = nodes;
            c.count = static_cast<int>(count);
            std::uint64_t at = 0, gap = 0;
            if (!parseCountField(f[3], at, error) ||
                !parseCountField(f[4], gap, error))
                return false;
            c.at = at;
            c.gap = gap;
            out.cascades.push_back(c);
        } else {
            ChaosSchedule::Flap fl;
            fl.nodes = nodes;
            fl.count = static_cast<int>(count);
            std::uint64_t at = 0, period = 0, down = 0;
            if (!parseCountField(f[3], at, error) ||
                !parseCountField(f[4], period, error) ||
                !parseCountField(f[5], down, error))
                return false;
            if (period == 0 || down == 0 || down >= period)
                return fail(error,
                            "flap needs 0 < DOWN < PERIOD in '" +
                                item + "'");
            fl.spec = {at, period, down};
            out.flaps.push_back(fl);
        }
        return true;
    }

    return fail(error, "unknown verb '" + verb +
                           "' (expected seed, step, ramp, cascade, "
                           "flap)");
}

} // namespace

bool
ChaosSchedule::any() const
{
    return !phases.empty() || !cascades.empty() || !flaps.empty();
}

bool
ChaosSchedule::hasRate(RateClass cls) const
{
    for (const RatePhase &phase : phases)
        if (phase.cls == cls)
            return true;
    return false;
}

double
ChaosSchedule::rateAt(RateClass cls, Cycles now) const
{
    double rate = 0.0;
    for (const RatePhase &phase : phases) {
        if (phase.cls != cls || now < phase.t0)
            continue;
        if (now >= phase.t1)
            rate += phase.r1;
        else
            rate += phase.r0 + (phase.r1 - phase.r0) *
                                   static_cast<double>(now - phase.t0) /
                                   static_cast<double>(phase.t1 -
                                                       phase.t0);
    }
    return std::min(rate, 1.0);
}

std::optional<ChaosSchedule>
ChaosSchedule::tryParse(const std::string &spec, std::string *error)
{
    ChaosSchedule out;
    for (const std::string &item : util::split(spec, ';')) {
        std::string trimmed(util::trim(item));
        if (trimmed.empty())
            continue;
        if (!parseItem(trimmed, out, error))
            return std::nullopt;
    }
    return out;
}

ChaosSchedule
ChaosSchedule::parse(const std::string &spec)
{
    std::string error;
    std::optional<ChaosSchedule> out = tryParse(spec, &error);
    if (!out)
        util::fatal("ChaosSchedule: ", error);
    return *out;
}

std::string
ChaosSchedule::summary() const
{
    if (!any())
        return "none";
    std::ostringstream os;
    const char *sep = "";
    for (const RatePhase &phase : phases) {
        os << sep;
        if (phase.t0 == phase.t1)
            os << "step:" << className(phase.cls) << ':' << phase.r1
               << ':' << phase.t0;
        else
            os << "ramp:" << className(phase.cls) << ':' << phase.r0
               << ':' << phase.r1 << ':' << phase.t0 << ':'
               << phase.t1;
        sep = ";";
    }
    for (const Cascade &c : cascades) {
        os << sep << "cascade:" << (c.nodes ? "node" : "link") << ':'
           << c.count << ':' << c.at << ':' << c.gap;
        sep = ";";
    }
    for (const Flap &fl : flaps) {
        os << sep << "flap:" << (fl.nodes ? "node" : "link") << ':'
           << fl.count << ':' << fl.spec.at << ':' << fl.spec.period
           << ':' << fl.spec.down;
        sep = ";";
    }
    os << sep << "seed:" << seed;
    return os.str();
}

void
ChaosSchedule::applyOutages(Topology &topo) const
{
    if (cascades.empty() && flaps.empty())
        return;
    util::Rng rng(victimStreamSeed(seed));

    // Draw @p count distinct victims from [0, space).
    auto draw = [&rng](int count, int space, const char *what) {
        if (count > space)
            util::fatal("ChaosSchedule: ", what, " wants ", count,
                        " victims but the machine only has ", space);
        std::vector<int> victims;
        while (static_cast<int>(victims.size()) < count) {
            int v = static_cast<int>(
                rng.nextBelow(static_cast<std::uint64_t>(space)));
            if (std::find(victims.begin(), victims.end(), v) ==
                victims.end())
                victims.push_back(v);
        }
        return victims;
    };

    for (const Cascade &c : cascades) {
        auto victims =
            draw(c.count,
                 c.nodes ? topo.nodeCount() : topo.networkLinkCount(),
                 c.nodes ? "node cascade" : "link cascade");
        for (std::size_t i = 0; i < victims.size(); ++i) {
            Cycles at = c.at + static_cast<Cycles>(i) * c.gap;
            if (c.nodes)
                topo.downNode(victims[i], at);
            else
                topo.downLink(victims[i], at);
        }
    }
    for (const Flap &fl : flaps) {
        auto victims = draw(fl.count,
                            fl.nodes ? topo.nodeCount()
                                     : topo.networkLinkCount(),
                            fl.nodes ? "node flap" : "link flap");
        for (int v : victims) {
            if (fl.nodes)
                topo.flapNode(v, fl.spec);
            else
                topo.flapLink(v, fl.spec);
        }
    }
}

} // namespace ct::sim
