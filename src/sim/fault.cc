#include "fault.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <sstream>

#include "sim/chaos.h"
#include "sim/event.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace ct::sim {

namespace {

/** Derive an independent stream seed for one fault class. */
std::uint64_t
streamSeed(std::uint64_t seed, std::uint64_t stream)
{
    // splitmix64-style mixing keeps the per-class streams decorrelated
    // even for small consecutive seeds.
    std::uint64_t z = seed + stream * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Non-fatal field parsers: false with a diagnostic in @p error. */

bool
parseRate(const std::string &key, const std::string &value,
          double &out, std::string *error)
{
    char *end = nullptr;
    out = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') {
        if (error)
            *error = "bad value '" + value + "' for " + key;
        return false;
    }
    if (!(out >= 0.0 && out <= 1.0)) { // NaN fails both
        if (error)
            *error = key + "=" + value + " outside [0, 1]";
        return false;
    }
    return true;
}

bool
parseCount(const std::string &key, const std::string &value,
           std::uint64_t &out, std::string *error)
{
    if (!util::parseDecimal(value, 0, UINT64_MAX, out)) {
        if (error)
            *error = "bad value '" + value + "' for " + key;
        return false;
    }
    return true;
}

/** Parse "ID@CYCLE" (the "@CYCLE" part optional, default 0). */
bool
parseOutage(const std::string &key, const std::string &value,
            FaultSpec::Outage &out, std::string *error)
{
    auto at = value.find('@');
    std::uint64_t id = 0;
    if (!parseCount(key, value.substr(0, at), id, error))
        return false;
    if (id > static_cast<std::uint64_t>(INT32_MAX)) {
        if (error)
            *error = "id '" + value.substr(0, at) + "' out of range for " +
                     key;
        return false;
    }
    out.id = static_cast<std::int32_t>(id);
    std::uint64_t cycle = 0;
    if (at != std::string::npos) {
        if (!parseCount(key, value.substr(at + 1), cycle, error))
            return false;
    }
    out.at = cycle;
    return true;
}

} // namespace

bool
FaultSpec::any() const
{
    return drop > 0.0 || corrupt > 0.0 || dup > 0.0 ||
           (delayMax > 0 && delayRate > 0.0) || engineStall > 0.0 ||
           engineFail > 0.0 || !linkDown.empty() ||
           !nodeDown.empty() || linkFailRate > 0.0;
}

std::optional<FaultSpec>
FaultSpec::tryParse(const std::string &spec, std::string *error)
{
    FaultSpec out;
    bool delay_rate_given = false;
    std::vector<std::string> seen;
    for (const std::string &field : util::split(spec, ',')) {
        std::string_view item = util::trim(field);
        if (item.empty())
            continue;
        auto eq = item.find('=');
        if (eq == std::string_view::npos) {
            if (error)
                *error = "expected key=value, got '" +
                         std::string(item) + "'";
            return std::nullopt;
        }
        std::string key(util::trim(item.substr(0, eq)));
        std::string value(util::trim(item.substr(eq + 1)));
        // Outage keys are repeatable; everything else set twice is a
        // typo that would silently discard the first setting.
        if (key != "link_down" && key != "node_down") {
            if (std::find(seen.begin(), seen.end(), key) !=
                seen.end()) {
                if (error)
                    *error = "duplicate key '" + key + "'";
                return std::nullopt;
            }
            seen.push_back(key);
        }
        bool ok;
        std::uint64_t count = 0;
        if (key == "drop")
            ok = parseRate(key, value, out.drop, error);
        else if (key == "corrupt")
            ok = parseRate(key, value, out.corrupt, error);
        else if (key == "dup")
            ok = parseRate(key, value, out.dup, error);
        else if (key == "delay") {
            if ((ok = parseCount(key, value, count, error)))
                out.delayMax = count;
        } else if (key == "delay_rate") {
            ok = parseRate(key, value, out.delayRate, error);
            delay_rate_given = true;
        } else if (key == "engine_stall")
            ok = parseRate(key, value, out.engineStall, error);
        else if (key == "engine_stall_cycles") {
            if ((ok = parseCount(key, value, count, error)))
                out.engineStallCycles = count;
        } else if (key == "engine_fail")
            ok = parseRate(key, value, out.engineFail, error);
        else if (key == "link_down") {
            Outage outage;
            if ((ok = parseOutage(key, value, outage, error)))
                out.linkDown.push_back(outage);
        } else if (key == "node_down") {
            Outage outage;
            if ((ok = parseOutage(key, value, outage, error)))
                out.nodeDown.push_back(outage);
        } else if (key == "link_fail_rate")
            ok = parseRate(key, value, out.linkFailRate, error);
        else if (key == "seed")
            ok = parseCount(key, value, out.seed, error);
        else {
            if (error)
                *error = "unknown key '" + key +
                         "' (expected drop, corrupt, dup, delay, "
                         "delay_rate, engine_stall, "
                         "engine_stall_cycles, engine_fail, "
                         "link_down, node_down, link_fail_rate, "
                         "seed)";
            return std::nullopt;
        }
        if (!ok)
            return std::nullopt;
    }
    if (out.delayMax > 0 && !delay_rate_given)
        out.delayRate = 0.01;
    return out;
}

FaultSpec
FaultSpec::parse(const std::string &spec)
{
    std::string error;
    std::optional<FaultSpec> out = tryParse(spec, &error);
    if (!out)
        util::fatal("FaultSpec: ", error);
    return *out;
}

std::string
FaultSpec::summary() const
{
    std::ostringstream os;
    const char *sep = "";
    auto field = [&](const char *name, double v) {
        if (v > 0.0) {
            os << sep << name << '=' << v;
            sep = ",";
        }
    };
    field("drop", drop);
    field("corrupt", corrupt);
    field("dup", dup);
    if (delayMax > 0 && delayRate > 0.0) {
        os << sep << "delay=" << delayMax
           << ",delay_rate=" << delayRate;
        sep = ",";
    }
    field("engine_stall", engineStall);
    field("engine_fail", engineFail);
    for (const Outage &o : linkDown) {
        os << sep << "link_down=" << o.id << '@' << o.at;
        sep = ",";
    }
    for (const Outage &o : nodeDown) {
        os << sep << "node_down=" << o.id << '@' << o.at;
        sep = ",";
    }
    field("link_fail_rate", linkFailRate);
    if (sep[0] == '\0')
        return "none";
    os << sep << "seed=" << seed;
    return os.str();
}

FaultInjector::FaultInjector(const FaultSpec &spec,
                             obs::MetricsRegistry *registry)
    : cfg(spec), dropRng(streamSeed(spec.seed, 1)),
      corruptRng(streamSeed(spec.seed, 2)),
      dupRng(streamSeed(spec.seed, 3)),
      delayRng(streamSeed(spec.seed, 4)),
      engineRng(streamSeed(spec.seed, 5)),
      linkRng(streamSeed(spec.seed, 6))
{
    if (!registry) {
        ownedRegistry = std::make_unique<obs::MetricsRegistry>();
        registry = ownedRegistry.get();
    }
    m.drops = registry->counter("sim.fault.drops");
    m.corruptions = registry->counter("sim.fault.corruptions");
    m.duplicates = registry->counter("sim.fault.duplicates");
    m.delays = registry->counter("sim.fault.delays");
    m.delayCycles = registry->counter("sim.fault.delay_cycles");
    m.engineStalls = registry->counter("sim.fault.engine_stalls");
    m.engineStallCycles =
        registry->counter("sim.fault.engine_stall_cycles");
    m.engineFailures = registry->counter("sim.fault.engine_failures");
    m.linkFailures = registry->counter("sim.fault.link_failures");
}

void
FaultInjector::setChaos(const ChaosSchedule *schedule,
                        const EventQueue *clock)
{
    if (schedule && !clock)
        util::fatal("FaultInjector::setChaos: a schedule needs a "
                    "clock");
    chaos = schedule;
    chaosClock = clock;
}

double
FaultInjector::chaosRate(int cls) const
{
    if (!chaos)
        return 0.0;
    return chaos->rateAt(static_cast<ChaosSchedule::RateClass>(cls),
                         chaosClock->now());
}

const FaultStats &
FaultInjector::stats() const
{
    view.drops = m.drops.value();
    view.corruptions = m.corruptions.value();
    view.duplicates = m.duplicates.value();
    view.delays = m.delays.value();
    view.delayCycles = m.delayCycles.value();
    view.engineStalls = m.engineStalls.value();
    view.engineStallCycles = m.engineStallCycles.value();
    view.engineFailures = m.engineFailures.value();
    view.linkFailures = m.linkFailures.value();
    return view;
}

bool
FaultInjector::rollDrop()
{
    using RC = ChaosSchedule::RateClass;
    bool scheduled = chaos && chaos->hasRate(RC::Drop);
    if (cfg.drop <= 0.0 && !scheduled)
        return false;
    // The draw happens whenever the class is *active* (static rate
    // or schedule), not whenever the current rate is non-zero: a
    // ramp still at zero must consume the same draws it consumes on
    // replay.
    double rate = cfg.drop;
    if (scheduled)
        rate = std::min(
            1.0, rate + chaosRate(static_cast<int>(RC::Drop)));
    bool hit = dropRng.nextDouble() < rate;
    if (hit)
        m.drops.inc();
    return hit;
}

bool
FaultInjector::rollCorrupt()
{
    using RC = ChaosSchedule::RateClass;
    bool scheduled = chaos && chaos->hasRate(RC::Corrupt);
    if (cfg.corrupt <= 0.0 && !scheduled)
        return false;
    double rate = cfg.corrupt;
    if (scheduled)
        rate = std::min(
            1.0, rate + chaosRate(static_cast<int>(RC::Corrupt)));
    bool hit = corruptRng.nextDouble() < rate;
    if (hit)
        m.corruptions.inc();
    return hit;
}

bool
FaultInjector::rollDuplicate()
{
    using RC = ChaosSchedule::RateClass;
    bool scheduled = chaos && chaos->hasRate(RC::Dup);
    if (cfg.dup <= 0.0 && !scheduled)
        return false;
    double rate = cfg.dup;
    if (scheduled)
        rate = std::min(
            1.0, rate + chaosRate(static_cast<int>(RC::Dup)));
    bool hit = dupRng.nextDouble() < rate;
    if (hit)
        m.duplicates.inc();
    return hit;
}

Cycles
FaultInjector::rollDelay()
{
    if (cfg.delayMax == 0 || cfg.delayRate <= 0.0)
        return 0;
    if (delayRng.nextDouble() >= cfg.delayRate)
        return 0;
    Cycles extra = 1 + delayRng.nextBelow(cfg.delayMax);
    m.delays.inc();
    m.delayCycles.add(extra);
    return extra;
}

void
FaultInjector::corruptPayload(Packet &packet)
{
    if (packet.words.empty())
        return;
    std::uint64_t word = corruptRng.nextBelow(packet.words.size());
    std::uint64_t bit = corruptRng.nextBelow(64);
    packet.words[word] ^= 1ULL << bit;
}

Cycles
FaultInjector::rollEngineStall()
{
    if (cfg.engineStall <= 0.0 || cfg.engineStallCycles == 0)
        return 0;
    if (engineRng.nextDouble() >= cfg.engineStall)
        return 0;
    m.engineStalls.inc();
    m.engineStallCycles.add(cfg.engineStallCycles);
    return cfg.engineStallCycles;
}

bool
FaultInjector::rollEngineFailure()
{
    if (cfg.engineFail <= 0.0)
        return false;
    bool hit = engineRng.nextDouble() < cfg.engineFail;
    if (hit)
        m.engineFailures.inc();
    return hit;
}

bool
FaultInjector::rollLinkFailure()
{
    if (cfg.linkFailRate <= 0.0)
        return false;
    bool hit = linkRng.nextDouble() < cfg.linkFailRate;
    if (hit)
        m.linkFailures.inc();
    return hit;
}

std::uint64_t
FaultInjector::pickFailingLink(std::uint64_t route_links)
{
    return linkRng.nextBelow(route_links);
}

} // namespace ct::sim
