#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/analytic_backend.h"
#include "core/machine_params.h"
#include "core/style_registry.h"
#include "core/transfer_program.h"
#include "digest.h"
#include "ops.h"
#include "rt/sim_backend.h"
#include "rt/validation.h"
#include "sim/machine.h"
#include "sim/measure.h"
#include "spans.h"
#include "stats.h"
#include "svc/json.h"
#include "svc/service.h"
#include "sweep/farm.h"
#include "sweep/grid.h"

namespace perfbench {

namespace {

namespace core = ct::core;
namespace sim = ct::sim;
namespace svc = ct::svc;
namespace sweep = ct::sweep;
using P = core::AccessPattern;

double
secondsSince(std::int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

double
msOf(std::int64_t ns)
{
    return static_cast<double>(ns) * 1e-6;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** What one timed phase measured. */
struct Phase
{
    /** Per-op host latency, ms (serve-mix: the closed-loop probe). */
    std::vector<double> latMs;
    double wallS = 0.0;
    std::uint64_t ops = 0;
    /** Payload words of ops that ran the full simulator. */
    std::uint64_t simWords = 0;
    double maxOkRate = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    std::vector<std::string> notes;
    /** Counters of every replayed op (traced phases). */
    CellCounters replayTotals;
    /**
     * Traced phases: the same ops' rate without tracing, measured in
     * the same run (paired runs for cells, an untraced ladder for
     * serve-mix), and the rate with it.
     */
    double untracedOpsPerS = 0.0;
    double tracedOpsPerS = 0.0;

    void fail(const std::string &why)
    {
        ++failed;
        if (failures.size() < 8)
            failures.push_back(why);
    }
    double opsPerS() const { return ratio(static_cast<double>(ops), wallS); }

    /** Fold another phase's checks and notes into this one. */
    void merge(const Phase &other)
    {
        attempted += other.attempted;
        failed += other.failed;
        for (const std::string &f : other.failures)
            if (failures.size() < 8)
                failures.push_back(f);
        notes.insert(notes.end(), other.notes.begin(), other.notes.end());
    }
};

/** Simulated outputs of a workload's canonical op set. */
struct SimSummary
{
    std::vector<double> simMBps;
    std::vector<double> errPct;
    Digest digest;
};

using LayerMetrics = std::map<std::string, double>;

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Start the workload's machinery and run one untimed warm-up op. */
    virtual void setUp() = 0;
    virtual void tearDown() {}
    /**
     * Run ops for at least @p seconds and at least one full pass. With
     * @p log set, record spans and measure each op's untraced twin in
     * the same run (Phase::untracedOpsPerS).
     */
    virtual Phase timed(double seconds, SpanLog *log) = 0;
    /** Checks that run after the timed phase. */
    virtual void postChecks(Phase &) {}
    /** From the last untraced phase's first pass. */
    virtual SimSummary simSummary() const = 0;
    /** Workload-specific per-layer values after a traced phase. */
    virtual void layerMetrics(const Phase &, LayerMetrics &) {}
    /** Canonical-pass counters of the last traced phase. */
    CellCounters canonicalCounters;

  protected:
    /** Host seconds of one op's untraced and traced runs. */
    struct PairTimes
    {
        double untracedS = 0.0, tracedS = 0.0;
    };

    /**
     * Run an op twice, untraced through runCell and traced through
     * its replay, alternating which goes first so neither gets the
     * warmer allocator; check that the replay reproduces runCell.
     */
    static PairTimes pairedRun(const CellOp &op, SpanLog *log,
                               std::uint64_t op_id, Phase &phase,
                               CellCounters *first_pass)
    {
        PairTimes times;
        sweep::CellResult plain;
        Replay rep;
        for (int side = 0; side < 2; ++side) {
            const std::int64_t start = nowNs();
            if ((side == 0) == (op_id % 2 == 0)) {
                plain = sweep::runCell(op.spec);
                times.untracedS = secondsSince(start);
            } else {
                ScopedSpan span(log, "bench.op", op_id);
                rep = replayCell(op.spec, log, op_id);
                times.tracedS = secondsSince(start);
            }
        }
        checkCell(op, plain, phase);
        if (rep.truncated)
            phase.fail(op.spec.id + ": truncated without a budget");
        if (!sameResult(rep.result, plain))
            phase.fail(op.spec.id + ": replay differs from runCell");
        phase.replayTotals += rep.counters;
        if (first_pass)
            *first_pass += rep.counters;
        return times;
    }

    static void checkCell(const CellOp &op, const sweep::CellResult &r,
                          Phase &phase)
    {
        if (r.corruptWords != 0)
            phase.fail(op.spec.id + ": corrupt delivery");
        if (op.simWords > 0 && (r.makespanCycles == 0 || r.simMBps <= 0))
            phase.fail(op.spec.id + ": empty simulation");
        if (r.modelMBps <= 0)
            phase.fail(op.spec.id + ": no model rate");
    }

    static void addCell(SimSummary &s, const CellOp &op,
                        const sweep::CellResult &r)
    {
        if (op.simWords == 0)
            return;
        s.simMBps.push_back(r.simMBps);
        if (r.modelMBps > 0)
            s.errPct.push_back(100.0 * std::fabs(r.modelMBps - r.simMBps) /
                               r.simMBps);
    }
};

/** Indices of @p ops in canonical (cell id) order. */
std::vector<std::size_t>
idOrder(const std::vector<CellOp> &ops)
{
    std::vector<std::size_t> order(ops.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return ops[a].spec.id < ops[b].spec.id;
    });
    return order;
}

// ---------------------------------------------------------------- //

/** Serial closed loop, one client, long pair exchanges. */
class ExchangeLong : public Workload
{
  public:
    /** A closed loop is its own single load step; ops slower than
     *  this miss the latency limit. */
    static constexpr double kLimitMs = 2000.0;

    explicit ExchangeLong(std::uint64_t seed)
        : ops(exchangeLongOps(seed)), reference(ops.size())
    {}

    void setUp() override
    {
        for (const CellOp &op : ops)
            if (op.spec.id == "t3d/chained/1Q1/w65536/drop=0.001,seed=7") {
                sweep::runCell(op.spec);
                return;
            }
        ct::util::fatal("perfbench: exchange-long warm-up cell missing");
    }

    Phase timed(double seconds, SpanLog *log) override
    {
        Phase phase;
        const std::size_t n = ops.size();
        canonicalCounters = {};
        std::uint64_t within = 0;
        double untraced_s = 0.0, traced_s = 0.0;
        const std::int64_t t0 = nowNs();
        // Whole passes only, so every run measures the same op mix.
        for (std::size_t i = 0; i % n != 0 || secondsSince(t0) < seconds;
             ++i) {
            const std::size_t k = i % n;
            const CellOp &op = ops[k];
            ++phase.ops;
            ++phase.attempted;
            phase.simWords += op.simWords;
            if (log) {
                const PairTimes t = pairedRun(
                    op, log, i, phase, i < n ? &canonicalCounters : nullptr);
                untraced_s += t.untracedS;
                traced_s += t.tracedS;
                continue;
            }
            const std::int64_t start = nowNs();
            const sweep::CellResult r = sweep::runCell(op.spec);
            const double lat = msOf(nowNs() - start);
            phase.latMs.push_back(lat);
            checkCell(op, r, phase);
            if (i < n)
                reference[k] = r;
            within += lat <= kLimitMs;
        }
        phase.wallS = secondsSince(t0);
        phase.untracedOpsPerS = ratio(static_cast<double>(phase.ops), untraced_s);
        phase.tracedOpsPerS = ratio(static_cast<double>(phase.ops), traced_s);
        phase.maxOkRate = ratio(static_cast<double>(within), phase.wallS);
        return phase;
    }

    SimSummary simSummary() const override
    {
        SimSummary s;
        for (std::size_t k : idOrder(ops)) {
            addCell(s, ops[k], reference[k]);
            s.digest.add(simValuesOf(reference[k]));
        }
        return s;
    }

  private:
    std::vector<CellOp> ops;
    std::vector<sweep::CellResult> reference;
};

// ---------------------------------------------------------------- //

/** One caller: crossValidate, then a runCell grid over the farm. */
class GridValidate : public Workload
{
  public:
    static constexpr double kLimitMs = 5000.0;

    GridValidate(std::uint64_t seed, int threads)
        : threads(threads), ops(gridValidateOps(seed)),
          reference(ops.size())
    {}

    void setUp() override
    {
        farm = std::make_unique<sweep::Farm>(sweep::FarmOptions{threads, 0});
        for (const CellOp &op : ops)
            if (op.spec.id == "t3d/chained/wQw/w16384") {
                farm->map<sweep::CellResult>(
                    1, [&](std::size_t, int) {
                        return sweep::runCell(op.spec);
                    });
                return;
            }
        ct::util::fatal("perfbench: grid-validate warm-up cell missing");
    }

    void tearDown() override { farm.reset(); }

    Phase timed(double seconds, SpanLog *log) override
    {
        Phase phase;
        const std::size_t n = ops.size();
        canonicalCounters = {};
        batchWallS = cellBusyS = 0.0;
        const sweep::FarmStats before = farm->stats();
        std::uint64_t op_id = 0, within = 0;
        double untraced_s = 0.0, traced_s = 0.0;
        std::size_t pair_cells = 0;
        const std::int64_t t0 = nowNs();
        for (bool first = true; first || secondsSince(t0) < seconds;
             first = false) {
            // The CLI user's validate: each call pays the per-machine
            // measuredTable prelude again.
            std::int64_t start = nowNs();
            ct::rt::ValidationReport report;
            {
                ScopedSpan span(log, "rt.crossValidate", op_id++);
                ct::rt::ValidationOptions vo;
                vo.threads = threads;
                report = ct::rt::crossValidate(vo);
            }
            double lat = msOf(nowNs() - start);
            phase.latMs.push_back(lat);
            within += lat <= kLimitMs;
            ++phase.ops;
            ++phase.attempted;
            if (report.cells.empty() || !report.allPass)
                phase.fail("crossValidate: cells outside the tolerance");
            phase.simWords += report.cells.size() * report.options.words;
            if (first && !log)
                xval = report;

            std::vector<sweep::CellResult> results(n);
            std::vector<double> cell_ms(n);
            std::vector<PairTimes> pair_s(log ? n : 0);
            std::vector<CellCounters> first_pass(first ? n : 0);
            std::vector<Phase> worker_phase(static_cast<std::size_t>(
                std::max(threads, 1)));
            const std::uint64_t base = op_id;
            const std::int64_t batch_start = nowNs();
            farm->forEach(n, [&](std::size_t i, int worker) {
                const std::int64_t s = nowNs();
                if (log)
                    pair_s[i] = pairedRun(
                        ops[i], log, base + i,
                        worker_phase[static_cast<std::size_t>(worker)],
                        first ? &first_pass[i] : nullptr);
                else
                    results[i] = sweep::runCell(ops[i].spec);
                cell_ms[i] = msOf(nowNs() - s);
            });
            batchWallS += secondsSince(batch_start);
            op_id += n;
            pair_cells += log ? n : 0;
            for (std::size_t i = 0; i < n; ++i) {
                phase.latMs.push_back(cell_ms[i]);
                within += cell_ms[i] <= kLimitMs;
                cellBusyS += cell_ms[i] * 1e-3;
                ++phase.ops;
                ++phase.attempted;
                phase.simWords += ops[i].simWords;
                if (!log) {
                    checkCell(ops[i], results[i], phase);
                    continue;
                }
                untraced_s += pair_s[i].untracedS;
                traced_s += pair_s[i].tracedS;
                if (first)
                    canonicalCounters += first_pass[i];
            }
            for (const Phase &wp : worker_phase) {
                phase.merge(wp);
                phase.replayTotals += wp.replayTotals;
            }
            if (first && !log)
                reference = results;
        }
        phase.wallS = secondsSince(t0);
        phase.maxOkRate = ratio(static_cast<double>(within), phase.wallS);
        // Cells only: crossValidate runs once per pass either way.
        const double cells = static_cast<double>(pair_cells);
        phase.untracedOpsPerS = ratio(cells, untraced_s);
        phase.tracedOpsPerS = ratio(cells, traced_s);
        steals = farm->stats().steals - before.steals;
        return phase;
    }

    void postChecks(Phase &phase) override
    {
        // The merged results must not depend on the farm size.
        const std::vector<CellOp> subset = gridIdentitySubset(ops);
        sweep::Farm one(sweep::FarmOptions{1, 0});
        auto serial = one.map<sweep::CellResult>(
            subset.size(), [&](std::size_t i, int) {
                return sweep::runCell(subset[i].spec);
            });
        ++phase.attempted;
        for (std::size_t i = 0; i < subset.size(); ++i)
            for (std::size_t k = 0; k < ops.size(); ++k)
                if (ops[k].spec.id == subset[i].spec.id &&
                    !sameResult(serial[i], reference[k])) {
                    phase.fail(subset[i].spec.id +
                               ": 1-worker result differs from " +
                               std::to_string(threads) + "-worker");
                    return;
                }
    }

    SimSummary simSummary() const override
    {
        SimSummary s;
        for (std::size_t k : idOrder(ops)) {
            addCell(s, ops[k], reference[k]);
            s.digest.add(simValuesOf(reference[k]));
        }
        for (const auto &cell : xval.cells) {
            s.simMBps.push_back(cell.simMBps);
            s.errPct.push_back(std::fabs(cell.errorPct));
            s.digest.add({cell.simMBps, cell.modelMBps, 0, 0});
        }
        return s;
    }

    void layerMetrics(const Phase &, LayerMetrics &m) override
    {
        m["sweep.farm.busy_share"] =
            ratio(cellBusyS, batchWallS * std::max(threads, 1));
        m["sweep.farm.steals"] = static_cast<double>(steals);
    }

  private:
    int threads;
    std::vector<CellOp> ops;
    std::vector<sweep::CellResult> reference;
    ct::rt::ValidationReport xval;
    std::unique_ptr<sweep::Farm> farm;
    double batchWallS = 0.0, cellBusyS = 0.0;
    std::uint64_t steals = 0;
};

// ---------------------------------------------------------------- //

/** Open loop into an in-process PlanService over a rate ladder. */
class ServeMix : public Workload
{
  public:
    /** Requests per second of each ladder step. */
    static constexpr double kRates[] = {750.0, 1500.0, 3000.0, 8000.0};
    /** Latency limit on a step's tail percentile. */
    static constexpr double kLimitMs = 500.0;
    /**
     * Share of the ladder spent at the first rate before the steps
     * start, so the plan cache is in its steady state when the steps
     * are judged (a user does not pay the cold cache per request).
     */
    static constexpr double kSettleShare = 0.1;
    /**
     * op_p50_ms and op_tail_ms come from a closed-loop probe: one
     * client sends this many requests of the stream, each after the
     * previous response, before the ladder starts. With one request in
     * flight the cache hits and misses are a pure function of the
     * stream, so the latency set is the same in every run; under the
     * open-loop ladder the same percentiles depend on how head-of-line
     * stalls happen to cluster (the ladder note still prints them).
     */
    static constexpr std::size_t kProbeRequests = 3000;

    ServeMix(std::uint64_t seed, int threads)
        : seed(seed), workers(std::max(threads - 1, 1))
    {}

    ~ServeMix() override { tearDown(); }

    void setUp() override
    {
        svc::ServiceOptions so;
        so.workers = workers;
        // Large enough that an overloaded step queues instead of
        // rejecting: overload shows as latency, not as failures.
        so.queueCapacity = 1u << 20;
        service = std::make_unique<svc::PlanService>(
            so, [this](const svc::ServiceResponse &r) { onResponse(r); });
        service->start();
        const std::uint64_t warm_id = 1ull << 40;
        expect({warm_id});
        // A sim outside the key space, so the timed ops find the plan
        // cache empty.
        service->submit("{\"id\":" + std::to_string(warm_id) +
                        ",\"op\":\"sim\",\"machine\":\"paragon\","
                        "\"xqy\":\"wQw\",\"words\":8000}");
        service->drain();
    }

    void tearDown() override
    {
        if (service)
            service->stop();
        service.reset();
    }

    Phase timed(double seconds, SpanLog *log) override
    {
        if (!log)
            return ladder(seconds, nullptr);
        // A request cannot run twice, so the untraced baseline is a
        // ladder of its own on a fresh service.
        Phase plain = ladder(seconds / 2.0, nullptr);
        tearDown();
        setUp();
        Phase traced = ladder(seconds / 2.0, log);
        traced.merge(plain);
        traced.untracedOpsPerS = plain.opsPerS();
        traced.tracedOpsPerS = traced.opsPerS();
        return traced;
    }

    /** The closed-loop probe, then the settle step and the ladder. */
    Phase ladder(double seconds, SpanLog *log)
    {
        Phase phase;
        // Step 0 settles the cache; steps 1.. are the ladder.
        std::vector<double> rates = {kRates[0]};
        rates.insert(rates.end(), std::begin(kRates), std::end(kRates));
        const std::size_t steps = rates.size();
        std::vector<std::size_t> step_end;
        std::vector<std::int64_t> due(kProbeRequests, 0);
        std::vector<std::int64_t> step_start;
        std::int64_t offset = 0;
        for (std::size_t i = 0; i < steps; ++i) {
            const double step_s =
                i == 0 ? seconds * kSettleShare
                       : seconds * (1.0 - kSettleShare) /
                             static_cast<double>(std::size(kRates));
            const std::size_t count =
                static_cast<std::size_t>(std::llround(rates[i] * step_s));
            const double gap_ns = 1e9 / rates[i];
            step_start.push_back(offset);
            for (std::size_t j = 0; j < count; ++j)
                due.push_back(offset + std::llround(gap_ns *
                                                    static_cast<double>(j)));
            offset += std::llround(step_s * 1e9);
            step_end.push_back(due.size());
        }
        const std::size_t total = due.size();
        requests = serveMixRequests(seed, total);
        std::vector<std::uint64_t> ids(total);
        for (std::size_t k = 0; k < total; ++k)
            ids[k] = k;
        expect(ids);

        // Closed-loop probe. The client spins for its reply, so the
        // probe times the service, not the client's own wake-up.
        for (std::size_t k = 0; k < kProbeRequests; ++k) {
            due[k] = nowNs();
            submitTraced(k, log);
            while (answered.load() <= k)
                std::this_thread::yield();
        }

        // Open-loop ladder.
        std::vector<double> late_ms;
        std::vector<std::size_t> backlog(steps);
        const std::int64_t t0 = nowNs() + 1000000;
        for (std::size_t k = kProbeRequests; k < total; ++k)
            due[k] += t0;
        for (std::int64_t &s : step_start)
            s += t0;
        for (std::size_t k = kProbeRequests, step = 0; k < total; ++k) {
            std::this_thread::sleep_until(
                std::chrono::steady_clock::time_point(
                    std::chrono::nanoseconds(due[k])));
            late_ms.push_back(msOf(nowNs() - due[k]));
            submitTraced(k, log);
            if (k + 1 == step_end[step])
                backlog[step++] = k + 1 - answered.load();
        }
        service->drain();

        std::lock_guard<std::mutex> lock(mu);
        if (received != total || orderErrors != 0)
            phase.fail("responses out of arrival order or missing");
        phase.attempted = total;
        phase.ops = total - kProbeRequests;
        std::int64_t last = t0;
        for (std::size_t k = kProbeRequests; k < total; ++k)
            last = std::max(last, respNs[k]);
        phase.wallS = static_cast<double>(last - t0) * 1e-9;

        std::map<core::MachineId, std::uint64_t> nodes;
        for (core::MachineId m :
             {core::MachineId::T3d, core::MachineId::Paragon})
            nodes[m] = static_cast<std::uint64_t>(
                sim::Topology(sim::configFor(m).topology).nodeCount());
        std::vector<bool> step_ok(steps, true);
        std::vector<std::vector<double>> step_lat(steps);
        latByKind.assign(3, {});
        for (std::size_t k = 0, step = 0; k < total; ++k) {
            const ServeRequest &req = requests[k];
            const double lat = msOf(respNs[k] - due[k]);
            if (log)
                log->add({"svc.request", due[k], respNs[k], -1, k});
            bool ok = status[k] == svc::Status::Ok ||
                      status[k] == svc::Status::Degraded;
            if (!ok)
                phase.fail(req.line + ": " + svc::statusName(status[k]));
            if (req.kind == ReqKind::Sim && req.budget == 0 &&
                fidelity[k] != svc::Fidelity::Exact) {
                ok = false;
                phase.fail(req.line + ": not exact without a budget");
            }
            if (k < kProbeRequests) {
                phase.latMs.push_back(lat);
                continue;
            }
            while (k >= step_end[step])
                ++step;
            step_lat[step].push_back(lat);
            if (step == 1)
                latByKind[static_cast<std::size_t>(req.kind)].push_back(lat);
            if (req.kind == ReqKind::Sim &&
                fidelity[k] == svc::Fidelity::Exact)
                phase.simWords += req.words * nodes[req.machine];
            step_ok[step] = step_ok[step] && ok;
        }

        std::ostringstream ladder;
        ladder << "ladder (limit " << kLimitMs << " ms on the tail):";
        for (std::size_t i = 1; i < steps; ++i) {
            const Tail tail = tailPercentile(step_lat[i]);
            // No growing backlog: at the step's end no more requests
            // wait than the limit lets the service absorb.
            const double cap = std::max<double>(
                static_cast<double>(workers), rates[i] * kLimitMs * 1e-3);
            const bool pass = step_ok[i] && tail.value <= kLimitMs &&
                              static_cast<double>(backlog[i]) <= cap;
            std::int64_t step_last = step_start[i];
            for (std::size_t k = step_end[i - 1]; k < step_end[i]; ++k)
                step_last = std::max(step_last, respNs[k]);
            const double achieved =
                ratio(static_cast<double>(step_lat[i].size()),
                      static_cast<double>(step_last - step_start[i]) * 1e-9);
            ladder << " " << rates[i] << "/s: p50=" << median(step_lat[i])
                   << "ms p" << tail.percentile << "=" << tail.value
                   << "ms backlog=" << backlog[i] << (pass ? " ok" : " MISS")
                   << ";";
            if (pass)
                phase.maxOkRate = achieved;
        }
        phase.notes.push_back(ladder.str());
        const Tail late = tailPercentile(late_ms);
        generatorLateMs = late.value;
        std::ostringstream gen;
        gen << "generator lateness: p50 " << median(late_ms) << " ms, p"
            << late.percentile << " " << late.value << " ms";
        phase.notes.push_back(gen.str());
        return phase;
    }

    SimSummary simSummary() const override
    {
        // Distinct exact sim answers, in key order. Every sim key is
        // drawn many times per run, so the set is seed-independent.
        std::map<std::string, SimValues> by_key;
        for (std::size_t k = 0; k < requests.size(); ++k) {
            if (requests[k].kind != ReqKind::Sim)
                continue;
            auto obj = svc::parseFlatJson(lines[k], nullptr);
            if (!obj || !obj->count("goodput_mbps"))
                continue;
            SimValues v;
            v.simMBps = obj->at("goodput_mbps").num;
            v.makespanCycles = static_cast<std::uint64_t>(
                obj->at("makespan_cycles").num);
            v.modelMBps = modelFor(*obj);
            by_key.emplace(requests[k].key, v);
        }
        SimSummary s;
        for (const auto &[key, v] : by_key) {
            s.simMBps.push_back(v.simMBps);
            if (v.modelMBps > 0)
                s.errPct.push_back(100.0 * std::fabs(v.modelMBps - v.simMBps) /
                                   v.simMBps);
            s.digest.add(v);
        }
        return s;
    }

    void layerMetrics(const Phase &, LayerMetrics &m) override
    {
        const ct::svc::PlanCacheStats cs = service->cacheStats();
        m["svc.cache.hit_ratio"] = ratio(static_cast<double>(cs.hits),
                                         static_cast<double>(cs.hits +
                                                             cs.misses));
        const ct::obs::MetricsRegistry &reg = service->metrics();
        m["svc.queue.peak_depth"] =
            static_cast<double>(reg.gaugeValue("svc.queue.peak_depth"));
        m["svc.deadline.fallback_ratio"] =
            ratio(static_cast<double>(
                      reg.counterValue("svc.deadline.truncated") +
                      reg.counterValue("svc.deadline.analytic_fallbacks")),
                  static_cast<double>(reg.counterValue("svc.requests.sim")));
        m["svc.latency.plan.p50_ms"] = median(latByKind[0]);
        m["svc.latency.sim.p50_ms"] = median(latByKind[1]);
        m["svc.latency.health.p50_ms"] = median(latByKind[2]);
        m["svc.generator.late_ms"] = generatorLateMs;
    }

  private:
    void expect(std::vector<std::uint64_t> ids)
    {
        std::lock_guard<std::mutex> lock(mu);
        expectedIds = std::move(ids);
        const std::size_t n = expectedIds.size();
        received = 0;
        orderErrors = 0;
        answered = 0;
        respNs.assign(n, 0);
        status.assign(n, svc::Status::Error);
        fidelity.assign(n, svc::Fidelity::None);
        lines.assign(n, {});
    }

    void onResponse(const svc::ServiceResponse &r)
    {
        const std::int64_t t = nowNs();
        {
            std::lock_guard<std::mutex> lock(mu);
            const std::size_t k = received++;
            if (k >= expectedIds.size() || expectedIds[k] != r.id) {
                ++orderErrors;
            } else {
                respNs[k] = t;
                status[k] = r.status;
                fidelity[k] = r.fidelity;
                lines[k] = r.line;
            }
        }
        answered.fetch_add(1);
    }

    void submitTraced(std::size_t k, SpanLog *log)
    {
        const std::int64_t s = nowNs();
        service->submit(requests[k].line);
        if (log)
            log->add({"svc.submit", s, nowNs(), -1, k});
    }

    /** The analytic rate of the program the service simulated. */
    static double modelFor(const svc::JsonObject &resp)
    {
        const core::MachineId m = resp.at("machine").str == "t3d"
                                      ? core::MachineId::T3d
                                      : core::MachineId::Paragon;
        const std::string &xqy = resp.at("xqy").str;
        const std::size_t q = xqy.find('Q');
        auto x = P::parse(xqy.substr(0, q));
        auto y = P::parse(xqy.substr(q + 1));
        auto program =
            core::buildProgram(m, resp.at("style").str, *x, *y);
        if (!program)
            return 0.0;
        const sim::MachineConfig cfg = sim::configFor(m);
        core::AnalyticBackend analytic(core::paperTable(m),
                                       ct::rt::executionProfileFor(cfg));
        const auto words =
            static_cast<std::uint64_t>(resp.at("words").num);
        return analytic
            .predictThroughputAt(core::withReliability(*program), words * 8,
                                 core::paperCaps(m).defaultCongestion)
            .value_or(0.0);
    }

    std::uint64_t seed;
    int workers;
    std::vector<ServeRequest> requests;
    std::vector<std::vector<double>> latByKind;
    double generatorLateMs = 0.0;

    std::mutex mu;
    std::vector<std::uint64_t> expectedIds;
    std::size_t received = 0;
    std::uint64_t orderErrors = 0;
    std::vector<std::int64_t> respNs;
    std::vector<svc::Status> status;
    std::vector<svc::Fidelity> fidelity;
    std::vector<std::string> lines;
    std::atomic<std::size_t> answered{0};

    /** Declared last: destroyed (and its workers joined) first. */
    std::unique_ptr<svc::PlanService> service;
};

std::unique_ptr<Workload>
makeWorkload(const Options &o)
{
    if (o.workload == "exchange-long")
        return std::make_unique<ExchangeLong>(o.seed);
    if (o.workload == "grid-validate")
        return std::make_unique<GridValidate>(o.seed, o.threads);
    if (o.workload == "serve-mix")
        return std::make_unique<ServeMix>(o.seed, o.threads);
    return nullptr;
}

double
peakRssMiB()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

/** Mean of a span name's self time per call, in @p unit_ns units. */
double
meanSelf(const std::map<std::string, NameTotals> &t, const char *name,
         double unit_ns)
{
    auto it = t.find(name);
    if (it == t.end() || it->second.calls == 0)
        return 0.0;
    return static_cast<double>(it->second.selfNs) /
           static_cast<double>(it->second.calls) / unit_ns;
}

/** Host cost of each basic-transfer measurement, per simulated word. */
void
measureProbes(LayerMetrics &m, SpanLog &log)
{
    const sim::MachineConfig t3d = sim::configFor(core::MachineId::T3d);
    const sim::MachineConfig par = sim::configFor(core::MachineId::Paragon);
    const double words = static_cast<double>(sim::measureWords);
    auto probe = [&](const std::string &xfer, const std::string &pattern,
                     auto &&fn) {
        const std::int64_t s = nowNs();
        fn();
        const std::int64_t e = nowNs();
        log.add({"sim.measure." + xfer, s, e, -1, 0});
        m["sim.measure." + xfer + ".ns_per_word." + pattern] =
            static_cast<double>(e - s) / words;
    };
    const std::pair<const char *, P> pats[] = {
        {"1", P::contiguous()}, {"16", P::strided(16)}, {"w", P::indexed()}};
    for (const auto &[label, p] : pats) {
        probe("copy", label, [&] {
            sim::measureLocalCopy(t3d, p, P::contiguous());
        });
        probe("loadsend", label, [&] { sim::measureLoadSend(t3d, p); });
        probe("receivestore", label,
              [&] { sim::measureReceiveStore(par, p); });
        probe("deposit", label,
              [&] { sim::measureReceiveDeposit(t3d, p); });
    }
    probe("fetchsend", "1", [&] { sim::measureFetchSend(par); });
    probe("net", "nd", [&] {
        sim::measureNetwork(t3d, sim::Framing::DataOnly, 1);
    });
    probe("net", "nadp", [&] {
        sim::measureNetwork(t3d, sim::Framing::AddrDataPair, 1);
    });

    double table_ns = 0.0;
    for (const sim::MachineConfig *cfg : {&t3d, &par}) {
        const std::int64_t s = nowNs();
        sim::measuredTable(*cfg);
        const std::int64_t e = nowNs();
        log.add({"sim.measuredTable", s, e, -1, 0});
        table_ns += static_cast<double>(e - s);
    }
    m["sim.measure.table_ms"] = table_ns / 2.0 * 1e-6;
}

/** Per-layer values that come from the replay spans and counters. */
void
replayMetrics(const std::vector<Span> &spans, const Phase &traced,
              const CellCounters &canon, LayerMetrics &m)
{
    const auto t = totalsByName(spans);
    const CellCounters &all = traced.replayTotals;
    m["rt.layer_run.self_ms"] = meanSelf(t, "rt.MessageLayer::run", 1e6);
    const double run_ns =
        t.count("rt.MessageLayer::run")
            ? static_cast<double>(t.at("rt.MessageLayer::run").selfNs)
            : 0.0;
    m["sim.events.ns_per_event"] =
        ratio(run_ns, static_cast<double>(all.events));
    m["sim.events.per_word"] = ratio(static_cast<double>(all.events),
                                     static_cast<double>(all.payloadWords));
    const double op_ns =
        t.count("bench.op") ? static_cast<double>(t.at("bench.op").totalNs)
                            : 0.0;
    const double verify_ns =
        t.count("rt.verifyDelivery")
            ? static_cast<double>(t.at("rt.verifyDelivery").selfNs)
            : 0.0;
    m["rt.verify.share"] = ratio(verify_ns, op_ns);
    m["rt.op_build.ms"] = meanSelf(t, "rt.pairExchange", 1e6);
    m["rt.seed.ms"] = meanSelf(t, "rt.seedSources", 1e6);
    m["sim.machine_build.ms"] = meanSelf(t, "sim.Machine", 1e6);
    m["core.analytic.predict_ns"] =
        meanSelf(t, "core.predictThroughputAt", 1.0);
    m["core.build_program_us"] = meanSelf(t, "core.buildProgram", 1e3);
    m["sim.topology.analyze_us"] =
        meanSelf(t, "sim.Topology.analyzeCongestion", 1e3);

    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    m["sim.cache.load_miss_ratio"] =
        ratio(d(canon.loadMisses), d(canon.loadHits + canon.loadMisses));
    m["sim.dram.row_hit_ratio"] =
        ratio(d(canon.rowHits), d(canon.rowHits + canon.rowMisses));
    m["sim.wbq.stall_cycles"] = d(canon.wbqStallCycles);
    m["sim.bus.wait_cycles"] = d(canon.busWaitCycles);
    m["sim.deposit.busy_share"] =
        ratio(d(canon.depositBusyCycles), d(canon.nodeCycles));
    m["sim.net.wire_per_payload"] =
        ratio(d(canon.wireBytes), d(canon.payloadBytes));
    m["rt.reliable.retransmit_ratio"] =
        ratio(d(canon.retransmits), d(canon.dataPackets));
}

/** Every per-layer metric with its unit, in BENCHMARK.json order. */
const std::vector<std::pair<std::string, std::string>> &
perLayerUnits()
{
    static const std::vector<std::pair<std::string, std::string>> units = {
        {"rt.layer_run.self_ms", "ms"},
        {"sim.events.ns_per_event", "ns/event"},
        {"sim.events.per_word", "events/word"},
        {"rt.verify.share", "share"},
        {"rt.op_build.ms", "ms"},
        {"rt.seed.ms", "ms"},
        {"sim.machine_build.ms", "ms"},
        {"sim.measure.table_ms", "ms"},
        {"sim.measure.copy.ns_per_word.1", "ns/word"},
        {"sim.measure.copy.ns_per_word.16", "ns/word"},
        {"sim.measure.copy.ns_per_word.w", "ns/word"},
        {"sim.measure.loadsend.ns_per_word.1", "ns/word"},
        {"sim.measure.loadsend.ns_per_word.16", "ns/word"},
        {"sim.measure.loadsend.ns_per_word.w", "ns/word"},
        {"sim.measure.fetchsend.ns_per_word.1", "ns/word"},
        {"sim.measure.receivestore.ns_per_word.1", "ns/word"},
        {"sim.measure.receivestore.ns_per_word.16", "ns/word"},
        {"sim.measure.receivestore.ns_per_word.w", "ns/word"},
        {"sim.measure.deposit.ns_per_word.1", "ns/word"},
        {"sim.measure.deposit.ns_per_word.16", "ns/word"},
        {"sim.measure.deposit.ns_per_word.w", "ns/word"},
        {"sim.measure.net.ns_per_word.nd", "ns/word"},
        {"sim.measure.net.ns_per_word.nadp", "ns/word"},
        {"core.analytic.predict_ns", "ns"},
        {"core.build_program_us", "us"},
        {"sim.topology.analyze_us", "us"},
        {"sweep.farm.busy_share", "share"},
        {"sweep.farm.steals", "count"},
        {"svc.cache.hit_ratio", "share"},
        {"svc.queue.peak_depth", "count"},
        {"svc.deadline.fallback_ratio", "share"},
        {"svc.latency.plan.p50_ms", "ms"},
        {"svc.latency.sim.p50_ms", "ms"},
        {"svc.latency.health.p50_ms", "ms"},
        {"svc.submit_us", "us"},
        {"svc.generator.late_ms", "ms"},
        {"sim.cache.load_miss_ratio", "share"},
        {"sim.dram.row_hit_ratio", "share"},
        {"sim.wbq.stall_cycles", "cycles"},
        {"sim.bus.wait_cycles", "cycles"},
        {"sim.deposit.busy_share", "share"},
        {"sim.net.wire_per_payload", "ratio"},
        {"rt.reliable.retransmit_ratio", "share"},
        {"bench.trace.overhead_ops_per_s", "ops/s"},
    };
    return units;
}

void
absorb(Outcome &out, const Phase &phase)
{
    out.attempted += phase.attempted;
    out.failed += phase.failed;
    for (const std::string &f : phase.failures)
        out.notes.push_back("FAILED: " + f);
    out.notes.insert(out.notes.end(), phase.notes.begin(),
                     phase.notes.end());
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "exchange-long", "grid-validate", "serve-mix"};
    return names;
}

double
paperErrMaxPct()
{
    using core::TransferOp;
    const P one = P::contiguous(), s16 = P::strided(16),
            s64 = P::strided(64), w = P::indexed();
    // The rows of the paper's Tables 1-3 ...
    const core::BasicTransfer rows[] = {
        core::localCopy(one, one),     core::localCopy(one, s64),
        core::localCopy(s64, one),     core::localCopy(one, w),
        core::localCopy(w, one),       core::loadSend(one),
        core::loadSend(s16),           core::loadSend(s64),
        core::loadSend(w),             core::fetchSend(one),
        core::receiveStore(one),       core::receiveStore(s64),
        core::receiveStore(w),         core::receiveDeposit(one),
        core::receiveDeposit(s64),     core::receiveDeposit(w),
    };
    double worst = 0.0;
    for (core::MachineId m : {core::MachineId::T3d, core::MachineId::Paragon}) {
        const core::ThroughputTable paper = core::paperTable(m);
        const core::ThroughputTable measured =
            sim::measuredTable(sim::configFor(m));
        auto consider = [&](std::optional<double> p,
                            std::optional<double> s) {
            if (p && s && *p > 0)
                worst = std::max(worst, std::fabs(*s - *p) / *p);
        };
        for (const core::BasicTransfer &t : rows)
            consider(paper.lookup(t), measured.lookup(t));
        // ... and Table 4: both framings at congestion 1, 2 and 4.
        for (TransferOp op : {TransferOp::NetData, TransferOp::NetAddrData})
            for (double c : {1.0, 2.0, 4.0})
                consider(paper.lookupNetwork(op, c),
                         measured.lookupNetwork(op, c));
    }
    return 100.0 * worst;
}

Outcome
runWorkload(const Options &o, const std::function<double()> &paper_err)
{
    Outcome out;
    std::unique_ptr<Workload> w = makeWorkload(o);
    if (!w)
        ct::util::fatal("perfbench: unknown workload '" + o.workload + "'");

    if (!o.trace) {
        std::vector<double> setups;
        for (int i = 0; i < std::max(o.setupRepeats, 1); ++i) {
            if (i > 0)
                w->tearDown();
            const std::int64_t s = nowNs();
            w->setUp();
            setups.push_back(secondsSince(s));
        }
        Phase phase = w->timed(o.seconds, nullptr);
        out.timedEndNs = nowNs();
        w->postChecks(phase);
        w->tearDown();
        // After the timed phase: measuredTable must not warm anything
        // the timed ops use.
        const double paper = paper_err();
        absorb(out, phase);

        const SimSummary s = w->simSummary();
        const Tail tail = tailPercentile(phase.latMs);
        std::ostringstream tail_note;
        tail_note << "op_tail_ms is p" << tail.percentile << " of "
                  << phase.latMs.size() << " ops (" << tail.beyond
                  << " beyond)";
        out.notes.push_back(tail_note.str());
        out.notes.push_back("digest " + o.workload + " " + s.digest.hex() +
                            " over " + std::to_string(s.simMBps.size()) +
                            " simulated ops");
        out.notes.push_back(
            "fail_ratio " +
            std::to_string(ratio(static_cast<double>(out.failed),
                                 static_cast<double>(out.attempted))));
        double err_max = 0.0;
        for (double e : s.errPct)
            err_max = std::max(err_max, e);
        out.metrics = {
            {"ops_per_s", phase.opsPerS(), "ops/s"},
            {"op_p50_ms", median(phase.latMs), "ms"},
            {"op_tail_ms", tail.value, "ms"},
            {"max_ok_rate_rps", phase.maxOkRate, "req/s"},
            {"sim_words_per_s",
             ratio(static_cast<double>(phase.simWords), phase.wallS),
             "words/s"},
            {"setup_s", o.staticInitS + median(setups), "s"},
            {"peak_rss_mb", peakRssMiB(), "MiB"},
            {"sim_mbps_geomean", geomean(s.simMBps), "MB/s"},
            {"model_err_max_pct", err_max, "%"},
            {"model_err_med_pct", median(s.errPct), "%"},
            {"paper_err_max_pct", paper, "%"},
        };
        return out;
    }

    // Traced run: spans on every layer call, with each op's untraced
    // twin measured in the same run as the overhead baseline.
    w->setUp();
    SpanLog log;
    Phase traced = w->timed(o.seconds, &log);
    out.timedEndNs = nowNs();
    LayerMetrics m;
    w->layerMetrics(traced, m);
    w->tearDown();
    absorb(out, traced);

    const std::vector<Span> spans = log.snapshot();
    ++out.attempted;
    if (std::size_t bad = selfSumMismatches(spans)) {
        ++out.failed;
        out.notes.push_back("FAILED: " + std::to_string(bad) +
                            " ops whose layer self times do not sum to "
                            "the op span");
    }
    replayMetrics(spans, traced, w->canonicalCounters, m);
    const auto totals = totalsByName(spans);
    m["svc.submit_us"] = meanSelf(totals, "svc.submit", 1e3);
    m["bench.trace.overhead_ops_per_s"] =
        traced.untracedOpsPerS - traced.tracedOpsPerS;
    measureProbes(m, log);
    std::ostringstream overhead;
    overhead << "tracing overhead " << o.workload << ": untraced "
             << traced.untracedOpsPerS << " ops/s, traced "
             << traced.tracedOpsPerS << " ops/s";
    out.notes.push_back(overhead.str());
    if (!o.traceOut.empty())
        log.writeJsonLines(o.traceOut);

    for (const auto &[name, unit] : perLayerUnits())
        out.metrics.push_back({name, m.count(name) ? m.at(name) : 0.0, unit});
    return out;
}

} // namespace perfbench
