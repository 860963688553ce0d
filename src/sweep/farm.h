/**
 * @file
 * The parallel sweep farm: a work-stealing thread pool specialized
 * for embarrassingly-parallel parameter sweeps whose merged output
 * must be byte-identical to a serial run.
 *
 * Determinism contract. The farm never promises anything about the
 * *schedule* -- cells run on whichever worker steals them -- it
 * promises that the schedule is unobservable: map() writes each
 * cell's result into a slot chosen by the cell's index, so the merged
 * vector is in canonical grid order no matter how the chunks were
 * stolen. As long as every cell is a pure function of its descriptor
 * (see the isolation invariants in DESIGN.md §14: one Machine /
 * EventQueue / FaultInjector / metrics registry per run, no shared
 * mutable state), the merged results -- and anything rendered from
 * them -- are byte-identical across thread counts and steal
 * schedules.
 *
 * Stealing is chunked-deque, not Chase-Lev: each worker owns a
 * mutex-guarded deque of index ranges; the owner pops from the back
 * (LIFO, cache-warm), thieves take from the front (FIFO, the oldest
 * and least-local work). A sweep cell is a whole discrete-event
 * simulation -- milliseconds to seconds of work -- so a mutex
 * acquisition per chunk is noise, and the simple structure keeps the
 * farm obviously correct under TSan. The same deques also serve
 * post()ed one-off tasks, which lets long-lived owners (the planning
 * service) use the farm as their worker pool.
 *
 * threads = 0 is inline mode: forEach()/map()/post() run the work
 * synchronously on the calling thread and no threads are spawned.
 * threads >= 1 spawns that many workers; the caller blocks in
 * forEach()/waitPosted() but does not execute cells itself, so a
 * cell can rely on being thread-confined to one worker.
 */

#ifndef CT_SWEEP_FARM_H
#define CT_SWEEP_FARM_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ct::sweep {

/** Farm configuration. */
struct FarmOptions
{
    /** Worker threads; 0 = run everything inline on the caller. */
    int threads = 0;
    /**
     * Indices per work chunk for forEach()/map(); 0 picks a grain
     * that gives every worker several chunks to steal (n / threads /
     * 4, at least 1). Grain 1 maximizes balance for very uneven
     * cells at the cost of one deque operation per cell.
     */
    std::size_t grain = 0;
};

/** Cumulative farm statistics (for tests and metrics mirrors). */
struct FarmStats
{
    std::uint64_t cellsRun = 0;   ///< indices executed via forEach
    std::uint64_t chunks = 0;     ///< chunks dequeued (own + stolen)
    std::uint64_t steals = 0;     ///< chunks taken from another deque
    std::uint64_t posted = 0;     ///< one-off tasks executed
};

/** The work-stealing farm (see file comment). */
class Farm
{
  public:
    explicit Farm(FarmOptions options);
    ~Farm();

    Farm(const Farm &) = delete;
    Farm &operator=(const Farm &) = delete;

    int threads() const { return opts.threads; }

    /**
     * Run body(index, worker) for every index in [0, n), blocking
     * until all complete. Worker ids are in [0, max(threads, 1));
     * inline mode passes worker 0. Cells must not touch shared
     * mutable state (DESIGN.md §14); the body is called at most once
     * per index.
     */
    void forEach(std::size_t n,
                 const std::function<void(std::size_t, int)> &body);

    /**
     * forEach() with a canonical-order result merge: out[i] is
     * body(i)'s return value, positioned by index regardless of
     * which worker computed it or in what order.
     */
    template <typename R>
    std::vector<R>
    map(std::size_t n, const std::function<R(std::size_t, int)> &body)
    {
        std::vector<R> out(n);
        forEach(n, [&](std::size_t i, int worker) {
            out[i] = body(i, worker);
        });
        return out;
    }

    /**
     * Enqueue a one-off task onto a worker deque (round-robin); any
     * idle worker may steal it. Inline mode executes it immediately
     * on the caller. Never blocks. Tasks must not call forEach() or
     * waitPosted() on the farm that runs them (a worker cannot wait
     * for itself).
     */
    void post(std::function<void(int)> task);

    /** Block until every post()ed task so far has finished. */
    void waitPosted();

    FarmStats stats() const;

  private:
    /** One contiguous index range of a batch, or a posted task. */
    struct Job;
    struct Chunk
    {
        Job *job = nullptr;              ///< batch chunk when set
        std::size_t begin = 0, end = 0;  ///< [begin, end) of the batch
        std::function<void(int)> task;   ///< posted task otherwise
    };

    struct WorkerDeque
    {
        std::mutex mu;
        std::deque<Chunk> chunks;
    };

    void workerLoop(int worker);
    bool tryRunOne(int worker);
    void runChunk(Chunk &&chunk, int worker);
    void enqueue(Chunk &&chunk, std::size_t at);

    FarmOptions opts;
    std::vector<std::unique_ptr<WorkerDeque>> deques;
    std::vector<std::thread> workers;

    /** Chunks enqueued but not yet dequeued; the workers' wake
     *  predicate. */
    std::atomic<std::size_t> pendingItems{0};
    /** post()ed tasks admitted but not yet finished. */
    std::atomic<std::size_t> postedInFlight{0};
    std::atomic<std::size_t> nextDeque{0};
    std::atomic<bool> stopping{false};

    std::mutex wakeMutex;
    std::condition_variable wakeCv;
    std::condition_variable postedCv;

    std::atomic<std::uint64_t> statCells{0}, statChunks{0},
        statSteals{0}, statPosted{0};
};

/**
 * The farm's thread-count policy for tools: parse a --threads value
 * in [1, kMaxThreads], rejecting zero, non-numeric text and
 * oversubscribed counts. Returns false with a diagnostic in @p error.
 */
inline constexpr int kMaxThreads = 256;
bool parseThreadCount(const char *text, int &threads,
                      std::string &error);

} // namespace ct::sweep

#endif // CT_SWEEP_FARM_H
