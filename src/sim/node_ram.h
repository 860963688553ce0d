/**
 * @file
 * Backing storage for one node's local memory. The timing models
 * (MemorySystem) are tag/occupancy-only; NodeRam holds the actual
 * bytes so that communication runs move real data and tests can check
 * end-to-end correctness bit-exactly.
 *
 * Storage is sparse and page-granular: a page materializes (zeroed)
 * on first write, reads of never-written pages return zero (the old
 * calloc semantics), and host memory tracks the bytes actually
 * touched, not the configured capacity. Measurement walks
 * additionally bound their residency with a fixed-capacity page
 * window (streaming mode), so a stride sweep's address footprint
 * never turns into host memory.
 *
 * Pages are found through a two-level table: a directory indexed by
 * `addr >> 21`, grown on demand up to the highest page written, whose
 * entries are leaves of 512 page pointers. Page frames are carved
 * from 16 KiB blocks owned by the NodeRam; a page recycled by the
 * residency window returns its frame for the next page to reuse, and
 * reset() or destruction releases whole blocks to a process-wide pool
 * that the next NodeRam draws from. Nothing reserves address space,
 * so a NodeRam of any capacity costs nothing until it is written.
 *
 * Bulk data paths (seeding, delivery checks, measurement fills,
 * index arrays) go through PageReader/PageWriter or the word-run
 * calls below, which resolve a page once per run of words on it
 * instead of once per word.
 */

#ifndef CT_SIM_NODE_RAM_H
#define CT_SIM_NODE_RAM_H

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "sim/addr.h"

namespace ct::sim {

/** Flat byte-addressable memory with a bump allocator. */
class NodeRam
{
  public:
    /**
     * @param size_bytes capacity (address-space bound; untouched
     *        pages cost nothing)
     * @param alloc_skew_bytes padding inserted between allocations to
     *        stagger arrays across DRAM banks (compilers pad large
     *        arrays the same way to avoid bank/cache aliasing)
     */
    explicit NodeRam(Bytes size_bytes, Bytes alloc_skew_bytes = 0);
    ~NodeRam();

    NodeRam(const NodeRam &) = delete;
    NodeRam &operator=(const NodeRam &) = delete;

    Bytes size() const { return capacity; }

    /** Allocate @p bytes aligned to @p align; fatal on exhaustion. */
    Addr alloc(Bytes bytes, Bytes align = 64);

    /** Release everything allocated so far (and drop all pages). */
    void reset();

    // Word accessors. The bodies below inline the hot path -- a
    // bounds check plus one directory probe -- because every element
    // a kernel moves goes through here.
    std::uint64_t readWord(Addr addr) const;
    void writeWord(Addr addr, std::uint64_t value);

    double readDouble(Addr addr) const;
    void writeDouble(Addr addr, double value);

    /** Store @p count words from @p in starting at @p addr. */
    void writeWords(Addr addr, const std::uint64_t *in,
                    std::uint64_t count);

    /**
     * Store `value(i)` at `addr + 8 i` for i in [0, count): a straight
     * loop over each page of the run.
     */
    template <typename Fn>
    void fillWords(Addr addr, std::uint64_t count, Fn &&value);

    // Streaming (bounded-residency) mode -- used by measurement
    // walks whose address footprint exceeds what should ever be
    // host-resident. With a limit set, materialized pages are
    // recycled FIFO once more than @p max_pages are live; a recycled
    // page that is touched again reads as zero. Callers must
    // therefore follow single-touch discipline (write an element,
    // consume it, never revisit) or pin the ranges they re-read.

    /** Cap live pages; 0 restores exact (unbounded) retention. */
    void setResidencyLimit(std::size_t max_pages);

    /** Exclude [addr, addr+bytes) from recycling (index arrays and
     *  other ranges that are legitimately re-read). */
    void pinRange(Addr addr, Bytes bytes);

    /** Pages currently materialized. */
    std::size_t residentPages() const { return resident; }

    /** High-water mark of residentPages() since construction. */
    std::size_t peakResidentPages() const { return peakResident; }

    /** Pages recycled by the residency window so far. */
    std::uint64_t recycledPages() const { return recycled; }

    /** Page granularity of the sparse store. */
    static constexpr Bytes pageBytes() { return kPageBytes; }

    /** Page data for @p page_index, or nullptr if not materialized
     *  (the page reads as zero). */
    const std::uint8_t *
    peekPage(Addr page_index) const
    {
        return frameOf(page_index);
    }

    /** Page data for @p page_index, materializing (and possibly
     *  recycling an old page) as needed. */
    std::uint8_t *
    touchPage(Addr page_index)
    {
        if (std::uint8_t *page = frameOf(page_index))
            return page;
        return materialize(page_index);
    }

    /** True if page @p page_index lies wholly inside the capacity. */
    bool
    pageInRange(Addr page_index) const
    {
        return page_index < capacity / kPageBytes;
    }

    /** A page of zeros: what an unmaterialized page reads as. */
    static const std::uint8_t *zeroPage() { return kZeroPage; }

  private:
    static constexpr Bytes kPageBytes = 4096;
    static constexpr std::uint8_t kZeroPage[kPageBytes] = {};
    static constexpr unsigned kLeafShift = 9;
    /** Page pointers per directory leaf (2 MiB of address space). */
    static constexpr std::size_t kLeafPages = std::size_t{1}
                                              << kLeafShift;
    /** Page frames per block (16 KiB blocks). */
    static constexpr std::size_t kBlockPages = 4;

    struct Leaf
    {
        std::uint8_t *frames[kLeafPages] = {};
    };

    void
    checkRange(Addr addr, Bytes bytes) const
    {
        if (addr + bytes > capacity)
            outOfRange(addr, bytes);
    }

    [[noreturn]] void outOfRange(Addr addr, Bytes bytes) const;
    bool isPinned(Addr page_index) const;

    /** The directory probe: frame of @p page_index or nullptr. */
    std::uint8_t *
    frameOf(Addr page_index) const
    {
        Addr leaf = page_index >> kLeafShift;
        if (leaf >= directory.size())
            return nullptr;
        return directory[leaf]->frames[page_index & (kLeafPages - 1)];
    }

    /** The shared all-null leaf that empty directory slots point at. */
    static Leaf *emptyLeaf();

    /** Slot of @p page_index, growing the directory as needed. */
    std::uint8_t *&slotFor(Addr page_index);

    /** Out-of-line tail of touchPage(): a page's first write. The
     *  page is zeroed unless the caller overwrites all of it. */
    std::uint8_t *materialize(Addr page_index, bool zero = true);

    /** touchPage() for a caller about to overwrite the whole page. */
    std::uint8_t *
    touchWholePage(Addr page_index)
    {
        if (std::uint8_t *page = frameOf(page_index))
            return page;
        return materialize(page_index, false);
    }

    /** A free page frame: a recycled one, else the next of a block. */
    std::uint8_t *takeFrame();

    /** Out-of-line tails for unmaterialized / page-crossing words. */
    std::uint64_t readWordSlow(Addr addr) const;
    void writeWordSlow(Addr addr, std::uint64_t value);

    void evictToLimit();

    void readBytes(Addr addr, void *out, Bytes bytes) const;
    void writeBytes(Addr addr, const void *in, Bytes bytes);

    /** Leaves by `page_index >> kLeafShift`; an empty slot points at
     *  the shared all-null leaf, so a probe needs no null test. */
    std::vector<Leaf *> directory;
    std::vector<std::unique_ptr<Leaf>> leaves;
    std::vector<std::unique_ptr<std::uint8_t[]>> blocks;
    /** Frames of blocks.back() not handed out yet. */
    std::size_t blockFramesLeft = 0;
    /** Frames of recycled pages, reused before a new block. */
    std::vector<std::uint8_t *> freeFrames;
    /** Materialization order of unpinned pages (recycling FIFO). */
    std::deque<Addr> recycleQueue;
    std::vector<std::pair<Addr, Addr>> pinnedRanges;
    Bytes capacity = 0;
    Bytes allocSkew = 0;
    Addr next = 0;
    std::size_t resident = 0;
    std::size_t residencyLimit = 0;
    std::size_t peakResident = 0;
    std::uint64_t recycled = 0;
};

inline std::uint64_t
NodeRam::readWord(Addr addr) const
{
    checkRange(addr, 8);
    if (addr % kPageBytes <= kPageBytes - 8) {
        const std::uint8_t *page = peekPage(addr / kPageBytes);
        if (!page)
            return 0;
        std::uint64_t value;
        std::memcpy(&value, page + addr % kPageBytes, 8);
        return value;
    }
    return readWordSlow(addr);
}

inline void
NodeRam::writeWord(Addr addr, std::uint64_t value)
{
    checkRange(addr, 8);
    if (addr % kPageBytes <= kPageBytes - 8) {
        if (std::uint8_t *page = frameOf(addr / kPageBytes)) {
            std::memcpy(page + addr % kPageBytes, &value, 8);
            return;
        }
    }
    writeWordSlow(addr, value);
}

inline double
NodeRam::readDouble(Addr addr) const
{
    std::uint64_t bits = readWord(addr);
    double value;
    std::memcpy(&value, &bits, 8);
    return value;
}

inline void
NodeRam::writeDouble(Addr addr, double value)
{
    std::uint64_t bits;
    std::memcpy(&bits, &value, 8);
    writeWord(addr, bits);
}

template <typename Fn>
void
NodeRam::fillWords(Addr addr, std::uint64_t count, Fn &&value)
{
    checkRange(addr, count * 8);
    std::uint64_t i = 0;
    while (i < count) {
        Bytes offset = addr % kPageBytes;
        std::uint64_t fit = (kPageBytes - offset) / 8;
        if (fit == 0) {
            // A word straddling two pages.
            writeWord(addr, value(i));
            ++i;
            addr += 8;
            continue;
        }
        std::uint64_t n = std::min(fit, count - i);
        std::uint8_t *page =
            n * 8 == kPageBytes ? touchWholePage(addr / kPageBytes)
                                : touchPage(addr / kPageBytes) + offset;
        for (std::uint64_t k = 0; k < n; ++k) {
            std::uint64_t word = value(i + k);
            std::memcpy(page + k * 8, &word, 8);
        }
        i += n;
        addr += n * 8;
    }
}

/**
 * Words of [a_addr, a_addr + 8 count) in @p a that differ from the
 * word at the same offset of [b_addr, ...) in @p b: a straight loop
 * over each run of words that stays on one page of both.
 */
std::uint64_t countMismatchedWords(const NodeRam &a, Addr a_addr,
                                   const NodeRam &b, Addr b_addr,
                                   std::uint64_t count);

/**
 * Word reads through a one-page window: a page is resolved once per
 * run of reads on it, and an unmaterialized page reads through the
 * shared zero page. The window does not see pages materialized after
 * it looked them up, so a reader must not span writes to the pages it
 * reads. It has the readWord() shape the walk cursors take.
 */
class PageReader
{
  public:
    explicit PageReader(const NodeRam &ram) : ram(ram) {}

    std::uint64_t
    readWord(Addr addr) const
    {
        Addr page_index = addr / NodeRam::pageBytes();
        Bytes offset = addr % NodeRam::pageBytes();
        if (page_index != pageIndex) {
            // Only pages wholly inside the capacity enter the window,
            // so a word read through it needs no range check.
            if (!ram.pageInRange(page_index))
                return ram.readWord(addr);
            const std::uint8_t *page = ram.peekPage(page_index);
            data = page ? page : NodeRam::zeroPage();
            pageIndex = page_index;
        }
        if (offset > NodeRam::pageBytes() - 8)
            return ram.readWord(addr); // straddles two pages
        std::uint64_t value;
        std::memcpy(&value, data + offset, 8);
        return value;
    }

  private:
    const NodeRam &ram;
    mutable Addr pageIndex = ~Addr{0};
    mutable const std::uint8_t *data = nullptr;
};

/**
 * Word writes through a one-page window: a page is resolved (and
 * materialized) once per run of writes on it. A materialized page
 * never moves while it stays resident, so other writers may run
 * alongside -- except under a residency limit, where another
 * writer's new page may recycle the one in the window.
 */
class PageWriter
{
  public:
    explicit PageWriter(NodeRam &ram) : ram(ram) {}

    void
    writeWord(Addr addr, std::uint64_t value)
    {
        Addr page_index = addr / NodeRam::pageBytes();
        Bytes offset = addr % NodeRam::pageBytes();
        if (page_index != pageIndex &&
            ram.pageInRange(page_index)) {
            data = ram.touchPage(page_index);
            pageIndex = page_index;
        }
        if (page_index != pageIndex ||
            offset > NodeRam::pageBytes() - 8) {
            // Range-checked or page-straddling tail. Its new pages
            // may recycle the one in the window, so drop the window.
            pageIndex = ~Addr{0};
            ram.writeWord(addr, value);
            return;
        }
        std::memcpy(data + offset, &value, 8);
    }

  private:
    NodeRam &ram;
    Addr pageIndex = ~Addr{0};
    std::uint8_t *data = nullptr;
};

} // namespace ct::sim

#endif // CT_SIM_NODE_RAM_H
