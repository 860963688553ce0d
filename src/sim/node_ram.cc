#include "node_ram.h"

#include <algorithm>
#include <cstring>
#include <mutex>

#include "util/logging.h"

namespace ct::sim {

namespace {

/**
 * Blocks released by any NodeRam, handed to the next one that needs a
 * block. Without it, the heap trim that follows a Machine's teardown
 * returns its pages to the kernel and the next Machine faults them in
 * again. One pool for all threads: it holds at most the peak number of
 * blocks in use at once, where per-thread caches would each hold
 * their own thread's peak. Every block has the one NodeRam block size.
 */
class BlockPool
{
  public:
    using Block = std::unique_ptr<std::uint8_t[]>;

    Block
    take(std::size_t bytes)
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            if (!spare.empty()) {
                Block block = std::move(spare.back());
                spare.pop_back();
                return block;
            }
        }
        // Left uninitialized: each page is zeroed on first write, so
        // untouched frames of a block cost no host memory.
        return std::make_unique_for_overwrite<std::uint8_t[]>(bytes);
    }

    void
    give(std::vector<Block> &blocks)
    {
        std::lock_guard<std::mutex> lock(mutex);
        for (Block &block : blocks)
            spare.push_back(std::move(block));
        blocks.clear();
    }

  private:
    std::mutex mutex;
    std::vector<Block> spare;
};

/** The process-wide pool; never destroyed, so a NodeRam torn down
 *  during static destruction can still return its blocks. */
BlockPool &
blockPool()
{
    static BlockPool *pool = new BlockPool;
    return *pool;
}

} // namespace

NodeRam::NodeRam(Bytes size_bytes, Bytes alloc_skew_bytes)
    : allocSkew(alloc_skew_bytes)
{
    if (size_bytes == 0)
        util::fatal("NodeRam: zero size");
    capacity = size_bytes;
}

NodeRam::~NodeRam()
{
    blockPool().give(blocks);
}

Addr
NodeRam::alloc(Bytes bytes, Bytes align)
{
    if (!isPowerOfTwo(align))
        util::fatal("NodeRam::alloc: alignment not a power of two");
    Addr base = (next + align - 1) & ~(static_cast<Addr>(align) - 1);
    if (base + bytes > capacity)
        util::fatal("NodeRam::alloc: out of memory (", capacity,
                    " bytes total, need ", base + bytes, ")");
    next = base + bytes + allocSkew;
    return base;
}

void
NodeRam::reset()
{
    next = 0;
    directory.clear();
    leaves.clear();
    blockPool().give(blocks);
    blockFramesLeft = 0;
    freeFrames.clear();
    recycleQueue.clear();
    pinnedRanges.clear();
    resident = 0;
}

void
NodeRam::setResidencyLimit(std::size_t max_pages)
{
    residencyLimit = max_pages;
    if (residencyLimit)
        evictToLimit();
}

void
NodeRam::pinRange(Addr addr, Bytes bytes)
{
    if (bytes == 0)
        return;
    checkRange(addr, bytes);
    // Pages already materialized inside the range may still sit on
    // the recycle queue; evictToLimit() skips them by this range.
    pinnedRanges.emplace_back(addr / kPageBytes,
                              (addr + bytes - 1) / kPageBytes);
}

void
NodeRam::outOfRange(Addr addr, Bytes bytes) const
{
    util::fatal("NodeRam: access at ", addr, "+", bytes,
                " beyond size ", capacity);
}

bool
NodeRam::isPinned(Addr page_index) const
{
    for (const auto &[first, last] : pinnedRanges)
        if (page_index >= first && page_index <= last)
            return true;
    return false;
}

NodeRam::Leaf *
NodeRam::emptyLeaf()
{
    static Leaf empty;
    return &empty;
}

std::uint8_t *&
NodeRam::slotFor(Addr page_index)
{
    Addr leaf = page_index >> kLeafShift;
    if (leaf >= directory.size())
        directory.resize(leaf + 1, emptyLeaf());
    if (directory[leaf] == emptyLeaf()) {
        leaves.push_back(std::make_unique<Leaf>());
        directory[leaf] = leaves.back().get();
    }
    return directory[leaf]->frames[page_index & (kLeafPages - 1)];
}

std::uint8_t *
NodeRam::takeFrame()
{
    if (!freeFrames.empty()) {
        std::uint8_t *frame = freeFrames.back();
        freeFrames.pop_back();
        return frame;
    }
    if (blockFramesLeft == 0) {
        blocks.push_back(blockPool().take(kBlockPages * kPageBytes));
        blockFramesLeft = kBlockPages;
    }
    --blockFramesLeft;
    return blocks.back().get() +
           (kBlockPages - 1 - blockFramesLeft) * kPageBytes;
}

std::uint8_t *
NodeRam::materialize(Addr page_index, bool zero)
{
    std::uint8_t *frame = takeFrame();
    if (zero)
        std::memset(frame, 0, kPageBytes);
    slotFor(page_index) = frame;
    if (!isPinned(page_index))
        recycleQueue.push_back(page_index);
    ++resident;
    if (residencyLimit)
        evictToLimit();
    if (resident > peakResident)
        peakResident = resident;
    // evictToLimit may have recycled this very page only if the limit
    // is too small to hold any unpinned page.
    if (frameOf(page_index) != frame)
        util::fatal("NodeRam: residency limit ", residencyLimit,
                    " too small to hold the working page");
    return frame;
}

void
NodeRam::evictToLimit()
{
    while (resident > residencyLimit && !recycleQueue.empty()) {
        Addr victim = recycleQueue.front();
        recycleQueue.pop_front();
        // Stale entries: the page was pinned after materializing.
        if (isPinned(victim))
            continue;
        std::uint8_t *&slot = slotFor(victim);
        freeFrames.push_back(slot);
        slot = nullptr;
        --resident;
        ++recycled;
    }
}

void
NodeRam::readBytes(Addr addr, void *out, Bytes bytes) const
{
    auto *dst = static_cast<std::uint8_t *>(out);
    while (bytes > 0) {
        Bytes offset = addr % kPageBytes;
        Bytes chunk = std::min<Bytes>(bytes, kPageBytes - offset);
        if (const std::uint8_t *page = peekPage(addr / kPageBytes))
            std::memcpy(dst, page + offset, chunk);
        else
            std::memset(dst, 0, chunk);
        addr += chunk;
        dst += chunk;
        bytes -= chunk;
    }
}

void
NodeRam::writeBytes(Addr addr, const void *in, Bytes bytes)
{
    auto *src = static_cast<const std::uint8_t *>(in);
    while (bytes > 0) {
        Bytes offset = addr % kPageBytes;
        Bytes chunk = std::min<Bytes>(bytes, kPageBytes - offset);
        std::uint8_t *page = chunk == kPageBytes
                                 ? touchWholePage(addr / kPageBytes)
                                 : touchPage(addr / kPageBytes);
        std::memcpy(page + offset, src, chunk);
        addr += chunk;
        src += chunk;
        bytes -= chunk;
    }
}

void
NodeRam::writeWords(Addr addr, const std::uint64_t *in,
                    std::uint64_t count)
{
    checkRange(addr, count * 8);
    writeBytes(addr, in, count * 8);
}

std::uint64_t
NodeRam::readWordSlow(Addr addr) const
{
    std::uint64_t value;
    readBytes(addr, &value, 8);
    return value;
}

void
NodeRam::writeWordSlow(Addr addr, std::uint64_t value)
{
    writeBytes(addr, &value, 8);
}

std::uint64_t
countMismatchedWords(const NodeRam &a, Addr a_addr, const NodeRam &b,
                     Addr b_addr, std::uint64_t count)
{
    constexpr Bytes page = NodeRam::pageBytes();
    auto page_data = [](const NodeRam &ram, Addr page_index) {
        const std::uint8_t *data = ram.peekPage(page_index);
        return data ? data : NodeRam::zeroPage();
    };
    std::uint64_t bad = 0;
    while (count > 0) {
        std::uint64_t n = std::min({count, (page - a_addr % page) / 8,
                                    (page - b_addr % page) / 8});
        if (n == 0 || !a.pageInRange(a_addr / page) ||
            !b.pageInRange(b_addr / page)) {
            // A word straddling two pages, or one on a page only
            // partly inside the capacity: the range-checked path.
            bad += a.readWord(a_addr) != b.readWord(b_addr);
            n = 1;
        } else {
            const std::uint8_t *pa =
                page_data(a, a_addr / page) + a_addr % page;
            const std::uint8_t *pb =
                page_data(b, b_addr / page) + b_addr % page;
            for (std::uint64_t k = 0; k < n; ++k) {
                std::uint64_t wa, wb;
                std::memcpy(&wa, pa + k * 8, 8);
                std::memcpy(&wb, pb + k * 8, 8);
                bad += wa != wb;
            }
        }
        count -= n;
        a_addr += n * 8;
        b_addr += n * 8;
    }
    return bad;
}

} // namespace ct::sim
