#include "node_ram.h"

#include <algorithm>
#include <cstring>

#include "util/logging.h"

namespace ct::sim {

NodeRam::NodeRam(Bytes size_bytes, Bytes alloc_skew_bytes)
    : allocSkew(alloc_skew_bytes)
{
    if (size_bytes == 0)
        util::fatal("NodeRam: zero size");
    capacity = size_bytes;
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
    pages.clear();
    recycleQueue.clear();
    pinnedRanges.clear();
    for (TransEntry &entry : translations)
        entry = TransEntry{};
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
    Addr first = addr / kPageBytes;
    Addr last = (addr + bytes - 1) / kPageBytes;
    pinnedRanges.emplace_back(first, last);
    // Pages already materialized inside the range may still sit on
    // the recycle queue; mark them so a stale queue entry is skipped.
    for (Addr page = first; page <= last; ++page) {
        auto it = pages.find(page);
        if (it != pages.end())
            it->second.pinned = true;
    }
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

const std::uint8_t *
NodeRam::peekPage(Addr page_index) const
{
    TransEntry &entry = translationSlot(page_index);
    if (entry.pageIndexPlusOne == page_index + 1)
        return entry.data;
    auto it = pages.find(page_index);
    if (it == pages.end())
        return nullptr;
    entry.pageIndexPlusOne = page_index + 1;
    entry.data = it->second.data.get();
    return entry.data;
}

std::uint8_t *
NodeRam::touchPage(Addr page_index)
{
    TransEntry &entry = translationSlot(page_index);
    if (entry.pageIndexPlusOne == page_index + 1)
        return entry.data;
    auto [it, inserted] = pages.try_emplace(page_index);
    Page &page = it->second;
    if (inserted) {
        page.data = std::make_unique<std::uint8_t[]>(kPageBytes);
        page.pinned = isPinned(page_index);
        if (!page.pinned)
            recycleQueue.push_back(page_index);
        if (residencyLimit)
            evictToLimit();
        if (pages.size() > peakResident)
            peakResident = pages.size();
        // evictToLimit may have recycled this very page only if the
        // limit is zero-sized nonsense; guard by re-looking it up.
        it = pages.find(page_index);
        if (it == pages.end())
            util::fatal("NodeRam: residency limit ", residencyLimit,
                        " too small to hold the working page");
    }
    entry.pageIndexPlusOne = page_index + 1;
    entry.data = it->second.data.get();
    return entry.data;
}

void
NodeRam::evictToLimit()
{
    while (pages.size() > residencyLimit && !recycleQueue.empty()) {
        Addr victim = recycleQueue.front();
        recycleQueue.pop_front();
        auto it = pages.find(victim);
        // Stale entries: the page was pinned after materializing.
        if (it == pages.end() || it->second.pinned)
            continue;
        pages.erase(it);
        dropTranslation(victim);
        ++recycled;
    }
}

void
NodeRam::dropTranslation(Addr page_index)
{
    TransEntry &entry = translationSlot(page_index);
    if (entry.pageIndexPlusOne == page_index + 1)
        entry = TransEntry{};
}

void
NodeRam::readBytes(Addr addr, void *out, Bytes bytes) const
{
    auto *dst = static_cast<std::uint8_t *>(out);
    while (bytes > 0) {
        Addr page_index = addr / kPageBytes;
        Bytes offset = addr % kPageBytes;
        Bytes chunk = std::min<Bytes>(bytes, kPageBytes - offset);
        const std::uint8_t *page = peekPage(page_index);
        if (page)
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
        Addr page_index = addr / kPageBytes;
        Bytes offset = addr % kPageBytes;
        Bytes chunk = std::min<Bytes>(bytes, kPageBytes - offset);
        std::memcpy(touchPage(page_index) + offset, src, chunk);
        addr += chunk;
        src += chunk;
        bytes -= chunk;
    }
}

std::uint64_t
NodeRam::readWordSlow(Addr addr) const
{
    if (addr % kPageBytes <= kPageBytes - 8) {
        // Translation miss inside one page: peekPage() refills the
        // cache when the page is materialized.
        const std::uint8_t *page = peekPage(addr / kPageBytes);
        if (!page)
            return 0;
        std::uint64_t value;
        std::memcpy(&value, page + addr % kPageBytes, 8);
        return value;
    }
    std::uint64_t value;
    readBytes(addr, &value, 8);
    return value;
}

void
NodeRam::writeWordSlow(Addr addr, std::uint64_t value)
{
    if (addr % kPageBytes <= kPageBytes - 8) {
        // touchPage() materializes the page and refills the cache.
        std::memcpy(touchPage(addr / kPageBytes) + addr % kPageBytes,
                    &value, 8);
        return;
    }
    writeBytes(addr, &value, 8);
}

} // namespace ct::sim
