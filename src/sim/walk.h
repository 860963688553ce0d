/**
 * @file
 * Pattern walkers: map the copy-transfer model's access patterns
 * (contiguous / strided / indexed) onto concrete word addresses in a
 * node's memory. For indexed walks, the index array itself lives in
 * node memory and reading it costs time but no payload bandwidth,
 * matching the paper's accounting (§2.2).
 */

#ifndef CT_SIM_WALK_H
#define CT_SIM_WALK_H

#include "core/pattern.h"
#include "sim/node_ram.h"

namespace ct::sim {

/** Description of one side of a transfer in node memory. */
struct PatternWalk
{
    Addr base = 0;
    core::AccessPattern pattern;
    /** Word array of element indices; used by indexed patterns. */
    Addr indexBase = 0;

    /** Word address of element @p i (reads the index array if
     *  needed). */
    Addr elementAddr(const NodeRam &ram, std::uint64_t i) const;

    /** Address of the i-th index entry (for timing the index load). */
    Addr indexAddr(std::uint64_t i) const;
};

/** Convenience constructors. */
PatternWalk contiguousWalk(Addr base);
PatternWalk stridedWalk(Addr base, std::uint32_t stride_words,
                        std::uint32_t block_words = 1);
PatternWalk indexedWalk(Addr base, Addr index_base);

/**
 * Streaming address generators over a walk, one type per pattern
 * kind: O(1) state, add-only steps and no materialized address
 * arrays. Cursor `c` built at element `first` produces the exact
 * sequence `walk.elementAddr(ram, first)`,
 * `walk.elementAddr(ram, first + 1)`, ... through `c.elementAddr(ram)`
 * and `c.advance()`. Kernels reach them through withCursor(), which
 * switches on the pattern once per call, so the per-element loop is
 * compiled for one kind with no pattern test inside it.
 *
 * `kIndexed` marks the indexed cursor: each of its elementAddr()
 * calls reads the index array, mirroring the one architectural index
 * load per element, whose address indexAddr() gives. elementAddr()
 * takes anything with NodeRam's readWord(): bulk data paths pass a
 * PageReader so the index array is read a page at a time.
 */
class ContiguousCursor
{
  public:
    static constexpr bool kIndexed = false;

    ContiguousCursor(const PatternWalk &walk, std::uint64_t first)
        : addr(walk.base + first * util::wordBytes)
    {
    }

    Addr elementAddr(const auto &) const { return addr; }
    void advance() { addr += util::wordBytes; }

  private:
    Addr addr;
};

class StridedCursor
{
  public:
    static constexpr bool kIndexed = false;

    StridedCursor(const PatternWalk &walk, std::uint64_t first)
        : block(walk.pattern.block()),
          // From the last element of a block to the first of the
          // next: stride words forward from the block start, i.e.
          // back over the block-1 words already walked. Wrapping
          // 64-bit arithmetic, so an overlapping stride < block
          // cannot underflow.
          blockJump(static_cast<Addr>(walk.pattern.stride()) *
                        util::wordBytes -
                    static_cast<Addr>(block - 1) * util::wordBytes)
    {
        // One div/mod to seed the cursor; advance() is add-only.
        addr = walk.base +
               (first / block) * walk.pattern.stride() * util::wordBytes +
               (first % block) * util::wordBytes;
        blockLeft = block - first % block;
    }

    Addr elementAddr(const auto &) const { return addr; }

    void
    advance()
    {
        if (--blockLeft == 0) {
            addr += blockJump;
            blockLeft = block;
        } else {
            addr += util::wordBytes;
        }
    }

  private:
    std::uint64_t block;
    Addr blockJump;
    Addr addr;
    /** Elements left in the current block (incl. the current one). */
    std::uint64_t blockLeft;
};

class IndexedCursor
{
  public:
    static constexpr bool kIndexed = true;

    IndexedCursor(const PatternWalk &walk, std::uint64_t first)
        : base(walk.base), index(walk.indexAddr(first))
    {
    }

    /** Address of the current element's index entry. */
    Addr indexAddr() const { return index; }

    /** @p mem is the NodeRam, or a PageReader over it, that holds
     *  the index array. */
    Addr
    elementAddr(const auto &mem) const
    {
        return base + mem.readWord(index) * util::wordBytes;
    }

    void advance() { index += util::wordBytes; }

  private:
    Addr base;
    Addr index;
};

[[noreturn]] void fixedWalkHasNoElements();

/**
 * Call @p fn with the cursor of @p walk's kind, standing on element
 * @p first, and return its result.
 */
template <typename Fn>
decltype(auto)
withCursor(const PatternWalk &walk, std::uint64_t first, Fn &&fn)
{
    using core::PatternKind;
    switch (walk.pattern.kind()) {
      case PatternKind::Contiguous:
        return fn(ContiguousCursor(walk, first));
      case PatternKind::Strided:
        return fn(StridedCursor(walk, first));
      case PatternKind::Indexed:
        return fn(IndexedCursor(walk, first));
      case PatternKind::Fixed:
        break;
    }
    fixedWalkHasNoElements();
}

/**
 * Store `value(i)` at element @p first + i of @p walk for i in
 * [0, count), resolving each page once per run of elements on it: a
 * straight loop per page for contiguous walks, a one-page window for
 * strided and indexed ones. A data-plane fill; it costs no simulated
 * time.
 */
template <typename Fn>
void
fillWalk(NodeRam &ram, const PatternWalk &walk, std::uint64_t first,
         std::uint64_t count, Fn &&value)
{
    if (walk.pattern.isContiguous()) {
        ram.fillWords(walk.base + first * util::wordBytes, count, value);
        return;
    }
    withCursor(walk, first, [&](auto cur) {
        PageReader index(ram);
        PageWriter out(ram);
        for (std::uint64_t i = 0; i < count; ++i, cur.advance())
            out.writeWord(cur.elementAddr(index), value(i));
    });
}

} // namespace ct::sim

#endif // CT_SIM_WALK_H
