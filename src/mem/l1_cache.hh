/**
 * @file
 * Private L1 data cache (Table 3a: 32 KB, 2-way, 64-byte blocks,
 * 32-entry victim buffer).
 *
 * The tag array carries the FlexTM additions of Figure 2: the T bit
 * (encoding TMI/TI together with the MESI bits) and the A
 * (alert-on-update) bit.  Flash commit/abort is a bulk operation over
 * the T bits (Section 3.3): commit reverts TMI->M and TI->I; abort
 * reverts TMI->I and TI->I.
 *
 * The victim buffer extends associativity: lines evicted from a set
 * move there first; real evictions (writeback / overflow-table spill)
 * happen only when the victim buffer itself overflows.  The
 * unbounded-victim-buffer mode supports the Section 7.3 overflow
 * ablation.
 *
 * Two exact bitmaps over the set frames make every bulk walk cost
 * O(live lines) rather than O(frames): *live* has a frame's bit set
 * iff its state is not I, *spec* iff its state is TMI or TI (the T
 * bit).  A line's state is writable only through setState /
 * invalidate, so the masks cannot drift.  The victim buffer (a few
 * dozen entries) is scanned directly.  Walks visit set frames in
 * ascending index, then the victim buffer in FIFO order.
 */

#ifndef FLEXTM_MEM_L1_CACHE_HH
#define FLEXTM_MEM_L1_CACHE_HH

#include <array>
#include <bit>
#include <cstdint>
#include <list>
#include <utility>
#include <vector>

#include "mem/protocol.hh"
#include "sim/types.hh"

namespace flextm
{

/** One L1 line: tag, MESI+T state, A bit, and data. */
class L1Line
{
  public:
    Addr base = 0;                 //!< line-aligned address
    Cycles lastUse = 0;            //!< LRU timestamp
    std::array<std::uint8_t, lineBytes> data{};
    bool aBit = false;             //!< alert-on-update mark

    LineState state() const { return state_; }
    bool valid() const { return state_ != LineState::I; }

  private:
    friend class L1Cache;
    LineState state_ = LineState::I;  //!< set via L1Cache::setState
};

/** Set-associative L1 with a FIFO-LRU victim buffer. */
class L1Cache
{
  public:
    L1Cache(std::size_t bytes, unsigned ways, unsigned victim_entries,
            bool unbounded_victim);

    /** Find a valid line; nullptr on miss.  Touches LRU state. */
    L1Line *find(Addr addr, Cycles now);

    /** Find without touching LRU (for responses / flash scans). */
    L1Line *probe(Addr addr);
    const L1Line *probe(Addr addr) const;

    /**
     * Allocate a frame for @p addr.  If space must be made, the
     * displaced line is passed to @p evict (state != I guaranteed);
     * the callee performs writeback / OT spill.  The returned frame
     * is zeroed with state I; the caller fills it.
     */
    template <typename Evict>
    L1Line &
    allocate(Addr addr, Cycles now, Evict &&evict)
    {
        L1Line *frame = freeWay(addr);
        if (!frame) {
            frame = displaceLru(addr);
            const auto pick = victimToEvict();
            if (pick != victim_.end()) {
                if (pick->valid())
                    evict(*pick);
                victim_.erase(pick);
            }
        }
        return reset(*frame, addr, now);
    }

    /** Change @p line's state: the only writer of L1Line state, so
     *  the frame masks stay exact (victim-buffer lines have no
     *  bits). */
    void setState(L1Line &line, LineState s);

    /** Drop a specific line (invalidate). */
    void invalidate(L1Line &line);

    /**
     * Forcibly evict the LRU line currently in state @p s (fault
     * injection: drive the overflow-table spill path without needing
     * a giant working set).  The line is passed to @p evict exactly
     * as in allocate(); returns false when no line is in that state.
     * Ties go to the lowest set frame, then the oldest victim entry.
     */
    template <typename Evict>
    bool
    evictOneInState(LineState s, Evict &&evict)
    {
        const auto [pick, victim_it] = lruInState(s);
        if (!pick)
            return false;
        evict(*pick);
        if (victim_it != victim_.end())
            victim_.erase(victim_it);
        return true;
    }

    /** Flash commit: TMI->M, TI->I (clear T bits). */
    void flashCommit();

    /** Flash abort: TMI->I, TI->I. */
    void flashAbort();

    /** Apply @p fn to every valid line (sets + victim buffer). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn)
    {
        walk(live_, fn);
        for (auto &l : victim_) {
            if (l.valid())
                fn(l);
        }
    }

    /** Apply @p fn to every speculative (TMI or TI) line, in the
     *  same order forEachValid visits them. */
    template <typename Fn>
    void
    forEachSpeculative(Fn &&fn)
    {
        walk(spec_, fn);
        for (auto &l : victim_) {
            if (speculative(l.state_))
                fn(l);
        }
    }

    /** Count valid lines in a given state. */
    unsigned countState(LineState s) const;

    unsigned sets() const { return numSets_; }
    unsigned ways() const { return ways_; }

    /** Raw storage, read-only: every set frame (valid or not) and
     *  the victim buffer, for brute-force cross-checks. */
    const std::vector<L1Line> &frames() const { return sets_; }
    const std::list<L1Line> &victimBuffer() const { return victim_; }

  private:
    using Mask = std::vector<std::uint64_t>;
    using VictimIt = std::list<L1Line>::iterator;

    unsigned numSets_;
    unsigned ways_;
    unsigned victimEntries_;
    bool unboundedVictim_;

    /** sets_[set * ways_ + way] */
    std::vector<L1Line> sets_;
    std::list<L1Line> victim_;

    /** One bit per sets_ frame: state != I, and state is TMI/TI. */
    Mask live_;
    Mask spec_;

    static bool
    speculative(LineState s)
    {
        return s == LineState::TMI || s == LineState::TI;
    }

    unsigned setIndex(Addr addr) const;

    /** Visit sets_ frames whose bit is set in @p mask, in ascending
     *  index.  The word is re-read after every call, so @p fn may
     *  change any frame's state: exactly the frames a full scan
     *  testing the state at visit time would reach. */
    template <typename Fn>
    void
    walk(const Mask &mask, Fn &&fn)
    {
        for (std::size_t w = 0; w < mask.size(); ++w) {
            std::uint64_t bits = mask[w];
            while (bits) {
                const unsigned b = std::countr_zero(bits);
                fn(sets_[w * 64 + b]);
                bits = b == 63
                           ? 0
                           : mask[w] & (~std::uint64_t{0} << (b + 1));
            }
        }
    }

    /** @name allocate() helpers */
    /// @{
    /** An invalid way of @p addr's set, or nullptr (asserts that
     *  @p addr is not cached). */
    L1Line *freeWay(Addr addr);
    /** Move the set's LRU line into the victim buffer; returns its
     *  (now reusable) frame. */
    L1Line *displaceLru(Addr addr);
    /** The victim-buffer entry to really evict, or end() when the
     *  buffer is within its bound (or may grow, unbounded mode). */
    VictimIt victimToEvict();
    /** Zero @p frame (state I) and tag it for @p addr. */
    L1Line &reset(L1Line &frame, Addr addr, Cycles now);
    /// @}

    /** The LRU line in state @p s (nullptr if none) and, when it is
     *  a victim-buffer entry, its iterator (else end()). */
    std::pair<L1Line *, VictimIt> lruInState(LineState s);
};

} // namespace flextm

#endif // FLEXTM_MEM_L1_CACHE_HH
