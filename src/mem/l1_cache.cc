#include "mem/l1_cache.hh"

#include <functional>

#include "sim/logging.hh"

namespace flextm
{

L1Cache::L1Cache(std::size_t bytes, unsigned ways,
                 unsigned victim_entries, bool unbounded_victim)
    : ways_(ways), victimEntries_(victim_entries),
      unboundedVictim_(unbounded_victim)
{
    sim_assert(ways >= 1);
    numSets_ = static_cast<unsigned>(bytes / (lineBytes * ways));
    sim_assert(numSets_ >= 1 && (numSets_ & (numSets_ - 1)) == 0,
               "L1 set count must be a power of two");
    sets_.resize(static_cast<std::size_t>(numSets_) * ways_);
    live_.assign((sets_.size() + 63) / 64, 0);
    spec_.assign(live_.size(), 0);
}

unsigned
L1Cache::setIndex(Addr addr) const
{
    return static_cast<unsigned>(lineNumber(addr)) & (numSets_ - 1);
}

L1Line *
L1Cache::find(Addr addr, Cycles now)
{
    L1Line *line = probe(addr);
    if (line)
        line->lastUse = now;
    return line;
}

L1Line *
L1Cache::probe(Addr addr)
{
    const Addr base = lineAlign(addr);
    const unsigned set = setIndex(addr);
    for (unsigned w = 0; w < ways_; ++w) {
        L1Line &l = sets_[static_cast<std::size_t>(set) * ways_ + w];
        if (l.valid() && l.base == base)
            return &l;
    }
    for (auto &l : victim_) {
        if (l.valid() && l.base == base)
            return &l;
    }
    return nullptr;
}

const L1Line *
L1Cache::probe(Addr addr) const
{
    return const_cast<L1Cache *>(this)->probe(addr);
}

void
L1Cache::setState(L1Line &line, LineState s)
{
    line.state_ = s;
    const std::less<const L1Line *> before;
    const L1Line *first = sets_.data();
    if (before(&line, first) || !before(&line, first + sets_.size()))
        return;  // victim-buffer entry
    const auto i = static_cast<std::size_t>(&line - first);
    const std::uint64_t b = std::uint64_t{1} << (i % 64);
    if (s != LineState::I)
        live_[i / 64] |= b;
    else
        live_[i / 64] &= ~b;
    if (speculative(s))
        spec_[i / 64] |= b;
    else
        spec_[i / 64] &= ~b;
}

L1Line *
L1Cache::freeWay(Addr addr)
{
    sim_assert(probe(addr) == nullptr, "allocate over existing line");
    const unsigned set = setIndex(addr);
    for (unsigned w = 0; w < ways_; ++w) {
        L1Line &l = sets_[static_cast<std::size_t>(set) * ways_ + w];
        if (!l.valid())
            return &l;
    }
    return nullptr;
}

L1Line *
L1Cache::displaceLru(Addr addr)
{
    const unsigned set = setIndex(addr);
    L1Line *lru = nullptr;
    for (unsigned w = 0; w < ways_; ++w) {
        L1Line &l = sets_[static_cast<std::size_t>(set) * ways_ + w];
        if (!lru || l.lastUse < lru->lastUse)
            lru = &l;
    }
    victim_.push_back(*lru);
    return lru;
}

L1Cache::VictimIt
L1Cache::victimToEvict()
{
    // Victim buffer overflow: really evict its LRU entry, preferring
    // non-speculative lines so that TMI state is spilled to the
    // overflow table only as a last resort (Section 4.1's "at least
    // one entry free for non-TMI lines" guidance).  In the
    // unbounded-victim ablation (Section 7.3 overflow study) only TMI
    // lines are exempt from eviction - the buffer is not a bigger
    // cache for ordinary lines, it only removes the overflow path.
    if (victim_.size() <= victimEntries_)
        return victim_.end();
    auto pick = victim_.end();
    for (auto it = victim_.begin(); it != victim_.end(); ++it) {
        if (it->state_ == LineState::TMI)
            continue;
        if (pick == victim_.end() || it->lastUse < pick->lastUse)
            pick = it;
    }
    if (pick == victim_.end() && !unboundedVictim_) {
        // Everything is TMI; spill the oldest.
        pick = victim_.begin();
        for (auto it = victim_.begin(); it != victim_.end(); ++it) {
            if (it->lastUse < pick->lastUse)
                pick = it;
        }
    }
    // pick == end() only in unbounded mode with an all-TMI buffer:
    // let it grow instead of spilling.
    return pick;
}

L1Line &
L1Cache::reset(L1Line &frame, Addr addr, Cycles now)
{
    setState(frame, LineState::I);
    frame = L1Line{};
    frame.base = lineAlign(addr);
    frame.lastUse = now;
    return frame;
}

void
L1Cache::invalidate(L1Line &line)
{
    setState(line, LineState::I);
    line.aBit = false;
}

std::pair<L1Line *, L1Cache::VictimIt>
L1Cache::lruInState(LineState s)
{
    sim_assert(s != LineState::I, "no LRU among invalid frames");
    L1Line *pick = nullptr;
    walk(speculative(s) ? spec_ : live_, [&](L1Line &l) {
        if (l.state_ == s && (!pick || l.lastUse < pick->lastUse))
            pick = &l;
    });
    auto pick_it = victim_.end();
    for (auto it = victim_.begin(); it != victim_.end(); ++it) {
        if (it->state_ == s && (!pick || it->lastUse < pick->lastUse)) {
            pick = &*it;
            pick_it = it;
        }
    }
    return {pick, pick_it};
}

void
L1Cache::flashCommit()
{
    forEachSpeculative([this](L1Line &l) {
        setState(l, l.state_ == LineState::TMI ? LineState::M
                                               : LineState::I);
    });
    // Compact invalidated victim-buffer entries.
    victim_.remove_if([](const L1Line &l) { return !l.valid(); });
}

void
L1Cache::flashAbort()
{
    forEachSpeculative([this](L1Line &l) { setState(l, LineState::I); });
    victim_.remove_if([](const L1Line &l) { return !l.valid(); });
}

unsigned
L1Cache::countState(LineState s) const
{
    if (s == LineState::I)
        return 0;
    const Mask &mask = speculative(s) ? spec_ : live_;
    unsigned n = 0;
    for (std::size_t w = 0; w < mask.size(); ++w) {
        for (std::uint64_t bits = mask[w]; bits; bits &= bits - 1) {
            if (sets_[w * 64 + std::countr_zero(bits)].state_ == s)
                ++n;
        }
    }
    for (const auto &l : victim_)
        if (l.state_ == s)
            ++n;
    return n;
}

} // namespace flextm
