#include "sweep/batch.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "obs/registry.hh"
#include "obs/timer.hh"
#include "obs/trace.hh"
#include "predict/table.hh"

namespace ccp::sweep {

using predict::Confusion;
using predict::FunctionKind;
using predict::PAsFunction;
using predict::PerceptronFunction;
using predict::SchemeSpec;
using predict::SuiteResult;
using predict::UpdateMode;

namespace {

/**
 * Push @p fb into a shared history entry [count, h0, ..., h(D-1)]:
 * the slots shift one older (the oldest drops off), h0 takes the
 * feedback, and count saturates at D.  Slots at or past count stay
 * zero, since only zeros ever shift into them.
 */
inline void
pushHistory(std::uint64_t *entry, unsigned depth, std::uint64_t fb)
{
    for (unsigned j = depth - 1; j > 0; --j)
        entry[1 + j] = entry[j];
    entry[1] = fb;
    if (entry[0] < depth)
        ++entry[0];
}

/**
 * Validated packed-state size of one table: 2^bits entries x
 * @p entry_words words.  An adversarial sweep config can push
 * indexBits high enough that the shift (or the multiply) wraps
 * size_t and silently under-allocates, so both factors are checked
 * against hard ceilings and rejected as unusable configuration
 * (ccp_fatal) before any arithmetic can overflow.
 */
std::size_t
checkedSchemeStateWords(unsigned bits, std::size_t entry_words)
{
    if (bits > predict::maxTableIndexBits)
        ccp_fatal("scheme index width ", bits,
                  " bits exceeds the table ceiling of ",
                  predict::maxTableIndexBits, " bits");
    const std::size_t entries = std::size_t(1) << bits;
    if (entry_words == 0 ||
        entries > maxSchemeStateWords / entry_words)
        ccp_fatal("scheme state of 2^", bits, " entries x ",
                  entry_words, " words exceeds the ",
                  maxSchemeStateWords, "-word ceiling");
    return entries * entry_words;
}

} // namespace

BatchEvaluator::BatchEvaluator(std::vector<SchemeSpec> schemes,
                               unsigned n_nodes)
    : schemes_(std::move(schemes)), nNodes_(n_nodes)
{
    ccp_assert(!schemes_.empty(), "empty scheme batch");
    const unsigned node_bits = predict::nodeBitsFor(n_nodes);

    // Group the window-family schemes by IndexSpec (hashed flag
    // included), in first-appearance order: every member of a group
    // writes the same bitmaps to the same entries, so one history at
    // the deepest member's depth serves them all.
    std::vector<predict::IndexSpec> history_index;
    std::vector<std::vector<Member>> history_members;
    std::vector<std::size_t> learned_of;
    for (std::size_t i = 0; i < schemes_.size(); ++i) {
        const SchemeSpec &s = schemes_[i];
        Member m;
        m.scheme = i;
        switch (s.kind) {
          case FunctionKind::Union:
          case FunctionKind::Inter:
            ccp_assert(s.depth >= 1 && s.depth <= 32,
                       "bad window depth ", s.depth);
            m.read = s.kind == FunctionKind::Inter && s.depth > 1
                         ? Read::Inter
                         : Read::Union;
            m.depth = s.depth;
            break;
          case FunctionKind::OverlapLast:
            m.read = Read::OverlapLast;
            m.depth = 2;
            break;
          case FunctionKind::PAs:
          case FunctionKind::Perceptron:
            learned_of.push_back(i);
            continue;
        }
        auto it = std::find(history_index.begin(), history_index.end(),
                            s.index);
        if (it == history_index.end()) {
            history_index.push_back(s.index);
            history_members.emplace_back();
            it = history_index.end() - 1;
        }
        history_members[it - history_index.begin()].push_back(m);
    }

    // Slice the state: shared histories first, then learned schemes.
    std::size_t total_words = 0;
    auto add_table = [&](const predict::IndexSpec &index,
                         std::size_t entry_words) {
        Table t;
        t.plan = predict::makeIndexPlan(index, node_bits);
        t.entryWords = entry_words;
        t.base = total_words;
        total_words += checkedSchemeStateWords(
            index.indexBits(node_bits), entry_words);
        tables_.push_back(t);
    };
    for (std::size_t h = 0; h < history_index.size(); ++h) {
        std::vector<Member> &ms = history_members[h];
        // Depth order lets one prefix fold serve every member.
        std::stable_sort(ms.begin(), ms.end(),
                         [](const Member &a, const Member &b) {
                             return a.depth < b.depth;
                         });
        History hist;
        hist.depth = ms.back().depth;
        hist.firstMember = members_.size();
        members_.insert(members_.end(), ms.begin(), ms.end());
        hist.endMember = members_.size();
        histories_.push_back(hist);
        add_table(history_index[h], hist.depth + 1);
    }
    for (std::size_t i : learned_of) {
        const SchemeSpec &s = schemes_[i];
        Learned l;
        l.scheme = i;
        std::size_t entry_words;
        if (s.kind == FunctionKind::PAs) {
            l.pas = std::make_shared<const PAsFunction>(s.depth, n_nodes);
            entry_words = l.pas->entryWords();
        } else {
            l.perc = std::make_shared<const PerceptronFunction>(
                s.depth, n_nodes, s.perc);
            entry_words = l.perc->entryWords();
        }
        learned_.push_back(std::move(l));
        add_table(s.index, entry_words);
    }
    state_.assign(total_words, 0);
    entryScratch_.assign(tables_.size(), nullptr);
    updScratch_.assign(tables_.size(), nullptr);
}

template <UpdateMode mode>
inline void
BatchEvaluator::stepHistory(const History &h, Member *members,
                            std::uint64_t *entry, std::uint64_t *upd,
                            bool has_prev, std::uint64_t inval,
                            std::uint64_t fb_ordered, std::uint64_t mask,
                            std::uint64_t actual)
{
    // Same order as the reference step: direct and forwarded update
    // before predicting, ordered update after.
    if (mode != UpdateMode::Ordered && has_prev)
        pushHistory(upd, h.depth, inval);

    // One OR / AND prefix fold over the filled slots serves every
    // member: a depth-d member reads the fold at min(count, d).
    const std::uint64_t count = entry[0];
    const std::uint64_t *const slot = entry + 1;
    std::uint64_t any = 0, all = ~std::uint64_t(0);
    unsigned j = 0;
    for (std::size_t k = h.firstMember; k < h.endMember; ++k) {
        Member &m = members[k];
        std::uint64_t pred;
        if (m.read == Read::OverlapLast) {
            pred = count >= 2 && (slot[0] & slot[1]) ? slot[0] : 0;
        } else {
            const unsigned lim =
                static_cast<unsigned>(std::min<std::uint64_t>(m.depth,
                                                              count));
            for (; j < lim; ++j) {
                any |= slot[j];
                all &= slot[j];
            }
            pred = m.read == Read::Union ? any : count ? all : 0;
        }
        pred &= mask;
        m.tp += std::popcount(pred & actual);
        m.pp += std::popcount(pred);
    }

    if (mode == UpdateMode::Ordered)
        pushHistory(entry, h.depth, fb_ordered);
}

template <UpdateMode mode>
inline void
BatchEvaluator::stepLearned(Learned &l, std::uint64_t *entry,
                            std::uint64_t *upd, bool has_prev,
                            std::uint64_t inval,
                            std::uint64_t fb_ordered, std::uint64_t mask,
                            std::uint64_t actual)
{
    std::uint64_t pred;
    // Qualified calls: no virtual dispatch in the loop.
    if (l.pas) {
        if (mode != UpdateMode::Ordered && has_prev)
            l.pas->PAsFunction::update(upd, SharingBitmap(inval));
        pred = l.pas->PAsFunction::predict(entry).raw();
        if (mode == UpdateMode::Ordered)
            l.pas->PAsFunction::update(entry,
                                       SharingBitmap(fb_ordered));
    } else {
        if (mode != UpdateMode::Ordered && has_prev)
            l.perc->PerceptronFunction::update(upd,
                                               SharingBitmap(inval));
        pred = l.perc->PerceptronFunction::predict(entry).raw();
        if (mode == UpdateMode::Ordered)
            l.perc->PerceptronFunction::update(
                entry, SharingBitmap(fb_ordered));
    }
    pred &= mask;
    l.tp += std::popcount(pred & actual);
    l.pp += std::popcount(pred);
}

template <UpdateMode mode>
std::uint64_t
BatchEvaluator::runTrace(const trace::SharingTrace &trace,
                         const std::vector<SharingBitmap> &ordered_fb)
{
    const std::uint64_t mask = SharingBitmap::all(nNodes_).raw();
    std::uint64_t *const state = state_.data();
    const Table *const tables = tables_.data();
    const std::size_t n_tables = tables_.size();
    const History *const histories = histories_.data();
    const std::size_t n_histories = histories_.size();
    Member *const members = members_.data();
    Learned *const learned = learned_.data();

    std::uint64_t **const ent = entryScratch_.data();
    std::uint64_t **const upd_ptr = updScratch_.data();

    std::uint64_t actual_pop = 0;
    EventSeq seq = 0;
    for (const auto &ev : trace.events()) {
        // Decode once per event, not once per (event, scheme).
        const std::uint64_t pid = ev.pid;
        const std::uint64_t pcw = ev.pc >> 2;
        const std::uint64_t dir = ev.dir;
        const std::uint64_t block = ev.block;
        const std::uint64_t inval = ev.invalidated.raw();
        const std::uint64_t actual = ev.readers.raw() & mask;
        actual_pop += std::popcount(actual);
        const bool has_prev = ev.hasPrevWriter;
        const std::uint64_t prev_pid = ev.prevWriterPid;
        const std::uint64_t prev_pcw = ev.prevWriterPc >> 2;
        const std::uint64_t fb_ordered =
            mode == UpdateMode::Ordered ? ordered_fb[seq].raw() : 0;

        // Address pass: resolve (and prefetch) every table's entry
        // before any is touched, so the per-table cache misses
        // overlap instead of serializing behind each other.  The
        // entry's last word is prefetched too: a perceptron entry
        // spans two cache lines.  The update entry is the current
        // writer's for direct and ordered, the dying version's
        // writer's for forwarded (same dir/block, different identity
        // fields).
        for (std::size_t t = 0; t < n_tables; ++t) {
            const Table &tb = tables[t];
            std::uint64_t *const slice = state + tb.base;
            std::uint64_t *const entry =
                slice +
                tb.plan.fromWords(pid, pcw, dir, block) * tb.entryWords;
            ent[t] = entry;
            __builtin_prefetch(entry, 1);
            __builtin_prefetch(entry + tb.entryWords - 1, 1);
            if (mode == UpdateMode::Forwarded) {
                std::uint64_t *upd =
                    has_prev ? slice + tb.plan.fromWords(prev_pid,
                                                         prev_pcw, dir,
                                                         block) *
                                           tb.entryWords
                             : entry;
                upd_ptr[t] = upd;
                __builtin_prefetch(upd, 1);
            }
        }

        for (std::size_t t = 0; t < n_histories; ++t) {
            std::uint64_t *const entry = ent[t];
            std::uint64_t *const upd =
                mode == UpdateMode::Forwarded ? upd_ptr[t] : entry;
            stepHistory<mode>(histories[t], members, entry, upd,
                              has_prev, inval, fb_ordered, mask,
                              actual);
        }
        for (std::size_t t = n_histories; t < n_tables; ++t) {
            std::uint64_t *const entry = ent[t];
            std::uint64_t *const upd =
                mode == UpdateMode::Forwarded ? upd_ptr[t] : entry;
            stepLearned<mode>(learned[t - n_histories], entry, upd,
                              has_prev, inval, fb_ordered, mask,
                              actual);
        }
        ++seq;
    }
    return actual_pop;
}

std::vector<Confusion>
BatchEvaluator::evaluateTrace(const trace::SharingTrace &trace,
                              UpdateMode mode)
{
    ccp_assert(trace.nNodes() == nNodes_,
               "batch compiled for ", nNodes_, " nodes, trace has ",
               trace.nNodes());
    std::fill(state_.begin(), state_.end(), 0);
    for (Member &m : members_)
        m.tp = m.pp = 0;
    for (Learned &l : learned_)
        l.tp = l.pp = 0;

    std::vector<SharingBitmap> ordered_fb;
    if (mode == UpdateMode::Ordered)
        ordered_fb = predict::orderedFeedback(trace);

    CCP_TRACE_SPAN_N("batch", "batch.trace", trace.events().size());
    obs::Stopwatch watch;
    std::uint64_t actual_pop = 0;
    switch (mode) {
      case UpdateMode::Direct:
        actual_pop = runTrace<UpdateMode::Direct>(trace, ordered_fb);
        break;
      case UpdateMode::Forwarded:
        actual_pop = runTrace<UpdateMode::Forwarded>(trace, ordered_fb);
        break;
      case UpdateMode::Ordered:
        actual_pop = runTrace<UpdateMode::Ordered>(trace, ordered_fb);
        break;
    }
    double sec = watch.elapsedSec();

    const std::uint64_t events = trace.events().size();
    const std::uint64_t scheme_events = events * schemes_.size();
    auto &reg = obs::StatsRegistry::current();
    reg.counter("batch.trace_walks") += 1;
    reg.counter("batch.scheme_events") += scheme_events;
    reg.summary("batch.trace_seconds").add(sec);
    if (sec > 0.0 && scheme_events > 0)
        reg.summary("batch.scheme_events_per_sec")
            .add(static_cast<double>(scheme_events) / sec);

    // fp and fn follow by conservation: predicted-positive and
    // actual-positive totals minus the true positives.
    std::vector<Confusion> confs(schemes_.size());
    const std::uint64_t decisions = events * nNodes_;
    auto tally = [&](std::size_t scheme, std::uint64_t tp,
                     std::uint64_t pp) {
        confs[scheme] = Confusion::fromPositives(
            tp, pp - tp, actual_pop - tp, decisions);
    };
    for (const Member &m : members_)
        tally(m.scheme, m.tp, m.pp);
    for (const Learned &l : learned_)
        tally(l.scheme, l.tp, l.pp);
    return confs;
}

std::vector<SuiteResult>
BatchEvaluator::evaluateSuite(
    const std::vector<trace::SharingTrace> &traces, UpdateMode mode)
{
    ccp_assert(!traces.empty(), "empty benchmark suite");
    std::vector<SuiteResult> results(schemes_.size());
    for (std::size_t i = 0; i < schemes_.size(); ++i) {
        results[i].scheme = schemes_[i];
        results[i].mode = mode;
    }
    for (const auto &tr : traces) {
        ccp_assert(tr.nNodes() == traces.front().nNodes(),
                   "mixed machine sizes in suite");
        std::vector<Confusion> confs = evaluateTrace(tr, mode);
        for (std::size_t i = 0; i < confs.size(); ++i) {
            results[i].pooled.merge(confs[i]);
            results[i].perTrace.push_back({tr.name(), confs[i]});
        }
    }
    return results;
}

std::size_t
schemeStateWords(const SchemeSpec &s, unsigned n_nodes)
{
    const unsigned node_bits = predict::nodeBitsFor(n_nodes);
    std::size_t entry_words =
        s.kind == FunctionKind::PAs
            ? PAsFunction(s.depth, n_nodes).entryWords()
        : s.kind == FunctionKind::Perceptron
            ? PerceptronFunction(s.depth, n_nodes, s.perc)
                  .entryWords()
        : s.kind == FunctionKind::OverlapLast ? 3
                                              : s.depth + 1;
    return checkedSchemeStateWords(s.index.indexBits(node_bits),
                                   entry_words);
}

std::vector<std::pair<std::size_t, std::size_t>>
planBatches(const std::vector<SchemeSpec> &schemes, unsigned n_nodes,
            std::size_t max_state_words, std::size_t max_schemes)
{
    std::vector<std::pair<std::size_t, std::size_t>> batches;
    std::size_t first = 0, words = 0;
    for (std::size_t i = 0; i < schemes.size(); ++i) {
        std::size_t scheme_words =
            schemeStateWords(schemes[i], n_nodes);
        bool full = i > first && (i - first >= max_schemes ||
                                  words + scheme_words >
                                      max_state_words);
        if (full) {
            batches.emplace_back(first, i);
            first = i;
            words = 0;
        }
        words += scheme_words;
    }
    if (first < schemes.size())
        batches.emplace_back(first, schemes.size());
    return batches;
}

} // namespace ccp::sweep
