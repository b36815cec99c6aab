//! The shared lower/upper-bound engine behind NRA (§8.1), CA (§8.2) and the
//! intermittent baseline (§8.4) — plus the NRA algorithm itself.
//!
//! The engine maintains, for every object seen so far, its known fields and
//! the bounds `W(R) ≤ t(R) ≤ B(R)` of Propositions 8.1/8.2, the current
//! top-`k` list `T_k` (ordered by `W`, ties broken by `B` as the paper
//! requires), and the halting test "no viable object remains outside
//! `T_k`" (an object is *viable* when `B(R) > M_k`).
//!
//! ## Dense, allocation-free bookkeeping
//!
//! The paper's cost model charges per *access*; the engine's job is to keep
//! the per-round bookkeeping sub-linear in the candidate count so that the
//! access-optimal algorithms are also wall-clock fast. Object ids are dense
//! indices, so all hot state lives in generation-stamped flat tables inside
//! a reusable [`EngineScratch`] arena (cleared in `O(1)` between runs, no
//! steady-state allocation — see `crate::arena`):
//!
//! * **candidate rows** — a [`RowTable`] replaces the historical
//!   `HashMap<ObjectId, Cand>`: a candidate lookup is two indexed loads,
//!   and each row caches its current `W` and separable score;
//! * **incremental `T_k`** — members stay selected from one round to the
//!   next and carry a flag on their row. [`refresh_selection`] reloads
//!   the members' `W` only in rounds where one of them rose, then promotes
//!   outsiders off the `W` index while the best of them beats the `k`-th
//!   member; a displaced member is re-filed in both heaps. A round
//!   therefore costs in proportion to what changed in it, not to `k`;
//! * **`W` index** — `W(R)` only ever *rises* as fields are learned, so a
//!   lazy max-heap of `(W, id)` snapshots of the *outsiders* replaces the
//!   `BTreeSet`: an outsider's `W` change pushes a fresh snapshot, and
//!   stale (entry `W` ≠ the row's cached `W`), dead and member entries are
//!   discarded for good when they surface. Every outsider's current
//!   snapshot is always present, so the heap top is the best outsider in
//!   the old tree's `(W desc, id asc)` order — without per-node
//!   allocation or pointer chasing;
//! * **stale-`B` max-heap of outsiders** — `B(R)` never increases as
//!   sorted access proceeds, so a heap of *stale* upper bounds is sound:
//!   if the largest stored bound is `≤ M_k`, no outsider is viable and the
//!   run halts. Only entries that could still block halting are
//!   refreshed. `T_k` members are not outsiders: the halting test and the
//!   certificate drop a member's entry when they meet it, and a member
//!   gets a fresh bound when it is displaced;
//! * **candidate eviction** — once `T_k` is full, an object with
//!   `B(R) < M_k` can never re-enter the top `k` (both quantities are
//!   monotone: `B` falls, `M_k` rises), so the engine kills its row for
//!   good (a stamped bitmap replaces the eviction `HashSet`). A dead
//!   candidate re-encountered later under sorted access is re-admitted with
//!   a *partial* record whose pseudo-bounds are still sound, so it is
//!   harmlessly re-evicted. Strict inequality keeps boundary ties
//!   (`B = M_k`) resident, which is what makes the eviction invisible to
//!   the access sequence. See [`BoundEngine::without_eviction`] for the one
//!   consumer that must opt out.
//!
//! The observable contract (unchanged since the incremental rewrite of
//! PR 3): every halting decision, `T_k` selection and random-access choice
//! depends only on `(W, B, τ)` *values*, which the lazy structures
//! reproduce exactly — the sequence of sorted/random accesses is identical
//! to the historical implementations (pinned by
//! `tests/engine_equivalence.rs`).
//!
//! [`refresh_selection`]: BoundEngine::refresh_selection
//! [`RowTable`]: crate::arena::RowTable
//!
//! Two bookkeeping strategies implement Remark 8.7's discussion:
//!
//! * [`BookkeepingStrategy::Exhaustive`] — faithful to the paper's
//!   statement, including `B`-based tie-breaking of the boundary `W`-group
//!   in `T_k`.
//! * [`BookkeepingStrategy::LazyHeap`] — ties at the `M_k` boundary are
//!   broken by object id instead of `B` (a documented deviation that can
//!   delay halting by a round on tied databases but never affects
//!   correctness).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use fagin_middleware::{
    AccessError, BatchConfig, Entry, EventKind, Grade, Middleware, ObjectId, SlotSet,
};

use crate::aggregation::Aggregation;
use crate::anytime::{AnytimeConfig, BestSnapshot};
use crate::arena::{Lease, RowTable, RunScratch};
use crate::bounds::Bottoms;
use crate::output::{AlgoError, HaltReason, RunMetrics, ScoredObject, TopKOutput};

use super::{validate, TopKAlgorithm};

/// How NRA/CA break ties in the `T_k` selection (Remark 8.7).
///
/// Both strategies share the lazy incremental structures; the names are
/// kept because the *selection* semantics still differ (faithful `B`
/// tie-breaking vs id tie-breaking) and because the access sequences of
/// both historical implementations are pinned by tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BookkeepingStrategy {
    /// Faithful boundary tie-breaking: the `W`-tied group at the `T_k`
    /// boundary is ordered by `B` (then id), as the paper requires.
    #[default]
    Exhaustive,
    /// Boundary ties broken by object id only; never recomputes `B` during
    /// selection.
    LazyHeap,
}

/// Per-candidate cached values stored in the row table's payload: the
/// current `W(R)` (changes only when a field is learned), the
/// separable-bound score (see [`Aggregation::bound_score`]; meaningful only
/// while the engine keeps a separable index), and whether the candidate is
/// a member of the current `T_k`.
#[derive(Clone, Copy, Default)]
struct CandMeta {
    w: Grade,
    score: Grade,
    member: bool,
}

/// Max-heap entry: a `(value, id)` snapshot ordered largest-value first;
/// ties pop the *smallest* object id first (the `Reverse`). Used for the
/// stale-`B` heaps (value = a sound upper bound on `B`) and the lazy `W`
/// index (value = a `W` snapshot; stale iff ≠ the row's cached `W`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapEntry(Grade, Reverse<ObjectId>);

/// Incomplete candidates sharing one missing-field mask, for aggregations
/// with the separable-bound capability ([`Aggregation::bound_score`]).
/// Within a mask the bottoms restriction is common, so the score orders the
/// `B` bounds exactly; the two lazy heaps answer "largest `B`" (score
/// order) and "smallest id among `B`-ties" (id order) without touching the
/// whole group. Entries are snapshots validated against the row table on
/// pop (a member's score within a mask is fixed, grades being immutable);
/// `members` counts the live membership so empty groups can be retired to a
/// spare pool and their storage reused.
#[derive(Default)]
struct ScoreGroup {
    by_score: BinaryHeap<HeapEntry>,
    by_id: BinaryHeap<Reverse<ObjectId>>,
    members: usize,
}

impl ScoreGroup {
    /// Empties the group for reuse under a (possibly different) mask.
    fn recycle(&mut self) {
        self.by_score.clear();
        self.by_id.clear();
        self.members = 0;
    }
}

/// The current top-`k` list `T_k`, kept incrementally across rounds by
/// [`BoundEngine::refresh_selection`]. Membership is a flag on the
/// candidate's row ([`CandMeta::member`]), so a membership test is one
/// indexed load. Members hold no `W` snapshot in the `W` index and no
/// entry the halting test would refresh: a member whose `W` rises only
/// marks the selection stale, and a displaced member gets a fresh `W`
/// snapshot and a fresh `B` bound at the moment it leaves.
#[derive(Default)]
pub(crate) struct Selection {
    /// `(object, W)` best-first: `(W desc, id asc)`, except that under
    /// [`BookkeepingStrategy::Exhaustive`] a `W`-tied boundary group with
    /// tied outsiders is ordered `(B desc, id asc)`. Length
    /// `min(k, live candidates)`.
    pub top: Vec<(ObjectId, Grade)>,
    /// `M_k`: the `k`-th largest `W` value (worst `W` in `top` when full).
    pub m_k: Grade,
    /// Whether `top` holds `k` entries.
    pub full: bool,
    /// A member's `W` rose since the last refresh: `top` must be reloaded
    /// from the rows and re-sorted.
    stale: bool,
}

/// Evict-scan floor: below this many live candidates a sweep isn't worth
/// scheduling (the halting check already refreshes the interesting ones).
const PRUNE_FLOOR: usize = 128;

/// All reusable storage of one [`BoundEngine`] run: the dense candidate
/// table, the lazy heaps, the separable-score groups, eviction state, the
/// in-place `T_k` selection, and assorted scan buffers. Cleared in `O(1)`
/// (generation bumps + capacity-retaining `clear`s) at the start of every
/// run; owned by [`RunScratch`](crate::arena::RunScratch).
#[derive(Default)]
pub(crate) struct EngineScratch {
    rows: RowTable<CandMeta>,
    bottoms: Bottoms,
    /// Lazy `W` index (see the module docs).
    by_w: BinaryHeap<HeapEntry>,
    /// Stale-but-sound upper bounds on `B`, ≥ 1 entry per live candidate.
    b_heap: BinaryHeap<HeapEntry>,
    /// CA only, generic aggregations: stale `B` bounds over incomplete
    /// candidates (may carry duplicates for re-admitted objects; cleaned
    /// lazily).
    incomplete: BinaryHeap<HeapEntry>,
    /// CA only, separable aggregations: per-missing-mask score index.
    groups: HashMap<u64, ScoreGroup>,
    /// Retired group storage, reused for newly occupied masks.
    spare_groups: Vec<ScoreGroup>,
    /// Ids of currently-evicted objects (so re-admission doesn't recount
    /// them in `seen`).
    evicted_ids: SlotSet,
    /// Every eviction event, in order (ids may repeat if re-admitted and
    /// re-evicted). Surfaced as [`RunMetrics::evicted`].
    evicted_log: Vec<ObjectId>,
    sel: Selection,
    tied: Vec<(ObjectId, Grade)>,
    mask_keys: Vec<u64>,
    tied_masks: Vec<(u64, Grade)>,
    popped_scores: Vec<HeapEntry>,
    popped_ids: Vec<Reverse<ObjectId>>,
    dead: Vec<ObjectId>,
    scratch: Vec<Grade>,
}

impl EngineScratch {
    /// Rewinds every structure for a fresh run over `m` lists.
    fn reset(&mut self, m: usize) {
        self.rows.reset(m);
        self.bottoms.reset(m);
        self.by_w.clear();
        self.b_heap.clear();
        self.incomplete.clear();
        // Group storage parks in the spare pool rather than dropping.
        let spare = &mut self.spare_groups;
        for (_, mut g) in self.groups.drain() {
            g.recycle();
            spare.push(g);
        }
        self.evicted_ids.reset();
        self.evicted_log.clear();
        self.sel.top.clear();
        self.sel.m_k = Grade::ZERO;
        self.sel.full = false;
        self.sel.stale = false;
        self.tied.clear();
        self.mask_keys.clear();
        self.tied_masks.clear();
        self.popped_scores.clear();
        self.popped_ids.clear();
        self.dead.clear();
        self.scratch.clear();
    }
}

/// Shared NRA/CA state machine.
pub(crate) struct BoundEngine<'a> {
    agg: &'a dyn Aggregation,
    s: Lease<'a, EngineScratch>,
    k: usize,
    strategy: BookkeepingStrategy,
    /// Permanently drop candidates with `B < M_k` (on by default; the
    /// intermittent baseline must opt out, see [`Self::without_eviction`]).
    evict: bool,
    /// Maintain the incomplete-candidate index for
    /// [`Self::best_viable_incomplete`] (CA only).
    track_incomplete: bool,
    /// Whether the aggregation advertises the separable-bound capability.
    separable: bool,
    /// Approximation factor θ ≥ 1 (§6.2 extended to NRA/CA): the halting
    /// comparisons treat an outsider bound `x` as still viable only when
    /// `x > θ·M_k`. Eviction and pruning keep the *exact* rule (`B < M_k`)
    /// — dropping a candidate must stay invisible to the access sequence
    /// regardless of θ, and a θ-halt only ever fires earlier.
    theta: f64,
    /// Distinct objects ever seen — what the candidate count used to mean
    /// before eviction existed; the halting test's "whole database seen"
    /// checks depend on it.
    seen: usize,
    /// Next live-candidate count at which to sweep the heap for dead
    /// entries (doubling schedule → amortized `O(1)` per insertion).
    prune_watermark: usize,
    pub(crate) peak_candidates: usize,
    pub(crate) bound_recomputations: u64,
}

impl<'a> BoundEngine<'a> {
    /// An engine leasing the caller's reusable arena.
    pub(crate) fn new_in(
        agg: &'a dyn Aggregation,
        m: usize,
        k: usize,
        strategy: BookkeepingStrategy,
        scratch: &'a mut EngineScratch,
    ) -> Self {
        Self::with_lease(agg, m, k, strategy, Lease::Leased(scratch))
    }

    fn with_lease(
        agg: &'a dyn Aggregation,
        m: usize,
        k: usize,
        strategy: BookkeepingStrategy,
        mut s: Lease<'a, EngineScratch>,
    ) -> Self {
        s.reset(m);
        BoundEngine {
            agg,
            s,
            k,
            strategy,
            evict: true,
            track_incomplete: false,
            separable: false,
            theta: 1.0,
            seen: 0,
            prune_watermark: 0,
            peak_candidates: 0,
            bound_recomputations: 0,
        }
    }

    /// Disables candidate eviction. Required by the intermittent baseline,
    /// which performs random accesses in TA's sighting order regardless of
    /// viability: evicting a dead candidate would forget which fields it
    /// already resolved and change the (deliberately wasteful) access
    /// sequence the strawman is defined by. NRA/CA only ever probe viable
    /// objects, which eviction provably never touches.
    pub(crate) fn without_eviction(mut self) -> Self {
        self.evict = false;
        self
    }

    /// Relaxes the halting test to the θ-approximate rule: halt once
    /// `θ·M_k ≥ B` for every object outside `T_k` (then every unselected
    /// `z` has `θ·t(y) ≥ θ·M_k ≥ B(z) ≥ t(z)` for each selected `y`). At
    /// θ = 1 the comparison stays the exact `Grade` order — bit-identical
    /// to the pinned historical behavior, no float multiply on that path.
    pub(crate) fn with_theta(mut self, theta: f64) -> Self {
        debug_assert!(
            theta.is_finite() && theta >= 1.0,
            "theta must be finite and at least 1"
        );
        self.theta = theta;
        self
    }

    /// The relaxed viability comparison: whether `x` exceeds `θ·m_k`.
    #[inline]
    fn exceeds_relaxed(theta: f64, x: Grade, m_k: Grade) -> bool {
        if theta <= 1.0 {
            x > m_k
        } else {
            x.value() > theta * m_k.value()
        }
    }

    /// Enables the incomplete-candidate index behind
    /// [`Self::best_viable_incomplete`] (CA's random-access target choice).
    /// Aggregations advertising [`Aggregation::bound_score`] get the exact
    /// separable index; the rest get the lazy stale-bound heap.
    pub(crate) fn tracking_incomplete(mut self) -> Self {
        self.track_incomplete = true;
        self.separable = self.agg.bound_score(&[Grade::ZERO]).is_some();
        self
    }

    /// The eviction log so far: every object dropped by the viability rule,
    /// in eviction order. Copied into [`RunMetrics::evicted`] at finish.
    pub(crate) fn evictions(&self) -> &[ObjectId] {
        &self.s.evicted_log
    }

    /// The current threshold value `τ = t(x̱₁,…,x̱_m)` — the `B` bound of
    /// every unseen object.
    pub(crate) fn threshold(&mut self) -> Grade {
        let s = &mut *self.s;
        s.bottoms.threshold(self.agg, &mut s.scratch)
    }

    /// Ingests one sorted-access result.
    pub(crate) fn observe_sorted(&mut self, list: usize, entry: Entry) {
        self.s.bottoms.observe(list, entry.grade);
        self.learn(entry.object, list, entry.grade);
    }

    /// Ingests one batch of sorted-access results from `list`, in order.
    ///
    /// Equivalent to calling [`BoundEngine::observe_sorted`] per entry —
    /// the engine's bounds depend only on the set of observations, so batch
    /// ingestion cannot change any `W`/`B` value; the batching win is in
    /// the middleware call that produced `entries`, not here.
    pub(crate) fn observe_sorted_batch(&mut self, list: usize, entries: &[Entry]) {
        for &entry in entries {
            self.observe_sorted(list, entry);
        }
    }

    /// Ingests one random-access result (the object must already be seen —
    /// NRA-family algorithms never wild-guess).
    pub(crate) fn learn_random(&mut self, object: ObjectId, list: usize, grade: Grade) {
        debug_assert!(self.s.rows.is_live(object.index()), "no wild guesses");
        self.learn(object, list, grade);
    }

    fn learn(&mut self, object: ObjectId, list: usize, grade: Grade) {
        let idx = object.index();
        let s = &mut *self.s;
        if s.rows.is_live(idx) {
            let old_mask = s.rows.missing_mask(idx);
            if !s.rows.learn(idx, list, grade) {
                return;
            }
            let old_w = s.rows.payload(idx).w;
            let new_w = s.rows.w(idx, self.agg, &mut s.scratch);
            self.bound_recomputations += 1;
            if new_w != old_w {
                let meta = s.rows.payload_mut(idx);
                meta.w = new_w;
                if meta.member {
                    s.sel.stale = true;
                } else {
                    s.by_w.push(HeapEntry(new_w, Reverse(object)));
                }
            }
            if self.separable {
                Self::group_remove(s, old_mask);
                if !s.rows.is_complete(idx) {
                    Self::group_insert(s, self.agg, object);
                }
            }
            return;
        }

        // First sighting (or re-admission after eviction): build the row
        // and snapshot it into every index.
        s.rows.admit(idx);
        s.rows.learn(idx, list, grade);
        let w = s.rows.w(idx, self.agg, &mut s.scratch);
        let b = s.rows.b(idx, self.agg, &s.bottoms, &mut s.scratch);
        self.bound_recomputations += 2;
        s.rows.payload_mut(idx).w = w;
        s.by_w.push(HeapEntry(w, Reverse(object)));
        s.b_heap.push(HeapEntry(b, Reverse(object)));
        if self.track_incomplete && !s.rows.is_complete(idx) {
            if self.separable {
                Self::group_insert(s, self.agg, object);
            } else {
                s.incomplete.push(HeapEntry(b, Reverse(object)));
            }
        }
        if !s.evicted_ids.remove(idx) {
            self.seen += 1;
        }
        self.peak_candidates = self.peak_candidates.max(s.rows.live());
    }

    /// Files a live incomplete candidate in its separable-bound group,
    /// caching the freshly computed score.
    fn group_insert(s: &mut EngineScratch, agg: &dyn Aggregation, object: ObjectId) {
        let idx = object.index();
        s.scratch.clear();
        s.rows.known_values(idx, &mut s.scratch);
        let score = agg.bound_score(&s.scratch).expect("probed at construction");
        s.rows.payload_mut(idx).score = score;
        let mask = s.rows.missing_mask(idx);
        let spare = &mut s.spare_groups;
        let group = s
            .groups
            .entry(mask)
            .or_insert_with(|| spare.pop().unwrap_or_default());
        group.members += 1;
        group.by_score.push(HeapEntry(score, Reverse(object)));
        group.by_id.push(Reverse(object));
    }

    /// Unfiles a member from its mask group. Heap entries are left behind
    /// (they invalidate by value); empty groups retire their storage to
    /// the spare pool so queries only ever visit occupied masks.
    fn group_remove(s: &mut EngineScratch, mask: u64) {
        let group = s.groups.get_mut(&mask).expect("member's group exists");
        group.members -= 1;
        if group.members == 0 {
            let mut g = s.groups.remove(&mask).expect("group present");
            g.recycle();
            s.spare_groups.push(g);
        }
    }

    /// Whether `object` is currently a live member of the group for `mask`
    /// (the value-based validity test for group heap snapshots).
    #[inline]
    fn in_group(s: &EngineScratch, mask: u64, object: ObjectId) -> bool {
        let idx = object.index();
        s.rows.is_live(idx) && !s.rows.is_complete(idx) && s.rows.missing_mask(idx) == mask
    }

    fn b_of(&mut self, object: ObjectId) -> Grade {
        self.bound_recomputations += 1;
        let s = &mut *self.s;
        s.rows
            .b(object.index(), self.agg, &s.bottoms, &mut s.scratch)
    }

    /// Whether every field of `object` is known.
    pub(crate) fn is_complete(&self, object: ObjectId) -> bool {
        self.s.rows.is_complete(object.index())
    }

    /// Appends the missing fields of `object` to `out`.
    pub(crate) fn missing_fields_into(&self, object: ObjectId, out: &mut Vec<usize>) {
        out.clear();
        self.s.rows.missing_into(object.index(), out);
    }

    /// Whether live candidate `object` is a member of the current `T_k`.
    #[inline]
    fn is_selected(s: &EngineScratch, object: ObjectId) -> bool {
        s.rows.payload(object.index()).member
    }

    /// The best *current* outsider `W` snapshot `(W desc, id asc)`, left in
    /// place. Stale, dead and member snapshots on top are discarded for
    /// good. `None` when no live outsider remains indexed.
    fn peek_outsider(s: &mut EngineScratch) -> Option<HeapEntry> {
        loop {
            let e = *s.by_w.peek()?;
            let HeapEntry(w, Reverse(o)) = e;
            let idx = o.index();
            if s.rows.is_live(idx) {
                let meta = s.rows.payload(idx);
                if meta.w == w && !meta.member {
                    return Some(e);
                }
            }
            s.by_w.pop();
        }
    }

    /// Brings `T_k` up to date with this round's changes (paper: largest
    /// `W`, ties by larger `B`, then by smaller object id for determinism).
    ///
    /// Members stay selected from round to round, so the work is in
    /// proportion to what changed:
    ///
    /// 1. if a member's `W` rose, every member's `W` is reloaded from its
    ///    row and `top` re-sorted (`k` cheap loads, no bound evaluation);
    /// 2. outsiders are promoted off the `W` index only while the best of
    ///    them beats the `k`-th member — in `(W desc, id asc)` order, or
    ///    under [`BookkeepingStrategy::Exhaustive`] by strictly larger `W`.
    ///    The displaced member gets a fresh `W` snapshot and `B` bound;
    /// 3. under `Exhaustive`, when an outsider ties the boundary value
    ///    `W_k`, the whole `W_k` group is re-ranked by `B`
    ///    ([`Self::rerank_boundary`]).
    ///
    /// After step 2 every outsider has `W ≤ W_k` and every candidate with
    /// `W > W_k` is a member, so the result equals a from-scratch sort of
    /// the live candidates (pinned by the unit test
    /// `incremental_selection_matches_a_rebuild`).
    pub(crate) fn refresh_selection(&mut self) {
        let k_eff = self.k.min(self.s.rows.live().max(1));
        let s = &mut *self.s;
        if s.sel.stale {
            for slot in s.sel.top.iter_mut() {
                slot.1 = s.rows.payload(slot.0.index()).w;
            }
            s.sel
                .top
                .sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            s.sel.stale = false;
        }
        debug_assert!(s.sel.top.len() <= k_eff, "members are never evicted");

        while let Some(HeapEntry(w, Reverse(o))) = Self::peek_outsider(s) {
            if s.sel.top.len() == k_eff {
                let &(last, last_w) = s.sel.top.last().expect("k_eff >= 1");
                let beats = match self.strategy {
                    BookkeepingStrategy::LazyHeap => (w, Reverse(o)) > (last_w, Reverse(last)),
                    BookkeepingStrategy::Exhaustive => w > last_w,
                };
                if !beats {
                    break;
                }
                s.sel.top.pop();
                s.rows.payload_mut(last.index()).member = false;
                s.by_w.push(HeapEntry(last_w, Reverse(last)));
                let b = s.rows.b(last.index(), self.agg, &s.bottoms, &mut s.scratch);
                self.bound_recomputations += 1;
                s.b_heap.push(HeapEntry(b, Reverse(last)));
            }
            s.by_w.pop();
            s.rows.payload_mut(o.index()).member = true;
            let at = s
                .sel
                .top
                .partition_point(|&(to, tw)| (tw, Reverse(to)) > (w, Reverse(o)));
            s.sel.top.insert(at, (o, w));
        }

        if self.strategy == BookkeepingStrategy::Exhaustive {
            if let Some(&(_, wk)) = s.sel.top.last() {
                if Self::peek_outsider(s).is_some_and(|e| e.0 == wk) {
                    self.rerank_boundary(wk, k_eff);
                }
            }
        }

        let s = &mut *self.s;
        let live = s.rows.live();
        s.sel.full = s.sel.top.len() == self.k.min(live) && live >= self.k;
        s.sel.m_k = s.sel.top.last().map_or(Grade::ZERO, |&(_, w)| w);
    }

    /// The faithful boundary tie-break: the `W_k`-tied group — the members
    /// at `W_k` plus every outsider at `W_k` (all at the top of the `W`
    /// index) — is re-ranked by `(B desc, id asc)` and the best fill the
    /// remaining seats. Losers go back to the `W` index; a displaced
    /// member also gets its just-computed `B` filed in the stale-`B` heap.
    ///
    /// The seated tail stays in `B` order until the next refresh, which
    /// re-ranks it again: while any of it is still at `W_k`, some outsider
    /// ties it (a loser, or a member it displaced), and `Exhaustive`
    /// promotes only by strictly larger `W`, so any tail member is a valid
    /// `k`-th entry to compare against.
    fn rerank_boundary(&mut self, wk: Grade, k_eff: usize) {
        let mut tied = std::mem::take(&mut self.s.tied);
        let s = &mut *self.s;
        // A candidate can surface twice when re-admission re-snapshots an
        // unchanged W; duplicates pop adjacently (identical keys) and are
        // dropped, keeping one snapshot.
        let mut last = None;
        while let Some(HeapEntry(w, Reverse(o))) = Self::peek_outsider(s) {
            if w != wk {
                break;
            }
            s.by_w.pop();
            if last != Some(o) {
                last = Some(o);
                tied.push((o, Grade::ZERO));
            }
        }
        while s.sel.top.last().is_some_and(|&(_, w)| w == wk) {
            let (o, _) = s.sel.top.pop().expect("checked non-empty");
            tied.push((o, Grade::ZERO));
        }
        for slot in tied.iter_mut() {
            slot.1 = self.b_of(slot.0);
        }
        tied.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let s = &mut *self.s;
        let seats = k_eff - s.sel.top.len();
        for (i, &(o, b)) in tied.iter().enumerate() {
            let meta = s.rows.payload_mut(o.index());
            if i < seats {
                meta.member = true;
                s.sel.top.push((o, wk));
                continue;
            }
            if std::mem::take(&mut meta.member) {
                s.b_heap.push(HeapEntry(b, Reverse(o)));
            }
            s.by_w.push(HeapEntry(wk, Reverse(o)));
        }
        tied.clear();
        s.tied = tied;
    }

    /// The halting test against the current selection: `T_k` is full (or
    /// the whole database has been seen) and no viable object remains
    /// outside it — including unseen objects, whose `B` equals the
    /// threshold `τ`. Under θ > 1 ([`Self::with_theta`]) "viable" means
    /// `B > θ·M_k`, so the test can only fire earlier, never later.
    ///
    /// Identical in outcome to recomputing every candidate's `B`: stored
    /// heap bounds only ever *over*-estimate, so any genuinely viable
    /// outsider is found, and a max stored bound `≤ θ·M_k` proves none
    /// exists.
    pub(crate) fn check_halt(&mut self, num_objects: usize) -> bool {
        let k_eff = self.k.min(num_objects);
        if self.seen < k_eff {
            return false;
        }
        let (full, m_k) = (self.s.sel.full, self.s.sel.m_k);
        if !full && self.seen < num_objects {
            return false;
        }
        // Unseen objects are viable iff τ > θ·M_k.
        if self.seen < num_objects {
            let tau = self.threshold();
            if Self::exceeds_relaxed(self.theta, tau, m_k) {
                return false;
            }
        }
        self.maybe_prune();

        loop {
            let top0 = match self.s.b_heap.peek() {
                None => return true,
                Some(top) => top.0,
            };
            if !Self::exceeds_relaxed(self.theta, top0, m_k) {
                return true;
            }
            let HeapEntry(_, Reverse(object)) = self.s.b_heap.pop().expect("peeked");
            if !self.s.rows.is_live(object.index()) || Self::is_selected(&self.s, object) {
                // Evicted objects and T_k members are not outsiders: drop
                // the entry for good (a displaced member is re-filed fresh).
                continue;
            }
            let b = self.b_of(object);
            if Self::exceeds_relaxed(self.theta, b, m_k) {
                self.s.b_heap.push(HeapEntry(b, Reverse(object)));
                return false;
            }
            if self.evict && full && b < m_k {
                // Viability rule: B(R) < M_k with T_k full ⇒ R can never
                // enter the top k (B falls, M_k rises). Drop it for good.
                self.evict_now(object);
            } else {
                // Refreshed to b ≤ θ·M_k (but not evictably below M_k):
                // re-file; cannot re-pop this round.
                self.s.b_heap.push(HeapEntry(b, Reverse(object)));
            }
        }
    }

    /// The *achieved* approximation guarantee `θ̂` of the current
    /// selection: the smallest factor for which every selected `y` and
    /// unselected `z` satisfy `θ̂·t(y) ≥ t(z)`, computed from the live
    /// bounds as `max_outside_B / M_k` (clamped to ≥ 1). Selected objects
    /// have `t ≥ W ≥ M_k`; live outsiders are bounded by the exact maximum
    /// `B` (a lazy drain of the stale-`B` heap, mirroring
    /// [`Self::best_viable_incomplete`]); unseen objects contribute the
    /// threshold `τ`; evicted objects had `B < M_k` and are covered for
    /// free.
    ///
    /// `None` when the state cannot certify yet: the selection is not full
    /// while unseen objects remain, or `M_k = 0` with a non-zero outsider
    /// bound. Performs no middleware accesses — certificates are pure
    /// bookkeeping, so probing one at a round boundary cannot perturb the
    /// pinned access sequences.
    pub(crate) fn certificate(&mut self, num_objects: usize) -> Option<f64> {
        if self.s.sel.top.is_empty() || (!self.s.sel.full && self.seen < num_objects) {
            return None;
        }
        let m_k = self.s.sel.m_k;
        let mut max_outside = if self.seen < num_objects {
            self.threshold()
        } else {
            Grade::ZERO
        };
        while let Some(&HeapEntry(key, Reverse(object))) = self.s.b_heap.peek() {
            if key <= max_outside {
                break; // stored bounds over-estimate: no outsider beats it
            }
            self.s.b_heap.pop();
            if !self.s.rows.is_live(object.index()) || Self::is_selected(&self.s, object) {
                continue; // not an outsider: drop the entry for good
            }
            let b = self.b_of(object);
            self.s.b_heap.push(HeapEntry(b, Reverse(object)));
            if b == key {
                // The refresh confirmed the heap max: exact outsider max.
                max_outside = b;
                break;
            }
        }
        if m_k == Grade::ZERO {
            return (max_outside == Grade::ZERO).then_some(1.0);
        }
        Some(crate::anytime::certified_ratio(
            max_outside.value(),
            m_k.value(),
        ))
    }

    /// Permanently drops a candidate that the viability rule proved dead.
    /// Index snapshots are left to invalidate by value.
    fn evict_now(&mut self, object: ObjectId) {
        let idx = object.index();
        let s = &mut *self.s;
        debug_assert!(s.rows.is_live(idx), "evicting a live candidate");
        if self.separable && !s.rows.is_complete(idx) {
            let mask = s.rows.missing_mask(idx);
            Self::group_remove(s, mask);
        }
        s.rows.kill(idx);
        s.evicted_ids.mark(idx);
        s.evicted_log.push(object);
    }

    /// Periodic sweep: every heap entry whose *stale* bound is already
    /// below `M_k` is provably dead (true `B` ≤ stored bound), so the whole
    /// candidate row can go. Runs on a doubling watermark so the total
    /// sweep cost stays linear in insertions, keeping `peak_candidates`
    /// within a small factor of the live viable set.
    fn maybe_prune(&mut self) {
        let live = self.s.rows.live();
        if !self.evict || !self.s.sel.full || live < PRUNE_FLOOR.max(self.prune_watermark) {
            return;
        }
        let m_k = self.s.sel.m_k;
        {
            let EngineScratch {
                b_heap, rows, dead, ..
            } = &mut *self.s;
            dead.clear();
            b_heap.retain(|&HeapEntry(bound, Reverse(object))| {
                if !rows.is_live(object.index()) || rows.payload(object.index()).member {
                    return false;
                }
                if bound < m_k {
                    dead.push(object);
                    return false;
                }
                true
            });
        }
        let mut dead = std::mem::take(&mut self.s.dead);
        dead.sort_unstable();
        for &object in &dead {
            // A re-admitted candidate can own several heap snapshots; the
            // first kill below the bar suffices.
            if self.s.rows.is_live(object.index()) {
                self.evict_now(object);
            }
        }
        dead.clear();
        self.s.dead = dead;
        if self.track_incomplete && !self.separable {
            // The stale incomplete heap accumulates dead entries; the
            // separable index is exact and was already updated by the
            // evictions above.
            let EngineScratch {
                incomplete, rows, ..
            } = &mut *self.s;
            incomplete.retain(|e| {
                let idx = e.1 .0.index();
                rows.is_live(idx) && !rows.is_complete(idx)
            });
        }
        self.prune_watermark = 2 * self.s.rows.live();
    }

    /// CA's random-access choice (§8.2 step 2): among seen objects with
    /// missing fields that are viable (`B > M_k`; every object is viable
    /// while `T_k` is not yet full), the one with the largest `B`
    /// (deterministic tie-break: smaller id). `None` triggers the escape
    /// clause.
    ///
    /// Resolved lazily off the incomplete-candidate heap: pop the largest
    /// stale bound, refresh it, and re-file; the first entry whose refresh
    /// confirms its stored bound is the exact `(B desc, id asc)` maximum
    /// (ties pop smallest-id first by the heap order).
    pub(crate) fn best_viable_incomplete(&mut self) -> Option<ObjectId> {
        debug_assert!(self.track_incomplete, "enable via tracking_incomplete()");
        if self.separable {
            return self.best_viable_separable();
        }
        let (full, m_k) = (self.s.sel.full, self.s.sel.m_k);
        loop {
            let (key, object) = {
                let top = self.s.incomplete.peek()?;
                (top.0, top.1 .0)
            };
            if full && key <= m_k {
                // Stored bounds over-estimate: nothing incomplete is viable.
                return None;
            }
            self.s.incomplete.pop();
            let idx = object.index();
            let live_incomplete = self.s.rows.is_live(idx) && !self.s.rows.is_complete(idx);
            if !live_incomplete {
                continue; // completed or evicted: drop the entry for good
            }
            let b = self.b_of(object);
            self.s.incomplete.push(HeapEntry(b, Reverse(object)));
            if b == key {
                return Some(object);
            }
        }
    }

    /// Separable-bound variant of [`Self::best_viable_incomplete`]: one
    /// exact `B` evaluation per occupied missing-mask group (each group's
    /// score leader attains the group's largest `B`), then a dual scan of
    /// the tied groups for the smallest id among `B`-ties. Within a group
    /// the `B == B_max` members form a prefix of the score order, so the
    /// scan alternates score-descending (enumerate the tie plateau) with
    /// id-ascending (probe for an early small-id tie) and stops at
    /// whichever concludes first.
    fn best_viable_separable(&mut self) -> Option<ObjectId> {
        let mut mask_keys = std::mem::take(&mut self.s.mask_keys);
        let mut tied_masks = std::mem::take(&mut self.s.tied_masks);
        mask_keys.clear();
        tied_masks.clear();
        mask_keys.extend(self.s.groups.keys().copied());
        let mut b_max: Option<Grade> = None;
        for &mask in &mask_keys {
            // Detach the group so the scans can refresh bounds through
            // `&mut self`; reattach when done.
            let mut group = self.s.groups.remove(&mask).expect("occupied mask");
            let leader = self.group_leader(&mut group, mask);
            let b = self.b_of(leader);
            self.s.groups.insert(mask, group);
            tied_masks.push((mask, b));
            b_max = Some(b_max.map_or(b, |x: Grade| x.max(b)));
        }
        mask_keys.clear();
        self.s.mask_keys = mask_keys;
        let Some(b_max) = b_max else {
            self.s.tied_masks = tied_masks;
            return None;
        };
        let (full, m_k) = (self.s.sel.full, self.s.sel.m_k);
        if full && b_max <= m_k {
            tied_masks.clear();
            self.s.tied_masks = tied_masks;
            return None;
        }
        let mut winner: Option<ObjectId> = None;
        for &(mask, b) in &tied_masks {
            if b != b_max {
                continue;
            }
            let mut group = self.s.groups.remove(&mask).expect("tied group exists");
            let local = self.min_id_at_bound(&mut group, mask, b_max);
            self.s.groups.insert(mask, group);
            winner = Some(winner.map_or(local, |w: ObjectId| w.min(local)));
        }
        tied_masks.clear();
        self.s.tied_masks = tied_masks;
        winner
    }

    /// The group's score leader (largest score, smallest id among ties):
    /// the member attaining the group's largest `B`. Pops invalidated
    /// snapshots for good; every member keeps a valid snapshot, so the
    /// leader's is always found.
    fn group_leader(&mut self, group: &mut ScoreGroup, mask: u64) -> ObjectId {
        loop {
            let &HeapEntry(score, Reverse(o)) = group
                .by_score
                .peek()
                .expect("occupied group has a valid snapshot");
            if Self::in_group(&self.s, mask, o) && self.s.rows.payload(o.index()).score == score {
                return o;
            }
            group.by_score.pop();
        }
    }

    /// Smallest id in `group` whose current `B` equals `b_max` (the group
    /// leader's bound, so at least one member qualifies). The dual scan
    /// pops lazily-validated snapshots from both heaps and re-files every
    /// surviving one.
    fn min_id_at_bound(&mut self, group: &mut ScoreGroup, mask: u64, b_max: Grade) -> ObjectId {
        let mut popped_scores = std::mem::take(&mut self.s.popped_scores);
        let mut popped_ids = std::mem::take(&mut self.s.popped_ids);
        popped_scores.clear();
        popped_ids.clear();
        let mut last_id: Option<ObjectId> = None;
        let mut last_score: Option<(Grade, ObjectId)> = None;
        let mut plateau_min: Option<ObjectId> = None;
        let winner = loop {
            // Ids are scanned in ascending order: the first member whose
            // refreshed B ties b_max wins outright.
            let next_id = loop {
                match group.by_id.pop() {
                    None => break None,
                    Some(Reverse(o)) => {
                        if Self::in_group(&self.s, mask, o) && last_id != Some(o) {
                            break Some(o);
                        }
                        // Dead/foreign/duplicate snapshot: drop for good.
                    }
                }
            };
            if let Some(o) = next_id {
                popped_ids.push(Reverse(o));
                last_id = Some(o);
                if self.b_of(o) == b_max {
                    break o;
                }
            }
            // Score-descending scan enumerates the tie plateau (a prefix
            // of the score order).
            let next_score = loop {
                match group.by_score.pop() {
                    None => break None,
                    Some(HeapEntry(score, Reverse(o))) => {
                        let member = Self::in_group(&self.s, mask, o)
                            && self.s.rows.payload(o.index()).score == score;
                        if member && last_score != Some((score, o)) {
                            break Some((score, o));
                        }
                    }
                }
            };
            match next_score {
                Some((score, o)) => {
                    popped_scores.push(HeapEntry(score, Reverse(o)));
                    last_score = Some((score, o));
                    if self.b_of(o) == b_max {
                        plateau_min = Some(plateau_min.map_or(o, |p: ObjectId| p.min(o)));
                    } else {
                        // A below-max bound ends the plateau (bounds fall
                        // weakly along the score order, so ties form a
                        // prefix).
                        break plateau_min.expect("group leader ties b_max");
                    }
                }
                // An exhausted group means the whole group was the plateau.
                None => break plateau_min.expect("group leader ties b_max"),
            }
        };
        group.by_id.extend(popped_ids.drain(..));
        group.by_score.extend(popped_scores.drain(..));
        self.s.popped_scores = popped_scores;
        self.s.popped_ids = popped_ids;
        winner
    }

    /// Renders the current selection as output items: grades are attached
    /// when free (all fields known), per §8.1's weakened output
    /// requirement.
    pub(crate) fn output_items(&mut self) -> Vec<ScoredObject> {
        let s = &mut *self.s;
        let mut items = Vec::with_capacity(s.sel.top.len());
        for i in 0..s.sel.top.len() {
            let (object, _) = s.sel.top[i];
            let grade = s.rows.exact(object.index(), self.agg, &mut s.scratch);
            items.push(ScoredObject { object, grade });
        }
        items
    }
}

/// The No-Random-Access algorithm (§8.1).
///
/// Performs sorted access in parallel, maintains `W`/`B` bounds, and halts
/// when no object outside the current top-`k` could still beat it. Returns
/// the top-`k` **objects**; grades are attached only when they happen to be
/// fully determined (the paper deliberately does not require grades —
/// Example 8.3 shows demanding them can cost `Θ(N)` extra).
///
/// The drive loop is round-based: each round consumes one batch of sorted
/// accesses per unexhausted list ([`Nra::with_batch`]; one entry with the
/// default scalar batch, reproducing the paper exactly) and runs the
/// halting test once per round.
///
/// [`Nra::with_theta`] gives the θ-approximate variant (§6.2 extended to
/// NRA): the relaxed halting rule fires no later than the exact one, so a
/// θ-NRA run's access counts never exceed its exact counterpart's.
#[derive(Clone, Copy, Debug)]
pub struct Nra {
    strategy: BookkeepingStrategy,
    batch: BatchConfig,
    theta: f64,
}

impl Default for Nra {
    fn default() -> Self {
        Self::new()
    }
}

impl Nra {
    /// NRA with the faithful exhaustive bookkeeping.
    pub fn new() -> Self {
        Nra {
            strategy: BookkeepingStrategy::Exhaustive,
            batch: BatchConfig::scalar(),
            theta: 1.0,
        }
    }

    /// NRA with the chosen bookkeeping strategy.
    pub fn with_strategy(strategy: BookkeepingStrategy) -> Self {
        Nra {
            strategy,
            ..Self::new()
        }
    }

    /// Sets the batched access configuration (batch size 1, the default,
    /// is the paper's exact access-by-access execution; size `b` can
    /// overshoot halting by at most `b − 1` sorted accesses per list).
    pub fn with_batch(mut self, batch: BatchConfig) -> Self {
        self.batch = batch;
        self
    }

    /// Convenience for [`Nra::with_batch`]`(BatchConfig::new(size))`.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn batched(self, size: usize) -> Self {
        self.with_batch(BatchConfig::new(size))
    }

    /// The θ-approximate variant: halts once `θ·M_k ≥ B` for every object
    /// outside the selection, certifying a θ-approximation at a fraction
    /// of the exact access cost. θ = 1 (the default) is exact NRA.
    ///
    /// # Panics
    /// Panics unless `θ` is finite and at least 1.
    pub fn with_theta(mut self, theta: f64) -> Self {
        assert!(
            theta.is_finite() && theta >= 1.0,
            "theta must be finite and at least 1"
        );
        self.theta = theta;
        self
    }
}

impl Nra {
    /// The shared drive loop behind [`Nra::run_with`] (no interruption)
    /// and [`Nra::run_anytime`].
    fn run_impl(
        &self,
        mw: &mut dyn Middleware,
        agg: &dyn Aggregation,
        k: usize,
        scratch: &mut RunScratch,
        anytime: Option<&AnytimeConfig>,
    ) -> Result<TopKOutput, AlgoError> {
        validate(mw, agg, k)?;
        let m = mw.num_lists();
        let n = mw.num_objects();
        let b = self.batch.size();
        let (engine_scratch, drive) = scratch.engine_and_drive();
        drive.reset(m);
        let mut engine =
            BoundEngine::new_in(agg, m, k, self.strategy, engine_scratch).with_theta(self.theta);
        let mut rounds = 0u64;
        let mut best = BestSnapshot::default();
        let mut halt = HaltReason::Converged;
        let mut evictions_traced = 0usize;

        loop {
            rounds += 1;
            let mut budget_err = None;
            for (i, done) in drive.exhausted.iter_mut().enumerate() {
                if *done {
                    continue;
                }
                drive.batch_buf.clear();
                // Only Ok(0) signals exhaustion — a short batch may be a
                // budget truncation (see the Middleware batch contract).
                match mw.sorted_next_batch(i, b, &mut drive.batch_buf) {
                    Ok(0) => {
                        *done = true;
                        continue;
                    }
                    Ok(_) => engine.observe_sorted_batch(i, &drive.batch_buf),
                    Err(e) if e.is_source_loss() => {
                        // The list's backing source died. Freezing the list
                        // at its last-seen grade keeps τ and every B bound
                        // sound (unseen grades there are ≤ the frozen
                        // bottom), so the run continues on the survivors;
                        // `lost` keeps this from masquerading as
                        // exhaustion-by-complete-information below.
                        *done = true;
                        drive.lost[i] = true;
                        continue;
                    }
                    Err(e) => {
                        if anytime.is_none() {
                            return Err(e.into());
                        }
                        // Anytime rescue: salvage the best certified
                        // snapshot instead of erroring (below).
                        budget_err = Some(e);
                        break;
                    }
                }
            }
            engine.refresh_selection();
            let evicted = engine.evictions().len();
            if evicted > evictions_traced {
                mw.trace(
                    EventKind::EvictionWave,
                    0,
                    (evicted - evictions_traced) as u64,
                );
                evictions_traced = evicted;
            }
            if budget_err.is_none() && engine.check_halt(n) {
                // With slack, the θ-scaled rule firing is a relaxed (not
                // exact) completion — reported distinctly on every run.
                if self.theta > 1.0 {
                    halt = HaltReason::ThetaSatisfied;
                }
                break;
            }
            if drive.exhausted.iter().all(|&e| e) {
                if !drive.lost.iter().any(|&l| l) {
                    // Complete information: the selection is exact.
                    break;
                }
                // Every surviving list is exhausted but lost sources
                // withheld entries, so the frozen bounds cannot improve
                // further. Salvage the best certified snapshot as a
                // degraded answer, or fail with the typed loss.
                if anytime.is_some() {
                    if let Some(g) = engine.certificate(n) {
                        best.offer(g, || engine.output_items());
                    }
                    if best.is_certified() {
                        halt = HaltReason::SourceLost;
                        break;
                    }
                }
                let list = drive.lost.iter().position(|&l| l).expect("a lost list");
                return Err(AccessError::SourceLost { list }.into());
            }
            mw.trace(EventKind::RoundBoundary, 0, rounds);
            if let Some(cfg) = anytime {
                // The engine's bounds are sound at any observation
                // boundary, so even a mid-round budget failure certifies.
                if let Some(g) = engine.certificate(n) {
                    best.offer(g, || engine.output_items());
                }
                if let Some(e) = budget_err {
                    if best.is_certified() {
                        halt = HaltReason::BudgetExhausted;
                        break;
                    }
                    return Err(e.into());
                }
                if best.is_certified() {
                    if let Some(reason) = cfg.triggered(rounds, mw.stats()) {
                        halt = reason;
                        break;
                    }
                }
            }
        }

        mw.trace(EventKind::Halt, halt.code(), rounds);
        let (items, guarantee) = if halt.is_interrupted() {
            best.take().map(|(g, items)| (items, g)).expect("certified")
        } else {
            (engine.output_items(), self.theta)
        };
        let mut metrics = RunMetrics::new();
        metrics.rounds = rounds;
        metrics.peak_buffer = engine.peak_candidates;
        metrics.bound_recomputations = engine.bound_recomputations;
        metrics.evicted = engine.evictions().to_vec();
        metrics.final_threshold = Some(engine.threshold());
        metrics.approximation_guarantee = guarantee;
        metrics.halt = halt;
        Ok(TopKOutput {
            items,
            stats: mw.stats().clone(),
            metrics,
        })
    }
}

impl TopKAlgorithm for Nra {
    fn name(&self) -> String {
        let mut base = match self.strategy {
            BookkeepingStrategy::Exhaustive => "NRA".to_string(),
            BookkeepingStrategy::LazyHeap => "NRA(lazy)".to_string(),
        };
        if self.theta > 1.0 {
            base = format!("{base}_theta({})", self.theta);
        }
        if self.batch.is_scalar() {
            base
        } else {
            format!("{base}[b={}]", self.batch.size())
        }
    }

    fn run(
        &self,
        mw: &mut dyn Middleware,
        agg: &dyn Aggregation,
        k: usize,
    ) -> Result<TopKOutput, AlgoError> {
        self.run_with(mw, agg, k, &mut RunScratch::new())
    }

    fn run_with(
        &self,
        mw: &mut dyn Middleware,
        agg: &dyn Aggregation,
        k: usize,
        scratch: &mut RunScratch,
    ) -> Result<TopKOutput, AlgoError> {
        self.run_impl(mw, agg, k, scratch, None)
    }

    fn run_anytime(
        &self,
        mw: &mut dyn Middleware,
        agg: &dyn Aggregation,
        k: usize,
        anytime: &AnytimeConfig,
        scratch: &mut RunScratch,
    ) -> Result<TopKOutput, AlgoError> {
        self.run_impl(mw, agg, k, scratch, Some(anytime))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::{Average, Max, Median, Min, Sum};
    use crate::oracle;
    use fagin_middleware::{AccessPolicy, Database, Session};

    fn db() -> Database {
        Database::from_f64_columns(&[
            vec![0.90, 0.50, 0.10, 0.30, 0.75, 0.05],
            vec![0.20, 0.80, 0.50, 0.40, 0.70, 0.15],
            vec![0.60, 0.55, 0.95, 0.10, 0.65, 0.25],
        ])
        .unwrap()
    }

    #[test]
    fn nra_matches_oracle_all_aggregations_and_strategies() {
        let db = db();
        let aggs: Vec<Box<dyn Aggregation>> = vec![
            Box::new(Min),
            Box::new(Max),
            Box::new(Average),
            Box::new(Sum),
            Box::new(Median),
        ];
        for strategy in [
            BookkeepingStrategy::Exhaustive,
            BookkeepingStrategy::LazyHeap,
        ] {
            for agg in &aggs {
                for k in 1..=6 {
                    let mut s = Session::with_policy(&db, AccessPolicy::no_random_access());
                    let out = Nra::with_strategy(strategy)
                        .run(&mut s, agg.as_ref(), k)
                        .unwrap();
                    assert!(
                        oracle::is_valid_top_k(&db, agg.as_ref(), k, &out.objects()),
                        "strategy={strategy:?} agg={} k={k} got={:?}",
                        agg.name(),
                        out.objects()
                    );
                }
            }
        }
    }

    #[test]
    fn nra_makes_no_random_accesses() {
        let db = db();
        let mut s = Session::with_policy(&db, AccessPolicy::no_random_access());
        let out = Nra::new().run(&mut s, &Average, 2).unwrap();
        assert_eq!(out.stats.random_total(), 0);
    }

    #[test]
    fn nra_example_8_3_early_halt_without_grade() {
        // Figure 4: avg aggregation, object R has (1, 0) and everyone else
        // (1/3, 1/3). After two sorted accesses to L1 and one to L2, R is
        // provably the top object even though its grade is unknown.
        let n = 20usize;
        let mut col1 = vec![1.0 / 3.0; n];
        let mut col2 = vec![1.0 / 3.0; n];
        col1[0] = 1.0; // R = object 0
        col2[0] = 0.0;
        let db = Database::from_f64_columns(&[col1, col2]).unwrap();
        let mut s = Session::with_policy(&db, AccessPolicy::no_random_access());
        let out = Nra::new().run(&mut s, &Average, 1).unwrap();
        assert_eq!(out.objects(), vec![ObjectId(0)]);
        // Halts long before exhausting the lists…
        assert!(out.stats.sorted_total() < (2 * n) as u64 / 2);
        // …and therefore cannot know R's exact grade.
        assert_eq!(out.items[0].grade, None);
    }

    #[test]
    fn nra_grade_attached_when_complete() {
        // min forces NRA to learn every field of the winner before halting
        // (W is 0 until the row is complete), so the grade comes for free.
        let db = Database::from_f64_columns(&[vec![1.0, 0.9], vec![0.1, 0.9]]).unwrap();
        let mut s = Session::with_policy(&db, AccessPolicy::no_random_access());
        let out = Nra::new().run(&mut s, &Min, 1).unwrap();
        assert_eq!(out.objects(), vec![ObjectId(1)]);
        assert_eq!(out.items[0].grade, Some(Grade::new(0.9)));
    }

    #[test]
    fn nra_partial_grades_match_oracle_when_reported() {
        // Whenever NRA attaches a grade it must be the true grade.
        let db = db();
        for k in 1..=6 {
            let mut s = Session::with_policy(&db, AccessPolicy::no_random_access());
            let out = Nra::new().run(&mut s, &Average, k).unwrap();
            for item in &out.items {
                if let Some(g) = item.grade {
                    let row = db.row(item.object).unwrap();
                    assert_eq!(g, Average.evaluate(&row));
                }
            }
        }
    }

    #[test]
    fn lazy_and_exhaustive_agree_on_distinct_databases() {
        // Deterministic pseudo-random distinct grades.
        let n = 60;
        // Per-list multipliers coprime to n decorrelate the rankings.
        let mults = [37usize, 41, 43];
        let cols: Vec<Vec<f64>> = (0..3usize)
            .map(|i| {
                let mut v: Vec<f64> = (0..n)
                    .map(|j| (((j * 7919 + i * 104729 + 13) % 99991) as f64) / 99991.0)
                    .collect();
                // Ensure distinctness per list.
                v.sort_by(|a, b| a.partial_cmp(b).unwrap());
                v.dedup();
                assert_eq!(v.len(), n);
                // Shuffle deterministically by index arithmetic.
                (0..n).map(|j| v[(j * mults[i]) % n]).collect()
            })
            .collect();
        let db = Database::from_f64_columns(&cols).unwrap();
        for k in [1usize, 3, 10] {
            let mut s1 = Session::with_policy(&db, AccessPolicy::no_random_access());
            let a = Nra::new().run(&mut s1, &Sum, k).unwrap();
            let mut s2 = Session::with_policy(&db, AccessPolicy::no_random_access());
            let b = Nra::with_strategy(BookkeepingStrategy::LazyHeap)
                .run(&mut s2, &Sum, k)
                .unwrap();
            assert!(oracle::is_valid_top_k(&db, &Sum, k, &a.objects()));
            assert!(oracle::is_valid_top_k(&db, &Sum, k, &b.objects()));
            assert_eq!(
                a.stats.sorted_total(),
                b.stats.sorted_total(),
                "strategies must agree access-for-access on distinct grades"
            );
            // Both strategies share the incremental structures; the lazy
            // selection can only skip tie-break B refreshes, never add any.
            assert!(
                b.metrics.bound_recomputations <= a.metrics.bound_recomputations,
                "lazy {} vs exhaustive {}",
                b.metrics.bound_recomputations,
                a.metrics.bound_recomputations
            );
        }
    }

    #[test]
    fn bookkeeping_is_subquadratic() {
        // Remark 8.7: the historical exhaustive strategy did Ω(d²m) bound
        // updates. The incremental engine's bookkeeping must stay within a
        // small per-access constant: W updates (≤1 per access), member
        // refreshes (≤k per round) and amortized heap refreshes.
        let n = 1_000;
        let cols: Vec<Vec<f64>> = (0..3usize)
            .map(|i| {
                (0..n)
                    .map(|j| (((j * 7919 + i * 104729 + 13) % 999983) as f64) / 999983.0)
                    .collect()
            })
            .collect();
        let db = Database::from_f64_columns(&cols).unwrap();
        for strategy in [
            BookkeepingStrategy::Exhaustive,
            BookkeepingStrategy::LazyHeap,
        ] {
            let mut s = Session::with_policy(&db, AccessPolicy::no_random_access());
            let out = Nra::with_strategy(strategy).run(&mut s, &Sum, 10).unwrap();
            assert!(oracle::is_valid_top_k(&db, &Sum, 10, &out.objects()));
            let sorted = out.stats.sorted_total();
            let budget = sorted * (10 + 6); // k + slack per sorted access
            assert!(
                out.metrics.bound_recomputations <= budget,
                "{strategy:?}: {} recomputations for {sorted} sorted accesses (budget {budget})",
                out.metrics.bound_recomputations,
            );
        }
    }

    /// The from-scratch `T_k` the incremental selection must equal: every
    /// live candidate sorted `(W desc, id asc)`, the first `k` taken, and
    /// under `Exhaustive` a `W` group that spills past the cut re-ranked
    /// `(B desc, id asc)`. Returns `(top, M_k, full)`.
    fn rebuilt_selection(
        engine: &mut BoundEngine<'_>,
        n: usize,
    ) -> (Vec<(ObjectId, Grade)>, Grade, bool) {
        let (agg, k, strategy) = (engine.agg, engine.k, engine.strategy);
        let s = &mut *engine.s;
        let mut live: Vec<(ObjectId, Grade, Grade)> = (0..n)
            .filter(|&i| s.rows.is_live(i))
            .map(|i| {
                let w = s.rows.w(i, agg, &mut s.scratch);
                let b = s.rows.b(i, agg, &s.bottoms, &mut s.scratch);
                (ObjectId(i as u32), w, b)
            })
            .collect();
        live.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        let mut top: Vec<(ObjectId, Grade, Grade)> = live.iter().take(k).copied().collect();
        if let Some(&(_, wk, _)) = top.last() {
            let spills = live.get(top.len()).is_some_and(|c| c.1 == wk);
            if strategy == BookkeepingStrategy::Exhaustive && spills {
                let seats = top.len();
                top.retain(|c| c.1 > wk);
                let mut group: Vec<_> = live.iter().filter(|c| c.1 == wk).copied().collect();
                group.sort_by(|x, y| y.2.cmp(&x.2).then(x.0.cmp(&y.0)));
                top.extend(group.into_iter().take(seats - top.len()));
            }
        }
        let full = live.len() >= k;
        let m_k = top.last().map_or(Grade::ZERO, |c| c.1);
        (top.into_iter().map(|(o, w, _)| (o, w)).collect(), m_k, full)
    }

    /// Drives a `BoundEngine` over `db` round by round — one sorted access
    /// per list, and with `h`, CA's random-access phase every `h` rounds —
    /// and checks the incremental selection against [`rebuilt_selection`]
    /// after every refresh, membership flags included.
    fn check_selection_rounds(
        db: &Database,
        agg: &dyn Aggregation,
        k: usize,
        strategy: BookkeepingStrategy,
        h: Option<u64>,
    ) {
        let (m, n) = (db.num_lists(), db.num_objects());
        let mut mw = Session::new(db);
        let mut scratch = EngineScratch::default();
        let mut engine = BoundEngine::new_in(agg, m, k, strategy, &mut scratch);
        if h.is_some() {
            engine = engine.tracking_incomplete();
        }
        let mut exhausted = vec![false; m];
        let mut missing = Vec::new();
        let check = |engine: &mut BoundEngine<'_>, round: u64| {
            let want = rebuilt_selection(engine, n);
            let sel = &engine.s.sel;
            let ctx = format!("{} k={k} {strategy:?} h={h:?} round {round}", agg.name());
            assert_eq!(sel.top, want.0, "{ctx}: top");
            assert_eq!((sel.m_k, sel.full), (want.1, want.2), "{ctx}: (M_k, full)");
            for i in (0..n).filter(|&i| engine.s.rows.is_live(i)) {
                let listed = sel.top.iter().any(|&(o, _)| o.index() == i);
                assert_eq!(
                    engine.s.rows.payload(i).member,
                    listed,
                    "{ctx}: flag of {i}"
                );
            }
        };
        for round in 1u64.. {
            for (list, done) in exhausted.iter_mut().enumerate() {
                match mw.sorted_next(list).unwrap() {
                    Some(entry) => engine.observe_sorted(list, entry),
                    None => *done = true,
                }
            }
            engine.refresh_selection();
            check(&mut engine, round);
            if h.is_some_and(|h| round % h == 0) {
                if let Some(object) = engine.best_viable_incomplete() {
                    engine.missing_fields_into(object, &mut missing);
                    for &list in &missing {
                        let grade = mw.random_lookup(list, object).unwrap();
                        engine.learn_random(object, list, grade);
                    }
                    engine.refresh_selection();
                    check(&mut engine, round);
                }
            }
            if engine.check_halt(n) || exhausted.iter().all(|&e| e) {
                break;
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        #[test]
        fn incremental_selection_matches_a_rebuild(
            m in 2usize..=4,
            n in 1usize..=40,
            levels in 2u8..=6,
            raw in proptest::collection::vec(0u8..=255, 160),
        ) {
            // Grades quantized to a few levels: W and B ties everywhere.
            let cols: Vec<Vec<f64>> = (0..m)
                .map(|i| {
                    (0..n)
                        .map(|j| f64::from(raw[j * m + i] % levels) / f64::from(levels - 1))
                        .collect()
                })
                .collect();
            let db = Database::from_f64_columns(&cols).unwrap();
            for agg in [&Min as &dyn Aggregation, &Average, &Sum] {
                for strategy in [
                    BookkeepingStrategy::Exhaustive,
                    BookkeepingStrategy::LazyHeap,
                ] {
                    for k in [1usize, 3, 10] {
                        for h in [None, Some(2)] {
                            check_selection_rounds(&db, agg, k, strategy, h);
                        }
                    }
                }
            }
        }
    }

    /// `n` objects over 3 lists with Zipf-like grades: object `j` holds
    /// `1 / (1 + rank)` in each list, under a per-list affine permutation
    /// of the ranks. NRA runs long on it, with a thin top that settles
    /// slowly — the shape where per-round bookkeeping dominates.
    fn zipf_like(n: usize) -> Database {
        let cols: Vec<Vec<f64>> = [(7919usize, 13usize), (104_729, 71), (1_299_709, 5)]
            .iter()
            .map(|&(mult, off)| {
                (0..n)
                    .map(|j| 1.0 / (1 + (j * mult + off) % n) as f64)
                    .collect()
            })
            .collect();
        Database::from_f64_columns(&cols).unwrap()
    }

    #[test]
    fn bound_recomputations_per_access_do_not_grow_with_k() {
        // At k = 50, b = 1 the halting test used to refresh every T_k
        // member's B each round: ≈18 evaluations per access for NRA here.
        // With members kept across rounds the count is a small constant
        // per access (≈2.3 NRA, ≈3 CA), whatever k is.
        let db = zipf_like(4_000);
        for agg in [&Average as &dyn Aggregation, &Sum] {
            for strategy in [
                BookkeepingStrategy::Exhaustive,
                BookkeepingStrategy::LazyHeap,
            ] {
                let runs: [(Box<dyn TopKAlgorithm>, AccessPolicy); 2] = [
                    (
                        Box::new(Nra::with_strategy(strategy)),
                        AccessPolicy::no_random_access(),
                    ),
                    (
                        Box::new(crate::algorithms::Ca::new(2).with_strategy(strategy)),
                        AccessPolicy::no_wild_guesses(),
                    ),
                ];
                for (algo, policy) in runs {
                    let mut s = Session::with_policy(&db, policy);
                    let out = algo.run(&mut s, agg, 50).unwrap();
                    let accesses = out.stats.sorted_total() + out.stats.random_total();
                    assert!(
                        out.metrics.bound_recomputations <= 5 * accesses,
                        "{} under {}: {} recomputations for {accesses} accesses",
                        algo.name(),
                        agg.name(),
                        out.metrics.bound_recomputations,
                    );
                }
            }
        }
    }

    #[test]
    fn eviction_shrinks_the_candidate_pool() {
        let n = 4_000;
        let cols: Vec<Vec<f64>> = (0..3usize)
            .map(|i| {
                (0..n)
                    .map(|j| (((j * 7919 + i * 104729 + 13) % 999983) as f64) / 999983.0)
                    .collect()
            })
            .collect();
        let db = Database::from_f64_columns(&cols).unwrap();
        let mut s = Session::with_policy(&db, AccessPolicy::no_random_access());
        let out = Nra::new().run(&mut s, &Sum, 10).unwrap();
        assert!(
            !out.metrics.evicted.is_empty(),
            "a long uniform run must evict dead candidates"
        );
        // Peak live candidates stay below the distinct objects seen (which
        // is what peak_buffer measured before eviction existed). Sorted
        // accesses over-count distinct objects, so this bound is loose.
        assert!(
            out.metrics.peak_buffer < out.stats.sorted_total() as usize,
            "peak {} vs sorted {}",
            out.metrics.peak_buffer,
            out.stats.sorted_total()
        );
        // No evicted object may be part of the answer.
        for item in &out.items {
            assert!(
                !out.metrics.evicted.contains(&item.object),
                "evicted object {} in the top-k",
                item.object
            );
        }
    }

    #[test]
    fn k_greater_than_n() {
        let db = db();
        let mut s = Session::with_policy(&db, AccessPolicy::no_random_access());
        let out = Nra::new().run(&mut s, &Min, 50).unwrap();
        assert_eq!(out.items.len(), db.num_objects());
        assert!(oracle::is_valid_top_k(&db, &Min, 50, &out.objects()));
    }

    #[test]
    fn names() {
        assert_eq!(Nra::new().name(), "NRA");
        assert_eq!(
            Nra::with_strategy(BookkeepingStrategy::LazyHeap).name(),
            "NRA(lazy)"
        );
        assert_eq!(Nra::new().batched(8).name(), "NRA[b=8]");
        assert_eq!(Nra::new().with_theta(1.5).name(), "NRA_theta(1.5)");
        assert_eq!(
            Nra::new().with_theta(2.0).batched(4).name(),
            "NRA_theta(2)[b=4]"
        );
    }

    #[test]
    fn theta_nra_is_valid_and_never_costs_more_than_exact() {
        let db = db();
        for theta in [1.1, 1.5, 2.0] {
            for k in 1..=4 {
                let mut s1 = Session::with_policy(&db, AccessPolicy::no_random_access());
                let exact = Nra::new().run(&mut s1, &Average, k).unwrap();
                let mut s2 = Session::with_policy(&db, AccessPolicy::no_random_access());
                let approx = Nra::new()
                    .with_theta(theta)
                    .run(&mut s2, &Average, k)
                    .unwrap();
                assert!(
                    oracle::is_valid_theta_approximation(
                        &db,
                        &Average,
                        k,
                        theta,
                        &approx.objects()
                    ),
                    "theta={theta} k={k}"
                );
                assert!(
                    approx.stats.sorted_total() <= exact.stats.sorted_total(),
                    "theta={theta} k={k}: θ-NRA read more than exact NRA"
                );
                assert_eq!(approx.metrics.approximation_guarantee, theta);
            }
        }
    }

    #[test]
    fn theta_one_nra_is_bit_identical_to_exact() {
        let db = db();
        let mut s1 = Session::with_policy(&db, AccessPolicy::no_random_access());
        let exact = Nra::new().run(&mut s1, &Sum, 3).unwrap();
        let mut s2 = Session::with_policy(&db, AccessPolicy::no_random_access());
        let theta_one = Nra::new().with_theta(1.0).run(&mut s2, &Sum, 3).unwrap();
        assert_eq!(exact.objects(), theta_one.objects());
        assert_eq!(exact.stats, theta_one.stats);
    }

    #[test]
    #[should_panic(expected = "theta must be finite and at least 1")]
    fn nra_theta_below_one_rejected() {
        let _ = Nra::new().with_theta(0.5);
    }

    #[test]
    fn batched_nra_matches_oracle_and_makes_no_random_accesses() {
        let db = db();
        for batch in [1usize, 2, 5, 64] {
            for strategy in [
                BookkeepingStrategy::Exhaustive,
                BookkeepingStrategy::LazyHeap,
            ] {
                for k in [1usize, 3, 6] {
                    let mut s = Session::with_policy(&db, AccessPolicy::no_random_access());
                    let out = Nra::with_strategy(strategy)
                        .batched(batch)
                        .run(&mut s, &Average, k)
                        .unwrap();
                    assert!(
                        oracle::is_valid_top_k(&db, &Average, k, &out.objects()),
                        "batch={batch} strategy={strategy:?} k={k}"
                    );
                    assert_eq!(out.stats.random_total(), 0);
                }
            }
        }
    }

    #[test]
    fn leased_runs_match_fresh_runs_exactly() {
        // The arena changes where state lives, never what it contains.
        let db = db();
        let mut arena = RunScratch::new();
        for k in [1usize, 3, 6, 2, 1] {
            for strategy in [
                BookkeepingStrategy::Exhaustive,
                BookkeepingStrategy::LazyHeap,
            ] {
                let mut s1 = Session::with_policy(&db, AccessPolicy::no_random_access());
                let fresh = Nra::with_strategy(strategy).run(&mut s1, &Sum, k).unwrap();
                let mut s2 = Session::with_policy(&db, AccessPolicy::no_random_access());
                let leased = Nra::with_strategy(strategy)
                    .run_with(&mut s2, &Sum, k, &mut arena)
                    .unwrap();
                assert_eq!(fresh.items, leased.items, "k={k} {strategy:?}");
                assert_eq!(fresh.stats, leased.stats);
                assert_eq!(fresh.metrics, leased.metrics);
            }
        }
    }
}
