//! The SegmentTree algorithm (paper §6.2): pattern-aware segmentation in
//! time linear in the number of points.
//!
//! A SegmentTree is a balanced binary tree whose nodes are VisualSegments:
//! the root covers the whole visualization and each node splits into two
//! halves down to single intervals between adjacent points (Definition 6.1;
//! the tree is never materialized — it "only defines the logical order in
//! which VisualSegments are created and scored").
//!
//! Each node stores, for every contiguous sub-chain `[l, r)` of the query's
//! unit sequence, the best placement whose units exactly tile the node's
//! point range. Nodes are combined bottom-up three ways (mirroring the
//! paper's Figure 7 enumeration):
//!
//! 1. **direct** — a single unit spanning the whole node range (computed
//!    O(1) from summarized statistics);
//! 2. **split** — left child's `[l, m)` next to right child's `[m, r)`,
//!    placing a unit boundary at the node midpoint;
//! 3. **bridge** — left child's `[l, b+1)` merged with right child's
//!    `[b, r)`: unit `b` spans the midpoint, its score recomputed over the
//!    merged range (this is how "a⊗b from node 3 and b from node 4" combine
//!    in the paper's example).
//!
//! Keeping only the best entry per sub-chain is the **Closure assumption**
//! (Assumption 6.1): a break point optimal in a small region is assumed to
//! remain the candidate break point in enclosing regions. Under it the
//! algorithm is optimal and runs in O(nk⁴) (Theorem 6.3); in practice it
//! trades ≲15% top-k accuracy for 2–40× speed-up versus the DP (§9).
//!
//! # Kernel layout
//!
//! One tree keeps every node's entries in a single flat buffer, reused
//! across trees on the same thread: the tree over `I` intervals has
//! `2I − 1` nodes numbered in preorder (a node's left child is the next
//! id, its right child follows the left subtree), and each node owns the
//! `k(k+1)/2` slots of its sub-chains `l < r`. A node over `I` intervals
//! holds an entry for `[l, r)` exactly when `r − l ≤ I` (a split always
//! exists then), so no slot needs an "empty" marker and the combine loops
//! visit only the midpoints and bridge units both children can serve.
//!
//! An entry is `{score, head, tail, first_break, last_break, how}`. `head`
//! is the weighted score `w · eval_unit` of its first unit over that
//! unit's exact range `[lo, first_break]`, `tail` that of its last unit
//! over `[last_break, hi]`. A bridge over unit `b` removes `b`'s two
//! partial scores and adds the merged one; the removed values are exactly
//! the left entry's `tail` and the right entry's `head` — the same
//! function of the same range, so the same bits — and only the merged
//! window needs a new evaluation. (Debug builds re-evaluate both and
//! assert the bits match.)
//!
//! A slope leaf's score is a function of the window's fitted angle
//! `tan⁻¹(slope)`, so a node takes its angle once for all `k` direct
//! entries, and the bridges of one node share angles through a small
//! cache keyed by merged window (one slot per distinct window, never more
//! than the node's bridges, and cleared per node). Per node that is one
//! angle plus `k` cheap direct scores, and one evaluation per bridge
//! where a recomputation from scratch needs three. The buffer is
//! O(nodes · k²) entries; an n×n memo of window angles would instead
//! grow with the square of the series length.
//!
//! Entries keep no break lists. `how` records which combination won —
//! direct, split at `m`, or bridge over `b` — and the root's break list
//! is rebuilt once, after the whole tree is built, by following those
//! back-pointers down to the direct entries. Candidate order and the
//! keep-the-existing-entry-on-ties rule are fixed, so the result is a
//! pure function of the inputs.

use super::{best_over_chains, MatchResult, Segmenter};
use crate::chain::{Chain, Unit};
use crate::eval::{chain_score_with_positions, slope_leaf, Evaluator, SlopeLeaf};
use std::cell::Cell;

/// The SegmentTree segmenter.
///
/// `bridges` controls the bridge combination rule (on by default); turning
/// it off restricts unit boundaries to dyadic node midpoints — the ablation
/// measured by `figures -- ablation`, showing how much accuracy the bridge
/// rule recovers.
#[derive(Debug, Clone, Copy)]
pub struct SegmentTreeSegmenter {
    /// Enables the midpoint-spanning bridge combinations.
    pub bridges: bool,
}

impl Default for SegmentTreeSegmenter {
    fn default() -> Self {
        Self { bridges: true }
    }
}

impl SegmentTreeSegmenter {
    /// The ablated variant without bridge combinations.
    pub fn without_bridges() -> Self {
        Self { bridges: false }
    }
}

impl Segmenter for SegmentTreeSegmenter {
    fn match_viz(&self, ev: &Evaluator<'_>, chains: &[Chain]) -> MatchResult {
        best_over_chains(chains, |chain| solve_tree_with(ev, chain, self.bridges))
    }
}

fn solve_tree_with(ev: &Evaluator<'_>, chain: &Chain, bridges: bool) -> MatchResult {
    let n = ev.viz.n();
    if n < 2 {
        return MatchResult::infeasible();
    }
    if !chain.is_fully_fuzzy() {
        return solve_hybrid(ev, chain, bridges);
    }
    match tree_range(ev, &chain.units, 0, n - 1, bridges) {
        Some((score, ranges)) => finish(ev, chain, score, ranges),
        None => MatchResult::infeasible(),
    }
}

fn finish(
    ev: &Evaluator<'_>,
    chain: &Chain,
    score: f64,
    ranges: Vec<(usize, usize)>,
) -> MatchResult {
    let score = if chain.has_position_refs() {
        chain_score_with_positions(ev, chain, &ranges)
    } else {
        score
    };
    MatchResult { score, ranges }
}

/// Hybrid fuzzy/non-fuzzy queries (§6): fully pinned units are anchored
/// directly; maximal runs of fuzzy units tile the gaps between anchors with
/// their own SegmentTree. Partially pinned or width units fall back to the
/// exact DP, which handles every constraint.
fn solve_hybrid(ev: &Evaluator<'_>, chain: &Chain, bridges: bool) -> MatchResult {
    let fully_pinned = |u: &Unit| u.pin_start.is_some() && u.pin_end.is_some();
    if !chain.units.iter().all(|u| u.is_fuzzy() || fully_pinned(u)) {
        return super::dp::solve_chain(ev, chain, 0, ev.viz.n() - 1);
    }
    let n = ev.viz.n();
    let mut score = 0.0;
    let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(chain.len());
    let mut prev_end = 0usize;
    let mut fuzzy_run: Vec<Unit> = Vec::new();

    let flush_run = |run: &mut Vec<Unit>,
                     lo: usize,
                     hi: usize,
                     score: &mut f64,
                     ranges: &mut Vec<(usize, usize)>|
     -> bool {
        if run.is_empty() {
            return true;
        }
        let Some((s, rs)) = tree_range(ev, run, lo, hi, bridges) else {
            return false;
        };
        *score += s;
        ranges.extend(rs);
        run.clear();
        true
    };

    for unit in &chain.units {
        if fully_pinned(unit) {
            let s = ev.viz.x_to_index(unit.pin_start.expect("pinned"));
            let e = ev.viz.x_to_index(unit.pin_end.expect("pinned"));
            if e <= s || s < prev_end {
                return MatchResult::infeasible();
            }
            // Fuzzy run before this anchor tiles [prev_end, s].
            if !fuzzy_run.is_empty()
                && !flush_run(&mut fuzzy_run, prev_end, s, &mut score, &mut ranges)
            {
                return MatchResult::infeasible();
            }
            score += unit.weight * ev.eval_unit(slope_leaf(&unit.query), &unit.query, s, e);
            ranges.push((s, e));
            prev_end = e;
        } else {
            fuzzy_run.push(unit.clone());
        }
    }
    if !fuzzy_run.is_empty() && !flush_run(&mut fuzzy_run, prev_end, n - 1, &mut score, &mut ranges)
    {
        return MatchResult::infeasible();
    }
    finish(ev, chain, score, ranges)
}

/// How an entry's placement was built: the back-pointer the root follows
/// to rebuild its break list.
#[derive(Debug, Clone, Copy, Default)]
enum Built {
    /// One unit spans the whole node.
    #[default]
    Direct,
    /// Left child's `[l, m)` next to right child's `[m, r)`.
    Split(u32),
    /// Left child's `[l, b+1)` merged with right child's `[b, r)`.
    Bridge(u32),
}

/// The best placement of one sub-chain `[l, r)` over one node's point
/// range `[lo, hi]`.
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    /// Sum of the units' weighted scores.
    score: f64,
    /// Unit `l`'s weighted score over `[lo, first_break]`.
    head: f64,
    /// Unit `r-1`'s weighted score over `[last_break, hi]`.
    tail: f64,
    /// End of unit `l`'s range: the first break point (`hi` for one unit).
    first_break: u32,
    /// Start of unit `r-1`'s range: the last break point (`lo` for one unit).
    last_break: u32,
    how: Built,
}

/// Buffers up to this many entries (2.5 MiB) are kept for the thread's
/// next tree; larger ones, from very long series, are freed.
const KEEP_ENTRIES: usize = 1 << 16;

thread_local! {
    /// The thread's reusable entry buffer. A tree takes it for its run,
    /// so a nested tree on the same thread simply allocates its own.
    static SCRATCH: Cell<Vec<Entry>> = const { Cell::new(Vec::new()) };
}

/// Runs the SegmentTree over points `[lo, hi]` for a run of fuzzy units,
/// returning the partial weighted score and per-unit ranges.
fn tree_range(
    ev: &Evaluator<'_>,
    units: &[Unit],
    lo: usize,
    hi: usize,
    bridges: bool,
) -> Option<(f64, Vec<(usize, usize)>)> {
    let k = units.len();
    if k == 0 || hi <= lo || hi - lo < k {
        return None;
    }
    let nodes = if k == 1 { 1 } else { 2 * (hi - lo) - 1 };
    let width = k * (k + 1) / 2;
    let mut entries = SCRATCH.take();
    if entries.len() < nodes * width {
        entries.resize(nodes * width, Entry::default());
    }
    let mut tree = Tree {
        ev,
        units,
        leaves: units.iter().map(|u| slope_leaf(&u.query)).collect(),
        bridges,
        width,
        entries,
        angles: Vec::new(),
    };
    tree.build(0, lo, hi);

    let score = tree.entry(0, 0, k).score;
    let mut breaks = Vec::with_capacity(k - 1);
    tree.push_breaks(0, lo, hi, 0, k, &mut breaks);
    debug_assert_eq!(breaks.len(), k - 1);
    if tree.entries.capacity() <= KEEP_ENTRIES {
        SCRATCH.set(tree.entries);
    }
    let mut ranges = Vec::with_capacity(k);
    let mut start = lo;
    for b in breaks {
        ranges.push((start, b));
        start = b;
    }
    ranges.push((start, hi));
    Some((score, ranges))
}

/// One SegmentTree run: the chain units and the flat entry buffer.
struct Tree<'t, 'a> {
    ev: &'t Evaluator<'a>,
    units: &'t [Unit],
    leaves: Vec<Option<SlopeLeaf>>,
    bridges: bool,
    /// Slots per node: `k(k+1)/2`.
    width: usize,
    /// Node `id`'s entries live at `entries[id * width..][..width]`.
    entries: Vec<Entry>,
    /// Bridge-window angles `(start, end, angle)` of the node being combined.
    angles: Vec<(u32, u32, f64)>,
}

impl Tree<'_, '_> {
    /// Node `node`'s entry for sub-chain `[l, r)`.
    #[inline]
    fn entry(&self, node: usize, l: usize, r: usize) -> Entry {
        self.entries[self.slot(node, l, r)]
    }

    #[inline]
    fn slot(&self, node: usize, l: usize, r: usize) -> usize {
        let k = self.units.len();
        node * self.width + l * (2 * k + 1 - l) / 2 + (r - l - 1)
    }

    /// Unit `t`'s weighted score over `[i, j]`, whose fitted angle is
    /// `angle`: bit-identical to `w · eval_unit`.
    #[inline]
    fn weighted(&self, t: usize, angle: f64, i: usize, j: usize) -> f64 {
        let u = &self.units[t];
        u.weight
            * match self.leaves[t] {
                Some(leaf) => self.ev.eval_slope_leaf_at(leaf, angle, i, j),
                None => self.ev.eval_node(&u.query, i, j, None),
            }
    }

    /// The fitted angle of window `[i, j]`, through the node's cache.
    fn bridge_angle(&mut self, i: u32, j: u32) -> f64 {
        if let Some(&(_, _, angle)) = self.angles.iter().find(|&&(s, e, _)| s == i && e == j) {
            return angle;
        }
        let angle = self.ev.window_angle(i as usize, j as usize);
        self.angles.push((i, j, angle));
        angle
    }

    /// Builds the entries of node `node` over points `[lo, hi]` and,
    /// first, of its whole subtree.
    fn build(&mut self, node: usize, lo: usize, hi: usize) {
        let k = self.units.len();
        let angle = self.ev.window_angle(lo, hi);
        for t in 0..k {
            let score = self.weighted(t, angle, lo, hi);
            let at = self.slot(node, t, t + 1);
            self.entries[at] = Entry {
                score,
                head: score,
                tail: score,
                first_break: hi as u32,
                last_break: lo as u32,
                how: Built::Direct,
            };
        }
        let intervals = hi - lo;
        if intervals == 1 || k == 1 {
            return;
        }

        let mid = lo + intervals / 2;
        let (left, right) = (node + 1, node + 2 * (mid - lo));
        self.build(left, lo, mid);
        self.build(right, mid, hi);
        // A child over `span` intervals holds `[a, c)` iff `c - a <= span`.
        let (span_l, span_r) = (mid - lo, hi - mid);
        self.angles.clear();
        for len in 2..=k.min(intervals) {
            for l in 0..=(k - len) {
                let r = l + len;
                // A later candidate replaces the kept one only on a
                // strictly higher score (or a NaN on either side).
                let mut best: Option<Entry> = None;
                let mut offer = |e: Entry| match best {
                    Some(kept) if kept.score >= e.score => {}
                    _ => best = Some(e),
                };
                // Split: boundary between units m-1 and m at the midpoint.
                for m in (l + 1).max(r.saturating_sub(span_r))..=(r - 1).min(l + span_l) {
                    let (le, re) = (self.entry(left, l, m), self.entry(right, m, r));
                    offer(Entry {
                        score: le.score + re.score,
                        head: le.head,
                        tail: re.tail,
                        first_break: le.first_break,
                        last_break: re.last_break,
                        how: Built::Split(m as u32),
                    });
                }
                // Bridge: unit b spans the midpoint; its partial scores in
                // the children are their tail and head.
                if self.bridges {
                    for b in l.max(r.saturating_sub(span_r))..=(r - 1).min(l + span_l - 1) {
                        let (le, re) = (self.entry(left, l, b + 1), self.entry(right, b, r));
                        debug_assert_eq!(
                            le.tail.to_bits(),
                            self.fresh(b, le.last_break, mid as u32).to_bits()
                        );
                        debug_assert_eq!(
                            re.head.to_bits(),
                            self.fresh(b, mid as u32, re.first_break).to_bits()
                        );
                        let (i, j) = (le.last_break, re.first_break);
                        let angle = self.bridge_angle(i, j);
                        let merged = self.weighted(b, angle, i as usize, j as usize);
                        let (first, last) = (l == b, b + 1 == r);
                        offer(Entry {
                            score: le.score - le.tail + re.score - re.head + merged,
                            head: if first { merged } else { le.head },
                            tail: if last { merged } else { re.tail },
                            first_break: if first { j } else { le.first_break },
                            last_break: if last { i } else { re.last_break },
                            how: Built::Bridge(b as u32),
                        });
                    }
                }
                let at = self.slot(node, l, r);
                self.entries[at] = best.expect("a split exists whenever r - l <= intervals");
            }
        }
    }

    /// Unit `t`'s weighted score over `[i, j]`, evaluated from scratch
    /// (the debug check on carried heads and tails).
    fn fresh(&self, t: usize, i: u32, j: u32) -> f64 {
        let u = &self.units[t];
        u.weight
            * self
                .ev
                .eval_unit(self.leaves[t], &u.query, i as usize, j as usize)
    }

    /// Appends the break points of node `node`'s sub-chain `[l, r)`
    /// (points `[lo, hi]`) to `out`, following the `how` back-pointers.
    fn push_breaks(
        &self,
        node: usize,
        lo: usize,
        hi: usize,
        l: usize,
        r: usize,
        out: &mut Vec<usize>,
    ) {
        let mid = lo + (hi - lo) / 2;
        let (left, right) = (node + 1, node + 2 * (mid - lo));
        match self.entry(node, l, r).how {
            Built::Direct => {}
            Built::Split(m) => {
                let m = m as usize;
                self.push_breaks(left, lo, mid, l, m, out);
                out.push(mid);
                self.push_breaks(right, mid, hi, m, r, out);
            }
            Built::Bridge(b) => {
                let b = b as usize;
                self.push_breaks(left, lo, mid, l, b + 1, out);
                self.push_breaks(right, mid, hi, b, r, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::dp::DpSegmenter;
    use crate::algo::segment_tree_reference as reference;
    use crate::ast::{Modifier, Pattern, ShapeQuery, ShapeSegment};
    use crate::chain::expand_chains;
    use crate::engine::group::VizData;
    use crate::eval::UdpRegistry;
    use crate::score::ScoreParams;
    use proptest::prelude::*;
    use shapesearch_datastore::Trendline;

    fn viz(pairs: &[(f64, f64)]) -> VizData {
        VizData::from_trendline(&Trendline::from_pairs("t", pairs), 0, 1).unwrap()
    }

    fn run(q: &ShapeQuery, v: &VizData) -> (MatchResult, MatchResult) {
        let params = ScoreParams::default();
        let udps = UdpRegistry::new();
        let ev = Evaluator::new(v, &params, &udps);
        let chains = expand_chains(q);
        (
            SegmentTreeSegmenter::default().match_viz(&ev, &chains),
            DpSegmenter.match_viz(&ev, &chains),
        )
    }

    #[test]
    fn matches_dp_on_clean_peak() {
        let v = viz(&[
            (0.0, 0.0),
            (1.0, 2.0),
            (2.0, 4.0),
            (3.0, 6.0),
            (4.0, 4.0),
            (5.0, 2.0),
            (6.0, 0.0),
        ]);
        let q = ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down()]);
        let (t, d) = run(&q, &v);
        assert!(
            (t.score - d.score).abs() < 1e-9,
            "{} vs {}",
            t.score,
            d.score
        );
        assert_eq!(t.ranges, d.ranges);
    }

    #[test]
    fn bridge_handles_off_center_breaks() {
        // Peak at index 5 of 0..=7 — not at any dyadic midpoint; the bridge
        // rule must recover it.
        let v = viz(&[
            (0.0, 0.0),
            (1.0, 1.0),
            (2.0, 2.0),
            (3.0, 3.0),
            (4.0, 4.0),
            (5.0, 5.0),
            (6.0, 2.5),
            (7.0, 0.0),
        ]);
        let q = ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down()]);
        let (t, d) = run(&q, &v);
        assert_eq!(t.ranges, vec![(0, 5), (5, 7)]);
        assert!((t.score - d.score).abs() < 1e-9);
    }

    #[test]
    fn never_beats_dp_and_stays_close() {
        // A noisy trendline with several local structures.
        let pts: Vec<(f64, f64)> = [
            0.2, 0.9, 0.7, 1.8, 1.4, 2.6, 2.0, 1.1, 1.5, 0.4, 0.8, 0.1, 1.0, 2.2, 1.9, 3.0,
        ]
        .iter()
        .enumerate()
        .map(|(i, &y)| (i as f64, y))
        .collect();
        let v = viz(&pts);
        for q in [
            ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down()]),
            ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down(), ShapeQuery::up()]),
            ShapeQuery::concat(vec![
                ShapeQuery::up(),
                ShapeQuery::down(),
                ShapeQuery::up(),
                ShapeQuery::down(),
            ]),
            ShapeQuery::concat(vec![ShapeQuery::flat(), ShapeQuery::up()]),
        ] {
            let (t, d) = run(&q, &v);
            assert!(
                t.score <= d.score + 1e-9,
                "tree {} exceeded optimal {} for {q}",
                t.score,
                d.score
            );
            assert!(
                t.score >= d.score - 0.35,
                "tree {} too far below optimal {} for {q}",
                t.score,
                d.score
            );
        }
    }

    #[test]
    fn or_chains_resolved() {
        let v = viz(&[
            (0.0, 0.0),
            (1.0, 2.0),
            (2.0, 4.0),
            (3.0, 4.1),
            (4.0, 3.9),
            (5.0, 4.0),
        ]);
        // up then (flat or down): flat branch should win.
        let q = ShapeQuery::concat(vec![
            ShapeQuery::up(),
            ShapeQuery::Or(vec![ShapeQuery::flat(), ShapeQuery::down()]),
        ]);
        let (t, _) = run(&q, &v);
        assert!(t.score > 0.5, "score {}", t.score);
    }

    #[test]
    fn hybrid_pinned_anchor_with_fuzzy_tail() {
        let v = viz(&[
            (0.0, 5.0),
            (1.0, 4.0),
            (2.0, 3.0),
            (3.0, 4.0),
            (4.0, 5.0),
            (5.0, 4.0),
            (6.0, 3.0),
        ]);
        let q = ShapeQuery::concat(vec![
            ShapeQuery::Segment(ShapeSegment::pinned(Pattern::Down, 0.0, 2.0)),
            ShapeQuery::up(),
            ShapeQuery::down(),
        ]);
        let (t, d) = run(&q, &v);
        assert_eq!(t.ranges[0], (0, 2));
        assert_eq!(t.ranges.last().unwrap().1, 6);
        assert!(
            (t.score - d.score).abs() < 0.15,
            "{} vs {}",
            t.score,
            d.score
        );
    }

    #[test]
    fn width_units_fall_back_to_dp() {
        let v = viz(&[
            (0.0, 1.0),
            (1.0, 1.1),
            (2.0, 1.0),
            (3.0, 5.0),
            (4.0, 9.0),
            (5.0, 9.1),
            (6.0, 9.0),
        ]);
        let q = ShapeQuery::Segment(ShapeSegment::pattern(Pattern::Up).with_width(2.0));
        let (t, d) = run(&q, &v);
        assert_eq!(t.ranges, d.ranges);
        assert_eq!(t.score, d.score);
    }

    #[test]
    fn infeasible_cases() {
        let v = viz(&[(0.0, 0.0), (1.0, 1.0)]);
        let q = ShapeQuery::concat(vec![ShapeQuery::up(), ShapeQuery::down(), ShapeQuery::up()]);
        let (t, _) = run(&q, &v);
        assert_eq!(t.score, -1.0);
    }

    #[test]
    fn three_segment_tree_matches_shape() {
        // down, up, down over 12 points.
        let v = viz(&[
            (0.0, 5.0),
            (1.0, 4.0),
            (2.0, 3.0),
            (3.0, 2.0),
            (4.0, 3.0),
            (5.0, 4.0),
            (6.0, 5.0),
            (7.0, 6.0),
            (8.0, 5.0),
            (9.0, 4.0),
            (10.0, 3.0),
            (11.0, 2.0),
        ]);
        let q = ShapeQuery::concat(vec![
            ShapeQuery::down(),
            ShapeQuery::up(),
            ShapeQuery::down(),
        ]);
        let (t, d) = run(&q, &v);
        assert!(t.score > 0.7, "score {}", t.score);
        assert!((t.score - d.score).abs() < 0.05);
        // Breaks near the true turning points (3 and 7).
        assert!((t.ranges[0].1 as i64 - 3).abs() <= 1, "{:?}", t.ranges);
        assert!((t.ranges[1].1 as i64 - 7).abs() <= 1, "{:?}", t.ranges);
    }

    /// One random chain unit: `(kind, weight, angle/pattern knob)`.
    type UnitSpec = (u8, f64, f64);

    /// A series of 2–200 points: a walk whose steps repeat the previous
    /// value a quarter of the time (constant runs), on unit or irregular
    /// x spacing.
    fn series() -> impl Strategy<Value = Vec<(f64, f64)>> {
        (
            proptest::collection::vec((0u8..4, -10f64..10.0, 0.1f64..3.0), 2..200),
            0u8..2,
        )
            .prop_map(|(steps, irregular)| {
                let (mut x, mut y) = (0.0, 0.0);
                steps
                    .iter()
                    .map(|&(kind, dy, dx)| {
                        if kind != 0 {
                            y += dy;
                        }
                        let point = (x, y);
                        x += if irregular == 1 { dx } else { 1.0 };
                        point
                    })
                    .collect()
            })
    }

    /// A chain over series `xs` mixing every unit kind the kernel scores
    /// differently: the five slope leaves, non-leaf units (sharply, NOT,
    /// an opaque OR) and fully pinned anchors, under non-unit weights.
    fn chain_of(specs: &[UnitSpec], xs: &[f64]) -> Chain {
        let (k, last) = (specs.len(), xs.len() - 1);
        let units = specs
            .iter()
            .enumerate()
            .map(|(t, &(kind, weight, knob))| {
                let (query, pins) = match kind {
                    0 => (ShapeQuery::up(), None),
                    1 => (ShapeQuery::down(), None),
                    2 => (ShapeQuery::flat(), None),
                    3 => (ShapeQuery::pattern(Pattern::Any), None),
                    4 => (ShapeQuery::pattern(Pattern::Slope(knob)), None),
                    5 => (
                        ShapeQuery::Segment(
                            ShapeSegment::pattern(Pattern::Up).with_modifier(Modifier::MuchMore),
                        ),
                        None,
                    ),
                    6 => (ShapeQuery::Not(Box::new(ShapeQuery::up())), None),
                    7 => (
                        ShapeQuery::Or(vec![ShapeQuery::flat(), ShapeQuery::down()]),
                        None,
                    ),
                    _ => {
                        // Anchored inside this unit's share of the series.
                        let s = xs[(t * last / k + (knob.abs() as usize % 3)).min(last)];
                        let e = xs[((t + 1) * last / k).min(last)];
                        let p = if knob < 0.0 {
                            Pattern::Down
                        } else {
                            Pattern::Up
                        };
                        (
                            ShapeQuery::Segment(ShapeSegment::pinned(p, s, e)),
                            Some((s, e)),
                        )
                    }
                };
                Unit {
                    query,
                    weight,
                    pin_start: pins.map(|p| p.0),
                    pin_end: pins.map(|p| p.1),
                    width: None,
                }
            })
            .collect();
        Chain { units }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// The flat back-pointer kernel reproduces the recursive
        /// per-node-table reference exactly: same score bits, same
        /// ranges, with bridges on and off. Chains run to 8 units, so
        /// break lists longer than the reference's 6 inline slots are
        /// rebuilt too.
        #[test]
        fn flat_kernel_matches_reference_bit_for_bit(
            pairs in series(),
            specs in proptest::collection::vec((0u8..9, 0.05f64..1.0, -80f64..80.0), 1..9),
            min_width in 0u8..3,
        ) {
            let _cpu = crate::test_support::cpu_heavy();
            let v = viz(&pairs);
            let params = ScoreParams {
                min_width_frac: [0.0, 0.05, 0.2][min_width as usize],
                ..ScoreParams::default()
            };
            let udps = UdpRegistry::new();
            let ev = Evaluator::new(&v, &params, &udps);
            let raw_xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let chain = chain_of(&specs, &raw_xs);
            for bridges in [true, false] {
                let got = solve_tree_with(&ev, &chain, bridges);
                let want = reference::solve_tree_with(&ev, &chain, bridges);
                prop_assert_eq!(
                    got.score.to_bits(),
                    want.score.to_bits(),
                    "score {} vs reference {} (bridges={}, n={}, {:?})",
                    got.score,
                    want.score,
                    bridges,
                    pairs.len(),
                    specs
                );
                prop_assert_eq!(got.ranges, want.ranges, "bridges={}", bridges);
            }
        }
    }
}
