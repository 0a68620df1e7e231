//! A MITHRIL-style block-association miner (extension; see PAPERS.md).
//!
//! Sequential and PPM predictors structurally miss *sporadic* but
//! correlated accesses — block pairs that recur together without a
//! stable stride. MITHRIL mines them: every observed block keeps a
//! timestamped **circular lookahead window** of its recent
//! predecessors, and each predecessor→successor co-occurrence becomes
//! an association rule with a support count and a recency stamp. A
//! rule is only *emitted* once its support clears a minimum, and the
//! candidates for a block form a **ranked set** ordered by (support
//! desc, reinforcement clock asc, block asc) — not a linear next-block
//! chain. Among equally supported successors the one reinforced
//! *earliest* after each occurrence of the source is the **nearest**
//! upcoming block in the stream, so it is issued first; ranking by
//! latest reinforcement would walk the farthest-ahead association
//! first and outrun the demand stream.
//!
//! Ranking and eviction orders are total (block numbers break every
//! tie), so hash-map iteration order cannot leak into predictions.

use std::collections::VecDeque;

use crate::fxhash::FxHashMap;
use crate::request::Request;

/// Cap on stored associations per source block; the weakest (lowest
/// support, then the farthest — latest-reinforced — successor, then
/// the higher target) is evicted first, keeping the near successors a
/// walk issues first. Support grows every pass for live rules, so a
/// stale equal-support tie is transient.
const MAX_ASSOCS_PER_SOURCE: usize = 8;

#[derive(Clone, Copy, Debug)]
struct Assoc {
    target: u64,
    support: u32,
    last_seen: u64,
}

/// The association miner for one file.
#[derive(Clone, Debug)]
pub struct Mithril {
    lookahead: usize,
    min_support: u32,
    /// Circular window of the most recent `(clock, block)` observations.
    window: VecDeque<(u64, u64)>,
    /// Mined rules: source block → capped association list.
    table: FxHashMap<u64, Vec<Assoc>>,
    clock: u64,
    mined: u64,
    last_req: Option<Request>,
}

impl Mithril {
    /// Create a miner with the given lookahead-window length (in
    /// observed blocks) and minimum emission support.
    ///
    /// # Panics
    /// Panics if `lookahead < 2` (a one-slot window can never pair two
    /// distinct blocks) or `min_support == 0`.
    pub fn new(lookahead: usize, min_support: u32) -> Self {
        assert!(lookahead >= 2, "MITHRIL lookahead must be at least 2");
        assert!(min_support >= 1, "MITHRIL min support must be at least 1");
        Mithril {
            lookahead,
            min_support,
            window: VecDeque::with_capacity(lookahead),
            table: FxHashMap::default(),
            clock: 0,
            mined: 0,
            last_req: None,
        }
    }

    /// The lookahead-window length.
    pub fn lookahead(&self) -> usize {
        self.lookahead
    }

    /// The minimum support an association needs before it is emitted.
    pub fn min_support(&self) -> u32 {
        self.min_support
    }

    /// The most recently observed request.
    pub fn last_request(&self) -> Option<Request> {
        self.last_req
    }

    /// Number of stored association rules (the `pred.table_size`
    /// registry gauge).
    pub fn assoc_count(&self) -> u64 {
        self.table.values().map(|v| v.len() as u64).sum()
    }

    /// Number of distinct rules ever mined (insertions, not updates —
    /// the `pred.mined` registry counter).
    pub fn mined(&self) -> u64 {
        self.mined
    }

    /// Feed one demand request into the miner, block by block: each
    /// block `b` strengthens the rule `a → b` for every distinct block
    /// `a` still inside the lookahead window.
    pub fn observe(&mut self, req: Request) {
        for b in req.blocks() {
            self.clock += 1;
            let clock = self.clock;
            for i in 0..self.window.len() {
                let (_, a) = self.window[i];
                if a == b {
                    continue;
                }
                let assocs = self.table.entry(a).or_default();
                if let Some(e) = assocs.iter_mut().find(|e| e.target == b) {
                    e.support += 1;
                    e.last_seen = clock;
                } else {
                    if assocs.len() == MAX_ASSOCS_PER_SOURCE {
                        // Evict the weakest rule: lowest support, then
                        // the latest-reinforced (farthest) successor,
                        // then the larger target block.
                        let weakest = assocs
                            .iter()
                            .enumerate()
                            .min_by(|(_, x), (_, y)| {
                                x.support
                                    .cmp(&y.support)
                                    .then(y.last_seen.cmp(&x.last_seen))
                                    .then(y.target.cmp(&x.target))
                            })
                            .map(|(i, _)| i)
                            .expect("non-empty");
                        assocs.swap_remove(weakest);
                    }
                    assocs.push(Assoc {
                        target: b,
                        support: 1,
                        last_seen: clock,
                    });
                    self.mined += 1;
                }
            }
            self.window.push_back((clock, b));
            while self.window.len() > self.lookahead {
                self.window.pop_front();
            }
        }
        self.last_req = Some(req);
    }

    /// The ranked candidate set for `block`: every association whose
    /// support clears the minimum, strongest first (support desc,
    /// earliest-reinforced first, target block asc). The
    /// earliest-reinforced equally supported successor is the nearest
    /// upcoming block in the stream (see the module docs).
    pub fn candidates(&self, block: u64) -> Vec<u64> {
        let Some(assocs) = self.table.get(&block) else {
            return Vec::new();
        };
        let mut out: Vec<&Assoc> = assocs
            .iter()
            .filter(|a| a.support >= self.min_support)
            .collect();
        out.sort_unstable_by(|x, y| {
            y.support
                .cmp(&x.support)
                .then(x.last_seen.cmp(&y.last_seen))
                .then(x.target.cmp(&y.target))
        });
        out.into_iter().map(|a| a.target).collect()
    }

    /// Forget everything.
    pub fn reset(&mut self) {
        self.window.clear();
        self.table.clear();
        self.clock = 0;
        self.mined = 0;
        self.last_req = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(m: &mut Mithril, blocks: &[u64]) {
        for &b in blocks {
            m.observe(Request::new(b, 1));
        }
    }

    #[test]
    fn mines_cooccurring_pairs() {
        let mut m = Mithril::new(4, 2);
        // Blocks 10 and 90 recur together, with noise between rounds.
        feed(&mut m, &[10, 90, 1, 2, 10, 90, 3, 4, 10, 90]);
        assert_eq!(m.candidates(10), vec![90]);
        assert!(m.mined() > 0);
        assert!(m.assoc_count() > 0);
    }

    #[test]
    fn min_support_filters_singletons() {
        let mut m = Mithril::new(4, 2);
        feed(&mut m, &[10, 90]);
        // Seen once: mined but below support, so not emitted.
        assert!(m.candidates(10).is_empty());
        feed(&mut m, &[10, 90]);
        assert_eq!(m.candidates(10), vec![90]);
    }

    #[test]
    fn ranking_is_support_then_nearest_then_block() {
        let mut m = Mithril::new(2, 1);
        // 5 -> 7 twice, 5 -> 3 once (later). Window of 2 keeps pairs
        // tight: each probe sequence is [5, x].
        feed(&mut m, &[5, 7, 5, 7, 5, 3]);
        assert_eq!(m.candidates(5), vec![7, 3]);
        // Equal support + distinct reinforcement clocks: the
        // earliest-reinforced (nearest in the stream) first.
        let mut m = Mithril::new(2, 1);
        feed(&mut m, &[5, 7, 5, 3]);
        assert_eq!(m.candidates(5), vec![7, 3]);
    }

    #[test]
    fn eviction_keeps_near_successors() {
        let mut m = Mithril::new(16, 1);
        // One pass over 0..=12: source 0 pairs with 12 successors, 4
        // over the per-source cap. The latest-reinforced (farthest)
        // rules are evicted as the later successors arrive, keeping
        // the near ones a walk issues first.
        feed(&mut m, &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
        assert_eq!(m.candidates(0), vec![1, 2, 3, 4, 5, 6, 7, 12]);
    }

    #[test]
    fn window_bounds_mining_distance() {
        let mut m = Mithril::new(2, 1);
        // With a 2-slot window, 10 has left the window by the time 99
        // arrives (two other blocks in between).
        feed(&mut m, &[10, 1, 2, 99]);
        assert!(m.candidates(10).iter().all(|&t| t != 99));
    }

    #[test]
    fn table_is_capped_per_source() {
        let mut m = Mithril::new(2, 1);
        // Associate block 0 with many distinct successors.
        for t in 1..=20u64 {
            feed(&mut m, &[0, t]);
        }
        assert!(m.table.get(&0).unwrap().len() <= MAX_ASSOCS_PER_SOURCE);
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = Mithril::new(4, 1);
        feed(&mut m, &[1, 2, 3]);
        assert!(m.assoc_count() > 0);
        m.reset();
        assert_eq!(m.assoc_count(), 0);
        assert_eq!(m.mined(), 0);
        assert!(m.last_request().is_none());
        assert!(m.candidates(1).is_empty());
    }

    #[test]
    #[should_panic(expected = "lookahead must be at least 2")]
    fn tiny_window_panics() {
        Mithril::new(1, 1);
    }
}
