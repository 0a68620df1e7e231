//! A unified per-file predictor with the paper's OBA cold-start
//! fallback and the *walk* cursor used by aggressive prefetching.
//!
//! Chain predictors (OBA, IS_PPM, back-off, Markov) advance the walk
//! one predicted request at a time. Set predictors (MITHRIL) walk a
//! **ranked frontier**: the candidate set of the current block, in
//! rank order, then the candidates of each issued candidate (a
//! breadth-first expansion of the association graph). Either way the
//! walk yields one request per call, so the prefetch engine charges
//! one aggressiveness-limit unit per candidate without knowing which
//! kind of predictor it is driving.

use std::collections::VecDeque;

use crate::backoff::BackoffIsPpm;
use crate::fxhash::FxHashSet;
use crate::isppm::{apply_pair, EdgeChoice, IsPpm, Pair};
use crate::markov::BlockMarkov;
use crate::mithril::Mithril;
use crate::oba::Oba;
use crate::request::Request;
use crate::spec::AlgorithmKind;

/// Where a prediction came from — the configured predictor proper or
/// the OBA cold-start fallback ("our proposal consists of using the
/// OBA algorithm whenever not enough information is available in the
/// graph", §2.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PredictionSource {
    /// The configured predictor proper (OBA for OBA configs, the graph
    /// for IS_PPM configs, the chain/association table for the
    /// extension predictors).
    Primary,
    /// The OBA fallback inside a predictor configuration.
    ObaFallback,
}

/// The simulated position of an aggressive prefetching pass: the last
/// (real or hypothetical) request on the path, plus the predictor's
/// hypothetical context — the (interval, size) history for IS_PPM, the
/// recent-block window for Markov, the ranked frontier for MITHRIL.
///
/// The aggressive driver "behaves as if the user had already requested
/// the prefetched blocks and goes for the next node in the graph"
/// (§3.1): advancing the walk never mutates the model, it only moves
/// this cursor.
#[derive(Clone, Debug)]
pub struct Walk {
    cur: Request,
    /// Last up-to-`order` pairs along the walk (IS_PPM only; empty
    /// otherwise).
    pairs: Vec<Pair>,
    /// Last up-to-`order` block numbers along the walk (Markov only).
    blocks: Vec<u64>,
    /// Ranked candidate frontier (MITHRIL only): candidates still to
    /// issue, strongest first; issuing one enqueues *its* candidates.
    frontier: VecDeque<u64>,
    /// Blocks already issued or demanded on this walk (MITHRIL only) —
    /// terminates cycles in the association graph.
    visited: FxHashSet<u64>,
}

impl Walk {
    fn chain(cur: Request, pairs: Vec<Pair>) -> Self {
        Walk {
            cur,
            pairs,
            blocks: Vec::new(),
            frontier: VecDeque::new(),
            visited: FxHashSet::default(),
        }
    }

    /// The last request (real or simulated) on the walk path.
    pub fn position(&self) -> Request {
        self.cur
    }
}

enum Inner {
    None,
    Oba(Oba),
    IsPpm(IsPpm),
    Backoff(BackoffIsPpm),
    Markov { model: BlockMarkov, fallback: bool },
    Mithril { model: Mithril, fallback: bool },
}

/// A per-file predictor of any registered [`AlgorithmKind`], with OBA
/// fallback where the configuration asks for it.
pub struct FilePredictor {
    inner: Inner,
    /// Predictions returned (from `predict` and `walk_next`).
    emits: u64,
    /// Predictions returned by the primary model (not the fallback).
    hits: u64,
    /// Model consultations: every `predict`/`walk_next` call, whether
    /// or not it produced a prediction. A deterministic cost counter
    /// for the simulator self-profile — prediction *work*, where
    /// `emits` counts prediction *output*.
    lookups: u64,
    /// Accesses observed into the model (`observe` calls).
    updates: u64,
}

impl FilePredictor {
    /// Build the predictor for an algorithm configuration.
    pub fn new(algorithm: AlgorithmKind, edge_choice: EdgeChoice) -> Self {
        let inner = match algorithm {
            AlgorithmKind::None => Inner::None,
            AlgorithmKind::Oba => Inner::Oba(Oba::new()),
            AlgorithmKind::IsPpm { order } => {
                Inner::IsPpm(IsPpm::with_edge_choice(order, edge_choice))
            }
            AlgorithmKind::IsPpmBackoff { order } => {
                Inner::Backoff(BackoffIsPpm::new(order, edge_choice))
            }
            AlgorithmKind::Markov { order, fallback } => Inner::Markov {
                model: BlockMarkov::new(order),
                fallback,
            },
            AlgorithmKind::Mithril {
                lookahead,
                min_support,
                fallback,
            } => Inner::Mithril {
                model: Mithril::new(lookahead, min_support),
                fallback,
            },
        };
        FilePredictor {
            inner,
            emits: 0,
            hits: 0,
            lookups: 0,
            updates: 0,
        }
    }

    /// Feed a real demand request into the model.
    pub fn observe(&mut self, req: Request) {
        self.updates += 1;
        match &mut self.inner {
            Inner::None => {}
            Inner::Oba(o) => o.observe(req),
            Inner::IsPpm(p) => p.observe(req),
            Inner::Backoff(b) => b.observe(req),
            Inner::Markov { model, .. } => model.observe(req),
            Inner::Mithril { model, .. } => model.observe(req),
        }
    }

    /// The last demand request observed, if any.
    pub fn last_request(&self) -> Option<Request> {
        match &self.inner {
            Inner::None => None,
            Inner::Oba(o) => o.last(),
            Inner::IsPpm(p) => p.last_request(),
            Inner::Backoff(b) => b.last_request(),
            Inner::Markov { model, .. } => model.last_request(),
            Inner::Mithril { model, .. } => model.last_request(),
        }
    }

    /// Access the underlying IS_PPM graph (for diagnostics/tests).
    pub fn graph(&self) -> Option<&IsPpm> {
        match &self.inner {
            Inner::IsPpm(p) => Some(p),
            _ => None,
        }
    }

    /// Predictions returned so far (`pred.emits`).
    pub fn emits(&self) -> u64 {
        self.emits
    }

    /// Predictions the primary model produced itself, without the OBA
    /// fallback (`pred.hits`).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Size of the learned model: IS_PPM graph nodes, Markov
    /// transitions or MITHRIL association rules (`pred.table_size`).
    pub fn table_size(&self) -> u64 {
        match &self.inner {
            Inner::None | Inner::Oba(_) => 0,
            Inner::IsPpm(p) => p.node_count() as u64,
            Inner::Backoff(b) => b.node_count() as u64,
            Inner::Markov { model, .. } => model.transitions(),
            Inner::Mithril { model, .. } => model.assoc_count(),
        }
    }

    /// Model consultations so far (every `predict`/`walk_next` call).
    pub fn table_lookups(&self) -> u64 {
        self.lookups
    }

    /// Accesses observed into the model so far (`observe` calls).
    pub fn table_updates(&self) -> u64 {
        self.updates
    }

    /// Distinct association rules ever mined (`pred.mined`; MITHRIL
    /// only, 0 elsewhere).
    pub fn mined(&self) -> u64 {
        match &self.inner {
            Inner::Mithril { model, .. } => model.mined(),
            _ => 0,
        }
    }

    fn count(
        &mut self,
        pred: Option<(Request, PredictionSource)>,
    ) -> Option<(Request, PredictionSource)> {
        if let Some((_, src)) = pred {
            self.emits += 1;
            if src == PredictionSource::Primary {
                self.hits += 1;
            }
        }
        pred
    }

    /// Predict the single next request after the last observed one
    /// (non-aggressive mode). IS_PPM configurations fall back to OBA
    /// when the graph cannot predict; Markov and MITHRIL do so only
    /// when configured with the `+oba` fallback.
    pub fn predict(&mut self, file_blocks: u64) -> Option<(Request, PredictionSource)> {
        self.lookups += 1;
        let last = self.last_request()?;
        let pred = match &self.inner {
            Inner::None => None,
            Inner::Oba(_) => {
                Oba::predict_after(last, file_blocks).map(|r| (r, PredictionSource::Primary))
            }
            Inner::IsPpm(p) => match p.predict_after(last, file_blocks) {
                Some(r) => Some((r, PredictionSource::Primary)),
                None => Oba::predict_after(last, file_blocks)
                    .map(|r| (r, PredictionSource::ObaFallback)),
            },
            Inner::Backoff(b) => match b.predict_after(last, file_blocks) {
                Some((r, _)) => Some((r, PredictionSource::Primary)),
                None => Oba::predict_after(last, file_blocks)
                    .map(|r| (r, PredictionSource::ObaFallback)),
            },
            Inner::Markov { model, fallback } => {
                let primary = (model.context().len() == model.order())
                    .then(|| model.next_after(model.context()))
                    .flatten()
                    .map(|b| Request::new(b, 1))
                    .filter(|r| r.within(file_blocks));
                match primary {
                    Some(r) => Some((r, PredictionSource::Primary)),
                    None if *fallback => Oba::predict_after(last, file_blocks)
                        .map(|r| (r, PredictionSource::ObaFallback)),
                    None => None,
                }
            }
            Inner::Mithril { model, fallback } => {
                let primary = model
                    .candidates(last.last_block())
                    .into_iter()
                    .map(|b| Request::new(b, 1))
                    .find(|r| r.within(file_blocks));
                match primary {
                    Some(r) => Some((r, PredictionSource::Primary)),
                    None if *fallback => Oba::predict_after(last, file_blocks)
                        .map(|r| (r, PredictionSource::ObaFallback)),
                    None => None,
                }
            }
        };
        self.count(pred)
    }

    /// Begin an aggressive walk at the last observed request. Returns
    /// `None` until at least one request has been observed (nothing to
    /// extrapolate from) or for the `None` algorithm.
    pub fn start_walk(&self) -> Option<Walk> {
        let cur = self.last_request()?;
        Some(match &self.inner {
            Inner::None => return None,
            Inner::Oba(_) => Walk::chain(cur, Vec::new()),
            Inner::IsPpm(p) => Walk::chain(cur, p.history().to_vec()),
            Inner::Backoff(b) => Walk::chain(cur, b.history().to_vec()),
            Inner::Markov { model, .. } => {
                let mut w = Walk::chain(cur, Vec::new());
                w.blocks = model.context().to_vec();
                w
            }
            Inner::Mithril { model, .. } => {
                let mut w = Walk::chain(cur, Vec::new());
                w.visited.extend(cur.blocks());
                w.frontier.extend(
                    model
                        .candidates(cur.last_block())
                        .into_iter()
                        .filter(|b| !w.visited.contains(b)),
                );
                w
            }
        })
    }

    /// Advance the walk one predicted request. Returns the predicted
    /// request and its source, or `None` when the walk must stop (the
    /// prediction leaves the file, per §3.1, or — for set predictors —
    /// the frontier is exhausted).
    ///
    /// IS_PPM walks that leave the learned graph continue OBA-style and
    /// re-synchronise with the graph as soon as their hypothetical
    /// context matches a known node again; Markov and MITHRIL walks do
    /// the same only under the `+oba` fallback.
    pub fn walk_next(
        &mut self,
        walk: &mut Walk,
        file_blocks: u64,
    ) -> Option<(Request, PredictionSource)> {
        self.lookups += 1;
        let pred = match &self.inner {
            Inner::None => None,
            Inner::Oba(_) => Oba::predict_after(walk.cur, file_blocks).map(|next| {
                walk.cur = next;
                (next, PredictionSource::Primary)
            }),
            Inner::IsPpm(p) => {
                let graph_step = (walk.pairs.len() == p.order())
                    .then(|| p.lookup(&walk.pairs))
                    .flatten()
                    .and_then(|node| p.step(node).map(|(_, pair)| pair));
                advance_walk(walk, graph_step, p.order(), file_blocks)
            }
            Inner::Backoff(b) => {
                let graph_step = b.step_from_history(&walk.pairs).map(|(pair, _)| pair);
                advance_walk(walk, graph_step, b.max_order(), file_blocks)
            }
            Inner::Markov { model, fallback } => {
                markov_walk_step(model, *fallback, walk, file_blocks)
            }
            Inner::Mithril { model, fallback } => {
                mithril_walk_step(model, *fallback, walk, file_blocks)
            }
        };
        self.count(pred)
    }
}

/// Apply one chain-walk step: take the graph's predicted pair if it has
/// one, otherwise the OBA fallback pair (the block right after the
/// walk's current request); bound it to the file; and slide the
/// hypothetical pair window forward.
fn advance_walk(
    walk: &mut Walk,
    graph_pair: Option<Pair>,
    order: usize,
    file_blocks: u64,
) -> Option<(Request, PredictionSource)> {
    let (pair, source) = match graph_pair {
        Some(pair) => (pair, PredictionSource::Primary),
        None => (
            Pair::new(walk.cur.size as i64, 1),
            PredictionSource::ObaFallback,
        ),
    };
    let next = apply_pair(walk.cur, pair, file_blocks)?;
    if walk.pairs.len() == order {
        walk.pairs.remove(0);
    }
    walk.pairs.push(pair);
    walk.cur = next;
    Some((next, source))
}

/// One Markov walk step: argmax successor of the hypothetical block
/// context, or the sequential block under the `+oba` fallback.
fn markov_walk_step(
    model: &BlockMarkov,
    fallback: bool,
    walk: &mut Walk,
    file_blocks: u64,
) -> Option<(Request, PredictionSource)> {
    let primary = (walk.blocks.len() == model.order())
        .then(|| model.next_after(&walk.blocks))
        .flatten()
        .filter(|&b| b < file_blocks);
    let (block, source) = match primary {
        Some(b) => (b, PredictionSource::Primary),
        None if fallback => {
            let b = walk.cur.end();
            if b >= file_blocks {
                return None;
            }
            (b, PredictionSource::ObaFallback)
        }
        None => return None,
    };
    if walk.blocks.len() == model.order() {
        walk.blocks.remove(0);
    }
    walk.blocks.push(block);
    walk.cur = Request::new(block, 1);
    Some((walk.cur, source))
}

/// One MITHRIL walk step: issue the strongest unvisited frontier
/// candidate and enqueue *its* candidates — a ranked breadth-first
/// expansion of the association graph. Under `+oba` an exhausted
/// frontier continues sequentially from the walk position.
fn mithril_walk_step(
    model: &Mithril,
    fallback: bool,
    walk: &mut Walk,
    file_blocks: u64,
) -> Option<(Request, PredictionSource)> {
    while let Some(c) = walk.frontier.pop_front() {
        if c >= file_blocks || !walk.visited.insert(c) {
            continue;
        }
        walk.frontier.extend(
            model
                .candidates(c)
                .into_iter()
                .filter(|b| !walk.visited.contains(b)),
        );
        walk.cur = Request::new(c, 1);
        return Some((walk.cur, PredictionSource::Primary));
    }
    if fallback {
        let b = walk.cur.end();
        if b < file_blocks && walk.visited.insert(b) {
            walk.cur = Request::new(b, 1);
            return Some((walk.cur, PredictionSource::ObaFallback));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AlgorithmKind;

    fn feed(p: &mut FilePredictor, reqs: &[(u64, u64)]) {
        for &(o, s) in reqs {
            p.observe(Request::new(o, s));
        }
    }

    #[test]
    fn none_predictor_is_silent() {
        let mut p = FilePredictor::new(AlgorithmKind::None, EdgeChoice::MostRecent);
        p.observe(Request::new(0, 1));
        assert!(p.predict(100).is_none());
        assert!(p.start_walk().is_none());
        assert_eq!((p.emits(), p.hits()), (0, 0));
    }

    #[test]
    fn oba_walk_is_sequential_scan() {
        let mut p = FilePredictor::new(AlgorithmKind::Oba, EdgeChoice::MostRecent);
        feed(&mut p, &[(4, 2)]);
        let mut walk = p.start_walk().unwrap();
        let mut blocks = Vec::new();
        while let Some((req, src)) = p.walk_next(&mut walk, 10) {
            assert_eq!(src, PredictionSource::Primary);
            blocks.extend(req.blocks());
        }
        assert_eq!(blocks, vec![6, 7, 8, 9]);
        assert_eq!((p.emits(), p.hits()), (4, 4));
    }

    #[test]
    fn isppm_walk_follows_learned_pattern() {
        let mut p = FilePredictor::new(AlgorithmKind::IsPpm { order: 1 }, EdgeChoice::MostRecent);
        // Figure 1 pattern.
        feed(&mut p, &[(0, 2), (3, 3), (8, 2), (11, 3), (16, 2)]);
        let mut walk = p.start_walk().unwrap();
        let mut preds = Vec::new();
        for _ in 0..4 {
            let (req, src) = p.walk_next(&mut walk, 100).unwrap();
            assert_eq!(src, PredictionSource::Primary);
            preds.push((req.offset, req.size));
        }
        assert_eq!(preds, vec![(19, 3), (24, 2), (27, 3), (32, 2)]);
    }

    #[test]
    fn isppm_walk_stops_at_eof() {
        let mut p = FilePredictor::new(AlgorithmKind::IsPpm { order: 1 }, EdgeChoice::MostRecent);
        feed(&mut p, &[(0, 2), (3, 3), (8, 2), (11, 3), (16, 2)]);
        let mut walk = p.start_walk().unwrap();
        // File of 22 blocks: (19,3) fits exactly (ends at 22), next
        // prediction (24,2) does not.
        let (req, _) = p.walk_next(&mut walk, 22).unwrap();
        assert_eq!(req, Request::new(19, 3));
        assert!(p.walk_next(&mut walk, 22).is_none());
    }

    #[test]
    fn cold_graph_falls_back_to_oba() {
        let mut p = FilePredictor::new(AlgorithmKind::IsPpm { order: 3 }, EdgeChoice::MostRecent);
        feed(&mut p, &[(0, 2)]);
        // Only one request: graph empty, fallback predicts block 2.
        let (req, src) = p.predict(100).unwrap();
        assert_eq!(req, Request::new(2, 1));
        assert_eq!(src, PredictionSource::ObaFallback);
        assert_eq!((p.emits(), p.hits()), (1, 0));
    }

    #[test]
    fn walk_resynchronises_with_graph_after_fallback() {
        let mut p = FilePredictor::new(AlgorithmKind::IsPpm { order: 1 }, EdgeChoice::MostRecent);
        // Teach: a (+1, 1) step is followed by a (+10, 1) jump.
        feed(&mut p, &[(0, 1), (1, 1), (11, 1), (12, 1), (22, 1)]);
        // Context now (10,1). Graph: (1,1) -> (10,1) -> (1,1).
        let mut walk = p.start_walk().unwrap();
        let (r1, s1) = p.walk_next(&mut walk, 1000).unwrap();
        // From node (10,1): MRU edge -> (1,1): 22+1=23.
        assert_eq!((r1, s1), (Request::new(23, 1), PredictionSource::Primary));
        let (r2, s2) = p.walk_next(&mut walk, 1000).unwrap();
        // From node (1,1): MRU edge -> (10,1): 23+10=33.
        assert_eq!((r2, s2), (Request::new(33, 1), PredictionSource::Primary));
    }

    #[test]
    fn fallback_share_of_walk_with_unknown_context() {
        // Graph trained on pattern A, walk falls off it: a stride the
        // graph has never seen forces OBA fallback, and the fallback's
        // own (size,1) pair may then re-enter the graph.
        let mut p = FilePredictor::new(AlgorithmKind::IsPpm { order: 1 }, EdgeChoice::MostRecent);
        feed(&mut p, &[(0, 4), (8, 4), (16, 4)]); // stride 8, size 4
        let mut walk = p.start_walk().unwrap();
        let (r1, s1) = p.walk_next(&mut walk, 1000).unwrap();
        assert_eq!((r1, s1), (Request::new(24, 4), PredictionSource::Primary));
    }

    #[test]
    fn markov_walk_follows_block_cycle() {
        let kind = AlgorithmKind::Markov {
            order: 1,
            fallback: false,
        };
        let mut p = FilePredictor::new(kind, EdgeChoice::MostRecent);
        feed(
            &mut p,
            &[(5, 1), (9, 1), (2, 1), (5, 1), (9, 1), (2, 1), (5, 1)],
        );
        let mut walk = p.start_walk().unwrap();
        let mut blocks = Vec::new();
        for _ in 0..4 {
            let (req, src) = p.walk_next(&mut walk, 100).unwrap();
            assert_eq!(src, PredictionSource::Primary);
            blocks.push(req.offset);
        }
        assert_eq!(blocks, vec![9, 2, 5, 9], "walks the learned cycle");
        assert_eq!((p.emits(), p.hits()), (4, 4));
    }

    #[test]
    fn markov_without_fallback_stops_on_unknown_context() {
        let kind = AlgorithmKind::Markov {
            order: 1,
            fallback: false,
        };
        let mut p = FilePredictor::new(kind, EdgeChoice::MostRecent);
        feed(&mut p, &[(0, 1)]);
        assert!(p.predict(100).is_none(), "no transitions learned yet");
        let mut walk = p.start_walk().unwrap();
        assert!(p.walk_next(&mut walk, 100).is_none());
    }

    #[test]
    fn markov_fallback_walks_sequentially_when_cold() {
        let kind = AlgorithmKind::Markov {
            order: 2,
            fallback: true,
        };
        let mut p = FilePredictor::new(kind, EdgeChoice::MostRecent);
        feed(&mut p, &[(7, 1)]);
        let mut walk = p.start_walk().unwrap();
        let (req, src) = p.walk_next(&mut walk, 100).unwrap();
        assert_eq!(
            (req, src),
            (Request::new(8, 1), PredictionSource::ObaFallback)
        );
        let (req, _) = p.walk_next(&mut walk, 100).unwrap();
        assert_eq!(req, Request::new(9, 1));
    }

    #[test]
    fn mithril_walk_is_ranked_frontier_expansion() {
        let kind = AlgorithmKind::Mithril {
            lookahead: 3,
            min_support: 2,
            fallback: false,
        };
        let mut p = FilePredictor::new(kind, EdgeChoice::MostRecent);
        // 10 is followed by {90, 40} repeatedly; 90 by 40.
        feed(
            &mut p,
            &[
                (10, 1),
                (90, 1),
                (40, 1),
                (10, 1),
                (90, 1),
                (40, 1),
                (10, 1),
            ],
        );
        let mut walk = p.start_walk().unwrap();
        let mut issued = Vec::new();
        while let Some((req, src)) = p.walk_next(&mut walk, 1000) {
            assert_eq!(src, PredictionSource::Primary);
            assert_eq!(req.size, 1, "set candidates are single blocks");
            issued.push(req.offset);
        }
        // 90 outranks 40 from block 10 (equal support, reinforced
        // earlier — the nearer successor in the stream); the demanded
        // block 10 itself is never issued and each candidate is issued
        // exactly once despite graph cycles.
        assert_eq!(issued, vec![90, 40]);
        assert_eq!(p.mined(), p.table_size());
    }

    #[test]
    fn mithril_fallback_continues_sequentially_after_frontier() {
        let kind = AlgorithmKind::Mithril {
            lookahead: 2,
            min_support: 2,
            fallback: true,
        };
        let mut p = FilePredictor::new(kind, EdgeChoice::MostRecent);
        feed(&mut p, &[(10, 1), (90, 1), (10, 1), (90, 1), (10, 1)]);
        let mut walk = p.start_walk().unwrap();
        let (r1, s1) = p.walk_next(&mut walk, 100).unwrap();
        assert_eq!((r1, s1), (Request::new(90, 1), PredictionSource::Primary));
        // Frontier exhausted (90's candidate 10 is visited): continue
        // one-block-ahead from the walk position.
        let (r2, s2) = p.walk_next(&mut walk, 100).unwrap();
        assert_eq!(
            (r2, s2),
            (Request::new(91, 1), PredictionSource::ObaFallback)
        );
    }

    #[test]
    fn mithril_walk_respects_file_bounds() {
        let kind = AlgorithmKind::Mithril {
            lookahead: 2,
            min_support: 1,
            fallback: false,
        };
        let mut p = FilePredictor::new(kind, EdgeChoice::MostRecent);
        feed(&mut p, &[(3, 1), (50, 1), (3, 1)]);
        // Association 3 -> 50 exists but the file has only 10 blocks.
        let mut walk = p.start_walk().unwrap();
        assert!(p.walk_next(&mut walk, 10).is_none());
    }
}
