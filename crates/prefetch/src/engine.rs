//! The per-file prefetch engine: simple and (linear) aggressive modes.

use std::collections::VecDeque;

use lapobs::{Event, NoopRecorder, Obs, Recorder, WalkStopReason, NO_RID};

use predict::{AlgorithmKind, FilePredictor, PredictionSource, Request, Walk};

use crate::config::PrefetchConfig;
use crate::runs::RunSet;
use crate::stats::PrefetchStats;

/// Per-file prefetch driver implementing §3 of the paper.
///
/// The engine is entirely pull-based and cache-agnostic:
///
/// 1. The caller reports every demand request via
///    [`on_demand`](Self::on_demand). The engine updates the predictor
///    and decides whether the request confirms the current prefetching
///    path or miss-predicts it (restarting the path in that case).
/// 2. The caller pulls block numbers to prefetch via
///    [`next_block`](Self::next_block), passing a closure that says
///    whether a block is already cached ("prefetch blocks continuously
///    as long as it can predict data that is not in the cache yet").
/// 3. When a prefetched block arrives, the caller reports
///    [`on_prefetch_complete`](Self::on_prefetch_complete) and pulls
///    again — with the linear limit this is what sustains the
///    one-block-at-a-time pipeline.
///
/// In non-aggressive mode each demand request produces at most one
/// predicted request, all of whose blocks may be fetched concurrently
/// (that is what makes plain `IS_PPM` "quite aggressive" on large
/// requests, §5.2). In aggressive mode the engine walks the prediction
/// graph indefinitely, bounded by end-of-file and by a cycle-safety
/// budget, with at most `limit.cap()` blocks in flight.
pub struct FilePrefetcher {
    config: PrefetchConfig,
    file_blocks: u64,
    predictor: FilePredictor,
    /// Active aggressive walk, if any.
    walk: Option<Walk>,
    /// Block runs `(first, end, source)` already decided but not yet
    /// handed out, in walk order: the new parts of each predicted
    /// request. Blocks leave from the front one at a time.
    queue: VecDeque<(u64, u64, PredictionSource)>,
    /// Every block predicted on the current path since the last
    /// restart, whether handed out, queued, or skipped as cached — one
    /// run per predicted request, merged where they touch.
    path: RunSet,
    in_flight: usize,
    /// Remaining blocks the current walk may still emit (guards against
    /// cyclic prediction graphs walking forever inside the file).
    walk_budget: u64,
    /// Predicted blocks found already cached since the last issued
    /// block; a long run means the data ahead is resident and the walk
    /// has nothing to contribute.
    cached_run: u64,
    /// Issued-minus-demanded block count — the prefetcher's net lead
    /// over its consumer, bounded by `config.lead_cap`. Deliberately
    /// *not* reset on restarts: a thrashing walk (prefetches evicted
    /// before use, every demand a miss-prediction) then self-clocks to
    /// the demand rate instead of streaming the file over and over.
    lead: u64,
    /// Request id of the demand read that most recently drove the
    /// engine ([`NO_RID`] until the first attributed demand) — the
    /// "parent" stamped on every issued prefetch for causal tracing.
    parent_rid: u32,
    /// Walk generation: increments on every walk start/restart, so a
    /// trace can group prefetch issues into one prediction path.
    walk_gen: u32,
    stats: PrefetchStats,
}

/// An aggressive walk stops after this many consecutive predicted
/// blocks were found already cached: everything ahead is resident, so
/// prefetching is satisfied. (A later miss-prediction restarts the
/// walk from the new position anyway.) Without this cutoff a restarted
/// walk on a fully cached file grinds block-by-block to end-of-file,
/// which no real prefetcher would do — it would also make large-cache
/// simulations quadratically slow.
pub(crate) const CACHED_RUN_STOP: u64 = 64;

impl FilePrefetcher {
    /// Create an engine for one file of `file_blocks` blocks.
    pub fn new(config: PrefetchConfig, file_blocks: u64) -> Self {
        FilePrefetcher {
            predictor: FilePredictor::new(config.algorithm, config.edge_choice),
            config,
            file_blocks,
            walk: None,
            queue: VecDeque::new(),
            path: RunSet::default(),
            in_flight: 0,
            walk_budget: 0,
            cached_run: 0,
            lead: 0,
            parent_rid: NO_RID,
            walk_gen: 0,
            stats: PrefetchStats::default(),
        }
    }

    /// The configuration this engine runs.
    pub fn config(&self) -> PrefetchConfig {
        self.config
    }

    /// File size in blocks (updated via [`set_file_blocks`](Self::set_file_blocks)
    /// when the file grows).
    pub fn file_blocks(&self) -> u64 {
        self.file_blocks
    }

    /// Inform the engine that the file grew (writes past EOF) or was
    /// truncated. Growth takes effect from the next prediction on; a
    /// truncation also drops the queued blocks and the live walk, which
    /// may now point past the new end of file.
    pub fn set_file_blocks(&mut self, blocks: u64) {
        if blocks < self.file_blocks {
            self.queue.clear();
            self.path.truncate(blocks);
            self.walk = None;
        }
        self.file_blocks = blocks;
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> PrefetchStats {
        self.stats
    }

    /// Blocks currently being prefetched.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// The predictor (for diagnostics/tests).
    pub fn predictor(&self) -> &FilePredictor {
        &self.predictor
    }

    /// Current walk generation (0 before the first walk; increments on
    /// every start/restart).
    pub fn walk_gen(&self) -> u32 {
        self.walk_gen
    }

    /// Request id of the demand read that most recently drove the
    /// engine ([`NO_RID`] if none was attributed).
    pub fn parent_rid(&self) -> u32 {
        self.parent_rid
    }

    /// Report a demand request (block-granular). Updates the predictor
    /// and the prefetching path.
    ///
    /// Equivalent to [`on_demand_with_residency`]
    /// (Self::on_demand_with_residency) with `fully_cached = true`:
    /// an on-path request never restarts the walk.
    pub fn on_demand(&mut self, req: Request) {
        self.on_demand_with_residency(req, true);
    }

    /// Report a demand request together with whether all of its blocks
    /// were *covered* — resident in the cache or already being fetched.
    ///
    /// The paper's rule keeps the walk running while requests stay on
    /// the predicted path. But an on-path request for blocks that are
    /// neither resident nor in flight means the "already prefetched"
    /// data was evicted — the blocks have, in effect, not been
    /// prefetched any more. Continuing would leave the walk streaming
    /// uselessly ahead of a thrashing cache (or dormant, if it already
    /// ended), so prefetching restarts from the current position.
    pub fn on_demand_with_residency(&mut self, req: Request, fully_cached: bool) {
        let mut noop = NoopRecorder;
        self.on_demand_with_residency_obs(
            req,
            fully_cached,
            NO_RID,
            &mut Obs::new(0, 0, &mut noop),
        );
    }

    /// [`on_demand_with_residency`](Self::on_demand_with_residency),
    /// emitting walk lifecycle and mispredict events into `obs` (whose
    /// scope id should be the file this engine serves). `rid` is the
    /// demand read driving the engine; it becomes the parent id stamped
    /// on every prefetch the engine issues until the next demand. With
    /// a no-op recorder this is exactly the plain method.
    pub fn on_demand_with_residency_obs<R: Recorder>(
        &mut self,
        req: Request,
        fully_cached: bool,
        rid: u32,
        obs: &mut Obs<'_, R>,
    ) {
        if self.config.algorithm == AlgorithmKind::None {
            return;
        }
        self.parent_rid = rid;
        let had_prediction = !self.path.is_empty();
        let on_path = had_prediction && self.path.covers(req.offset, req.end());
        if had_prediction {
            if on_path {
                self.stats.requests_on_path += 1;
            } else {
                self.stats.requests_off_path += 1;
                obs.emit(|file| Event::Mispredict {
                    file,
                    block: req.offset,
                    rid,
                });
            }
        } else {
            self.stats.requests_unpredicted += 1;
        }

        self.predictor.observe(req);

        if self.config.is_aggressive() {
            // Every demand request consumes prefetcher lead, letting a
            // lead-capped walk advance again.
            self.lead = self.lead.saturating_sub(req.size);
            // "If the requested blocks have already been prefetched ...
            // the system continues bringing new blocks as if the user
            // had not requested any block" (§3.1). Otherwise restart
            // from the new position. A walk whose on-path blocks were
            // evicted also restarts (see on_demand_with_residency).
            let stale_path = on_path && !fully_cached;
            if !on_path || stale_path {
                self.walk_gen += 1;
                let gen = self.walk_gen;
                if had_prediction {
                    self.stats.restarts += 1;
                    obs.emit(|file| Event::WalkRestart {
                        file,
                        block: req.offset,
                        rid,
                        gen,
                    });
                } else {
                    obs.emit(|file| Event::WalkStart {
                        file,
                        block: req.offset,
                        rid,
                        gen,
                    });
                }
                self.restart_walk();
            }
        } else {
            // Simple mode: one fresh prediction per demand request.
            self.queue.clear();
            self.path.clear();
            if let Some((pred, source)) = self.predictor.predict(self.file_blocks) {
                let queue = &mut self.queue;
                self.path.insert(pred.offset, pred.end(), |a, b| {
                    queue.push_back((a, b, source))
                });
            }
        }
    }

    fn restart_walk(&mut self) {
        self.queue.clear();
        self.path.clear();
        self.walk = self.predictor.start_walk();
        // A cyclic graph can predict forever inside the file; allow at
        // most two passes over the file per walk.
        self.walk_budget = self.file_blocks.saturating_mul(2).max(64);
        self.cached_run = 0;
    }

    /// Hand out the next block to prefetch, or `None` if the engine has
    /// nothing (more) to do right now. `is_cached` lets the engine skip
    /// blocks that are already resident.
    ///
    /// Call in a loop after [`on_demand`](Self::on_demand) and after
    /// every [`on_prefetch_complete`](Self::on_prefetch_complete) until
    /// it returns `None`.
    pub fn next_block(&mut self, is_cached: impl FnMut(u64) -> bool) -> Option<u64> {
        let mut noop = NoopRecorder;
        self.next_block_obs(is_cached, &mut Obs::new(0, 0, &mut noop))
    }

    /// [`next_block`](Self::next_block), emitting issue and walk-stop
    /// events into `obs`.
    pub fn next_block_obs<R: Recorder>(
        &mut self,
        mut is_cached: impl FnMut(u64) -> bool,
        obs: &mut Obs<'_, R>,
    ) -> Option<u64> {
        let cap = match self.config.aggressive {
            Some(limit) => limit.cap(),
            None => usize::MAX,
        };
        loop {
            if self.in_flight >= cap {
                return None;
            }
            let Some((block, source)) = self.pop_block() else {
                if !self.refill_from_walk(obs) {
                    return None;
                }
                continue;
            };
            if is_cached(block) {
                self.stats.already_cached += 1;
                if self.walk.is_some() {
                    self.cached_run += 1;
                    if self.cached_run >= CACHED_RUN_STOP {
                        self.stats.cached_stops += 1;
                        self.walk = None;
                        self.queue.clear();
                        obs.emit(|file| Event::WalkStop {
                            file,
                            reason: WalkStopReason::CachedRun,
                        });
                        return None;
                    }
                }
                continue;
            }
            self.cached_run = 0;
            self.in_flight += 1;
            self.issue(block, source, obs);
            return Some(block);
        }
    }

    /// Take the next queued block off the front run.
    fn pop_block(&mut self) -> Option<(u64, PredictionSource)> {
        let front = self.queue.front_mut()?;
        let (block, source) = (front.0, front.2);
        front.0 += 1;
        if front.0 == front.1 {
            self.queue.pop_front();
        }
        Some((block, source))
    }

    /// Account for one handed-out block.
    fn issue<R: Recorder>(&mut self, block: u64, source: PredictionSource, obs: &mut Obs<'_, R>) {
        if self.config.is_aggressive() {
            self.lead += 1;
        }
        self.stats.issued += 1;
        if source == PredictionSource::ObaFallback {
            self.stats.issued_by_fallback += 1;
        }
        let (rid, gen) = (self.parent_rid, self.walk_gen);
        obs.emit(|file| Event::PrefetchIssue {
            file,
            block,
            rid,
            gen,
        });
    }

    /// Pull the next predicted request from the aggressive walk into
    /// the path, queueing the sub-ranges it adds. Returns false when the walk is over (or absent), or
    /// when the walk has reached its lead cap and must wait for the
    /// consumer to catch up (the walk itself stays alive).
    fn refill_from_walk<R: Recorder>(&mut self, obs: &mut Obs<'_, R>) -> bool {
        if let Some(cap) = self.config.lead_cap {
            if self.lead >= cap {
                return false;
            }
        }
        let Some(walk) = self.walk.as_mut() else {
            return false;
        };
        if self.walk_budget == 0 {
            self.stats.budget_stops += 1;
            self.walk = None;
            obs.emit(|file| Event::WalkStop {
                file,
                reason: WalkStopReason::Budget,
            });
            return false;
        }
        match self.predictor.walk_next(walk, self.file_blocks) {
            Some((req, source)) => {
                let take = req.size.min(self.walk_budget);
                self.walk_budget -= take;
                // Blocks already on the path would re-enter the queue
                // forever on cyclic patterns; only the new sub-ranges
                // are queued.
                let queue = &mut self.queue;
                self.path.insert(req.offset, req.offset + take, |a, b| {
                    queue.push_back((a, b, source))
                });
                true
            }
            None => {
                self.stats.walk_stops += 1;
                self.walk = None;
                obs.emit(|file| Event::WalkStop {
                    file,
                    reason: WalkStopReason::Exhausted,
                });
                false
            }
        }
    }

    /// Hand out the next *extent batch* to prefetch: the first block
    /// plus how many contiguous same-extent blocks ride along in a
    /// single multi-block disk job (`(first, count)`; the members are
    /// `first..first + count`). Extents are `extent_blocks` long and
    /// aligned (block `b` belongs to extent `b / extent_blocks`).
    ///
    /// The whole batch counts as **one** in-flight unit: under the
    /// linear limit, at most one *extent* of the file is being
    /// prefetched at any time, and one [`on_prefetch_complete`]
    /// (Self::on_prefetch_complete) frees the unit when the batch's
    /// job completes. The batch never crosses an extent boundary, and
    /// stops early at a cached block, a non-contiguous prediction, the
    /// lead cap, or the end of the walk — whatever comes first (the
    /// per-block machinery picks up from there on the next call).
    ///
    /// With `extent_blocks == 1` every batch has length 1 and this is
    /// exactly [`next_block_obs`](Self::next_block_obs) plus batch
    /// accounting.
    pub fn next_extent_obs<R: Recorder>(
        &mut self,
        extent_blocks: u64,
        mut is_cached: impl FnMut(u64) -> bool,
        obs: &mut Obs<'_, R>,
    ) -> Option<(u64, u32)> {
        let extent_blocks = extent_blocks.max(1);
        // The first block goes through the full per-block issue logic
        // (cap check, cached skips, walk refills, issue accounting);
        // the one unit of in-flight it charges covers the whole batch.
        let first = self.next_block_obs(&mut is_cached, obs)?;
        let extent = first / extent_blocks;
        let mut count = 1u32;
        loop {
            let next = first + count as u64;
            if next / extent_blocks != extent {
                break; // never cross the extent boundary
            }
            if let Some(cap) = self.config.lead_cap {
                if self.lead >= cap {
                    break;
                }
            }
            if self.queue.is_empty() && !self.refill_from_walk(obs) {
                break;
            }
            match self.queue.front() {
                Some(&(b, _, _)) if b == next => {}
                _ => break, // prediction is not the contiguous next block
            }
            if is_cached(next) {
                // Leave it queued: the per-block logic skips it (with
                // cached-run accounting) on the next pull.
                break;
            }
            let (block, source) = self.pop_block().expect("peeked above");
            self.cached_run = 0;
            self.issue(block, source, obs);
            count += 1;
        }
        self.stats.extent_batches += 1;
        self.stats.extent_batched_blocks += count as u64;
        let rid = self.parent_rid;
        obs.emit(|file| Event::ExtentIssue {
            file,
            first_block: first,
            blocks: count,
            rid,
        });
        Some((first, count))
    }

    /// [`next_extent_obs`](Self::next_extent_obs) without tracing.
    pub fn next_extent(
        &mut self,
        extent_blocks: u64,
        is_cached: impl FnMut(u64) -> bool,
    ) -> Option<(u64, u32)> {
        let mut noop = NoopRecorder;
        self.next_extent_obs(extent_blocks, is_cached, &mut Obs::new(0, 0, &mut noop))
    }

    /// Report that one prefetched block finished fetching (or that its
    /// fetch was absorbed by a demand miss). Frees an in-flight slot;
    /// follow up with [`next_block`](Self::next_block).
    ///
    /// In extent-granular mode, call this **once per batch** when the
    /// multi-block job completes — the batch charged a single unit.
    pub fn on_prefetch_complete(&mut self) {
        assert!(self.in_flight > 0, "completion without in-flight prefetch");
        self.in_flight -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AggressiveLimit;
    use crate::reference::BlockPrefetcher;

    /// Drain every block the engine wants right now, acknowledging
    /// completions immediately (an infinitely fast disk).
    fn drain(pf: &mut FilePrefetcher, cached: impl Fn(u64) -> bool + Copy) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(b) = pf.next_block(cached) {
            out.push(b);
            pf.on_prefetch_complete();
        }
        out
    }

    #[test]
    fn np_never_prefetches() {
        let mut pf = FilePrefetcher::new(PrefetchConfig::np(), 100);
        pf.on_demand(Request::new(0, 4));
        assert_eq!(pf.next_block(|_| false), None);
    }

    #[test]
    fn plain_oba_prefetches_exactly_one_block_per_request() {
        let mut pf = FilePrefetcher::new(PrefetchConfig::oba(), 100);
        pf.on_demand(Request::new(0, 4));
        assert_eq!(drain(&mut pf, |_| false), vec![4]);
        pf.on_demand(Request::new(10, 2));
        assert_eq!(drain(&mut pf, |_| false), vec![12]);
    }

    #[test]
    fn ln_agr_oba_scans_to_eof_one_at_a_time() {
        let mut pf = FilePrefetcher::new(PrefetchConfig::ln_agr_oba(), 8);
        pf.on_demand(Request::new(0, 2));
        // Linear limit: only one block until completion is reported.
        assert_eq!(pf.next_block(|_| false), Some(2));
        assert_eq!(pf.next_block(|_| false), None);
        pf.on_prefetch_complete();
        assert_eq!(pf.next_block(|_| false), Some(3));
        pf.on_prefetch_complete();
        assert_eq!(drain(&mut pf, |_| false), vec![4, 5, 6, 7]);
        // Walk is over at EOF.
        assert_eq!(pf.next_block(|_| false), None);
    }

    #[test]
    fn correct_prediction_does_not_restart_walk() {
        let mut pf = FilePrefetcher::new(PrefetchConfig::ln_agr_oba(), 100);
        pf.on_demand(Request::new(0, 1));
        // Prefetch blocks 1, 2, 3.
        for expect in [1, 2, 3] {
            assert_eq!(pf.next_block(|_| false), Some(expect));
            pf.on_prefetch_complete();
        }
        // Demand arrives for block 1 — already prefetched: continue.
        pf.on_demand(Request::new(1, 1));
        assert_eq!(pf.next_block(|_| false), Some(4));
        pf.on_prefetch_complete();
        assert_eq!(pf.stats().requests_on_path, 1);
        assert_eq!(pf.stats().restarts, 0);
    }

    #[test]
    fn mispredicted_demand_restarts_from_new_position() {
        let mut pf = FilePrefetcher::new(PrefetchConfig::ln_agr_oba(), 100);
        pf.on_demand(Request::new(0, 1));
        assert_eq!(pf.next_block(|_| false), Some(1));
        pf.on_prefetch_complete();
        // Application jumps to block 50 — not prefetched: restart there.
        pf.on_demand(Request::new(50, 1));
        assert_eq!(pf.next_block(|_| false), Some(51));
        assert_eq!(pf.stats().restarts, 1);
        assert_eq!(pf.stats().requests_off_path, 1);
    }

    #[test]
    fn overtaking_consumer_restarts_ahead() {
        // If the application reads *past* the prefetcher, the requested
        // block "has not already been prefetched" and the scan restarts
        // from the new file-pointer position (§3.1).
        let mut pf = FilePrefetcher::new(PrefetchConfig::ln_agr_oba(), 100);
        pf.on_demand(Request::new(0, 1));
        assert_eq!(pf.next_block(|_| false), Some(1));
        pf.on_prefetch_complete();
        pf.on_demand(Request::new(5, 1)); // ahead of the walk
        assert_eq!(pf.next_block(|_| false), Some(6));
    }

    #[test]
    fn simple_isppm_prefetches_whole_predicted_request() {
        let mut pf = FilePrefetcher::new(PrefetchConfig::is_ppm(1), 1000);
        for (o, s) in [(0, 2), (3, 3), (8, 2), (11, 3)] {
            pf.on_demand(Request::new(o, s));
        }
        // Prediction after (11,3): (16,2) — both blocks at once (no
        // linear limit in non-aggressive mode).
        assert_eq!(pf.next_block(|_| false), Some(16));
        assert_eq!(pf.next_block(|_| false), Some(17));
        assert_eq!(pf.next_block(|_| false), None);
        assert_eq!(pf.in_flight(), 2);
    }

    #[test]
    fn ln_agr_isppm_walks_pattern_linearly() {
        let mut pf = FilePrefetcher::new(PrefetchConfig::ln_agr_is_ppm(1), 40);
        for (o, s) in [(0, 2), (3, 3), (8, 2), (11, 3), (16, 2)] {
            pf.on_demand(Request::new(o, s));
        }
        // Predicted path: (19,3),(24,2),(27,3),(32,2),(35,3) — 35+3=38<=40 ok,
        // then (40,2) out of file.
        let got = drain(&mut pf, |_| false);
        assert_eq!(
            got,
            vec![19, 20, 21, 24, 25, 27, 28, 29, 32, 33, 35, 36, 37]
        );
        assert_eq!(pf.stats().walk_stops, 1);
    }

    /// Train a MITHRIL predictor on three blocks recurring together:
    /// the candidate set of block 10 becomes {90, 40} (equal support,
    /// 90 reinforced earlier — the nearer successor in the stream).
    fn trained_mithril(aggressive: Option<AggressiveLimit>) -> FilePrefetcher {
        let cfg = PrefetchConfig::with_predictor(
            AlgorithmKind::Mithril {
                lookahead: 3,
                min_support: 2,
                fallback: false,
            },
            aggressive,
        );
        let mut pf = FilePrefetcher::new(cfg, 1000);
        for b in [10, 90, 40, 10, 90, 40, 10] {
            pf.on_demand(Request::new(b, 1));
        }
        pf
    }

    #[test]
    fn mithril_candidates_burn_one_linear_unit_each() {
        let mut pf = trained_mithril(Some(AggressiveLimit::One));
        // The ranked set {90, 40} is unordered prediction, not a chain:
        // the linear limit still admits exactly one candidate at a time.
        assert_eq!(pf.next_block(|_| false), Some(90));
        assert_eq!(pf.next_block(|_| false), None, "one unit per candidate");
        pf.on_prefetch_complete();
        assert_eq!(pf.next_block(|_| false), Some(40));
        pf.on_prefetch_complete();
        assert_eq!(pf.next_block(|_| false), None, "candidate set exhausted");
        assert_eq!(pf.predictor().emits(), pf.predictor().hits());
        assert!(pf.predictor().mined() > 0);
    }

    #[test]
    fn extent_mode_does_not_batch_scattered_candidates() {
        let mut pf = trained_mithril(Some(AggressiveLimit::One));
        // Candidates 90 and 40 are not contiguous: even with 8-block
        // extents every batch degenerates to a single block.
        assert_eq!(pf.next_extent(8, |_| false), Some((90, 1)));
        pf.on_prefetch_complete();
        assert_eq!(pf.next_extent(8, |_| false), Some((40, 1)));
        pf.on_prefetch_complete();
        assert_eq!(pf.next_extent(8, |_| false), None);
        assert_eq!(pf.stats().extent_batches, 2);
        assert_eq!(pf.stats().extent_batched_blocks, 2);
    }

    #[test]
    fn extent_mode_batches_contiguous_candidates() {
        // Block 10 associates with the contiguous pair {16, 17}, with
        // 16 outranking 17 (higher support): the walk emits 16 then 17
        // and extent mode folds them into one two-block batch.
        let cfg = PrefetchConfig::with_predictor(
            AlgorithmKind::Mithril {
                lookahead: 3,
                min_support: 2,
                fallback: false,
            },
            Some(AggressiveLimit::One),
        );
        let mut pf = FilePrefetcher::new(cfg, 1000);
        for b in [10, 16, 17, 10, 16, 17, 10, 16, 10] {
            pf.on_demand(Request::new(b, 1));
        }
        assert_eq!(pf.next_extent(8, |_| false), Some((16, 2)));
        pf.on_prefetch_complete();
        assert_eq!(pf.next_extent(8, |_| false), None);
        assert_eq!(pf.stats().extent_batched_blocks, 2);
    }

    #[test]
    fn markov_engine_prefetches_learned_cycle() {
        let cfg = PrefetchConfig::with_predictor(
            AlgorithmKind::Markov {
                order: 1,
                fallback: false,
            },
            Some(AggressiveLimit::One),
        );
        let mut pf = FilePrefetcher::new(cfg, 100);
        for b in [0, 2, 4, 6, 0, 2, 4, 6, 0] {
            pf.on_demand(Request::new(b, 1));
        }
        // The chain learned 0→2→4→6; OBA would have fetched block 1.
        assert_eq!(pf.next_block(|_| false), Some(2));
        pf.on_prefetch_complete();
        assert_eq!(pf.next_block(|_| false), Some(4));
        pf.on_prefetch_complete();
        assert_eq!(pf.next_block(|_| false), Some(6));
        assert!(pf.predictor().hits() >= 3);
        assert!(pf.predictor().table_size() >= 4, "four learned transitions");
    }

    #[test]
    fn cached_blocks_are_skipped_not_issued() {
        let mut pf = FilePrefetcher::new(PrefetchConfig::ln_agr_oba(), 10);
        pf.on_demand(Request::new(0, 1));
        // Blocks 1..5 cached; first issued block is 5.
        assert_eq!(pf.next_block(|b| b < 5), Some(5));
        assert_eq!(pf.stats().already_cached, 4);
    }

    #[test]
    fn cyclic_pattern_is_stopped_by_budget() {
        // A strided pattern that wraps around inside a file would walk
        // forever; the budget must stop it.
        let mut pf = FilePrefetcher::new(PrefetchConfig::ln_agr_is_ppm(1), 16);
        // Teach a cycle: 0 -> 8 -> 0 -> 8 ...
        for &o in &[0u64, 8, 0, 8, 0] {
            pf.on_demand(Request::new(o, 1));
        }
        let got = drain(&mut pf, |_| false);
        // The path dedups blocks, so at most the two cycle blocks are
        // issued, and the walk ends by budget (not by EOF).
        assert!(got.len() <= 2, "issued {got:?}");
        assert_eq!(pf.stats().budget_stops, 1);
    }

    #[test]
    fn window_limit_allows_k_in_flight() {
        let cfg = PrefetchConfig {
            aggressive: Some(AggressiveLimit::Window(3)),
            ..PrefetchConfig::ln_agr_oba()
        };
        let mut pf = FilePrefetcher::new(cfg, 100);
        pf.on_demand(Request::new(0, 1));
        assert_eq!(pf.next_block(|_| false), Some(1));
        assert_eq!(pf.next_block(|_| false), Some(2));
        assert_eq!(pf.next_block(|_| false), Some(3));
        assert_eq!(pf.next_block(|_| false), None);
        pf.on_prefetch_complete();
        assert_eq!(pf.next_block(|_| false), Some(4));
    }

    #[test]
    fn unlimited_issues_everything_at_once() {
        let cfg = PrefetchConfig {
            aggressive: Some(AggressiveLimit::Unlimited),
            ..PrefetchConfig::ln_agr_oba()
        };
        let mut pf = FilePrefetcher::new(cfg, 10);
        pf.on_demand(Request::new(0, 1));
        let mut got = Vec::new();
        while let Some(b) = pf.next_block(|_| false) {
            got.push(b); // no completions acknowledged!
        }
        assert_eq!(got, vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(pf.in_flight(), 9);
    }

    #[test]
    fn file_growth_extends_oba_walk() {
        let mut pf = FilePrefetcher::new(PrefetchConfig::ln_agr_oba(), 4);
        pf.on_demand(Request::new(0, 1));
        assert_eq!(drain(&mut pf, |_| false), vec![1, 2, 3]);
        pf.set_file_blocks(6);
        // The old walk already stopped; a new demand restarts it only on
        // a mispredict. Block 4 was never prefetched, so demanding it
        // restarts and reaches the new EOF.
        pf.on_demand(Request::new(4, 1));
        assert_eq!(drain(&mut pf, |_| false), vec![5]);
    }

    #[test]
    fn fallback_blocks_are_counted() {
        let mut pf = FilePrefetcher::new(PrefetchConfig::is_ppm(3), 100);
        pf.on_demand(Request::new(0, 1)); // graph empty: OBA fallback
        assert_eq!(pf.next_block(|_| false), Some(1));
        assert_eq!(pf.stats().issued_by_fallback, 1);
        assert!(pf.stats().fallback_share() > 0.99);
    }

    #[test]
    fn backoff_engine_predicts_before_full_order_context() {
        // An order-3 back-off engine predicts a plain stride after just
        // two requests (order-1 escape); the plain order-3 engine can
        // only fall back to OBA, which guesses the wrong block.
        let mut strict = FilePrefetcher::new(PrefetchConfig::ln_agr_is_ppm(3), 1000);
        let mut backoff = FilePrefetcher::new(PrefetchConfig::ln_agr_is_ppm_backoff(3), 1000);
        for pf in [&mut strict, &mut backoff] {
            pf.on_demand(Request::new(0, 1));
            pf.on_demand(Request::new(8, 1));
            pf.on_demand(Request::new(16, 1));
        }
        // Stride 8: the true next block is 24.
        assert_eq!(backoff.next_block(|_| false), Some(24));
        assert_eq!(
            strict.next_block(|_| false),
            Some(17),
            "plain falls back to OBA"
        );
    }

    #[test]
    fn lead_cap_pauses_and_resumes_the_walk() {
        let cfg = PrefetchConfig {
            lead_cap: Some(3),
            ..PrefetchConfig::ln_agr_oba()
        };
        let mut pf = FilePrefetcher::new(cfg, 100);
        pf.on_demand(Request::new(0, 1));
        // Lead cap 3: only blocks 1..=3 come out even with completions
        // acknowledged (nothing consumes the lead).
        let mut got = Vec::new();
        while let Some(b) = pf.next_block(|_| false) {
            got.push(b);
            pf.on_prefetch_complete();
        }
        assert_eq!(got, vec![1, 2, 3]);
        // An on-path demand consumes lead; the walk resumes.
        pf.on_demand(Request::new(1, 1));
        assert_eq!(pf.next_block(|_| false), Some(4));
        pf.on_prefetch_complete();
        assert_eq!(pf.next_block(|_| false), None, "cap reached again");
    }

    #[test]
    fn cached_run_stop_ends_walks_over_resident_data() {
        let mut pf = FilePrefetcher::new(PrefetchConfig::ln_agr_oba(), 1000);
        pf.on_demand(Request::new(0, 1));
        // Everything ahead is cached: the walk must give up quickly
        // instead of scanning all 999 remaining blocks.
        assert_eq!(pf.next_block(|_| true), None);
        assert_eq!(pf.stats().cached_stops, 1);
        assert!(pf.stats().already_cached <= 80);
    }

    #[test]
    fn evicted_on_path_blocks_resume_a_dead_walk() {
        let mut pf = FilePrefetcher::new(PrefetchConfig::ln_agr_oba(), 6);
        pf.on_demand(Request::new(0, 1));
        // Walk runs to EOF: blocks 1..=5 prefetched, walk dead.
        assert_eq!(drain(&mut pf, |_| false), vec![1, 2, 3, 4, 5]);
        // A demand for block 3 arrives after the cache evicted it: the
        // request is on-path, but the data is gone — the walk must
        // restart from there instead of staying dormant.
        pf.on_demand_with_residency(Request::new(3, 1), false);
        assert_eq!(drain(&mut pf, |_| false), vec![4, 5]);
        // Covered on-path demands (resident or in flight) never restart.
        let mut pf = FilePrefetcher::new(PrefetchConfig::ln_agr_oba(), 100);
        pf.on_demand(Request::new(0, 1));
        assert_eq!(pf.next_block(|_| false), Some(1));
        pf.on_prefetch_complete();
        pf.on_demand_with_residency(Request::new(1, 1), true);
        assert_eq!(
            pf.next_block(|_| false),
            Some(2),
            "walk continues, no restart"
        );
        assert_eq!(pf.stats().restarts, 0);
    }

    #[test]
    fn evicted_on_path_blocks_rewind_a_live_walk() {
        // Lead cap 4, cache so small that prefetched blocks are gone by
        // the time they are demanded: without the residency rule the
        // walk would stream uselessly ~4 blocks ahead forever. With it,
        // each uncovered on-path demand rewinds the walk to just ahead
        // of the consumer.
        let cfg = PrefetchConfig {
            lead_cap: Some(4),
            ..PrefetchConfig::ln_agr_oba()
        };
        let mut pf = FilePrefetcher::new(cfg, 100);
        pf.on_demand(Request::new(0, 1));
        assert_eq!(drain(&mut pf, |_| false), vec![1, 2, 3, 4]); // lead cap
                                                                 // Demand for block 1: prefetched but evicted -> uncovered.
        pf.on_demand_with_residency(Request::new(1, 1), false);
        assert_eq!(pf.stats().restarts, 1);
        // The walk restarted at the consumer: next issue is block 2.
        assert_eq!(pf.next_block(|_| false), Some(2));
    }

    #[test]
    #[should_panic(expected = "completion without in-flight prefetch")]
    fn spurious_completion_panics() {
        let mut pf = FilePrefetcher::new(PrefetchConfig::oba(), 10);
        pf.on_prefetch_complete();
    }

    #[test]
    fn extent_batches_never_cross_the_boundary_and_respect_the_limit() {
        let mut pf = FilePrefetcher::new(PrefetchConfig::ln_agr_oba(), 64);
        pf.on_demand(Request::new(0, 1));
        // Walk predicts 1, 2, 3, ...; extents are aligned [0,4), [4,8)...
        // The first batch starts at 1 and may only cover 1..4.
        assert_eq!(pf.next_extent(4, |_| false), Some((1, 3)));
        // Linear limit on extents: one batch in flight, one unit.
        assert_eq!(pf.in_flight(), 1);
        assert_eq!(pf.next_extent(4, |_| false), None);
        pf.on_prefetch_complete();
        assert_eq!(pf.next_extent(4, |_| false), Some((4, 4)));
        assert_eq!(pf.stats().extent_batches, 2);
        assert_eq!(pf.stats().extent_batched_blocks, 7);
        assert_eq!(pf.stats().issued, 7);
    }

    #[test]
    fn extent_batch_stops_early_at_a_cached_block() {
        let mut pf = FilePrefetcher::new(PrefetchConfig::ln_agr_oba(), 64);
        pf.on_demand(Request::new(0, 1));
        // Block 3 is resident: the batch must not include it.
        assert_eq!(pf.next_extent(4, |b| b == 3,), Some((1, 2)));
        pf.on_prefetch_complete();
        // Next pull skips the cached block and moves to the next extent.
        assert_eq!(pf.next_extent(4, |b| b == 3), Some((4, 4)));
        assert_eq!(pf.stats().already_cached, 1);
    }

    #[test]
    fn extent_batch_stops_at_non_contiguous_predictions() {
        // A strided IS_PPM walk predicts (19,3),(24,2),...: the batch
        // from 19 covers 19..22 and stops at the gap even though the
        // extent [16,24) has room.
        let mut pf = FilePrefetcher::new(PrefetchConfig::ln_agr_is_ppm(1), 40);
        for (o, s) in [(0, 2), (3, 3), (8, 2), (11, 3), (16, 2)] {
            pf.on_demand(Request::new(o, s));
        }
        assert_eq!(pf.next_extent(8, |_| false), Some((19, 3)));
        pf.on_prefetch_complete();
        assert_eq!(pf.next_extent(8, |_| false), Some((24, 2)));
    }

    #[test]
    fn extent_size_one_degenerates_to_per_block_issue() {
        let mut a = FilePrefetcher::new(PrefetchConfig::ln_agr_oba(), 16);
        let mut b = FilePrefetcher::new(PrefetchConfig::ln_agr_oba(), 16);
        a.on_demand(Request::new(0, 1));
        b.on_demand(Request::new(0, 1));
        loop {
            let x = a.next_extent(1, |_| false);
            let y = b.next_block(|_| false);
            assert_eq!(
                x.map(|(f, c)| {
                    assert_eq!(c, 1, "extent size 1 must issue single blocks");
                    f
                }),
                y
            );
            if x.is_none() {
                break;
            }
            a.on_prefetch_complete();
            b.on_prefetch_complete();
        }
        assert_eq!(a.stats().issued, b.stats().issued);
    }

    #[test]
    fn extent_batches_respect_the_lead_cap() {
        let cfg = PrefetchConfig {
            lead_cap: Some(3),
            ..PrefetchConfig::ln_agr_oba()
        };
        let mut pf = FilePrefetcher::new(cfg, 100);
        pf.on_demand(Request::new(0, 1));
        // Lead cap 3 binds mid-batch: only blocks 1..4 come out even
        // though the extent [0,8) has room for more.
        assert_eq!(pf.next_extent(8, |_| false), Some((1, 3)));
        pf.on_prefetch_complete();
        assert_eq!(pf.next_extent(8, |_| false), None, "lead cap reached");
    }

    /// Keeps every event, in order.
    #[derive(Default)]
    struct Log(Vec<Event>);

    impl Recorder for Log {
        fn enabled(&self) -> bool {
            true
        }
        fn record(&mut self, _t: u64, ev: Event) {
            self.0.push(ev);
        }
    }

    /// xorshift64: a tiny seeded stream for the equivalence drive.
    struct TestRng(u64);

    impl TestRng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// The configurations the equivalence drive covers: every paper
    /// algorithm, the other limits, a lead cap, and the predictors
    /// whose walks jump around the file.
    fn equivalence_configs() -> Vec<PrefetchConfig> {
        let mut v = PrefetchConfig::paper_suite().to_vec();
        v.push(PrefetchConfig::ln_agr_is_ppm(2));
        v.push(PrefetchConfig::ln_agr_is_ppm_backoff(3));
        v.push(PrefetchConfig {
            lead_cap: Some(5),
            ..PrefetchConfig::ln_agr_is_ppm(1)
        });
        v.push(PrefetchConfig {
            aggressive: Some(AggressiveLimit::Window(3)),
            ..PrefetchConfig::ln_agr_oba()
        });
        v.push(PrefetchConfig {
            aggressive: Some(AggressiveLimit::Unlimited),
            ..PrefetchConfig::ln_agr_is_ppm(1)
        });
        for fallback in [false, true] {
            v.push(PrefetchConfig::with_predictor(
                AlgorithmKind::Markov { order: 1, fallback },
                Some(AggressiveLimit::One),
            ));
            v.push(PrefetchConfig::with_predictor(
                AlgorithmKind::Mithril {
                    lookahead: 3,
                    min_support: 2,
                    fallback,
                },
                Some(AggressiveLimit::One),
            ));
        }
        v
    }

    /// The run-granular engine against the block-granular reference:
    /// the same seeded demands (sequential, strided and random, covered
    /// or not), completions, truncations and growths, block and extent
    /// pulls with the same random residency answers. Every pull must
    /// return the same unit after the same residency queries, and the
    /// stats, walk generations, in-flight counts, predictor work and
    /// recorded events must be identical.
    #[test]
    fn run_granular_engine_matches_block_reference() {
        for (ci, cfg) in equivalence_configs().into_iter().enumerate() {
            for seed in 0..24u64 {
                let mut rng = TestRng(0x9E37_79B9_7F4A_7C15 ^ (seed << 8) ^ ci as u64);
                let mut file_blocks = 8 + rng.below(400);
                let mut a = FilePrefetcher::new(cfg, file_blocks);
                let mut b = BlockPrefetcher::new(cfg, file_blocks);
                let (mut la, mut lb) = (Log::default(), Log::default());
                let (mut cursor, mut stride, mut size) = (0u64, 1u64, 1u64);
                for step in 0..600u64 {
                    let t = step * 10;
                    match rng.below(12) {
                        0..=3 => {
                            match rng.below(6) {
                                0 => cursor = rng.below(file_blocks),
                                1 => {
                                    stride = 1 + rng.below(9);
                                    size = 1 + rng.below(4);
                                }
                                _ => cursor += stride.max(size),
                            }
                            if cursor >= file_blocks {
                                cursor = 0;
                            }
                            let req = Request::new(cursor, size.min(file_blocks - cursor));
                            let covered = rng.below(4) != 0;
                            a.on_demand_with_residency_obs(
                                req,
                                covered,
                                step as u32,
                                &mut Obs::new(t, 3, &mut la),
                            );
                            b.on_demand_with_residency_obs(
                                req,
                                covered,
                                step as u32,
                                &mut Obs::new(t, 3, &mut lb),
                            );
                        }
                        4..=8 => {
                            // Residency: none, a random third, or all
                            // cached (which drives cached-run stops).
                            let salt = rng.next();
                            let density = rng.below(3);
                            let answer = move |blk: u64| match density {
                                0 => false,
                                1 => (blk ^ salt).wrapping_mul(0x2545_F491_4F6C_DD1D) >> 62 == 0,
                                _ => true,
                            };
                            let extent = (rng.below(3) == 0).then(|| 1 + rng.below(8));
                            for _ in 0..1 + rng.below(6) {
                                let (mut qa, mut qb) = (Vec::new(), Vec::new());
                                let (ua, ub) = match extent {
                                    Some(e) => (
                                        a.next_extent_obs(
                                            e,
                                            |k| {
                                                qa.push(k);
                                                answer(k)
                                            },
                                            &mut Obs::new(t, 3, &mut la),
                                        ),
                                        b.next_extent_obs(
                                            e,
                                            |k| {
                                                qb.push(k);
                                                answer(k)
                                            },
                                            &mut Obs::new(t, 3, &mut lb),
                                        ),
                                    ),
                                    None => (
                                        a.next_block_obs(
                                            |k| {
                                                qa.push(k);
                                                answer(k)
                                            },
                                            &mut Obs::new(t, 3, &mut la),
                                        )
                                        .map(|k| (k, 1)),
                                        b.next_block_obs(
                                            |k| {
                                                qb.push(k);
                                                answer(k)
                                            },
                                            &mut Obs::new(t, 3, &mut lb),
                                        )
                                        .map(|k| (k, 1)),
                                    ),
                                };
                                assert_eq!(ua, ub, "cfg {ci} seed {seed} step {step}");
                                assert_eq!(qa, qb, "residency queries, cfg {ci} step {step}");
                                if ua.is_none() {
                                    break;
                                }
                            }
                        }
                        9 | 10 => {
                            for _ in 0..rng.below(3) {
                                if a.in_flight() > 0 {
                                    a.on_prefetch_complete();
                                    b.on_prefetch_complete();
                                }
                            }
                        }
                        _ => {
                            file_blocks = if rng.below(2) == 0 {
                                1 + rng.below(file_blocks)
                            } else {
                                file_blocks + rng.below(64)
                            };
                            a.set_file_blocks(file_blocks);
                            b.set_file_blocks(file_blocks);
                        }
                    }
                    assert_eq!(a.stats(), b.stats(), "cfg {ci} seed {seed} step {step}");
                    assert_eq!(a.walk_gen(), b.walk_gen());
                    assert_eq!(a.in_flight(), b.in_flight());
                }
                assert_eq!(la.0, lb.0, "events, cfg {ci} seed {seed}");
                let (pa, pb) = (a.predictor(), b.predictor());
                assert_eq!(pa.table_lookups(), pb.table_lookups());
                assert_eq!(pa.table_updates(), pb.table_updates());
            }
        }
    }
}
