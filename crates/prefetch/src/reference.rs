//! The block-granular prefetch engine — one hash-set entry and one
//! queue entry per predicted block — kept only as the reference model
//! the equivalence tests in `engine` drive the run-granular
//! [`FilePrefetcher`](crate::FilePrefetcher) against. It is the
//! engine as first written: every walk step expands its predicted
//! request into single blocks, so its behaviour is easy to check by
//! eye against §3 of the paper.

use std::collections::VecDeque;

use lapobs::{Event, Obs, Recorder, WalkStopReason, NO_RID};

use predict::{AlgorithmKind, FilePredictor, FxHashSet, PredictionSource, Request, Walk};

use crate::config::PrefetchConfig;
use crate::engine::CACHED_RUN_STOP;
use crate::stats::PrefetchStats;

/// Per-file prefetch driver with a per-block path and queue.
pub(crate) struct BlockPrefetcher {
    config: PrefetchConfig,
    file_blocks: u64,
    predictor: FilePredictor,
    walk: Option<Walk>,
    queue: VecDeque<(u64, PredictionSource)>,
    path: FxHashSet<u64>,
    in_flight: usize,
    walk_budget: u64,
    cached_run: u64,
    lead: u64,
    parent_rid: u32,
    walk_gen: u32,
    stats: PrefetchStats,
}

impl BlockPrefetcher {
    pub(crate) fn new(config: PrefetchConfig, file_blocks: u64) -> Self {
        BlockPrefetcher {
            predictor: FilePredictor::new(config.algorithm, config.edge_choice),
            config,
            file_blocks,
            walk: None,
            queue: VecDeque::new(),
            path: FxHashSet::default(),
            in_flight: 0,
            walk_budget: 0,
            cached_run: 0,
            lead: 0,
            parent_rid: NO_RID,
            walk_gen: 0,
            stats: PrefetchStats::default(),
        }
    }

    pub(crate) fn set_file_blocks(&mut self, blocks: u64) {
        if blocks < self.file_blocks {
            self.queue.clear();
            self.path.retain(|&b| b < blocks);
            self.walk = None;
        }
        self.file_blocks = blocks;
    }

    pub(crate) fn stats(&self) -> PrefetchStats {
        self.stats
    }

    pub(crate) fn in_flight(&self) -> usize {
        self.in_flight
    }

    pub(crate) fn walk_gen(&self) -> u32 {
        self.walk_gen
    }

    pub(crate) fn predictor(&self) -> &FilePredictor {
        &self.predictor
    }

    pub(crate) fn on_demand_with_residency_obs<R: Recorder>(
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
        let on_path = had_prediction && req.blocks().all(|b| self.path.contains(&b));
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
            self.lead = self.lead.saturating_sub(req.size);
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
                self.queue.clear();
                self.path.clear();
                self.walk = self.predictor.start_walk();
                self.walk_budget = self.file_blocks.saturating_mul(2).max(64);
                self.cached_run = 0;
            }
        } else {
            self.queue.clear();
            self.path.clear();
            if let Some((pred, source)) = self.predictor.predict(self.file_blocks) {
                for b in pred.blocks() {
                    self.path.insert(b);
                    self.queue.push_back((b, source));
                }
            }
        }
    }

    pub(crate) fn next_block_obs<R: Recorder>(
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
            let (block, source) = match self.queue.pop_front() {
                Some(entry) => entry,
                None => {
                    if !self.refill_from_walk(obs) {
                        return None;
                    }
                    continue;
                }
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
                for b in req.blocks().take(take as usize) {
                    if self.path.insert(b) {
                        self.queue.push_back((b, source));
                    }
                }
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

    pub(crate) fn next_extent_obs<R: Recorder>(
        &mut self,
        extent_blocks: u64,
        mut is_cached: impl FnMut(u64) -> bool,
        obs: &mut Obs<'_, R>,
    ) -> Option<(u64, u32)> {
        let extent_blocks = extent_blocks.max(1);
        let first = self.next_block_obs(&mut is_cached, obs)?;
        let extent = first / extent_blocks;
        let mut count = 1u32;
        loop {
            let next = first + count as u64;
            if next / extent_blocks != extent {
                break;
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
                Some(&(b, _)) if b == next => {}
                _ => break,
            }
            if is_cached(next) {
                break;
            }
            let (block, source) = self.queue.pop_front().expect("peeked above");
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

    pub(crate) fn on_prefetch_complete(&mut self) {
        assert!(self.in_flight > 0, "completion without in-flight prefetch");
        self.in_flight -= 1;
    }
}
