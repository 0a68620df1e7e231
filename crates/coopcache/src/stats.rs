//! Cache statistics.

use ioworkload::BlockId;
use lapobs::{Event, Nanos, Recorder};

use crate::dense::Meta;
use crate::Evicted;

/// Counters kept by both cooperative caches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses served from the requester's own buffers.
    pub local_hits: u64,
    /// Demand accesses served from another node's buffers.
    pub remote_hits: u64,
    /// Demand accesses that missed the whole cooperative cache.
    pub misses: u64,
    /// Blocks inserted on behalf of demand fetches / write-allocates.
    pub demand_inserts: u64,
    /// Blocks inserted by the prefetcher.
    pub prefetch_inserts: u64,
    /// Prefetched blocks that were later used by a demand access
    /// (each block counted once per prefetch insertion).
    pub prefetch_used: u64,
    /// Prefetched blocks evicted (or still resident at finalize)
    /// without ever being used — materialised miss-predictions.
    pub prefetch_wasted: u64,
    /// Total evictions.
    pub evictions: u64,
    /// Evictions of dirty blocks (each costs a disk write).
    pub dirty_evictions: u64,
    /// xFS only: singlet blocks forwarded to a peer (N-chance).
    pub forwards: u64,
    /// xFS only: singlet blocks dropped after exhausting recirculation.
    pub forward_drops: u64,
    /// xFS only: duplicate copies invalidated by writes.
    pub invalidations: u64,
}

impl CacheStats {
    /// Account one evicted (or dropped) copy and build its [`Evicted`]
    /// record — the single place the eviction bookkeeping lives.
    pub(crate) fn account_eviction(&mut self, block: BlockId, meta: &Meta) -> Evicted {
        self.evictions += 1;
        if meta.dirty {
            self.dirty_evictions += 1;
        }
        let wasted = meta.prefetched && !meta.used;
        if wasted {
            self.prefetch_wasted += 1;
        }
        Evicted {
            block,
            dirty: meta.dirty,
            wasted_prefetch: wasted,
        }
    }

    /// Demand accesses observed.
    pub fn accesses(&self) -> u64 {
        self.local_hits + self.remote_hits + self.misses
    }

    /// Overall hit ratio (local + remote).
    pub fn hit_ratio(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            (self.local_hits + self.remote_hits) as f64 / a as f64
        }
    }

    /// Register all counters (plus the derived ratios) under
    /// `prefix.` in a metrics registry.
    pub fn register_into(&self, reg: &mut lapobs::Registry, prefix: &str) {
        reg.counter(format!("{prefix}.local_hits"), self.local_hits);
        reg.counter(format!("{prefix}.remote_hits"), self.remote_hits);
        reg.counter(format!("{prefix}.misses"), self.misses);
        reg.counter(format!("{prefix}.demand_inserts"), self.demand_inserts);
        reg.counter(format!("{prefix}.prefetch_inserts"), self.prefetch_inserts);
        reg.counter(format!("{prefix}.prefetch_used"), self.prefetch_used);
        reg.counter(format!("{prefix}.prefetch_wasted"), self.prefetch_wasted);
        reg.counter(format!("{prefix}.evictions"), self.evictions);
        reg.counter(format!("{prefix}.dirty_evictions"), self.dirty_evictions);
        reg.counter(format!("{prefix}.forwards"), self.forwards);
        reg.counter(format!("{prefix}.forward_drops"), self.forward_drops);
        reg.counter(format!("{prefix}.invalidations"), self.invalidations);
        reg.gauge(format!("{prefix}.hit_ratio"), self.hit_ratio());
        reg.gauge(
            format!("{prefix}.mispredict_ratio"),
            self.mispredict_ratio(),
        );
    }

    /// Emit events for the coordination traffic (forwards, forward
    /// drops, invalidations) that happened between the `before`
    /// snapshot and this one. The block-level outcomes (hits, misses,
    /// inserts, evictions) are emitted directly by the caller, which
    /// sees them per access; the coordination counters are only
    /// observable through the stats, hence this delta hook.
    pub fn emit_delta<R: Recorder>(&self, before: &CacheStats, t: Nanos, rec: &mut R) {
        if !rec.enabled() {
            return;
        }
        let forwards = self.forwards - before.forwards;
        if forwards > 0 {
            rec.record(
                t,
                Event::CacheForward {
                    count: forwards as u32,
                },
            );
        }
        let drops = self.forward_drops - before.forward_drops;
        if drops > 0 {
            rec.record(
                t,
                Event::CacheForwardDrop {
                    count: drops as u32,
                },
            );
        }
        let invalidations = self.invalidations - before.invalidations;
        if invalidations > 0 {
            rec.record(
                t,
                Event::CacheInvalidate {
                    count: invalidations as u32,
                },
            );
        }
    }

    /// Fraction of prefetched blocks that were never used, judged over
    /// the blocks whose fate is decided (used or wasted). This is the
    /// paper's miss-prediction ratio (§5.2).
    pub fn mispredict_ratio(&self) -> f64 {
        let judged = self.prefetch_used + self.prefetch_wasted;
        if judged == 0 {
            0.0
        } else {
            self.prefetch_wasted as f64 / judged as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let s = CacheStats {
            local_hits: 6,
            remote_hits: 2,
            misses: 2,
            prefetch_used: 3,
            prefetch_wasted: 1,
            ..Default::default()
        };
        assert_eq!(s.accesses(), 10);
        assert!((s.hit_ratio() - 0.8).abs() < 1e-12);
        assert!((s.mispredict_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
        assert_eq!(CacheStats::default().mispredict_ratio(), 0.0);
    }
}
