//! Seek-aware request schedulers: SSTF and C-LOOK.
//!
//! Both implement [`simkit::Scheduler`], which only ever reorders jobs
//! *within* one priority class — the station picks the class first, so
//! the paper's demand-before-prefetch rule is structural and cannot be
//! violated by any scheduler. Jobs without a position (`None`) are
//! treated as being at the head (they cost nothing mechanical, so
//! serving them first is free). The scheduling ablation's control arm
//! is plain [`FifoSched`](simkit::FifoSched).

use simkit::Scheduler;

/// Shortest-seek-time-first: serve the waiting job whose position is
/// nearest the current head, breaking ties by arrival order.
#[derive(Clone, Copy, Debug)]
pub struct Sstf;

impl Scheduler for Sstf {
    fn pick(&mut self, head: u64, queue: &[Option<u64>]) -> usize {
        queue
            .iter()
            .enumerate()
            .min_by_key(|(i, p)| (p.map_or(0, |p| p.abs_diff(head)), *i))
            .map(|(i, _)| i)
            .expect("scheduler invoked on an empty queue")
    }
}

/// Circular LOOK: sweep upward from the head serving the lowest
/// position at or above it; when nothing lies ahead, jump back to the
/// lowest waiting position and sweep again. Unlike SSTF it cannot
/// starve an extreme position under sustained load.
#[derive(Clone, Copy, Debug)]
pub struct Clook;

impl Scheduler for Clook {
    fn pick(&mut self, head: u64, queue: &[Option<u64>]) -> usize {
        // Key: (0, distance-ahead) for jobs at/above the head,
        // (1, absolute position) for the wrapped ones; ties by index.
        queue
            .iter()
            .enumerate()
            .min_by_key(|(i, p)| {
                let pos = p.unwrap_or(head);
                if pos >= head {
                    (0u8, pos - head, *i)
                } else {
                    (1u8, pos, *i)
                }
            })
            .map(|(i, _)| i)
            .expect("scheduler invoked on an empty queue")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sstf_picks_nearest_with_fifo_ties() {
        let mut s = Sstf;
        assert_eq!(s.pick(100, &[Some(300), Some(90), Some(110)]), 1);
        // 90 and 110 are equidistant: the earlier arrival wins.
        assert_eq!(s.pick(100, &[Some(110), Some(90)]), 0);
        // Position-free jobs count as distance zero.
        assert_eq!(s.pick(100, &[Some(101), None]), 1);
    }

    #[test]
    fn clook_sweeps_up_then_wraps_to_lowest() {
        let mut c = Clook;
        // Ahead of head 100: 150 and 400 → 150 first.
        assert_eq!(c.pick(100, &[Some(400), Some(150), Some(50)]), 1);
        // Nothing ahead → wrap to the lowest position.
        assert_eq!(c.pick(500, &[Some(400), Some(150), Some(50)]), 2);
        // At the head counts as ahead.
        assert_eq!(c.pick(400, &[Some(400), Some(150), Some(50)]), 0);
    }
}
