//! A set of blocks held as sorted, disjoint block runs.

/// A set of block numbers stored as half-open runs `[start, end)`,
/// sorted by `start`, pairwise disjoint and never adjacent (touching
/// runs are merged). Memory grows with the number of runs, never with
/// the block numbers, and a contiguous request is one range query.
///
/// The aggressive walk inserts predicted requests mostly in ascending
/// order, so the common insert extends or appends at the tail.
#[derive(Clone, Debug, Default)]
pub(crate) struct RunSet {
    runs: Vec<(u64, u64)>,
}

impl RunSet {
    pub(crate) fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    pub(crate) fn clear(&mut self) {
        self.runs.clear();
    }

    /// Index of the first run that ends at or after `block` — the only
    /// run that can contain `block` or touch it from the left.
    fn first_reaching(&self, block: u64) -> usize {
        self.runs.partition_point(|&(_, end)| end < block)
    }

    /// Does the set hold every block of `[first, end)`? True for an
    /// empty range.
    pub(crate) fn covers(&self, first: u64, end: u64) -> bool {
        if first >= end {
            return true;
        }
        match self.runs.get(self.first_reaching(first + 1)) {
            Some(&(s, e)) => s <= first && end <= e,
            None => false,
        }
    }

    /// Add `[first, end)` and call `new` with each maximal sub-range
    /// that was not in the set before, in ascending order.
    pub(crate) fn insert(&mut self, first: u64, end: u64, mut new: impl FnMut(u64, u64)) {
        if first >= end {
            return;
        }
        // Fast path: strictly past the last run (the usual walk step).
        match self.runs.last_mut() {
            None => {
                self.runs.push((first, end));
                new(first, end);
                return;
            }
            Some(last) if last.1 < first => {
                self.runs.push((first, end));
                new(first, end);
                return;
            }
            Some(last) if last.0 <= first => {
                // Overlaps or touches the last run only.
                if end > last.1 {
                    new(first.max(last.1), end);
                    last.1 = end;
                }
                return;
            }
            Some(_) => {}
        }
        let i = self.first_reaching(first);
        let mut j = i;
        let mut cursor = first;
        while j < self.runs.len() && self.runs[j].0 <= end {
            let (s, e) = self.runs[j];
            if s > cursor {
                new(cursor, s);
            }
            cursor = cursor.max(e);
            j += 1;
        }
        if cursor < end {
            new(cursor, end);
        }
        if i == j {
            self.runs.insert(i, (first, end));
        } else {
            let merged = (first.min(self.runs[i].0), end.max(self.runs[j - 1].1));
            self.runs[i] = merged;
            self.runs.drain(i + 1..j);
        }
    }

    /// Drop every block at or past `limit`.
    pub(crate) fn truncate(&mut self, limit: u64) {
        let keep = self.runs.partition_point(|&(s, _)| s < limit);
        self.runs.truncate(keep);
        if let Some(last) = self.runs.last_mut() {
            last.1 = last.1.min(limit);
        }
    }

    /// The runs, ascending (tests only).
    #[cfg(test)]
    pub(crate) fn runs(&self) -> &[(u64, u64)] {
        &self.runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn insert(set: &mut RunSet, first: u64, end: u64) -> Vec<(u64, u64)> {
        let mut got = Vec::new();
        set.insert(first, end, |a, b| got.push((a, b)));
        got
    }

    #[test]
    fn disjoint_inserts_in_any_order_stay_sorted() {
        let mut s = RunSet::default();
        assert_eq!(insert(&mut s, 20, 25), vec![(20, 25)]);
        assert_eq!(insert(&mut s, 0, 3), vec![(0, 3)]);
        assert_eq!(insert(&mut s, 10, 12), vec![(10, 12)]);
        assert_eq!(s.runs(), &[(0, 3), (10, 12), (20, 25)]);
    }

    #[test]
    fn adjacent_inserts_merge_and_report_only_the_new_blocks() {
        let mut s = RunSet::default();
        insert(&mut s, 4, 8);
        assert_eq!(insert(&mut s, 8, 10), vec![(8, 10)]);
        assert_eq!(insert(&mut s, 2, 4), vec![(2, 4)]);
        assert_eq!(s.runs(), &[(2, 10)]);
        // Bridging two runs by exactly the gap between them.
        insert(&mut s, 12, 14);
        assert_eq!(insert(&mut s, 10, 12), vec![(10, 12)]);
        assert_eq!(s.runs(), &[(2, 14)]);
    }

    #[test]
    fn overlapping_inserts_report_exactly_the_gaps() {
        let mut s = RunSet::default();
        insert(&mut s, 10, 20);
        insert(&mut s, 30, 40);
        insert(&mut s, 50, 60);
        // Spans two gaps and two runs, ends inside the third run.
        assert_eq!(insert(&mut s, 5, 55), vec![(5, 10), (20, 30), (40, 50)]);
        assert_eq!(s.runs(), &[(5, 60)]);
        // Fully covered: nothing new.
        assert_eq!(insert(&mut s, 7, 59), vec![]);
        // Overlapping the tail.
        assert_eq!(insert(&mut s, 58, 64), vec![(60, 64)]);
        assert_eq!(s.runs(), &[(5, 64)]);
    }

    #[test]
    fn covers_needs_one_run_to_hold_the_whole_range() {
        let mut s = RunSet::default();
        insert(&mut s, 0, 4);
        insert(&mut s, 6, 10);
        assert!(s.covers(0, 4));
        assert!(s.covers(7, 10));
        assert!(!s.covers(3, 7), "spans the gap 4..6");
        assert!(!s.covers(9, 11));
        assert!(!s.covers(4, 5));
        assert!(s.covers(5, 5), "an empty range is covered");
        assert!(!RunSet::default().covers(0, 1));
    }

    #[test]
    fn truncate_cuts_runs_at_the_limit() {
        let mut s = RunSet::default();
        insert(&mut s, 0, 4);
        insert(&mut s, 6, 10);
        insert(&mut s, 20, 30);
        s.truncate(8);
        assert_eq!(s.runs(), &[(0, 4), (6, 8)]);
        s.truncate(6);
        assert_eq!(s.runs(), &[(0, 4)]);
        s.truncate(0);
        assert!(s.is_empty());
    }

    /// Seeded random inserts against a `BTreeSet` of blocks: the
    /// reported sub-ranges are exactly the new blocks, ascending, and
    /// coverage answers agree.
    #[test]
    fn matches_a_block_set() {
        let mut x = 0x243F_6A88_85A3_08D3u64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..50 {
            let mut s = RunSet::default();
            let mut model = BTreeSet::new();
            for _ in 0..200 {
                let first = rng() % 120;
                let end = first + rng() % 9;
                if rng() % 17 == 0 {
                    let limit = rng() % 120;
                    s.truncate(limit);
                    model.retain(|&b| b < limit);
                    continue;
                }
                let mut got = Vec::new();
                s.insert(first, end, |a, b| got.extend(a..b));
                let want: Vec<u64> = (first..end).filter(|&b| model.insert(b)).collect();
                assert_eq!(got, want, "insert {first}..{end}");
                let (a, b) = (rng() % 125, rng() % 6);
                assert_eq!(s.covers(a, a + b), (a..a + b).all(|k| model.contains(&k)));
                for w in s.runs().windows(2) {
                    assert!(w[0].1 < w[1].0, "runs sorted, disjoint, not adjacent");
                }
            }
        }
    }
}
