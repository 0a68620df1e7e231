//! A per-file block-granular Markov chain predictor (extension).
//!
//! Where IS_PPM abstracts the stream into *(interval, size)* pairs,
//! [`BlockMarkov`] keeps raw block numbers: the context is the last
//! `order` blocks touched (order 1 or 2) and each context counts its
//! observed successor blocks. Prediction is the argmax successor under
//! a fully deterministic total order — count first, then recency, then
//! the smaller block number — so iteration order of the underlying hash
//! maps can never leak into results. This honours the repo's stream
//! discipline: determinism comes for free and *no* new `Rng64` draws
//! are introduced (existing random streams are never perturbed).

use crate::fxhash::FxHashMap;
use crate::request::Request;

#[derive(Clone, Copy, Debug)]
struct Edge {
    count: u64,
    last_used: u64,
}

/// An order-1 or order-2 Markov chain over the block numbers of one
/// file.
#[derive(Clone, Debug)]
pub struct BlockMarkov {
    order: usize,
    /// Transition table: last-`order`-blocks context → successor edges.
    table: FxHashMap<Box<[u64]>, FxHashMap<u64, Edge>>,
    /// The current context (at most `order` recent blocks).
    hist: Vec<u64>,
    last_req: Option<Request>,
    /// Logical clock, advanced once per observed block, so `last_used`
    /// is unique per (context, successor) update.
    clock: u64,
}

impl BlockMarkov {
    /// Create a chain with a context of `order` blocks.
    ///
    /// # Panics
    /// Panics unless `order` is 1 or 2.
    pub fn new(order: usize) -> Self {
        assert!((1..=2).contains(&order), "Markov order must be 1 or 2");
        BlockMarkov {
            order,
            table: FxHashMap::default(),
            hist: Vec::with_capacity(order),
            last_req: None,
            clock: 0,
        }
    }

    /// The context length in blocks.
    pub fn order(&self) -> usize {
        self.order
    }

    /// The most recently observed request.
    pub fn last_request(&self) -> Option<Request> {
        self.last_req
    }

    /// The current context (the last up-to-`order` observed blocks).
    pub fn context(&self) -> &[u64] {
        &self.hist
    }

    /// Total number of learned transitions (table size, for the
    /// `pred.table_size` registry gauge).
    pub fn transitions(&self) -> u64 {
        self.table.values().map(|succ| succ.len() as u64).sum()
    }

    /// Feed one demand request into the chain, block by block.
    pub fn observe(&mut self, req: Request) {
        for b in req.blocks() {
            self.clock += 1;
            if self.hist.len() == self.order {
                let e = self
                    .table
                    .entry(self.hist.as_slice().into())
                    .or_default()
                    .entry(b)
                    .or_insert(Edge {
                        count: 0,
                        last_used: 0,
                    });
                e.count += 1;
                e.last_used = self.clock;
                self.hist.remove(0);
            }
            self.hist.push(b);
        }
        self.last_req = Some(req);
    }

    /// The most likely successor of `ctx`, or `None` if the chain has
    /// never seen that context. Ties break deterministically by (count
    /// desc, recency desc, block asc).
    pub fn next_after(&self, ctx: &[u64]) -> Option<u64> {
        let succ = self.table.get(ctx)?;
        succ.iter()
            .max_by(|(ba, ea), (bb, eb)| {
                ea.count
                    .cmp(&eb.count)
                    .then(ea.last_used.cmp(&eb.last_used))
                    .then(bb.cmp(ba))
            })
            .map(|(&b, _)| b)
    }

    /// Forget everything.
    pub fn reset(&mut self) {
        self.table.clear();
        self.hist.clear();
        self.last_req = None;
        self.clock = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(m: &mut BlockMarkov, blocks: &[u64]) {
        for &b in blocks {
            m.observe(Request::new(b, 1));
        }
    }

    #[test]
    fn learns_a_simple_cycle() {
        let mut m = BlockMarkov::new(1);
        feed(&mut m, &[5, 9, 2, 5, 9, 2, 5]);
        assert_eq!(m.next_after(&[5]), Some(9));
        assert_eq!(m.next_after(&[9]), Some(2));
        assert_eq!(m.next_after(&[2]), Some(5));
        assert_eq!(m.next_after(&[7]), None, "unseen context");
        assert_eq!(m.transitions(), 3);
    }

    #[test]
    fn count_beats_recency() {
        let mut m = BlockMarkov::new(1);
        // 0 -> 1 twice, then 0 -> 9 once (more recent, lower count).
        feed(&mut m, &[0, 1, 0, 1, 0, 9]);
        assert_eq!(m.next_after(&[0]), Some(1));
    }

    #[test]
    fn recency_breaks_count_ties() {
        let mut m = BlockMarkov::new(1);
        // 0 -> 1 once, 0 -> 9 once; 9 is more recent.
        feed(&mut m, &[0, 1, 0, 9]);
        assert_eq!(m.next_after(&[0]), Some(9));
    }

    #[test]
    fn order_two_disambiguates() {
        let mut m1 = BlockMarkov::new(1);
        let mut m2 = BlockMarkov::new(2);
        // Block 3 is followed by 4 after 2, but by 8 after 7:
        // 2,3,4 ... 7,3,8 repeated. Order 1 ends up on the MRU side;
        // order 2 always knows.
        let stream = [2, 3, 4, 7, 3, 8, 2, 3, 4, 7, 3, 8, 2, 3, 4];
        feed(&mut m1, &stream);
        feed(&mut m2, &stream);
        assert_eq!(m2.next_after(&[2, 3]), Some(4));
        assert_eq!(m2.next_after(&[7, 3]), Some(8));
        // Order 1 has a single, ambiguous context for block 3.
        assert_eq!(m1.next_after(&[3]), Some(4), "count 3 for 4 vs 2 for 8");
    }

    #[test]
    fn multi_block_requests_decompose_into_blocks() {
        let mut m = BlockMarkov::new(1);
        m.observe(Request::new(10, 3)); // blocks 10,11,12
        m.observe(Request::new(20, 1));
        assert_eq!(m.next_after(&[10]), Some(11));
        assert_eq!(m.next_after(&[11]), Some(12));
        assert_eq!(m.next_after(&[12]), Some(20));
        assert_eq!(m.context(), &[20]);
    }

    #[test]
    fn reset_clears_table() {
        let mut m = BlockMarkov::new(1);
        feed(&mut m, &[1, 2, 3]);
        assert!(m.transitions() > 0);
        m.reset();
        assert_eq!(m.transitions(), 0);
        assert!(m.last_request().is_none());
        assert!(m.context().is_empty());
    }

    #[test]
    #[should_panic(expected = "order must be 1 or 2")]
    fn order_three_panics() {
        BlockMarkov::new(3);
    }
}
