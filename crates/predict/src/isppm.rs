//! The Interval and Size PPM predictor (§2.2).

use std::fmt;

use crate::fxhash::FxHashMap;
use crate::request::Request;

/// One *(offset interval, request size)* pair — the unit of information
/// IS_PPM keeps, instead of the raw block numbers classic PPM uses.
///
/// The interval is the signed difference, in blocks, between the first
/// block of a request and the first block of the previous request; the
/// size is the number of blocks in the request.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Pair {
    /// Offset interval from the previous request, in blocks (may be
    /// negative: applications do jump backwards, e.g. on re-reads).
    pub interval: i64,
    /// Request size in blocks.
    pub size: u64,
}

impl Pair {
    /// Construct a pair.
    pub fn new(interval: i64, size: u64) -> Self {
        Pair { interval, size }
    }
}

impl fmt::Display for Pair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(I={},S={})", self.interval, self.size)
    }
}

/// How to pick among multiple outgoing edges of a node.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum EdgeChoice {
    /// Follow the edge that was *most recently* followed — the paper's
    /// choice: "following the path that has most recently been followed
    /// achieves a more accurate prediction" (§2.2).
    #[default]
    MostRecent,
    /// Follow the edge followed *most often* (original Vitter/Krishnan
    /// PPM behaviour), ties broken by recency. Kept for the ablation
    /// benchmark that reproduces the paper's design argument.
    MostFrequent,
}

/// Identifier of a node in the prediction graph.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct NodeId(u32);

#[derive(Clone, Copy, Debug)]
struct EdgeInfo {
    last_used: u64,
    count: u64,
}

#[derive(Clone, Debug, Default)]
struct Node {
    ctx: Box<[Pair]>,
    /// Outgoing edges, keyed by target node.
    edges: FxHashMap<NodeId, EdgeInfo>,
    /// Target of the most-recently-followed edge. Timestamps only grow,
    /// so the last touched edge is always the MRU — O(1) maintenance.
    mru: Option<NodeId>,
    /// Target of the most-often-followed edge (ties to the most recent,
    /// which is the edge being touched). Counts only grow, so a simple
    /// compare-on-update keeps the argmax — O(1) maintenance.
    most_frequent: Option<(NodeId, u64)>,
}

/// A `j`-th-order Interval-and-Size PPM predictor for one file.
///
/// Nodes of the graph hold the last `j` (interval, size) pairs; an edge
/// `A → B` labelled with time `t` means "the context `B` followed the
/// context `A`, most recently at time `t`". Prediction from a node
/// follows the chosen edge ([`EdgeChoice`]) and reads the *last* pair of
/// the target context: the interval locates the next request relative to
/// the current one and the size says how many blocks it will touch.
///
/// ```
/// use predict::{IsPpm, Request};
///
/// // A 16-block stride with 4-block requests:
/// let mut ppm = IsPpm::new(1);
/// for i in 0..4 {
///     ppm.observe(Request::new(i * 16, 4));
/// }
/// let pred = ppm.predict_after(Request::new(48, 4), 1 << 20).unwrap();
/// assert_eq!(pred, Request::new(64, 4));
/// ```
#[derive(Clone, Debug)]
pub struct IsPpm {
    order: usize,
    edge_choice: EdgeChoice,
    nodes: Vec<Node>,
    index: FxHashMap<Box<[Pair]>, NodeId>,
    /// Sliding window of the most recent pairs (at most `order`).
    history: Vec<Pair>,
    last_req: Option<Request>,
    /// Node matching the current full context, if the window is full.
    cur_node: Option<NodeId>,
    clock: u64,
}

impl IsPpm {
    /// Create an order-`j` predictor using the paper's MRU edge choice.
    ///
    /// # Panics
    /// Panics if `order == 0`.
    pub fn new(order: usize) -> Self {
        Self::with_edge_choice(order, EdgeChoice::MostRecent)
    }

    /// Create an order-`j` predictor with an explicit edge-selection
    /// policy (for the MRU-vs-frequency ablation).
    pub fn with_edge_choice(order: usize, edge_choice: EdgeChoice) -> Self {
        assert!(order > 0, "IS_PPM order must be at least 1");
        IsPpm {
            order,
            edge_choice,
            nodes: Vec::new(),
            index: FxHashMap::default(),
            history: Vec::with_capacity(order),
            last_req: None,
            cur_node: None,
            clock: 0,
        }
    }

    /// The predictor's order `j`.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Number of nodes in the prediction graph.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges in the prediction graph.
    pub fn edge_count(&self) -> usize {
        self.nodes.iter().map(|n| n.edges.len()).sum()
    }

    /// The most recently observed request.
    pub fn last_request(&self) -> Option<Request> {
        self.last_req
    }

    /// Feed one demand request into the model, updating nodes, edges
    /// and edge timestamps exactly as Figure 2 of the paper describes.
    pub fn observe(&mut self, req: Request) {
        self.clock += 1;
        if let Some(prev) = self.last_req {
            let pair = Pair::new(req.interval_from(&prev), req.size);
            if self.history.len() == self.order {
                self.history.remove(0);
            }
            self.history.push(pair);
            if self.history.len() == self.order {
                // Look up first; the context is almost always already
                // interned, so avoid cloning the window on the hot path.
                let nid = match self.index.get(self.history.as_slice()) {
                    Some(&nid) => nid,
                    None => {
                        let boxed: Box<[Pair]> = self.history.as_slice().into();
                        let nid = NodeId(self.nodes.len() as u32);
                        self.nodes.push(Node {
                            ctx: boxed.clone(),
                            ..Node::default()
                        });
                        self.index.insert(boxed, nid);
                        nid
                    }
                };
                if let Some(from) = self.cur_node {
                    self.touch_edge(from, nid);
                }
                self.cur_node = Some(nid);
            } else {
                self.cur_node = None;
            }
        }
        self.last_req = Some(req);
    }

    fn touch_edge(&mut self, from: NodeId, to: NodeId) {
        let clock = self.clock;
        let node = &mut self.nodes[from.0 as usize];
        let e = node.edges.entry(to).or_insert(EdgeInfo {
            last_used: clock,
            count: 0,
        });
        e.last_used = clock;
        e.count += 1;
        let count = e.count;
        node.mru = Some(to);
        // Ties go to the edge just touched (the most recent), matching
        // a max-by-(count, recency) scan.
        if node.most_frequent.is_none_or(|(_, c)| count >= c) {
            node.most_frequent = Some((to, count));
        }
    }

    /// The node matching the context of the last observed request, if
    /// the model has seen enough requests to fill the order-`j` window.
    pub fn current_node(&self) -> Option<NodeId> {
        self.cur_node
    }

    /// The sliding window of recently observed pairs (at most `j`).
    pub fn history(&self) -> &[Pair] {
        &self.history
    }

    /// Find the node holding exactly this context, if the graph has
    /// seen it. Used by aggressive walks to re-synchronise a
    /// hypothetical context with the graph.
    pub fn lookup(&self, ctx: &[Pair]) -> Option<NodeId> {
        self.index.get(ctx).copied()
    }

    /// Follow the preferred outgoing edge of `node`, returning the
    /// target node and the (interval, size) pair that predicts the next
    /// request. Returns `None` if the node has no outgoing edges yet.
    pub fn step(&self, node: NodeId) -> Option<(NodeId, Pair)> {
        let n = &self.nodes[node.0 as usize];
        let to = match self.edge_choice {
            EdgeChoice::MostRecent => n.mru?,
            EdgeChoice::MostFrequent => n.most_frequent?.0,
        };
        let target = &self.nodes[to.0 as usize];
        let pair = *target.ctx.last().expect("contexts are non-empty");
        Some((to, pair))
    }

    /// Predict the request following `base` using the graph state at the
    /// current node, applying bounds: the prediction must start at a
    /// non-negative block and end inside a file of `file_blocks` blocks.
    pub fn predict_after(&self, base: Request, file_blocks: u64) -> Option<Request> {
        let node = self.cur_node?;
        let (_, pair) = self.step(node)?;
        apply_pair(base, pair, file_blocks)
    }

    /// The context (last `j` pairs) stored at `node` — exposed for
    /// tests and diagnostics.
    pub fn context(&self, node: NodeId) -> &[Pair] {
        &self.nodes[node.0 as usize].ctx
    }

    /// All `(from, to, last_used, count)` edges in a deterministic
    /// order — exposed for tests.
    pub fn edges(&self) -> Vec<(NodeId, NodeId, u64, u64)> {
        let mut out = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            for (&to, e) in &n.edges {
                out.push((NodeId(i as u32), to, e.last_used, e.count));
            }
        }
        out.sort_unstable_by_key(|&(f, t, ..)| (f.0, t.0));
        out
    }

    /// Render the prediction graph in Graphviz DOT format, with nodes
    /// labelled by their contexts and edges by `(last_used, count)` —
    /// handy for inspecting what a predictor has learned (the paper's
    /// Figures 2 and 3, generated).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("digraph isppm {\n  rankdir=LR;\n  node [shape=box];\n");
        for (i, n) in self.nodes.iter().enumerate() {
            let label: Vec<String> = n.ctx.iter().map(|p| p.to_string()).collect();
            writeln!(out, "  n{} [label=\"{}\"];", i, label.join(" ")).unwrap();
        }
        for (from, to, last_used, count) in self.edges() {
            let style = if self.nodes[from.0 as usize].mru == Some(to) {
                ", penwidth=2"
            } else {
                ""
            };
            writeln!(
                out,
                "  n{} -> n{} [label=\"t{} (x{})\"{}];",
                from.0, to.0, last_used, count, style
            )
            .unwrap();
        }
        out.push_str("}\n");
        out
    }

    /// Forget everything (e.g. on file truncation).
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.index.clear();
        self.history.clear();
        self.last_req = None;
        self.cur_node = None;
        self.clock = 0;
    }
}

/// Apply a predicted (interval, size) pair to a base request,
/// returning the predicted request if it falls entirely inside the
/// file.
pub(crate) fn apply_pair(base: Request, pair: Pair, file_blocks: u64) -> Option<Request> {
    let offset = base.offset as i64 + pair.interval;
    if offset < 0 {
        return None;
    }
    let req = Request::new(offset as u64, pair.size);
    req.within(file_blocks).then_some(req)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The request stream of Figure 1, zero-indexed: 2 blocks at 0,
    /// 3 blocks 3 further, 2 blocks 5 further, repeating.
    fn figure1_requests() -> Vec<Request> {
        vec![
            Request::new(0, 2),
            Request::new(3, 3),
            Request::new(8, 2),
            Request::new(11, 3),
            Request::new(16, 2),
        ]
    }

    #[test]
    fn figure2_graph_construction_order1() {
        let mut ppm = IsPpm::new(1);
        let reqs = figure1_requests();

        // t1: first request — nothing can be computed.
        ppm.observe(reqs[0]);
        assert_eq!(ppm.node_count(), 0);

        // t2: first node (I=3, S=3).
        ppm.observe(reqs[1]);
        assert_eq!(ppm.node_count(), 1);
        assert_eq!(ppm.edge_count(), 0);
        assert_eq!(ppm.context(ppm.current_node().unwrap()), &[Pair::new(3, 3)]);

        // t3: second node (I=5, S=2) and the first link.
        ppm.observe(reqs[2]);
        assert_eq!(ppm.node_count(), 2);
        assert_eq!(ppm.edge_count(), 1);

        // t4: no new node — (I=3,S=3) exists; a reverse link appears.
        ppm.observe(reqs[3]);
        assert_eq!(ppm.node_count(), 2);
        assert_eq!(ppm.edge_count(), 2);

        // t5: nothing new; only the (3,3)->(5,2) timestamp is refreshed.
        let before: Vec<_> = ppm.edges();
        ppm.observe(reqs[4]);
        assert_eq!(ppm.node_count(), 2);
        assert_eq!(ppm.edge_count(), 2);
        let after: Vec<_> = ppm.edges();
        let changed: Vec<_> = before
            .iter()
            .zip(&after)
            .filter(|(b, a)| b.2 != a.2)
            .collect();
        assert_eq!(changed.len(), 1, "exactly one edge timestamp refreshed");
    }

    #[test]
    fn paper_prediction_example() {
        // "if we use the graph shown in Figure 2.t4, we could predict
        // the fifth request very easily": after the 4th request the
        // prediction is (interval 5, size 2) from block 11 -> blocks
        // 16,17 (the paper's 17,18 in 1-indexed numbering).
        let mut ppm = IsPpm::new(1);
        for r in figure1_requests().iter().take(4) {
            ppm.observe(*r);
        }
        let pred = ppm.predict_after(Request::new(11, 3), 1000).unwrap();
        assert_eq!(pred, Request::new(16, 2));
    }

    #[test]
    fn figure3_graph_order3() {
        let mut ppm = IsPpm::new(3);
        // Extend the Figure 1 pattern far enough for order-3 contexts
        // to repeat: requests alternate (+3,3) and (+5,2).
        let mut reqs = figure1_requests();
        reqs.push(Request::new(19, 3)); // +3, 3 blocks
        reqs.push(Request::new(24, 2)); // +5, 2 blocks
        for r in &reqs {
            ppm.observe(*r);
        }
        // Exactly the two alternating 3-pair contexts of Figure 3.
        assert_eq!(ppm.node_count(), 2);
        let ctxs: Vec<Vec<Pair>> = (0..2).map(|i| ppm.context(NodeId(i)).to_vec()).collect();
        assert!(ctxs.contains(&vec![Pair::new(3, 3), Pair::new(5, 2), Pair::new(3, 3)]));
        assert!(ctxs.contains(&vec![Pair::new(5, 2), Pair::new(3, 3), Pair::new(5, 2)]));
        // And the prediction continues the pattern: after (24,2) comes
        // (+3 -> 27, 3 blocks).
        let pred = ppm.predict_after(Request::new(24, 2), 1000).unwrap();
        assert_eq!(pred, Request::new(27, 3));
    }

    #[test]
    fn mru_edge_beats_frequency_when_pattern_shifts() {
        // Train a node with two successors: first "A" many times, then
        // "B" once (more recent). MRU must pick B; frequency picks A.
        let make = |choice| {
            let mut ppm = IsPpm::with_edge_choice(1, choice);
            let mut off = 0u64;
            // Pattern P: (+10, 1) followed by (+1, 1) — seen 5 times.
            for _ in 0..5 {
                ppm.observe(Request::new(off, 1));
                off += 10;
                ppm.observe(Request::new(off, 1));
                off += 1;
            }
            // Shift: (+10,1) now followed by (+2,2).
            ppm.observe(Request::new(off, 1));
            off += 10;
            ppm.observe(Request::new(off, 1)); // reach node (10,1)
            off += 2;
            ppm.observe(Request::new(off, 2)); // edge (10,1)->(2,2)
                                               // Back at node (10,1):
            off += 10;
            ppm.observe(Request::new(off, 1));
            (ppm, off)
        };

        let (mru, off) = make(EdgeChoice::MostRecent);
        let pred = mru.predict_after(Request::new(off, 1), 10_000).unwrap();
        assert_eq!(pred, Request::new(off + 2, 2), "MRU follows the shift");

        let (freq, off) = make(EdgeChoice::MostFrequent);
        let pred = freq.predict_after(Request::new(off, 1), 10_000).unwrap();
        assert_eq!(pred, Request::new(off + 1, 1), "frequency lags behind");
    }

    #[test]
    fn negative_interval_is_learned_and_bounded() {
        let mut ppm = IsPpm::new(1);
        // Read two blocks forward, then jump back to 0, repeatedly.
        for _ in 0..3 {
            ppm.observe(Request::new(0, 1));
            ppm.observe(Request::new(5, 1));
        }
        // Current context is (interval=-5, size=1) after this stream?
        // Last transition was 5 -> 0? No: stream ends at (5,1), context
        // is (+5,1); MRU edge leads to (-5,1).
        let pred = ppm.predict_after(Request::new(5, 1), 100).unwrap();
        assert_eq!(pred, Request::new(0, 1));
        // A prediction that would land before block 0 is suppressed.
        let pred = ppm.predict_after(Request::new(3, 1), 100);
        assert_eq!(pred, None);
    }

    #[test]
    fn prediction_requires_full_context() {
        let mut ppm = IsPpm::new(3);
        ppm.observe(Request::new(0, 1));
        ppm.observe(Request::new(1, 1));
        // Only 1 pair so far; order-3 window not full.
        assert_eq!(ppm.current_node(), None);
        assert_eq!(ppm.predict_after(Request::new(1, 1), 100), None);
    }

    #[test]
    fn out_of_file_prediction_suppressed() {
        let mut ppm = IsPpm::new(1);
        ppm.observe(Request::new(0, 4));
        ppm.observe(Request::new(4, 4));
        ppm.observe(Request::new(8, 4));
        // Predicts (interval 4, size 4) => 12..16; file of 14 blocks
        // cannot hold it.
        assert_eq!(ppm.predict_after(Request::new(8, 4), 14), None);
        assert_eq!(
            ppm.predict_after(Request::new(8, 4), 16),
            Some(Request::new(12, 4))
        );
    }

    #[test]
    fn reset_clears_graph() {
        let mut ppm = IsPpm::new(1);
        for r in figure1_requests() {
            ppm.observe(r);
        }
        assert!(ppm.node_count() > 0);
        ppm.reset();
        assert_eq!(ppm.node_count(), 0);
        assert_eq!(ppm.edge_count(), 0);
        assert_eq!(ppm.last_request(), None);
    }

    #[test]
    #[should_panic(expected = "order must be at least 1")]
    fn order_zero_panics() {
        IsPpm::new(0);
    }

    #[test]
    fn dot_export_lists_nodes_and_marks_mru() {
        let mut ppm = IsPpm::new(1);
        for r in figure1_requests() {
            ppm.observe(r);
        }
        let dot = ppm.to_dot();
        assert!(dot.starts_with("digraph isppm {"));
        assert!(dot.contains("(I=3,S=3)"));
        assert!(dot.contains("(I=5,S=2)"));
        // Two edges, at least one highlighted as MRU.
        assert_eq!(dot.matches(" -> ").count(), 2);
        assert!(dot.contains("penwidth=2"));
        assert!(dot.trim_end().ends_with('}'));
    }
}
