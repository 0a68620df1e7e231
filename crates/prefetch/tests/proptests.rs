//! Property tests over the prefetching algorithms, driven by the
//! in-repo seeded PRNG (no external dependencies).

use ioworkload::util::Rng64;
use prefetch::{
    AggressiveLimit, AlgorithmKind, EdgeChoice, FilePrefetcher, IsPpm, PrefetchConfig, Request,
};

/// An arbitrary in-bounds request stream for a file of `blocks` blocks.
fn request_stream(rng: &mut Rng64, blocks: u64, max_len: usize) -> Vec<Request> {
    let len = rng.range_u64(1, max_len as u64) as usize;
    (0..len)
        .map(|_| {
            let o = rng.range_u64(0, blocks - 1);
            let s = rng.range_u64(1, 8);
            let size = s.min(blocks - o).max(1);
            Request::new(o, size)
        })
        .collect()
}

/// The IS_PPM graph is well-formed under arbitrary request streams:
/// node count grows by at most one per request, contexts are unique
/// and exactly `order` long, and edges only connect existing nodes.
#[test]
fn isppm_graph_well_formed() {
    for case in 0..64u64 {
        let mut rng = Rng64::new(case);
        let order = rng.range_u64(1, 3) as usize;
        let reqs = request_stream(&mut rng, 64, 60);
        let mut ppm = IsPpm::new(order);
        for (i, &r) in reqs.iter().enumerate() {
            ppm.observe(r);
            assert!(ppm.node_count() <= i + 1, "case {case}");
        }
        assert!(ppm.edge_count() <= reqs.len(), "case {case}");
        for (from, to, _, count) in ppm.edges() {
            let _ = ppm.context(from);
            let ctx = ppm.context(to);
            assert_eq!(ctx.len(), order, "case {case}");
            assert!(count >= 1, "case {case}");
        }
    }
}

/// Whatever the history, a prediction never leaves the file.
#[test]
fn predictions_stay_in_bounds() {
    for case in 0..64u64 {
        let mut rng = Rng64::new(case ^ 0xB0);
        let order = rng.range_u64(1, 3) as usize;
        let blocks = rng.range_u64(4, 63);
        let reqs = request_stream(&mut rng, 64, 40);
        let mut ppm = IsPpm::new(order);
        let mut last = None;
        for &r in &reqs {
            ppm.observe(r);
            last = Some(r);
        }
        if let Some(base) = last {
            if let Some(pred) = ppm.predict_after(base, blocks) {
                assert!(pred.within(blocks), "case {case}");
                assert!(pred.size >= 1, "case {case}");
            }
        }
    }
}

/// The engine never issues an out-of-file or cached block, never
/// issues the same block twice within one path, and respects the
/// in-flight cap at every instant.
#[test]
fn engine_invariants() {
    for case in 0..96u64 {
        let mut rng = Rng64::new(case ^ 0xE6);
        let cfg_idx = rng.range_u64(0, 6) as usize;
        let blocks = rng.range_u64(8, 127);
        let reqs = request_stream(&mut rng, 8, 30);
        let cached_mod = rng.range_u64(2, 6);
        let cfg = PrefetchConfig::paper_suite()[cfg_idx];
        let mut pf = FilePrefetcher::new(cfg, blocks);
        let cap = cfg.aggressive.map_or(usize::MAX, |l| l.cap());
        for &r in &reqs {
            // Clamp the request into this file.
            let off = r.offset.min(blocks - 1);
            let size = r.size.min(blocks - off);
            pf.on_demand(Request::new(off, size));
            let mut seen = std::collections::BTreeSet::new();
            while let Some(b) = pf.next_block(|b| b % cached_mod == 0) {
                assert!(b < blocks, "issued out-of-file block {b} (case {case})");
                assert!(b % cached_mod != 0, "issued cached block {b} (case {case})");
                assert!(seen.insert(b), "issued duplicate block {b} (case {case})");
                assert!(pf.in_flight() <= cap, "case {case}");
                pf.on_prefetch_complete();
            }
        }
    }
}

/// Linear aggressive OBA from block 0 issues exactly the uncached
/// tail of the file, in order.
#[test]
fn ln_agr_oba_covers_file() {
    for case in 0..64u64 {
        let mut rng = Rng64::new(case ^ 0x0BA);
        let blocks = rng.range_u64(2, 199);
        let mut pf = FilePrefetcher::new(PrefetchConfig::ln_agr_oba(), blocks);
        pf.on_demand(Request::new(0, 1));
        let mut got = Vec::new();
        while let Some(b) = pf.next_block(|_| false) {
            got.push(b);
            pf.on_prefetch_complete();
        }
        let expect: Vec<u64> = (1..blocks).collect();
        assert_eq!(got, expect, "case {case}");
    }
}

/// For a perfectly regular stride the order-1 graph predictor walks
/// the exact future of the stream (no fallback, no gaps).
#[test]
fn strided_pattern_predicted_exactly() {
    for case in 0..64u64 {
        let mut rng = Rng64::new(case ^ 0x57);
        let stride = rng.range_u64(2, 15);
        let size = rng.range_u64(1, 3).min(stride); // non-overlapping requests
        let warm = rng.range_u64(3, 7) as usize;
        let blocks = 10_000u64;
        let mut pf = FilePrefetcher::new(PrefetchConfig::ln_agr_is_ppm(1), blocks);
        let mut off = 0;
        for _ in 0..warm {
            pf.on_demand(Request::new(off, size));
            off += stride;
        }
        // The next predicted block must be exactly `off` (the start of
        // the next strided request).
        let first = pf.next_block(|_| false);
        assert_eq!(first, Some(off), "case {case}");
    }
}

/// Aggressive engines terminate: the number of pulled blocks is
/// bounded even for adversarial (cyclic) streams.
#[test]
fn aggressive_walks_terminate() {
    for case in 0..64u64 {
        let mut rng = Rng64::new(case ^ 0x7E);
        let order = rng.range_u64(1, 2) as usize;
        let blocks = 16u64;
        let reqs = request_stream(&mut rng, blocks, 20);
        let cfg = PrefetchConfig {
            aggressive: Some(AggressiveLimit::Unlimited),
            ..PrefetchConfig::ln_agr_is_ppm(order)
        };
        assert_eq!(cfg.algorithm, AlgorithmKind::IsPpm { order });
        let mut pf = FilePrefetcher::new(cfg, blocks);
        for &r in &reqs {
            let off = r.offset.min(blocks - 1);
            let size = r.size.min(blocks - off);
            pf.on_demand(Request::new(off, size));
        }
        let mut pulled = 0u64;
        while pf.next_block(|_| false).is_some() {
            pulled += 1;
            assert!(
                pulled <= 2 * blocks + 64,
                "walk failed to terminate (case {case})"
            );
        }
    }
}

/// MRU and frequency edge choices agree when every node has a single
/// successor.
#[test]
fn edge_choices_agree_on_deterministic_patterns() {
    for stride in 1u64..10 {
        let mut mru = IsPpm::with_edge_choice(1, EdgeChoice::MostRecent);
        let mut freq = IsPpm::with_edge_choice(1, EdgeChoice::MostFrequent);
        let mut off = 0;
        for _ in 0..10 {
            let r = Request::new(off, 1);
            mru.observe(r);
            freq.observe(r);
            off += stride;
        }
        let base = Request::new(off - stride, 1);
        assert_eq!(
            mru.predict_after(base, 1 << 20),
            freq.predict_after(base, 1 << 20),
            "stride {stride}"
        );
    }
}

/// With a lead cap of k and no consuming demands, an aggressive walk
/// hands out at most k blocks, however often completions are
/// acknowledged.
#[test]
fn lead_cap_bounds_unconsumed_prefetch() {
    for case in 0..64u64 {
        let mut rng = Rng64::new(case ^ 0x1EAD);
        let cap = rng.range_u64(1, 31);
        let blocks = rng.range_u64(64, 255);
        let cfg = PrefetchConfig {
            lead_cap: Some(cap),
            ..PrefetchConfig::ln_agr_oba()
        };
        let mut pf = FilePrefetcher::new(cfg, blocks);
        pf.on_demand(Request::new(0, 1));
        let mut issued = 0u64;
        while pf.next_block(|_| false).is_some() {
            issued += 1;
            pf.on_prefetch_complete();
            assert!(issued <= cap, "issued {issued} > cap {cap} (case {case})");
        }
        assert_eq!(issued, cap.min(blocks - 1), "case {case}");
    }
}

/// Replay scores are well-formed fractions for arbitrary request
/// streams and any paper configuration.
#[test]
fn replay_scores_are_fractions() {
    use prefetch::replay;
    for case in 0..64u64 {
        let mut rng = Rng64::new(case ^ 0x5C0);
        let cfg_idx = rng.range_u64(0, 6) as usize;
        let reqs = request_stream(&mut rng, 256, 60);
        let cfg = PrefetchConfig::paper_suite()[cfg_idx];
        let score = replay::evaluate(cfg, 256, &reqs);
        assert_eq!(score.requests, reqs.len() as u64, "case {case}");
        assert!((0.0..=1.0).contains(&score.exact_accuracy()), "case {case}");
        assert!(
            (0.0..=1.0).contains(&score.overlap_accuracy()),
            "case {case}"
        );
        assert!(
            (0.0..=1.0 + 1e-9).contains(&score.block_coverage()),
            "case {case}"
        );
        assert!(score.exact <= score.overlapping, "case {case}");
        assert!(score.overlapping <= score.predicted, "case {case}");
    }
}

/// The back-off engine issues the same or fewer OBA-fallback blocks
/// than the plain engine of the same order, on any stream.
#[test]
fn backoff_never_falls_back_more_than_plain() {
    for case in 0..64u64 {
        let mut rng = Rng64::new(case ^ 0xBAC0);
        let reqs = request_stream(&mut rng, 64, 40);
        let mut plain = FilePrefetcher::new(PrefetchConfig::ln_agr_is_ppm(3), 64);
        let mut backoff = FilePrefetcher::new(PrefetchConfig::ln_agr_is_ppm_backoff(3), 64);
        for &r in &reqs {
            let off = r.offset.min(63);
            let size = r.size.min(64 - off);
            for pf in [&mut plain, &mut backoff] {
                pf.on_demand(Request::new(off, size));
                while pf.next_block(|_| false).is_some() {
                    pf.on_prefetch_complete();
                }
            }
        }
        // Both issued the same *number* of decisions is not guaranteed,
        // but the backoff engine's *fallback share* must not exceed the
        // plain engine's by more than rounding noise.
        assert!(
            backoff.stats().fallback_share() <= plain.stats().fallback_share() + 1e-9,
            "backoff {} vs plain {} (case {case})",
            backoff.stats().fallback_share(),
            plain.stats().fallback_share()
        );
    }
}
