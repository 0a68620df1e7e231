//! Algorithm configuration and the seven named configurations of the
//! paper's evaluation.

use std::fmt;

pub use predict::AlgorithmKind;
use predict::{EdgeChoice, PredictorSpec};

/// Cap on how many prefetched blocks of one file may be in flight at
/// once when running aggressively (§3.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AggressiveLimit {
    /// The paper's *linear* limit: one block per file at a time.
    /// Parallelism across disks comes from prefetching *different*
    /// files concurrently.
    One,
    /// At most `k` blocks of the file in flight (ablation).
    Window(usize),
    /// No limit (§3.1's raw aggressive prefetching; ablation).
    Unlimited,
}

impl AggressiveLimit {
    /// The numeric cap (usize::MAX for unlimited).
    pub fn cap(&self) -> usize {
        match self {
            AggressiveLimit::One => 1,
            AggressiveLimit::Window(k) => {
                assert!(*k > 0, "window must be positive");
                *k
            }
            AggressiveLimit::Unlimited => usize::MAX,
        }
    }
}

/// Full configuration of a per-file prefetcher.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PrefetchConfig {
    /// Base predictor.
    pub algorithm: AlgorithmKind,
    /// If `Some`, run the aggressive driver (§3.1) with the given
    /// in-flight limit; if `None`, prefetch a single prediction per
    /// demand request (the non-aggressive algorithms of §2).
    pub aggressive: Option<AggressiveLimit>,
    /// Edge-selection policy for IS_PPM (MRU per the paper; frequency
    /// for the ablation).
    pub edge_choice: EdgeChoice,
    /// Maximum number of issued-but-not-yet-demanded blocks an
    /// aggressive walk may run ahead of its consumer (a read-ahead
    /// window). The paper's algorithms have no such cap (`None`
    /// reproduces that exactly); any real prefetcher bounds its lead,
    /// and an unbounded walk restarted under cache pressure refetches
    /// entire files. `DEFAULT_LEAD_CAP` blocks by default.
    pub lead_cap: Option<u64>,
}

/// Default aggressive-walk lead cap, in blocks (8 MB of 8 KB blocks).
pub const DEFAULT_LEAD_CAP: u64 = 1024;

impl PrefetchConfig {
    /// `NP` — no prefetching.
    pub const fn np() -> Self {
        PrefetchConfig {
            algorithm: AlgorithmKind::None,
            aggressive: None,
            edge_choice: EdgeChoice::MostRecent,
            lead_cap: Some(DEFAULT_LEAD_CAP),
        }
    }

    /// `OBA` — conservative one-block-ahead.
    pub const fn oba() -> Self {
        PrefetchConfig {
            algorithm: AlgorithmKind::Oba,
            aggressive: None,
            edge_choice: EdgeChoice::MostRecent,
            lead_cap: Some(DEFAULT_LEAD_CAP),
        }
    }

    /// `IS_PPM:j` — non-aggressive interval/size PPM.
    pub const fn is_ppm(order: usize) -> Self {
        PrefetchConfig {
            algorithm: AlgorithmKind::IsPpm { order },
            aggressive: None,
            edge_choice: EdgeChoice::MostRecent,
            lead_cap: Some(DEFAULT_LEAD_CAP),
        }
    }

    /// `Ln_Agr_OBA` — linear aggressive one-block-ahead (sequential
    /// read-ahead to end of file, one block in flight).
    pub const fn ln_agr_oba() -> Self {
        PrefetchConfig {
            algorithm: AlgorithmKind::Oba,
            aggressive: Some(AggressiveLimit::One),
            edge_choice: EdgeChoice::MostRecent,
            lead_cap: Some(DEFAULT_LEAD_CAP),
        }
    }

    /// `Ln_Agr_IS_PPM:j` — linear aggressive interval/size PPM.
    pub const fn ln_agr_is_ppm(order: usize) -> Self {
        PrefetchConfig {
            algorithm: AlgorithmKind::IsPpm { order },
            aggressive: Some(AggressiveLimit::One),
            edge_choice: EdgeChoice::MostRecent,
            lead_cap: Some(DEFAULT_LEAD_CAP),
        }
    }

    /// `IS_PPM*:j` — non-aggressive IS_PPM with order back-off
    /// (extension beyond the paper).
    pub const fn is_ppm_backoff(order: usize) -> Self {
        PrefetchConfig {
            algorithm: AlgorithmKind::IsPpmBackoff { order },
            aggressive: None,
            edge_choice: EdgeChoice::MostRecent,
            lead_cap: Some(DEFAULT_LEAD_CAP),
        }
    }

    /// `Ln_Agr_IS_PPM*:j` — linear aggressive IS_PPM with order
    /// back-off (extension beyond the paper).
    pub const fn ln_agr_is_ppm_backoff(order: usize) -> Self {
        PrefetchConfig {
            algorithm: AlgorithmKind::IsPpmBackoff { order },
            aggressive: Some(AggressiveLimit::One),
            edge_choice: EdgeChoice::MostRecent,
            lead_cap: Some(DEFAULT_LEAD_CAP),
        }
    }

    /// Any registry predictor with an optional aggressive driver —
    /// the generic constructor behind [`parse`](Self::parse) and the
    /// predictor-zoo ablation.
    pub const fn with_predictor(kind: AlgorithmKind, aggressive: Option<AggressiveLimit>) -> Self {
        PrefetchConfig {
            algorithm: kind,
            aggressive,
            edge_choice: EdgeChoice::MostRecent,
            lead_cap: Some(DEFAULT_LEAD_CAP),
        }
    }

    /// Parse a configuration name (`lapsim --algo`): an optional
    /// `ln_agr_` prefix for the linear aggressive driver, then a
    /// registry predictor spec (`np`, `oba`, `is_ppm:3`, …). `None` for
    /// anything else, and for `ln_agr_np`, which has nothing to fetch.
    pub fn parse(s: &str) -> Option<Self> {
        let (aggressive, spec) = match s.strip_prefix("ln_agr_") {
            Some(rest) => (Some(AggressiveLimit::One), rest),
            None => (None, s),
        };
        let kind = PredictorSpec::parse(spec).ok()?.kind;
        if aggressive.is_some() && kind == AlgorithmKind::None {
            return None;
        }
        Some(Self::with_predictor(kind, aggressive))
    }

    /// The canonical registry spelling of this configuration's
    /// predictor (`is_ppm:1`, `mithril:16,2+oba`, …) — what the
    /// `pred.name` registry row reports.
    pub fn predictor_name(&self) -> String {
        PredictorSpec::new(self.algorithm).canonical()
    }

    /// The seven configurations of the paper's evaluation, in the order
    /// the figures list them.
    pub fn paper_suite() -> [PrefetchConfig; 7] {
        [
            Self::np(),
            Self::oba(),
            Self::ln_agr_oba(),
            Self::is_ppm(1),
            Self::ln_agr_is_ppm(1),
            Self::is_ppm(3),
            Self::ln_agr_is_ppm(3),
        ]
    }

    /// True if this configuration prefetches at all.
    pub fn prefetches(&self) -> bool {
        self.algorithm != AlgorithmKind::None
    }

    /// True if the aggressive driver is enabled.
    pub fn is_aggressive(&self) -> bool {
        self.aggressive.is_some()
    }

    /// The paper's name for this configuration (`NP`, `OBA`,
    /// `Ln_Agr_IS_PPM:3`, …).
    pub fn paper_name(&self) -> String {
        let base = match self.algorithm {
            AlgorithmKind::None => return "NP".to_string(),
            AlgorithmKind::Oba => "OBA".to_string(),
            AlgorithmKind::IsPpm { order } => format!("IS_PPM:{order}"),
            AlgorithmKind::IsPpmBackoff { order } => format!("IS_PPM*:{order}"),
            AlgorithmKind::Markov { order, fallback } => {
                format!("MARKOV:{order}{}", if fallback { "+OBA" } else { "" })
            }
            AlgorithmKind::Mithril { fallback, .. } => {
                format!("MITHRIL{}", if fallback { "+OBA" } else { "" })
            }
        };
        match self.aggressive {
            None => base,
            Some(AggressiveLimit::One) => format!("Ln_Agr_{base}"),
            Some(AggressiveLimit::Window(k)) => format!("W{k}_Agr_{base}"),
            Some(AggressiveLimit::Unlimited) => format!("Agr_{base}"),
        }
    }
}

impl fmt::Display for PrefetchConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.paper_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_names() {
        assert_eq!(PrefetchConfig::np().paper_name(), "NP");
        assert_eq!(PrefetchConfig::oba().paper_name(), "OBA");
        assert_eq!(PrefetchConfig::is_ppm(1).paper_name(), "IS_PPM:1");
        assert_eq!(PrefetchConfig::is_ppm(3).paper_name(), "IS_PPM:3");
        assert_eq!(PrefetchConfig::ln_agr_oba().paper_name(), "Ln_Agr_OBA");
        assert_eq!(
            PrefetchConfig::ln_agr_is_ppm(3).paper_name(),
            "Ln_Agr_IS_PPM:3"
        );
        let unlimited = PrefetchConfig {
            aggressive: Some(AggressiveLimit::Unlimited),
            ..PrefetchConfig::oba()
        };
        assert_eq!(unlimited.paper_name(), "Agr_OBA");
        let window = PrefetchConfig {
            aggressive: Some(AggressiveLimit::Window(4)),
            ..PrefetchConfig::is_ppm(1)
        };
        assert_eq!(window.paper_name(), "W4_Agr_IS_PPM:1");
    }

    #[test]
    fn suite_has_seven_unique_configs() {
        let suite = PrefetchConfig::paper_suite();
        let names: std::collections::BTreeSet<_> = suite.iter().map(|c| c.paper_name()).collect();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn limit_caps() {
        assert_eq!(AggressiveLimit::One.cap(), 1);
        assert_eq!(AggressiveLimit::Window(8).cap(), 8);
        assert_eq!(AggressiveLimit::Unlimited.cap(), usize::MAX);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        AggressiveLimit::Window(0).cap();
    }

    #[test]
    fn backoff_names() {
        assert_eq!(PrefetchConfig::is_ppm_backoff(3).paper_name(), "IS_PPM*:3");
        assert_eq!(
            PrefetchConfig::ln_agr_is_ppm_backoff(2).paper_name(),
            "Ln_Agr_IS_PPM*:2"
        );
    }

    #[test]
    fn zoo_names() {
        let markov = PrefetchConfig::with_predictor(
            AlgorithmKind::Markov {
                order: 2,
                fallback: true,
            },
            Some(AggressiveLimit::One),
        );
        assert_eq!(markov.paper_name(), "Ln_Agr_MARKOV:2+OBA");
        assert_eq!(markov.predictor_name(), "markov:2+oba");
        let mithril = PrefetchConfig::with_predictor(
            AlgorithmKind::Mithril {
                lookahead: 16,
                min_support: 2,
                fallback: false,
            },
            None,
        );
        assert_eq!(mithril.paper_name(), "MITHRIL");
        assert_eq!(mithril.predictor_name(), "mithril:16,2");
        // The generic constructor reproduces the named ones exactly.
        assert_eq!(
            PrefetchConfig::with_predictor(
                AlgorithmKind::IsPpm { order: 1 },
                Some(AggressiveLimit::One)
            ),
            PrefetchConfig::ln_agr_is_ppm(1)
        );
    }

    #[test]
    fn parse_maps_every_algo_spelling_to_its_constructor() {
        use PrefetchConfig as C;
        for (name, want) in [
            ("np", C::np()),
            ("oba", C::oba()),
            ("ln_agr_oba", C::ln_agr_oba()),
        ] {
            assert_eq!(C::parse(name), Some(want), "{name}");
        }
        for j in 1..=4 {
            for (base, want) in [
                ("is_ppm", C::is_ppm(j)),
                ("ln_agr_is_ppm", C::ln_agr_is_ppm(j)),
                ("is_ppm_backoff", C::is_ppm_backoff(j)),
                ("ln_agr_is_ppm_backoff", C::ln_agr_is_ppm_backoff(j)),
            ] {
                assert_eq!(C::parse(&format!("{base}:{j}")), Some(want), "{base}:{j}");
                if j == 1 {
                    assert_eq!(C::parse(base), Some(want), "{base}");
                }
            }
        }
        // OBA and NP take no order, no order is 0, and NP has nothing
        // for the aggressive driver to fetch.
        for bad in [
            "oba:3",
            "np:5",
            "ln_agr_oba:2",
            "is_ppm:0",
            "ln_agr_np",
            "ln_agr_",
            "",
        ] {
            assert_eq!(C::parse(bad), None, "{bad}");
        }
    }

    #[test]
    fn np_does_not_prefetch() {
        assert!(!PrefetchConfig::np().prefetches());
        assert!(PrefetchConfig::oba().prefetches());
        assert!(!PrefetchConfig::oba().is_aggressive());
        assert!(PrefetchConfig::ln_agr_oba().is_aggressive());
    }
}
