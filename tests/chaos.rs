//! A miniature of the `experiments chaos` sweep, at the library level
//! and fast enough for `cargo test`: a handful of seeded random fault
//! plans (the same generator the full sweep draws from), each run with
//! the invariant oracle forced on. Any oracle violation panics the
//! test. The full 2000-plan version is `experiments chaos`
//! (DESIGN.md §15).

use std::sync::Arc;

use lap::lap_core::run_simulation;
use lap::prelude::*;

#[test]
fn random_fault_plans_hold_invariants() {
    let mut params = CharismaParams::small();
    params.nodes = 8;
    let wl = Arc::new(params.generate(42));

    let mut injected = 0;
    for seed in 0..6 {
        let spec = FaultPlan::random_spec(seed);
        let plan = FaultPlan::parse(&spec)
            .unwrap_or_else(|e| panic!("random_spec({seed}) must parse: {e}"));
        let mut cfg = SimConfig::pm(CacheSystem::Pafs, PrefetchConfig::ln_agr_is_ppm(1), 1);
        cfg.machine.nodes = 8;
        cfg.machine.disks = 4;
        cfg.check = CheckMode::On;
        cfg.fault_plan = Some(plan);
        injected += run_simulation(cfg, Arc::clone(&wl)).faults_injected;
    }
    assert!(injected > 0, "no plan injected anything — sweep is vacuous");
}
