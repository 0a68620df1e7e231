//! # faultkit — deterministic, seeded fault injection
//!
//! The paper (and the reproduction so far) only ever simulates the
//! sunny day. This crate adds the failure axis as a *plan*: a small
//! `Copy`-able description of fault sources, all derived from one seed
//! that is independent of the workload stream, so
//!
//! * the same plan + the same workload replays bit-identically, and
//! * an **empty plan consumes no randomness and changes nothing** —
//!   zero-fault runs stay bit-identical to builds without faultkit.
//!
//! Three fault sources:
//!
//! * **Transient disk errors** — at dispatch time each disk operation
//!   draws up to `disk_retries` failed attempts (probability
//!   `disk_error` per attempt, `burst_error` inside phased per-disk
//!   *error-burst windows*); every failed attempt re-pays the attempt
//!   cost plus exponential backoff. The surcharge flows through
//!   [`FaultedDisk`] into [`simkit::ServiceCost::retry`] so the span
//!   model can attribute it exactly.
//! * **Disk / node outage windows** — phased periodic windows during
//!   which a disk stops dispatching (the event loop aborts the
//!   in-service job and re-queues it: timeout-and-failover) or a cache
//!   node drops out of the cooperative cache (degraded mode).
//! * **Network loss / delay** — remote deliveries draw lost attempts
//!   (re-paying the transfer, bounded by a per-class retry budget) and
//!   an optional fixed extra delay.
//!
//! Windows are *closed-form*: each disk/node gets a deterministic
//! phase in `[0, period)` drawn from its own single-purpose
//! [`Rng64`] stream, so window membership is a pure function of
//! `(plan, entity, time)` and never perturbs the shared draw stream.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use ioworkload::util::Rng64;
use lapobs::Registry;
use simkit::{JobSpec, ServiceCost, ServiceModel, SimDuration, SimTime};

/// A periodic fault window: every `period`, the affected entity is
/// faulted for the first `len` of it (per-entity phase staggers the
/// start).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Window {
    /// Distance between consecutive window starts.
    pub period: SimDuration,
    /// Length of each window (strictly less than `period`).
    pub len: SimDuration,
}

/// Message class for network fault budgets: small coordination
/// messages vs. block payload transfers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetClass {
    /// Cache-coordination / lookup messages.
    Control,
    /// Block data transfers.
    Data,
}

/// The deterministic fault plan. `FaultPlan::none()` (the default) has
/// every source disabled and is guaranteed to inject nothing and draw
/// nothing.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FaultPlan {
    /// Seed of the fault draw stream (independent of the workload
    /// seed).
    pub seed: u64,
    /// Per-attempt transient disk error probability outside bursts.
    pub disk_error: f64,
    /// Per-attempt error probability inside a burst window.
    pub burst_error: f64,
    /// Maximum failed attempts per dispatch; the attempt after the
    /// last retry always succeeds, so no operation is ever lost.
    pub disk_retries: u32,
    /// Base backoff after the first failed attempt; attempt `i` backs
    /// off `backoff · 2^i`.
    pub backoff: SimDuration,
    /// Per-disk error-burst windows (raise the error rate to
    /// `burst_error` while inside).
    pub burst: Option<Window>,
    /// Per-disk outage windows (dispatch suspended, in-service job
    /// aborted and re-queued).
    pub outage: Option<Window>,
    /// Per-node cache outage windows (degraded cooperative caching).
    pub node_outage: Option<Window>,
    /// Node outages are *crashes*: a rejoining node comes back with an
    /// empty cache (its buffers were wiped, dirty copies lost) instead
    /// of reconnecting with its content intact.
    pub node_outage_wipe: bool,
    /// Per-attempt network message loss probability.
    pub net_loss: f64,
    /// Probability a remote delivery is delayed by `net_delay`.
    pub net_delay_p: f64,
    /// Extra delay added to a delayed delivery.
    pub net_delay: SimDuration,
    /// Lost-attempt retry budget for [`NetClass::Data`] messages.
    pub net_retries: u32,
    /// Lost-attempt retry budget for [`NetClass::Control`] messages.
    pub net_ctrl_retries: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 1,
            disk_error: 0.0,
            burst_error: 0.0,
            disk_retries: 3,
            backoff: SimDuration::from_millis(1),
            burst: None,
            outage: None,
            node_outage: None,
            node_outage_wipe: false,
            net_loss: 0.0,
            net_delay_p: 0.0,
            net_delay: SimDuration::ZERO,
            net_retries: 3,
            net_ctrl_retries: 1,
        }
    }
}

/// Distinct salts so each window family gets its own phase stream.
const SALT_BURST: u64 = 0xB0B5_7001;
const SALT_OUTAGE: u64 = 0x0007_A6E2;
const SALT_NODE: u64 = 0x40DE_0003;

fn parse_window(v: &str) -> Result<Window, String> {
    let (p, l) = v
        .split_once(':')
        .ok_or_else(|| format!("window '{v}' must be PERIOD_S:LEN_S"))?;
    let period: f64 = p.parse().map_err(|_| format!("bad window period '{p}'"))?;
    let len: f64 = l.parse().map_err(|_| format!("bad window length '{l}'"))?;
    if !(period.is_finite() && len > 0.0 && len < period) {
        return Err(format!("window '{v}' needs 0 < LEN < PERIOD, both finite"));
    }
    Ok(Window {
        period: SimDuration::from_secs_f64(period),
        len: SimDuration::from_secs_f64(len),
    })
}

/// A probability: a number in `[0, 1]` (NaN and out-of-range values
/// are errors, not clamped).
fn parse_prob(v: &str) -> Result<f64, String> {
    match v.parse::<f64>() {
        Ok(p) if (0.0..=1.0).contains(&p) => Ok(p),
        _ => Err(format!("bad probability '{v}' (need 0 <= P <= 1)")),
    }
}

/// Longest per-event delay a plan may inject (`backoff-ms`,
/// `net-delay`, and the summed backoff of one disk dispatch's retries):
/// one minute. Each is charged on every faulted disk dispatch or
/// network delivery, so the simulated clock has to absorb millions of
/// them; at 1e12 ms a handful already overflow it.
const MAX_MS: f64 = 60_000.0;

/// Most retries a plan may give one disk dispatch or one network
/// delivery (`disk-retries`, `net-retries`, `net-ctrl-retries`). Each
/// retry is one random draw in the loop that charges it, so a count in
/// the millions spins for seconds per faulted event even when its
/// backoff is zero; the chaos sweep draws at most 5.
const MAX_RETRIES: u32 = 64;

/// A retry count, in `0..=MAX_RETRIES`.
fn parse_retries(key: &str, v: &str) -> Result<u32, String> {
    match v.parse::<u32>() {
        Ok(n) if n <= MAX_RETRIES => Ok(n),
        _ => Err(format!("bad {key} '{v}' (need 0 <= N <= {MAX_RETRIES})")),
    }
}

/// A duration in milliseconds, in `0..=MAX_MS`.
fn parse_ms(what: &str, v: &str) -> Result<SimDuration, String> {
    match v.parse::<f64>() {
        Ok(ms) if (0.0..=MAX_MS).contains(&ms) => Ok(SimDuration::from_millis_f64(ms)),
        _ => Err(format!("bad {what} '{v}' (need 0 <= MS <= {MAX_MS})")),
    }
}

impl FaultPlan {
    /// The empty plan: every fault source disabled.
    pub fn none() -> Self {
        Self::default()
    }

    /// Parse a comma-separated `key=value` plan spec, e.g.
    ///
    /// ```text
    /// seed=7,disk-error=0.02,disk-retries=4,backoff-ms=5,burst=60:5,
    /// burst-error=0.5,outage=120:10,node-outage=300:20,net-loss=0.01,
    /// net-delay=0.05:2,net-retries=3,net-ctrl-retries=1
    /// ```
    ///
    /// Windows are `PERIOD_S:LEN_S` (seconds); `net-delay` is
    /// `PROB:MILLIS`. `node-outage-wipe` takes the same window as
    /// `node-outage` but makes the outages *crashes*: the node rejoins
    /// with an empty cache. Omitted keys keep their defaults; if
    /// `burst` is given without `burst-error`, the in-burst rate
    /// defaults to `max(10 · disk-error, 0.25)` capped at 0.9.
    ///
    /// Errors carry the full key menu, so a malformed spec on a CLI
    /// prints what *would* have parsed.
    pub fn parse(spec: &str) -> Result<Self, String> {
        Self::parse_inner(spec).map_err(|e| format!("{e}\n  fault-plan keys: {}", Self::KEY_MENU))
    }

    /// Every key [`parse`](Self::parse) accepts, with value shapes —
    /// appended to parse errors, menu-style.
    pub const KEY_MENU: &'static str = "seed=N, disk-error=P, burst-error=P, disk-retries=N, \
         backoff-ms=MS, burst=PERIOD_S:LEN_S, outage=PERIOD_S:LEN_S, \
         node-outage=PERIOD_S:LEN_S, node-outage-wipe=PERIOD_S:LEN_S, net-loss=P, \
         net-delay=PROB:MS, net-retries=N, net-ctrl-retries=N";

    fn parse_inner(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::none();
        let mut burst_error_set = false;
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("'{part}' is not key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "seed" => {
                    plan.seed = value.parse().map_err(|_| format!("bad seed '{value}'"))?;
                }
                "disk-error" => plan.disk_error = parse_prob(value)?,
                "burst-error" => {
                    plan.burst_error = parse_prob(value)?;
                    burst_error_set = true;
                }
                "disk-retries" => plan.disk_retries = parse_retries(key, value)?,
                "backoff-ms" => plan.backoff = parse_ms("backoff", value)?,
                "burst" => plan.burst = Some(parse_window(value)?),
                "outage" => plan.outage = Some(parse_window(value)?),
                "node-outage" => plan.node_outage = Some(parse_window(value)?),
                "node-outage-wipe" => {
                    plan.node_outage = Some(parse_window(value)?);
                    plan.node_outage_wipe = true;
                }
                "net-loss" => plan.net_loss = parse_prob(value)?,
                "net-delay" => {
                    let (p, ms) = value
                        .split_once(':')
                        .ok_or_else(|| format!("net-delay '{value}' must be PROB:MILLIS"))?;
                    plan.net_delay_p = parse_prob(p)?;
                    plan.net_delay = parse_ms("delay", ms)?;
                }
                "net-retries" => plan.net_retries = parse_retries(key, value)?,
                "net-ctrl-retries" => plan.net_ctrl_retries = parse_retries(key, value)?,
                other => return Err(format!("unknown fault-plan key '{other}'")),
            }
        }
        if plan.burst.is_some() && !burst_error_set {
            plan.burst_error = (plan.disk_error * 10.0).clamp(0.25, 0.9);
        }
        let worst = plan.worst_backoff_ms();
        if worst > MAX_MS {
            return Err(format!(
                "disk-retries={} with backoff-ms={} backs off up to {worst} ms per disk \
                 dispatch (need <= {MAX_MS})",
                plan.disk_retries,
                plan.backoff.as_millis_f64()
            ));
        }
        Ok(plan)
    }

    /// Most backoff one disk dispatch can be charged, in ms: attempt
    /// `i` backs off `backoff · 2^min(i, 16)`, summed over every retry
    /// (see [`FaultState::disk_surcharge`]); zero when no disk error can
    /// fire.
    fn worst_backoff_ms(&self) -> f64 {
        if !self.disk_errors_active() {
            return 0.0;
        }
        let n = f64::from(self.disk_retries);
        let doublings = if self.disk_retries <= 17 {
            n.exp2() - 1.0
        } else {
            131_071.0 + (n - 17.0) * 65_536.0
        };
        self.backoff.as_millis_f64() * doublings
    }

    /// True when transient disk errors can fire.
    pub fn disk_errors_active(&self) -> bool {
        self.disk_error > 0.0 || (self.burst.is_some() && self.burst_error > 0.0)
    }

    /// True when network loss or delay can fire.
    pub fn net_active(&self) -> bool {
        self.net_loss > 0.0 || (self.net_delay_p > 0.0 && self.net_delay > SimDuration::ZERO)
    }

    /// True when *no* source is enabled — the plan is equivalent to
    /// not having a fault layer at all.
    pub fn is_empty(&self) -> bool {
        !self.disk_errors_active()
            && !self.net_active()
            && self.outage.is_none()
            && self.node_outage.is_none()
            && self.burst.is_none()
    }

    /// Deterministic per-entity window phase in `[0, period)`, from a
    /// single-purpose stream keyed by `(seed, salt, idx)`.
    fn phase(&self, salt: u64, idx: u64, period: SimDuration) -> SimDuration {
        let mut rng = Rng64::new(
            self.seed
                ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ idx.wrapping_mul(0xA24B_AED4_963E_E407),
        );
        SimDuration::from_nanos(rng.range_u64(0, period.as_nanos().saturating_sub(1)))
    }

    /// True while disk `disk` is inside an error-burst window at `t`.
    pub fn in_burst(&self, disk: usize, t: SimTime) -> bool {
        let Some(w) = self.burst else { return false };
        let phase = self.phase(SALT_BURST, disk as u64, w.period);
        let t = t.as_nanos();
        let phase = phase.as_nanos();
        t >= phase && (t - phase) % w.period.as_nanos() < w.len.as_nanos()
    }

    /// When disk `disk` first goes down, if outages are planned.
    pub fn first_disk_down(&self, disk: usize) -> Option<SimTime> {
        let w = self.outage?;
        Some(SimTime::ZERO + self.phase(SALT_OUTAGE, disk as u64, w.period))
    }

    /// When node `node` first drops out, if node outages are planned.
    pub fn first_node_down(&self, node: usize) -> Option<SimTime> {
        let w = self.node_outage?;
        Some(SimTime::ZERO + self.phase(SALT_NODE, node as u64, w.period))
    }

    /// The canonical spec string: parsing it back yields exactly this
    /// plan (`parse(canonical(p)) == p`), and it is a fixed point
    /// (`canonical(parse(canonical(p))) == canonical(p)`). Only
    /// non-default keys are emitted; `burst-error` is always written
    /// out when relevant so the parse-time defaulting rule cannot
    /// change the round-tripped value.
    pub fn canonical(&self) -> String {
        let d = FaultPlan::none();
        let mut parts: Vec<String> = Vec::new();
        if self.seed != d.seed {
            parts.push(format!("seed={}", self.seed));
        }
        if self.disk_error != d.disk_error {
            parts.push(format!("disk-error={}", self.disk_error));
        }
        if let Some(w) = self.burst {
            parts.push(format!(
                "burst={}:{}",
                w.period.as_secs_f64(),
                w.len.as_secs_f64()
            ));
        }
        if self.burst.is_some() || self.burst_error != d.burst_error {
            parts.push(format!("burst-error={}", self.burst_error));
        }
        if self.disk_retries != d.disk_retries {
            parts.push(format!("disk-retries={}", self.disk_retries));
        }
        if self.backoff != d.backoff {
            parts.push(format!("backoff-ms={}", self.backoff.as_millis_f64()));
        }
        if let Some(w) = self.outage {
            parts.push(format!(
                "outage={}:{}",
                w.period.as_secs_f64(),
                w.len.as_secs_f64()
            ));
        }
        if let Some(w) = self.node_outage {
            let key = if self.node_outage_wipe {
                "node-outage-wipe"
            } else {
                "node-outage"
            };
            parts.push(format!(
                "{key}={}:{}",
                w.period.as_secs_f64(),
                w.len.as_secs_f64()
            ));
        }
        if self.net_loss != d.net_loss {
            parts.push(format!("net-loss={}", self.net_loss));
        }
        if self.net_delay_p != d.net_delay_p || self.net_delay != d.net_delay {
            parts.push(format!(
                "net-delay={}:{}",
                self.net_delay_p,
                self.net_delay.as_millis_f64()
            ));
        }
        if self.net_retries != d.net_retries {
            parts.push(format!("net-retries={}", self.net_retries));
        }
        if self.net_ctrl_retries != d.net_ctrl_retries {
            parts.push(format!("net-ctrl-retries={}", self.net_ctrl_retries));
        }
        parts.join(",")
    }

    /// A seeded random *valid* plan spec, drawing every value from
    /// small discrete menus (integral seconds / milliseconds, short
    /// decimal probabilities) so that spec → plan → canonical → plan
    /// is exact. Fuel for the grammar round-trip fuzz and the chaos
    /// sweep; same seed, same spec.
    ///
    /// About one plan in eight is *retry-heavy*: frequent disk errors,
    /// 3–5 retries backing off 500–1800 ms each (at most 55.8 s per
    /// dispatch) and disk outages a few seconds apart. Its services
    /// outlive outage periods, so an aborted job's stale completion can
    /// arrive before an older one's and the requeue must pair each
    /// with its own record. The family is chosen by a separate draw, so
    /// every other plan is the spec it was before the family existed.
    pub fn random_spec(seed: u64) -> String {
        let mut rng = Rng64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xFA17_57EC);
        const PROBS: [&str; 6] = ["0.001", "0.005", "0.01", "0.02", "0.05", "0.1"];
        const PERIODS: [u64; 4] = [30, 60, 120, 300];
        let pick = |rng: &mut Rng64, xs: &[&str]| {
            xs[rng.range_u64(0, xs.len() as u64 - 1) as usize].to_string()
        };
        if Rng64::new(seed ^ 0x8E7B_AC0F).chance(0.125) {
            let plan_seed = rng.range_u64(1, 1 << 20);
            let disk_error = pick(&mut rng, &["0.1", "0.3", "0.5", "0.9"]);
            let retries = rng.range_u64(3, 5);
            let backoff = rng.range_u64(500, 1800);
            let period = rng.range_u64(2, 5);
            let len = rng.range_u64(1, period - 1);
            return format!(
                "seed={plan_seed},disk-error={disk_error},disk-retries={retries},\
                 backoff-ms={backoff},outage={period}:{len}"
            );
        }
        let mut parts: Vec<String> = vec![format!("seed={}", rng.range_u64(1, 1 << 20))];
        let window = |rng: &mut Rng64| {
            let period = PERIODS[rng.range_u64(0, PERIODS.len() as u64 - 1) as usize];
            let len = (period / rng.range_u64(4, 12)).max(1);
            format!("{period}:{len}")
        };
        if rng.chance(0.7) {
            parts.push(format!("disk-error={}", pick(&mut rng, &PROBS)));
            if rng.chance(0.5) {
                parts.push(format!("disk-retries={}", rng.range_u64(1, 5)));
            }
            if rng.chance(0.4) {
                parts.push(format!("backoff-ms={}", rng.range_u64(0, 10)));
            }
        }
        if rng.chance(0.4) {
            parts.push(format!("burst={}", window(&mut rng)));
            if rng.chance(0.5) {
                parts.push(format!("burst-error=0.{}", rng.range_u64(2, 9)));
            }
        }
        if rng.chance(0.5) {
            parts.push(format!("outage={}", window(&mut rng)));
        }
        if rng.chance(0.5) {
            let key = if rng.chance(0.5) {
                "node-outage-wipe"
            } else {
                "node-outage"
            };
            parts.push(format!("{key}={}", window(&mut rng)));
        }
        if rng.chance(0.4) {
            parts.push(format!("net-loss={}", pick(&mut rng, &PROBS)));
            if rng.chance(0.5) {
                parts.push(format!("net-retries={}", rng.range_u64(1, 4)));
            }
            if rng.chance(0.3) {
                parts.push(format!("net-ctrl-retries={}", rng.range_u64(0, 2)));
            }
        }
        if rng.chance(0.4) {
            parts.push(format!(
                "net-delay={}:{}",
                pick(&mut rng, &PROBS),
                rng.range_u64(1, 5)
            ));
        }
        parts.join(",")
    }
}

/// Aggregate fault-injection counters, registered under `fault.*`.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct FaultStats {
    /// Dispatches that drew at least one failed attempt.
    pub injected: u64,
    /// Total failed disk attempts (each re-paid the attempt + backoff).
    pub retries: u64,
    /// Jobs aborted mid-service by an outage and re-queued.
    pub failovers: u64,
    /// Disk outage windows entered.
    pub disk_outages: u64,
    /// Node outage windows entered.
    pub node_outages: u64,
    /// Lost network message attempts (each re-paid the transfer).
    pub net_lost: u64,
    /// Remote deliveries that drew the extra delay.
    pub net_delayed: u64,
    /// Prefetch pumps suppressed because the target disk was in an
    /// error burst.
    pub prefetch_suppressed: u64,
}

impl FaultStats {
    /// Register every counter under `fault.*`. Called with
    /// `FaultStats::default()` when no plan is active, so the metrics
    /// schema is identical for fault-free runs.
    pub fn register_into(&self, reg: &mut Registry) {
        reg.counter("fault.injected", self.injected);
        reg.counter("fault.retries", self.retries);
        reg.counter("fault.failovers", self.failovers);
        reg.counter("fault.disk_outages", self.disk_outages);
        reg.counter("fault.node_outages", self.node_outages);
        reg.counter("fault.net_lost", self.net_lost);
        reg.counter("fault.net_delayed", self.net_delayed);
        reg.counter("fault.prefetch_suppressed", self.prefetch_suppressed);
    }
}

/// Extra time a remote delivery pays for network faults.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct NetExtra {
    /// Re-paid transfers for lost attempts (span component: retry).
    pub retry: SimDuration,
    /// Added propagation delay (span component: network).
    pub delay: SimDuration,
    /// Lost attempts drawn (bounded by the class budget).
    pub lost: u32,
}

impl NetExtra {
    /// Total extra latency.
    pub fn total(&self) -> SimDuration {
        self.retry + self.delay
    }
}

/// Runtime fault state: the plan, its private draw stream, counters,
/// and per-node degraded-mode residency tracking.
#[derive(Clone, Debug)]
pub struct FaultState {
    /// The immutable plan this state executes.
    pub plan: FaultPlan,
    /// Counters (incremented here and by the driving event loop).
    pub stats: FaultStats,
    rng: Rng64,
    degraded_since: Vec<Option<SimTime>>,
    degraded_total: Vec<SimDuration>,
}

impl FaultState {
    /// Build the runtime state for a machine with `nodes` cache nodes.
    pub fn new(plan: FaultPlan, nodes: usize) -> Self {
        FaultState {
            rng: Rng64::new(plan.seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0xFA17),
            plan,
            stats: FaultStats::default(),
            degraded_since: vec![None; nodes],
            degraded_total: vec![SimDuration::ZERO; nodes],
        }
    }

    /// Transient-error surcharge for one dispatch on `disk` whose
    /// successful attempt costs `attempt`. Draws nothing when the
    /// effective error rate is zero.
    pub fn disk_surcharge(
        &mut self,
        disk: usize,
        now: SimTime,
        attempt: SimDuration,
    ) -> SimDuration {
        let p = if self.plan.in_burst(disk, now) {
            self.plan.burst_error.max(self.plan.disk_error)
        } else {
            self.plan.disk_error
        };
        if p <= 0.0 {
            return SimDuration::ZERO;
        }
        let mut extra = SimDuration::ZERO;
        let mut failed = 0u32;
        while failed < self.plan.disk_retries && self.rng.chance(p) {
            extra += attempt + self.plan.backoff * (1u64 << failed.min(16));
            failed += 1;
        }
        if failed > 0 {
            self.stats.injected += 1;
            self.stats.retries += u64::from(failed);
        }
        extra
    }

    /// Network fault draw for one remote delivery whose single attempt
    /// costs `attempt`. Lost attempts re-pay the transfer (bounded by
    /// the class retry budget); the final attempt always succeeds.
    pub fn net_extra(&mut self, class: NetClass, attempt: SimDuration) -> NetExtra {
        let mut out = NetExtra::default();
        let budget = match class {
            NetClass::Control => self.plan.net_ctrl_retries,
            NetClass::Data => self.plan.net_retries,
        };
        if self.plan.net_loss > 0.0 {
            while out.lost < budget && self.rng.chance(self.plan.net_loss) {
                out.retry += attempt;
                out.lost += 1;
            }
            self.stats.net_lost += u64::from(out.lost);
        }
        if self.plan.net_delay_p > 0.0
            && self.plan.net_delay > SimDuration::ZERO
            && self.rng.chance(self.plan.net_delay_p)
        {
            out.delay = self.plan.net_delay;
            self.stats.net_delayed += 1;
        }
        out
    }

    /// Mark node `node` degraded from `now` (idempotent).
    pub fn degraded_enter(&mut self, node: usize, now: SimTime) {
        if self.degraded_since[node].is_none() {
            self.degraded_since[node] = Some(now);
            self.stats.node_outages += 1;
        }
    }

    /// Mark node `node` healthy again at `now`.
    pub fn degraded_exit(&mut self, node: usize, now: SimTime) {
        if let Some(since) = self.degraded_since[node].take() {
            self.degraded_total[node] += now.saturating_since(since);
        }
    }

    /// Close any open degraded intervals at end of run.
    pub fn degraded_finalize(&mut self, now: SimTime) {
        for node in 0..self.degraded_since.len() {
            self.degraded_exit(node, now);
        }
    }

    /// Per-node degraded residency so far (seconds), for nodes with a
    /// nonzero total, in node order.
    pub fn degraded_residency(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.degraded_total
            .iter()
            .enumerate()
            .filter(|(_, d)| **d > SimDuration::ZERO)
            .map(|(n, d)| (n, d.as_secs_f64()))
    }

    /// Total degraded residency summed over nodes (seconds).
    pub fn degraded_total_s(&self) -> f64 {
        self.degraded_total.iter().map(|d| d.as_secs_f64()).sum()
    }
}

/// One disk's pricing model under a fault plan: prices through `inner`
/// at dispatch time, then adds [`FaultState::disk_surcharge`] to both
/// `total` and `retry` of the cost, so the mechanical breakdown of the
/// successful attempt is untouched.
pub struct FaultedDisk<'a> {
    /// The fault-free disk pricing model.
    pub inner: &'a mut dyn ServiceModel,
    /// The shared fault state.
    pub state: &'a mut FaultState,
    /// Which disk is dispatching.
    pub disk: usize,
}

impl ServiceModel for FaultedDisk<'_> {
    fn position(&self) -> u64 {
        self.inner.position()
    }

    fn service(&mut self, now: SimTime, job: &JobSpec) -> ServiceCost {
        let mut cost = self.inner.service(now, job);
        let extra = self.state.disk_surcharge(self.disk, now, cost.total);
        if extra > SimDuration::ZERO {
            cost.total += extra;
            cost.retry += extra;
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs_f64(s as f64)
    }

    #[test]
    fn parse_round_trips_every_key() {
        let p = FaultPlan::parse(
            "seed=7,disk-error=0.02,disk-retries=4,backoff-ms=5,burst=60:5,burst-error=0.5,\
             outage=120:10,node-outage=300:20,net-loss=0.01,net-delay=0.05:2,net-retries=3,\
             net-ctrl-retries=2",
        )
        .unwrap();
        assert_eq!(p.seed, 7);
        assert_eq!(p.disk_error, 0.02);
        assert_eq!(p.disk_retries, 4);
        assert_eq!(p.backoff, SimDuration::from_millis(5));
        assert_eq!(
            p.burst,
            Some(Window {
                period: secs(60),
                len: secs(5)
            })
        );
        assert_eq!(p.burst_error, 0.5);
        assert_eq!(
            p.outage,
            Some(Window {
                period: secs(120),
                len: secs(10)
            })
        );
        assert_eq!(
            p.node_outage,
            Some(Window {
                period: secs(300),
                len: secs(20)
            })
        );
        assert_eq!(p.net_loss, 0.01);
        assert_eq!(p.net_delay_p, 0.05);
        assert_eq!(p.net_delay, SimDuration::from_millis(2));
        assert_eq!((p.net_retries, p.net_ctrl_retries), (3, 2));
        assert!(!p.is_empty());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultPlan::parse("disk-error").is_err());
        assert!(FaultPlan::parse("frob=1").is_err());
        assert!(FaultPlan::parse("burst=5").is_err());
        assert!(FaultPlan::parse("burst=5:10").is_err(), "len >= period");
        assert!(FaultPlan::parse("net-delay=0.1").is_err());
        assert!(FaultPlan::parse("burst=inf:5").is_err(), "infinite period");
    }

    #[test]
    fn wipe_key_sets_window_and_flag() {
        let p = FaultPlan::parse("node-outage-wipe=300:20").unwrap();
        assert!(p.node_outage_wipe);
        assert_eq!(
            p.node_outage,
            Some(Window {
                period: secs(300),
                len: secs(20)
            })
        );
        assert!(!p.is_empty());
        let plain = FaultPlan::parse("node-outage=300:20").unwrap();
        assert!(!plain.node_outage_wipe, "plain outages keep content");
    }

    #[test]
    fn parse_errors_carry_key_menu() {
        let e = FaultPlan::parse("frob=1").unwrap_err();
        assert!(e.contains("unknown fault-plan key 'frob'"), "{e}");
        assert!(e.contains("node-outage-wipe"), "menu lists every key: {e}");
        let e = FaultPlan::parse("burst=5").unwrap_err();
        assert!(e.contains("fault-plan keys:"), "all errors carry it: {e}");
        // Non-finite or negative milliseconds and probabilities that
        // are NaN or outside [0, 1] are errors, never clamped or
        // passed on to a panicking duration constructor.
        for spec in [
            "disk-error=nan",
            "disk-error=2",
            "disk-error=-0.1",
            "burst-error=1.5",
            "net-loss=nan",
            "backoff-ms=nan",
            "backoff-ms=-1",
            "backoff-ms=inf",
            "net-delay=0.5:nan",
            "net-delay=0.5:-1",
            "net-delay=nan:2",
            "net-delay=0.5:1e12",
            "backoff-ms=60001",
            // The summed backoff of one dispatch's retries, not only
            // each step, must fit in the same minute.
            "disk-error=1,disk-retries=32,backoff-ms=60000",
            "disk-retries=40,disk-error=0.5",
            "disk-error=1,disk-retries=4000000000",
            // Retry counts are capped on their own: with zero backoff
            // the count alone decides how long one faulted event spins.
            "disk-error=1,disk-retries=3000000,backoff-ms=0",
            "disk-retries=4000000000",
            "net-loss=1,net-retries=4000000000",
            "net-loss=1,net-ctrl-retries=4000000000",
            "disk-error=1,disk-retries=65,backoff-ms=0",
            "net-retries=65",
            "net-ctrl-retries=65",
            "net-retries=-1",
            "burst=60:5,backoff-ms=20000",
            "disk-error=0.1,disk-retries=2,backoff-ms=20001",
        ] {
            let e = FaultPlan::parse(spec).unwrap_err();
            assert!(e.contains("fault-plan keys:"), "'{spec}': {e}");
        }
        assert!(FaultPlan::parse("disk-error=1,backoff-ms=0,net-delay=0:0").is_ok());
        assert!(FaultPlan::parse("backoff-ms=60000,net-delay=1:60000").is_ok());
        // At the bound, and the largest plans the chaos sweep draws
        // (5 retries, 10 ms).
        assert!(FaultPlan::parse("disk-error=1,disk-retries=1,backoff-ms=60000").is_ok());
        assert!(FaultPlan::parse("disk-error=1,disk-retries=2,backoff-ms=20000").is_ok());
        assert!(FaultPlan::parse("disk-error=1,disk-retries=5,backoff-ms=10").is_ok());
        // The retry cap itself.
        let p = FaultPlan::parse(
            "disk-error=1,disk-retries=64,backoff-ms=0,net-loss=1,net-retries=64,\
             net-ctrl-retries=64",
        )
        .unwrap();
        assert_eq!(
            (p.disk_retries, p.net_retries, p.net_ctrl_retries),
            (64, 64, 64)
        );
    }

    #[test]
    fn canonical_round_trips() {
        let specs = [
            "",
            "seed=7,disk-error=0.02,disk-retries=4,backoff-ms=5,burst=60:5,burst-error=0.5,\
             outage=120:10,node-outage=300:20,net-loss=0.01,net-delay=0.05:2,net-retries=4,\
             net-ctrl-retries=2",
            // The burst-error defaulting rule must be pinned by the
            // canonical form, not re-derived at re-parse time.
            "disk-error=0.01,burst=60:5",
            "node-outage-wipe=120:10",
            "backoff-ms=0,net-delay=0.5:3",
        ];
        for spec in specs {
            let p = FaultPlan::parse(spec).unwrap();
            let c = p.canonical();
            let p2 = FaultPlan::parse(&c).unwrap_or_else(|e| panic!("'{c}': {e}"));
            assert_eq!(p, p2, "'{spec}' -> '{c}'");
            assert_eq!(p2.canonical(), c, "canonical is a fixed point: '{c}'");
        }
    }

    #[test]
    fn random_specs_parse_and_round_trip() {
        for seed in 0..500u64 {
            let spec = FaultPlan::random_spec(seed);
            let p =
                FaultPlan::parse(&spec).unwrap_or_else(|e| panic!("seed {seed}: '{spec}': {e}"));
            let c = p.canonical();
            let p2 = FaultPlan::parse(&c).unwrap_or_else(|e| panic!("seed {seed}: '{c}': {e}"));
            assert_eq!(p, p2, "seed {seed}: '{spec}' -> '{c}'");
            assert_eq!(p2.canonical(), c, "seed {seed}: fixed point");
        }
        assert_eq!(
            FaultPlan::random_spec(9),
            FaultPlan::random_spec(9),
            "same seed, same spec"
        );
    }

    /// A minority of random plans is retry-heavy, and every one of them
    /// stays inside the per-dispatch backoff cap.
    #[test]
    fn random_specs_include_a_retry_heavy_minority() {
        let heavy = (0..2000u64)
            .map(|seed| FaultPlan::parse(&FaultPlan::random_spec(seed)).unwrap())
            .filter(|p| p.backoff >= SimDuration::from_millis(500))
            .inspect(|p| {
                assert!((3..=5).contains(&p.disk_retries), "{}", p.canonical());
                assert!(p.worst_backoff_ms() <= MAX_MS, "{}", p.canonical());
                assert!(p.outage.unwrap().period <= SimDuration::from_secs(5));
            })
            .count();
        assert!(
            (150..=350).contains(&heavy),
            "{heavy} of 2000 plans are retry-heavy"
        );
    }

    #[test]
    fn burst_error_defaults_from_disk_error() {
        let p = FaultPlan::parse("disk-error=0.01,burst=60:5").unwrap();
        assert_eq!(p.burst_error, 0.25);
        let p = FaultPlan::parse("disk-error=0.05,burst=60:5").unwrap();
        assert_eq!(p.burst_error, 0.5);
    }

    #[test]
    fn empty_plan_is_empty_and_draws_nothing() {
        let p = FaultPlan::parse("").unwrap();
        assert!(p.is_empty());
        let mut a = FaultState::new(p, 4);
        let mut b = FaultState::new(p, 4);
        for i in 0..100 {
            assert_eq!(
                a.disk_surcharge(i % 3, SimTime::ZERO + secs(i as u64), secs(1)),
                SimDuration::ZERO
            );
        }
        // No draw was consumed: a later real draw matches a fresh state.
        let mut plan = p;
        plan.disk_error = 1.0;
        a.plan = plan;
        b.plan = plan;
        assert_eq!(
            a.disk_surcharge(0, SimTime::ZERO, secs(1)),
            b.disk_surcharge(0, SimTime::ZERO, secs(1))
        );
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn surcharge_is_bounded_and_counted() {
        let p = FaultPlan::parse("disk-error=1.0,disk-retries=3,backoff-ms=1").unwrap();
        let mut s = FaultState::new(p, 1);
        let attempt = SimDuration::from_millis(10);
        let extra = s.disk_surcharge(0, SimTime::ZERO, attempt);
        // p=1: always the full 3 retries. 3 attempts + 1+2+4 ms backoff.
        assert_eq!(extra, attempt * 3 + SimDuration::from_millis(7));
        assert_eq!(s.stats.injected, 1);
        assert_eq!(s.stats.retries, 3);
    }

    #[test]
    fn same_seed_same_fault_stream() {
        let p = FaultPlan::parse("seed=9,disk-error=0.3,net-loss=0.2").unwrap();
        let mut a = FaultState::new(p, 2);
        let mut b = FaultState::new(p, 2);
        for i in 0..200u64 {
            let t = SimTime::ZERO + SimDuration::from_millis(i);
            assert_eq!(
                a.disk_surcharge(0, t, secs(1)),
                b.disk_surcharge(0, t, secs(1))
            );
            assert_eq!(
                a.net_extra(NetClass::Data, SimDuration::from_micros(50)),
                b.net_extra(NetClass::Data, SimDuration::from_micros(50))
            );
        }
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn burst_windows_are_phased_and_periodic() {
        let p = FaultPlan::parse("seed=3,burst=60:5").unwrap();
        // Membership is a pure function of time: one period later, the
        // answer repeats; and across a whole period the window is open
        // for exactly `len` out of `period`.
        let mut open = 0u64;
        for s in 0..60u64 {
            let t = SimTime::ZERO + secs(100) + secs(s);
            if p.in_burst(0, t) {
                open += 1;
            }
            assert_eq!(p.in_burst(0, t), p.in_burst(0, t + secs(60)));
        }
        assert!((4..=6).contains(&open), "window open {open}s of 60s");
        // Different disks get different phases (with overwhelming
        // probability for this seed).
        let d0: Vec<bool> = (0..60)
            .map(|s| p.in_burst(0, SimTime::ZERO + secs(s)))
            .collect();
        let d1: Vec<bool> = (0..60)
            .map(|s| p.in_burst(1, SimTime::ZERO + secs(s)))
            .collect();
        assert_ne!(d0, d1);
    }

    #[test]
    fn outage_schedule_is_deterministic() {
        let p = FaultPlan::parse("seed=5,outage=120:10,node-outage=300:20").unwrap();
        let d = p.first_disk_down(2).unwrap();
        assert_eq!(p.first_disk_down(2), Some(d));
        assert!(d.saturating_since(SimTime::ZERO) < secs(120));
        let n = p.first_node_down(7).unwrap();
        assert!(n.saturating_since(SimTime::ZERO) < secs(300));
        assert!(FaultPlan::none().first_disk_down(0).is_none());
    }

    #[test]
    fn net_budget_bounds_lost_attempts() {
        let p = FaultPlan::parse("net-loss=1.0,net-retries=4,net-ctrl-retries=1").unwrap();
        let mut s = FaultState::new(p, 1);
        let attempt = SimDuration::from_micros(100);
        let data = s.net_extra(NetClass::Data, attempt);
        assert_eq!(data.lost, 4);
        assert_eq!(data.retry, attempt * 4);
        let ctrl = s.net_extra(NetClass::Control, attempt);
        assert_eq!(ctrl.lost, 1);
        assert_eq!(s.stats.net_lost, 5);
    }

    #[test]
    fn degraded_residency_accumulates_per_node() {
        let mut s = FaultState::new(FaultPlan::none(), 3);
        s.degraded_enter(1, SimTime::ZERO + secs(10));
        s.degraded_enter(1, SimTime::ZERO + secs(12)); // idempotent
        s.degraded_exit(1, SimTime::ZERO + secs(15));
        s.degraded_enter(2, SimTime::ZERO + secs(20));
        s.degraded_finalize(SimTime::ZERO + secs(30));
        let rows: Vec<_> = s.degraded_residency().collect();
        assert_eq!(rows, vec![(1, 5.0), (2, 10.0)]);
        assert_eq!(s.degraded_total_s(), 15.0);
        assert_eq!(s.stats.node_outages, 2);
    }

    /// A constant-cost disk with a mechanical breakdown, so the test
    /// can see that the surcharge leaves it alone.
    struct Flat(ServiceCost);

    impl ServiceModel for Flat {
        fn service(&mut self, _now: SimTime, _job: &JobSpec) -> ServiceCost {
            self.0
        }
    }

    #[test]
    fn surcharge_lands_in_total_and_retry() {
        let r = SimDuration::from_millis(10);
        let mut inner = Flat(ServiceCost {
            mech: Some(simkit::MechDetail {
                seek_cylinders: 7,
                rot_wait: SimDuration::from_micros(300),
            }),
            ..ServiceCost::flat(r)
        });
        let job = JobSpec {
            op: simkit::DeviceOp::Read,
            pos: None,
            bytes: 8192,
            blocks: 1,
            rid: 0,
        };
        let mut price = |plan: &str| {
            let mut state = FaultState::new(FaultPlan::parse(plan).unwrap(), 1);
            let mut disk = FaultedDisk {
                inner: &mut inner,
                state: &mut state,
                disk: 0,
            };
            disk.service(SimTime::ZERO, &job)
        };
        let clean = price("");
        assert_eq!(clean.total, r);
        assert_eq!(clean.retry, SimDuration::ZERO);
        // One failed attempt re-pays the attempt plus one backoff.
        let faulted = price("disk-error=1.0,disk-retries=1,backoff-ms=1");
        assert_eq!(faulted.retry, r + SimDuration::from_millis(1));
        assert_eq!(faulted.total, r + faulted.retry);
        // The successful attempt's breakdown is untouched.
        assert_eq!(faulted.mech, clean.mech);
    }

    #[test]
    fn fault_stats_register_stable_schema() {
        let mut reg = Registry::new();
        FaultStats::default().register_into(&mut reg);
        let keys: Vec<&str> = reg.iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            vec![
                "fault.injected",
                "fault.retries",
                "fault.failovers",
                "fault.disk_outages",
                "fault.node_outages",
                "fault.net_lost",
                "fault.net_delayed",
                "fault.prefetch_suppressed",
            ]
        );
    }
}
