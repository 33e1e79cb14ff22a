//! Deterministic fault injection: time-windowed, scoped impairments.
//!
//! A [`FaultPlan`] is a schedule of impairment rules — loss bursts,
//! latency spikes, packet reordering, blackhole windows, and host
//! crash/restart windows — each active during a virtual-time window and
//! limited to a [`FaultScope`] (the whole network, one host's access
//! link, or one directed link).
//!
//! Every probabilistic decision is derived by *hashing* the flow
//! coordinates — `(src, dst, per-pair datagram ordinal, rule index,
//! plan seed)` — rather than by consuming shared RNG state. The nth
//! datagram between a host pair therefore receives the same draw no
//! matter what other traffic exists in the simulation, which makes
//! chaos runs reproducible *and* shard-invariant: partitioning a
//! campaign across shards never changes which packets a fault hits.
//! Purely time-based faults (blackhole, crash) are trivially invariant.
//!
//! # The `--faults FILE.json` schema
//!
//! A plan also loads from a JSON document
//! ([`FaultPlan::from_json_str`]) so an operator can script impairments
//! without recompiling:
//!
//! ```json
//! {"seed": 7, "rules": [
//!   {"from": {"secs": 0, "nanos": 0}, "until": {"secs": 60, "nanos": 0},
//!    "scope": "All", "kind": {"Loss": {"probability": 0.1}}}
//! ]}
//! ```
//!
//! Durations are `{"secs", "nanos"}` offsets from simulation start.
//! `scope` is `"All"`, `{"Host": "a.b.c.d"}` or `{"Link": {"src": ..,
//! "dst": ..}}`; `kind` is `"Blackhole"`, `"Crash"`, `{"Loss":
//! {"probability": p}}`, `{"Duplicate": {"probability": p}}`, `{"Delay":
//! {"extra": DURATION, "jitter": DURATION}}` or `{"Reorder":
//! {"probability": p, "max_shift": DURATION}}`. Loading rejects unknown
//! variants, missing members and everything [`FaultPlan::validate`]
//! does, naming the offending member.

use std::net::Ipv4Addr;
use std::time::Duration;

use orscope_json::Wire;

use crate::fxhash::FxHashMap;
use crate::latency::mix;
use crate::time::SimTime;

/// Which traffic a rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScope {
    /// Every datagram in the simulation.
    All,
    /// Traffic to or from one host (its access link), and — for
    /// [`FaultKind::Crash`] — the host itself.
    Host(Ipv4Addr),
    /// One directed link only.
    Link {
        /// Sending host.
        src: Ipv4Addr,
        /// Receiving host.
        dst: Ipv4Addr,
    },
}

impl FaultScope {
    /// Whether a datagram from `src` to `dst` falls inside this scope.
    pub fn matches(&self, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        match self {
            FaultScope::All => true,
            FaultScope::Host(host) => src == *host || dst == *host,
            FaultScope::Link { src: s, dst: d } => src == *s && dst == *d,
        }
    }

    /// Whether `addr` itself is inside this scope (crash semantics).
    pub(crate) fn covers_host(&self, addr: Ipv4Addr) -> bool {
        match self {
            FaultScope::All => true,
            FaultScope::Host(host) => *host == addr,
            FaultScope::Link { .. } => false,
        }
    }

    fn from_wire(wire: &Wire) -> Result<Self, String> {
        read_variant(wire, |name, body| {
            Ok(match (name, body) {
                ("All", Wire::Null) => FaultScope::All,
                ("Host", host) => FaultScope::Host(ip_from_wire(host)?),
                ("Link", link) => FaultScope::Link {
                    src: link.field_as("src", ip_from_wire)?,
                    dst: link.field_as("dst", ip_from_wire)?,
                },
                _ => return Err("unknown variant (expected All, Host or Link)".to_owned()),
            })
        })
    }
}

/// Reads the externally tagged form of an enum — `"Name"` for a unit
/// variant (`read` sees a `null` payload), `{"Name": payload}` otherwise
/// — and prefixes what `read` rejects with the variant's name.
fn read_variant<T>(
    wire: &Wire,
    read: impl FnOnce(&str, &Wire) -> Result<T, String>,
) -> Result<T, String> {
    let (name, payload) = match wire {
        Wire::Str(name) => (name, &Wire::Null),
        Wire::Obj(members) if members.len() == 1 => (&members[0].0, &members[0].1),
        other => {
            return Err(format!(
                "expected a variant name or a one-member object, got {other:?}"
            ))
        }
    };
    read(name, payload).map_err(|err| format!("{name}: {err}"))
}

fn ip_from_wire(wire: &Wire) -> Result<Ipv4Addr, String> {
    let text = wire.as_str()?;
    text.parse()
        .map_err(|_| format!("{text:?} is not an IPv4 address"))
}

fn duration_from_wire(wire: &Wire) -> Result<Duration, String> {
    let nanos: u32 = wire.field_as("nanos", Wire::as_uint)?;
    if nanos >= 1_000_000_000 {
        return Err(format!("nanos: {nanos} is a whole second or more"));
    }
    Ok(Duration::new(wire.field_as("secs", Wire::as_u64)?, nanos))
}

/// The impairment a rule applies while active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Drop each matching datagram independently with `probability`.
    Loss {
        /// Per-datagram drop probability in `[0, 1]`.
        probability: f64,
    },
    /// Deliver an extra trailing copy with `probability` (UDP may
    /// deliver twice; the copy trails the original by a few ms).
    Duplicate {
        /// Per-datagram duplication probability in `[0, 1]`.
        probability: f64,
    },
    /// Add `extra` one-way delay plus a hashed per-datagram jitter
    /// drawn uniformly from `[0, jitter)` (a latency spike window).
    Delay {
        /// Fixed additional one-way delay.
        extra: Duration,
        /// Upper bound (exclusive) of per-datagram jitter.
        jitter: Duration,
    },
    /// With `probability`, hold a datagram back by a hashed shift in
    /// `(0, max_shift]` so later traffic on the link overtakes it.
    Reorder {
        /// Per-datagram reorder probability in `[0, 1]`.
        probability: f64,
        /// Largest hold-back applied to a reordered datagram.
        max_shift: Duration,
    },
    /// Drop every matching datagram (a routing blackhole / outage).
    Blackhole,
    /// The scoped host is down: deliveries *and* timer fires addressed
    /// to it are dropped while the window is active. Endpoint state
    /// survives (a warm restart at window end).
    Crash,
}

impl FaultKind {
    fn probability(&self) -> Option<f64> {
        match self {
            FaultKind::Loss { probability }
            | FaultKind::Duplicate { probability }
            | FaultKind::Reorder { probability, .. } => Some(*probability),
            _ => None,
        }
    }

    fn from_wire(wire: &Wire) -> Result<Self, String> {
        read_variant(wire, |name, body| {
            let probability = || body.field_as("probability", Wire::as_f64);
            let duration = |member| body.field_as(member, duration_from_wire);
            Ok(match (name, body) {
                ("Loss", _) => FaultKind::Loss {
                    probability: probability()?,
                },
                ("Duplicate", _) => FaultKind::Duplicate {
                    probability: probability()?,
                },
                ("Delay", _) => FaultKind::Delay {
                    extra: duration("extra")?,
                    jitter: duration("jitter")?,
                },
                ("Reorder", _) => FaultKind::Reorder {
                    probability: probability()?,
                    max_shift: duration("max_shift")?,
                },
                ("Blackhole", Wire::Null) => FaultKind::Blackhole,
                ("Crash", Wire::Null) => FaultKind::Crash,
                _ => {
                    return Err(
                        "unknown variant (expected Loss, Duplicate, Delay, Reorder, \
                                Blackhole or Crash)"
                            .to_owned(),
                    )
                }
            })
        })
    }
}

/// One scheduled impairment: a kind, a scope, and an active window
/// `[from, until)` in virtual time since simulation start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRule {
    /// Window start (inclusive), as an offset from simulation start.
    pub from: Duration,
    /// Window end (exclusive).
    pub until: Duration,
    /// Which traffic or host the rule applies to.
    pub scope: FaultScope,
    /// The impairment applied while the window is active.
    pub kind: FaultKind,
}

impl FaultRule {
    /// A rule active during `[from, until)`.
    pub fn window(from: Duration, until: Duration, scope: FaultScope, kind: FaultKind) -> Self {
        Self {
            from,
            until,
            scope,
            kind,
        }
    }

    /// A rule active for the whole simulation.
    pub fn always(scope: FaultScope, kind: FaultKind) -> Self {
        Self::window(Duration::ZERO, Duration::MAX, scope, kind)
    }

    /// Whether the rule's window covers virtual time `now`.
    pub(crate) fn active_at(&self, now: SimTime) -> bool {
        let offset = now.since(SimTime::ZERO);
        self.from <= offset && offset < self.until
    }

    fn from_wire(wire: &Wire) -> Result<Self, String> {
        Ok(Self {
            from: wire.field_as("from", duration_from_wire)?,
            until: wire.field_as("until", duration_from_wire)?,
            scope: wire.field_as("scope", FaultScope::from_wire)?,
            kind: wire.field_as("kind", FaultKind::from_wire)?,
        })
    }
}

/// A reproducible schedule of impairments.
///
/// The plan's `seed` drives every hashed draw; two runs with the same
/// plan (and traffic) experience byte-identical faults. An empty plan
/// is a fault-free network.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for the hashed per-datagram draws.
    pub seed: u64,
    /// Rules, evaluated in order per datagram; the first dropping rule
    /// wins, delay/reorder shifts accumulate.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty plan with an explicit draw seed.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            rules: Vec::new(),
        }
    }

    /// Appends a rule, builder-style.
    #[must_use]
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Appends a rule.
    pub fn push(&mut self, rule: FaultRule) {
        self.rules.push(rule);
    }

    /// Whether the plan has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The degenerate plan a campaign-wide `--loss` maps to.
    pub fn uniform_loss(seed: u64, probability: f64) -> Self {
        Self::seeded(seed).with_rule(FaultRule::always(
            FaultScope::All,
            FaultKind::Loss { probability },
        ))
    }

    /// Loads and [validates](Self::validate) a plan from JSON text (a
    /// `--faults` file), in the layout the module documentation spells
    /// out.
    ///
    /// # Errors
    ///
    /// The syntax error, or the path to the first missing, mistyped,
    /// unknown or out-of-range member, e.g. `rules: rule 0: kind: Loss:
    /// probability: ...`.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let value = Wire::decode(text)?;
        let rules = |rules: &Wire| {
            rules
                .as_arr()?
                .iter()
                .enumerate()
                .map(|(i, rule)| FaultRule::from_wire(rule).map_err(|e| format!("rule {i}: {e}")))
                .collect()
        };
        let plan = Self {
            seed: value.field_as("seed", Wire::as_u64)?,
            rules: value.field_as("rules", rules)?,
        };
        plan.validate()?;
        Ok(plan)
    }

    /// Validates every rule: probabilities in `[0, 1]`, non-empty
    /// windows, and crash scopes that name a host.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid rule.
    pub fn validate(&self) -> Result<(), String> {
        for (i, rule) in self.rules.iter().enumerate() {
            if let Some(p) = rule.kind.probability() {
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("rule {i}: probability {p} not in [0,1]"));
                }
            }
            if rule.from >= rule.until {
                return Err(format!(
                    "rule {i}: empty window [{:?}, {:?})",
                    rule.from, rule.until
                ));
            }
            if matches!(rule.kind, FaultKind::Crash)
                && matches!(rule.scope, FaultScope::Link { .. })
            {
                return Err(format!("rule {i}: crash cannot be scoped to a link"));
            }
        }
        Ok(())
    }
}

/// What the injector decided for one datagram send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SendVerdict {
    /// Drop the datagram entirely, and why.
    pub drop: Option<DropKind>,
    /// Extra one-way delay accumulated from delay/reorder rules.
    pub(crate) extra_delay: Duration,
    /// Deliver a trailing duplicate copy.
    pub duplicate: bool,
    /// Number of impairments applied (for `faults_injected`).
    pub faults: u64,
}

/// Why a datagram was dropped at send time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DropKind {
    /// A probabilistic loss rule fired.
    Loss,
    /// A blackhole window swallowed it.
    Blackhole,
}

const CLEAN: SendVerdict = SendVerdict {
    drop: None,
    extra_delay: Duration::ZERO,
    duplicate: false,
    faults: 0,
};

/// Evaluates a [`FaultPlan`] against live traffic, keeping the
/// per-pair datagram ordinals the hashed draws are keyed on.
#[derive(Debug, Default)]
pub(crate) struct FaultInjector {
    plan: FaultPlan,
    /// Ordinal of the next datagram per `(src, dst)` pair. Only
    /// maintained when the plan contains probabilistic rules.
    counters: FxHashMap<(u32, u32), u64>,
    needs_counters: bool,
    has_crash: bool,
}

impl FaultInjector {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let needs_counters = plan.rules.iter().any(|r| r.kind.probability().is_some());
        let has_crash = plan
            .rules
            .iter()
            .any(|r| matches!(r.kind, FaultKind::Crash));
        Self {
            plan,
            counters: FxHashMap::default(),
            needs_counters,
            has_crash,
        }
    }

    /// Uniform draw in `[0, 1)` for ordinal `n` on `(src, dst)` under
    /// rule `rule` and sub-channel `salt` (0 = occurrence, 1 = magnitude).
    fn draw(&self, rule: usize, salt: u64, src: u32, dst: u32, n: u64) -> f64 {
        let pair = ((src as u64) << 32) | dst as u64;
        let lane = self
            .plan
            .seed
            .wrapping_add((rule as u64).wrapping_mul(0xA24B_AED4_963E_E407))
            .wrapping_add(salt.wrapping_mul(0x9FB2_1C65_1E98_DF25));
        let h = mix(n.wrapping_add(mix(pair, lane)), lane);
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Decides the fate of a datagram handed to the wire at `now`.
    pub(crate) fn on_send(&mut self, src: Ipv4Addr, dst: Ipv4Addr, now: SimTime) -> SendVerdict {
        if self.plan.rules.is_empty() {
            return CLEAN;
        }
        let (s, d) = (u32::from(src), u32::from(dst));
        let n = if self.needs_counters {
            let counter = self.counters.entry((s, d)).or_insert(0);
            let n = *counter;
            *counter += 1;
            n
        } else {
            0
        };
        let mut verdict = CLEAN;
        for (i, rule) in self.plan.rules.iter().enumerate() {
            if !rule.active_at(now) || !rule.scope.matches(src, dst) {
                continue;
            }
            match rule.kind {
                FaultKind::Loss { probability } => {
                    if self.draw(i, 0, s, d, n) < probability {
                        verdict.drop = Some(DropKind::Loss);
                        verdict.faults += 1;
                        return verdict;
                    }
                }
                FaultKind::Blackhole => {
                    verdict.drop = Some(DropKind::Blackhole);
                    verdict.faults += 1;
                    return verdict;
                }
                FaultKind::Duplicate { probability } => {
                    if !verdict.duplicate && self.draw(i, 0, s, d, n) < probability {
                        verdict.duplicate = true;
                        verdict.faults += 1;
                    }
                }
                FaultKind::Delay { extra, jitter } => {
                    let mut shift = extra;
                    let jitter_ns = jitter.as_nanos().min(u128::from(u64::MAX)) as u64;
                    if jitter_ns > 0 {
                        let scaled = (self.draw(i, 1, s, d, n) * jitter_ns as f64) as u64;
                        shift += Duration::from_nanos(scaled);
                    }
                    if !shift.is_zero() {
                        verdict.extra_delay += shift;
                        verdict.faults += 1;
                    }
                }
                FaultKind::Reorder {
                    probability,
                    max_shift,
                } => {
                    if self.draw(i, 0, s, d, n) < probability {
                        let span = max_shift.as_nanos().min(u128::from(u64::MAX)) as u64;
                        // (0, max_shift]: a zero shift would not reorder.
                        let scaled = (self.draw(i, 1, s, d, n) * span as f64) as u64;
                        verdict.extra_delay += Duration::from_nanos(scaled.max(1).min(span.max(1)));
                        verdict.faults += 1;
                    }
                }
                FaultKind::Crash => {} // evaluated at delivery time
            }
        }
        verdict
    }

    /// Whether the plan has no rule at all: every verdict is clean and
    /// no instant differs from another.
    pub(crate) fn is_inert(&self) -> bool {
        self.plan.rules.is_empty()
    }

    /// Whether the plan has a crash rule at all: without one,
    /// [`Self::crashed`] is `false` for every address and instant.
    pub(crate) fn has_crash(&self) -> bool {
        self.has_crash
    }

    /// Whether `addr` is inside an active crash window at `now`.
    pub(crate) fn crashed(&self, addr: Ipv4Addr, now: SimTime) -> bool {
        self.has_crash
            && self.plan.rules.iter().any(|rule| {
                matches!(rule.kind, FaultKind::Crash)
                    && rule.active_at(now)
                    && rule.scope.covers_host(addr)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    const C: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);

    fn secs(s: u64) -> Duration {
        Duration::from_secs(s)
    }

    #[test]
    fn scope_matching() {
        assert!(FaultScope::All.matches(A, B));
        assert!(FaultScope::Host(A).matches(A, B));
        assert!(FaultScope::Host(B).matches(A, B));
        assert!(!FaultScope::Host(C).matches(A, B));
        let link = FaultScope::Link { src: A, dst: B };
        assert!(link.matches(A, B));
        assert!(!link.matches(B, A));
        assert!(FaultScope::All.covers_host(C));
        assert!(FaultScope::Host(A).covers_host(A));
        assert!(!FaultScope::Link { src: A, dst: B }.covers_host(A));
    }

    #[test]
    fn windows_are_half_open() {
        let rule = FaultRule::window(secs(10), secs(20), FaultScope::All, FaultKind::Blackhole);
        assert!(!rule.active_at(SimTime::from_secs(9)));
        assert!(rule.active_at(SimTime::from_secs(10)));
        assert!(rule.active_at(SimTime::from_nanos(19_999_999_999)));
        assert!(!rule.active_at(SimTime::from_secs(20)));
    }

    #[test]
    fn draws_are_per_flow_deterministic() {
        // The nth datagram on a pair gets the same verdict regardless of
        // traffic on other pairs — the shard-invariance property.
        let plan = FaultPlan::uniform_loss(42, 0.5);
        let mut lonely = FaultInjector::new(plan.clone());
        let mut busy = FaultInjector::new(plan);
        let t = SimTime::ZERO;
        for n in 0..100 {
            // Interleave unrelated traffic in one injector only.
            busy.on_send(C, A, t);
            busy.on_send(B, C, t);
            let a = lonely.on_send(A, B, t);
            let b = busy.on_send(A, B, t);
            assert_eq!(a, b, "datagram {n} diverged");
        }
    }

    #[test]
    fn hashed_loss_tracks_probability() {
        let mut injector = FaultInjector::new(FaultPlan::uniform_loss(7, 0.3));
        let dropped = (0..10_000)
            .filter(|_| injector.on_send(A, B, SimTime::ZERO).drop.is_some())
            .count();
        assert!((2_500..3_500).contains(&dropped), "dropped {dropped}");
    }

    #[test]
    fn blackhole_drops_everything_in_window_only() {
        let plan = FaultPlan::seeded(1).with_rule(FaultRule::window(
            secs(5),
            secs(6),
            FaultScope::Host(B),
            FaultKind::Blackhole,
        ));
        let mut injector = FaultInjector::new(plan);
        assert_eq!(injector.on_send(A, B, SimTime::from_secs(4)).drop, None);
        assert_eq!(
            injector.on_send(A, B, SimTime::from_secs(5)).drop,
            Some(DropKind::Blackhole)
        );
        // Both directions of the host's access link are affected...
        assert_eq!(
            injector.on_send(B, A, SimTime::from_secs(5)).drop,
            Some(DropKind::Blackhole)
        );
        // ...but unrelated links are not.
        assert_eq!(injector.on_send(A, C, SimTime::from_secs(5)).drop, None);
        assert_eq!(injector.on_send(A, B, SimTime::from_secs(6)).drop, None);
    }

    #[test]
    fn delay_and_reorder_accumulate_without_dropping() {
        let plan = FaultPlan::seeded(3)
            .with_rule(FaultRule::always(
                FaultScope::All,
                FaultKind::Delay {
                    extra: Duration::from_millis(50),
                    jitter: Duration::from_millis(10),
                },
            ))
            .with_rule(FaultRule::always(
                FaultScope::All,
                FaultKind::Reorder {
                    probability: 1.0,
                    max_shift: Duration::from_millis(5),
                },
            ));
        let mut injector = FaultInjector::new(plan);
        let verdict = injector.on_send(A, B, SimTime::ZERO);
        assert_eq!(verdict.drop, None);
        assert!(verdict.extra_delay >= Duration::from_millis(50));
        assert!(verdict.extra_delay < Duration::from_millis(65));
        assert_eq!(verdict.faults, 2);
    }

    #[test]
    fn crash_covers_host_during_window() {
        let plan = FaultPlan::seeded(0).with_rule(FaultRule::window(
            secs(2),
            secs(4),
            FaultScope::Host(A),
            FaultKind::Crash,
        ));
        let injector = FaultInjector::new(plan);
        assert!(!injector.crashed(A, SimTime::from_secs(1)));
        assert!(injector.crashed(A, SimTime::from_secs(3)));
        assert!(!injector.crashed(B, SimTime::from_secs(3)));
        assert!(!injector.crashed(A, SimTime::from_secs(4)));
    }

    #[test]
    fn validation_rejects_bad_rules() {
        let bad_p = FaultPlan::uniform_loss(0, 1.5);
        assert!(bad_p.validate().unwrap_err().contains("probability"));
        let empty_window = FaultPlan::new().with_rule(FaultRule::window(
            secs(5),
            secs(5),
            FaultScope::All,
            FaultKind::Blackhole,
        ));
        assert!(empty_window.validate().unwrap_err().contains("window"));
        let link_crash = FaultPlan::new().with_rule(FaultRule::always(
            FaultScope::Link { src: A, dst: B },
            FaultKind::Crash,
        ));
        assert!(link_crash.validate().unwrap_err().contains("crash"));
        assert!(FaultPlan::uniform_loss(0, 0.25).validate().is_ok());
    }
}
