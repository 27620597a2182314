//! Fault plans: scheduled network-fault windows, the chaos analogue of
//! [`crate::ChurnPlan`].
//!
//! Where churn flips node liveness, a fault plan degrades the *network*:
//! per-scope windows of loss, duplication, reordering, and payload
//! corruption, realized through the simulator's [`FaultProfile`] control
//! actions. Windows alternate with quiet periods per target (exponentially
//! distributed dwells, like churn), every window is closed by an explicit
//! reset, and [`FaultPlan::healed_by`] bounds when the network is clean
//! again — the anchor for post-heal convergence invariants.

use sds_protocol::{codec, DiscoveryMessage};
use sds_rand::Seed;
use sds_simnet::{ControlAction, FaultProfile, LanId, SimTime};

/// Where a fault window applies.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum FaultTarget {
    Lan(LanId),
    Wan,
    /// One *direction* of one WAN path: messages from the first LAN to the
    /// second. The reverse direction keeps the blanket WAN profile, so a
    /// window over `WanPair(a, b)` is an asymmetric fault (e.g. pings get
    /// through, replies are lost).
    WanPair(LanId, LanId),
}

/// One scheduled fault-profile change. A `FaultProfile::default()` profile
/// is a reset (the window closing).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FaultEvent {
    pub at: SimTime,
    pub target: FaultTarget,
    pub profile: FaultProfile,
}

/// Upper bounds for sampled fault intensities. Each window draws every knob
/// uniformly from `[0, max]`, so one plan mixes mild and harsh windows.
#[derive(Clone, Copy, Debug)]
pub struct FaultSeverity {
    pub max_loss: f64,
    pub max_duplicate: f64,
    pub max_corrupt: f64,
    pub max_reorder_jitter: SimTime,
}

impl Default for FaultSeverity {
    fn default() -> Self {
        Self { max_loss: 0.3, max_duplicate: 0.5, max_corrupt: 0.3, max_reorder_jitter: 400 }
    }
}

/// A deterministic schedule of fault windows over LANs and the WAN.
///
/// ```
/// use sds_simnet::LanId;
/// use sds_workload::fault::{FaultPlan, FaultSeverity};
///
/// let lans = [LanId(0), LanId(1)];
/// let plan =
///     FaultPlan::exponential(&lans, true, 20_000.0, 5_000.0, FaultSeverity::default(), 120_000, 42);
/// let same =
///     FaultPlan::exponential(&lans, true, 20_000.0, 5_000.0, FaultSeverity::default(), 120_000, 42);
/// assert_eq!(plan.events, same.events, "deterministic for a seed");
/// assert!(plan.healed_by() <= 120_000);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Builds an alternating quiet/faulty schedule per target: quiet for
    /// Exp(`mean_quiet_ms`), degraded for Exp(`mean_faulty_ms`), repeating
    /// until `horizon`. Every opened window is closed by a reset at or
    /// before `horizon`, so the network is guaranteed clean afterwards.
    pub fn exponential(
        lans: &[LanId],
        include_wan: bool,
        mean_quiet_ms: f64,
        mean_faulty_ms: f64,
        severity: FaultSeverity,
        horizon: SimTime,
        seed: u64,
    ) -> Self {
        let mut rng = Seed(seed).derive("workload.fault").rng();
        let targets: Vec<FaultTarget> = lans
            .iter()
            .map(|&l| FaultTarget::Lan(l))
            .chain(include_wan.then_some(FaultTarget::Wan))
            .collect();
        let mut events = Vec::new();
        for &target in &targets {
            let mut t = 0f64;
            let mut faulty = false;
            loop {
                let dwell =
                    if faulty { rng.exp(mean_faulty_ms) } else { rng.exp(mean_quiet_ms) };
                t += dwell.max(1.0);
                if faulty {
                    // Close the window (clamped: heal no later than horizon).
                    let at = (t as SimTime).min(horizon);
                    events.push(FaultEvent { at, target, profile: FaultProfile::default() });
                    faulty = false;
                    if t >= horizon as f64 {
                        break;
                    }
                } else {
                    if t >= horizon as f64 {
                        break;
                    }
                    faulty = true;
                    let profile = FaultProfile {
                        loss: rng.gen_f64() * severity.max_loss,
                        duplicate: rng.gen_f64() * severity.max_duplicate,
                        corrupt: rng.gen_f64() * severity.max_corrupt,
                        reorder_jitter: if severity.max_reorder_jitter > 0 {
                            rng.gen_range(0..=severity.max_reorder_jitter)
                        } else {
                            0
                        },
                    };
                    events.push(FaultEvent { at: t as SimTime, target, profile });
                }
            }
        }
        events.sort_by_key(|e| (e.at, e.target));
        Self { events }
    }

    /// Schedules every event on the simulator. Combine with
    /// [`corrupting_hook`] so corruption windows mutate real frames instead
    /// of black-holing them.
    pub fn apply<P: Clone + Send + 'static>(&self, sim: &mut sds_simnet::Sim<P>) {
        for e in &self.events {
            let action = match e.target {
                FaultTarget::Lan(lan) => ControlAction::SetLanFaults(lan, e.profile),
                FaultTarget::Wan => ControlAction::SetWanFaults(e.profile),
                FaultTarget::WanPair(from, to) => {
                    ControlAction::SetWanPairFaults(from, to, e.profile)
                }
            };
            sim.schedule(e.at, action);
        }
    }

    /// The time by which every fault window has been reset (0 for an empty
    /// plan). After this instant the network injects no further faults —
    /// though duplicated/delayed copies scheduled earlier may still drain.
    pub fn healed_by(&self) -> SimTime {
        self.events.iter().map(|e| e.at).max().unwrap_or(0)
    }

    /// The fault profile `target` is under at time `t`.
    pub fn active_at(&self, target: FaultTarget, t: SimTime) -> FaultProfile {
        self.events
            .iter()
            .filter(|e| e.target == target && e.at <= t)
            .next_back()
            .map(|e| e.profile)
            .unwrap_or_default()
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The corruption hook for discovery-message simulations: runs the real
/// wire pipeline (encode → mutate bytes → decode). Frames the decoder
/// rejects return `None` and are dropped-and-counted by the simulator —
/// exactly what a hardened node does with a malformed datagram. Frames that
/// still decode are delivered as the (possibly absurd) message they now
/// spell, exercising handler totality.
pub fn corrupting_hook(
) -> impl FnMut(&mut sds_rand::Rng, &DiscoveryMessage) -> Option<DiscoveryMessage> + 'static {
    |rng, msg| {
        let bytes = codec::encode(msg);
        let mutated = codec::mutate_frame(rng, &bytes);
        codec::decode(&mutated).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> FaultPlan {
        FaultPlan::exponential(
            &[LanId(0), LanId(1)],
            true,
            10_000.0,
            4_000.0,
            FaultSeverity::default(),
            100_000,
            seed,
        )
    }

    #[test]
    fn windows_alternate_and_always_close() {
        let p = plan(7);
        assert!(!p.is_empty());
        assert!(p.events.windows(2).all(|w| w[0].at <= w[1].at), "sorted");
        for target in [FaultTarget::Lan(LanId(0)), FaultTarget::Lan(LanId(1)), FaultTarget::Wan] {
            let evs: Vec<&FaultEvent> =
                p.events.iter().filter(|e| e.target == target).collect();
            for (i, e) in evs.iter().enumerate() {
                // Even events open a window, odd events reset.
                assert_eq!(e.profile.is_quiet(), i % 2 == 1, "event {i} of {target:?}");
            }
            if let Some(last) = evs.last() {
                assert!(last.profile.is_quiet(), "{target:?} plan ends with a reset");
            }
        }
        assert!(p.healed_by() <= 100_000);
        // After healing, every target is quiet.
        for target in [FaultTarget::Lan(LanId(0)), FaultTarget::Lan(LanId(1)), FaultTarget::Wan] {
            assert!(p.active_at(target, p.healed_by()).is_quiet());
        }
    }

    #[test]
    fn deterministic_per_seed_and_distinct_across_seeds() {
        assert_eq!(plan(3).events, plan(3).events);
        assert_ne!(plan(3).events, plan(4).events);
    }

    #[test]
    fn sampled_profiles_respect_severity_bounds() {
        let sev = FaultSeverity {
            max_loss: 0.2,
            max_duplicate: 0.1,
            max_corrupt: 0.05,
            max_reorder_jitter: 50,
        };
        let p = FaultPlan::exponential(&[LanId(0)], false, 5_000.0, 5_000.0, sev, 500_000, 9);
        for e in &p.events {
            assert!(e.profile.loss <= sev.max_loss);
            assert!(e.profile.duplicate <= sev.max_duplicate);
            assert!(e.profile.corrupt <= sev.max_corrupt);
            assert!(e.profile.reorder_jitter <= sev.max_reorder_jitter);
        }
    }

    #[test]
    fn corrupting_hook_sometimes_mutates_and_sometimes_drops() {
        let mut rng = Seed(11).derive("test.corrupt").rng();
        let mut hook = corrupting_hook();
        // A message with payload bytes (advert id, version): single-byte
        // flips inside those fields still decode, but to a different message.
        let msg = sds_protocol::DiscoveryMessage::publishing(sds_protocol::PublishOp::Publish {
            advert: sds_protocol::SharedAdvert::from(sds_protocol::Advertisement {
                id: sds_protocol::Uuid(0xDEAD_BEEF),
                provider: sds_simnet::NodeId(7),
                description: sds_protocol::Description::Uri("urn:radar".into()),
                version: 3,
            }),
            lease_ms: 30_000,
        });
        let (mut delivered, mut dropped, mut changed) = (0u32, 0u32, 0u32);
        for _ in 0..200 {
            match hook(&mut rng, &msg) {
                Some(m) => {
                    delivered += 1;
                    if m != msg {
                        changed += 1;
                    }
                }
                None => dropped += 1,
            }
        }
        assert!(dropped > 0, "some mutations must break the frame");
        assert!(delivered > 0, "some frames must survive mutation");
        // Among survivors, at least some actually decode to a different
        // message (a pure pass-through hook would be useless chaos).
        assert!(changed > 0, "mutation must be able to change the message");
    }
}
