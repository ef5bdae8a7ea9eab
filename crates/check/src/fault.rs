//! Deterministic fault injection at conditioner taps.
//!
//! A [`FaultPlan`] names router taps and the [`FaultKind`]s to plant
//! there; [`FaultPlan::wrap`] turns any [`Conditioner`] into a
//! [`FaultyConditioner`] that misbehaves in exactly the planned way and
//! nowhere else. All faults are a pure function of the plan (seed
//! included) and the packet sequence — two runs with the same plan
//! inject at the same packets, so a failing self-test replays exactly.
//!
//! Faults act on the packets the wrapped conditioner *passes*: a packet
//! the inner policer drops was never forwarded, so there is nothing to
//! swallow, duplicate or reorder. Packet indices (`nth`, `from`) count
//! submissions at the tap, starting from 1.

use dsv_net::conditioner::{ConditionOutcome, Conditioner, QuickVerdict, Released};
use dsv_net::packet::Packet;
use dsv_sim::{SimDuration, SimTime};

/// One class of injected misbehaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Silently swallow the `nth` submitted packet (never released, never
    /// counted as held). Violates packet conservation — the audit's
    /// end-of-run balance fires for the node, the flow and the pool.
    Drop {
        /// 1-based index of the packet to swallow.
        nth: u64,
    },
    /// Deliver the `nth` submitted packet twice. Violates conservation
    /// (a delivery with no matching send) and usually per-flow FIFO.
    Duplicate {
        /// 1-based index of the packet to clone.
        nth: u64,
    },
    /// Hold only the `nth` packet for `hold` while later packets pass.
    /// Violates per-port and per-flow FIFO once the held packet emerges
    /// behind its successors.
    Reorder {
        /// 1-based index of the packet to hold back.
        nth: u64,
        /// How long to hold it.
        hold: SimDuration,
    },
    /// Delay every packet from index `from` onward by `hold`,
    /// preserving order. This is a *legal* network behaviour: the audit
    /// must stay silent, and the streaming client must ride the jitter
    /// out — the playback-robustness half of the fault matrix.
    Delay {
        /// 1-based index of the first delayed packet.
        from: u64,
        /// Added latency.
        hold: SimDuration,
    },
    /// XOR the wire size of the `nth` passed packet with `xor` after the
    /// conditioner admits it. Violates payload/size integrity — the audit
    /// sees a packet whose size changed mid-flight.
    SizeFlip {
        /// 1-based index of the packet to corrupt.
        nth: u64,
        /// Bit pattern XORed into the size field.
        xor: u32,
    },
    /// Run the wrapped conditioner's clock `speedup`× faster than
    /// simulation time. A fast clock inflates every refill interval the
    /// token bucket sees, so it grants tokens at `speedup`× the real
    /// rate and over-admits; the analytic conformance bound (checked
    /// against *true* time) fires whenever the tap is saturated. (A
    /// constant *offset* would not do: the bucket caps at its depth and
    /// offsets cancel in refill deltas.)
    ClockSkew {
        /// How many times faster the tap's clock runs (1 = no skew).
        speedup: u32,
    },
}

/// A fault planted at one named tap.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// Tap name — matched against the name given to [`FaultPlan::wrap`].
    pub tap: String,
    /// What goes wrong there.
    pub kind: FaultKind,
}

/// A seeded, named-tap fault schedule.
///
/// The seed does not drive any hidden randomness inside the faults
/// themselves (those are fully specified by their fields); it feeds
/// [`FaultPlan::pick`], the deterministic helper tests use to choose
/// *which* packet index to fault so that varying the seed varies the
/// injection point reproducibly.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for [`FaultPlan::pick`].
    pub seed: u64,
    faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// A plan that injects nothing (the control arm of every self-test).
    pub fn none() -> FaultPlan {
        FaultPlan::new(0)
    }

    /// Add a fault at a named tap.
    pub fn with(mut self, tap: &str, kind: FaultKind) -> FaultPlan {
        self.faults.push(FaultSpec {
            tap: tap.to_string(),
            kind,
        });
        self
    }

    /// True if no fault targets any tap.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// A deterministic value in `lo..hi` derived from the plan seed and a
    /// caller-chosen salt (splitmix64 — no global RNG, no ambient state).
    pub fn pick(&self, salt: u64, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi);
        let mut z = self
            .seed
            .wrapping_add(salt)
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        lo + z % (hi - lo)
    }

    /// Wrap `inner` with every fault planned for `tap`. Returns `inner`
    /// unchanged when nothing targets the tap, so unfaulted scenarios pay
    /// nothing and behave bit-identically to an unwrapped run.
    pub fn wrap<P: Clone + 'static>(
        &self,
        tap: &str,
        inner: Box<dyn Conditioner<P>>,
    ) -> Box<dyn Conditioner<P>> {
        let kinds: Vec<FaultKind> = self
            .faults
            .iter()
            .filter(|f| f.tap == tap)
            .map(|f| f.kind)
            .collect();
        if kinds.is_empty() {
            return inner;
        }
        Box::new(FaultyConditioner::new(inner, kinds))
    }
}

/// A conditioner wrapper that misbehaves per a list of [`FaultKind`]s.
///
/// See the module docs for semantics. The wrapper reports its *honest*
/// holds (reorder/delay/duplicate stash) through [`Conditioner::held`],
/// but deliberately excludes swallowed packets — that lie is the point
/// of [`FaultKind::Drop`]: the conservation oracle must notice the leak.
pub struct FaultyConditioner<P> {
    inner: Box<dyn Conditioner<P>>,
    faults: Vec<FaultKind>,
    /// Submissions seen so far (1-based index of the *next* packet is
    /// `seen + 1`).
    seen: u64,
    /// Honestly-held packets with their due times, in insertion order.
    held: Vec<(SimTime, Packet<P>)>,
    /// Leaked packets — never released, never reported.
    swallowed: Vec<Packet<P>>,
    /// Clock multiplier applied to the inner conditioner (1 = honest).
    skew_mul: u64,
}

impl<P> FaultyConditioner<P> {
    fn new(inner: Box<dyn Conditioner<P>>, faults: Vec<FaultKind>) -> FaultyConditioner<P> {
        let skew_mul = faults
            .iter()
            .filter_map(|f| match f {
                FaultKind::ClockSkew { speedup } => Some(u64::from(*speedup).max(1)),
                _ => None,
            })
            .product::<u64>()
            .max(1);
        FaultyConditioner {
            inner,
            faults,
            seen: 0,
            held: Vec::new(),
            swallowed: Vec::new(),
            skew_mul,
        }
    }

    /// The inner conditioner's (possibly skewed) view of `now`.
    fn skewed(&self, now: SimTime) -> SimTime {
        if self.skew_mul == 1 {
            now
        } else {
            SimTime::from_nanos(now.as_nanos() * self.skew_mul)
        }
    }

    /// Packets swallowed so far (for asserting the leak happened).
    pub fn swallowed(&self) -> usize {
        self.swallowed.len()
    }
}

impl<P: Clone> Conditioner<P> for FaultyConditioner<P> {
    fn submit(&mut self, now: SimTime, pkt: Packet<P>) -> ConditionOutcome<P> {
        self.seen += 1;
        let n = self.seen;
        let skewed = self.skewed(now);
        match self.inner.submit(skewed, pkt) {
            ConditionOutcome::Pass(mut pkt) => {
                for fault in &self.faults {
                    match *fault {
                        FaultKind::Drop { nth } if n == nth => {
                            self.swallowed.push(pkt);
                            return ConditionOutcome::Absorbed { poll_at: now };
                        }
                        FaultKind::Duplicate { nth } if n == nth => {
                            self.held.push((now, pkt.clone()));
                            self.held.push((now, pkt));
                            return ConditionOutcome::Absorbed { poll_at: now };
                        }
                        FaultKind::Reorder { nth, hold } if n == nth => {
                            let due = now + hold;
                            self.held.push((due, pkt));
                            return ConditionOutcome::Absorbed { poll_at: due };
                        }
                        FaultKind::Delay { from, hold } if n >= from => {
                            let due = now + hold;
                            self.held.push((due, pkt));
                            return ConditionOutcome::Absorbed { poll_at: due };
                        }
                        FaultKind::SizeFlip { nth, xor } if n == nth => {
                            pkt.size ^= xor;
                        }
                        _ => {}
                    }
                }
                ConditionOutcome::Pass(pkt)
            }
            other => other,
        }
    }

    // Always defer to `submit`: faults need ownership of the packet.
    fn quick(&mut self, _now: SimTime, _pkt: &mut Packet<P>) -> QuickVerdict {
        QuickVerdict::NeedsSubmit
    }

    fn release(&mut self, now: SimTime) -> Released<P> {
        let skewed = self.skewed(now);
        let mut out = self.inner.release(skewed);
        // Map the inner's poll request back into true time, else the
        // network would poll it at the skewed (future) instant.
        if self.skew_mul != 1 {
            out.next_poll = out
                .next_poll
                .map(|t| SimTime::from_nanos(t.as_nanos() / self.skew_mul));
        }
        let mut i = 0;
        while i < self.held.len() {
            if self.held[i].0 <= now {
                out.packets.push(self.held.remove(i).1);
            } else {
                i += 1;
            }
        }
        let ours_next = self.held.iter().map(|(due, _)| *due).min();
        out.next_poll = match (out.next_poll, ours_next) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        out
    }

    fn held(&self) -> usize {
        // Swallowed packets are intentionally *not* reported: the lie is
        // what the conservation oracle must detect.
        self.inner.held() + self.held.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_net::conditioner::PassThrough;
    use dsv_net::packet::{Dscp, FlowId, NodeId, PacketId, Proto};

    fn pkt(id: u64) -> Packet<()> {
        Packet {
            id: PacketId(id),
            flow: FlowId(1),
            src: NodeId(0),
            dst: NodeId(1),
            size: 1000,
            dscp: Dscp::BEST_EFFORT,
            proto: Proto::Udp,
            fragment: None,
            sent_at: SimTime::ZERO,
            payload: (),
        }
    }

    fn wrapped(kind: FaultKind) -> Box<dyn Conditioner<()>> {
        FaultPlan::new(1)
            .with("tap", kind)
            .wrap("tap", Box::new(PassThrough))
    }

    #[test]
    fn empty_plan_returns_inner_unchanged() {
        let plan = FaultPlan::none();
        let mut c = plan.wrap::<()>("tap", Box::new(PassThrough));
        assert!(matches!(
            c.submit(SimTime::ZERO, pkt(1)),
            ConditionOutcome::Pass(_)
        ));
        assert_eq!(c.held(), 0);
    }

    #[test]
    fn drop_swallows_exactly_the_nth() {
        let mut c = wrapped(FaultKind::Drop { nth: 2 });
        assert!(matches!(
            c.submit(SimTime::ZERO, pkt(1)),
            ConditionOutcome::Pass(_)
        ));
        assert!(matches!(
            c.submit(SimTime::ZERO, pkt(2)),
            ConditionOutcome::Absorbed { .. }
        ));
        assert!(matches!(
            c.submit(SimTime::ZERO, pkt(3)),
            ConditionOutcome::Pass(_)
        ));
        // The swallowed packet is hidden from the held() accounting and
        // never released — that is the planted conservation violation.
        assert_eq!(c.held(), 0);
        assert!(c.release(SimTime::from_secs(999)).packets.is_empty());
    }

    #[test]
    fn duplicate_releases_two_copies() {
        let mut c = wrapped(FaultKind::Duplicate { nth: 1 });
        assert!(matches!(
            c.submit(SimTime::ZERO, pkt(7)),
            ConditionOutcome::Absorbed { .. }
        ));
        assert_eq!(c.held(), 2);
        let out = c.release(SimTime::ZERO);
        assert_eq!(out.packets.len(), 2);
        assert_eq!(out.packets[0].id, out.packets[1].id);
        assert!(out.next_poll.is_none());
    }

    #[test]
    fn reorder_holds_one_packet_past_its_successors() {
        let hold = SimDuration::from_millis(5);
        let mut c = wrapped(FaultKind::Reorder { nth: 1, hold });
        assert!(matches!(
            c.submit(SimTime::ZERO, pkt(1)),
            ConditionOutcome::Absorbed { .. }
        ));
        assert!(matches!(
            c.submit(SimTime::from_millis(1), pkt(2)),
            ConditionOutcome::Pass(_)
        ));
        assert!(c.release(SimTime::from_millis(1)).packets.is_empty());
        let out = c.release(SimTime::ZERO + hold);
        assert_eq!(out.packets.len(), 1);
        assert_eq!(out.packets[0].id, PacketId(1));
    }

    #[test]
    fn delay_preserves_order() {
        let hold = SimDuration::from_millis(10);
        let mut c = wrapped(FaultKind::Delay { from: 1, hold });
        for i in 1..=3u64 {
            assert!(matches!(
                c.submit(SimTime::from_millis(i), pkt(i)),
                ConditionOutcome::Absorbed { .. }
            ));
        }
        assert_eq!(c.held(), 3);
        let out = c.release(SimTime::from_millis(13));
        let ids: Vec<u64> = out.packets.iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        assert!(out.next_poll.is_none());
    }

    #[test]
    fn size_flip_changes_exactly_one_packet() {
        let mut c = wrapped(FaultKind::SizeFlip { nth: 2, xor: 0x200 });
        let a = match c.submit(SimTime::ZERO, pkt(1)) {
            ConditionOutcome::Pass(p) => p,
            other => panic!("{other:?}"),
        };
        let b = match c.submit(SimTime::ZERO, pkt(2)) {
            ConditionOutcome::Pass(p) => p,
            other => panic!("{other:?}"),
        };
        assert_eq!(a.size, 1000);
        assert_eq!(b.size, 1000 ^ 0x200);
    }

    #[test]
    fn pick_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new(1);
        let b = FaultPlan::new(2);
        assert_eq!(a.pick(0, 10, 100), a.pick(0, 10, 100));
        let v = a.pick(0, 10, 100);
        assert!((10..100).contains(&v));
        // Different seeds or salts move the injection point (with a
        // tiny collision chance that these constants avoid).
        assert_ne!(a.pick(0, 0, u64::MAX), b.pick(0, 0, u64::MAX));
        assert_ne!(a.pick(0, 0, u64::MAX), a.pick(1, 0, u64::MAX));
    }
}
