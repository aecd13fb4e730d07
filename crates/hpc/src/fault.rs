//! Deterministic fault injection for the simulated cluster.
//!
//! A [`FaultPlan`] is a declarative list of failures — kill a rank at a
//! given round, drop or delay the n-th matching message between two
//! ranks — that the [`crate::ThreadCluster`] fabric applies while a
//! program runs. Plans contain no randomness of their own: the same plan
//! against the same program produces the same failure interleaving, which
//! is what makes failure *tests* possible. The seeded constructors derive
//! their choices from a caller-provided seed via a splitmix step, so
//! randomized fault campaigns are reproducible too.

use std::time::Duration;

/// One injected failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// Crash `rank` the first time it polls faults at `round` or later.
    ///
    /// The crash is delivered as a panic at the poll site, unwound to the
    /// fabric boundary, and converted into a dead-rank outcome — the same
    /// path a genuine panic in rank code takes.
    KillAtRound {
        /// Victim rank.
        rank: usize,
        /// First round at which the kill fires.
        round: u64,
    },
    /// Silently discard the `nth_match`-th (0-based) message from `from`
    /// to `to` whose tag matches `tag` (`None` matches any tag).
    DropMessage {
        /// Sending rank.
        from: usize,
        /// Receiving rank.
        to: usize,
        /// Required tag, or `None` for any.
        tag: Option<u64>,
        /// Which matching message to drop (0-based).
        nth_match: u64,
    },
    /// Hold the `nth_match`-th matching message for `delay` before it
    /// becomes receivable.
    DelayMessage {
        /// Sending rank.
        from: usize,
        /// Receiving rank.
        to: usize,
        /// Required tag, or `None` for any.
        tag: Option<u64>,
        /// Which matching message to delay (0-based).
        nth_match: u64,
        /// How long the message is held.
        delay: Duration,
    },
    /// Sever the link between ranks `a` and `b` (both directions) while
    /// the sender's current round is in `[from_round, until_round)`:
    /// every message between them is silently dropped, simulating a
    /// transient network partition that heals on its own.
    Partition {
        /// One side of the severed link.
        a: usize,
        /// The other side.
        b: usize,
        /// First round (inclusive) the link is down.
        from_round: u64,
        /// First round (exclusive) the link is back up.
        until_round: u64,
    },
}

impl FaultEvent {
    fn matches_send(&self, from: usize, to: usize, tag: u64, round: u64) -> bool {
        match self {
            FaultEvent::DropMessage {
                from: f,
                to: t,
                tag: tg,
                ..
            }
            | FaultEvent::DelayMessage {
                from: f,
                to: t,
                tag: tg,
                ..
            } => *f == from && *t == to && tg.map(|x| x == tag).unwrap_or(true),
            FaultEvent::Partition {
                a,
                b,
                from_round,
                until_round,
            } => {
                ((*a == from && *b == to) || (*b == from && *a == to))
                    && round >= *from_round
                    && round < *until_round
            }
            FaultEvent::KillAtRound { .. } => false,
        }
    }
}

/// What the fabric does with an outgoing message after consulting the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendFate {
    /// Deliver immediately (no fault matched).
    Deliver,
    /// Discard silently.
    Drop,
    /// Deliver after the duration elapses.
    Delay(Duration),
}

/// A reproducible schedule of injected failures. Plans built by
/// [`FaultPlan::chaos`] additionally remember the seed they were derived
/// from, so a chaos run is replayable from its recorded plan alone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    chaos_seed: Option<u64>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Build a plan from explicit events.
    pub fn new(events: Vec<FaultEvent>) -> Self {
        FaultPlan {
            events,
            chaos_seed: None,
        }
    }

    /// Add an event.
    pub fn push(&mut self, event: FaultEvent) -> &mut Self {
        self.events.push(event);
        self
    }

    /// Crash `rank` at `round`.
    pub fn kill_at_round(mut self, rank: usize, round: u64) -> Self {
        self.events.push(FaultEvent::KillAtRound { rank, round });
        self
    }

    /// Drop the `nth`-th message from `from` to `to` (any tag).
    pub fn drop_message(mut self, from: usize, to: usize, nth: u64) -> Self {
        self.events.push(FaultEvent::DropMessage {
            from,
            to,
            tag: None,
            nth_match: nth,
        });
        self
    }

    /// Delay the `nth`-th message from `from` to `to` (any tag).
    pub fn delay_message(mut self, from: usize, to: usize, nth: u64, delay: Duration) -> Self {
        self.events.push(FaultEvent::DelayMessage {
            from,
            to,
            tag: None,
            nth_match: nth,
            delay,
        });
        self
    }

    /// Whether the plan has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Sever the `a`↔`b` link for rounds `[from_round, until_round)`.
    pub fn partition(mut self, a: usize, b: usize, from_round: u64, until_round: u64) -> Self {
        self.events.push(FaultEvent::Partition {
            a,
            b,
            from_round,
            until_round,
        });
        self
    }

    /// First kill round scheduled for `rank` that has come due by `round`.
    pub fn kill_due(&self, rank: usize, round: u64) -> Option<u64> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::KillAtRound { rank: r, round: k } if *r == rank && *k <= round => {
                    Some(*k)
                }
                _ => None,
            })
            .min()
    }

    /// The seed this plan was derived from, when built by
    /// [`FaultPlan::chaos`].
    pub fn chaos_seed(&self) -> Option<u64> {
        self.chaos_seed
    }

    /// A reproducible multi-fault chaos schedule derived entirely from
    /// `seed`: one kill of a *non-root* rank in rounds `1..max_round`, one
    /// dropped and one delayed message on the victim's links, and one
    /// transient two-round partition elsewhere in the mesh. (The codec
    /// golden fixtures record a chaos plan event by event, which pins
    /// this shape.) The same
    /// seed always produces the identical plan, so every failure a chaos
    /// run injects is replayable by seed alone.
    pub fn chaos(seed: u64, num_ranks: usize, max_round: u64) -> Self {
        assert!(num_ranks >= 2, "chaos needs at least 2 ranks");
        let s1 = splitmix(seed);
        let s2 = splitmix(s1);
        let s3 = splitmix(s2);
        let s4 = splitmix(s3);
        let s5 = splitmix(s4);
        let span = max_round.max(2);
        let victim = 1 + (s1 % (num_ranks as u64 - 1)) as usize;
        let kill_round = 1 + s2 % (span - 1);
        let other = (victim + 1 + (s3 % (num_ranks as u64 - 1)) as usize) % num_ranks;
        let part_a = s4 as usize % num_ranks;
        let part_b = (part_a + 1) % num_ranks;
        let part_round = s5 % span;
        let mut plan = FaultPlan::none()
            .kill_at_round(victim, kill_round)
            .drop_message(other, victim, s3 % 3)
            .delay_message(victim, other, s4 % 3, Duration::from_millis(5 + s5 % 40))
            .partition(part_a, part_b, part_round, part_round + 2);
        plan.chaos_seed = Some(seed);
        plan
    }

    /// Serialize to a single-line text form (embedded in snapshots):
    /// `seed=<hex|-> <event> <event> …` with colon-separated event
    /// fields. Empty plans encode as `seed=- none`.
    pub fn encode(&self) -> String {
        let mut s = match self.chaos_seed {
            Some(seed) => format!("seed={seed:016x}"),
            None => "seed=-".to_string(),
        };
        if self.events.is_empty() {
            s.push_str(" none");
            return s;
        }
        for e in &self.events {
            s.push(' ');
            match e {
                FaultEvent::KillAtRound { rank, round } => {
                    s.push_str(&format!("kill:{rank}:{round}"));
                }
                FaultEvent::DropMessage {
                    from,
                    to,
                    tag,
                    nth_match,
                } => {
                    let tag = tag.map_or("any".to_string(), |t| t.to_string());
                    s.push_str(&format!("drop:{from}:{to}:{tag}:{nth_match}"));
                }
                FaultEvent::DelayMessage {
                    from,
                    to,
                    tag,
                    nth_match,
                    delay,
                } => {
                    let tag = tag.map_or("any".to_string(), |t| t.to_string());
                    s.push_str(&format!(
                        "delay:{from}:{to}:{tag}:{nth_match}:{}",
                        delay.as_micros()
                    ));
                }
                FaultEvent::Partition {
                    a,
                    b,
                    from_round,
                    until_round,
                } => {
                    s.push_str(&format!("partition:{a}:{b}:{from_round}:{until_round}"));
                }
            }
        }
        s
    }

    /// Restore a plan from [`FaultPlan::encode`] output.
    ///
    /// # Errors
    /// A human-readable description of the first malformed token.
    pub fn decode(text: &str) -> Result<Self, String> {
        let mut tokens = text.split_whitespace();
        let seed_tok = tokens.next().ok_or("empty fault plan")?;
        let seed_val = seed_tok
            .strip_prefix("seed=")
            .ok_or_else(|| format!("expected seed=, got {seed_tok}"))?;
        let chaos_seed = if seed_val == "-" {
            None
        } else {
            Some(u64::from_str_radix(seed_val, 16).map_err(|_| format!("bad seed {seed_val}"))?)
        };
        let mut events = Vec::new();
        for tok in tokens {
            if tok == "none" {
                continue;
            }
            let fields: Vec<&str> = tok.split(':').collect();
            let get = |i: usize, what: &str| -> Result<u64, String> {
                fields
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("bad {what} in {tok}"))
            };
            let get_tag = |i: usize| -> Result<Option<u64>, String> {
                match fields.get(i) {
                    Some(&"any") => Ok(None),
                    Some(v) => v.parse().map(Some).map_err(|_| format!("bad tag in {tok}")),
                    None => Err(format!("bad tag in {tok}")),
                }
            };
            let arity = |n: usize| -> Result<(), String> {
                if fields.len() == n {
                    Ok(())
                } else {
                    Err(format!("wrong field count in {tok}"))
                }
            };
            events.push(match fields[0] {
                "kill" => {
                    arity(3)?;
                    FaultEvent::KillAtRound {
                        rank: get(1, "rank")? as usize,
                        round: get(2, "round")?,
                    }
                }
                "drop" => {
                    arity(5)?;
                    FaultEvent::DropMessage {
                        from: get(1, "from")? as usize,
                        to: get(2, "to")? as usize,
                        tag: get_tag(3)?,
                        nth_match: get(4, "nth")?,
                    }
                }
                "delay" => {
                    arity(6)?;
                    FaultEvent::DelayMessage {
                        from: get(1, "from")? as usize,
                        to: get(2, "to")? as usize,
                        tag: get_tag(3)?,
                        nth_match: get(4, "nth")?,
                        delay: Duration::from_micros(get(5, "micros")?),
                    }
                }
                "partition" => {
                    arity(5)?;
                    FaultEvent::Partition {
                        a: get(1, "a")? as usize,
                        b: get(2, "b")? as usize,
                        from_round: get(3, "from_round")?,
                        until_round: get(4, "until_round")?,
                    }
                }
                other => return Err(format!("unknown fault kind {other}")),
            });
        }
        Ok(FaultPlan { events, chaos_seed })
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mutable runtime view of a plan: per-event match counters, consulted by
/// the fabric on every send.
#[derive(Debug)]
pub(crate) struct FaultRuntime {
    plan: FaultPlan,
    /// How many sends have matched each drop/delay event so far.
    counters: std::sync::Mutex<Vec<u64>>,
    /// The sender's current protocol round (stamped by the per-round
    /// fault poll); round-windowed events (partitions) match against it.
    round: std::sync::atomic::AtomicU64,
}

impl FaultRuntime {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let n = plan.events.len();
        FaultRuntime {
            plan,
            counters: std::sync::Mutex::new(vec![0; n]),
            round: std::sync::atomic::AtomicU64::new(0),
        }
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Record the rank's current round so round-windowed events can
    /// match sends made during it.
    pub(crate) fn set_round(&self, round: u64) {
        self.round
            .store(round, std::sync::atomic::Ordering::Relaxed);
    }

    /// Decide the fate of a message. The first matching event whose
    /// `nth_match` is hit wins; drops shadow delays scheduled later in
    /// the plan for the same message.
    pub(crate) fn on_send(&self, from: usize, to: usize, tag: u64) -> SendFate {
        if self.plan.events.is_empty() {
            return SendFate::Deliver;
        }
        let round = self.round.load(std::sync::atomic::Ordering::Relaxed);
        let mut counters = crate::transport::lock(&self.counters);
        let mut fate = SendFate::Deliver;
        for (i, event) in self.plan.events.iter().enumerate() {
            if !event.matches_send(from, to, tag, round) {
                continue;
            }
            let seen = counters[i];
            counters[i] += 1;
            if fate != SendFate::Deliver {
                continue; // already decided; still advance other counters
            }
            match event {
                FaultEvent::DropMessage { nth_match, .. } if seen == *nth_match => {
                    fate = SendFate::Drop;
                }
                FaultEvent::DelayMessage {
                    nth_match, delay, ..
                } if seen == *nth_match => {
                    fate = SendFate::Delay(*delay);
                }
                FaultEvent::Partition { .. } => {
                    // A partition drops *every* message in its window.
                    fate = SendFate::Drop;
                }
                _ => {}
            }
        }
        fate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_due_fires_at_and_after_round() {
        let plan = FaultPlan::none().kill_at_round(2, 5);
        assert_eq!(plan.kill_due(2, 4), None);
        assert_eq!(plan.kill_due(2, 5), Some(5));
        assert_eq!(plan.kill_due(2, 9), Some(5));
        assert_eq!(plan.kill_due(1, 9), None);
    }

    #[test]
    fn runtime_counts_matches_per_event() {
        let plan = FaultPlan::none().drop_message(0, 1, 1).delay_message(
            0,
            1,
            2,
            Duration::from_millis(50),
        );
        let rt = FaultRuntime::new(plan);
        assert_eq!(rt.on_send(0, 1, 7), SendFate::Deliver); // match #0
        assert_eq!(rt.on_send(1, 0, 7), SendFate::Deliver); // no match
        assert_eq!(rt.on_send(0, 1, 8), SendFate::Drop); // match #1
        assert_eq!(
            rt.on_send(0, 1, 9),
            SendFate::Delay(Duration::from_millis(50)) // match #2
        );
        assert_eq!(rt.on_send(0, 1, 9), SendFate::Deliver); // match #3
    }

    #[test]
    fn chaos_plans_are_reproducible_and_never_kill_root() {
        for seed in 0..100u64 {
            let a = FaultPlan::chaos(seed, 4, 8);
            let b = FaultPlan::chaos(seed, 4, 8);
            assert_eq!(a, b, "same seed must yield the identical plan");
            assert_eq!(a.chaos_seed(), Some(seed));
            let kill = a
                .events()
                .iter()
                .find_map(|e| match e {
                    FaultEvent::KillAtRound { rank, round } => Some((*rank, *round)),
                    _ => None,
                })
                .expect("chaos always schedules a kill");
            assert!(kill.0 >= 1 && kill.0 < 4, "root must never be the victim");
            assert!(
                kill.1 >= 1 && kill.1 < 8,
                "kill round {} must lie in 1..8",
                kill.1
            );
            assert!(a.events().len() >= 4, "kill + drop + delay + partition");
        }
    }

    #[test]
    fn plan_encode_decode_round_trips() {
        let plans = [
            FaultPlan::none(),
            FaultPlan::none().kill_at_round(3, 7),
            FaultPlan::none()
                .drop_message(0, 2, 1)
                .delay_message(2, 0, 0, Duration::from_micros(1500))
                .partition(1, 3, 4, 6),
            FaultPlan::new(vec![FaultEvent::DropMessage {
                from: 1,
                to: 0,
                tag: Some(42),
                nth_match: 2,
            }]),
            FaultPlan::chaos(0xDEAD_BEEF, 6, 10),
        ];
        for plan in plans {
            let text = plan.encode();
            let back =
                FaultPlan::decode(&text).unwrap_or_else(|e| panic!("decode {text:?} failed: {e}"));
            assert_eq!(back, plan, "round trip of {text:?}");
        }
        assert!(FaultPlan::decode("nonsense").is_err());
        assert!(FaultPlan::decode("seed=- kill:1").is_err());
        assert!(FaultPlan::decode("seed=- warp:1:2").is_err());
    }

    #[test]
    fn partition_drops_messages_only_inside_its_window() {
        let rt = FaultRuntime::new(FaultPlan::none().partition(0, 1, 2, 4));
        rt.set_round(1);
        assert_eq!(rt.on_send(0, 1, 7), SendFate::Deliver);
        rt.set_round(2);
        assert_eq!(rt.on_send(0, 1, 7), SendFate::Drop);
        assert_eq!(rt.on_send(1, 0, 7), SendFate::Drop, "both directions");
        assert_eq!(rt.on_send(0, 2, 7), SendFate::Deliver, "other links open");
        rt.set_round(4);
        assert_eq!(rt.on_send(0, 1, 7), SendFate::Deliver, "partition heals");
    }

    #[test]
    fn tag_filters_restrict_matches() {
        let plan = FaultPlan::new(vec![FaultEvent::DropMessage {
            from: 0,
            to: 1,
            tag: Some(42),
            nth_match: 0,
        }]);
        let rt = FaultRuntime::new(plan);
        assert_eq!(rt.on_send(0, 1, 41), SendFate::Deliver);
        assert_eq!(rt.on_send(0, 1, 42), SendFate::Drop);
    }
}
