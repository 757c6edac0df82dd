//! Policy registry: a closed enumeration of every policy in the crate,
//! with parsing and boxed construction — what the harness and CLI use.
//!
//! ```
//! use tf_policies::Policy;
//! use tf_simcore::{simulate, MachineConfig, SimOptions, Trace};
//!
//! let p: Policy = "srpt".parse().unwrap();
//! assert!(p.clairvoyant());
//! assert_eq!(p.id(), "SRPT");
//!
//! // Every registered policy can be constructed and run.
//! let trace = Trace::from_pairs([(0.0, 2.0), (0.5, 1.0)]).unwrap();
//! for p in Policy::all() {
//!     let mut alloc = p.make();
//!     let cfg = MachineConfig::new(1);
//!     let s = simulate(&trace, alloc.as_mut(), cfg, SimOptions::default()).unwrap();
//!     assert!(s.completion.iter().all(|c| c.is_finite()), "{p}");
//! }
//! ```

use crate::{
    AgedRoundRobin, Fcfs, Hdf, Laps, Mlfq, MultiList, RoundRobin, Setf, Sjf, Srpt, SrptFcfsHybrid,
    WeightedRoundRobin, DEFAULT_STARVATION_THRESHOLD,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;
use tf_simcore::RateAllocator;

/// A closed, serializable identifier for every policy in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Policy {
    /// Round Robin (the paper's algorithm).
    Rr,
    /// Weighted Round Robin (static job weights).
    Wrr,
    /// Age-weighted Round Robin (continuous).
    AgedRr,
    /// Shortest Remaining Processing Time.
    Srpt,
    /// (Preemptive) Shortest Job First.
    Sjf,
    /// Highest Density First (weighted SJF).
    Hdf,
    /// Shortest Elapsed Time First.
    Setf,
    /// Multi-Level Feedback Queue (fractional, geometric levels).
    Mlfq,
    /// First Come First Served.
    Fcfs,
    /// Latest Arrival Processor Sharing with parameter β.
    Laps(f64),
    /// SRPT+FCFS starvation-mitigated hybrid with threshold θ
    /// \[Kuo, arXiv 2112.14403\].
    Hybrid(f64),
    /// Largest-job/least-loaded multi-list dispatch \[arXiv 2001.07061\].
    MultiList,
}

impl Policy {
    /// All parameterless policies plus LAPS at its default β = 0.5 and the
    /// hybrid at its default θ — the standard comparison set used by the
    /// experiment harness.
    pub fn all() -> Vec<Policy> {
        vec![
            Policy::Rr,
            Policy::Wrr,
            Policy::AgedRr,
            Policy::Srpt,
            Policy::Sjf,
            Policy::Hdf,
            Policy::Setf,
            Policy::Mlfq,
            Policy::Fcfs,
            Policy::Laps(0.5),
            Policy::Hybrid(DEFAULT_STARVATION_THRESHOLD),
            Policy::MultiList,
        ]
    }

    /// Short stable identifier (no parameters) — the key used by
    /// `docs/POLICIES.md` and table headers.
    pub fn id(&self) -> &'static str {
        match self {
            Policy::Rr => "RR",
            Policy::Wrr => "WRR",
            Policy::AgedRr => "AgedRR",
            Policy::Srpt => "SRPT",
            Policy::Sjf => "SJF",
            Policy::Hdf => "HDF",
            Policy::Setf => "SETF",
            Policy::Mlfq => "MLFQ",
            Policy::Fcfs => "FCFS",
            Policy::Laps(_) => "LAPS",
            Policy::Hybrid(_) => "HYB",
            Policy::MultiList => "ML",
        }
    }

    /// Construct a fresh allocator for this policy.
    pub fn make(&self) -> Box<dyn RateAllocator> {
        match *self {
            Policy::Rr => Box::new(RoundRobin::new()),
            Policy::Wrr => Box::new(WeightedRoundRobin::new()),
            Policy::AgedRr => Box::new(AgedRoundRobin::new()),
            Policy::Srpt => Box::new(Srpt::new()),
            Policy::Sjf => Box::new(Sjf::new()),
            Policy::Hdf => Box::new(Hdf::new()),
            Policy::Setf => Box::new(Setf::new()),
            Policy::Mlfq => Box::new(Mlfq::default()),
            Policy::Fcfs => Box::new(Fcfs::new()),
            Policy::Laps(beta) => Box::new(Laps::new(beta)),
            Policy::Hybrid(theta) => Box::new(SrptFcfsHybrid::new(theta)),
            Policy::MultiList => Box::new(MultiList::new()),
        }
    }

    /// Whether the policy inspects job sizes / remaining work.
    pub fn clairvoyant(&self) -> bool {
        matches!(
            self,
            Policy::Srpt | Policy::Sjf | Policy::Hdf | Policy::Hybrid(_) | Policy::MultiList
        )
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Policy::Rr => write!(f, "RR"),
            Policy::Wrr => write!(f, "WRR"),
            Policy::AgedRr => write!(f, "AgedRR"),
            Policy::Srpt => write!(f, "SRPT"),
            Policy::Sjf => write!(f, "SJF"),
            Policy::Hdf => write!(f, "HDF"),
            Policy::Setf => write!(f, "SETF"),
            Policy::Mlfq => write!(f, "MLFQ"),
            Policy::Fcfs => write!(f, "FCFS"),
            Policy::Laps(b) => write!(f, "LAPS({b})"),
            Policy::Hybrid(t) => write!(f, "HYB({t})"),
            Policy::MultiList => write!(f, "ML"),
        }
    }
}

impl FromStr for Policy {
    type Err = String;

    /// Case-insensitive; `laps` and `hyb` take an optional `:β` / `:θ`
    /// suffix (e.g. `laps:0.25`, `hyb:8.5`, `hyb:inf`). The `Display`
    /// forms `LAPS(β)` / `HYB(θ)` are accepted as aliases, so
    /// `p.to_string().parse()` round-trips for every registry entry.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.to_ascii_lowercase();
        // Normalize the Display form `name(param)` to `name:param`.
        let lower = match (lower.find('('), lower.ends_with(')')) {
            (Some(i), true) if i + 1 < lower.len() => {
                format!("{}:{}", &lower[..i], &lower[i + 1..lower.len() - 1])
            }
            _ => lower,
        };
        Ok(match lower.as_str() {
            "rr" | "roundrobin" | "round-robin" => Policy::Rr,
            "wrr" => Policy::Wrr,
            "agedrr" | "aged-rr" | "wrr-age" => Policy::AgedRr,
            "srpt" => Policy::Srpt,
            "sjf" | "psjf" => Policy::Sjf,
            "hdf" | "wsjf" => Policy::Hdf,
            "setf" | "las" => Policy::Setf,
            "mlfq" => Policy::Mlfq,
            "fcfs" | "fifo" => Policy::Fcfs,
            "srpt+fcfs" => Policy::Hybrid(DEFAULT_STARVATION_THRESHOLD),
            "ml" | "multilist" | "multi-list" => Policy::MultiList,
            _ => {
                if let Some(rest) = lower.strip_prefix("laps") {
                    let beta = match rest.strip_prefix(':') {
                        Some(b) => b.parse::<f64>().map_err(|e| format!("bad LAPS β: {e}"))?,
                        None if rest.is_empty() => 0.5,
                        _ => return Err(format!("unknown policy: {s}")),
                    };
                    if !(0.0..=1.0).contains(&beta) || beta == 0.0 {
                        return Err(format!("LAPS β must be in (0,1], got {beta}"));
                    }
                    Policy::Laps(beta)
                } else if let Some(rest) = lower
                    .strip_prefix("hybrid")
                    .or_else(|| lower.strip_prefix("hyb"))
                {
                    let theta = match rest.strip_prefix(':') {
                        Some(t) => t.parse::<f64>().map_err(|e| format!("bad hybrid θ: {e}"))?,
                        None if rest.is_empty() => DEFAULT_STARVATION_THRESHOLD,
                        _ => return Err(format!("unknown policy: {s}")),
                    };
                    if theta.is_nan() || theta < 0.0 {
                        return Err(format!("hybrid θ must be ≥ 0, got {theta}"));
                    }
                    Policy::Hybrid(theta)
                } else {
                    return Err(format!("unknown policy: {s}"));
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Display output parses back for every registry entry — including
    /// the parameterized variants, whose `LAPS(β)` / `HYB(θ)` forms the
    /// parser previously rejected (the old test worked around that by
    /// re-formatting them as `laps:β` / `hyb:θ`).
    #[test]
    fn parse_roundtrip() {
        for p in Policy::all() {
            let parsed: Policy = p.to_string().parse().unwrap();
            assert_eq!(parsed, p, "{p}");
        }
        for p in [
            Policy::Laps(0.25),
            Policy::Hybrid(0.0),
            Policy::Hybrid(8.5),
            Policy::Hybrid(f64::INFINITY),
        ] {
            let parsed: Policy = p.to_string().parse().unwrap();
            assert_eq!(parsed, p, "{p}");
        }
    }

    /// Pin the Display spellings the round-trip relies on (∞ prints as
    /// `inf`, integral parameters drop the decimal point) — these strings
    /// appear verbatim in experiment tables and BENCH records.
    #[test]
    fn display_formatting_is_pinned() {
        assert_eq!(Policy::Laps(0.5).to_string(), "LAPS(0.5)");
        assert_eq!(Policy::Hybrid(0.0).to_string(), "HYB(0)");
        assert_eq!(Policy::Hybrid(8.5).to_string(), "HYB(8.5)");
        assert_eq!(Policy::Hybrid(f64::INFINITY).to_string(), "HYB(inf)");
        assert_eq!(Policy::MultiList.to_string(), "ML");
    }

    #[test]
    fn parse_display_aliases() {
        assert_eq!("laps(0.5)".parse::<Policy>().unwrap(), Policy::Laps(0.5));
        assert_eq!(
            "HYB(inf)".parse::<Policy>().unwrap(),
            Policy::Hybrid(f64::INFINITY)
        );
        assert_eq!("hyb(0)".parse::<Policy>().unwrap(), Policy::Hybrid(0.0));
        // Parenthesized garbage is still rejected.
        assert!("rr()".parse::<Policy>().is_err());
        assert!("laps(2.0)".parse::<Policy>().is_err());
        assert!("hyb(-1)".parse::<Policy>().is_err());
        assert!("(0.5)".parse::<Policy>().is_err());
    }

    #[test]
    fn parse_aliases() {
        assert_eq!("fifo".parse::<Policy>().unwrap(), Policy::Fcfs);
        assert_eq!("las".parse::<Policy>().unwrap(), Policy::Setf);
        assert_eq!("round-robin".parse::<Policy>().unwrap(), Policy::Rr);
        assert_eq!("laps".parse::<Policy>().unwrap(), Policy::Laps(0.5));
        assert_eq!(
            "hybrid".parse::<Policy>().unwrap(),
            Policy::Hybrid(DEFAULT_STARVATION_THRESHOLD)
        );
        assert_eq!(
            "srpt+fcfs".parse::<Policy>().unwrap(),
            Policy::Hybrid(DEFAULT_STARVATION_THRESHOLD)
        );
        assert_eq!("hyb:2.5".parse::<Policy>().unwrap(), Policy::Hybrid(2.5));
        assert_eq!(
            "hyb:inf".parse::<Policy>().unwrap(),
            Policy::Hybrid(f64::INFINITY)
        );
        assert_eq!("multilist".parse::<Policy>().unwrap(), Policy::MultiList);
        assert_eq!("ml".parse::<Policy>().unwrap(), Policy::MultiList);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<Policy>().is_err());
        assert!("zzz".parse::<Policy>().is_err());
        assert!("laps:2.0".parse::<Policy>().is_err());
        assert!("laps:0".parse::<Policy>().is_err());
        assert!("laps:x".parse::<Policy>().is_err());
        assert!("hyb:-1".parse::<Policy>().is_err());
        assert!("hyb:nan".parse::<Policy>().is_err());
        assert!("hyb:x".parse::<Policy>().is_err());
        assert!("hybridx".parse::<Policy>().is_err());
    }

    #[test]
    fn make_produces_matching_names() {
        assert_eq!(Policy::Rr.make().name(), "RR");
        assert_eq!(Policy::Srpt.make().name(), "SRPT");
        assert_eq!(Policy::Laps(0.25).make().name(), "LAPS");
        assert_eq!(Policy::Hybrid(3.0).make().name(), "HYB");
        assert_eq!(Policy::MultiList.make().name(), "ML");
    }

    #[test]
    fn clairvoyance_classification() {
        assert!(Policy::Srpt.clairvoyant());
        assert!(Policy::Sjf.clairvoyant());
        assert!(Policy::Hybrid(1.0).clairvoyant());
        assert!(Policy::MultiList.clairvoyant());
        for p in [
            Policy::Rr,
            Policy::AgedRr,
            Policy::Setf,
            Policy::Mlfq,
            Policy::Fcfs,
            Policy::Laps(0.5),
        ] {
            assert!(!p.clairvoyant(), "{p}");
        }
    }

    #[test]
    fn ids_match_allocator_names() {
        for p in Policy::all() {
            assert_eq!(p.id(), p.make().name(), "{p}");
        }
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    /// Every policy the registry can express: all parameterless entries,
    /// LAPS over its full β range, and the hybrid over magnitudes from
    /// tiny to ∞ (θ = 0 and θ = ∞ are the bitwise FCFS/SRPT poles, so
    /// their spellings matter).
    fn arb_policy() -> impl Strategy<Value = Policy> {
        prop_oneof![
            (0usize..Policy::all().len()).prop_map(|i| Policy::all()[i]),
            (0.001f64..=1.0).prop_map(Policy::Laps),
            prop_oneof![
                Just(0.0),
                Just(8.5),
                Just(f64::INFINITY),
                (-6.0f64..6.0).prop_map(|e| 10f64.powf(e)),
            ]
            .prop_map(Policy::Hybrid),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `Display` → `FromStr` is the identity over the full registry,
        /// parameterized variants included.
        #[test]
        fn display_from_str_roundtrip(p in arb_policy()) {
            let s = p.to_string();
            let parsed = s.parse::<Policy>();
            prop_assert!(parsed.is_ok(), "{}: {:?}", s, parsed);
            prop_assert_eq!(parsed.unwrap(), p, "{}", s);
        }

        /// Parsing is case-insensitive on the Display form.
        #[test]
        fn parse_is_case_insensitive(p in arb_policy()) {
            let s = p.to_string().to_ascii_lowercase();
            let parsed = s.parse::<Policy>();
            prop_assert!(parsed.is_ok(), "{}: {:?}", s, parsed);
            prop_assert_eq!(parsed.unwrap(), p, "{}", s);
        }
    }
}
