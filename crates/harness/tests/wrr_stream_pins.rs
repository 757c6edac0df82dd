//! Bit pins for Weighted Round Robin on E22's streamed 4-flow mix.
//!
//! WRR's shares come from `tf_policies::water_fill`. When no job's
//! proportional share reaches one machine it writes `λ·w_j` in one pass;
//! only when the heaviest job's share would pass its cap does it sort and
//! cap. This test streams 2·10⁵ jobs of E22's 4-flow 1:2:4:8 mix (rebuilt
//! from the public `FlowSpec`/`FlowSet`, as the experiment keeps its mixes
//! private) through `simulate_stream` under WRR, at m = 1, where a cap
//! binds only when one job holds all the weight, and at m = 2, where the
//! capping branch runs on many events. It hashes, with 64-bit FNV-1a,
//! every completed job's id and completion bits in retirement order. The
//! hashes were recorded before `water_fill` learned to skip the sort
//! when no cap binds.
//!
//! The pins see the schedule: a wrong branch, or a capped share moved by
//! 10⁻¹² of itself, changes completions. A share moved by one ulp mostly
//! does not, since a completion time is a long clock plus a short step,
//! and with these power-of-two weights `λ·w` and `budget·w/Σw` round
//! alike anyway; the bitwise oracle proptest beside `water_fill` covers
//! the last bit.

use tf_policies::WeightedRoundRobin;
use tf_simcore::{simulate_stream, AliveJob, MachineConfig, RateAllocator, StreamOptions};
use tf_workload::{ArrivalProcess, FlowSet, FlowSpec, SizeDist, StreamArrivals, StreamBound};

/// Jobs per flow: four flows, 2·10⁵ jobs in all.
const PER_FLOW: u64 = 50_000;

/// 64-bit FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn poisson(rate: f64) -> StreamArrivals {
    StreamArrivals::Process(ArrivalProcess::Poisson { rate })
}

/// E22's 4-flow mix at its streaming seed: weights 1:2:4:8, offered load
/// ≈ 0.9 on one unit-speed machine.
fn four_flows() -> FlowSet {
    let exp = |mean| SizeDist::Exponential { mean };
    FlowSet::new(
        vec![
            FlowSpec::new("bronze", 1.0, poisson(0.30), exp(0.5)),
            FlowSpec::new("silver", 2.0, poisson(0.25), exp(1.0)),
            FlowSpec::new("gold", 4.0, poisson(0.15), exp(1.5)),
            FlowSpec::new(
                "platinum",
                8.0,
                poisson(0.10),
                SizeDist::Pareto {
                    alpha: 2.2,
                    min: 0.8,
                },
            ),
        ],
        0xE22_0002,
    )
}

/// WRR, counting the calls on which the heaviest job's proportional
/// share reaches its cap (the water-fill's capping branch).
#[derive(Default)]
struct CapCounting {
    inner: WeightedRoundRobin,
    capped: u64,
}

impl RateAllocator for CapCounting {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn allocate(&mut self, now: f64, alive: &[AliveJob], cfg: &MachineConfig, rates: &mut [f64]) {
        let first = alive.first().map_or(0.0, |a| a.weight);
        if alive.iter().any(|a| a.weight != first) {
            let wsum: f64 = alive.iter().map(|a| a.weight).sum();
            let wmax = alive.iter().map(|a| a.weight).fold(0.0, f64::max);
            let budget = cfg.total_cap().min(alive.len() as f64 * cfg.job_cap());
            if budget * wmax / wsum >= cfg.job_cap() {
                self.capped += 1;
            }
        }
        self.inner.allocate(now, alive, cfg, rates);
    }
}

/// Stream the mix under WRR on `m` machines: (jobs, capped calls, hash).
fn stream_hash(m: usize) -> (u64, u64, u64) {
    let mut source = four_flows()
        .stream(StreamBound::Count(PER_FLOW))
        .expect("mix parameters are valid");
    let mut alloc = CapCounting::default();
    let mut words = Vec::with_capacity(2 * 4 * PER_FLOW as usize);
    let report = simulate_stream(
        &mut source,
        &mut alloc,
        MachineConfig::new(m),
        StreamOptions::default(),
        &mut |job| words.extend([u64::from(job.id), job.completion.to_bits()]),
    )
    .expect("the flow stream simulates cleanly");
    (report.completed, alloc.capped, fnv1a(words))
}

#[test]
fn wrr_streams_the_four_flow_mix_bit_for_bit() {
    let (n1, capped1, h1) = stream_hash(1);
    let (n2, capped2, h2) = stream_hash(2);
    assert_eq!(
        (n1, n2),
        (4 * PER_FLOW, 4 * PER_FLOW),
        "every job completes"
    );
    assert!(capped2 > 0, "at m = 2 some share must hit its cap");
    assert_eq!(
        [h1, h2],
        [0x541a_62c8_dd67_3f97, 0xe586_2922_4436_8442],
        "WRR completions moved (m = 1: {capped1} capped calls, m = 2: {capped2})"
    );
}
