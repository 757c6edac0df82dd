//! Bit pins for the job generators.
//!
//! Every experiment table, stream benchmark and audit count is a function
//! of the exact job bits these generators emit, so a refactor of the
//! arrival or size code must leave them untouched. Each test hashes the
//! `f64` bits of the first 1 000 jobs (arrival, size, weight, plus the
//! flow index for flow sets) with 64-bit FNV-1a and compares against a
//! digest recorded from the generators before they were unified. A
//! one-ulp change anywhere — a reordered draw, a different accumulation
//! order — changes the digest.
//!
//! The five [`ArrivalProcess`] variants are pinned through both paths:
//! closed traces ([`WorkloadSpec::generate`], one interleaved RNG) and
//! open streams ([`OpenWorkload::stream`], split arrival/size RNGs).

use tf_simcore::JobSource;
use tf_workload::{
    ArrivalProcess, FlowSet, FlowSpec, OpenWorkload, SizeDist, StreamArrivals, StreamBound,
    WorkloadSpec,
};

const N: usize = 1_000;

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

/// The five arrival processes, each with the size law it is pinned under.
fn processes() -> [(&'static str, ArrivalProcess, SizeDist); 5] {
    [
        (
            "poisson",
            ArrivalProcess::Poisson { rate: 0.9 },
            SizeDist::Exponential { mean: 1.0 },
        ),
        (
            "periodic",
            ArrivalProcess::Periodic { interval: 1.1 },
            SizeDist::Uniform { lo: 0.1, hi: 2.0 },
        ),
        (
            "batched",
            ArrivalProcess::Batched {
                interval: 2.5,
                per_batch: 3,
            },
            SizeDist::Pareto {
                alpha: 1.8,
                min: 0.3,
            },
        ),
        (
            "all-at-once",
            ArrivalProcess::AllAtOnce,
            SizeDist::LogNormal {
                mu: 0.0,
                sigma: 0.8,
            },
        ),
        (
            "diurnal",
            ArrivalProcess::Diurnal {
                base: 0.9,
                amplitude: 0.6,
                period: 40.0,
            },
            SizeDist::Exponential { mean: 1.0 },
        ),
    ]
}

/// Compare every digest against its pin, reporting all of them on failure
/// so a deliberate re-record needs one run.
fn check(got: &[(&str, u64)], want: &[(&str, u64)]) {
    let report: Vec<String> = got
        .iter()
        .map(|(name, h)| format!("(\"{name}\", {h:#018x}),"))
        .collect();
    assert_eq!(got, want, "digests:\n{}", report.join("\n"));
}

#[test]
fn closed_traces_keep_their_bits() {
    let got: Vec<(&str, u64)> = processes()
        .into_iter()
        .map(|(name, arrivals, sizes)| {
            let trace = WorkloadSpec {
                n: N,
                arrivals,
                sizes,
                seed: 17,
            }
            .generate();
            assert_eq!(trace.len(), N, "{name}");
            let words = trace
                .jobs()
                .iter()
                .flat_map(|j| [j.arrival.to_bits(), j.size.to_bits(), j.weight.to_bits()]);
            (name, fnv1a(words))
        })
        .collect();
    check(&got, &CLOSED);
}

#[test]
fn open_streams_keep_their_bits() {
    let got: Vec<(&str, u64)> = processes()
        .into_iter()
        .map(|(name, arrivals, sizes)| {
            let mut s = OpenWorkload {
                arrivals: StreamArrivals::Process(arrivals),
                sizes,
                bound: StreamBound::Count(N as u64),
                seed: 17,
            }
            .stream()
            .unwrap();
            let jobs: Vec<_> = std::iter::from_fn(|| s.next_job()).collect();
            assert_eq!(jobs.len(), N, "{name}");
            let words = jobs
                .iter()
                .flat_map(|j| [j.arrival.to_bits(), j.size.to_bits(), j.weight.to_bits()]);
            (name, fnv1a(words))
        })
        .collect();
    check(&got, &OPEN);
}

#[test]
fn flow_sets_keep_their_bits() {
    let set = FlowSet::new(
        vec![
            FlowSpec::new(
                "poisson",
                1.0,
                StreamArrivals::Process(ArrivalProcess::Poisson { rate: 0.4 }),
                SizeDist::Exponential { mean: 1.0 },
            ),
            FlowSpec::new(
                "diurnal",
                3.0,
                StreamArrivals::Process(ArrivalProcess::Diurnal {
                    base: 0.3,
                    amplitude: 0.5,
                    period: 60.0,
                }),
                SizeDist::Pareto {
                    alpha: 1.8,
                    min: 0.3,
                },
            ),
        ],
        23,
    );
    // 500 jobs per flow: 1 000 merged jobs on each path.
    let bound = StreamBound::Count(N as u64 / 2);

    let (trace, map) = set.build(bound).unwrap();
    assert_eq!(trace.len(), N);
    let built = fnv1a(trace.jobs().iter().flat_map(|j| {
        [
            j.arrival.to_bits(),
            j.size.to_bits(),
            j.weight.to_bits(),
            map.flow_of(j.id) as u64,
        ]
    }));

    let mut s = set.stream(bound).unwrap();
    let log = s.flow_log();
    let jobs: Vec<_> = std::iter::from_fn(|| s.next_job()).collect();
    assert_eq!(jobs.len(), N);
    let streamed = fnv1a(jobs.iter().enumerate().flat_map(|(k, j)| {
        [
            j.arrival.to_bits(),
            j.size.to_bits(),
            j.weight.to_bits(),
            log.flow_of(k as u32) as u64,
        ]
    }));

    // The stream is the unmaterialised build, so both carry one digest.
    check(
        &[("build", built), ("stream", streamed)],
        &[("build", FLOWS), ("stream", FLOWS)],
    );
}

const CLOSED: [(&str, u64); 5] = [
    ("poisson", 0xf4507d7cdb92db3c),
    ("periodic", 0xa046a3598df5dcfd),
    ("batched", 0xa07649a7a482c185),
    ("all-at-once", 0x43d663f34698c140),
    ("diurnal", 0x24c7696425ff7b4f),
];

const OPEN: [(&str, u64); 5] = [
    ("poisson", 0x1c01641217acf38b),
    ("periodic", 0x4a6c45332b55df1b),
    ("batched", 0xd4cd1608e055c38e),
    ("all-at-once", 0x94d6a6c496befb09),
    ("diurnal", 0x39972e138a5da591),
];

const FLOWS: u64 = 0xb12026c90251a9cb;
