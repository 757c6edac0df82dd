//! Bit pin for the t-digest behind every streamed percentile.
//!
//! The stream benchmarks and BENCH_4 fold flow times into a
//! [`StreamingFlowStats`] chunk of 65 536 completions, then merge each
//! chunk into a run total. This test does the same with a fixed
//! pseudo-random sequence of 10⁶ values and hashes, with 64-bit FNV-1a,
//! the bits of the total's centroids (mean and weight) and of its p50,
//! p90 and p99. The digest was recorded before `TDigest::compress`
//! learned to sort only its buffer, so any change to the fold's point
//! order or arithmetic, by so much as one ulp, fails it.

use tf_metrics::StreamingFlowStats;

const N: u64 = 1_000_000;
const CHUNK: u64 = 65_536;

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

/// Value `i` of the sequence: splitmix64 of `i`, mapped to an
/// exponential with a heavy mix of scales, as flow times near full load
/// spread.
fn value(i: u64) -> f64 {
    let mut z = i.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let u = (z >> 11) as f64 / (1u64 << 53) as f64;
    let scale = [0.5, 1.0, 4.0, 40.0][(z & 3) as usize];
    -(1.0 - u).ln() * scale
}

/// The centroid bits of a serialized digest, mean then weight.
fn centroid_bits(stats: &StreamingFlowStats) -> Vec<u64> {
    let tree = serde::Serialize::to_value(&stats.digest);
    let centroids = tree
        .get("centroids")
        .and_then(|c| c.as_seq())
        .expect("a digest serializes its centroids");
    centroids
        .iter()
        .flat_map(|c| c.as_seq().expect("a centroid is a (mean, weight) pair"))
        .map(|x| match x {
            serde::Value::Float(f) => f.to_bits(),
            other => panic!("a centroid field is a float, got {other:?}"),
        })
        .collect()
}

#[test]
fn chunk_merged_digest_is_pinned_bit_for_bit() {
    let mut total = StreamingFlowStats::new(128);
    let mut chunk = StreamingFlowStats::new(128);
    for i in 0..N {
        chunk.push(value(i));
        if chunk.n() >= CHUNK {
            total.merge(&chunk);
            chunk = StreamingFlowStats::new(128);
        }
    }
    total.merge(&chunk);
    let st = total.finish();
    assert_eq!(st.n as u64, N);

    let centroids = centroid_bits(&total);
    assert!(
        centroids.len() >= 2 * 64,
        "{} centroid words",
        centroids.len()
    );
    let quantiles = [st.p50, st.p90, st.p99].map(f64::to_bits);
    let digest = fnv1a(centroids.iter().copied().chain(quantiles));
    assert_eq!(
        digest, 0xe31f_8e59_752c_65a9,
        "digest {digest:#018x}; p50 {} p90 {} p99 {}",
        st.p50, st.p90, st.p99
    );
}
