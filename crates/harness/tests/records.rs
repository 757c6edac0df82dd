//! Library runs leave the committed benchmark records alone: only the
//! `experiments` binary, whose context is applied, writes `BENCH_4.json`
//! (the `stream` family) and `BENCH_6.json` (E22).

use tf_harness::{run_experiment, Effort};

#[test]
fn library_runs_of_stream_and_e22_leave_the_committed_records_alone() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let paths = [4, 6].map(|n| format!("{root}/BENCH_{n}.json"));
    let before = paths.clone().map(|p| std::fs::read(p).unwrap());

    std::env::set_var("TF_STREAM_N", "2000");
    std::env::set_var("TF_STREAM_RHO", "0.5");
    let stream = run_experiment("stream", Effort::Quick);
    std::env::remove_var("TF_STREAM_N");
    std::env::remove_var("TF_STREAM_RHO");
    let e22 = run_experiment("e22", Effort::Quick);

    // Put back any record a run rewrote before failing, so a failure
    // does not leave the checkout dirty.
    let mut rewritten = Vec::new();
    for (path, old) in paths.iter().zip(&before) {
        if std::fs::read(path).unwrap() != *old {
            std::fs::write(path, old).unwrap();
            rewritten.push(path);
        }
    }
    assert!(stream.is_some() && e22.is_some());
    assert!(rewritten.is_empty(), "library runs rewrote {rewritten:?}");
}
