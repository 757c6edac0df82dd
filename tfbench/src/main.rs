//! `tfbench` — run one benchmark workload, print the catalogue, or
//! compare two sets of runs. See README.md.

use std::path::PathBuf;
use std::process::exit;

use tfbench::catalogue::{self, SERVE, SWEEP};
use tfbench::{compare, reference, report, serve, stream, sweep, Ctx};

fn usage() -> ! {
    eprintln!(
        "usage: tfbench run --workload W --seed S [--seconds N] [--trace 0|1]\n\
         \x20                  [--record-reference] [--reference PATH] [--scale X]\n\
         \x20      tfbench catalogue\n\
         \x20      tfbench compare DIR_A DIR_B\n\
         workloads: {}\n\
         --seconds N         measurement budget (default {})\n\
         --trace 1           print the per-layer metrics instead of the end-to-end ones\n\
         --record-reference  store this run's outputs as the reference instead of checking them\n\
         --reference PATH    reference file (default: the committed reference/outputs.tsv)\n\
         --scale X           shrink the inputs (tests only; 0 < X <= 1)",
        catalogue::WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", "),
        catalogue::RUN_SECONDS
    );
    exit(2);
}

fn value<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    v.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag}: missing or malformed value");
        usage()
    })
}

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("run") => run(args),
        Some("catalogue") => print!("{}", catalogue::benchmark_json()),
        Some("compare") => {
            let (Some(a), Some(b), None) = (args.next(), args.next(), args.next()) else {
                usage()
            };
            match compare::compare(a.as_ref(), b.as_ref()) {
                Ok((table, clean)) => {
                    print!("{table}");
                    exit(if clean { 0 } else { 1 });
                }
                Err(e) => {
                    eprintln!("{e}");
                    exit(2);
                }
            }
        }
        _ => usage(),
    }
}

fn run(mut args: impl Iterator<Item = String>) {
    let mut workload: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut seconds = f64::from(catalogue::RUN_SECONDS);
    let mut traced = false;
    let mut scale = 1.0;
    let mut record = false;
    let mut reference_path = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/reference/outputs.tsv"
    ));
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => workload = args.next(),
            "--seed" => seed = Some(value("--seed", args.next())),
            "--seconds" => seconds = value("--seconds", args.next()),
            "--trace" => {
                traced = match args.next().as_deref() {
                    Some("0") => false,
                    Some("1") => true,
                    _ => usage(),
                }
            }
            "--scale" => scale = value("--scale", args.next()),
            "--record-reference" => record = true,
            "--reference" => reference_path = value("--reference", args.next()),
            _ => usage(),
        }
    }
    let Some(workload) = workload.and_then(|w| catalogue::workload(&w)) else {
        usage()
    };
    let Some(seed) = seed else { usage() };
    if !(seconds.is_finite() && seconds > 0.0 && scale > 0.0 && scale <= 1.0) {
        usage();
    }
    // The vendored rayon reads this on every fan-out; pin it to the
    // machine's cores so the run's thread count is explicit.
    if std::env::var_os("RAYON_NUM_THREADS").is_none() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::env::set_var("RAYON_NUM_THREADS", cores.to_string());
    }
    let exe = std::env::current_exe().expect("the running binary has a path");
    let ctx = Ctx {
        workload: workload.name,
        seed,
        seconds,
        traced,
        scale,
        trace_dir: exe.with_file_name("tfbench-traces"),
    };
    eprintln!(
        "tfbench: {} seed {seed}, {seconds} s, trace {}, {} threads",
        ctx.workload,
        u8::from(traced),
        std::env::var("RAYON_NUM_THREADS").unwrap_or_default()
    );

    let mut out = match ctx.workload {
        SWEEP => sweep::run(&ctx),
        SERVE => {
            let bin = exe.with_file_name("tf-serve");
            if !bin.exists() {
                eprintln!(
                    "{} not found; build it with: cargo build --release --manifest-path tfbench/Cargo.toml -p tf-serve",
                    bin.display()
                );
                exit(1);
            }
            serve::run(&ctx, &bin).unwrap_or_else(|e| {
                eprintln!("serve-mixed: {e}");
                exit(1);
            })
        }
        _ => stream::run(&ctx),
    };

    if record {
        if let Err(e) = reference::record(&reference_path, ctx.workload, seed, scale, &out.outputs)
        {
            eprintln!("{e}");
            exit(1);
        }
        eprintln!(
            "recorded {} outputs in {}",
            out.outputs.len(),
            reference_path.display()
        );
    } else {
        match reference::check(&reference_path, ctx.workload, seed, scale, &out.outputs) {
            Ok(Some(problems)) => problems
                .into_iter()
                .for_each(|p| out.fail(format!("reference: {p}"))),
            Ok(None) => eprintln!("no reference outputs for this seed; invariants checked only"),
            Err(e) => out.fail(e),
        }
    }
    for o in &out.outputs {
        eprintln!("output {} = {}", o.key, o.value);
    }
    for p in &out.problems {
        eprintln!("FAILED: {p}");
    }
    let (human, json) = report::render(&mut out, traced);
    print!("{human}");
    println!("{json}");
    exit(if out.failed == 0 { 0 } else { 1 });
}
