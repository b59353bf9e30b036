//! The QBS benchmark: one command per workload run.
//!
//! ```sh
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus_compile|pageload_mixed \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is the result: `correct`,
//! `attempted`, `failed`, and the metrics — the end-to-end ones untraced,
//! the per-layer ones traced (see `report.rs`). Lines before it give the
//! seed, sizes, sample counts and any failure. A traced run also writes
//! its spans to `perfbench/out/<workload>-seed<N>.tsv`.

mod corpus;
mod pageload;
mod report;
mod rng;
mod stats;
mod trace;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// Command-line arguments.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: qbs-perfbench --workload corpus_compile|pageload_mixed \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Writes a traced run's spans to `perfbench/out/`; a failure to write
/// is noted, not fatal.
pub fn write_spans(args: &Args, spans: &[trace::Span], selfs: &[u64], out: &mut Outcome) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("{}-seed{}.tsv", args.workload, args.seed));
    match std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace::render(spans, selfs)))
    {
        Ok(()) => out.notes.push(format!("spans written to {}", path.display())),
        Err(e) => out.notes.push(format!("spans not written to {}: {e}", path.display())),
    }
}

/// Keeps freed heap memory in the process instead of handing it back to
/// the kernel after each page or fragment. Otherwise every operation
/// faults its working set back in, and in a virtual machine the cost of
/// those faults swings with the host's load, which swamps the program's
/// own run-to-run differences.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_heap() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets glibc allocator parameters, takes plain
    // integers, and runs here before the benchmark starts any thread.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_heap() {}

fn main() -> ExitCode {
    keep_heap();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = match (args.workload.as_str(), args.trace) {
        ("corpus_compile", false) => corpus::run(&args),
        ("corpus_compile", true) => corpus::run_traced(&args),
        ("pageload_mixed", false) => pageload::run_mixed(&args),
        ("pageload_mixed", true) => pageload::run_traced(&args),
        (other, _) => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if out.attempted == 0 {
        for note in &out.notes {
            eprintln!("{note}");
        }
        eprintln!("no operation was attempted");
        return ExitCode::FAILURE;
    }
    let line = out.result_line(if args.trace { &PER_LAYER } else { &END_TO_END });
    println!("seed {} workload {} trace {}", args.seed, args.workload, u8::from(args.trace));
    for note in &out.notes {
        println!("{note}");
    }
    println!("{line}");
    ExitCode::SUCCESS
}
