//! One benchmark for the dp-spatial workspace: bulk builds, hot-read
//! serving, mixed-write serving and warm restart.
//!
//! ```text
//! perfbench --workload bulk_build|serve_hot_reads|serve_mixed_writes|warm_restart|all
//!           --seed N --seconds S --trace 0|1
//! perfbench --self-test
//! ```
//!
//! Each run sets up its workload several times (reporting the median
//! set-up time), then repeats whole operations for `S` seconds on the
//! parallel backend, checks every output against answers computed apart
//! from the program (`oracle.rs`), and prints one JSON object as the last
//! line of standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. `--workload all` runs the four
//! workloads one after another, each in its own child process. See
//! README.md for the workloads, the metrics and the known faults.

mod bulk;
mod oracle;
mod report;
mod restart;
mod serve;

use report::Outcome;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 4] = [
    "bulk_build",
    "serve_hot_reads",
    "serve_mixed_writes",
    "warm_restart",
];

/// A run that has not finished after this long is ended as failed. The
/// timed phase is at most 60 s, so only a hang reaches it.
const RUN_LIMIT: Duration = Duration::from_secs(170);

/// What the watchdog names when it ends a hung run.
static PHASE: Mutex<&str> = Mutex::new("start-up");

/// Names the phase the run is in, for the watchdog's message.
pub fn phase(name: &'static str) {
    *PHASE.lock().unwrap_or_else(|e| e.into_inner()) = name;
}

/// Settings of one run.
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory (inside the working directory) for the run's files.
    pub scratch: std::path::PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload {}|all --seed N --seconds S --trace 0|1\n       perfbench --self-test",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--self-test") {
        let fails = oracle::self_test();
        fails
            .iter()
            .for_each(|f| eprintln!("self-test failed: {f}"));
        println!(
            "self-test: {}",
            if fails.is_empty() { "ok" } else { "FAILED" }
        );
        std::process::exit(i32::from(!fails.is_empty()));
    }
    let value = |flag: &str| -> Option<&str> {
        let i = args.iter().position(|a| a == flag)?;
        args.get(i + 1).map(String::as_str)
    };
    let workload = value("--workload").unwrap_or_else(|| usage()).to_string();
    let seed: u64 = value("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let seconds: u64 = value("--seconds")
        .and_then(|s| s.parse().ok())
        .filter(|&s| (1..=60).contains(&s))
        .unwrap_or_else(|| usage());
    let trace = match value("--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => usage(),
    };
    if workload == "all" {
        std::process::exit(run_all(&args));
    }
    let Some(&workload) = WORKLOADS.iter().find(|&&w| w == workload) else {
        usage()
    };

    let started = Instant::now();
    // The watchdog thread is never joined: it either exits the process
    // on a hang or is ended with it.
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(250));
        if started.elapsed() > RUN_LIMIT {
            let at = *PHASE.lock().unwrap_or_else(|e| e.into_inner());
            eprintln!(
                "perfbench: {workload} did not finish within {} s (stuck in {at}); run failed",
                RUN_LIMIT.as_secs()
            );
            std::process::exit(3);
        }
    });

    // Known open fault in `scan_model::blocked::tuned_block_bytes`: the
    // block size is calibrated inside a `OnceLock` initializer by a
    // pooled scan, and the pool's help loop can pick up a sibling job
    // that builds another `Machine` and re-enters the same `OnceLock`.
    // When a sharded service build is the first parallel work of a
    // process, that deadlocks. Calibrating here, on the main thread and
    // before any set-up, keeps the calibrated size (no `DP_BLOCK`
    // override) and keeps the fault out of the measurements; the fix
    // belongs in `scanmodel`.
    phase("block-size calibration");
    let block = scan_model::blocked::tuned_block_bytes();
    eprintln!(
        "perfbench: {workload} seed {seed}, {seconds} s, trace {}, block {block} B, nproc {}",
        u8::from(trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    phase("checker self-test");
    let mut out = Outcome::default();
    let fails = oracle::self_test();
    let self_test_ok = fails.is_empty();
    fails
        .iter()
        .for_each(|f| eprintln!("self-test failed: {f}"));

    let scratch = std::path::PathBuf::from(".perfbench_tmp").join(std::process::id().to_string());
    let cfg = RunCfg {
        seed,
        seconds: seconds as f64,
        trace,
        scratch: scratch.clone(),
    };
    match workload {
        "bulk_build" => bulk::run(&cfg, &mut out),
        "serve_hot_reads" => serve::run(&serve::HOT_READS, &cfg, &mut out),
        "serve_mixed_writes" => serve::run(&serve::MIXED_WRITES, &cfg, &mut out),
        "warm_restart" => restart::run(&cfg, &mut out),
        _ => unreachable!("workload name checked above"),
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".perfbench_tmp");
    out.wrong
        .iter()
        .for_each(|w| eprintln!("wrong output: {w}"));
    let correct = self_test_ok && out.wrong.is_empty();
    println!("{}", out.json(correct, trace));
}

/// Runs every workload in its own child process with the same flags and
/// relays each result line; returns the first non-zero exit code.
fn run_all(args: &[String]) -> i32 {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut code = 0;
    for w in WORKLOADS {
        let mut child_args: Vec<String> = args.to_vec();
        let i = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("--workload given");
        child_args[i + 1] = w.to_string();
        let status = std::process::Command::new(&exe)
            .args(&child_args)
            .status()
            .expect("start a workload process");
        if !status.success() && code == 0 {
            code = status.code().unwrap_or(1);
        }
    }
    code
}

/// A small seeded generator (SplitMix64) for the benchmark's own inputs:
/// query points, batch orders and delete ids.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}
