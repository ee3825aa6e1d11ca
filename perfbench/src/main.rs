//! The repository benchmark. One binary runs every workload:
//!
//! ```text
//! perfbench --workload <paper_grid|fleet_grid|daemon_mix> --seed <n>
//!           --seconds <s> --trace <0|1> [--size tiny] [--work-dir <dir>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` (the `traced`
//! build) replays a seeded sample of the workload's inputs through each
//! layer's public functions and prints the per-layer metrics. Either way
//! the last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod daemon;
mod grids;
mod inputs;
mod stats;
#[cfg(feature = "traced")]
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;

use inputs::Size;

/// Worker threads of every end-to-end run (the host has two cores).
pub const THREADS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperGrid,
    FleetGrid,
    DaemonMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperGrid,
        Workload::FleetGrid,
        Workload::DaemonMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::FleetGrid => "fleet_grid",
            Workload::DaemonMix => "daemon_mix",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Perturbs one oracle value: the self-test's proof that a wrong
    /// answer is caught.
    pub corrupt_oracle: bool,
    /// Scratch space (the daemon's data dirs, the trace file).
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut corrupt_oracle = false;
    let mut work_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == v)
                        .ok_or(format!("unknown workload {v:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--size" => {
                size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    v => return Err(format!("--size takes full or tiny, not {v:?}")),
                }
            }
            "--corrupt-oracle" => corrupt_oracle = true,
            "--work-dir" => work_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        size,
        corrupt_oracle,
        work_dir: work_dir.unwrap_or_else(|| PathBuf::from(".bench_build/perfbench-work")),
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (repetitions, queries, calls).
    pub samples: usize,
    /// Per-layer metrics: the end-to-end metric and workload it should move.
    pub moves: Option<&'static str>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            unit,
            value,
            samples,
            moves: None,
        }
    }
}

/// What a run prints.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// JSON numbers cannot be infinite or NaN; a percentile that landed on a
/// failed operation (+inf) is reported as this sentinel instead.
const MISSED_LIMIT: f64 = 1e300;

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{MISSED_LIMIT:e}")
    }
}

fn print_outcome(out: &Outcome) {
    let frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "metric failed_frac = {frac} ratio (n={}; {} failed)",
        out.attempted, out.failed
    );
    for m in &out.metrics {
        let moves = m
            .moves
            .map(|s| format!("  [moves {s}]"))
            .unwrap_or_default();
        println!(
            "metric {} = {} {} (n={}){moves}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.correct,
        out.attempted.max(1),
        out.failed
    );
}

fn run(args: &Args) -> Result<Outcome, String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("work dir {}: {e}", args.work_dir.display()))?;
    if args.trace {
        #[cfg(feature = "traced")]
        return traced::run(args);
        #[cfg(not(feature = "traced"))]
        return Err("--trace 1 needs the traced build (cargo build --features traced)".to_string());
    }
    match args.workload {
        Workload::PaperGrid | Workload::FleetGrid => Ok(grids::run(args.workload, args)),
        Workload::DaemonMix => daemon::run(args),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} threads {} (available parallelism {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        THREADS,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    match run(&args) {
        Ok(out) => {
            print_outcome(&out);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
