//! End-to-end benchmark of the LRPC reproduction on both clocks.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--smoke] [--out <dir>] [--expect key=value]...
//! ```
//!
//! `--trace 0` runs the workload in passes until `--seconds` have gone
//! by and prints the end-to-end metrics; `--trace 1` runs an untraced
//! and a traced pass and prints the per-layer metrics. The last line of
//! standard output is one JSON object; a failed output check sets
//! `"correct": false` and the exit code to 1. Workloads and metrics are
//! described in `perfbench/README.md`.

mod layers;
mod ring;
mod serial;
mod site;
mod spans;
mod stats;

use std::path::PathBuf;
use std::time::Instant;

use stats::{median_f64, proc_status_kb, quantile, quantile_f64, Checks, VirtStats};

/// The end-to-end metrics, in output order, with their units. `vns` is
/// nanoseconds of simulated Firefly time, `ns` of host wall time.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("host_op_p50_ns", "ns"),
    ("host_op_p99_ns", "ns"),
    ("host_calls_per_s", "1/s"),
    ("virt_call_mean_ns", "vns"),
    ("virt_p50_ns", "vns"),
    ("virt_p99_ns", "vns"),
    ("success_ratio", "ratio"),
    ("rss_peak_mb", "MB"),
];

pub const WORKLOADS: [&str; 4] = [
    "serial-table4",
    "ring-batch",
    "site-open-loop",
    "serial-recorded",
];

/// Run parameters shared by every workload.
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    /// Tiny sizes for the smoke test; artefact checks that need the full
    /// size are skipped.
    pub smoke: bool,
    /// Expected virtual values read from the repository's artefacts.
    pub expect: Vec<(String, f64)>,
}

impl Cfg {
    /// An expected value; a missing one fails the run.
    pub fn expected(&self, key: &str, checks: &mut Checks) -> Option<f64> {
        let v = self.expect.iter().find(|(k, _)| k == key).map(|&(_, v)| v);
        checks.ensure(v.is_some(), || format!("no expected value for {key}"));
        v
    }
}

/// What one pass of a workload reports.
pub struct Pass {
    /// Host ns of every op (a call, a `call_batch` flush or a site
    /// arrival), and the calls each op carried.
    pub host_ns: Vec<u64>,
    pub op_calls: Vec<u32>,
    pub calls: u64,
    pub failed: u64,
    /// Host seconds the system spent on the pass's ops, plus log
    /// finishing for a recorded pass.
    pub busy_s: f64,
    /// Ops per host sample window.
    pub window_ops: usize,
    pub virt: VirtStats,
}

/// A measured run: passes until the time is up, each on a fresh set-up.
/// Host figures are sampled per set-up, per window of ops (p50 and
/// throughput) and per pass (p99).
pub struct Measured {
    pub setups: Vec<f64>,
    pub host_p50: Vec<f64>,
    pub host_p99: Vec<f64>,
    pub calls_per_s: Vec<f64>,
    pub ops: u64,
    pub calls: u64,
    pub failed: u64,
    pub virt: Option<VirtStats>,
}

/// Runs at least two passes and keeps going until `cfg.seconds` have
/// elapsed. `setup` is timed `setup_reps` times per pass (the last
/// environment is kept); every pass must reproduce the first pass's
/// virtual statistics exactly.
pub fn measure<E>(
    cfg: &Cfg,
    checks: &mut Checks,
    setup_reps: usize,
    mut setup: impl FnMut() -> E,
    mut pass: impl FnMut(&E, &mut Checks) -> Pass,
) -> Measured {
    let start = Instant::now();
    let mut m = Measured {
        setups: Vec::new(),
        host_p50: Vec::new(),
        host_p99: Vec::new(),
        calls_per_s: Vec::new(),
        ops: 0,
        calls: 0,
        failed: 0,
        virt: None,
    };
    let mut passes = 0;
    while passes < 2 || start.elapsed().as_secs_f64() < cfg.seconds {
        let mut env = None;
        for _ in 0..setup_reps.max(1) {
            drop(env.take());
            let t = Instant::now();
            env = Some(setup());
            m.setups.push(t.elapsed().as_secs_f64());
        }
        let p = pass(env.as_ref().expect("set up at least once"), checks);
        drop(env);
        // Log finishing counts in throughput, spread over the windows.
        let ops_s = p.host_ns.iter().sum::<u64>() as f64 / 1e9;
        let finish_share = ops_s / p.busy_s.max(1e-9);
        let w = p.window_ops.max(1);
        for (ns, calls) in p.host_ns.chunks(w).zip(p.op_calls.chunks(w)) {
            m.host_p50.push(quantile(ns, 0.50) as f64);
            let secs = ns.iter().sum::<u64>() as f64 / 1e9;
            let calls = calls.iter().map(|&c| u64::from(c)).sum::<u64>();
            m.calls_per_s
                .push(calls as f64 / secs.max(1e-9) * finish_share);
        }
        let p99 = quantile(&p.host_ns, 0.99);
        m.host_p99.push(p99 as f64);
        eprintln!(
            "pass {passes}: {} ops, host p50 {} ns, p99 {p99} ns, {:.0} calls/s",
            p.host_ns.len(),
            quantile(&p.host_ns, 0.50),
            p.calls as f64 / p.busy_s.max(1e-9)
        );
        m.ops += p.host_ns.len() as u64;
        m.calls += p.calls;
        m.failed += p.failed;
        match &m.virt {
            None => m.virt = Some(p.virt),
            Some(first) => checks.ensure(*first == p.virt, || {
                format!(
                    "pass {passes} virtual stats {:?} differ from pass 0 {first:?}",
                    p.virt
                )
            }),
        }
        passes += 1;
    }
    m
}

/// The percentile of window samples reported for host p50 and throughput
/// (see [`end_to_end`]).
const QUIET: f64 = 0.10;

/// One output metric: name, value, unit, samples behind it.
pub type Metric = (String, f64, &'static str, u64);

/// `setup_s` is the median set-up, and `host_op_p99_ns` the median over
/// passes of each whole pass's p99, so a slow path the program takes in
/// only some windows still counts. Host p50 and throughput take the end
/// of their window sample that interference moves least: the 10th
/// percentile of the windows' p50 and the 90th of their throughput.
/// Another tenant of the host only ever adds time, in episodes of
/// seconds, so a quiet tenth of the run is enough for a steady figure.
fn end_to_end(m: &Measured) -> Vec<Metric> {
    let virt = m.virt.clone().expect("at least one pass");
    let values = [
        (median_f64(&m.setups), m.setups.len() as u64),
        (quantile_f64(&m.host_p50, QUIET), m.ops),
        (median_f64(&m.host_p99), m.ops),
        (quantile_f64(&m.calls_per_s, 1.0 - QUIET), m.calls),
        (virt.mean, virt.calls),
        (virt.p50 as f64, virt.calls),
        (virt.p99 as f64, virt.calls),
        (1.0 - m.failed as f64 / m.calls.max(1) as f64, m.calls),
        (proc_status_kb("VmHWM:") as f64 / 1024.0, 1),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (v, n))| (name.to_string(), v, unit, n))
        .collect()
}

struct Args {
    workload: String,
    cfg: Cfg,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut smoke = false;
    let mut out = PathBuf::from("perfbench/target/trace");
    let mut expect = Vec::new();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => trace = Some(value == "1"),
            "--out" => out = PathBuf::from(value),
            "--expect" => {
                let (k, v) = value.split_once('=').ok_or("--expect wants key=value")?;
                expect.push((k.to_string(), v.parse().map_err(|_| "bad --expect value")?));
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        cfg: Cfg {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            smoke,
            expect,
        },
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cfg = &args.cfg;
    let mut checks = Checks::default();
    let (metrics, attempted, failed) = if args.trace {
        let mut layers = layers::Layers::new();
        let mut spans = spans::Spans::new();
        let (attempted, failed) = match args.workload.as_str() {
            "serial-table4" => serial::trace(cfg, false, &mut checks, &mut layers, &mut spans),
            "serial-recorded" => serial::trace(cfg, true, &mut checks, &mut layers, &mut spans),
            "ring-batch" => ring::trace(cfg, &mut checks, &mut layers, &mut spans),
            _ => site::trace(cfg, &mut checks, &mut layers, &mut spans),
        };
        layers::reference_layers(&mut layers);
        let path = args
            .out
            .join(format!("spans-{}-seed{}.tsv", args.workload, cfg.seed));
        if let Err(e) = spans.write(&path) {
            checks.ensure(false, || format!("writing {}: {e}", path.display()));
        }
        (layers.metrics(), attempted, failed)
    } else {
        let m = match args.workload.as_str() {
            "serial-table4" => serial::measure(cfg, false, &mut checks),
            "serial-recorded" => serial::measure(cfg, true, &mut checks),
            "ring-batch" => ring::measure(cfg, &mut checks),
            _ => site::measure(cfg, &mut checks),
        };
        (end_to_end(&m), m.calls, m.failed)
    };

    println!(
        "{:<36} {:>22} {:<6} {:>10}",
        "metric", "value", "unit", "samples"
    );
    for (name, value, unit, n) in &metrics {
        println!("{name:<36} {value:>22.6} {unit:<6} {n:>10}");
    }
    for (name, value, _, _) in &metrics {
        checks.ensure(value.is_finite(), || format!("{name} is {value}"));
    }
    for c in &checks.0 {
        eprintln!("perfbench: check failed: {c}");
    }
    let correct = checks.0.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit, _)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}
