//! The repository's benchmark: end-to-end and per-layer metrics of the
//! EC/LRC DSM workspace on three workloads, with the outputs checked.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path dsmbench/Cargo.toml -- \
//!     --workload kv-read|kv-write|apps-recover --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root.  Every workload runs one process with two
//! DSM processors under EC-time, LRC-diff, HLRC-diff and ALRC-diff; metric
//! names carry the suffix `.ec`, `.lrc`, `.hlrc` or `.alrc`.  `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ones from a
//! separately traced run.  The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//! `--workload recovery-probe` is no workload: it crashes every app at every
//! barrier and lists the crash points that fail to recover.  See
//! `dsmbench/README.md` for the workloads, the metrics and the spread.

mod apps;
mod exact;
mod kv;
mod spans;
mod stats;
mod supervise;

use std::path::Path;
use std::time::Instant;

use dsm_core::ImplKind;

use exact::Exact;
use stats::ratio;

/// DSM processors per run: the two host cores, one worker thread each.
pub const NPROCS: usize = 2;
/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// The seed held out for confirming later performance claims.
const HELD_OUT_SEED: u64 = 4242;
/// Rounds a run makes however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Set-ups a workload times before its first pass, after one untimed
/// warm-up.  It times one more after every round, so that `setup_s`, the
/// median of them all, samples the host over the whole run and not only
/// over its first second.
pub const SETUP_REPS_FIRST: usize = 3;
/// No pass starts later than this into a run, so that a run whose passes
/// hang (each is given up after `supervise`'s deadlock limit) still ends.
const CUTOFF_S: f64 = 100.0;

/// The four headline implementations and their metric suffixes.
pub fn impls() -> [(ImplKind, &'static str); 4] {
    [
        (ImplKind::ec_time(), "ec"),
        (ImplKind::lrc_diff(), "lrc"),
        (ImplKind::hlrc_diff(), "hlrc"),
        (ImplKind::adaptive_diff(), "alrc"),
    ]
}

/// Metric values by name; units come from the metric lists below.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Records one metric.
    pub fn put(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push((name.to_string(), value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|m| m.1)
    }
}

/// What one run of a workload reports.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Rounds made: one pass per implementation each, two when traced.
    pub passes: usize,
    pub metrics: Metrics,
}

impl Report {
    fn new() -> Self {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            passes: 0,
            metrics: Metrics::default(),
        }
    }
}

/// Drives a run's rounds.  Each round makes one pass per implementation,
/// starting at a different implementation each round so that none always
/// runs first; a traced run makes an untraced and a traced pass per
/// implementation, alternating which goes first.  `pass` gets the
/// implementation's index and whether to trace; returns the number of
/// whole rounds.  Rounds continue until [`MIN_ROUNDS`] are done and then
/// while another round of average length still ends within `seconds`; no
/// pass starts after [`CUTOFF_S`].  `after_round` runs after every whole
/// round.
pub fn rounds(
    seconds: f64,
    traced: bool,
    n: usize,
    mut pass: impl FnMut(usize, bool),
    mut after_round: impl FnMut(),
) -> usize {
    let start = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || {
        let elapsed = start.elapsed().as_secs_f64();
        elapsed + elapsed / round as f64 <= seconds
    } {
        for j in 0..n {
            let idx = (j + round) % n;
            let order: &[bool] = match (traced, round % 2) {
                (false, _) => &[false],
                (true, 0) => &[false, true],
                (true, _) => &[true, false],
            };
            for &tr in order {
                if start.elapsed().as_secs_f64() > CUTOFF_S {
                    return round;
                }
                pass(idx, tr);
            }
        }
        after_round();
        round += 1;
    }
    round
}

/// Host timings of one implementation's passes.
#[derive(Debug, Default)]
pub struct HostTimes {
    /// Wall seconds of each untraced pass.
    pub wall_s: Vec<f64>,
    /// Process CPU seconds of each untraced pass.
    pub cpu_s: Vec<f64>,
    /// Wall seconds of each traced pass.
    pub traced_wall_s: Vec<f64>,
    /// Host latency of every op of every untraced pass, ns.
    pub lat_ns: Vec<u64>,
}

/// [`HostTimes`] boiled down to the reported figures.
#[derive(Debug)]
pub struct HostSummary {
    passes: usize,
    wall_s: f64,
    cpu_s: f64,
    p50_us: f64,
    p99_us: f64,
    samples: usize,
}

impl HostTimes {
    /// Median wall time, mean CPU time (the CPU clock ticks in 1/100 s, so
    /// only an average over passes is precise) and exact latency
    /// percentiles over every op.
    pub fn summary(&mut self) -> HostSummary {
        let cpu_s = ratio(self.cpu_s.iter().sum(), self.cpu_s.len() as f64);
        HostSummary {
            passes: self.wall_s.len(),
            wall_s: stats::median(&self.wall_s),
            cpu_s,
            p50_us: stats::quantile(&mut self.lat_ns, 0.50) as f64 / 1e3,
            p99_us: stats::quantile(&mut self.lat_ns, 0.99) as f64 / 1e3,
            samples: self.lat_ns.len(),
        }
    }
}

impl HostSummary {
    /// The figures as JSON object fields, for the per-implementation rows.
    pub fn json_fields(&self) -> String {
        format!(
            "\"passes\":{},\"wall_s\":{},\"cpu_s\":{},\"p50_us\":{},\"p99_us\":{},\
             \"latency_samples\":{}",
            self.passes, self.wall_s, self.cpu_s, self.p50_us, self.p99_us, self.samples
        )
    }

    /// Records the host metrics of implementation `sfx`: `cpu_s`, plus
    /// `wall_s`, `p50_us` and `p99_us` when `traced`.
    pub fn put_metrics(&self, m: &mut Metrics, sfx: &str, traced: bool) {
        m.put(&format!("cpu_s.{sfx}"), self.cpu_s);
        if traced {
            m.put(&format!("wall_s.{sfx}"), self.wall_s);
            m.put(&format!("p50_us.{sfx}"), self.p50_us);
            m.put(&format!("p99_us.{sfx}"), self.p99_us);
        }
    }
}

/// Traced over untraced wall time, summed over implementations.
pub fn trace_overhead<'a>(hosts: impl Iterator<Item = &'a HostTimes>) -> f64 {
    let (traced, untraced) = hosts.fold((0.0, 0.0), |(t, u), h| {
        (
            t + stats::median(&h.traced_wall_s),
            u + stats::median(&h.wall_s),
        )
    });
    ratio(traced, untraced)
}

/// The per-layer metrics every workload reports from its exact counts.
pub fn exact_layer_metrics(m: &mut Metrics, sfx: &str, e: &Exact) {
    m.put(&format!("lock.acquires.{sfx}"), e.lock_acquires as f64);
    m.put(&format!("lock.transfers.{sfx}"), e.lock_transfers as f64);
    m.put(
        &format!("lock.transfer_ratio.{sfx}"),
        ratio(e.lock_transfers as f64, e.lock_acquires as f64),
    );
    m.put(&format!("sim.messages.{sfx}"), e.messages as f64);
    m.put(&format!("sim.bytes.{sfx}"), e.bytes as f64);
    m.put(
        &format!("sim.imbalance.{sfx}"),
        ratio(e.max_node_ns as f64, e.mean_node_ns as f64),
    );
    m.put(&format!("data.misses.{sfx}"), e.misses as f64);
    m.put(&format!("data.write_faults.{sfx}"), e.write_faults as f64);
    m.put(&format!("data.diffs.{sfx}"), e.diffs as f64);
    m.put(&format!("wire.frames.{sfx}"), e.wire_frames as f64);
    m.put(
        &format!("wire.payload_bytes.{sfx}"),
        e.wire_payload_bytes as f64,
    );
    m.put(&format!("wire.meta_bytes.{sfx}"), e.wire_meta_bytes as f64);
    m.put(
        &format!("wire.coalesce_ratio.{sfx}"),
        ratio(e.wire_coalesced as f64, e.wire_frames as f64),
    );
    if sfx == "alrc" {
        m.put("alrc.migrations", e.migrations as f64);
    }
}

/// Every end-to-end metric, in output order.
///
/// EC-time's `cpu_s` is a per-layer metric: its `kv-read` pass is bound by
/// memory bandwidth (every read transfer scans a whole shard's stamps), so
/// its CPU time follows the host's other tenants (see the README).
fn end_to_end_names() -> Vec<(String, &'static str)> {
    let mut v = vec![("setup_s".to_string(), "s")];
    for sfx in ["lrc", "hlrc", "alrc"] {
        v.push((format!("cpu_s.{sfx}"), "s"));
    }
    for (_, sfx) in impls() {
        v.push((format!("sim_s.{sfx}"), "s"));
    }
    v
}

/// Every per-layer metric, in output order.  A workload that does not reach
/// a layer reports it as 0 (e.g. `wire.*` over the simulated transport).
fn per_layer_names() -> Vec<(String, &'static str)> {
    const PER_IMPL: &[(&str, &str)] = &[
        ("wall_s", "s"),
        ("p50_us", "us"),
        ("p99_us", "us"),
        ("kv.read_s", "s"),
        ("kv.write_s", "s"),
        ("sync.barrier_s", "s"),
        ("runtime.run_s", "s"),
        ("lock.acquires", "count"),
        ("lock.transfers", "count"),
        ("lock.transfer_ratio", "ratio"),
        ("sim.messages", "count"),
        ("sim.bytes", "bytes"),
        ("sim.imbalance", "ratio"),
        ("data.misses", "count"),
        ("data.write_faults", "count"),
        ("data.diffs", "count"),
        ("wire.frames", "count"),
        ("wire.payload_bytes", "bytes"),
        ("wire.meta_bytes", "bytes"),
        ("wire.coalesce_ratio", "ratio"),
        ("recovery.overhead_s", "s"),
        ("recovery.checkpoints", "count"),
        ("recovery.ckpt_bytes", "bytes"),
        ("recovery.restore_sim_s", "s"),
        ("recovery.lost_sim_s", "s"),
    ];
    let mut v = vec![("cpu_s.ec".to_string(), "s")];
    for (name, unit) in PER_IMPL {
        for (_, sfx) in impls() {
            v.push((format!("{name}.{sfx}"), *unit));
        }
    }
    for (_, app, _) in apps::APPS {
        v.push((format!("apps.{app}_s"), "s"));
    }
    for (name, unit) in [
        ("alrc.migrations", "count"),
        ("kv.hit_ratio", "ratio"),
        ("setup.gen_s", "s"),
        ("setup.new_s", "s"),
        ("trace.overhead", "ratio"),
    ] {
        v.push((name.to_string(), unit));
    }
    v
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 90.0) {
                    return Err("--seconds must be in (0, 90]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !["kv-read", "kv-write", "apps-recover", "recovery-probe"].contains(&args.workload.as_str())
    {
        return Err(format!(
            "--workload must be kv-read, kv-write, apps-recover or recovery-probe, not {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// The checkout's git revision, when it is a git repository.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        // Only this directory's own repository, never one above it.
        .env("GIT_DIR", ".git")
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the paths and contents of the workspace's sources
/// (`Cargo.toml` and `crates/`), identifying the code measured even where
/// the checkout carries no git metadata.
fn source_fingerprint() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec![Path::new("Cargo.toml").to_path_buf()];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = stats::FNV_OFFSET;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dsmbench: {e}");
            eprintln!(
                "usage: dsmbench --workload kv-read|kv-write|apps-recover|recovery-probe \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    if !Path::new("crates").is_dir() {
        eprintln!("dsmbench: run from the repository root (no crates/ directory here)");
        std::process::exit(2);
    }
    supervise::install_panic_hook();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < NPROCS {
        eprintln!(
            "dsmbench: WARNING: nproc = {nproc} < {NPROCS} worker threads; \
             host timings are oversubscribed"
        );
    }
    if args.workload == "recovery-probe" {
        apps::probe();
        return;
    }
    let (report, scale) = match args.workload.as_str() {
        "kv-read" => (
            kv::run(&kv::KV_READ, args.seed, args.seconds, args.trace),
            kv::scale(&kv::KV_READ),
        ),
        "kv-write" => (
            kv::run(&kv::KV_WRITE, args.seed, args.seconds, args.trace),
            kv::scale(&kv::KV_WRITE),
        ),
        _ => (
            apps::run(args.seed, args.seconds, args.trace),
            apps::scale(),
        ),
    };
    println!(
        "{{\"row\":\"header\",\"workload\":{},\"seed\":{},\"held_out_seed\":{HELD_OUT_SEED},\
         \"nproc\":{nproc},\"worker_threads\":{NPROCS},\"git_rev\":{},\"src_fnv\":\"{:016x}\",\
         \"scale\":{},\"passes\":{},\"seconds\":{},\"trace\":{}}}",
        json_str(&args.workload),
        args.seed,
        json_str(&git_revision()),
        source_fingerprint(),
        json_str(&scale),
        report.passes,
        args.seconds,
        u8::from(args.trace),
    );
    let names = if args.trace {
        per_layer_names()
    } else {
        end_to_end_names()
    };
    let known = |name: &str| {
        end_to_end_names()
            .into_iter()
            .chain(per_layer_names())
            .any(|(n, _)| n == name)
    };
    for (name, _) in &report.metrics.0 {
        assert!(
            known(name),
            "metric {name} is not in the benchmark's metric lists"
        );
    }
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = report.metrics.get(name).unwrap_or(0.0);
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(",")
    );
}
