//! The `apps-recover` workload: the six barrier-structured paper apps (SOR,
//! SOR+, Water, Barnes-Hut, IS, 3D-FFT) at small scale under the four
//! headline implementations, each run clean, and SOR and 3D-FFT run once
//! more with the last node killed at a barrier drawn from the seed.
//!
//! Quicksort stays out: its task queue is documented outside the recovery
//! contract.  An op here is one app run; it fails when the run's output does
//! not verify, when it panics, or when it hangs after a panic, and any
//! failure makes the run incorrect.  [`probe`] sweeps the crash over every
//! barrier of all six apps and lists the crash points that do not recover.

use std::collections::BTreeMap;
use std::time::Instant;

use dsm_apps::{barnes_hut, fft, is, sequential_time, sor, water};
use dsm_apps::{App, AppParams, RunOpts, Scale};
use dsm_core::{DsmConfig, FaultPlan, ImplKind, RunResult, TransportKind};

use crate::exact::Exact;
use crate::spans::{Span, Trace};
use crate::stats::{median, process_cpu_s, ratio};
use crate::supervise::{supervise, Outcome};
use crate::{impls, HostTimes, Metrics, Report, NPROCS};

/// The apps, their metric names and the span names of their clean runs.
pub const APPS: [(App, &str, &str); 6] = [
    (App::Sor, "sor", "apps.sor"),
    (App::SorPlus, "sor_plus", "apps.sor_plus"),
    (App::Water, "water", "apps.water"),
    (App::BarnesHut, "barnes", "apps.barnes"),
    (App::IntegerSort, "is", "apps.is"),
    (App::Fft3d, "fft", "apps.fft"),
];
/// Span name of every crashed run.
const CRASHED: &str = "apps.crashed";

/// Whether app `app` gets a crashed run: only the apps whose every crash
/// epoch meets the recovery contract of DESIGN.md §8.  SOR+ carries private
/// rows computed from shared reads across barriers, and Water, Barnes-Hut
/// and IS take locks in their epochs that the other processor takes too;
/// each of them fails to recover at some barriers (`recovery-probe` lists
/// where), so a crashed run of theirs would put known failures into the
/// timed work.
fn crash_in_contract(app: App) -> bool {
    matches!(app, App::Sor | App::Fft3d)
}

const SCALE: Scale = Scale::Small;

/// A human-readable description of the workload's size.
pub fn scale() -> String {
    "small apps (SOR, SOR+, Water, Barnes-Hut, IS, 3D-FFT) clean, SOR and 3D-FFT crashed, simulated"
        .into()
}

/// One app run through the app's own entry point, which returns the whole
/// `RunResult` (per-node times included) beside the verification flag.
fn run_app(app: App, kind: ImplKind, p: &AppParams, fault: FaultPlan) -> (RunResult, bool) {
    let opts = RunOpts {
        transport: TransportKind::Simulated,
        fault,
    };
    match app {
        App::Sor => sor::run_opts(kind, NPROCS, &p.sor, false, opts),
        App::SorPlus => sor::run_opts(kind, NPROCS, &p.sor, true, opts),
        App::Water => water::run_opts(kind, NPROCS, &p.water, opts),
        App::BarnesHut => barnes_hut::run_opts(kind, NPROCS, &p.barnes, opts),
        App::IntegerSort => is::run_opts(kind, NPROCS, &p.is, opts),
        App::Fft3d => fft::run_opts(kind, NPROCS, &p.fft, opts),
        App::Quicksort => unreachable!("quicksort is outside the recovery contract"),
    }
}

/// The barrier at which app `a`'s last node is killed: drawn from the seed,
/// below the clean run's barrier count, the same for every implementation.
fn crash_barrier(seed: u64, a: usize, barriers: u64) -> u64 {
    let mut z = seed ^ (a as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % barriers.max(1)
}

/// How one app run ended.
enum RunEnd {
    Verified(RunResult),
    Wrong(RunResult),
    Failed(String),
}

impl RunEnd {
    /// The run's result, if it returned one.
    fn result(&self) -> Option<&RunResult> {
        match self {
            RunEnd::Verified(r) | RunEnd::Wrong(r) => Some(r),
            RunEnd::Failed(_) => None,
        }
    }

    /// Why the run failed, if it did.
    fn failure(&self) -> Option<String> {
        match self {
            RunEnd::Verified(_) => None,
            RunEnd::Wrong(_) => Some("wrong output".into()),
            RunEnd::Failed(msg) => Some(msg.clone()),
        }
    }
}

/// The per-layer recovery counters, summed over a pass's crashed runs.
const RECOVERY: [&str; 4] = [
    "recovery.checkpoints",
    "recovery.ckpt_bytes",
    "recovery.restore_sim_s",
    "recovery.lost_sim_s",
];

/// The `app` row of one clean run, with its crash barrier and whether the
/// crashed run verified when it has one.
fn app_row(
    app: App,
    kind: ImplKind,
    res: &RunResult,
    seq_s: f64,
    barriers: u64,
    crash: Option<(u64, bool)>,
) -> String {
    let (barrier, verified) = match crash {
        Some((b, v)) => (b.to_string(), v.to_string()),
        None => ("null".into(), "null".into()),
    };
    format!(
        "{{\"row\":\"app\",\"app\":\"{app}\",\"impl\":\"{kind}\",\"sim_s\":{},\
         \"seq_s\":{seq_s},\"speedup\":{},\"messages\":{},\"bytes\":{},\
         \"barriers\":{barriers},\"crash_barrier\":{barrier},\"crash_verified\":{verified}}}",
        res.time.as_secs_f64(),
        ratio(seq_s, res.time.as_secs_f64()),
        res.traffic.messages,
        res.traffic.bytes,
    )
}

/// The span of run `t`, a child of `root`, in ns since `pass_start`.
fn child_span(name: &'static str, root: usize, t: &Timed, pass_start: Instant) -> Span {
    let start = t.start.saturating_duration_since(pass_start).as_nanos() as u64;
    Span {
        name,
        parent: Some(root),
        start,
        end: start + (t.secs * 1e9) as u64,
    }
}

struct Timed {
    end: RunEnd,
    start: Instant,
    secs: f64,
}

fn timed_run(app: App, kind: ImplKind, p: &AppParams, fault: FaultPlan) -> Timed {
    let p = p.clone();
    let (outcome, start, dur) = supervise(move || run_app(app, kind, &p, fault));
    let end = match outcome {
        Outcome::Done((r, true)) => RunEnd::Verified(r),
        Outcome::Done((r, false)) => RunEnd::Wrong(r),
        Outcome::Panicked(msg) => RunEnd::Failed(format!("panic: {msg}")),
        Outcome::Hung(msg) => RunEnd::Failed(format!("hang after panic: {msg}")),
    };
    Timed {
        end,
        start,
        secs: dur.as_secs_f64(),
    }
}

/// Times each crash point is tried by [`probe`].
const PROBE_REPS: u64 = 3;

/// The `recovery-probe` mode: kills the last node at every barrier index of
/// every app's clean run, under every implementation, [`PROBE_REPS`] times,
/// and prints each (app, impl, barrier) triple whose crashed run failed.
/// These are the recovery defects the timed workload leaves out; a fix
/// should shrink this list.  Runs that hang after a panic leave their
/// blocked threads behind until the process exits.
pub fn probe() {
    let params = AppParams::at(SCALE);
    let (mut attempted, mut failed) = (0u64, 0u64);
    for &(app, _, _) in &APPS {
        for (kind, _) in impls() {
            let clean = timed_run(app, kind, &params, FaultPlan::None);
            let Some(res) = clean.end.result().filter(|_| clean.end.failure().is_none()) else {
                println!(
                    "{{\"row\":\"probe_clean_failed\",\"app\":\"{app}\",\"impl\":\"{kind}\"}}"
                );
                failed += 1;
                continue;
            };
            let barriers = res.traffic.barriers / NPROCS as u64;
            let mut failing = Vec::new();
            for b in 0..barriers {
                let mut why = BTreeMap::new();
                for _ in 0..PROBE_REPS {
                    let plan = FaultPlan::KillAt {
                        node: NPROCS as u32 - 1,
                        barrier: b,
                    };
                    attempted += 1;
                    if let Some(w) = timed_run(app, kind, &params, plan).end.failure() {
                        failed += 1;
                        *why.entry(w).or_insert(0u64) += 1;
                    }
                }
                for (w, n) in why {
                    failing.push(b);
                    println!(
                        "{{\"row\":\"recovery_failure\",\"app\":\"{app}\",\"impl\":\"{kind}\",\
                         \"barrier\":{b},\"failed\":{n},\"tries\":{PROBE_REPS},\"why\":{}}}",
                        crate::json_str(&w)
                    );
                }
            }
            failing.dedup();
            println!(
                "{{\"row\":\"probe\",\"app\":\"{app}\",\"impl\":\"{kind}\",\"barriers\":{barriers},\
                 \"failing_barriers\":{}}}",
                failing.len()
            );
        }
    }
    println!(
        "{{\"row\":\"probe_summary\",\"attempted\":{attempted},\"failed\":{failed},\"share\":{}}}",
        ratio(failed as f64, attempted as f64)
    );
}

/// Per-implementation accumulation over a run's passes.
#[derive(Default)]
struct ImplRuns {
    /// Pass times; an op's latency is one run's (clean or crashed).
    host: HostTimes,
    /// Simulated quantities of each timed pass, summed over its clean runs.
    clean: Vec<Exact>,
    overhead_s: Vec<f64>,
    /// Span table of the last traced pass.
    span_table: Vec<(&'static str, crate::spans::Totals)>,
    /// [`RECOVERY`] counters of each traced pass.
    recovery: Vec<[f64; 4]>,
    /// Per app: clean-run spans of the traced passes, seconds.
    app_s: Vec<Vec<f64>>,
}

/// Runs the workload and reports its end-to-end (`traced == false`) or
/// per-layer (`traced == true`) metrics.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let params = AppParams::at(SCALE);
    // Set-up: the sequential reference of every app (its simulated
    // one-processor time, which runs the sequential program).
    let cost = DsmConfig::paper(ImplKind::lrc_diff()).cost;
    let time_setup = |setups: &mut Vec<f64>| {
        let t0 = Instant::now();
        let seq_s: Vec<f64> = APPS
            .iter()
            .map(|&(app, _, _)| sequential_time(app, SCALE, &cost).as_secs_f64())
            .collect();
        setups.push(t0.elapsed().as_secs_f64());
        seq_s
    };
    // One untimed warm-up, then the timed set-ups.
    let mut seq_s = time_setup(&mut Vec::new());
    let mut setups = Vec::new();
    for _ in 0..crate::SETUP_REPS_FIRST {
        seq_s = time_setup(&mut setups);
    }
    let targets = impls();
    let mut runs: Vec<ImplRuns> = targets
        .iter()
        .map(|_| ImplRuns {
            app_s: vec![Vec::new(); APPS.len()],
            ..ImplRuns::default()
        })
        .collect();
    let mut report = Report::new();
    // (app, impl, barrier) -> (how it failed, passes it failed in).
    let mut failures: BTreeMap<(usize, usize, u64), (String, u64)> = BTreeMap::new();
    let mut crash_at: Vec<Option<u64>> = vec![None; APPS.len()];
    let mut rows: Vec<String> = Vec::new();

    let pass_fn = |idx: usize, tr: bool| {
        let (kind, _) = targets[idx];
        let r = &mut runs[idx];
        let cpu0 = process_cpu_s();
        let pass_start = Instant::now();
        let mut lat = Vec::with_capacity(2 * APPS.len());
        let mut trace = Trace::default();
        let root = trace.push(Span {
            name: "apps.pass",
            parent: None,
            start: 0,
            end: 0,
        });
        let mut wall = 0.0;
        let mut rec = [0.0f64; RECOVERY.len()];
        let mut clean_sum = Exact::default();
        for (a, &(app, _, span_name)) in APPS.iter().enumerate() {
            let clean = timed_run(app, kind, &params, FaultPlan::None);
            report.attempted += 1;
            wall += clean.secs;
            let res = match (&clean.end, clean.end.failure()) {
                (RunEnd::Verified(res), _) => res,
                (_, why) => {
                    let why = why.unwrap_or_default();
                    eprintln!("apps-recover {app}/{kind}: clean run failed: {why}");
                    report.failed += 1;
                    report.correct = false;
                    continue;
                }
            };
            clean_sum.add(&Exact::of(res));
            let barriers = res.traffic.barriers / NPROCS as u64;
            if !crash_in_contract(app) {
                if r.clean.is_empty() {
                    rows.push(app_row(app, kind, res, seq_s[a], barriers, None));
                }
                lat.push((clean.secs * 1e9) as u64);
                if tr {
                    trace.push(child_span(span_name, root, &clean, pass_start));
                }
                continue;
            }
            let b = *crash_at[a].get_or_insert_with(|| crash_barrier(seed, a, barriers));
            let plan = FaultPlan::KillAt {
                node: NPROCS as u32 - 1,
                barrier: b,
            };
            let crashed = timed_run(app, kind, &params, plan);
            report.attempted += 1;
            wall += crashed.secs;
            if let Some(res) = crashed.end.result() {
                let rr = &res.recovery;
                let counts = [
                    rr.checkpoints as f64,
                    rr.checkpoint_bytes as f64,
                    rr.restore_ns as f64 / 1e9,
                    rr.lost_ns as f64 / 1e9,
                ];
                for (sum, x) in rec.iter_mut().zip(counts) {
                    *sum += x;
                }
            }
            let failure = crashed.end.failure();
            if let Some(why) = &failure {
                eprintln!("apps-recover {app}/{kind}: crashed run at barrier {b} failed: {why}");
                report.failed += 1;
                report.correct = false;
                failures.entry((a, idx, b)).or_insert((why.clone(), 0)).1 += 1;
            }
            if r.clean.is_empty() {
                let verified = failure.is_none();
                rows.push(app_row(
                    app,
                    kind,
                    res,
                    seq_s[a],
                    barriers,
                    Some((b, verified)),
                ));
            }
            lat.extend([clean.secs, crashed.secs].map(|s| (s * 1e9) as u64));
            if tr {
                trace.push(child_span(span_name, root, &clean, pass_start));
                trace.push(child_span(CRASHED, root, &crashed, pass_start));
            }
        }
        r.clean.push(clean_sum);
        if tr {
            trace.close(root, pass_start.elapsed().as_nanos() as u64);
            let totals = trace.totals();
            let secs = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9);
            // Crashed runs against the clean runs of the same apps.
            let mut crashed_apps_clean = 0.0;
            for (a, &(app, _, span_name)) in APPS.iter().enumerate() {
                r.app_s[a].push(secs(span_name));
                if crash_in_contract(app) {
                    crashed_apps_clean += secs(span_name);
                }
            }
            r.overhead_s.push(secs(CRASHED) - crashed_apps_clean);
            r.span_table = totals.into_iter().collect();
            r.host.traced_wall_s.push(wall);
            r.recovery.push(rec);
        } else {
            r.host.wall_s.push(wall);
            r.host.cpu_s.push(process_cpu_s() - cpu0);
            r.host.lat_ns.extend(lat);
        }
    };
    let passes = crate::rounds(seconds, traced, targets.len(), pass_fn, || {
        time_setup(&mut setups);
    });
    report.passes = passes;

    for row in &rows {
        println!("{row}");
    }
    for ((a, idx, b), (why, count)) in &failures {
        println!(
            "{{\"row\":\"recovery_failure\",\"app\":\"{}\",\"impl\":\"{}\",\"barrier\":{b},\
             \"failed_passes\":{count},\"why\":{}}}",
            APPS[*a].0,
            targets[*idx].0,
            crate::json_str(why)
        );
    }
    println!(
        "{{\"row\":\"failed_share\",\"workload\":\"apps-recover\",\"seed\":{seed},\"failed\":{},\
         \"attempted\":{},\"share\":{},\"failing_triples\":{}}}",
        report.failed,
        report.attempted,
        ratio(report.failed as f64, report.attempted as f64),
        failures.len()
    );

    let mut m = Metrics::default();
    for (&(kind, sfx), r) in targets.iter().zip(runs.iter_mut()) {
        // Apps whose processors meet at locks (Water, IS, Barnes-Hut) vary
        // with arrival order: the counts come from the pass with the median
        // simulated time, and `sim_s` is the mean over passes.
        r.clean.sort_by_key(|e| e.sim_ns);
        let sum = r.clean.get(r.clean.len() / 2).copied().unwrap_or_default();
        let sim_s = ratio(
            r.clean.iter().map(|e| e.sim_ns as f64 / 1e9).sum(),
            r.clean.len() as f64,
        );
        let host = r.host.summary();
        println!(
            "{{\"row\":\"impl\",\"workload\":\"apps-recover\",\"impl\":\"{kind}\",{},\
             \"sim_s\":{},\"exact_fnv\":\"{:016x}\"}}",
            host.json_fields(),
            sim_s,
            sum.fingerprint(),
        );
        host.put_metrics(&mut m, sfx, traced);
        if traced {
            crate::spans::print_table("apps-recover", kind, &r.span_table);
            crate::exact_layer_metrics(&mut m, sfx, &sum);
            m.put(&format!("recovery.overhead_s.{sfx}"), median(&r.overhead_s));
            for (k, name) in RECOVERY.iter().enumerate() {
                let column: Vec<f64> = r.recovery.iter().map(|pass| pass[k]).collect();
                m.put(&format!("{name}.{sfx}"), median(&column));
            }
        } else {
            m.put(&format!("sim_s.{sfx}"), sim_s);
        }
    }
    if traced {
        for (a, (_, app_name, _)) in APPS.iter().enumerate() {
            // Clean spans summed over the four implementations, per pass.
            let per_pass: Vec<f64> = (0..passes)
                .map(|i| runs.iter().filter_map(|r| r.app_s[a].get(i)).sum())
                .collect();
            m.put(&format!("apps.{app_name}_s"), median(&per_pass));
        }
        m.put(
            "trace.overhead",
            crate::trace_overhead(runs.iter().map(|r| &r.host)),
        );
        m.put("setup.gen_s", median(&setups));
    } else {
        m.put("setup_s", median(&setups));
    }
    report.metrics = m;
    report
}
