//! Closed-loop benchmark of the DSM-backed KV/cache tier (`dsm-kvservice`):
//! millions of seeded get/put/cas/delete ops against the sharded store,
//! measured as host throughput plus p50/p99/p999 latency from the
//! log-bucket histogram.
//!
//! The sweep answers the service-shaped version of the paper's question —
//! which protocol family serves which key-sharing pattern best — along four
//! axes:
//!
//! - **deep**: the four headline implementations (EC-time, LRC-diff,
//!   HLRC-diff, ALRC-diff) at 1/4/8 processors over both the simulated and
//!   channel transports, per-op latency, zipf keys, all three mixes;
//! - **fast**: the same implementations on the read-mostly mix with cheap
//!   `Local` reads and batched critical sections — the throughput headline;
//! - **uniform**: the deep implementations with uniform keys at 4
//!   processors (zipf-vs-uniform contrast);
//! - **breadth**: every other implementation of the 12-impl matrix at 4
//!   processors, simulated transport, so the trajectory file covers the
//!   whole matrix.
//!
//! Emits one JSON object per line; `BENCH_kv.json` at the repo root records
//! the trajectory across commits.  Every row carries `p50_ns`/`p99_ns`/
//! `p999_ns` (per op when `lat_unit` is `"op"`, per critical-section batch
//! when `"batch"`) and `ops_per_sec`; channel rows add the wire's
//! `frames_sent` and `frames_coalesced`, and the bin asserts that every
//! channel row coalesced.  A final verdict row reports the best read-mostly
//! throughput seen.
//!
//! Usage: `cargo run --release -p dsm-bench --bin kv [-- --scale tiny|small|paper --procs N --impls NAME,...]`
//! (`--procs` is ignored: the bin sweeps its own processor counts.)

use std::sync::Mutex;
use std::time::Instant;

use dsm_apps::Scale;
use dsm_bench::{print_json_header, HarnessOpts, LatencyHistogram};
use dsm_core::{BarrierId, Dsm, DsmConfig, ImplKind, TransportKind, TransportReport};
use dsm_kvservice::workload::{KeySampler, MixSpec, XorShift64};
use dsm_kvservice::{KvConfig, KvScratch, KvStats, KvStore, ReadConsistency};

/// Ops per critical-section batch on the batched (fast-path) rows.
const BATCH: usize = 64;

/// Ops per processor between barriers: the barrier closes the wire epoch of
/// every protocol family, bounding how many publish frames the channel
/// transport buffers before it sends them as one batch per receiver.
const OPS_PER_BARRIER: usize = 4096;

/// The bench's store shape: 16 shards x 2048 slots, 4-word values.  The key
/// space stays at half capacity so puts do not exhaust shards even under the
/// write-heavy mix.
fn bench_config() -> KvConfig {
    KvConfig {
        shard_bits: 4,
        slot_bits: 11,
        value_words: 4,
        base_lock: 0,
    }
}

/// Keys in the sampled id space (half the store's slot capacity).
fn key_space(cfg: &KvConfig) -> u64 {
    (cfg.capacity() / 2) as u64
}

fn ops_per_proc(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 1_024,
        Scale::Small => 8_192,
        Scale::Paper => 65_536,
    }
}

/// One point of the sweep.
struct Point {
    kind: ImplKind,
    backend: &'static str,
    transport: TransportKind,
    procs: usize,
    mix: MixSpec,
    dist: &'static str,
    reads: ReadConsistency,
    batch: usize,
}

struct RowOut {
    ops: u64,
    wall_ms: f64,
    lat: LatencyHistogram,
    stats: KvStats,
    wire: TransportReport,
}

/// Runs one closed-loop point: every processor replays its own seeded trace
/// in `batch`-op critical sections, recording the host latency of each
/// application into a per-processor histogram, with a barrier every
/// [`OPS_PER_BARRIER`] ops to close wire epochs.
fn run_point(p: &Point, per_proc: usize) -> RowOut {
    let cfg_kv = bench_config();
    let keys = key_space(&cfg_kv);
    let sampler = match p.dist {
        "zipf" => KeySampler::zipf(keys, 0.99),
        _ => KeySampler::uniform(keys),
    };
    let mut cfg = DsmConfig::with_procs(p.kind, p.procs);
    cfg.transport = p.transport.clone();
    let mut dsm = Dsm::new(cfg).expect("valid config");
    let store = KvStore::alloc(&mut dsm, p.kind.model(), cfg_kv);
    let st = store.clone();
    let lat_mx = Mutex::new(LatencyHistogram::new());
    let stats_mx = Mutex::new(KvStats::new(st.config().shards()));
    let mix = p.mix;
    let reads = p.reads;
    let batch = p.batch;
    let barrier_chunks = OPS_PER_BARRIER.div_ceil(batch);
    let start = Instant::now();
    let result = dsm.run(|ctx| {
        let me = ctx.node() as u64;
        // Distinct stream per (processor, mix, distribution) so rows do not
        // replay one another's traces; identical `per_proc` keeps the
        // barrier cadence aligned across processors.
        let seed = (me + 1)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(mix.read_pct as u64)
            .wrapping_add(if matches!(reads, ReadConsistency::Local) {
                0x5eed
            } else {
                0
            });
        let mut rng = XorShift64::new(seed);
        let trace: Vec<_> = (0..per_proc).map(|_| mix.op(&mut rng, &sampler)).collect();
        let mut scratch = KvScratch::new(st.config());
        let mut stats = KvStats::new(st.config().shards());
        let mut local = LatencyHistogram::new();
        for (i, chunk) in trace.chunks(batch).enumerate() {
            let t0 = Instant::now();
            st.apply_batch(ctx, chunk, reads, &mut scratch, &mut stats);
            local.record_duration(t0.elapsed());
            if (i + 1) % barrier_chunks == 0 {
                ctx.barrier(BarrierId::new(0));
            }
        }
        ctx.barrier(BarrierId::new(1));
        lat_mx.lock().unwrap().merge(&local);
        stats_mx.lock().unwrap().merge(&stats);
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    RowOut {
        ops: (per_proc * p.procs) as u64,
        wall_ms,
        lat: lat_mx.into_inner().unwrap(),
        stats: stats_mx.into_inner().unwrap(),
        wire: result.wire,
    }
}

fn print_row(p: &Point, scale_name: &str, out: &RowOut) {
    let s = &out.stats;
    // Channel rows also report the wire: frames sent, and how many of them
    // rode a batch an earlier frame of the same epoch had opened.
    let wire = if p.backend == "channel" {
        format!(
            ",\"frames_sent\":{},\"frames_coalesced\":{}",
            out.wire.frames_sent, out.wire.frames_coalesced
        )
    } else {
        String::new()
    };
    println!(
        "{{\"bench\":\"kv\",\"impl\":\"{}\",\"backend\":\"{}\",\"scale\":\"{}\",\
         \"procs\":{},\"mix\":\"{}\",\"dist\":\"{}\",\"reads\":\"{}\",\
         \"batch\":{},\"lat_unit\":\"{}\",\"ops\":{},\"wall_ms\":{:.3},\
         \"ops_per_sec\":{:.0},{},\"gets\":{},\"hits\":{},\"puts\":{},\
         \"cas_ok\":{},\"cas_miss\":{},\"deletes\":{}{}}}",
        p.kind.name(),
        p.backend,
        scale_name,
        p.procs,
        p.mix.name,
        p.dist,
        match p.reads {
            ReadConsistency::Lock => "lock",
            ReadConsistency::Local => "local",
        },
        p.batch,
        if p.batch == 1 { "op" } else { "batch" },
        out.ops,
        out.wall_ms,
        out.ops as f64 / (out.wall_ms / 1e3).max(1e-9),
        out.lat.json_fields(""),
        s.gets,
        s.hits,
        s.puts,
        s.cas_ok,
        s.cas_miss,
        s.deletes,
        wire,
    );
}

fn main() {
    let opts = HarnessOpts::from_args();
    let scale_name = match opts.scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Paper => "paper",
    };
    let per_proc = ops_per_proc(opts.scale);
    print_json_header(
        "kv",
        "closed-loop sharded KV tier: seeded zipf/uniform traces, per-op and batched \
         critical sections, host latency histograms",
    );

    let deep = [
        ImplKind::ec_time(),
        ImplKind::lrc_diff(),
        ImplKind::hlrc_diff(),
        ImplKind::adaptive_diff(),
    ];
    let deep_sel = opts.filter(&deep);
    let breadth_sel: Vec<ImplKind> = opts
        .filter(&ImplKind::all())
        .into_iter()
        .filter(|k| !deep.contains(k))
        .collect();
    assert!(
        !(deep_sel.is_empty() && breadth_sel.is_empty()),
        "--impls matched no implementation"
    );

    let mut points = Vec::new();
    // Deep sweep: per-op latency across processor counts and transports.
    for &kind in &deep_sel {
        for (backend, transport) in [
            ("simulated", TransportKind::Simulated),
            ("channel", TransportKind::Channel),
        ] {
            for procs in [1usize, 4, 8] {
                for mix in MixSpec::ALL {
                    points.push(Point {
                        kind,
                        backend,
                        transport: transport.clone(),
                        procs,
                        mix,
                        dist: "zipf",
                        reads: ReadConsistency::Lock,
                        batch: 1,
                    });
                }
            }
        }
    }
    // Fast path: local reads + batched critical sections on the read-mostly
    // mix — the arbitration-free serving configuration.
    for &kind in &deep_sel {
        for procs in [1usize, 4, 8] {
            points.push(Point {
                kind,
                backend: "simulated",
                transport: TransportKind::Simulated,
                procs,
                mix: MixSpec::ALL[0],
                dist: "zipf",
                reads: ReadConsistency::Local,
                batch: BATCH,
            });
        }
    }
    // Distribution contrast: uniform keys at 4 processors.
    for &kind in &deep_sel {
        for mix in MixSpec::ALL {
            points.push(Point {
                kind,
                backend: "simulated",
                transport: TransportKind::Simulated,
                procs: 4,
                mix,
                dist: "uniform",
                reads: ReadConsistency::Lock,
                batch: 1,
            });
        }
    }
    // Breadth: the rest of the 12-impl matrix at one representative point.
    for &kind in &breadth_sel {
        for mix in MixSpec::ALL {
            points.push(Point {
                kind,
                backend: "simulated",
                transport: TransportKind::Simulated,
                procs: 4,
                mix,
                dist: "zipf",
                reads: ReadConsistency::Lock,
                batch: 1,
            });
        }
    }

    let mut best_read_mostly: Option<(ImplKind, usize, f64)> = None;
    for p in &points {
        let out = run_point(p, per_proc);
        assert_eq!(
            out.stats.ops(),
            out.ops,
            "{} {} {}p {}: stats dropped ops",
            p.kind,
            p.backend,
            p.procs,
            p.mix.name
        );
        assert!(
            !out.lat.is_empty() && out.lat.quantile(0.99) > 0,
            "{} {} {}p {}: empty latency histogram",
            p.kind,
            p.backend,
            p.procs,
            p.mix.name
        );
        // Every mix writes, so a channel row publishes many frames per
        // epoch, and the barrier sends each epoch as one batch per
        // receiver: some frames must have ridden an already-open batch.
        assert!(
            p.backend != "channel" || out.wire.frames_coalesced > 0,
            "{} {} {}p {}: no epoch coalescing happened",
            p.kind,
            p.backend,
            p.procs,
            p.mix.name
        );
        print_row(p, scale_name, &out);
        if p.mix.name == MixSpec::ALL[0].name {
            let tput = out.ops as f64 / (out.wall_ms / 1e3).max(1e-9);
            match best_read_mostly {
                Some((_, _, b)) if tput <= b => {}
                _ => best_read_mostly = Some((p.kind, p.procs, tput)),
            }
        }
    }

    if let Some((kind, procs, tput)) = best_read_mostly {
        println!(
            "{{\"bench\":\"kv\",\"row\":\"verdict\",\"scale\":\"{}\",\
             \"best_read_mostly_impl\":\"{}\",\"best_read_mostly_procs\":{},\
             \"best_read_mostly_ops_per_sec\":{:.0},\
             \"sustains_1m_ops_per_sec\":{}}}",
            scale_name,
            kind.name(),
            procs,
            tput,
            tput >= 1e6,
        );
    }
}
