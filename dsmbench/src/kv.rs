//! The `kv-read` and `kv-write` workloads: one seeded zipf(0.99) trace over
//! the sharded KV store, replayed in closed loop by the two DSM processors
//! under each of the four headline implementations.
//!
//! The trace is cut into barrier-separated chunks, and in chunk `c` shard `s`
//! is served by processor `(s + c) mod 2`.  Every shard's data and lock
//! therefore migrate every chunk, while no two processors ever contend for
//! a lock: the protocol work of a pass is fixed by the trace, and every
//! simulated-time and traffic count repeats bit for bit.  Each op is its own
//! `ReadConsistency::Lock` critical section.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dsm_core::{BarrierId, Dsm, DsmConfig, ImplKind, RunResult, TransportKind};
use dsm_kvservice::workload::{gen_trace, KeySampler, MixSpec};
use dsm_kvservice::{fill_value, CasOutcome, KvConfig, KvOp, KvStore, PutOutcome, ReadConsistency};

use crate::exact::Exact;
use crate::spans::{Span, Trace};
use crate::stats::{fnv_word, median, process_cpu_s, ratio, FNV_OFFSET};
use crate::supervise::{supervise, Outcome};
use crate::{impls, HostTimes, Metrics, Report, NPROCS};

/// Ops per barrier-separated chunk; shard ownership rotates every chunk.
pub const CHUNK: usize = 1024;

/// Outcome codes, one byte per op.  A get that hits records the stored
/// value's seed (`0..16`), so the value itself can be checked too.
const MISS: u8 = 0xff;
const INSERTED: u8 = 0;
const UPDATED: u8 = 1;
const FULL: u8 = 2;
const SWAPPED: u8 = 0;
const MISMATCH: u8 = 1;
const ABSENT: u8 = 2;
const DELETED: u8 = 1;
const NOT_FOUND: u8 = 0;

/// The two KV workloads.
#[derive(Debug, Clone, Copy)]
pub struct KvWorkload {
    pub name: &'static str,
    mix: MixSpec,
    channel: bool,
    /// Ops in the trace: one pass replays all of them.
    ops: usize,
}

/// `kv-read`: read-mostly 95/5 over the simulated transport.
pub const KV_READ: KvWorkload = KvWorkload {
    name: "kv-read",
    mix: MixSpec::ALL[0],
    channel: false,
    ops: 400_000,
};

/// `kv-write`: write-heavy 10/90 over the channel transport.
pub const KV_WRITE: KvWorkload = KvWorkload {
    name: "kv-write",
    mix: MixSpec::ALL[2],
    channel: true,
    ops: 200_000,
};

/// The `kv` bench bin's store shape: 16 shards x 2048 slots, 4-word values.
fn store_config() -> KvConfig {
    KvConfig {
        shard_bits: 4,
        slot_bits: 11,
        value_words: 4,
        base_lock: 0,
    }
}

/// A human-readable description of the workload's size.
pub fn scale(w: &KvWorkload) -> String {
    let c = store_config();
    format!(
        "{} ops, chunk {CHUNK}, {} shards x {} slots x {} words, zipf 0.99, {}, {}",
        w.ops,
        c.shards(),
        c.slots(),
        c.value_words,
        w.mix.name,
        if w.channel { "channel" } else { "simulated" }
    )
}

/// The trace and its sequential reference.
struct Inputs {
    ops: Vec<KvOp>,
    /// Each op's shard.
    shard: Vec<u8>,
    /// Each op's outcome under the sequential model.
    expect: Vec<u8>,
    /// Fingerprint of the model's final key -> value contents.
    model_fnv: u64,
}

/// One implementation's store, ready to run.
struct Target {
    kind: ImplKind,
    suffix: &'static str,
    dsm: Arc<Dsm>,
    store: KvStore,
}

/// Replays `ops` on a `HashMap` and returns each op's expected outcome plus
/// the fingerprint of the final contents.
fn sequential_model(ops: &[KvOp], value_words: usize) -> (Vec<u8>, u64) {
    let mut map: HashMap<u64, u64> = HashMap::new();
    let expect = ops
        .iter()
        .map(|op| match *op {
            KvOp::Get { key } => map.get(&key).map_or(MISS, |&s| s as u8),
            KvOp::Put { key, seed } => match map.insert(key, seed) {
                None => INSERTED,
                Some(_) => UPDATED,
            },
            KvOp::Cas { key, expect, seed } => match map.get_mut(&key) {
                Some(cur) if *cur == expect => {
                    *cur = seed;
                    SWAPPED
                }
                Some(_) => MISMATCH,
                None => ABSENT,
            },
            KvOp::Delete { key } => match map.remove(&key) {
                Some(_) => DELETED,
                None => NOT_FOUND,
            },
        })
        .collect();
    let mut entries: Vec<(u64, Vec<u64>)> = map
        .into_iter()
        .map(|(key, seed)| {
            let mut v = vec![0; value_words];
            fill_value(key, seed, &mut v);
            (key, v)
        })
        .collect();
    entries.sort_unstable();
    (expect, entries_fnv(&entries))
}

/// Fingerprint of sorted `(key, value)` entries: layout-independent, so the
/// store's final slots and the model's map can be compared.
fn entries_fnv(entries: &[(u64, Vec<u64>)]) -> u64 {
    entries.iter().fold(FNV_OFFSET, |h, (k, v)| {
        v.iter().fold(fnv_word(h, *k), |h, &w| fnv_word(h, w))
    })
}

/// The live entries in `store`'s final shard contents, sorted by key.
fn final_entries(store: &KvStore, result: &RunResult) -> Vec<(u64, Vec<u64>)> {
    let cfg = store.config();
    let mut out = Vec::new();
    for s in 0..cfg.shards() {
        let words = result.final_array(store.shard_array(s));
        for slot in words.chunks_exact(cfg.stride()) {
            if slot[0] != 0 && slot[0] != u64::MAX {
                out.push((slot[0], slot[1..].to_vec()));
            }
        }
    }
    out.sort_unstable();
    out
}

/// Setup timings of one run, split as the per-layer metrics report them.
#[derive(Default)]
struct SetupTimes {
    /// Whole set-ups, seconds.
    total_s: Vec<f64>,
    /// Trace + model, seconds.
    gen_s: Vec<f64>,
    /// `Dsm::new` + `KvStore::alloc`, seconds.
    new_s: Vec<f64>,
}

impl SetupTimes {
    /// Sets up once, records the times and returns what was built.
    fn time(&mut self, w: &KvWorkload, seed: u64) -> (Arc<Inputs>, Vec<Target>) {
        let t0 = Instant::now();
        let (inputs, targets, gen_s, new_s) = setup_once(w, seed);
        self.total_s.push(t0.elapsed().as_secs_f64());
        self.gen_s.push(gen_s);
        self.new_s.push(new_s);
        (inputs, targets)
    }
}

fn setup_once(w: &KvWorkload, seed: u64) -> (Arc<Inputs>, Vec<Target>, f64, f64) {
    let cfg = store_config();
    let t0 = Instant::now();
    let sampler = KeySampler::zipf((cfg.capacity() / 2) as u64, 0.99);
    let ops = gen_trace(seed, w.ops, &sampler, &w.mix);
    let (expect, model_fnv) = sequential_model(&ops, cfg.value_words);
    let gen_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let targets: Vec<Target> = impls()
        .into_iter()
        .map(|(kind, suffix)| {
            let mut dc = DsmConfig::with_procs(kind, NPROCS);
            dc.transport = if w.channel {
                TransportKind::Channel
            } else {
                TransportKind::Simulated
            };
            let mut dsm = Dsm::new(dc).expect("benchmark DSM configuration is valid");
            let store = KvStore::alloc(&mut dsm, kind.model(), cfg);
            Target {
                kind,
                suffix,
                dsm: Arc::new(dsm),
                store,
            }
        })
        .collect();
    let shard = ops
        .iter()
        .map(|op| targets[0].store.shard_of(op.key()) as u8)
        .collect();
    let new_s = t1.elapsed().as_secs_f64();
    let inputs = Inputs {
        ops,
        shard,
        expect,
        model_fnv,
    };
    (Arc::new(inputs), targets, gen_s, new_s)
}

/// What one worker brings back from a pass.
#[derive(Default)]
struct WorkerOut {
    /// Host latency of each op, ns.
    lat: Vec<u32>,
    /// Ops whose outcome differed from the model's.
    failed: u64,
    gets: u64,
    hits: u64,
    /// The worker's spans (traced passes only); index 0 is the worker itself.
    spans: Vec<Span>,
}

/// What one pass produced.
struct Pass {
    run_s: f64,
    /// Process CPU seconds over `Dsm::run`.
    cpu_s: f64,
    lat: Vec<u32>,
    failed: u64,
    gets: u64,
    hits: u64,
    exact: Exact,
    contents_fnv: u64,
    live_fnv: u64,
    replicas_ok: bool,
    trace: Option<Trace>,
}

fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// Replays the whole trace once under one implementation.
fn pass(inputs: &Inputs, dsm: &Dsm, store: &KvStore, traced: bool) -> Pass {
    let slots: Vec<Mutex<WorkerOut>> = (0..NPROCS).map(|_| Mutex::default()).collect();
    let words = store.config().value_words;
    let cpu0 = process_cpu_s();
    let epoch = Instant::now();
    let ops = inputs.ops.len();
    // Room for a worker's share of the ops plus zipf skew.
    let room = ops / NPROCS + ops / 8;
    let result = dsm.run(|ctx| {
        let me = ctx.node();
        let mut w = WorkerOut {
            lat: Vec::with_capacity(room),
            ..WorkerOut::default()
        };
        if traced {
            w.spans.reserve(room);
            w.spans.push(Span {
                name: "bench.worker",
                parent: None,
                start: ns_since(epoch, Instant::now()),
                end: 0,
            });
        }
        let mut out = vec![0u64; words];
        let mut value = vec![0u64; words];
        for (c, chunk) in (0..ops).step_by(CHUNK).enumerate() {
            for i in chunk..(chunk + CHUNK).min(ops) {
                if (inputs.shard[i] as usize + c) % NPROCS != me {
                    continue;
                }
                let op = inputs.ops[i];
                let (name, t0, got, t1) = match op {
                    KvOp::Get { key } => {
                        let t0 = Instant::now();
                        let hit = store.get_into(ctx, key, ReadConsistency::Lock, &mut out);
                        let t1 = Instant::now();
                        w.gets += 1;
                        let got = if hit {
                            w.hits += 1;
                            out[0] as u8
                        } else {
                            MISS
                        };
                        ("kv.get", t0, got, t1)
                    }
                    KvOp::Put { key, seed } => {
                        fill_value(key, seed, &mut value);
                        let t0 = Instant::now();
                        let r = store.put(ctx, key, &value);
                        let t1 = Instant::now();
                        let got = match r {
                            PutOutcome::Inserted => INSERTED,
                            PutOutcome::Updated => UPDATED,
                            PutOutcome::Full => FULL,
                        };
                        ("kv.put", t0, got, t1)
                    }
                    KvOp::Cas { key, expect, seed } => {
                        fill_value(key, seed, &mut value);
                        let t0 = Instant::now();
                        let r = store.cas(ctx, key, expect, &value);
                        let t1 = Instant::now();
                        let got = match r {
                            CasOutcome::Swapped => SWAPPED,
                            CasOutcome::Mismatch => MISMATCH,
                            CasOutcome::Absent => ABSENT,
                        };
                        ("kv.cas", t0, got, t1)
                    }
                    KvOp::Delete { key } => {
                        let t0 = Instant::now();
                        let r = store.delete(ctx, key);
                        let t1 = Instant::now();
                        ("kv.delete", t0, if r { DELETED } else { NOT_FOUND }, t1)
                    }
                };
                w.lat.push(
                    t1.saturating_duration_since(t0)
                        .as_nanos()
                        .min(u32::MAX as u128) as u32,
                );
                if traced {
                    w.spans.push(Span {
                        name,
                        parent: Some(0),
                        start: ns_since(epoch, t0),
                        end: ns_since(epoch, t1),
                    });
                }
                let expected = inputs.expect[i];
                let ok = got == expected
                    && (got == MISS || !matches!(op, KvOp::Get { .. }) || {
                        fill_value(op.key(), expected as u64, &mut value);
                        out == value
                    });
                if !ok {
                    w.failed += 1;
                }
            }
            let b0 = Instant::now();
            ctx.barrier(BarrierId::new(0));
            if traced {
                w.spans.push(Span {
                    name: "sync.barrier",
                    parent: Some(0),
                    start: ns_since(epoch, b0),
                    end: ns_since(epoch, Instant::now()),
                });
            }
        }
        if traced {
            w.spans[0].end = ns_since(epoch, Instant::now());
        }
        *slots[me].lock().expect("worker slot lock") = w;
    });
    let run_end = Instant::now();
    let cpu_s = process_cpu_s() - cpu0;
    let run_s = run_end.duration_since(epoch).as_secs_f64();
    let mut trace = traced.then(|| {
        let mut t = Trace::default();
        t.push(Span {
            name: "runtime.run",
            parent: None,
            start: 0,
            end: ns_since(epoch, run_end),
        });
        t
    });
    let mut p = Pass {
        run_s,
        cpu_s,
        lat: Vec::with_capacity(ops),
        failed: 0,
        gets: 0,
        hits: 0,
        exact: Exact::of(&result),
        contents_fnv: store.contents_fnv(&result),
        live_fnv: entries_fnv(&final_entries(store, &result)),
        replicas_ok: result.wire.backend != "channel" || result.wire.replicas_verified == NPROCS,
        trace: None,
    };
    for slot in slots {
        let w = slot.into_inner().expect("worker slot lock");
        p.lat.extend_from_slice(&w.lat);
        p.failed += w.failed;
        p.gets += w.gets;
        p.hits += w.hits;
        if let Some(t) = trace.as_mut() {
            t.graft(0, &w.spans);
        }
    }
    p.trace = trace;
    p
}

/// Per-implementation accumulation over a run's passes.
#[derive(Default)]
struct ImplRuns {
    host: HostTimes,
    /// Exact quantities and contents fingerprint of the first pass.
    first: Option<(Exact, u64)>,
    read_s: Vec<f64>,
    write_s: Vec<f64>,
    barrier_s: Vec<f64>,
    run_self_s: Vec<f64>,
    span_table: Vec<(&'static str, crate::spans::Totals)>,
}

/// Runs the workload and reports its end-to-end (`traced == false`) or
/// per-layer (`traced == true`) metrics.
pub fn run(w: &KvWorkload, seed: u64, seconds: f64, traced: bool) -> Report {
    // One untimed warm-up, then the timed set-ups; the last one is used.
    setup_once(w, seed);
    let mut setups = SetupTimes::default();
    for _ in 1..crate::SETUP_REPS_FIRST {
        setups.time(w, seed);
    }
    let (inputs, targets) = setups.time(w, seed);
    let mut report = Report::new();
    let mut runs: Vec<ImplRuns> = targets.iter().map(|_| ImplRuns::default()).collect();
    let mut gets = 0u64;
    let mut hits = 0u64;
    let mut cross_impl_fnv: Option<u64> = None;
    let pass_fn = |idx: usize, tr: bool| {
        let t = &targets[idx];
        let (shared, dsm, store) = (Arc::clone(&inputs), Arc::clone(&t.dsm), t.store.clone());
        let (outcome, _, _) = supervise(move || pass(&shared, &dsm, &store, tr));
        report.attempted += w.ops as u64;
        let p = match outcome {
            Outcome::Done(p) => p,
            Outcome::Panicked(msg) | Outcome::Hung(msg) => {
                eprintln!("{} {}: pass failed: {msg}", w.name, t.kind);
                report.failed += w.ops as u64;
                report.correct = false;
                return;
            }
        };
        let r = &mut runs[idx];
        let mut ok = p.replicas_ok && p.live_fnv == inputs.model_fnv;
        if *cross_impl_fnv.get_or_insert(p.contents_fnv) != p.contents_fnv {
            eprintln!(
                "{} {}: contents differ from another implementation's",
                w.name, t.kind
            );
            ok = false;
        }
        match r.first {
            None => r.first = Some((p.exact, p.contents_fnv)),
            Some(first) if first != (p.exact, p.contents_fnv) => {
                // The protocol work changed: the workload contends.
                eprintln!(
                    "{} {}: exact quantities changed between passes: {:?} vs {:?}",
                    w.name,
                    t.kind,
                    first,
                    (p.exact, p.contents_fnv)
                );
                report.correct = false;
                ok &= first.1 == p.contents_fnv;
            }
            Some(_) => {}
        }
        if !ok {
            eprintln!("{} {}: pass output is wrong", w.name, t.kind);
            report.failed += w.ops as u64;
            report.correct = false;
            return;
        }
        if p.failed > 0 {
            eprintln!(
                "{} {}: {} ops differ from the model",
                w.name, t.kind, p.failed
            );
            report.correct = false;
        }
        report.failed += p.failed;
        gets = p.gets;
        hits = p.hits;
        if tr {
            r.host.traced_wall_s.push(p.run_s);
            let totals = p.trace.as_ref().expect("traced pass has spans").totals();
            let sum = |names: &[&str]| -> f64 {
                names
                    .iter()
                    .filter_map(|n| totals.get(n))
                    .map(|t| t.total_ns as f64 / 1e9)
                    .sum()
            };
            r.read_s.push(sum(&["kv.get"]));
            r.write_s.push(sum(&["kv.put", "kv.cas", "kv.delete"]));
            r.barrier_s.push(sum(&["sync.barrier"]));
            r.run_self_s.push(
                totals
                    .get("runtime.run")
                    .map_or(0.0, |t| t.self_ns as f64 / 1e9),
            );
            r.span_table = totals.into_iter().collect();
        } else {
            r.host.wall_s.push(p.run_s);
            r.host.cpu_s.push(p.cpu_s);
            r.host.lat_ns.extend(p.lat.iter().map(|&x| x as u64));
        }
    };
    let passes = crate::rounds(seconds, traced, targets.len(), pass_fn, || {
        setups.time(w, seed);
    });
    report.passes = passes;

    let mut m = Metrics::default();
    for (t, r) in targets.iter().zip(runs.iter_mut()) {
        let (e, contents) = r.first.unwrap_or_default();
        let host = r.host.summary();
        println!(
            "{{\"row\":\"impl\",\"workload\":\"{}\",\"impl\":\"{}\",{},\"sim_s\":{},\
             \"lock_transfers\":{},\"messages\":{},\"bytes\":{},\"wire_bytes\":{},\
             \"contents_fnv\":\"{:016x}\",\"exact_fnv\":\"{:016x}\"}}",
            w.name,
            t.kind,
            host.json_fields(),
            e.sim_ns as f64 / 1e9,
            e.lock_transfers,
            e.messages,
            e.bytes,
            e.wire_payload_bytes + e.wire_meta_bytes,
            contents,
            e.fingerprint(),
        );
        let sfx = t.suffix;
        host.put_metrics(&mut m, sfx, traced);
        if traced {
            crate::spans::print_table(w.name, t.kind, &r.span_table);
            m.put(&format!("kv.read_s.{sfx}"), median(&r.read_s));
            m.put(&format!("kv.write_s.{sfx}"), median(&r.write_s));
            m.put(&format!("sync.barrier_s.{sfx}"), median(&r.barrier_s));
            m.put(&format!("runtime.run_s.{sfx}"), median(&r.run_self_s));
            crate::exact_layer_metrics(&mut m, sfx, &e);
        } else {
            m.put(&format!("sim_s.{sfx}"), e.sim_ns as f64 / 1e9);
        }
    }
    if traced {
        m.put(
            "trace.overhead",
            crate::trace_overhead(runs.iter().map(|r| &r.host)),
        );
        m.put("kv.hit_ratio", ratio(hits as f64, gets as f64));
        m.put("setup.gen_s", median(&setups.gen_s));
        m.put("setup.new_s", median(&setups.new_s));
    } else {
        m.put("setup_s", median(&setups.total_s));
    }
    report.metrics = m;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_model_tracks_every_outcome() {
        let ops = [
            KvOp::Get { key: 5 },
            KvOp::Put { key: 5, seed: 3 },
            KvOp::Get { key: 5 },
            KvOp::Put { key: 5, seed: 9 },
            KvOp::Cas {
                key: 5,
                expect: 3,
                seed: 1,
            },
            KvOp::Cas {
                key: 5,
                expect: 9,
                seed: 2,
            },
            KvOp::Cas {
                key: 6,
                expect: 0,
                seed: 2,
            },
            KvOp::Delete { key: 5 },
            KvOp::Delete { key: 5 },
            KvOp::Put { key: 7, seed: 4 },
        ];
        let (expect, fnv) = sequential_model(&ops, 4);
        assert_eq!(
            expect,
            vec![
                MISS, INSERTED, 3, UPDATED, MISMATCH, SWAPPED, ABSENT, DELETED, NOT_FOUND, INSERTED
            ]
        );
        // Only key 7 survives, holding seed 4's value.
        let mut v = vec![0; 4];
        fill_value(7, 4, &mut v);
        assert_eq!(fnv, entries_fnv(&[(7, v)]));
    }
}
