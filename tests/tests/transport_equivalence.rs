//! The transport backends must be invisible to the application: a run over
//! real threads (channel backend) or real loopback sockets (socket backend)
//! must still verify against the sequential program, and its replicas must
//! reconstruct the final shared memory contents independently from the
//! publish stream.
//!
//! Replica-vs-master verification happens inside the transport's `finish`
//! (it panics on divergence), so a completed run with `replicas_verified > 0`
//! *is* the proof that every frame arrived, reordered into sequence order,
//! and applied to exactly the engines' master bytes — per run, for every app,
//! deterministic or not.
//!
//! Cross-run comparison (channel/socket contents vs. a separate simulated
//! run) is additionally asserted for the apps whose contents are bitwise
//! deterministic.  Lock-grant order between real worker threads is a genuine
//! race, so apps that sum floats under contended locks (Water) or leave
//! scheduling-dependent task-queue words in shared memory (Quicksort)
//! legitimately differ bitwise from one run to the next; SOR, SOR+,
//! Barnes-Hut, IS and 3D-FFT write every shared word from a deterministic
//! owner and reproduce identical bytes every run.
//!
//! The apps whose traffic is deterministic take few or no locks, so a
//! rotating-ownership KV program adds the lock-heavy case: thousands of
//! uncontended releases, whose frames every protocol family batches until
//! the barrier.

use dsm_apps::{run_app, run_app_on, App, Scale};
use dsm_core::{
    BarrierId, Dsm, DsmConfig, ImplKind, Model, RunResult, TransportKind, TransportReport,
};
use dsm_kvservice::workload::{gen_trace, KeySampler, MixSpec};
use dsm_kvservice::{KvConfig, KvScratch, KvStats, KvStore, ReadConsistency};

/// True if `app` produces bitwise-identical shared contents on every run
/// (established empirically; see the module docs).
fn contents_deterministic(app: App) -> bool {
    !matches!(app, App::Water | App::Quicksort)
}

/// True if `app` sends the same frames with the same bytes on every run.
/// IS, Water and Quicksort contend for locks, so under LRC the grant order
/// decides the vector clocks each frame carries (and under EC-time the
/// Quicksort task queue decides how frames coalesce): their wire metadata
/// legitimately differs between two runs.
fn traffic_deterministic(app: App) -> bool {
    !matches!(app, App::IntegerSort | App::Water | App::Quicksort)
}

/// What one run moved over the wire, per receiving replica: frames sent,
/// frames coalesced, payload bytes and metadata bytes.  Both real backends
/// ship one wire encoding, so on deterministic traffic these must agree.
fn per_receiver_traffic(w: &TransportReport) -> (u64, u64, u64, u64) {
    let receivers = w.replicas_verified as u64;
    (
        w.frames_sent,
        w.frames_coalesced,
        w.wire_bytes_payload / receivers,
        w.wire_bytes_meta / receivers,
    )
}

/// Runs `app` under `kind` on the simulated, channel and socket backends.
/// Where the traffic is deterministic, both real backends must also move the
/// same frames and, per receiving replica, the same payload and metadata
/// bytes: they ship one wire encoding.
fn assert_backends_agree(app: App, kind: ImplKind, nprocs: usize) {
    let base = run_app(app, kind, nprocs, Scale::Tiny);
    assert!(base.verified, "{app}/{kind}: simulated run not verified");
    assert_eq!(base.wire.backend, "sim");
    assert_eq!(base.wire.replicas_verified, 0);

    let mut per_receiver = Vec::new();
    for transport in [TransportKind::Channel, TransportKind::SocketLocal(2)] {
        let label = transport.label();
        let r = run_app_on(app, kind, nprocs, Scale::Tiny, transport);
        assert!(r.verified, "{app}/{kind} over {label}: run not verified");
        assert_eq!(r.wire.backend, label);
        assert!(
            r.wire.replicas_verified > 0,
            "{app}/{kind} over {label}: no replica verified the contents"
        );
        assert!(
            r.wire.frames_sent > 0,
            "{app}/{kind} over {label}: publish stream was empty"
        );
        assert_eq!(
            r.wire.frames_applied,
            r.wire.frames_sent * r.wire.replicas_verified as u64,
            "{app}/{kind} over {label}: replicas dropped frames"
        );
        assert!(r.wire.wire_bytes > 0, "{app}/{kind} over {label}: no bytes");
        if contents_deterministic(app) {
            assert_eq!(
                r.wire.master_fnv, base.wire.master_fnv,
                "{app}/{kind} over {label}: final contents differ from simulated"
            );
        }
        per_receiver.push(per_receiver_traffic(&r.wire));
    }
    if traffic_deterministic(app) {
        assert_eq!(
            per_receiver[0], per_receiver[1],
            "{app}/{kind}: channel and socket disagree on per-receiver \
             (frames, coalesced, payload bytes, meta bytes)"
        );
    }
}

#[test]
fn every_app_agrees_across_backends_on_four_nodes() {
    for app in App::ALL {
        for kind in [ImplKind::ec_time(), ImplKind::lrc_diff()] {
            assert_backends_agree(app, kind, 4);
        }
    }
}

#[test]
fn every_app_agrees_across_backends_on_two_nodes() {
    for app in App::ALL {
        assert_backends_agree(app, ImplKind::hlrc_diff(), 2);
    }
}

#[test]
fn the_full_nine_member_matrix_replicates_over_the_channel_backend() {
    for kind in ImplKind::all() {
        let r = run_app_on(
            App::IntegerSort,
            kind,
            4,
            Scale::Tiny,
            TransportKind::Channel,
        );
        assert!(r.verified, "IS/{kind} over channel: run not verified");
        assert_eq!(
            r.wire.replicas_verified, 4,
            "IS/{kind} over channel: every node carries a replica"
        );
        assert_eq!(
            r.wire.frames_applied,
            r.wire.frames_sent * 4,
            "IS/{kind} over channel: replicas dropped frames"
        );
    }
}

#[test]
fn socket_peer_count_scales_independently_of_node_count() {
    for npeers in [1usize, 3] {
        let r = run_app_on(
            App::Sor,
            ImplKind::lrc_diff(),
            4,
            Scale::Tiny,
            TransportKind::SocketLocal(npeers),
        );
        assert!(r.verified);
        assert_eq!(r.wire.replicas_verified, npeers);
        assert_eq!(r.wire.frames_applied, r.wire.frames_sent * npeers as u64);
    }
}

/// Ops per barrier-separated chunk of the KV program.
const KV_CHUNK: usize = 256;

/// The rotating-ownership KV program of `kv_equivalence.rs` at 4 processors:
/// one seeded write-heavy trace, every op its own lock-guarded critical
/// section, and shard `s` served in chunk `c` by processor `(s + c) mod 4`.
/// Shards migrate every chunk, yet no lock is ever contended, so every
/// release's frame, vector clock and batch repeats from run to run.
fn kv_rotating(kind: ImplKind, transport: TransportKind) -> RunResult {
    const NPROCS: usize = 4;
    let trace = gen_trace(
        0xD15C_0BA1,
        4096,
        &KeySampler::zipf(500, 0.99),
        &MixSpec::ALL[2],
    );
    let mut cfg = DsmConfig::with_procs(kind, NPROCS);
    cfg.transport = transport;
    let mut dsm = Dsm::new(cfg).expect("valid config");
    let store = KvStore::alloc(&mut dsm, kind.model(), KvConfig::small());
    dsm.run(|ctx| {
        let me = ctx.node();
        let mut scratch = KvScratch::new(store.config());
        let mut stats = KvStats::new(store.config().shards());
        let mut owned = Vec::with_capacity(KV_CHUNK);
        for (c, chunk) in trace.chunks(KV_CHUNK).enumerate() {
            owned.clear();
            owned.extend(
                chunk
                    .iter()
                    .filter(|op| (store.shard_of(op.key()) + c) % NPROCS == me)
                    .copied(),
            );
            for op in &owned {
                store.apply_batch(
                    ctx,
                    std::slice::from_ref(op),
                    ReadConsistency::Lock,
                    &mut scratch,
                    &mut stats,
                );
            }
            ctx.barrier(BarrierId::new(0));
        }
    })
}

#[test]
fn lock_heavy_kv_traffic_agrees_across_backends() {
    // A release only appends its frame to the open batch; the barrier
    // closes the wire epoch for every protocol family.  So on this
    // per-op-lock program both backends move identical traffic per
    // receiver, and under the LRC family nearly every frame rides a batch
    // some earlier frame opened.
    for kind in [
        ImplKind::ec_time(),
        ImplKind::lrc_diff(),
        ImplKind::hlrc_diff(),
        ImplKind::adaptive_diff(),
    ] {
        let base = kv_rotating(kind, TransportKind::Simulated);
        let mut per_receiver = Vec::new();
        for transport in [TransportKind::Channel, TransportKind::SocketLocal(2)] {
            let label = transport.label();
            let w = kv_rotating(kind, transport).wire;
            assert!(w.replicas_verified > 0, "{kind} over {label}: no replica");
            assert_eq!(
                w.frames_applied,
                w.frames_sent * w.replicas_verified as u64,
                "{kind} over {label}: replicas dropped frames"
            );
            assert_eq!(
                w.master_fnv, base.wire.master_fnv,
                "{kind} over {label}: final contents differ from simulated"
            );
            if kind.model() != Model::Ec {
                assert!(
                    w.frames_coalesced * 10 >= w.frames_sent * 9,
                    "{kind} over {label}: only {} of {} frames coalesced",
                    w.frames_coalesced,
                    w.frames_sent
                );
            }
            per_receiver.push(per_receiver_traffic(&w));
        }
        assert_eq!(
            per_receiver[0], per_receiver[1],
            "{kind}: channel and socket disagree on per-receiver \
             (frames, coalesced, payload bytes, meta bytes)"
        );
    }
}
