//! Recovery equivalence: a run that crashes a node mid-flight and recovers
//! it from its last checkpoint must be observably identical to the run that
//! never crashed.
//!
//! "Observably identical" is the canonical application serialization of
//! `dsm_tests::canon_app` — verified output contents, the aggregate
//! `TrafficReport`, and every per-node statistics counter.  Simulated
//! *times* are outside the comparison: checkpoint capture and rollback
//! restore charge real (simulated) memory-copy time to the recovering node,
//! so the crashed run finishes later — but it must not send one extra
//! protocol byte or publish one different word (`DESIGN.md` §8).
//!
//! The suite pins the whole 12-implementation matrix at 1 and 4 processors
//! on SOR, and exercises the channel transport (checkpoint images and the
//! rollback notice travel the wire to every replica, which verifies count
//! and fingerprint at finish).  SOR takes no locks, so a second program
//! makes uncontended lock releases in the crash epoch: under the LRC family
//! their frames are still in the unsent wire batch when the crash fires.

use dsm_apps::{run_app_opts, App, AppReport, RunOpts, Scale};
use dsm_core::{
    BarrierId, BlockGranularity, Dsm, DsmConfig, FaultPlan, ImplKind, LockId, LockMode, RunResult,
    TransportKind,
};
use dsm_tests::canon_app;

/// Runs tiny SOR at `nprocs` under `kind` with the given options.
fn sor(kind: ImplKind, nprocs: usize, opts: RunOpts) -> AppReport {
    run_app_opts(App::Sor, kind, nprocs, Scale::Tiny, opts)
}

/// Asserts that a run crashed at `fault` is canonically identical to the
/// uncrashed run, and that recovery actually happened.
fn assert_equivalent(kind: ImplKind, nprocs: usize, fault: FaultPlan) {
    let base = sor(kind, nprocs, RunOpts::default());
    let crashed = sor(
        kind,
        nprocs,
        RunOpts {
            transport: TransportKind::Simulated,
            fault,
        },
    );
    assert!(base.verified, "{kind}/{nprocs}p: uncrashed run failed");
    assert!(
        crashed.verified,
        "{kind}/{nprocs}p: crashed run diverged from sequential output"
    );
    assert_eq!(
        canon_app(&base),
        canon_app(&crashed),
        "{kind}/{nprocs}p: crashed-and-recovered run is not equivalent"
    );
    // The fault actually fired and was recovered from.
    assert_eq!(crashed.recovery.crashes, 1, "{kind}/{nprocs}p");
    assert!(crashed.recovery.checkpoints > 0, "{kind}/{nprocs}p");
    assert!(crashed.recovery.checkpoint_bytes > 0, "{kind}/{nprocs}p");
    assert!(crashed.recovery.restore_ns > 0, "{kind}/{nprocs}p");
    // The uncrashed run carries no recovery machinery at all.
    assert_eq!(base.recovery.checkpoints, 0, "{kind}/{nprocs}p");
    assert_eq!(base.recovery.crashes, 0, "{kind}/{nprocs}p");
}

/// Tiny SOR runs 4 iterations of 2 barriers plus a final one: 9 barriers.
/// Barrier 5 is mid-run — past several checkpoints, with work left to redo.
const MID_RUN: u64 = 5;

#[test]
fn crashed_runs_recover_equivalently_across_the_matrix_at_4_procs() {
    for kind in ImplKind::all() {
        assert_equivalent(
            kind,
            4,
            FaultPlan::KillAt {
                node: 1,
                barrier: MID_RUN,
            },
        );
    }
}

#[test]
fn crashed_runs_recover_equivalently_across_the_matrix_at_1_proc() {
    for kind in ImplKind::all() {
        assert_equivalent(
            kind,
            1,
            FaultPlan::KillAt {
                node: 0,
                barrier: MID_RUN,
            },
        );
    }
}

#[test]
fn killing_the_last_arriving_node_at_the_first_barrier_recovers() {
    // Barrier 0 exercises recovery from the initial cut: the only
    // checkpoint is the pre-run image.
    for kind in [ImplKind::lrc_diff(), ImplKind::ec_time()] {
        assert_equivalent(
            kind,
            4,
            FaultPlan::KillAt {
                node: 3,
                barrier: 0,
            },
        );
    }
}

#[test]
fn checkpoint_images_and_rollback_notices_survive_the_channel_transport() {
    // Under the channel transport every replica receives the checkpoint
    // images and the rollback notice out of band and verifies count and
    // XOR-FNV fingerprint against the senders' totals at finish (an assert
    // inside the transport, so reaching the report is the proof).
    let report = sor(
        ImplKind::lrc_diff(),
        4,
        RunOpts {
            transport: TransportKind::Channel,
            fault: FaultPlan::KillAt {
                node: 2,
                barrier: MID_RUN,
            },
        },
    );
    assert!(report.verified);
    assert_eq!(report.recovery.crashes, 1);
    assert_eq!(report.wire.replicas_verified, 4);
    assert!(
        report.wire.ckpt_frames > 0,
        "no checkpoint crossed the wire"
    );
    assert_eq!(report.wire.rollback_frames, 1);
}

#[test]
fn checkpoint_images_and_rollback_notices_survive_the_socket_transport() {
    let report = sor(
        ImplKind::hlrc_diff(),
        2,
        RunOpts {
            transport: TransportKind::SocketLocal(1),
            fault: FaultPlan::KillAt {
                node: 0,
                barrier: MID_RUN,
            },
        },
    );
    assert!(report.verified);
    assert_eq!(report.recovery.crashes, 1);
    assert_eq!(report.wire.replicas_verified, 1);
    assert!(
        report.wire.ckpt_frames > 0,
        "no checkpoint crossed the wire"
    );
    assert_eq!(report.wire.rollback_frames, 1);
}

/// u32 words per 4 KiB page.
const WORDS_PER_PAGE: usize = 1024;

/// Barrier-separated epochs of [`locked_epochs`].
const EPOCHS: u32 = 6;

/// A barrier-structured program whose every epoch makes uncontended lock
/// releases: node `p` rewrites words of its own page in two critical
/// sections on its own lock `p`, then, after the barrier, reads its
/// neighbour's page.  Under the LRC family each release ends an interval
/// and appends that interval's frames to the open wire batch, which only
/// the barrier sends — so a crash at a barrier finds the crash epoch's
/// frames still unsent.
fn locked_epochs(kind: ImplKind, transport: TransportKind, fault: FaultPlan) -> RunResult {
    const NPROCS: usize = 2;
    let mut cfg = DsmConfig::with_procs(kind, NPROCS);
    cfg.transport = transport;
    cfg.fault = fault;
    let mut dsm = Dsm::new(cfg).expect("valid config");
    let data = dsm.alloc_array::<u32>(
        "locked-epochs",
        NPROCS * WORDS_PER_PAGE,
        BlockGranularity::Word,
    );
    dsm.run(|ctx| {
        let me = ctx.node();
        let lock = LockId::new(me as u32);
        for epoch in 0..EPOCHS {
            for round in 0..2u32 {
                let step = (epoch * 2 + round) as usize;
                let mut g = ctx.lock(lock, LockMode::Exclusive);
                for k in 0..16usize {
                    let idx = me * WORDS_PER_PAGE + (k * 61 + step * 17) % WORDS_PER_PAGE;
                    g.set(
                        data,
                        idx,
                        epoch * 1000 + round * 100 + me as u32 * 10 + k as u32,
                    );
                }
            }
            ctx.barrier(BarrierId::new(0));
            let neighbour = (me + 1) % NPROCS;
            std::hint::black_box(ctx.get(data, neighbour * WORDS_PER_PAGE + epoch as usize));
        }
        ctx.barrier(BarrierId::new(1));
    })
}

#[test]
fn crash_epoch_lock_releases_recover_over_real_transports() {
    // Node 1 dies entering barrier 3, after epoch 3's two lock releases
    // have published their intervals into its still-open batch.
    let fault = FaultPlan::KillAt {
        node: 1,
        barrier: 3,
    };
    for kind in [
        ImplKind::lrc_diff(),
        ImplKind::hlrc_diff(),
        ImplKind::adaptive_diff(),
    ] {
        let clean = locked_epochs(kind, TransportKind::Simulated, FaultPlan::None);
        for (transport, replicas) in [
            (TransportKind::Channel, 2),
            (TransportKind::SocketLocal(1), 1),
        ] {
            let label = transport.label();
            let crashed = locked_epochs(kind, transport, fault);
            assert_eq!(crashed.recovery.crashes, 1, "{kind} over {label}");
            assert_eq!(crashed.wire.rollback_frames, 1, "{kind} over {label}");
            assert_eq!(
                crashed.wire.replicas_verified, replicas,
                "{kind} over {label}: every replica verifies"
            );
            assert_eq!(
                crashed.wire.frames_applied,
                crashed.wire.frames_sent * replicas as u64,
                "{kind} over {label}: replicas dropped frames"
            );
            assert_eq!(
                crashed.wire.master_fnv, clean.wire.master_fnv,
                "{kind} over {label}: final contents differ from the clean run"
            );
        }
    }
}
