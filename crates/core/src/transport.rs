//! Pluggable transport under the protocol engines.
//!
//! The engines publish modifications into shared master copies; a
//! [`Transport`] decides what *else* happens at each publish.  The default
//! [`TransportKind::Simulated`] backend does nothing — messages remain pure
//! cost accounting, exactly as before, and the hot path stays branch-only.
//! The real backends replicate every publish to a set of replica holders and
//! verify, at the end of the run, that every replica's contents are
//! byte-identical (FNV-fingerprint equal) to the engines' master copies.
//!
//! Both real backends speak one wire form.  An endpoint encodes each publish
//! as a v2 frame (see [`dsm_mem::wire::encode_frame_v2`]) into one open batch
//! message: vector clocks travel as [`CompactClock`] delta records against
//! the stream's previous clock, so ordering metadata scales with what
//! changed, not with nprocs.  A release only appends its frames to the open
//! batch; the **barrier is the wire epoch** of every protocol family:
//! `ProcessContext::barrier` calls [`WireEndpoint::flush`] once, after the
//! engine's arrival work and before the rendezvous, and the flush delivers
//! the batch's bytes:
//!
//! * [`TransportKind::Channel`] — every simulated processor is a
//!   message-passing OS thread with one full replica; the batch goes, as one
//!   shared `Arc<[u8]>` tagged with the sender, into every node's
//!   `std::sync::mpsc` inbox, the sender's own included.
//! * [`TransportKind::SocketLocal`] / [`TransportKind::SocketRemote`] — the
//!   same bytes go out with one `write_all` per length-prefixed TCP
//!   connection (`TCP_NODELAY` set) to replica peers: in-process listener
//!   threads (`SocketLocal`) or separate processes started by a driver
//!   (`SocketRemote`, see [`serve_transport_peer`]).
//!
//! On the receive side one replica intake decodes every message of both
//! backends, applying each frame whose turn has come straight from the
//! message bytes, and one check verifies every replica's end-of-run report.
//! Wire bytes are measured from the delivered messages, summed over
//! receivers.
//!
//! Cost accounting is transport-independent: the simulated clocks and
//! statistics are charged identically under every backend, so simulated
//! times and all goldens stay byte-identical; the backends differ only in
//! what moves on the host.  See `DESIGN.md` §6 for the backend contract and
//! the wire format.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc};

use dsm_mem::wire::{
    begin_batch, encode_frame_v2, finish_batch, fnv64, fnv64_regions, read_msg, split_msg,
    write_msg, BatchReader, FrameV2, FrameView, WireFrame, WireInit, WireMsgKind, WireReport,
};
use dsm_mem::{put_varint, BufferPool, CkptImage, CompactClock};
use dsm_sim::NodeId;

use crate::config::DsmConfig;

/// Which transport carries publish frames during a run.
///
/// The simulated backend is the default and the only one that keeps the
/// publish hot path allocation-free; the real backends trade that for actual
/// bytes moving between threads or processes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// No replication: messages are cost accounting only (the default).
    #[default]
    Simulated,
    /// One replica per simulated processor; each epoch's batch message is
    /// `Arc`-shared over in-process `std::sync::mpsc` channels between the
    /// worker threads.
    Channel,
    /// This many replica peers served by in-process listener threads;
    /// frames are serialized and streamed over loopback TCP.
    SocketLocal(usize),
    /// Replica peers already running (separate processes, see
    /// [`serve_transport_peer`]) at these `host:port` addresses.
    SocketRemote(Vec<String>),
}

impl TransportKind {
    /// Short backend label used in reports and bench output.
    pub fn label(&self) -> &'static str {
        match self {
            TransportKind::Simulated => "sim",
            TransportKind::Channel => "channel",
            TransportKind::SocketLocal(_) | TransportKind::SocketRemote(_) => "socket",
        }
    }
}

/// End-of-run transport summary attached to every
/// [`RunResult`](crate::RunResult).
///
/// Under the simulated backend everything except `master_fnv` is zero.  The
/// real backends verify each replica's final contents against the engines'
/// master copies before returning, so a returned report certifies
/// `replicas_verified` byte-identical replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportReport {
    /// Backend label (`"sim"`, `"channel"`, `"socket"`).
    pub backend: &'static str,
    /// [`fnv64_regions`] fingerprint of the engines' final master copies —
    /// comparable across backends and across processes.
    pub master_fnv: u64,
    /// Replicas whose final contents were verified fingerprint-equal to the
    /// master copies.
    pub replicas_verified: usize,
    /// Publish frames sent (each counted once, however many receivers).
    pub frames_sent: u64,
    /// Bytes delivered, summed over receivers: the framed messages every
    /// receiver got (the channel backend hands each node one shared copy of
    /// the bytes a socket writes).  Always
    /// `wire_bytes_payload + wire_bytes_meta`.
    pub wire_bytes: u64,
    /// The changed-bytes part of `wire_bytes`: run payloads, summed over
    /// receivers.
    pub wire_bytes_payload: u64,
    /// The ordering-metadata part of `wire_bytes`: frame headers, delta
    /// clock records, run tables and batch framing, summed over receivers.
    pub wire_bytes_meta: u64,
    /// Sends saved by epoch coalescing: frames that rode in an already-open
    /// batch instead of paying their own send (`frames_sent` minus batches).
    pub frames_coalesced: u64,
    /// Frames applied across all replicas.
    pub frames_applied: u64,
    /// Engine control broadcasts sent (adaptive LRC's migration commits;
    /// zero for every static policy).  Each replica's received count and
    /// XOR-FNV fingerprint are verified against the senders' totals.
    pub ctrl_frames: u64,
    /// Checkpoint images shipped to the replicas (zero unless a
    /// [`FaultPlan`](crate::FaultPlan) is armed); verified like control
    /// broadcasts.
    pub ckpt_frames: u64,
    /// Rollback notices shipped to the replicas (zero unless an injected
    /// crash actually fired); verified like control broadcasts.
    pub rollback_frames: u64,
}

/// A malformed message on a node stream.
fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Folds one out-of-band body into a `(count, fnv)` tally: a sender's or a
/// replica's.
fn tally(count: &mut u64, fnv: &mut u64, body: &[u8]) {
    *count += 1;
    *fnv ^= fnv64(body);
}

/// One replica of the shared regions, rebuilt purely from publish frames.
///
/// Frames of a region are applied strictly in `seq` order.  A frame whose
/// turn has come is applied straight from the message bytes it arrived in;
/// an out-of-order arrival is copied into a per-region reorder buffer until
/// its predecessors land.  The per-region sequence numbers are dense (the
/// engines draw them from the same counter the publish bumps), so a replica
/// that has seen every frame always drains.
#[derive(Debug)]
struct Replica {
    regions: Vec<Vec<u8>>,
    /// Per region: the last applied sequence number (0 = none yet).
    applied_seq: Vec<u64>,
    /// Per region: frames that arrived ahead of their turn, keyed by seq.
    pending: Vec<BTreeMap<u64, WireFrame>>,
    /// Everything the end-of-run report carries except the contents
    /// fingerprint, which [`Replica::finish`] fills in.
    tally: WireReport,
    /// Payload buffers of buffered frames, recycled once they apply, so a
    /// stream that keeps arriving out of order stops allocating payloads.
    pool: BufferPool,
}

impl Replica {
    fn new(init: &[Vec<u8>]) -> Self {
        Replica {
            regions: init.to_vec(),
            applied_seq: vec![0; init.len()],
            pending: init.iter().map(|_| BTreeMap::new()).collect(),
            tally: WireReport::default(),
            pool: BufferPool::new(),
        }
    }

    /// Takes one framed message from a node stream: the single receive path
    /// of both real backends.  `codec` is the receive side of that sender's
    /// delta clock stream, so messages of one sender must arrive in order.
    ///
    /// A `Batch` is decoded frame by frame and each frame is offered to its
    /// region.  A frame naming an unknown region or reaching past its
    /// region's end is `InvalidData`, whether or not its turn has come.
    /// Control broadcasts, checkpoint images and rollback notices are not
    /// applied: each is counted and folded into an order-independent XOR-FNV
    /// fingerprint that [`Transport::finish`] checks against the senders'.
    fn intake(
        &mut self,
        codec: &mut CompactClock,
        kind: WireMsgKind,
        body: &[u8],
    ) -> io::Result<()> {
        // The u32 length prefix and the kind byte ride with every body.
        self.tally.bytes_received += body.len() as u64 + 5;
        let t = &mut self.tally;
        match kind {
            WireMsgKind::Batch => {
                let mut frames =
                    BatchReader::new(body).ok_or_else(|| bad("batch lacks a frame count"))?;
                while frames.remaining() > 0 {
                    let frame = frames
                        .next(codec)
                        .ok_or_else(|| bad("malformed frame in batch"))?;
                    self.offer(frame)?;
                }
                if !frames.finished() {
                    return Err(bad("trailing bytes after the last batch frame"));
                }
            }
            WireMsgKind::Ctrl => tally(&mut t.ctrl_frames, &mut t.ctrl_fnv, body),
            // A replica is the crash-recovery escrow, so an image that does
            // not decode is a transport fault.
            WireMsgKind::Ckpt if CkptImage::decode(body).is_none() => {
                return Err(bad("malformed checkpoint image"));
            }
            WireMsgKind::Ckpt => tally(&mut t.ckpt_frames, &mut t.ckpt_fnv, body),
            WireMsgKind::Rollback => tally(&mut t.rollback_frames, &mut t.rollback_fnv, body),
            _ => return Err(bad("unexpected message on a node stream")),
        }
        Ok(())
    }

    /// Accepts one validated frame.  If it is its region's next, it is
    /// applied from the message bytes and any buffered successors follow;
    /// otherwise it is copied into the reorder buffer.  The region and run
    /// bounds are checked first, so a frame that cannot apply is never
    /// buffered.
    fn offer(&mut self, frame: FrameView<'_>) -> io::Result<()> {
        let r = frame.region() as usize;
        let region = self
            .regions
            .get_mut(r)
            .ok_or_else(|| bad("frame for an unknown region"))?;
        if frame.end() > region.len() as u64 {
            return Err(bad("frame run outside its region"));
        }
        if frame.seq() != self.applied_seq[r] + 1 {
            self.pending[r].insert(frame.seq(), frame.to_owned(&mut self.pool));
            return Ok(());
        }
        // Both applies are in bounds: this frame was checked above, and every
        // buffered frame was checked the same way when it arrived.
        frame.apply(region);
        self.applied_seq[r] += 1;
        self.tally.frames_applied += 1;
        while let Some(f) = self.pending[r].remove(&(self.applied_seq[r] + 1)) {
            f.apply(region);
            self.applied_seq[r] += 1;
            self.tally.frames_applied += 1;
            self.pool.put(f.payload);
        }
        Ok(())
    }

    /// The end-of-run report, once every stream has ended.  Fails if a frame
    /// still waits on a sequence that never arrived.
    fn finish(&self) -> io::Result<WireReport> {
        if !self.pending.iter().all(BTreeMap::is_empty) {
            return Err(bad("frames wait on missing sequences"));
        }
        Ok(WireReport {
            contents_fnv: fnv64_regions(self.regions.iter().map(|r| r.as_slice())),
            ..self.tally
        })
    }
}

/// Flush the batch buffer early if it outgrows this, which bounds an
/// endpoint's memory however much one epoch publishes.
const BATCH_LIMIT: usize = 4 << 20;

/// A worker thread's handle onto the transport: where its publish frames go.
///
/// Owned by the worker's `NodeLocal` for the duration of the run (`None`
/// under the simulated backend), handed back to the transport's
/// [`Transport::finish`] afterwards.  Publishes are encoded into one open
/// batch message; every barrier calls [`WireEndpoint::flush`] once, whatever
/// the protocol family, and the flush delivers the batch's bytes to every
/// receiver.
#[derive(Debug)]
pub(crate) struct WireEndpoint {
    /// Frames this endpoint published.
    pub frames_sent: u64,
    /// Payload bytes delivered (changed-byte runs), summed over receivers.
    pub wire_bytes_payload: u64,
    /// Ordering-metadata bytes delivered (headers, delta clocks, run tables,
    /// batch framing), summed over receivers.
    pub wire_bytes_meta: u64,
    /// Sends saved by coalescing: frames beyond the first in each batch.
    pub frames_coalesced: u64,
    /// Control broadcasts this endpoint sent (see [`WireEndpoint::send_ctrl`]).
    pub ctrl_sent: u64,
    /// XOR of the [`fnv64`] of every control payload this endpoint sent.
    pub ctrl_fnv: u64,
    /// Checkpoint images this endpoint shipped (see
    /// [`WireEndpoint::send_ckpt`]).
    pub ckpt_sent: u64,
    /// XOR of the [`fnv64`] of every checkpoint image this endpoint sent.
    pub ckpt_fnv: u64,
    /// Rollback notices this endpoint sent (see
    /// [`WireEndpoint::send_rollback`]).
    pub rollback_sent: u64,
    /// XOR of the [`fnv64`] of every rollback notice this endpoint sent.
    pub rollback_fnv: u64,
    /// Scratch run table the engines fill while collecting a publish
    /// (borrowed out with `std::mem::take`, handed back after the frame is
    /// built, so steady-state publishes reuse its capacity).
    pub scratch_runs: Vec<(u32, u32)>,
    /// Delta codec for this endpoint's outgoing clock stream.  Every
    /// receiver gets the identical stream, so one sender baseline serves all.
    enc: CompactClock,
    /// False until the first publish: the first frame of a stream carries
    /// its clock in full mode to seed the receivers' baselines.
    started: bool,
    /// The open batch message: header placeholder + length-prefixed v2
    /// frames (empty between flushes).
    batch: Vec<u8>,
    batch_frames: u32,
    batch_payload: u64,
    /// Scratch one frame (or one out-of-band message) is encoded into before
    /// it is appended to `batch` (or delivered).
    frame_buf: Vec<u8>,
    link: Link,
}

/// Where an endpoint's messages go.  Both backends deliver the same bytes.
#[derive(Debug)]
enum Link {
    /// One shared `Arc<[u8]>` per message into every node's inbox.
    Channel(Box<ChannelLink>),
    /// One raw TCP stream per replica peer (`TCP_NODELAY` set; batching
    /// makes the writes large, so Nagle only adds latency).
    Socket { conns: Vec<TcpStream> },
}

/// A message in a channel inbox: the sending node and the framed bytes.
type Delivery = (usize, Arc<[u8]>);

/// The channel side of one node: its senders into every node's inbox (its
/// own included), its inbox, and the full replica it rebuilds from it.
#[derive(Debug)]
struct ChannelLink {
    me: usize,
    inboxes: Vec<mpsc::Sender<Delivery>>,
    inbox: mpsc::Receiver<Delivery>,
    replica: Replica,
    /// Receive side of every sender's delta clock stream, by node.
    codecs: Vec<CompactClock>,
}

impl ChannelLink {
    /// Applies every message delivered to this node so far.
    fn drain(&mut self) {
        while let Ok((from, msg)) = self.inbox.try_recv() {
            let (kind, body) = split_msg(&msg).expect("channel message is one framed message");
            self.replica
                .intake(&mut self.codecs[from], kind, body)
                .expect("channel replica rejected a message");
        }
    }
}

impl Link {
    /// Delivers one framed message to every receiver; returns how many
    /// received it.
    fn deliver(&mut self, msg: &[u8]) -> u64 {
        match self {
            Link::Channel(ch) => {
                let msg: Arc<[u8]> = Arc::from(msg);
                for inbox in &ch.inboxes {
                    inbox
                        .send((ch.me, Arc::clone(&msg)))
                        .expect("peer inbox closed mid-run");
                }
                ch.inboxes.len() as u64
            }
            Link::Socket { conns } => {
                for conn in conns.iter_mut() {
                    conn.write_all(msg)
                        .expect("replica peer connection lost mid-run");
                }
                conns.len() as u64
            }
        }
    }
}

impl WireEndpoint {
    fn new(link: Link) -> Box<Self> {
        Box::new(WireEndpoint {
            frames_sent: 0,
            wire_bytes_payload: 0,
            wire_bytes_meta: 0,
            frames_coalesced: 0,
            ctrl_sent: 0,
            ctrl_fnv: 0,
            ckpt_sent: 0,
            ckpt_fnv: 0,
            rollback_sent: 0,
            rollback_fnv: 0,
            scratch_runs: Vec::new(),
            enc: CompactClock::new(),
            started: false,
            batch: Vec::new(),
            batch_frames: 0,
            batch_payload: 0,
            frame_buf: Vec::new(),
            link,
        })
    }

    /// Total bytes this endpoint delivered, summed over receivers.
    pub fn wire_bytes(&self) -> u64 {
        self.wire_bytes_payload + self.wire_bytes_meta
    }

    /// Encodes one publish into the open batch: region-absolute changed-byte
    /// `runs` of `data`, totally ordered within the region by `seq` (dense,
    /// 1-based).  `clock` is the publisher's vector-clock entries (empty
    /// under EC).  Nothing moves until [`WireEndpoint::flush`].
    pub fn publish(
        &mut self,
        region: u32,
        seq: u64,
        clock: &[u32],
        runs: &[(u32, u32)],
        data: &[u8],
    ) {
        self.frames_sent += 1;
        let full = !self.started;
        self.started = true;
        self.frame_buf.clear();
        let (_, payload) = encode_frame_v2(
            &FrameV2 {
                region,
                seq,
                clock,
                full,
                runs,
                data,
            },
            &mut self.enc,
            &mut self.frame_buf,
        );
        if self.batch.is_empty() {
            begin_batch(&mut self.batch);
        }
        put_varint(&mut self.batch, self.frame_buf.len() as u64);
        self.batch.extend_from_slice(&self.frame_buf);
        self.batch_frames += 1;
        self.batch_payload += payload as u64;
        if self.batch.len() >= BATCH_LIMIT {
            self.flush();
        }
    }

    /// Broadcasts one engine control payload (opaque bytes) to every replica,
    /// immediately.  Replicas do not apply the payload; they count it and
    /// fold it into an order-independent XOR-FNV fingerprint that
    /// [`Transport::finish`] verifies against the senders' totals, proving
    /// every replica observed every broadcast.
    pub fn send_ctrl(&mut self, payload: &[u8]) {
        tally(&mut self.ctrl_sent, &mut self.ctrl_fnv, payload);
        self.send_oob(WireMsgKind::Ctrl, payload);
    }

    /// Ships one encoded [`CkptImage`] to every replica, immediately
    /// (checkpoints cut at barrier boundaries must not wait in an epoch
    /// batch).  Replicas validate, count and fingerprint the image — it is
    /// the crash-recovery escrow, verified like control broadcasts.
    pub fn send_ckpt(&mut self, payload: &[u8]) {
        tally(&mut self.ckpt_sent, &mut self.ckpt_fnv, payload);
        self.send_oob(WireMsgKind::Ckpt, payload);
    }

    /// Announces to every replica that this node rolled back to its last
    /// checkpoint and is replaying (its republished frames follow under
    /// fresh sequences).
    pub fn send_rollback(&mut self, payload: &[u8]) {
        tally(&mut self.rollback_sent, &mut self.rollback_fnv, payload);
        self.send_oob(WireMsgKind::Rollback, payload);
    }

    /// Shared delivery path of the out-of-band (non-data) message kinds:
    /// one message per receiver, ahead of the still-open data batch (if
    /// any), so they never perturb the data plane's coalescing accounting.
    /// Replicas treat them as order-free.
    fn send_oob(&mut self, kind: WireMsgKind, payload: &[u8]) {
        self.frame_buf.clear();
        write_msg(&mut self.frame_buf, kind, payload).expect("out-of-band payload fits a message");
        let receivers = self.link.deliver(&self.frame_buf);
        self.wire_bytes_meta += self.frame_buf.len() as u64 * receivers;
    }

    /// Delivers the open batch, if any: one channel send per node, or one
    /// `write_all` per socket.  Called once per barrier (the wire epoch of
    /// every protocol family), when a batch outgrows its limit, and by
    /// [`Transport::finish`] for the tail.  A channel endpoint then applies
    /// whatever its inbox holds.
    pub fn flush(&mut self) {
        if self.batch_frames > 0 {
            finish_batch(&mut self.batch, self.batch_frames);
            let receivers = self.link.deliver(&self.batch);
            self.wire_bytes_meta += (self.batch.len() as u64 - self.batch_payload) * receivers;
            self.wire_bytes_payload += self.batch_payload * receivers;
            self.frames_coalesced += self.batch_frames as u64 - 1;
            self.batch.clear();
            self.batch_frames = 0;
            self.batch_payload = 0;
        }
        if let Link::Channel(ch) = &mut self.link {
            // Apply what has arrived so far; the rest is drained after the
            // run, when every send is join-ordered before the drain.
            ch.drain();
        }
    }
}

/// The backend contract: hand one endpoint to each worker before the run,
/// collect them and verify every replica afterwards.
pub(crate) trait Transport: Send {
    /// Backend label for the report.
    fn label(&self) -> &'static str;

    /// The endpoint worker `node` publishes through, or `None` if this
    /// backend replicates nothing (simulated).
    fn take_endpoint(&mut self, node: NodeId) -> Option<Box<WireEndpoint>>;

    /// Completes the run: flushes every endpoint, drains and verifies every
    /// replica against the engines' final `master` copies and summarizes the
    /// traffic.
    ///
    /// Panics if any replica's contents diverge from the master — that is a
    /// transport bug, never a legal outcome.
    fn finish(&mut self, endpoints: Vec<WireEndpoint>, master: &[Vec<u8>]) -> TransportReport;
}

/// Builds the transport for a run.  The single place [`TransportKind`] is
/// dispatched on.
pub(crate) fn build_transport(cfg: &DsmConfig, init: &[Vec<u8>]) -> Box<dyn Transport> {
    match &cfg.transport {
        TransportKind::Simulated => Box::new(SimulatedTransport),
        TransportKind::Channel => Box::new(ChannelTransport::new(cfg.nprocs, init)),
        TransportKind::SocketLocal(npeers) => {
            Box::new(SocketTransport::new_local(cfg.nprocs, *npeers, init))
        }
        TransportKind::SocketRemote(addrs) => {
            Box::new(SocketTransport::new_remote(cfg.nprocs, addrs, init))
        }
    }
}

fn empty_report(backend: &'static str, master: &[Vec<u8>]) -> TransportReport {
    TransportReport {
        backend,
        master_fnv: fnv64_regions(master.iter().map(|r| r.as_slice())),
        replicas_verified: 0,
        frames_sent: 0,
        wire_bytes: 0,
        wire_bytes_payload: 0,
        wire_bytes_meta: 0,
        frames_coalesced: 0,
        frames_applied: 0,
        ctrl_frames: 0,
        ckpt_frames: 0,
        rollback_frames: 0,
    }
}

/// The out-of-band totals every replica must match, as `(count, fnv)` pairs
/// for control broadcasts, checkpoint images and rollback notices.  Which
/// endpoint sent each one is timing-dependent, but the totals are not.
type OobTotals = [(u64, u64); 3];

/// Flushes every endpoint and folds its counters into a fresh report.
/// Returns the report and the out-of-band totals the replicas are checked
/// against.
fn settle(
    backend: &'static str,
    endpoints: &mut [WireEndpoint],
    master: &[Vec<u8>],
) -> (TransportReport, OobTotals) {
    // Flush every endpoint before draining any replica: a replica's stream
    // is complete only once all of its senders have flushed.
    for ep in endpoints.iter_mut() {
        ep.flush();
    }
    let mut report = empty_report(backend, master);
    let mut oob = [(0, 0); 3];
    for ep in endpoints.iter() {
        report.frames_sent += ep.frames_sent;
        report.wire_bytes_payload += ep.wire_bytes_payload;
        report.wire_bytes_meta += ep.wire_bytes_meta;
        report.wire_bytes += ep.wire_bytes();
        report.frames_coalesced += ep.frames_coalesced;
        report.ctrl_frames += ep.ctrl_sent;
        report.ckpt_frames += ep.ckpt_sent;
        report.rollback_frames += ep.rollback_sent;
        oob[0] = (oob[0].0 + ep.ctrl_sent, oob[0].1 ^ ep.ctrl_fnv);
        oob[1] = (oob[1].0 + ep.ckpt_sent, oob[1].1 ^ ep.ckpt_fnv);
        oob[2] = (oob[2].0 + ep.rollback_sent, oob[2].1 ^ ep.rollback_fnv);
    }
    (report, oob)
}

/// Checks one replica's end-of-run report against the engines' master
/// copies and the senders' out-of-band totals, then counts it into
/// `report`.  Both real backends verify every replica with this.
///
/// Panics on any mismatch — that is a transport bug, never a legal outcome.
fn verify_replica(report: &mut TransportReport, oob: &OobTotals, replica: &WireReport) {
    let backend = report.backend;
    assert_eq!(
        replica.contents_fnv, report.master_fnv,
        "{backend} replica diverged from the engines' master copies"
    );
    assert_eq!(
        (replica.ctrl_frames, replica.ctrl_fnv),
        oob[0],
        "{backend} replica missed an engine control broadcast"
    );
    assert_eq!(
        (replica.ckpt_frames, replica.ckpt_fnv),
        oob[1],
        "{backend} replica missed a checkpoint image"
    );
    assert_eq!(
        (replica.rollback_frames, replica.rollback_fnv),
        oob[2],
        "{backend} replica missed a rollback notice"
    );
    report.frames_applied += replica.frames_applied;
    report.replicas_verified += 1;
}

/// The default backend: no endpoints, no replication, no bytes.  Publishes
/// stay exactly the branch-free accounting they were before the transport
/// layer existed.
#[derive(Debug)]
struct SimulatedTransport;

impl Transport for SimulatedTransport {
    fn label(&self) -> &'static str {
        "sim"
    }

    fn take_endpoint(&mut self, _node: NodeId) -> Option<Box<WireEndpoint>> {
        None
    }

    fn finish(&mut self, _endpoints: Vec<WireEndpoint>, master: &[Vec<u8>]) -> TransportReport {
        empty_report(self.label(), master)
    }
}

/// In-process channel backend: every node owns a full replica and an inbox;
/// a flush hands the epoch's batch message, as one shared `Arc<[u8]>`, to
/// every node's inbox in one send each.
#[derive(Debug)]
struct ChannelTransport {
    endpoints: Vec<Option<Box<WireEndpoint>>>,
}

impl ChannelTransport {
    fn new(nprocs: usize, init: &[Vec<u8>]) -> Self {
        let (inboxes, receivers): (Vec<_>, Vec<_>) = (0..nprocs).map(|_| mpsc::channel()).unzip();
        let endpoints = receivers
            .into_iter()
            .enumerate()
            .map(|(me, inbox)| {
                Some(WireEndpoint::new(Link::Channel(Box::new(ChannelLink {
                    me,
                    inboxes: inboxes.clone(),
                    inbox,
                    replica: Replica::new(init),
                    codecs: (0..nprocs).map(|_| CompactClock::new()).collect(),
                }))))
            })
            .collect();
        ChannelTransport { endpoints }
    }
}

impl Transport for ChannelTransport {
    fn label(&self) -> &'static str {
        "channel"
    }

    fn take_endpoint(&mut self, node: NodeId) -> Option<Box<WireEndpoint>> {
        self.endpoints[node.index()].take()
    }

    fn finish(&mut self, mut endpoints: Vec<WireEndpoint>, master: &[Vec<u8>]) -> TransportReport {
        let (mut report, oob) = settle(self.label(), &mut endpoints, master);
        for ep in endpoints {
            let Link::Channel(mut ch) = ep.link else {
                unreachable!("channel transport only hands out channel endpoints");
            };
            // Every worker thread has been joined, so every send
            // happens-before this drain: the inbox holds the complete
            // remainder of the run's messages.
            ch.drain();
            let replica = ch
                .replica
                .finish()
                .expect("channel replica is missing publish frames");
            verify_replica(&mut report, &oob, &replica);
        }
        report
    }
}

/// Socket backend: replica peers behind loopback TCP, either served by
/// in-process listener threads or by already-running remote processes.
#[derive(Debug)]
struct SocketTransport {
    endpoints: Vec<Option<Box<WireEndpoint>>>,
    /// Control connection to each peer; the end-of-run [`WireReport`] comes
    /// back on it.
    controls: Vec<TcpStream>,
    /// In-process peer threads (`SocketLocal` only), joined at finish.
    servers: Vec<std::thread::JoinHandle<io::Result<()>>>,
}

impl SocketTransport {
    /// Spawns `npeers` in-process replica peers and connects to them.
    fn new_local(nprocs: usize, npeers: usize, init: &[Vec<u8>]) -> Self {
        assert!(npeers >= 1, "socket transport needs at least one peer");
        let mut addrs = Vec::with_capacity(npeers);
        let mut servers = Vec::with_capacity(npeers);
        for _ in 0..npeers {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
            addrs.push(listener.local_addr().expect("listener address").to_string());
            servers.push(std::thread::spawn(move || serve_transport_peer(listener)));
        }
        let mut transport = Self::connect(nprocs, &addrs, init);
        transport.servers = servers;
        transport
    }

    /// Connects to replica peers already running at `addrs`.
    fn new_remote(nprocs: usize, addrs: &[String], init: &[Vec<u8>]) -> Self {
        assert!(
            !addrs.is_empty(),
            "socket transport needs at least one peer"
        );
        Self::connect(nprocs, addrs, init)
    }

    fn connect(nprocs: usize, addrs: &[String], init: &[Vec<u8>]) -> Self {
        // Control connection first: it carries the bootstrap Init (cluster
        // shape, initial region images) the peer needs before it can accept
        // node streams.
        let mut init_body = Vec::new();
        WireInit {
            nprocs: nprocs as u32,
            regions: init.to_vec(),
        }
        .encode_into(&mut init_body);
        let mut controls = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let mut conn = TcpStream::connect(addr).expect("connect to replica peer");
            conn.set_nodelay(true).expect("set TCP_NODELAY");
            conn.write_all(b"C").expect("send control role");
            write_msg(&mut conn, WireMsgKind::Init, &init_body).expect("send init");
            controls.push(conn);
        }
        let endpoints = (0..nprocs)
            .map(|_| {
                let conns = addrs
                    .iter()
                    .map(|addr| {
                        let mut conn = TcpStream::connect(addr).expect("connect to replica peer");
                        conn.set_nodelay(true).expect("set TCP_NODELAY");
                        conn.write_all(b"N").expect("send node role");
                        conn
                    })
                    .collect();
                Some(WireEndpoint::new(Link::Socket { conns }))
            })
            .collect();
        SocketTransport {
            endpoints,
            controls,
            servers: Vec::new(),
        }
    }
}

impl Transport for SocketTransport {
    fn label(&self) -> &'static str {
        "socket"
    }

    fn take_endpoint(&mut self, node: NodeId) -> Option<Box<WireEndpoint>> {
        self.endpoints[node.index()].take()
    }

    fn finish(&mut self, mut endpoints: Vec<WireEndpoint>, master: &[Vec<u8>]) -> TransportReport {
        let (mut report, oob) = settle(self.label(), &mut endpoints, master);
        // Close every node stream cleanly: Fin, drop.
        for ep in endpoints {
            let Link::Socket { mut conns } = ep.link else {
                unreachable!("socket transport only hands out socket endpoints");
            };
            for conn in conns.iter_mut() {
                write_msg(conn, WireMsgKind::Fin, &[]).expect("send fin");
            }
        }
        // Every peer now sees nprocs Fins and reports back.
        let mut body = Vec::new();
        for mut control in self.controls.drain(..) {
            let kind = read_msg(&mut control, &mut body).expect("read peer report");
            assert_eq!(kind, Some(WireMsgKind::Report), "peer sent a non-report");
            let peer = WireReport::decode(&body).expect("malformed peer report");
            verify_replica(&mut report, &oob, &peer);
        }
        for server in self.servers.drain(..) {
            server
                .join()
                .expect("replica peer thread panicked")
                .expect("replica peer failed");
        }
        report
    }
}

/// Serves one replica peer on `listener` until the run completes, then
/// returns.  This is the *entire* peer: the in-process `SocketLocal` threads
/// and the separate `SocketRemote` processes both run exactly this function.
///
/// Protocol: every inbound connection announces its role with one byte —
/// `C` for the single control connection, which immediately carries an
/// `Init` message (number of node streams to expect, initial region
/// images), or `N` for a node stream carrying `Batch`, `Ctrl`, `Ckpt` and
/// `Rollback` messages and a final `Fin`.  One reader thread serves each
/// node stream end to end: it owns the stream's receive-side
/// [`CompactClock`] baseline (the delta clock records of a stream replay
/// against it in order) and a reusable message buffer, reads through a
/// [`io::BufReader`], and hands each message to the shared replica under a
/// mutex — the same intake the channel backend's replicas use, with no
/// cross-thread handoff and no per-message allocation (in-order frames
/// apply straight from the message buffer; an early frame's payload is
/// copied into a buffer from the replica's [`BufferPool`], which recycles
/// it once the frame applies).  Once every node stream has finished, the
/// peer writes its [`WireReport`] (contents fingerprint, frames applied,
/// bytes received) back on the control connection.
///
/// # Errors
///
/// Returns an error if a connection misbehaves (unknown role byte, corrupt
/// message, unexpected disconnect) or a frame arrives for an unknown
/// region's sequence that never completes.
pub fn serve_transport_peer(listener: TcpListener) -> io::Result<()> {
    // Accept the control connection (with its Init) and the node streams, in
    // whatever order they arrive.
    let mut control: Option<TcpStream> = None;
    let mut init: Option<WireInit> = None;
    let mut nodes: Vec<TcpStream> = Vec::new();
    let mut body = Vec::new();
    loop {
        if let Some(i) = &init {
            if nodes.len() as u32 >= i.nprocs {
                break;
            }
        }
        let (mut conn, _) = listener.accept()?;
        conn.set_nodelay(true)?;
        let mut role = [0u8; 1];
        conn.read_exact(&mut role)?;
        match role[0] {
            b'C' => {
                if read_msg(&mut conn, &mut body)? != Some(WireMsgKind::Init) {
                    return Err(bad("expected an init message on the control connection"));
                }
                init = Some(WireInit::decode(&body).ok_or_else(|| bad("malformed init"))?);
                control = Some(conn);
            }
            b'N' => nodes.push(conn),
            _ => return Err(bad("unknown connection role byte")),
        }
    }
    let init = init.expect("loop exits only with init");
    let mut control = control.expect("init arrived on the control connection");

    // One reader thread per node stream, each decoding and applying its own
    // stream directly (the reorder buffer restores per-region publish
    // order, so streams can interleave freely under the replica mutex).
    let replica = std::sync::Mutex::new(Replica::new(&init.regions));
    std::thread::scope(|scope| -> io::Result<()> {
        let handles: Vec<_> = nodes
            .into_iter()
            .map(|conn| {
                let replica = &replica;
                scope.spawn(move || -> io::Result<()> {
                    // Receive side of this stream's delta clock codec, and a
                    // message buffer reused across the whole stream.
                    let mut codec = CompactClock::new();
                    let mut body = Vec::new();
                    let mut conn = io::BufReader::new(conn);
                    loop {
                        match read_msg(&mut conn, &mut body)? {
                            Some(WireMsgKind::Fin) | None => return Ok(()),
                            Some(kind) => sync_lock(replica).intake(&mut codec, kind, &body)?,
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("node stream reader panicked")?;
        }
        Ok(())
    })?;

    let report = replica
        .into_inner()
        .expect("readers joined cleanly")
        .finish()?;
    body.clear();
    report.encode_into(&mut body);
    write_msg(&mut control, WireMsgKind::Report, &body)?;
    Ok(())
}

/// Locks a mutex, propagating a poisoned-lock panic (a reader thread died
/// mid-apply; the replica is unusable anyway).
fn sync_lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("replica mutex poisoned")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One batch message body carrying one single-byte frame per
    /// `(region, seq, offset, byte)`.  Every frame's (empty) clock is in full
    /// mode, so any arrival order decodes against any codec state.
    fn batch(frames: &[(u32, u64, u32, u8)]) -> Vec<u8> {
        let mut msg = Vec::new();
        begin_batch(&mut msg);
        let mut buf = Vec::new();
        for &(region, seq, off, byte) in frames {
            let mut data = vec![0u8; off as usize + 1];
            data[off as usize] = byte;
            buf.clear();
            encode_frame_v2(
                &FrameV2 {
                    region,
                    seq,
                    clock: &[],
                    full: true,
                    runs: &[(off, 1)],
                    data: &data,
                },
                &mut CompactClock::new(),
                &mut buf,
            );
            put_varint(&mut msg, buf.len() as u64);
            msg.extend_from_slice(&buf);
        }
        finish_batch(&mut msg, frames.len() as u32);
        msg.split_off(5) // strip the u32 length prefix and the kind byte
    }

    /// Feeds `frames` to `r`, one batch message each.
    fn feed(r: &mut Replica, frames: &[(u32, u64, u32, u8)]) -> io::Result<()> {
        let mut codec = CompactClock::new();
        for f in frames {
            r.intake(&mut codec, WireMsgKind::Batch, &batch(&[*f]))?;
        }
        Ok(())
    }

    #[test]
    fn replica_reorders_frames_per_region() {
        let init = vec![vec![0u8; 8], vec![0u8; 4]];
        let mut r = Replica::new(&init);
        // Region 0's seq 2 must wait for seq 1; region 1 is independent.
        feed(&mut r, &[(0, 2, 1, 22)]).expect("well-formed");
        assert_eq!(r.tally.frames_applied, 0);
        assert!(r.finish().is_err(), "seq 2 waits on seq 1");
        feed(&mut r, &[(1, 1, 0, 9)]).expect("well-formed");
        assert_eq!(r.tally.frames_applied, 1);
        feed(&mut r, &[(0, 1, 0, 11)]).expect("well-formed");
        assert_eq!(r.tally.frames_applied, 3);
        assert_eq!(r.regions[0][..2], [11, 22]);
        assert_eq!(r.regions[1][0], 9);
        let expect = {
            let mut m = init.clone();
            m[0][0] = 11;
            m[0][1] = 22;
            m[1][0] = 9;
            fnv64_regions(m.iter().map(|x| x.as_slice()))
        };
        assert_eq!(r.finish().expect("drained").contents_fnv, expect);
    }

    #[test]
    fn replica_arrival_order_does_not_matter() {
        // Two regions, interleaved, several frames rewriting the same byte:
        // only per-region sequence order decides the final contents.
        let frames: Vec<(u32, u64, u32, u8)> = (1..=6u64)
            .flat_map(|seq| {
                [
                    (0, seq, (seq % 3) as u32, seq as u8),
                    (1, seq, 2, 40 + seq as u8),
                ]
            })
            .collect();
        let init = vec![vec![0u8; 8], vec![0u8; 4]];

        let mut forward = Replica::new(&init);
        let mut codec = CompactClock::new();
        for f in &frames {
            forward
                .intake(&mut codec, WireMsgKind::Batch, &batch(&[*f]))
                .expect("well-formed");
            // In order, every frame applies from the message bytes: the
            // reorder buffer and its buffer pool are never touched.
            assert!(forward.pending.iter().all(BTreeMap::is_empty));
            assert_eq!(
                (
                    forward.pool.allocated(),
                    forward.pool.recycled(),
                    forward.pool.idle()
                ),
                (0, 0, 0)
            );
        }

        let mut reversed = Replica::new(&init);
        let backwards: Vec<_> = frames.iter().rev().copied().collect();
        feed(&mut reversed, &backwards).expect("well-formed");
        assert!(reversed.pool.allocated() > 0, "reverse order buffers");

        assert_eq!(forward.regions, reversed.regions);
        assert_eq!(forward.regions[0][..3], [6, 4, 5]);
        assert_eq!(forward.regions[1][2], 46);
        let done = forward.finish().expect("drained");
        assert_eq!(done, reversed.finish().expect("drained"));
        assert_eq!(done.frames_applied, frames.len() as u64);
    }

    #[test]
    fn replica_recycles_applied_payload_buffers() {
        let mut r = Replica::new(&[vec![0u8; 8]]);
        // An early frame is copied into the reorder buffer; once it applies
        // its payload buffer goes back to the pool for the next early frame.
        feed(&mut r, &[(0, 2, 1, 2), (0, 1, 0, 1)]).expect("well-formed");
        assert_eq!((r.pool.allocated(), r.pool.idle()), (1, 1));
        feed(&mut r, &[(0, 4, 3, 4)]).expect("well-formed");
        assert_eq!((r.pool.allocated(), r.pool.recycled()), (1, 1));
    }

    #[test]
    fn replica_intake_rejects_malformed_messages() {
        let mut r = Replica::new(&[vec![0u8; 8]]);
        let mut codec = CompactClock::new();
        let mut take = |kind, body: &[u8]| r.intake(&mut codec, kind, body).is_ok();
        assert!(!take(WireMsgKind::Batch, &[1, 0]), "no frame count");
        assert!(!take(WireMsgKind::Batch, &[1, 0, 0, 0]), "missing frame");
        assert!(!take(WireMsgKind::Ckpt, &[9]), "image does not decode");
        assert!(!take(WireMsgKind::Init, &[]), "not a node-stream kind");
        assert!(take(WireMsgKind::Ctrl, &[7]), "control bodies are opaque");
        assert_eq!((r.tally.ctrl_frames, r.tally.ctrl_fnv), (1, fnv64(&[7])));
    }

    #[test]
    fn replica_rejects_out_of_range_runs() {
        // A frame that decodes but cannot apply is an error at intake, on
        // the in-order path and on the buffered path alike, and nothing of
        // it is applied or buffered.
        let mut r = Replica::new(&[vec![0u8; 4]]);
        for (frame, what) in [
            ((0, 1, 100, 5), "in-order run past the region's end"),
            ((0, 3, 4, 5), "buffered run past the region's end"),
            ((1, 1, 0, 5), "in-order frame for an unknown region"),
            ((7, 2, 0, 5), "buffered frame for an unknown region"),
        ] {
            let err = feed(&mut r, &[frame]).expect_err(what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
        }
        assert_eq!(r.tally.frames_applied, 0);
        assert!(r.pending.iter().all(BTreeMap::is_empty));
        assert_eq!(r.regions[0], [0u8; 4]);
    }

    #[test]
    fn replica_intake_never_panics_on_corrupted_batches() {
        // Whatever a corrupted batch decodes to — a bad region, a run past
        // the end, a wild sequence number — intake answers with a result.
        let good = batch(&[(0, 1, 3, 7), (1, 1, 0, 8), (0, 2, 5, 9), (0, 4, 7, 1)]);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..512 {
            let mut body = good.clone();
            for _ in 0..3 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let at = (state % body.len() as u64) as usize;
                body[at] ^= (state >> 32) as u8 | 1;
            }
            let mut r = Replica::new(&[vec![0u8; 8], vec![0u8; 2]]);
            let _ = r.intake(&mut CompactClock::new(), WireMsgKind::Batch, &body);
            let _ = r.finish();
        }
    }

    #[test]
    fn channel_endpoints_replicate_and_verify() {
        let init = vec![vec![0u8; 16]];
        let mut t = ChannelTransport::new(2, &init);
        let mut a = t.take_endpoint(NodeId::new(0)).expect("endpoint");
        let mut b = t.take_endpoint(NodeId::new(1)).expect("endpoint");
        let mut master = init.clone();
        master[0][0..4].copy_from_slice(&[1, 2, 3, 4]);
        a.publish(0, 1, &[1, 0], &[(0, 4)], &master[0]);
        master[0][8] = 9;
        b.publish(0, 2, &[1, 1], &[(8, 1)], &master[0]);
        assert_eq!(a.frames_sent, 1);
        assert_eq!(a.wire_bytes(), 0, "nothing moves before the flush");
        a.flush();
        assert_eq!(a.wire_bytes_payload, 4 * 2, "4 payload bytes × 2 receivers");
        let report = t.finish(vec![*a, *b], &master);
        assert_eq!(report.backend, "channel");
        assert_eq!(report.replicas_verified, 2);
        assert_eq!(report.frames_sent, 2);
        // Both replicas applied both frames.
        assert_eq!(report.frames_applied, 4);
        assert_eq!(
            report.wire_bytes,
            report.wire_bytes_payload + report.wire_bytes_meta
        );
        assert_eq!(
            report.master_fnv,
            fnv64_regions(master.iter().map(|r| r.as_slice()))
        );
    }

    #[test]
    fn channel_flush_coalesces_an_epochs_frames() {
        let init = vec![vec![0u8; 16], vec![0u8; 16]];
        let mut t = ChannelTransport::new(2, &init);
        let mut a = t.take_endpoint(NodeId::new(0)).expect("endpoint");
        let b = t.take_endpoint(NodeId::new(1)).expect("endpoint");
        let mut master = init.clone();
        master[0][0] = 1;
        master[1][0] = 2;
        // Two frames in one epoch ride one batch: one send per peer.
        a.publish(0, 1, &[1, 0], &[(0, 1)], &master[0]);
        a.publish(1, 1, &[1, 0], &[(0, 1)], &master[1]);
        assert_eq!(a.frames_coalesced, 0, "nothing moved before the flush");
        a.flush();
        assert_eq!(a.frames_coalesced, 1);
        let report = t.finish(vec![*a, *b], &master);
        assert_eq!(report.frames_sent, 2);
        assert_eq!(report.frames_coalesced, 1);
        assert_eq!(report.frames_applied, 4);
    }

    #[test]
    #[should_panic(expected = "diverged")]
    fn channel_divergence_is_caught() {
        let init = vec![vec![0u8; 8]];
        let mut t = ChannelTransport::new(1, &init);
        let a = t.take_endpoint(NodeId::new(0)).expect("endpoint");
        // The master claims a write the endpoint never published.
        let mut master = init.clone();
        master[0][0] = 7;
        t.finish(vec![*a], &master);
    }

    #[test]
    fn socket_local_round_trip_over_loopback() {
        let init = vec![vec![0u8; 32], vec![5u8; 8]];
        let mut t = SocketTransport::new_local(2, 2, &init);
        let mut a = t.take_endpoint(NodeId::new(0)).expect("endpoint");
        let mut b = t.take_endpoint(NodeId::new(1)).expect("endpoint");
        let mut master = init.clone();
        master[0][4..8].copy_from_slice(&[9, 9, 9, 9]);
        a.publish(0, 1, &[], &[(4, 4)], &master[0]);
        master[1][0] = 0;
        b.publish(1, 1, &[], &[(0, 1)], &master[1]);
        let report = t.finish(vec![*a, *b], &master);
        assert_eq!(report.backend, "socket");
        assert_eq!(report.replicas_verified, 2);
        assert_eq!(report.frames_sent, 2);
        assert_eq!(report.frames_applied, 4);
        assert!(report.wire_bytes > 0);
        assert_eq!(
            report.wire_bytes_payload,
            5 * 2,
            "5 payload bytes × 2 peers"
        );
        assert_eq!(
            report.wire_bytes,
            report.wire_bytes_payload + report.wire_bytes_meta
        );
    }

    #[test]
    fn socket_batches_with_vector_clocks_round_trip() {
        let init = vec![vec![0u8; 64]];
        let mut t = SocketTransport::new_local(1, 1, &init);
        let mut a = t.take_endpoint(NodeId::new(0)).expect("endpoint");
        let mut master = init.clone();
        // Three epochs of two frames each, with advancing clocks: exercises
        // the delta codec (full first record, deltas after) and coalescing.
        for epoch in 1..=3u64 {
            let clock = [epoch as u32, epoch as u32 * 2];
            master[0][epoch as usize] = epoch as u8;
            a.publish(0, epoch * 2 - 1, &clock, &[(epoch as u32, 1)], &master[0]);
            master[0][32 + epoch as usize] = epoch as u8;
            a.publish(0, epoch * 2, &clock, &[(32 + epoch as u32, 1)], &master[0]);
            a.flush();
        }
        assert_eq!(a.frames_coalesced, 3, "one per two-frame epoch");
        let report = t.finish(vec![*a], &master);
        assert_eq!(report.replicas_verified, 1);
        assert_eq!(report.frames_sent, 6);
        assert_eq!(report.frames_applied, 6);
        assert_eq!(report.frames_coalesced, 3);
    }

    #[test]
    fn channel_ctrl_broadcasts_reach_every_replica() {
        let init = vec![vec![0u8; 16]];
        let mut t = ChannelTransport::new(2, &init);
        let mut a = t.take_endpoint(NodeId::new(0)).expect("endpoint");
        let mut b = t.take_endpoint(NodeId::new(1)).expect("endpoint");
        let mut master = init.clone();
        master[0][0] = 1;
        a.publish(0, 1, &[1, 0], &[(0, 1)], &master[0]);
        // Control broadcasts from both sides, interleaved with data.
        a.send_ctrl(&[1, 2, 3]);
        b.send_ctrl(&[4, 5]);
        assert_eq!(a.ctrl_sent, 1);
        assert_eq!(a.frames_sent, 1, "ctrl frames are not data frames");
        let report = t.finish(vec![*a, *b], &master);
        assert_eq!(report.ctrl_frames, 2);
        assert_eq!(report.replicas_verified, 2);
        assert_eq!(report.frames_applied, 2, "one data frame × two replicas");
    }

    #[test]
    #[should_panic(expected = "control broadcast")]
    fn channel_ctrl_divergence_is_caught() {
        let init = vec![vec![0u8; 8]];
        let mut t = ChannelTransport::new(1, &init);
        let mut a = t.take_endpoint(NodeId::new(0)).expect("endpoint");
        // Claim a broadcast that never went out: the replica's count can't
        // match.
        a.ctrl_sent = 1;
        t.finish(vec![*a], &init);
    }

    #[test]
    fn socket_ctrl_broadcasts_reach_every_peer() {
        let init = vec![vec![0u8; 32]];
        let mut t = SocketTransport::new_local(2, 2, &init);
        let mut a = t.take_endpoint(NodeId::new(0)).expect("endpoint");
        let mut b = t.take_endpoint(NodeId::new(1)).expect("endpoint");
        let mut master = init.clone();
        master[0][0] = 7;
        // A ctrl broadcast while a's data batch is still open: the peer must
        // account both, in any order.
        a.publish(0, 1, &[], &[(0, 1)], &master[0]);
        a.send_ctrl(&[9, 9, 9, 9]);
        b.send_ctrl(&[8]);
        let report = t.finish(vec![*a, *b], &master);
        assert_eq!(report.ctrl_frames, 2);
        assert_eq!(report.replicas_verified, 2);
        assert_eq!(report.frames_applied, 2);
    }

    #[test]
    fn simulated_transport_hands_out_nothing() {
        let mut t = SimulatedTransport;
        assert!(t.take_endpoint(NodeId::new(0)).is_none());
        let master = vec![vec![3u8; 4]];
        let report = t.finish(Vec::new(), &master);
        assert_eq!(report.backend, "sim");
        assert_eq!(report.replicas_verified, 0);
        assert_eq!(
            report.master_fnv,
            fnv64_regions(master.iter().map(|r| r.as_slice()))
        );
    }

    #[test]
    fn transport_kind_labels() {
        assert_eq!(TransportKind::default(), TransportKind::Simulated);
        assert_eq!(TransportKind::Simulated.label(), "sim");
        assert_eq!(TransportKind::Channel.label(), "channel");
        assert_eq!(TransportKind::SocketLocal(2).label(), "socket");
        assert_eq!(TransportKind::SocketRemote(vec![]).label(), "socket");
    }
}
