//! The exact (simulated-clock and counter) quantities of a run.  They do not
//! depend on the host, so the benchmark demands that they repeat bit for
//! bit wherever the workload is deterministic.

use dsm_core::RunResult;

/// Exact quantities of one run, or a sum over several runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Exact {
    /// Simulated execution time (slowest node), ns.
    pub sim_ns: u64,
    /// Slowest node's simulated time, summed over runs, ns.
    pub max_node_ns: u64,
    /// Mean node simulated time, summed over runs, ns.
    pub mean_node_ns: u64,
    pub messages: u64,
    pub bytes: u64,
    pub lock_acquires: u64,
    pub lock_transfers: u64,
    pub misses: u64,
    pub write_faults: u64,
    pub diffs: u64,
    pub wire_frames: u64,
    pub wire_payload_bytes: u64,
    pub wire_meta_bytes: u64,
    pub wire_coalesced: u64,
    pub migrations: u64,
}

impl Exact {
    /// The exact quantities `result` reports.
    pub fn of(result: &RunResult) -> Self {
        let nodes: Vec<u64> = result.node_times.iter().map(|t| t.as_nanos()).collect();
        let t = &result.traffic;
        let w = &result.wire;
        Exact {
            sim_ns: result.time.as_nanos(),
            max_node_ns: nodes.iter().copied().max().unwrap_or(0),
            mean_node_ns: nodes.iter().sum::<u64>() / nodes.len().max(1) as u64,
            messages: t.messages,
            bytes: t.bytes,
            lock_acquires: t.lock_acquires,
            lock_transfers: t.lock_transfers,
            misses: t.access_misses,
            write_faults: t.write_faults,
            diffs: t.diffs_created,
            wire_frames: w.frames_sent,
            wire_payload_bytes: w.wire_bytes_payload,
            wire_meta_bytes: w.wire_bytes_meta,
            wire_coalesced: w.frames_coalesced,
            migrations: result.migrations.len() as u64,
        }
    }

    /// Adds `other`'s quantities to these.
    pub fn add(&mut self, other: &Exact) {
        self.sim_ns += other.sim_ns;
        self.max_node_ns += other.max_node_ns;
        self.mean_node_ns += other.mean_node_ns;
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.lock_acquires += other.lock_acquires;
        self.lock_transfers += other.lock_transfers;
        self.misses += other.misses;
        self.write_faults += other.write_faults;
        self.diffs += other.diffs;
        self.wire_frames += other.wire_frames;
        self.wire_payload_bytes += other.wire_payload_bytes;
        self.wire_meta_bytes += other.wire_meta_bytes;
        self.wire_coalesced += other.wire_coalesced;
        self.migrations += other.migrations;
    }

    /// A fingerprint of every field, printed so that runs in separate
    /// processes can be compared at a glance.
    pub fn fingerprint(&self) -> u64 {
        [
            self.sim_ns,
            self.max_node_ns,
            self.mean_node_ns,
            self.messages,
            self.bytes,
            self.lock_acquires,
            self.lock_transfers,
            self.misses,
            self.write_faults,
            self.diffs,
            self.wire_frames,
            self.wire_payload_bytes,
            self.wire_meta_bytes,
            self.wire_coalesced,
            self.migrations,
        ]
        .iter()
        .fold(crate::stats::FNV_OFFSET, |h, &w| {
            crate::stats::fnv_word(h, w)
        })
    }
}
