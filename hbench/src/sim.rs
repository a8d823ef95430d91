//! The `sim-paper-mix` workload: the cycle-level simulator at ci scale,
//! measured through the `RunResult` that `hybrids_bench::run_*` returns.
//! Simulated figures are exact; host wall time is what varies.

use std::time::Instant;

use hybrids::RunResult;
use hybrids_bench::{
    hashmap_workload, run_btree, run_hashmap, run_skiplist, sensitivity, ycsb_c, Scale, Variant,
};
use workloads::{InsertDist, KeyDist, Mix};

/// The three structures of the paper mix.
pub const STRUCTURES: [&str; 3] = ["skiplist", "btree", "hashmap"];

/// One structure run.
#[derive(Debug, Clone)]
pub struct SimRun {
    pub structure: &'static str,
    pub result: RunResult,
    /// Simulated operations including the warm-up.
    pub ops: u64,
    /// Machine build plus `populate`: the call's time outside `sim.run()`.
    pub setup_s: f64,
    pub wall_s: f64,
}

impl SimRun {
    /// Every simulated figure, bit for bit; host times excluded.
    pub fn fingerprint(&self) -> String {
        let r = &self.result;
        format!(
            "{} {} {} {:x} {:x} {:x} {:x} {:x} {:x} {} {} {} {:x} {} {:?}",
            r.measured_ops,
            r.succeeded_ops,
            r.cycles,
            r.mops.to_bits(),
            r.dram_reads_per_op.to_bits(),
            r.mmio_per_op.to_bits(),
            r.energy_nj_per_op.to_bits(),
            r.lat_p50_cycles.to_bits(),
            r.lat_p99_cycles.to_bits(),
            r.offload_posted,
            r.offload_retries,
            r.offload_lock_path,
            r.offload_mean_batch.to_bits(),
            r.offload_coalesced,
            r.stats,
        )
    }
}

/// Run one structure of the mix with workload seed `seed`: hybrid
/// skiplist on YCSB-C (Fig. 5), hybrid B+ tree on 50/25/25 with the OLTP
/// footprint and in-order hosts (Fig. 8), hybrid hash map on the zipfian
/// point mix. Blocking, 8 host threads, default shards and policy.
pub fn run_structure(structure: &'static str, seed: u64) -> SimRun {
    let scale = Scale::ci();
    let t0 = Instant::now();
    let (result, scale) = match structure {
        "skiplist" => {
            let mut wl = ycsb_c(&scale, scale.cfg.host_cores as u32);
            wl.seed ^= seed;
            (run_skiplist(&scale, Variant::HybridBlocking, wl), scale)
        }
        "btree" => {
            let scale = scale.in_order();
            let mut wl =
                sensitivity(&scale, Mix::read_insert_remove(50, 25, 25), InsertDist::PartitionTail);
            wl.seed ^= seed;
            (run_btree(&scale, Variant::HybridBtBlocking, wl), scale)
        }
        "hashmap" => {
            let mut wl = hashmap_workload(&scale, KeyDist::Zipfian);
            wl.seed ^= seed;
            (run_hashmap(&scale, Variant::HashMapBlocking, wl), scale)
        }
        other => panic!("unknown structure {other}"),
    };
    let total_s = t0.elapsed().as_secs_f64();
    let wall_s = result.wall_ms / 1e3;
    let ops = result.measured_ops + scale.warmup_per_thread as u64 * result.threads as u64;
    SimRun { structure, result, ops, setup_s: total_s - wall_s, wall_s }
}
