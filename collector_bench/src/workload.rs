//! The benchmark's workloads. Why each one exists is written up in the
//! benchmark's README.

use ldp_bench::DataSource;
use ldp_core::MechanismKind;

/// Privacy budget of every workload.
pub const EPS: f64 = 1.1;
/// Worker shards of the in-process server (the machine has 2 cores).
pub const SHARDS: usize = 2;

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: MechanismKind,
    pub d: u32,
    pub k: u32,
    pub source: DataSource,
    /// Population size `n = 2^log2_n`.
    pub log2_n: u32,
    /// Reports per `REPORT_BATCH` frame.
    pub frame_reports: usize,
    /// Open-loop frame pushes per second during the steady phase.
    pub send_hz: f64,
    /// Live queries per second during the steady phase.
    pub query_hz: f64,
    /// Cycles of (re-encode, burst, release) before the steady phase;
    /// each burst pushes the whole population once.
    pub cycles: usize,
    /// Closed-loop bursts per cycle, each on its own connection; they
    /// split the population between them.
    pub bursts_per_cycle: usize,
    /// Releases (snapshot → every k-way marginal) per cycle, and at the
    /// end of the run.
    pub releases_per_cycle: usize,
}

impl Workload {
    pub fn n(&self) -> usize {
        1 << self.log2_n
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "inpht-d8",
        kind: MechanismKind::InpHt,
        d: 8,
        k: 2,
        source: DataSource::Taxi,
        log2_n: 20,
        frame_reports: 256,
        send_hz: 200.0,
        query_hz: 20.0,
        cycles: 24,
        bursts_per_cycle: 2,
        releases_per_cycle: 10,
    },
    Workload {
        name: "inprr-d8",
        kind: MechanismKind::InpRr,
        d: 8,
        k: 2,
        source: DataSource::Taxi,
        log2_n: 18,
        frame_reports: 4096,
        send_hz: 100.0,
        query_hz: 20.0,
        cycles: 24,
        bursts_per_cycle: 4,
        releases_per_cycle: 10,
    },
    Workload {
        name: "inpem-d8",
        kind: MechanismKind::InpEm,
        d: 8,
        k: 2,
        source: DataSource::Taxi,
        log2_n: 18,
        frame_reports: 4096,
        send_hz: 100.0,
        query_hz: 20.0,
        cycles: 24,
        bursts_per_cycle: 1,
        releases_per_cycle: 10,
    },
    Workload {
        name: "inpem-d16",
        kind: MechanismKind::InpEm,
        d: 16,
        k: 3,
        source: DataSource::MovieLens,
        log2_n: 20,
        frame_reports: 4096,
        send_hz: 100.0,
        query_hz: 10.0,
        cycles: 4,
        bursts_per_cycle: 4,
        releases_per_cycle: 2,
    },
];

pub fn find(name: &str) -> Result<Workload, String> {
    WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .copied()
        .ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!(
                "unknown workload {name:?}; expected one of {}",
                names.join(", ")
            )
        })
}
