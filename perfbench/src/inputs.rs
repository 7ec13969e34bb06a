//! The three workloads: their shapes, their seeded inputs, and the ground
//! truth every report is checked against.
//!
//! The server only ever sees the node sketches built here; the planted
//! mode and outliers stay on the generator side.

use crate::trace::Timer;
use cso_core::{
    bomp_with_matrix, bomp_with_op, BompResult, MeasurementOp, MeasurementSpec, SketchBackend,
};
use cso_distributed::{dyadic_fold, Cluster, CsProtocol, TopologySpec};
use cso_exec::ExecConfig;
use cso_linalg::Vector;
use cso_workloads::clicklog::{ClickLogConfig, ClickLogData};

/// Worker count for every multi-threaded stage the benchmark configures:
/// server handler lanes, the recovery executor and sketch builds. Fixed
/// (never `auto`) so runs on larger hosts measure the same configuration;
/// the reference host has 2 CPUs.
pub const WORKERS: usize = 2;

/// Relative tolerance of the recovered mode on the exactly-sparse
/// workloads, where recovery is exact up to rounding.
pub const EXACT_MODE_TOL: f64 = 1e-9;

/// Relative tolerance of the recovered mode on the click log, whose
/// aggregate carries s = 300 outliers against an M = 512 sketch.
pub const CLICKLOG_MODE_TOL: f64 = 0.01;

/// Fewest true top-k keys a click-log report must contain, as a share of
/// k. The paper reports high but not perfect EK at 5% communication.
pub const CLICKLOG_MIN_RECALL: f64 = 0.8;

/// A workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Workload name, as passed to `--workload`.
    pub name: &'static str,
    /// Keys `N`.
    pub n: usize,
    /// Sketch length `M`.
    pub m: usize,
    /// Outlier budget of each recover.
    pub k: usize,
    /// Leaf nodes shipping one sketch each per epoch.
    pub leaves: usize,
    /// Leaves per relay; `None` for a flat deployment.
    pub fan_in: Option<u64>,
    /// Measurement operator.
    pub backend: SketchBackend,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Shape; 3] = [
    Shape {
        name: "paper_clicklog",
        n: 10_400,
        m: 512,
        k: 20,
        leaves: 8,
        fan_in: None,
        backend: SketchBackend { kind: cso_core::OpKind::Dense, param: 0 },
    },
    Shape {
        name: "fanin_durable",
        n: 2048,
        m: 128,
        k: 8,
        leaves: 1024,
        fan_in: None,
        backend: SketchBackend { kind: cso_core::OpKind::Dense, param: 0 },
    },
    Shape {
        name: "scale_tree",
        n: 1 << 20,
        m: 2048,
        k: 8,
        leaves: 256,
        fan_in: Some(64),
        backend: SketchBackend { kind: cso_core::OpKind::Srht, param: 0 },
    },
];

impl Shape {
    /// The workload named `name`.
    pub fn by_name(name: &str) -> Option<Shape> {
        WORKLOADS.iter().copied().find(|s| s.name == name)
    }

    /// The relay topology, for tree workloads.
    pub fn topology(&self) -> Option<TopologySpec> {
        self.fan_in
            .map(|f| TopologySpec::new(self.leaves as u64, f).expect("valid workload topology"))
    }
}

/// What the generator knows and the server never sees.
#[derive(Debug, Clone)]
pub struct Truth {
    /// The planted mode.
    pub mode: f64,
    /// The true top-k keys of the aggregate.
    pub top_k: Vec<usize>,
    /// Whether the input is exactly sparse around the mode, so recovery
    /// must return exactly `top_k` and the mode up to rounding.
    pub exact: bool,
}

/// A recovered report: mode and `(key, value)` outliers.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Recovered mode.
    pub mode: f64,
    /// Recovered outliers, in report order.
    pub outliers: Vec<(u32, f64)>,
}

impl Report {
    /// The report a server sends for `result`: its mode and top `k`.
    pub fn of(result: &BompResult, k: usize) -> Report {
        Report {
            mode: result.mode,
            outliers: result.top_k(k).iter().map(|o| (o.index as u32, o.value)).collect(),
        }
    }

    /// Bit-for-bit equality of mode and every outlier.
    pub fn same_bits(&self, other: &Report) -> bool {
        self.mode.to_bits() == other.mode.to_bits()
            && self.outliers.len() == other.outliers.len()
            && self
                .outliers
                .iter()
                .zip(&other.outliers)
                .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
    }
}

/// One seeded instance of a workload.
pub struct Inputs {
    /// The workload shape.
    pub shape: Shape,
    /// Shared measurement seed (`Φ` is derived from it).
    pub phi_seed: u64,
    /// One sketch per leaf, indexed by leaf id.
    pub sketches: Vec<Vector>,
    /// Ground truth for the correctness checks.
    pub truth: Truth,
    /// Input generation time.
    pub gen_ms: f64,
    /// Sketch build time (all leaves).
    pub sketch_ms: f64,
}

impl Inputs {
    /// Generates the workload's inputs for `seed` and builds every leaf
    /// sketch, timing both stages.
    pub fn generate(shape: Shape, seed: u64) -> Inputs {
        let phi_seed = splitmix(seed ^ 0x5eed_0ff1);
        let timer = Timer::start();
        match shape.name {
            "paper_clicklog" => {
                let data = ClickLogData::generate(&ClickLogConfig::core_search(), seed)
                    .expect("core-search preset is valid");
                assert_eq!((data.n(), data.l()), (shape.n, shape.leaves), "preset shape");
                let cluster = Cluster::new(data.slices.clone()).expect("click-log slices");
                let truth = Truth {
                    mode: data.mode,
                    top_k: data.true_k_outliers(shape.k).iter().map(|kv| kv.index).collect(),
                    exact: false,
                };
                let gen_ms = timer.ms();
                let timer = Timer::start();
                let sketches =
                    protocol(&shape, phi_seed).node_sketches(&cluster).expect("click-log sketches");
                Inputs { shape, phi_seed, sketches, truth, gen_ms, sketch_ms: timer.ms() }
            }
            "fanin_durable" => {
                let (x, truth) = planted(&shape, seed);
                // Leaf l owns keys [l·w, (l+1)·w): disjoint supports, so
                // the leaves sum to the planted vector exactly.
                let w = shape.n / shape.leaves;
                let slices: Vec<Vec<f64>> = (0..shape.leaves)
                    .map(|l| {
                        let mut s = vec![0.0; shape.n];
                        s[l * w..(l + 1) * w].copy_from_slice(&x[l * w..(l + 1) * w]);
                        s
                    })
                    .collect();
                let cluster = Cluster::new(slices).expect("fan-in slices");
                let gen_ms = timer.ms();
                let timer = Timer::start();
                let sketches =
                    protocol(&shape, phi_seed).node_sketches(&cluster).expect("fan-in sketches");
                Inputs { shape, phi_seed, sketches, truth, gen_ms, sketch_ms: timer.ms() }
            }
            "scale_tree" => {
                let (x, truth) = planted(&shape, seed);
                let gen_ms = timer.ms();
                let timer = Timer::start();
                let op = shape.backend.build(shape.m, shape.n, phi_seed).expect("SRHT operator");
                let w = shape.n / shape.leaves;
                let mut sketches: Vec<Option<Vector>> = vec![None; shape.leaves];
                std::thread::scope(|scope| {
                    let chunk = shape.leaves.div_ceil(WORKERS);
                    for (c, out) in sketches.chunks_mut(chunk).enumerate() {
                        let (op, x) = (&op, &x);
                        scope.spawn(move || {
                            for (i, slot) in out.iter_mut().enumerate() {
                                let l = c * chunk + i;
                                let entries: Vec<(usize, f64)> =
                                    (l * w..(l + 1) * w).map(|j| (j, x[j])).collect();
                                *slot = Some(op.measure_sparse(&entries).expect("leaf sketch"));
                            }
                        });
                    }
                });
                let sketches = sketches.into_iter().map(|s| s.expect("every leaf")).collect();
                Inputs { shape, phi_seed, sketches, truth, gen_ms, sketch_ms: timer.ms() }
            }
            other => unreachable!("unknown workload {other}"),
        }
    }

    /// The library's answer for these sketches, computed apart from any
    /// server: BOMP on the canonical dyadic fold of every leaf sketch,
    /// with the configuration the server's recovery policy resolves to.
    pub fn library_report(&self) -> Report {
        let s = &self.shape;
        let members: Vec<(usize, &Vector)> = self.sketches.iter().enumerate().collect();
        let y = dyadic_fold(s.m, &members);
        let cfg = protocol(s, self.phi_seed).effective_recovery(s.k);
        let result = if s.backend == SketchBackend::dense() {
            let phi0 = MeasurementSpec::new(s.m, s.n, self.phi_seed).expect("spec").materialize();
            bomp_with_matrix(&phi0, &y, &cfg)
        } else {
            let op = s.backend.build(s.m, s.n, self.phi_seed).expect("operator");
            bomp_with_op(&op, &y, &cfg)
        }
        .expect("library recovery");
        Report::of(&result, s.k)
    }

    /// Share of the true top-k keys present in `report`.
    pub fn recall(&self, report: &Report) -> f64 {
        let hits =
            self.truth.top_k.iter().filter(|&&i| report.outliers.iter().any(|o| o.0 as usize == i));
        hits.count() as f64 / self.truth.top_k.len() as f64
    }

    /// Checks `report` against the ground truth; `Err` names the first
    /// property that fails.
    pub fn check_truth(&self, report: &Report) -> Result<(), String> {
        let t = &self.truth;
        let tol = if t.exact { EXACT_MODE_TOL } else { CLICKLOG_MODE_TOL };
        let rel = (report.mode - t.mode).abs() / t.mode.abs();
        if rel.is_nan() || rel > tol {
            return Err(format!(
                "mode {} vs planted {} (relative {rel:e} > {tol:e})",
                report.mode, t.mode
            ));
        }
        let recall = self.recall(report);
        let floor = if t.exact { 1.0 } else { CLICKLOG_MIN_RECALL };
        if recall < floor {
            return Err(format!("recall {recall} below {floor}"));
        }
        if t.exact && report.outliers.len() != t.top_k.len() {
            return Err(format!(
                "{} outliers reported, {} planted",
                report.outliers.len(),
                t.top_k.len()
            ));
        }
        Ok(())
    }
}

/// The protocol configuration both the nodes and the library reference
/// use; the server's recovery policy is built to resolve to the same.
pub fn protocol(shape: &Shape, phi_seed: u64) -> CsProtocol {
    CsProtocol::new(shape.m, phi_seed)
        .with_exec(ExecConfig::with_workers(WORKERS))
        .with_backend(shape.backend)
}

/// An exactly sparse aggregate: a seeded mode everywhere plus `k` planted
/// outliers at distinct seeded keys.
fn planted(shape: &Shape, seed: u64) -> (Vec<f64>, Truth) {
    let mut rng = SplitMix(seed);
    let mode = 50.0 + 450.0 * rng.unit();
    let mut x = vec![mode; shape.n];
    let mut keys = Vec::with_capacity(shape.k);
    while keys.len() < shape.k {
        let j = (rng.next() % shape.n as u64) as usize;
        if !keys.contains(&j) {
            keys.push(j);
        }
    }
    for &j in &keys {
        let sign = if rng.next() & 1 == 0 { 1.0 } else { -1.0 };
        x[j] = mode + sign * (200.0 + 1800.0 * rng.unit());
    }
    keys.sort_unstable();
    (x, Truth { mode, top_k: keys, exact: true })
}

/// SplitMix64: a tiny seeded generator for the planted inputs.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix(self.0)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
