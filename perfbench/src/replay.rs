//! In-process replay of one workload's epoch through the public layer
//! APIs, each call timed as a span: frame encode and reassembly, ingest
//! pad claims, WAL appends, store seal and recovery, operator set-up,
//! BOMP, and one correlation scan of each kernel.
//!
//! The stores, journals and messages are the ones the server would use;
//! only the sockets and the event loop are missing, and that difference
//! is what `transport_us.p50` reports.

use crate::inputs::{Inputs, Report, WORKERS};
use crate::trace::{SpanLog, Trace};
use cso_core::{
    bomp_with_matrix, bomp_with_op, BompConfig, MeasurementOp, MeasurementSpec, SketchBackend,
};
use cso_distributed::quantize::{self, SketchEncoding};
use cso_distributed::wire::Message;
use cso_exec::ExecConfig;
use cso_linalg::{ColMatrix, Vector};
use cso_serve::{
    encode_frame, ConnState, Dispatch, Durability, Effect, FrameAssembler, PadIngest,
    RecoveryPolicy, SessionStore, StoreLimits, StoreStats, Wal, WalRecord,
};
use std::hint::black_box;
use std::path::Path;

/// Replay traces are numbered from here, apart from live epochs.
pub const REPLAY_TRACE_BASE: u64 = 1 << 32;

/// The paper_clicklog shape, where the dense scan probe runs on
/// workloads whose own operator has no dense form.
const PAPER_SHAPE: (usize, usize) = (512, 10_400);

/// The scale_tree shape of the FWHT scan probe.
const FWHT_SHAPE: (usize, usize) = (2048, 1 << 20);

/// What a replay measured besides its spans.
#[derive(Debug, Default)]
pub struct ReplayOutcome {
    /// BOMP iterations per round.
    pub iterations: Vec<f64>,
    /// Wire size of one sketch frame, length prefix included.
    pub frame_bytes: u64,
}

/// One store of the replayed topology, with its own journal.
struct Tier {
    store: SessionStore,
    wal: Wal,
    conn: ConnState,
}

impl Tier {
    fn open(dir: &Path) -> Result<Tier, String> {
        let wal = Wal::open(&Durability::at(dir)).map_err(|e| format!("journal {dir:?}: {e:?}"))?;
        Ok(Tier {
            store: SessionStore::with_limits(StoreLimits::default()),
            wal,
            conn: ConnState::new(),
        })
    }

    /// Dispatches a message that must be answered directly, journaling
    /// its effect as the server would.
    fn apply(
        &mut self,
        msg: &Message,
        policy: &RecoveryPolicy,
        stats: &mut StoreStats,
    ) -> Result<Effect, String> {
        match self.store.dispatch(&mut self.conn, msg, policy, stats) {
            Dispatch::Reply(Message::Reject { code, .. }, _) => {
                Err(format!("tag {} rejected: {code}", msg.tag()))
            }
            Dispatch::Reply(_, effect) => Ok(effect),
            Dispatch::Recover(_) => Err("unexpected recovery job".into()),
        }
    }
}

/// The recovery policy every server in the benchmark runs with.
pub fn policy() -> RecoveryPolicy {
    RecoveryPolicy { recovery: BompConfig::default(), exec: ExecConfig::with_workers(WORKERS) }
}

/// Replays `rounds` epochs of `inputs` with the same flat or relay-tree
/// shape the live run uses, journaling under `dir`. Every round's report
/// must carry the bits of `expected`.
pub fn replay(
    inputs: &Inputs,
    expected: &Report,
    dir: &Path,
    rounds: u64,
    log: &mut SpanLog,
) -> Result<ReplayOutcome, String> {
    let s = inputs.shape;
    let seed = inputs.phi_seed;
    let topology = s.topology();
    // Leaf tiers (one per region, or the single flat root), then the root
    // of a tree, which ingests each region's pre-sum as node `region`.
    let leaf_tiers: Vec<(u64, u64)> = match topology {
        None => vec![(0, s.leaves as u64)],
        Some(t) => (0..t.region_count()).map(|g| t.leaf_range(g).expect("region")).collect(),
    };
    let mut tiers: Vec<Tier> = (0..leaf_tiers.len())
        .map(|i| Tier::open(&dir.join(format!("tier{i}"))))
        .collect::<Result<_, _>>()?;
    let mut root = match topology {
        None => None,
        Some(_) => Some(Tier::open(&dir.join("root"))?),
    };
    let policy = policy();
    let cfg = crate::inputs::protocol(&s, seed).effective_recovery(s.k);
    let (op_kind, op_param) = s.backend.wire();
    let gemv_probe: Option<ColMatrix> = (s.backend != SketchBackend::dense()).then(|| {
        MeasurementSpec::new(PAPER_SHAPE.0, PAPER_SHAPE.1, seed).expect("paper shape").materialize()
    });
    let fwht_op = SketchBackend::srht()
        .build(FWHT_SHAPE.0, FWHT_SHAPE.1, seed)
        .map_err(|e| format!("{e:?}"))?;
    let mut out = ReplayOutcome::default();

    for r in 0..rounds {
        let mut stats = StoreStats::new();
        let (session, epoch) = (1, r);
        let mut t = Trace::new(REPLAY_TRACE_BASE + r);
        let now = std::time::Instant::now();
        let round = t.add("replay", None, now, now);
        let open = Message::OpenEpoch {
            session,
            epoch,
            m: s.m as u32,
            n: s.n as u64,
            seed,
            op_kind,
            op_param,
        };
        let seal = Message::SealEpoch { session, epoch };

        // Leaf tiers ingest the leaf sketches; a tree root then ingests
        // the region pre-sums their seals produced.
        let mut presums: Vec<Vector> = Vec::new();
        for (tier, &(lo, hi)) in tiers.iter_mut().zip(&leaf_tiers) {
            let nodes = (lo..hi).map(|l| (l as u32, &inputs.sketches[l as usize]));
            let sealed = ingest_and_seal(
                tier, &open, &seal, nodes, seed, &policy, &mut stats, &mut t, round, &mut out,
            )?;
            presums.push(sealed);
        }
        let (root_tier, y) = match root.as_mut() {
            Some(rt) => {
                let nodes = presums.iter().enumerate().map(|(g, v)| (g as u32, v));
                let y = ingest_and_seal(
                    rt, &open, &seal, nodes, seed, &policy, &mut stats, &mut t, round, &mut out,
                )?;
                (rt, y)
            }
            None => (&mut tiers[0], presums.pop().expect("the flat root's measurement")),
        };

        // Recovery exactly as a server lane runs it.
        let recover = Message::RecoverEpoch { session, epoch, k: s.k as u32 };
        let job = match root_tier.store.dispatch(&mut root_tier.conn, &recover, &policy, &mut stats)
        {
            Dispatch::Recover(job) => job,
            Dispatch::Reply(reply, _) => {
                return Err(format!("recover answered tag {}", reply.tag()))
            }
        };
        let (reply, _) = t.time("session.recover", Some(round), || job.run());
        match reply {
            Message::Report { mode, outliers, .. } => {
                let got = Report { mode, outliers };
                if !got.same_bits(expected) {
                    return Err(format!(
                        "replayed report {got:?} differs from library {expected:?}"
                    ));
                }
            }
            other => return Err(format!("recover answered tag {}", other.tag())),
        }
        root_tier.store.finish_recover(session, epoch, &mut stats);
        let done = WalRecord::of_effect(&Effect::Recovered { session, epoch }, &recover)
            .expect("recover record");
        root_tier.wal.append(&done, &mut stats);

        // The same recovery through the library: operator set-up, BOMP.
        let result = if s.backend == SketchBackend::dense() {
            let spec = MeasurementSpec::new(s.m, s.n, seed).map_err(|e| format!("{e:?}"))?;
            let phi0 = t.time("op.materialize", Some(round), || spec.materialize());
            let result = t.time("bomp", Some(round), || bomp_with_matrix(&phi0, &y, &cfg));
            t.time("gemv.scan", Some(round), || black_box(phi0.gemv_transpose(&y)))
                .map_err(|e| format!("{e:?}"))?;
            result
        } else {
            let op = t.time("op.materialize", Some(round), || s.backend.build(s.m, s.n, seed));
            let op = op.map_err(|e| format!("{e:?}"))?;
            let result = t.time("bomp", Some(round), || bomp_with_op(&op, &y, &cfg));
            let phi = gemv_probe.as_ref().expect("probe matrix");
            let x = Vector::filled(phi.rows(), 1.0);
            t.time("gemv.scan", Some(round), || black_box(phi.gemv_transpose(&x)))
                .map_err(|e| format!("{e:?}"))?;
            result
        };
        let result = result.map_err(|e| format!("{e:?}"))?;
        let library = Report::of(&result, s.k);
        if !library.same_bits(expected) {
            return Err(format!("replayed library recovery {library:?} differs from {expected:?}"));
        }
        out.iterations.push(result.iterations as f64);
        let x = vec![1.0; FWHT_SHAPE.0];
        let mut corr = vec![0.0; FWHT_SHAPE.1];
        t.time("fwht.scan", Some(round), || fwht_op.apply_transpose_into(&x, &mut corr))
            .map_err(|e| format!("{e:?}"))?;
        black_box(&corr);

        t.spans[round as usize].end = std::time::Instant::now();
        log.traces.push(t);
    }
    if tiers.iter().chain(root.iter()).any(|tier| tier.wal.failed()) {
        return Err("replay journal failed".into());
    }
    Ok(out)
}

/// Opens the epoch on `tier`, ingests `nodes` through the frame, pad and
/// journal layers, and seals. Returns the sealed measurement.
#[allow(clippy::too_many_arguments)]
fn ingest_and_seal<'a>(
    tier: &mut Tier,
    open: &Message,
    seal: &Message,
    nodes: impl Iterator<Item = (u32, &'a Vector)>,
    seed: u64,
    policy: &RecoveryPolicy,
    stats: &mut StoreStats,
    t: &mut Trace,
    round: u32,
    out: &mut ReplayOutcome,
) -> Result<Vector, String> {
    let opened = tier.apply(open, policy, stats)?;
    let (session, epoch) = match open {
        Message::OpenEpoch { session, epoch, .. } => (*session, *epoch),
        _ => unreachable!("open is an OpenEpoch"),
    };
    if let Some(rec) = WalRecord::of_effect(&opened, open) {
        tier.wal.append(&rec, stats);
    }
    let pad = tier.store.pad_for(session, epoch).ok_or("no ingest pad for a fresh epoch")?;
    let mut asm = FrameAssembler::new();
    for (node, sketch) in nodes {
        let frame = t.time("frame.encode", Some(round), || {
            encode_frame(&Message::Sketch {
                node,
                seed,
                payload: quantize::encode(sketch, SketchEncoding::F64),
            })
        });
        let assembled = t.time("frame.assemble", Some(round), || {
            asm.push(&frame);
            asm.next_frame()
        });
        let (msg, bytes, _) =
            assembled.map_err(|e| format!("frame: {e}"))?.ok_or("incomplete frame")?;
        out.frame_bytes = bytes as u64;
        let Message::Sketch { payload, .. } = &msg else {
            return Err("frame decoded to another message".into());
        };
        t.time("frame.dequantize", Some(round), || black_box(quantize::decode(payload)));
        let permit = match t.time("pad.ingest", Some(round), || pad.ingest(node, seed, payload)) {
            PadIngest::Accepted(permit) => permit,
            other => return Err(format!("pad refused node {node}: {other:?}")),
        };
        let rec = WalRecord::of_effect(&Effect::Ingested { session, epoch }, &msg)
            .expect("ingest record");
        t.time("wal.append", Some(round), || tier.wal.append(&rec, stats));
        drop(permit);
    }
    drop(pad);
    let sealed = t.time("session.seal", Some(round), || tier.apply(seal, policy, stats))?;
    let rec = WalRecord::of_effect(&sealed, seal).ok_or("seal had no effect")?;
    t.time("wal.seal_sync", Some(round), || tier.wal.append(&rec, stats));
    match sealed {
        Effect::Sealed { y, .. } => Ok(y),
        other => Err(format!("seal applied {other:?}")),
    }
}
