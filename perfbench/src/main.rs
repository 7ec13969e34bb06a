//! End-to-end epoch benchmark of the sketch-aggregation server.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Builds the workload's inputs from `--seed`, spawns a live `cso-serve`
//! root (and, for `scale_tree`, a relay tier) in this process, and drives
//! closed-loop epochs for `--seconds`. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. With `--out`, a result file (and, when traced, the span
//! log) is also written there. Exits 1 when a correctness check fails.
//! See `perfbench/README.md` for the workloads and every metric.

mod deploy;
mod inputs;
mod replay;
mod sys;
mod trace;

use deploy::{run_epoch, Deployment, EpochOutcome, STAGES};
use inputs::{Inputs, Report, Shape};
use perfbench::json::{obj, Json};
use perfbench::stats::{median, summarize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::{SpanLog, Timer};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Fewest timed epochs in a run, so every run reports a tail.
const MIN_EPOCHS: usize = perfbench::stats::TAIL_MIN_SAMPLES;

/// In-process replay rounds of a traced run.
const REPLAY_ROUNDS: u64 = 5;

/// Epochs a traced run of a flat workload sends through a one-relay
/// probe deployment to time the relay hop at the workload's shape.
const RELAY_PROBE_EPOCHS: u64 = 5;

/// Where runs keep their journals, relative to the working directory.
const WORK_ROOT: &str = ".perfbench-work";

struct Args {
    shape: Shape,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut kv: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        if kv.insert(key.to_string(), value).is_some() {
            return Err(format!("--{key} given twice"));
        }
    }
    let mut take = |k: &str| kv.remove(k).ok_or_else(|| format!("missing --{k}"));
    let name = take("workload")?;
    let shape = Shape::by_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let traced = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let out = kv.remove("out").map(PathBuf::from);
    if let Some(extra) = kv.keys().next() {
        return Err(format!("unknown option --{extra}"));
    }
    Ok(Args { shape, seed, seconds, traced, out })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <paper_clicklog|fanin_durable|scale_tree> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]");
            return ExitCode::from(2);
        }
    };
    let work = Path::new(WORK_ROOT).join(format!("{}-{}", args.shape.name, std::process::id()));
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_ROOT);
    match result {
        Ok(run) => {
            let line = run.result_line();
            if let Some(dir) = &args.out {
                if let Err(e) = run.write_files(dir, &args) {
                    eprintln!("perfbench: writing results to {dir:?}: {e}");
                    return ExitCode::from(2);
                }
            }
            println!("{}", line.to_string_compact());
            if run.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Operation counts: attempted and failed.
#[derive(Debug, Default, Clone, Copy)]
struct Ops {
    attempted: u64,
    failed: u64,
}

/// Everything one live phase measured.
#[derive(Default)]
struct Phase {
    epochs: Ops,
    sketches: Ops,
    recovers: Ops,
    epoch_ms: Vec<f64>,
    ack_us: Vec<f64>,
    open_us: Vec<f64>,
    forward_ms: Vec<f64>,
    client_bytes: u64,
    reconnects: u64,
    recall: Vec<f64>,
    /// Epoch wall time not covered by a top-level stage, summed (ms).
    unattributed_ms: f64,
    /// Per-epoch wall time (ms) of each top-level stage.
    stage_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Wall times (ms) of a traced run's completed epochs whose spans
    /// were kept, and of those whose spans were discarded.
    kept_epoch_ms: Vec<f64>,
    discarded_epoch_ms: Vec<f64>,
    last_report: Option<(u64, Report)>,
    cpu_s: f64,
    peak_bytes: usize,
    /// Server counter deltas over the phase.
    counters: BTreeMap<&'static str, u64>,
    fsyncs: u64,
}

impl Phase {
    fn completed(&self) -> usize {
        self.epoch_ms.len()
    }

    fn absorb(
        &mut self,
        o: EpochOutcome,
        inputs: &Inputs,
        expected: &Report,
        problems: &mut Vec<String>,
    ) {
        self.epochs.attempted += 1;
        self.sketches.attempted += o.sketches.0;
        self.sketches.failed += o.sketches.1;
        self.recovers.attempted += o.recovers.0;
        self.recovers.failed += o.recovers.1;
        self.client_bytes += o.client_bytes;
        self.reconnects += o.reconnects;
        self.open_us.extend(o.trace.us_of("client.open"));
        if let Some(f) = &o.failure {
            self.epochs.failed += 1;
            eprintln!("perfbench: epoch {} failed: {f}", o.trace.id);
            return;
        }
        let report = o.report.expect("a completed epoch has a report");
        if !report.same_bits(expected) {
            problems.push(format!(
                "epoch {}: report {report:?} differs from library {expected:?}",
                o.trace.id
            ));
        }
        self.recall.push(inputs.recall(&report));
        let wall = o.trace.spans[0].ms();
        let mut staged = 0.0;
        for stage in STAGES {
            let ms = o.trace.total_us(stage) / 1e3;
            staged += ms;
            self.stage_ms.entry(stage).or_default().push(ms);
        }
        self.unattributed_ms += wall - staged;
        self.epoch_ms.push(wall);
        self.ack_us.extend(o.trace.us_of("ingest.ack"));
        self.forward_ms.extend(o.forward_ms);
        self.last_report = Some((o.trace.id, report));
    }
}

/// Server counters whose per-phase deltas the metrics use.
const COUNTERS: [&str; 6] = [
    "serve.wal_bytes",
    "serve.conns_rejected_busy",
    "serve.sketches_duplicate",
    "relay.upstream_bytes_sent",
    "relay.upstream_bytes_received",
    "relay.upstream_reconnects",
];

/// Runs closed-loop epochs from `*next_epoch` until `seconds` passed and
/// at least [`MIN_EPOCHS`] completed. With a span log, about half of the
/// epochs keep their spans in it, picked by a hash of the epoch number so
/// the kept and discarded epochs interleave without lining up with
/// periodic work such as the WAL snapshot every ~4 `fanin_durable`
/// epochs; the difference between the two is the cost of keeping spans.
fn live_phase(
    dep: &Deployment,
    inputs: &Inputs,
    expected: &Report,
    next_epoch: &mut u64,
    seconds: f64,
    mut log: Option<&mut SpanLog>,
    problems: &mut Vec<String>,
) -> Phase {
    let mut phase = Phase::default();
    let before: Vec<u64> = COUNTERS.iter().map(|c| dep.counter(c)).collect();
    let fsyncs_before = dep.histogram_count("serve.wal_fsync_ns");
    let cpu0 = sys::cpu_seconds();
    sys::reset_peak();
    let timer = Timer::start();
    // A run with failures stops at `seconds` even short of MIN_EPOCHS.
    while timer.secs() < seconds || (phase.completed() < MIN_EPOCHS && phase.epochs.failed == 0) {
        let o = run_epoch(dep, inputs, *next_epoch);
        *next_epoch += 1;
        if let (Some(log), None) = (log.as_deref_mut(), &o.failure) {
            if o.trace.id.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 63 == 1 {
                phase.kept_epoch_ms.push(o.trace.spans[0].ms());
                log.traces.push(o.trace.clone());
            } else {
                phase.discarded_epoch_ms.push(o.trace.spans[0].ms());
            }
        }
        phase.absorb(o, inputs, expected, problems);
    }
    phase.cpu_s = sys::cpu_seconds() - cpu0;
    phase.peak_bytes = sys::peak_bytes();
    // Every relay forwards each epoch once: epochs 0..next_epoch so far.
    if !dep.relays.is_empty() && !dep.settle_forwards(*next_epoch) {
        problems.push("relay forward ledger did not settle".into());
    }
    for (i, c) in COUNTERS.iter().enumerate() {
        phase.counters.insert(c, dep.counter(c) - before[i]);
    }
    phase.fsyncs = dep.histogram_count("serve.wal_fsync_ns") - fsyncs_before;
    phase
}

/// The outcome of one benchmark run.
struct Run {
    problems: Vec<String>,
    ops: [Ops; 3],
    metrics: Vec<(&'static str, f64, &'static str)>,
    detail: Vec<(&'static str, Json)>,
    spans: Option<SpanLog>,
}

impl Run {
    fn result_line(&self) -> Json {
        let attempted: u64 = self.ops.iter().map(|o| o.attempted).sum();
        let failed: u64 = self.ops.iter().map(|o| o.failed).sum();
        obj([
            ("correct", Json::Bool(self.problems.is_empty())),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            (
                "metrics",
                obj(self.metrics.iter().map(|&(name, value, unit)| {
                    (name, obj([("value", Json::Num(value)), ("unit", Json::Str(unit.into()))]))
                })),
            ),
        ])
    }

    fn write_files(&self, dir: &Path, args: &Args) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let stem = format!("{}-seed{}-trace{}", args.shape.name, args.seed, u8::from(args.traced));
        let ops = |o: Ops| {
            obj([
                ("attempted", Json::Num(o.attempted as f64)),
                ("failed", Json::Num(o.failed as f64)),
            ])
        };
        let mut detail = vec![
            ("epochs", ops(self.ops[0])),
            ("sketches", ops(self.ops[1])),
            ("recovers", ops(self.ops[2])),
            ("problems", Json::Arr(self.problems.iter().map(|p| Json::Str(p.clone())).collect())),
            (
                "host_cpus",
                Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
            ),
        ];
        detail.extend(self.detail.iter().cloned());
        let file = obj([
            ("workload", Json::Str(args.shape.name.into())),
            ("seed", Json::Num(args.seed as f64)),
            ("trace", Json::Bool(args.traced)),
            ("seconds", Json::Num(args.seconds)),
            ("result", self.result_line()),
            ("detail", obj(detail)),
        ]);
        std::fs::write(dir.join(format!("{stem}.json")), file.to_string_compact() + "\n")?;
        if let Some(log) = &self.spans {
            std::fs::write(dir.join(format!("{stem}-spans.jsonl")), log.to_jsonl())?;
        }
        Ok(())
    }
}

fn run(args: &Args, work: &Path) -> Result<Run, String> {
    let shape = args.shape;
    let mut problems = Vec::new();
    let mut log = SpanLog::new();

    // Set-up, repeated: inputs, sketches, servers and journals, and one
    // warm-up epoch. Only the last deployment is kept.
    let reps = if args.traced { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut expected: Option<Report> = None;
    let mut kept: Option<(Inputs, Deployment)> = None;
    for rep in 0..reps {
        if let Some((_, dep)) = kept.take() {
            dep.shutdown();
        }
        let timer = Timer::start();
        let inputs = Inputs::generate(shape, args.seed);
        let dep = Deployment::spawn(&work.join(format!("rep{rep}")), shape.topology())
            .map_err(|e| format!("spawning servers: {e}"))?;
        let warm = run_epoch(&dep, &inputs, 0);
        setup_s.push(timer.secs());
        if let Some(f) = &warm.failure {
            return Err(format!("warm-up epoch failed: {f}"));
        }
        // The library reference is computed apart from the server, once,
        // outside the timed set-up.
        let expected = expected.get_or_insert_with(|| {
            let r = inputs.library_report();
            if let Err(e) = inputs.check_truth(&r) {
                problems.push(format!("library report against ground truth: {e}"));
            }
            r
        });
        let warm_report = warm.report.expect("completed warm-up");
        if !warm_report.same_bits(expected) {
            problems
                .push(format!("warm-up report {warm_report:?} differs from library {expected:?}"));
        }
        kept = Some((inputs, dep));
    }
    let (inputs, dep) = kept.expect("at least one set-up");
    let expected = expected.expect("computed with the first set-up");
    let mut next_epoch = 1;

    let mut run = Run {
        problems: Vec::new(),
        ops: [Ops::default(); 3],
        metrics: Vec::new(),
        detail: Vec::new(),
        spans: None,
    };
    let log_ref = args.traced.then_some(&mut log);
    let main =
        live_phase(&dep, &inputs, &expected, &mut next_epoch, args.seconds, log_ref, &mut problems);
    run.ops = [main.epochs, main.sketches, main.recovers];

    // The root's journal must replay to the last report, bit for bit.
    let root_dir = dep.root_dir.clone();
    dep.shutdown();
    match &main.last_report {
        Some((epoch, report)) => {
            if let Err(e) = journal_replay_check(&root_dir, *epoch, &shape, report) {
                problems.push(e);
            }
        }
        None => problems.push("no epoch completed".into()),
    }

    timing_detail(&mut run, &main);
    if args.traced {
        layer_metrics(&mut run, &main, &inputs, &expected, work, &mut log, &mut problems)?;
        run.spans = Some(log);
    } else {
        end_to_end_metrics(&mut run, &main, &setup_s);
        run.detail
            .push(("setup_reps_s", Json::Arr(setup_s.iter().map(|&s| Json::Num(s)).collect())));
    }
    run.problems = problems;
    for p in &run.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    Ok(run)
}

/// Bytes on every socket of the phase: the clients' sockets (status polls
/// excluded) plus the relays' upstream links.
fn dep_wire_bytes(p: &Phase) -> u64 {
    p.client_bytes
        + p.counters["relay.upstream_bytes_sent"]
        + p.counters["relay.upstream_bytes_received"]
}

fn end_to_end_metrics(run: &mut Run, p: &Phase, setup_s: &[f64]) {
    let epochs = p.completed().max(1) as f64;
    run.metrics = vec![
        ("setup_s", median(setup_s), "s"),
        ("epoch_ms.p50", med(&p.epoch_ms), "ms"),
        ("ingest_ack_us.p50", med(&p.ack_us), "us"),
        ("wire_bytes_per_epoch", dep_wire_bytes(p) as f64 / epochs, "bytes"),
        ("cpu_ms_per_epoch", p.cpu_s * 1e3 / epochs, "ms"),
        ("peak_heap_mb", p.peak_bytes as f64 / 1e6, "MB"),
        ("recall_at_k", p.recall.iter().sum::<f64>() / p.recall.len().max(1) as f64, "ratio"),
    ];
}

/// The tails (highest whole percentile with ten samples beyond, see
/// `perfbench::stats`) and the per-stage ledger, kept in the result file.
fn timing_detail(run: &mut Run, p: &Phase) {
    let epoch = summarize(&p.epoch_ms);
    let ack = summarize(&p.ack_us);
    let tail = |s: &perfbench::stats::Summary| {
        s.tail.map_or(Json::Null, |(pct, v)| {
            obj([("percentile", Json::Num(f64::from(pct))), ("value", Json::Num(v))])
        })
    };
    run.detail.push(("epochs_timed", Json::Num(p.completed() as f64)));
    run.detail.push(("ingest_acks", Json::Num(p.ack_us.len() as f64)));
    run.detail.push(("epoch_ms_tail", tail(&epoch)));
    run.detail.push(("ingest_ack_us_tail", tail(&ack)));
    run.detail.push(("stage_ms_p50", obj(p.stage_ms.iter().map(|(k, v)| (*k, Json::Num(med(v)))))));
    run.detail.push(("epoch_ms", Json::Arr(p.epoch_ms.iter().map(|&v| Json::Num(v)).collect())));
}

/// Recovers `(session, epoch)` from a fresh store rebuilt out of the
/// root's journal and compares it with the report the live root gave.
fn journal_replay_check(
    dir: &Path,
    epoch: u64,
    shape: &Shape,
    live: &Report,
) -> Result<(), String> {
    use cso_distributed::wire::Message;
    use cso_serve::{ConnState, Dispatch, SessionStore, StoreLimits, StoreStats};
    let (mut store, _) = SessionStore::recover_from(dir, StoreLimits::default())
        .map_err(|e| format!("journal replay: {e:?}"))?;
    let session = 1 + epoch / deploy::EPOCHS_PER_SESSION;
    let msg = Message::RecoverEpoch { session, epoch, k: shape.k as u32 };
    let job = match store.dispatch(
        &mut ConnState::new(),
        &msg,
        &replay::policy(),
        &mut StoreStats::new(),
    ) {
        Dispatch::Recover(job) => job,
        Dispatch::Reply(reply, _) => {
            return Err(format!("journal replay: epoch {epoch} answered tag {}", reply.tag()))
        }
    };
    match job.run().0 {
        Message::Report { mode, outliers, .. } => {
            let replayed = Report { mode, outliers };
            if replayed.same_bits(live) {
                Ok(())
            } else {
                Err(format!(
                    "journal replay of epoch {epoch}: {replayed:?} differs from live {live:?}"
                ))
            }
        }
        other => Err(format!("journal replay: recover answered tag {}", other.tag())),
    }
}

fn med(v: &[f64]) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        median(v)
    }
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    run: &mut Run,
    traced: &Phase,
    inputs: &Inputs,
    expected: &Report,
    work: &Path,
    log: &mut SpanLog,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let epochs = traced.completed().max(1) as f64;
    let replayed = replay::replay(inputs, expected, &work.join("replay"), REPLAY_ROUNDS, log)?;

    // The relay hop: live in the tree workload; for flat workloads, a
    // one-relay probe deployment carrying every leaf of the workload.
    let (forward_ms, upstream_bytes_per_epoch) = if inputs.shape.fan_in.is_some() {
        let bytes = traced.counters["relay.upstream_bytes_sent"]
            + traced.counters["relay.upstream_bytes_received"];
        (med(&traced.forward_ms), bytes as f64 / epochs)
    } else {
        relay_probe(inputs, expected, &work.join("probe"), problems)?
    };

    let us = |name: &str| log.us_of(name);
    let assemble = us("frame.assemble");
    let decode: Vec<f64> =
        assemble.iter().zip(us("frame.dequantize")).map(|(a, b)| a + b).collect();
    let pad = med(&us("pad.ingest"));
    let wal_append = med(&us("wal.append"));
    let per_round_ms = |name: &str| med(&log.per_trace_us(name)) / 1e3;
    let bomp_ms = per_round_ms("bomp");
    let iterations = med(&replayed.iterations);
    let wall_ms: f64 = traced.epoch_ms.iter().sum();
    let p50_plain = med(&traced.discarded_epoch_ms);
    let p50_traced = med(&traced.kept_epoch_ms);
    let epoch = summarize(&traced.epoch_ms);
    let ack = summarize(&traced.ack_us);
    let c = &traced.counters;
    run.metrics = vec![
        ("gen.input_ms", inputs.gen_ms, "ms"),
        ("node.sketch_ms", inputs.sketch_ms / inputs.shape.leaves as f64, "ms"),
        ("frame.encode_us", med(&us("frame.encode")), "us"),
        ("frame.decode_us", med(&decode), "us"),
        ("frame.bytes", replayed.frame_bytes as f64, "bytes"),
        ("pad.ingest_us", pad, "us"),
        ("wal.append_us", wal_append, "us"),
        ("wal.seal_sync_ms", per_round_ms("wal.seal_sync"), "ms"),
        ("wal.bytes_per_epoch", c["serve.wal_bytes"] as f64 / epochs, "bytes"),
        ("wal.fsyncs_per_epoch", traced.fsyncs as f64 / epochs, "count"),
        ("transport_us.p50", med(&traced.ack_us) - med(&assemble) - pad - wal_append, "us"),
        ("session.seal_ms", per_round_ms("session.seal"), "ms"),
        ("session.recover_ms", per_round_ms("session.recover"), "ms"),
        ("op.materialize_ms", per_round_ms("op.materialize"), "ms"),
        ("bomp.ms", bomp_ms, "ms"),
        ("bomp.iterations", iterations, "count"),
        ("bomp.ms_per_iteration", bomp_ms / iterations, "ms"),
        ("gemv.scan_ms", per_round_ms("gemv.scan"), "ms"),
        ("fwht.scan_ms", per_round_ms("fwht.scan"), "ms"),
        ("client.open_us", med(&traced.open_us), "us"),
        ("epoch_ms.tail", epoch.tail.map_or(f64::NAN, |t| t.1), "ms"),
        ("ingest_ack_us.tail", ack.tail.map_or(f64::NAN, |t| t.1), "us"),
        ("relay.forward_ms", forward_ms, "ms"),
        ("relay.upstream_bytes_per_epoch", upstream_bytes_per_epoch, "bytes"),
        ("retries", (traced.reconnects + c["relay.upstream_reconnects"]) as f64, "count"),
        ("busy_rejects", c["serve.conns_rejected_busy"] as f64, "count"),
        ("duplicates", c["serve.sketches_duplicate"] as f64, "count"),
        ("unattributed_pct", 100.0 * traced.unattributed_ms / wall_ms, "%"),
        ("trace.overhead_pct", 100.0 * (p50_traced - p50_plain) / p50_plain, "%"),
    ];
    run.detail.push(("epochs_spans_kept", Json::Num(traced.kept_epoch_ms.len() as f64)));
    run.detail.push(("epoch_ms_p50_spans_kept", Json::Num(p50_traced)));
    run.detail.push(("epoch_ms_p50_spans_discarded", Json::Num(p50_plain)));
    run.detail.push(("replay_rounds", Json::Num(REPLAY_ROUNDS as f64)));
    Ok(())
}

/// Sends a few epochs of the workload through one relay in front of a
/// root, and returns the median forward time and the relay's upstream
/// bytes per epoch.
fn relay_probe(
    inputs: &Inputs,
    expected: &Report,
    dir: &Path,
    problems: &mut Vec<String>,
) -> Result<(f64, f64), String> {
    let leaves = inputs.shape.leaves as u64;
    let topology = cso_distributed::TopologySpec::new(leaves, leaves.next_power_of_two())
        .map_err(|e| format!("probe topology: {e:?}"))?;
    let dep = Deployment::spawn(dir, Some(topology)).map_err(|e| format!("probe servers: {e}"))?;
    let before =
        dep.counter("relay.upstream_bytes_sent") + dep.counter("relay.upstream_bytes_received");
    let mut forward = Vec::new();
    let started = Instant::now();
    for epoch in 0..RELAY_PROBE_EPOCHS {
        let o = run_epoch(&dep, inputs, epoch);
        match (&o.failure, &o.report) {
            (None, Some(r)) if r.same_bits(expected) => forward.extend(o.forward_ms),
            (None, Some(r)) => {
                problems.push(format!("relay probe report {r:?} differs from library"))
            }
            (f, _) => problems.push(format!("relay probe epoch {epoch} failed: {f:?}")),
        }
    }
    if !dep.settle_forwards(RELAY_PROBE_EPOCHS) {
        problems
            .push(format!("relay probe forwards did not settle within {:?}", started.elapsed()));
    }
    let bytes = dep.counter("relay.upstream_bytes_sent")
        + dep.counter("relay.upstream_bytes_received")
        - before;
    dep.shutdown();
    Ok((med(&forward), bytes as f64 / RELAY_PROBE_EPOCHS as f64))
}
