//! A live deployment — one root server, plus one relay per region for
//! tree workloads — and the closed-loop epoch that drives it.
//!
//! Load is a closed loop: nodes are blocking `ServeClient` callers, so
//! every sketch waits for its ack before the next is sent, and an epoch
//! starts only when the previous report arrived. At most [`WORKERS`]
//! generator threads, each holding one connection, are live at once.

use crate::inputs::{Inputs, Report, WORKERS};
use crate::trace::Trace;
use cso_core::BompConfig;
use cso_distributed::quantize::SketchEncoding;
use cso_distributed::{RetryPolicy, TopologySpec};
use cso_exec::ExecConfig;
use cso_serve::{
    spawn, spawn_relay, ClientError, Durability, EpochPhase, RecoveryPolicy, RelayConfig,
    RelayHandle, ServeClient, ServerConfig, ServerHandle,
};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Epochs one session holds before the benchmark moves to the next
/// session: relay stores never evict their forwarded epochs, so one
/// session refuses its 65th epoch (see `CHANGES.md`).
pub const EPOCHS_PER_SESSION: u64 = 64;

/// Pause between root status polls while waiting for relay forwards.
const POLL: Duration = Duration::from_micros(200);

/// How long a forward may take before the epoch is counted as failed.
const FORWARD_DEADLINE: Duration = Duration::from_secs(30);

/// The server configuration of every server and relay: fixed handler
/// lanes and recovery workers, default per-seal WAL in `dir`.
fn server_config(dir: PathBuf) -> ServerConfig {
    ServerConfig {
        handlers: WORKERS,
        policy: RecoveryPolicy {
            recovery: BompConfig::default(),
            exec: ExecConfig::with_workers(WORKERS),
        },
        durability: Some(Durability::at(dir)),
        ..ServerConfig::default()
    }
}

/// A running root (and relays).
pub struct Deployment {
    /// The root server.
    pub root: ServerHandle,
    /// One relay per region (empty for a flat deployment).
    pub relays: Vec<RelayHandle>,
    /// The relay topology, for tree deployments.
    pub topology: Option<TopologySpec>,
    /// Where the root journals.
    pub root_dir: PathBuf,
}

impl Deployment {
    /// Spawns the root (journal in `dir/root`) and, for a topology, one
    /// relay per region (journal in `dir/relay<g>`).
    pub fn spawn(dir: &Path, topology: Option<TopologySpec>) -> std::io::Result<Deployment> {
        let root_dir = dir.join("root");
        let root = spawn(server_config(root_dir.clone()))?;
        let relays = match topology {
            None => Vec::new(),
            Some(t) => (0..t.region_count())
                .map(|g| {
                    let mut cfg = RelayConfig::new(root.addr(), g as u32, t);
                    cfg.server = server_config(dir.join(format!("relay{g}")));
                    spawn_relay(cfg)
                })
                .collect::<std::io::Result<_>>()?,
        };
        Ok(Deployment { root, relays, topology, root_dir })
    }

    /// Every server: the root first, then each relay's embedded server.
    pub fn servers(&self) -> Vec<&ServerHandle> {
        std::iter::once(&self.root).chain(self.relays.iter().map(RelayHandle::server)).collect()
    }

    /// Sum of counter `name` over every server.
    pub fn counter(&self, name: &str) -> u64 {
        self.servers()
            .iter()
            .map(|s| s.recorder().metrics_snapshot().counter(name).unwrap_or(0))
            .sum()
    }

    /// Sum of histogram `name`'s observation count over every server.
    pub fn histogram_count(&self, name: &str) -> u64 {
        self.servers()
            .iter()
            .map(|s| s.recorder().metrics_snapshot().histogram(name).map_or(0, |h| h.count))
            .sum()
    }

    /// Waits until every relay has journaled `forwards` upstream acks in
    /// all, so
    /// its byte ledger covers every epoch so far. The root counts a
    /// pre-sum a beat before the relay bumps its ledger.
    pub fn settle_forwards(&self, forwards: u64) -> bool {
        let deadline = Instant::now() + FORWARD_DEADLINE;
        self.relays.iter().all(|r| loop {
            let done =
                r.server().recorder().metrics_snapshot().counter("relay.forwards").unwrap_or(0);
            if done >= forwards {
                break true;
            }
            if Instant::now() > deadline {
                break false;
            }
            std::thread::sleep(POLL);
        })
    }

    /// Stops the relays' forwarders and servers, then the root.
    pub fn shutdown(self) {
        for r in self.relays {
            r.shutdown();
        }
        self.root.shutdown();
    }
}

/// What one epoch did.
#[derive(Debug, Default)]
pub struct EpochOutcome {
    /// The epoch's spans: `epoch` (index 0), its stages, and the client
    /// calls inside them.
    pub trace: Trace,
    /// The root's report, when the epoch completed.
    pub report: Option<Report>,
    /// Sketches sent / failed.
    pub sketches: (u64, u64),
    /// Recovers sent / failed.
    pub recovers: (u64, u64),
    /// The first failure, if any operation failed.
    pub failure: Option<String>,
    /// Bytes written plus read on the epoch's client sockets, status
    /// polls excluded.
    pub client_bytes: u64,
    /// Reconnects the epoch's clients made.
    pub reconnects: u64,
    /// Region seal ack → root counts every region (tree only).
    pub forward_ms: Option<f64>,
    /// Bytes of the control connection's status polls, which are a
    /// benchmark artifact and left out of `client_bytes`.
    poll_bytes: u64,
}

/// Span names of the epoch ledger's top-level stages.
pub const STAGES: [&str; 5] = ["open", "ingest", "forward", "seal", "recover"];

/// One generator connection's share of an epoch.
#[derive(Default)]
struct Lane {
    spans: Vec<(&'static str, Instant, Instant)>,
    sent: u64,
    failed: u64,
    bytes: u64,
    reconnects: u64,
    failure: Option<String>,
    last_seal_ack: Option<Instant>,
}

impl Lane {
    fn fail(&mut self, what: &str, e: ClientError) {
        self.failure.get_or_insert_with(|| format!("{what}: {e}"));
    }

    fn absorb(&mut self, c: &ServeClient) {
        self.bytes += c.bytes_sent() + c.bytes_received();
        self.reconnects += c.reconnects();
    }

    fn open(
        &mut self,
        inputs: &Inputs,
        addr: SocketAddr,
        session: u64,
        epoch: u64,
    ) -> Option<ServeClient> {
        let s = &inputs.shape;
        let start = Instant::now();
        let opened = ServeClient::open_with_backend(
            addr,
            &RetryPolicy::default(),
            session,
            epoch,
            s.m as u32,
            s.n as u64,
            inputs.phi_seed,
            s.backend,
        );
        self.spans.push(("client.open", start, Instant::now()));
        match opened {
            Ok((c, _)) => Some(c),
            Err(e) => {
                self.fail("open", e);
                None
            }
        }
    }

    /// Sends `leaves` on `client`, one closed-loop request at a time.
    fn send(
        &mut self,
        inputs: &Inputs,
        client: &mut ServeClient,
        leaves: impl Iterator<Item = usize>,
    ) {
        for leaf in leaves {
            self.sent += 1;
            let start = Instant::now();
            let r = client.send_sketch(leaf as u32, &inputs.sketches[leaf], SketchEncoding::F64);
            self.spans.push(("ingest.ack", start, Instant::now()));
            if let Err(e) = r {
                self.failed += 1;
                self.fail("sketch", e);
                return;
            }
        }
    }

    /// Tree lane: for each region, open its relay, send its leaves, seal.
    fn regions(
        &mut self,
        dep: &Deployment,
        inputs: &Inputs,
        regions: &[u64],
        session: u64,
        epoch: u64,
    ) {
        let topology = dep.topology.expect("tree deployment");
        for &g in regions {
            let (lo, hi) = topology.leaf_range(g).expect("region in topology");
            let Some(mut c) = self.open(inputs, dep.relays[g as usize].addr(), session, epoch)
            else {
                return;
            };
            self.send(inputs, &mut c, lo as usize..hi as usize);
            if self.failure.is_none() {
                let start = Instant::now();
                let sealed = c.seal();
                let end = Instant::now();
                self.spans.push(("relay.seal", start, end));
                match sealed {
                    Ok(_) => self.last_seal_ack = Some(end),
                    Err(e) => self.fail("region seal", e),
                }
            }
            self.absorb(&c);
            if self.failure.is_some() {
                return;
            }
        }
    }
}

/// Runs one epoch `epoch` (in session `1 + epoch / EPOCHS_PER_SESSION`)
/// against `dep`, from open to the root's report.
pub fn run_epoch(dep: &Deployment, inputs: &Inputs, epoch: u64) -> EpochOutcome {
    let session = 1 + epoch / EPOCHS_PER_SESSION;
    let mut out = EpochOutcome { trace: Trace::new(epoch), ..EpochOutcome::default() };
    let t0 = Instant::now();
    out.trace.add("epoch", None, t0, t0);
    let mut control = match dep.topology {
        None => flat_ingest(dep, inputs, session, epoch, &mut out),
        Some(_) => tree_ingest(dep, inputs, session, epoch, &mut out),
    };
    if let Some(c) = control.as_mut().filter(|_| out.failure.is_none()) {
        let start = Instant::now();
        let sealed = c.seal();
        out.trace.add("seal", Some(0), start, Instant::now());
        match sealed {
            Ok(nodes) if nodes == expected_root_nodes(dep, inputs) => {
                out.recovers.0 += 1;
                let start = Instant::now();
                let recovered = c.recover(inputs.shape.k as u32);
                out.trace.add("recover", Some(0), start, Instant::now());
                match recovered {
                    Ok((mode, outliers)) => out.report = Some(Report { mode, outliers }),
                    Err(e) => {
                        out.recovers.1 += 1;
                        out.failure = Some(format!("recover: {e}"));
                    }
                }
            }
            Ok(nodes) => out.failure = Some(format!("seal counted {nodes} nodes")),
            Err(e) => out.failure = Some(format!("seal: {e}")),
        }
    }
    if let Some(c) = &control {
        out.client_bytes += c.bytes_sent() + c.bytes_received() - out.poll_bytes;
        out.reconnects += c.reconnects();
    }
    drop(control);
    out.trace.spans[0].end = Instant::now();
    out
}

fn expected_root_nodes(dep: &Deployment, inputs: &Inputs) -> u64 {
    dep.topology.map_or(inputs.shape.leaves as u64, |t| t.region_count())
}

/// Folds a lane's record into the epoch outcome under stage `parent`.
fn merge(out: &mut EpochOutcome, lane: Lane, parent: u32) {
    for (name, start, end) in lane.spans {
        out.trace.add(name, Some(parent), start, end);
    }
    out.sketches.0 += lane.sent;
    out.sketches.1 += lane.failed;
    out.client_bytes += lane.bytes;
    out.reconnects += lane.reconnects;
    if out.failure.is_none() {
        out.failure = lane.failure;
    }
}

/// Flat epoch: open two connections, split the leaves between them, and
/// keep the first as the control connection.
fn flat_ingest(
    dep: &Deployment,
    inputs: &Inputs,
    session: u64,
    epoch: u64,
    out: &mut EpochOutcome,
) -> Option<ServeClient> {
    let addr = dep.root.addr();
    let open_start = Instant::now();
    let mut opener = Lane::default();
    let a = opener.open(inputs, addr, session, epoch);
    let b = a.as_ref().and_then(|_| opener.open(inputs, addr, session, epoch));
    let open_stage = out.trace.add("open", Some(0), open_start, Instant::now());
    merge(out, opener, open_stage);
    let (mut a, mut b) = (a?, b?);

    let leaves = inputs.shape.leaves;
    let ingest_start = Instant::now();
    let (la, lb) = std::thread::scope(|scope| {
        let other = scope.spawn(|| {
            let mut lane = Lane::default();
            lane.send(inputs, &mut b, (1..leaves).step_by(2));
            lane
        });
        let mut lane = Lane::default();
        lane.send(inputs, &mut a, (0..leaves).step_by(2));
        (lane, other.join().expect("ingest lane panicked"))
    });
    let ingest_stage = out.trace.add("ingest", Some(0), ingest_start, Instant::now());
    merge(out, la, ingest_stage);
    merge(out, lb, ingest_stage);
    out.client_bytes += b.bytes_sent() + b.bytes_received();
    out.reconnects += b.reconnects();
    Some(a)
}

/// Tree epoch: two lanes feed the relays (each region: open, send its
/// leaves, seal), then a control connection waits for every region's
/// pre-sum to reach the root.
fn tree_ingest(
    dep: &Deployment,
    inputs: &Inputs,
    session: u64,
    epoch: u64,
    out: &mut EpochOutcome,
) -> Option<ServeClient> {
    let regions: Vec<u64> = (0..dep.relays.len() as u64).collect();
    let half = regions.len().div_ceil(2);
    let ingest_start = Instant::now();
    let (la, lb) = std::thread::scope(|scope| {
        let other = scope.spawn(|| {
            let mut lane = Lane::default();
            lane.regions(dep, inputs, &regions[half..], session, epoch);
            lane
        });
        let mut lane = Lane::default();
        lane.regions(dep, inputs, &regions[..half], session, epoch);
        (lane, other.join().expect("relay lane panicked"))
    });
    let ingest_stage = out.trace.add("ingest", Some(0), ingest_start, Instant::now());
    let last_seal_ack = la.last_seal_ack.max(lb.last_seal_ack);
    merge(out, la, ingest_stage);
    merge(out, lb, ingest_stage);
    if out.failure.is_some() {
        return None;
    }

    let forward_start = Instant::now();
    let mut lane = Lane::default();
    let control = lane.open(inputs, dep.root.addr(), session, epoch);
    let mut control = match control {
        Some(c) => c,
        None => {
            let stage = out.trace.add("forward", Some(0), forward_start, Instant::now());
            merge(out, lane, stage);
            return None;
        }
    };
    let before_polls = control.bytes_sent() + control.bytes_received();
    let want = regions.len() as u64;
    let deadline = Instant::now() + FORWARD_DEADLINE;
    let forwarded = loop {
        match control.status() {
            Ok((EpochPhase::Ingest, nodes)) if nodes >= want => break Ok(Instant::now()),
            Ok((EpochPhase::Ingest, _)) if Instant::now() < deadline => std::thread::sleep(POLL),
            Ok((phase, nodes)) => {
                break Err(format!("root epoch {phase:?} with {nodes}/{want} regions"))
            }
            Err(e) => break Err(format!("root status: {e}")),
        }
    };
    out.poll_bytes = control.bytes_sent() + control.bytes_received() - before_polls;
    let stage = out.trace.add("forward", Some(0), forward_start, Instant::now());
    merge(out, lane, stage);
    match forwarded {
        Ok(at) => out.forward_ms = last_seal_ack.map(|t| at.duration_since(t).as_secs_f64() * 1e3),
        Err(e) => {
            out.failure.get_or_insert(e);
        }
    }
    Some(control)
}
