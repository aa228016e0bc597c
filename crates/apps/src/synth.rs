//! Seeded generative fuzzer for distributed-protocol scenarios with
//! *planted* OV/AV bugs (ROADMAP item 3: an unbounded test bed beyond the
//! seven hand-written TaxDC miniatures).
//!
//! [`ScenarioSpec::from_params`] deterministically derives a scenario —
//! protocol, scale, planted bugs, noise mix, fault plan — from a seed;
//! [`generate`] lowers the spec to an IR [`Benchmark`] plus ground truth:
//! the exact `(StmtId, StmtId)` access pairs of every planted bug, known
//! by construction because the builder hands the ids back while the
//! gadget is assembled. The batch runner in `dcatch-core` scores pipeline
//! verdicts against this truth into a recall/precision report, and the
//! scenario shrinker walks [`ScenarioSpec::shrink_steps`] to minimize any
//! scenario whose verdicts disagree with the plant.
//!
//! Design invariants the generator maintains (so that every natural run
//! is failure-free — DCatch predicts bugs from *correct* runs, §1):
//!
//! * protocol traffic uses per-`(client, round)` or per-`(member, round)`
//!   map keys, so the only conflicting concurrent accesses are the ones
//!   deliberately planted (plus the reusable noise patterns);
//! * planted gadgets separate their racing accesses by ≥ 200 ticks of
//!   natural-run slack, while generated fault plans only perturb delivery
//!   by single-digit step delays, socket duplicates of idempotent
//!   handlers, and inert RPC timeouts — enough to engage the fault
//!   engine, never enough to flip the natural order;
//! * every per-element attribute (bug shape, noise flags, fault lines)
//!   draws from its own sub-seed, so dropping one element during
//!   shrinking does not reshuffle the rest of the scenario.

use dcatch_model::{Expr, FuncKind, NodeId, ProgramBuilder, StmtId, Value};
use dcatch_obs::rng::SmallRng;
use dcatch_obs::Json;
use dcatch_sim::Topology;

use crate::noise;
use crate::{Benchmark, ErrorPattern, RootCause, System};

/// Interns a generated string for `Benchmark`'s `&'static str` fields.
/// Each scenario leaks a handful of short ids — bounded and deliberate:
/// soak runs generate thousands of scenarios and leak a few kilobytes,
/// which is cheaper than threading owned strings through every consumer
/// of the seven hand-written benchmarks.
fn intern(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

/// The classic protocols the generator can emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Protocol {
    /// Workers campaign via sockets; a tracker pull-syncs on the vote map
    /// (exercising Rule-Mpull / the loop-sync stage) and announces.
    LeaderElection,
    /// Clients submit transactions by RPC; the coordinator fans
    /// prepare/commit RPCs out to participants from an event handler.
    TwoPhaseCommit,
    /// Clients put by RPC; the primary applies and replicates to backups
    /// over sockets.
    PrimaryBackup,
    /// Members push per-round digests to ring neighbours over sockets.
    Gossip,
}

impl Protocol {
    /// All protocols, in a fixed order.
    pub fn all() -> [Protocol; 4] {
        [
            Protocol::LeaderElection,
            Protocol::TwoPhaseCommit,
            Protocol::PrimaryBackup,
            Protocol::Gossip,
        ]
    }

    /// Short CLI/JSON name.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::LeaderElection => "le",
            Protocol::TwoPhaseCommit => "2pc",
            Protocol::PrimaryBackup => "pb",
            Protocol::Gossip => "gossip",
        }
    }

    /// Parses a CLI/JSON name (case-insensitive).
    pub fn parse(s: &str) -> Option<Protocol> {
        match s.to_ascii_lowercase().as_str() {
            "le" | "leader-election" => Some(Protocol::LeaderElection),
            "2pc" | "two-phase-commit" => Some(Protocol::TwoPhaseCommit),
            "pb" | "primary-backup" => Some(Protocol::PrimaryBackup),
            "gossip" => Some(Protocol::Gossip),
            _ => None,
        }
    }

    /// Whether client→hub and gadget traffic travels over RPC (`true`) or
    /// sockets (`false`).
    fn rpc_based(self) -> bool {
        matches!(self, Protocol::TwoPhaseCommit | Protocol::PrimaryBackup)
    }
}

/// Generator inputs: the seed plus optional overrides for anything the
/// seed would otherwise choose.
#[derive(Debug, Clone, Copy, Default)]
pub struct SynthParams {
    /// Scenario seed; the sole source of randomness.
    pub seed: u64,
    /// Protocol override.
    pub protocol: Option<Protocol>,
    /// Worker/participant node count override (min 2).
    pub workers: Option<u32>,
    /// Client thread count override (min 1) — clients drive the noise
    /// generator (op traffic, stat updates, local churn).
    pub clients: Option<u32>,
    /// Message fan-out override (clamped to the worker count).
    pub fan_out: Option<u32>,
    /// Exact planted-bug count override (otherwise 0..=2 by seed).
    pub bugs: Option<u32>,
}

/// One planted bug: kind, the worker node hosting the racing handlers,
/// and the natural-run gap (ticks) between the ordered accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BugSpec {
    /// Stable index within the scenario; names the object `synth_bug_{i}`.
    pub index: u32,
    /// OV or AV.
    pub kind: RootCause,
    /// Worker node (1-based) hosting the gadget handlers.
    pub host: u32,
    /// Checker-side delay: how long after boot the checking access runs.
    pub gap: u32,
}

/// A fully-determined scenario: everything [`generate`] needs, and the
/// unit the shrinker minimizes. Serializes to JSON for quarantined
/// replayable cases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Protocol family.
    pub protocol: Protocol,
    /// Scenario seed (also the simulator seed of the natural run).
    pub seed: u64,
    /// Worker/participant nodes (≥ 2). Node 0 is the hub, workers are
    /// 1..=workers, the client/driver node is workers+1.
    pub workers: u32,
    /// Client threads (≥ 1).
    pub clients: u32,
    /// Message fan-out (1..=workers).
    pub fan_out: u32,
    /// Protocol rounds each client drives (≥ 1).
    pub rounds: u32,
    /// Local-churn iterations on the client node (≥ 0).
    pub churn_iters: i64,
    /// Planted bugs (possibly empty).
    pub bugs: Vec<BugSpec>,
    /// Include the SP-prunable stats-counter noise pattern.
    pub stats_noise: bool,
    /// Include the benign phase-guard noise pattern.
    pub benign_noise: bool,
    /// Include the quorum-barrier pattern (serial verdicts).
    pub serial_noise: bool,
    /// Generated fault plan text (parseable by `FaultPlan::parse`; may be
    /// empty).
    pub fault_plan: String,
}

fn sub_rng(seed: u64, tag: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

impl ScenarioSpec {
    /// Deterministically derives a scenario from the params. Every
    /// element draws from a sub-seed of `params.seed`, so two specs with
    /// the same seed are identical field-for-field.
    pub fn from_params(params: &SynthParams) -> ScenarioSpec {
        let seed = params.seed;
        let mut shape = sub_rng(seed, 1);
        let protocol = params
            .protocol
            .unwrap_or_else(|| Protocol::all()[shape.gen_range(4)]);
        let workers = params
            .workers
            .unwrap_or(2 + shape.gen_range(3) as u32)
            .max(2);
        let clients = params
            .clients
            .unwrap_or(1 + shape.gen_range(3) as u32)
            .max(1);
        let fan_out = params
            .fan_out
            .unwrap_or(1 + shape.gen_range(workers as usize) as u32)
            .clamp(1, workers);
        let rounds = 1 + shape.gen_range(3) as u32;
        let churn_iters = 40 + shape.gen_range(4) as i64 * 20;

        let bug_count = params.bugs.unwrap_or_else(|| shape.gen_range(3) as u32);
        let bugs = (0..bug_count)
            .map(|i| {
                let mut r = sub_rng(seed, 0xB0_6000 + u64::from(i));
                BugSpec {
                    index: i,
                    kind: if r.gen_bool() {
                        RootCause::OrderViolation
                    } else {
                        RootCause::AtomicityViolation
                    },
                    host: 1 + r.gen_range(workers as usize) as u32,
                    gap: 220 + r.gen_range(5) as u32 * 20,
                }
            })
            .collect();

        let mut nz = sub_rng(seed, 0x4015_E000);
        let stats_noise = nz.gen_bool();
        let benign_noise = nz.gen_bool();
        let serial_noise = nz.gen_bool();

        ScenarioSpec {
            protocol,
            seed,
            workers,
            clients,
            fan_out,
            rounds,
            churn_iters,
            bugs,
            stats_noise,
            benign_noise,
            serial_noise,
            fault_plan: gen_fault_plan(seed, protocol, workers),
        }
    }

    /// Human-readable scenario id, stable per (protocol, seed).
    pub fn id(&self) -> String {
        format!(
            "SYNTH-{}-s{}",
            self.protocol.name().to_ascii_uppercase(),
            self.seed
        )
    }

    /// Size metric the shrinker minimizes. Every [`shrink_steps`]
    /// candidate is strictly smaller than its parent under this metric.
    ///
    /// [`shrink_steps`]: ScenarioSpec::shrink_steps
    pub fn size(&self) -> usize {
        let fault_lines = self
            .fault_plan
            .lines()
            .filter(|l| !l.trim().is_empty())
            .count();
        self.workers as usize
            + self.clients as usize
            + self.fan_out as usize
            + self.rounds as usize
            + self.bugs.len() * 3
            + usize::from(self.stats_noise)
            + usize::from(self.benign_noise)
            + usize::from(self.serial_noise)
            + fault_lines
            + usize::try_from(self.churn_iters).unwrap_or(0)
    }

    /// Single-step shrink candidates, in a fixed exploration order:
    /// drop a planted bug (last first), drop a noise pattern, empty the
    /// fault plan, drop one line of a plan of several (first first), shed
    /// a client / a round / churn, narrow the fan-out, drop the highest
    /// bug-free worker. Each candidate is strictly smaller than `self` per
    /// [`ScenarioSpec::size`].
    pub fn shrink_steps(&self) -> Vec<ScenarioSpec> {
        let mut out = Vec::new();
        for i in (0..self.bugs.len()).rev() {
            let mut s = self.clone();
            s.bugs.remove(i);
            out.push(s);
        }
        if self.stats_noise {
            let mut s = self.clone();
            s.stats_noise = false;
            out.push(s);
        }
        if self.benign_noise {
            let mut s = self.clone();
            s.benign_noise = false;
            out.push(s);
        }
        if self.serial_noise {
            let mut s = self.clone();
            s.serial_noise = false;
            out.push(s);
        }
        let fault_lines: Vec<&str> = self
            .fault_plan
            .lines()
            .filter(|l| !l.trim().is_empty())
            .collect();
        if !fault_lines.is_empty() {
            let mut s = self.clone();
            s.fault_plan = String::new();
            out.push(s);
        }
        if fault_lines.len() > 1 {
            for i in 0..fault_lines.len() {
                let mut s = self.clone();
                s.fault_plan = fault_lines
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, l)| format!("{l}\n"))
                    .collect();
                out.push(s);
            }
        }
        if self.clients > 1 {
            let mut s = self.clone();
            s.clients -= 1;
            out.push(s);
        }
        if self.rounds > 1 {
            let mut s = self.clone();
            s.rounds -= 1;
            out.push(s);
        }
        if self.churn_iters > 0 {
            let mut s = self.clone();
            s.churn_iters /= 2;
            out.push(s);
        }
        if self.fan_out > 1 {
            let mut s = self.clone();
            s.fan_out -= 1;
            out.push(s);
        }
        if self.workers > 2 && self.bugs.iter().all(|b| b.host < self.workers) {
            let mut s = self.clone();
            s.workers -= 1;
            s.fan_out = s.fan_out.min(s.workers);
            out.push(s);
        }
        out
    }

    /// JSON form — the quarantine/replay format.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("protocol", Json::Str(self.protocol.name().to_owned())),
            ("seed", Json::UInt(self.seed)),
            ("workers", Json::UInt(u64::from(self.workers))),
            ("clients", Json::UInt(u64::from(self.clients))),
            ("fan_out", Json::UInt(u64::from(self.fan_out))),
            ("rounds", Json::UInt(u64::from(self.rounds))),
            (
                "churn_iters",
                Json::UInt(u64::try_from(self.churn_iters).unwrap_or(0)),
            ),
            (
                "bugs",
                Json::Arr(
                    self.bugs
                        .iter()
                        .map(|b| {
                            Json::obj([
                                ("index", Json::UInt(u64::from(b.index))),
                                ("kind", Json::Str(b.kind.abbrev().to_owned())),
                                ("host", Json::UInt(u64::from(b.host))),
                                ("gap", Json::UInt(u64::from(b.gap))),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("stats_noise", Json::Bool(self.stats_noise)),
            ("benign_noise", Json::Bool(self.benign_noise)),
            ("serial_noise", Json::Bool(self.serial_noise)),
            ("fault_plan", Json::Str(self.fault_plan.clone())),
        ])
    }

    /// Parses the JSON form written by [`ScenarioSpec::to_json`].
    pub fn from_json(doc: &Json) -> Result<ScenarioSpec, String> {
        let str_field = |k: &str| -> Result<&str, String> {
            doc.get(k)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("spec field `{k}` missing or not a string"))
        };
        let num = |k: &str| -> Result<u64, String> {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("spec field `{k}` missing or not a number"))
        };
        let flag = |k: &str| -> Result<bool, String> {
            doc.get(k)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("spec field `{k}` missing or not a bool"))
        };
        let proto_name = str_field("protocol")?;
        let protocol = Protocol::parse(proto_name)
            .ok_or_else(|| format!("unknown protocol `{proto_name}`"))?;
        let bugs_json = doc
            .get("bugs")
            .and_then(Json::as_arr)
            .ok_or_else(|| "spec field `bugs` missing or not an array".to_owned())?;
        let mut bugs = Vec::new();
        for (i, b) in bugs_json.iter().enumerate() {
            let bnum = |k: &str| -> Result<u64, String> {
                b.get(k)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("bug #{i}: field `{k}` missing or not a number"))
            };
            let kind = match b.get("kind").and_then(Json::as_str) {
                Some("OV") => RootCause::OrderViolation,
                Some("AV") => RootCause::AtomicityViolation,
                other => return Err(format!("bug #{i}: bad kind {other:?}")),
            };
            bugs.push(BugSpec {
                index: u32::try_from(bnum("index")?).map_err(|e| e.to_string())?,
                kind,
                host: u32::try_from(bnum("host")?).map_err(|e| e.to_string())?,
                gap: u32::try_from(bnum("gap")?).map_err(|e| e.to_string())?,
            });
        }
        Ok(ScenarioSpec {
            protocol,
            seed: num("seed")?,
            workers: u32::try_from(num("workers")?).map_err(|e| e.to_string())?,
            clients: u32::try_from(num("clients")?).map_err(|e| e.to_string())?,
            fan_out: u32::try_from(num("fan_out")?).map_err(|e| e.to_string())?,
            rounds: u32::try_from(num("rounds")?).map_err(|e| e.to_string())?,
            churn_iters: i64::try_from(num("churn_iters")?).map_err(|e| e.to_string())?,
            bugs,
            stats_noise: flag("stats_noise")?,
            benign_noise: flag("benign_noise")?,
            serial_noise: flag("serial_noise")?,
            fault_plan: str_field("fault_plan")?.to_owned(),
        })
    }
}

/// Generates the scenario's fault plan: single-digit step delays, socket
/// duplicates of idempotent handlers, and an inert RPC timeout. Never
/// drops, crashes, or panics — the natural run must stay correct.
fn gen_fault_plan(seed: u64, protocol: Protocol, workers: u32) -> String {
    use dcatch_sim::{ChannelKind, FaultPlan, MessageAction, MessageFault};
    let mut r = sub_rng(seed, 0xFA_0170);
    let mut plan = FaultPlan::default();
    if r.gen_bool() {
        plan = plan.with_message(
            MessageFault::new(
                ChannelKind::Any,
                MessageAction::Delay(1 + r.gen_range(6) as u64),
            )
            .nth(1 + r.gen_range(3) as u64),
        );
    }
    if r.gen_ratio(1, 3) {
        let kind = if protocol.rpc_based() {
            ChannelKind::RpcReply
        } else {
            ChannelKind::Socket
        };
        plan = plan.with_message(
            MessageFault::new(kind, MessageAction::Delay(1 + r.gen_range(4) as u64))
                .from_node(NodeId(workers + 1)),
        );
    }
    if !protocol.rpc_based() && r.gen_ratio(1, 3) {
        // duplicate a client→hub socket message; hub handlers key traffic
        // per (client, round), so redelivery is idempotent
        plan = plan.with_message(
            MessageFault::new(ChannelKind::Socket, MessageAction::Duplicate)
                .to_node(NodeId(0))
                .nth(1 + r.gen_range(2) as u64),
        );
    }
    if r.gen_bool() {
        plan = plan.with_rpc_timeout(None, 3_000 + r.gen_range(4) as u64 * 500);
    }
    plan.to_text()
}

/// Ground truth for one planted bug: the object it races on and every
/// `(StmtId, StmtId)` access pair (canonically ordered, matching
/// `Candidate::static_pair`) whose Harmful confirmation counts as
/// detecting it.
#[derive(Debug, Clone)]
pub struct PlantedBug {
    /// Bug index within the scenario.
    pub index: u32,
    /// OV or AV.
    pub kind: RootCause,
    /// The raced object (`synth_bug_{index}`).
    pub object: String,
    /// Acceptable detected pairs: OV plants one (write, read) pair; AV
    /// plants two (the read against each write of the non-atomic
    /// section).
    pub pairs: Vec<(StmtId, StmtId)>,
}

/// A generated scenario: the spec it came from, the runnable benchmark,
/// and the planted ground truth.
#[derive(Debug, Clone)]
pub struct SynthScenario {
    /// The generating spec.
    pub spec: ScenarioSpec,
    /// The runnable benchmark (natural run is correct under its seed).
    pub bench: Benchmark,
    /// Ground-truth planted bugs (empty for bug-free scenarios).
    pub truth: Vec<PlantedBug>,
}

fn canon(a: StmtId, b: StmtId) -> (StmtId, StmtId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

fn node(n: u32) -> Expr {
    Expr::val(Value::Node(NodeId(n)))
}

/// Sends `func(args)` from the current thread to `to` over the
/// protocol's channel.
fn send(b: &mut dcatch_model::BlockBuilder<'_>, rpc: bool, to: Expr, func: &str, args: Vec<Expr>) {
    if rpc {
        b.rpc_void(to, func, args);
    } else {
        b.socket_send(to, func, args);
    }
}

/// Lowers a spec to a runnable benchmark plus ground truth.
pub fn generate(spec: &ScenarioSpec) -> SynthScenario {
    let rpc = spec.protocol.rpc_based();
    let via = if rpc {
        FuncKind::RpcHandler
    } else {
        FuncKind::SocketHandler
    };
    let hub = 0u32;
    let client_node = spec.workers + 1;
    let mut pb = ProgramBuilder::new();
    let mut truth: Vec<PlantedBug> = Vec::new();

    // ---- planted bug gadgets (hosted on worker nodes) ----------------------
    for bug in &spec.bugs {
        let i = bug.index;
        let obj = format!("synth_bug_{i}");
        match bug.kind {
            RootCause::OrderViolation => {
                // OV: a checker that throws if it observes the pre-write
                // state. Natural runs order write (≈15 ticks) far before
                // read (≥ gap); the pipeline must still flag the pair and
                // confirm it Harmful by forcing read-before-write.
                let mut w = None;
                pb.func(format!("synth_set_{i}"), &["v"], via, |b| {
                    w = Some(b.write(&obj, Expr::local("v")));
                    if rpc {
                        b.ret(Expr::val(true));
                    }
                });
                let mut r = None;
                pb.func(format!("synth_chk_{i}"), &[], via, |b| {
                    r = Some(b.read("p", &obj));
                    b.if_(Expr::local("p").eq(Expr::null()), |b| {
                        b.throw("NullPointerException");
                    });
                    if rpc {
                        b.ret(Expr::val(true));
                    }
                });
                let (w, r) = (
                    w.expect("OV gadget body registered its write"),
                    r.expect("OV gadget body registered its read"),
                );
                truth.push(PlantedBug {
                    index: i,
                    kind: bug.kind,
                    object: obj.clone(),
                    pairs: vec![canon(w, r)],
                });
                pb.func(
                    format!("synth_setter_{i}"),
                    &["h"],
                    FuncKind::Regular,
                    |b| {
                        b.sleep(Expr::val(10 + i64::from(i) * 3));
                        send(
                            b,
                            rpc,
                            Expr::local("h"),
                            &format!("synth_set_{i}"),
                            vec![Expr::val("ready")],
                        );
                    },
                );
            }
            RootCause::AtomicityViolation => {
                // AV: a two-write non-atomic section (BUSY…OK, 40-tick
                // window) against a checker that throws on the transient
                // state. Natural runs read OK; forcing the read into the
                // window reads BUSY.
                let mut w_busy = None;
                let mut w_ok = None;
                pb.func(format!("synth_begin_{i}"), &[], via, |b| {
                    w_busy = Some(b.write(&obj, Expr::val("BUSY")));
                    b.sleep(Expr::val(40));
                    w_ok = Some(b.write(&obj, Expr::val("OK")));
                    if rpc {
                        b.ret(Expr::val(true));
                    }
                });
                let mut r = None;
                pb.func(format!("synth_chk_{i}"), &[], via, |b| {
                    r = Some(b.read("p", &obj));
                    b.if_(Expr::local("p").eq(Expr::val("BUSY")), |b| {
                        b.throw("IllegalStateException");
                    });
                    if rpc {
                        b.ret(Expr::val(true));
                    }
                });
                let (w_busy, w_ok, r) = (
                    w_busy.expect("AV gadget body registered its BUSY write"),
                    w_ok.expect("AV gadget body registered its OK write"),
                    r.expect("AV gadget body registered its read"),
                );
                truth.push(PlantedBug {
                    index: i,
                    kind: bug.kind,
                    object: obj.clone(),
                    pairs: vec![canon(w_busy, r), canon(w_ok, r)],
                });
                pb.func(
                    format!("synth_setter_{i}"),
                    &["h"],
                    FuncKind::Regular,
                    |b| {
                        b.sleep(Expr::val(10 + i64::from(i) * 3));
                        send(
                            b,
                            rpc,
                            Expr::local("h"),
                            &format!("synth_begin_{i}"),
                            vec![],
                        );
                    },
                );
            }
        }
        let gap = i64::from(bug.gap);
        pb.func(
            format!("synth_checker_{i}"),
            &["h"],
            FuncKind::Regular,
            move |b| {
                b.sleep(Expr::val(gap));
                send(b, rpc, Expr::local("h"), &format!("synth_chk_{i}"), vec![]);
            },
        );
    }

    // ---- client driver: per-(client, round) keyed op traffic ---------------
    let op_handler = match spec.protocol {
        Protocol::TwoPhaseCommit => "tpc_submit",
        Protocol::PrimaryBackup => "pb_put",
        _ => "synth_client_op",
    };
    {
        let rounds = spec.rounds;
        let stats = spec.stats_noise;
        let handler = op_handler.to_owned();
        pb.func(
            "synth_client",
            &["hub", "ci", "d"],
            FuncKind::Regular,
            move |b| {
                b.sleep(Expr::local("d"));
                for r in 0..rounds {
                    let key = Expr::local("ci").concat(Expr::val(format!("_r{r}")));
                    if rpc {
                        b.rpc(&format!("ok{r}"), Expr::local("hub"), &handler, vec![key]);
                    } else {
                        b.socket_send(Expr::local("hub"), &handler, vec![key]);
                    }
                    b.sleep(Expr::val(7));
                }
                if stats {
                    send(
                        b,
                        rpc,
                        Expr::local("hub"),
                        "synth_stat_update",
                        vec![Expr::val(1)],
                    );
                }
            },
        );
    }
    if !matches!(
        spec.protocol,
        Protocol::TwoPhaseCommit | Protocol::PrimaryBackup
    ) {
        let benign = spec.benign_noise;
        pb.func("synth_client_op", &["k"], via, move |b| {
            b.map_put("synth_ops", Expr::local("k"), Expr::val(true));
            if benign {
                b.write("synthb_phase", Expr::val("RUNNING"));
            }
            if rpc {
                b.ret(Expr::val(true));
            }
        });
    }

    // ---- protocol bodies ---------------------------------------------------
    match spec.protocol {
        Protocol::LeaderElection => {
            pb.func(
                "le_campaign",
                &["hub", "wid", "d"],
                FuncKind::Regular,
                |b| {
                    b.sleep(Expr::local("d"));
                    b.socket_send(Expr::local("hub"), "le_vote", vec![Expr::local("wid")]);
                },
            );
            pb.func("le_vote", &["wid"], FuncKind::SocketHandler, |b| {
                b.map_put("le_votes", Expr::local("wid"), Expr::val(true));
            });
            pb.func("le_elected", &["lid"], FuncKind::SocketHandler, |b| {
                b.write("le_seen_leader", Expr::local("lid"));
            });
            // the tracker pull-syncs on the last campaigner's vote — the
            // loop-sync stage must order the matching put before the loop
            // exit (Rule-Mpull) and prune the get/put pair
            let last = i64::from(spec.workers);
            let fan = spec.fan_out;
            pb.func("le_announce", &[], FuncKind::Regular, move |b| {
                b.assign("got", Expr::val(false));
                b.retry_while(Expr::local("got").not(), |b| {
                    b.map_get("v", "le_votes", Expr::val(last));
                    b.assign("got", Expr::local("v").ne(Expr::null()));
                    b.sleep(Expr::val(2));
                });
                b.write("le_leader", Expr::val(1));
                for w in 1..=fan {
                    b.socket_send(node(w), "le_elected", vec![Expr::val(1)]);
                }
            });
        }
        Protocol::TwoPhaseCommit => {
            let benign = spec.benign_noise;
            pb.func("tpc_submit", &["txn"], FuncKind::RpcHandler, move |b| {
                b.enqueue("dispatch", "tpc_run", vec![Expr::local("txn")]);
                if benign {
                    b.write("synthb_phase", Expr::val("RUNNING"));
                }
                b.ret(Expr::val(true));
            });
            let fan = spec.fan_out;
            pb.func("tpc_run", &["txn"], FuncKind::EventHandler, move |b| {
                for p in 1..=fan {
                    b.rpc(
                        &format!("v{p}"),
                        node(p),
                        "tpc_prepare",
                        vec![Expr::local("txn")],
                    );
                }
                for p in 1..=fan {
                    b.rpc_void(node(p), "tpc_commit", vec![Expr::local("txn")]);
                }
                b.map_put("tpc_decided", Expr::local("txn"), Expr::val("COMMIT"));
            });
            pb.func("tpc_prepare", &["txn"], FuncKind::RpcHandler, |b| {
                b.map_put("tpc_prep_log", Expr::local("txn"), Expr::val("READY"));
                b.ret(Expr::val(true));
            });
            pb.func("tpc_commit", &["txn"], FuncKind::RpcHandler, |b| {
                b.map_put("tpc_commit_log", Expr::local("txn"), Expr::val("DONE"));
                b.ret(Expr::val(true));
            });
        }
        Protocol::PrimaryBackup => {
            let benign = spec.benign_noise;
            let fan = spec.fan_out;
            pb.func("pb_put", &["k"], FuncKind::RpcHandler, move |b| {
                b.map_put("pb_store", Expr::local("k"), Expr::val("v"));
                for w in 1..=fan {
                    b.socket_send(node(w), "pb_replicate", vec![Expr::local("k")]);
                }
                if benign {
                    b.write("synthb_phase", Expr::val("RUNNING"));
                }
                b.ret(Expr::val(true));
            });
            pb.func("pb_replicate", &["k"], FuncKind::SocketHandler, |b| {
                b.map_put("pb_replica", Expr::local("k"), Expr::val("v"));
            });
        }
        Protocol::Gossip => {
            // per-member digest pushers with build-time ring neighbours;
            // digests key per (member, round) so redelivery and handler
            // concurrency stay conflict-free
            pb.func("gsp_digest", &["k"], FuncKind::SocketHandler, |b| {
                b.map_put("gsp_view", Expr::local("k"), Expr::val(true));
            });
            for w in 1..=spec.workers {
                let peers: Vec<u32> = (1..spec.workers)
                    .map(|step| 1 + (w - 1 + step) % spec.workers)
                    .take(spec.fan_out as usize)
                    .collect();
                let rounds = spec.rounds;
                pb.func(
                    format!("gsp_member_{w}"),
                    &["d"],
                    FuncKind::Regular,
                    move |b| {
                        b.sleep(Expr::local("d"));
                        for r in 0..rounds {
                            for &p in &peers {
                                b.socket_send(
                                    node(p),
                                    "gsp_digest",
                                    vec![Expr::val(format!("m{w}_r{r}"))],
                                );
                            }
                            b.sleep(Expr::val(6));
                        }
                    },
                );
            }
        }
    }

    // ---- reusable noise patterns -------------------------------------------
    if spec.stats_noise {
        noise::stats_noise(&mut pb, "synth", via, "dispatch");
    }
    if spec.benign_noise {
        noise::benign_guard(&mut pb, "synthb", "dispatch");
    }
    if spec.serial_noise {
        noise::quorum_barrier(&mut pb, "synthq", via);
        pb.func("synth_acker", &["hub", "d"], FuncKind::Regular, move |b| {
            b.sleep(Expr::local("d"));
            send(
                b,
                rpc,
                Expr::local("hub"),
                "synthq_ack",
                vec![Expr::SelfNode],
            );
        });
    }
    noise::local_churn(&mut pb, "synth_churn", spec.churn_iters);

    let program = pb
        .build()
        .unwrap_or_else(|e| panic!("{}: generated program must build: {e:?}", spec.id()));

    // ---- topology ----------------------------------------------------------
    let hub_name = match spec.protocol {
        Protocol::LeaderElection => "Tracker",
        Protocol::TwoPhaseCommit => "Coordinator",
        Protocol::PrimaryBackup => "Primary",
        Protocol::Gossip => "SeedNode",
    };
    let mut topology = Topology::new();
    {
        let mut nb = topology.node(hub_name);
        nb.queue("dispatch", 1).rpc_workers(3).socket_workers(3);
    }
    for w in 1..=spec.workers {
        // two workers per channel so planted handler pairs run
        // concurrently instead of serializing on one thread
        topology
            .node(format!("W{w}"))
            .rpc_workers(2)
            .socket_workers(2);
    }
    topology.node("Client");

    let entry = |topology: &mut Topology, n: u32, func: &str, args: Vec<Value>| {
        topology.nodes[n as usize]
            .entries
            .push((func.to_owned(), args));
    };
    match spec.protocol {
        Protocol::LeaderElection => {
            for w in 1..=spec.workers {
                entry(
                    &mut topology,
                    w,
                    "le_campaign",
                    vec![
                        Value::Node(NodeId(hub)),
                        Value::Int(i64::from(w)),
                        Value::Int(5 + i64::from(w) * 3),
                    ],
                );
            }
            entry(&mut topology, hub, "le_announce", vec![]);
        }
        Protocol::Gossip => {
            for w in 1..=spec.workers {
                entry(
                    &mut topology,
                    w,
                    &format!("gsp_member_{w}"),
                    vec![Value::Int(5 + i64::from(w) * 3)],
                );
            }
        }
        Protocol::TwoPhaseCommit | Protocol::PrimaryBackup => {}
    }
    for c in 0..spec.clients {
        entry(
            &mut topology,
            client_node,
            "synth_client",
            vec![
                Value::Node(NodeId(hub)),
                Value::Str(format!("c{c}")),
                Value::Int(3 + i64::from(c) * 4),
            ],
        );
    }
    for bug in &spec.bugs {
        let host = Value::Node(NodeId(bug.host));
        entry(
            &mut topology,
            client_node,
            &format!("synth_setter_{}", bug.index),
            vec![host.clone()],
        );
        entry(
            &mut topology,
            client_node,
            &format!("synth_checker_{}", bug.index),
            vec![host],
        );
    }
    if spec.stats_noise {
        entry(&mut topology, hub, "synth_stat_kicker", vec![]);
    }
    if spec.benign_noise {
        entry(&mut topology, hub, "synthb_phase_kicker", vec![]);
    }
    if spec.serial_noise {
        entry(
            &mut topology,
            hub,
            "synthq_wait",
            vec![Value::Node(NodeId(1))],
        );
        for (w, d) in [(1u32, 55i64), (2, 85)] {
            entry(
                &mut topology,
                w,
                "synth_acker",
                vec![Value::Node(NodeId(hub)), Value::Int(d)],
            );
        }
    }
    entry(&mut topology, client_node, "synth_churn", vec![]);

    let (error, root) = match spec.bugs.first().map(|b| b.kind) {
        Some(RootCause::OrderViolation) => {
            (ErrorPattern::DistributedExplicit, RootCause::OrderViolation)
        }
        Some(RootCause::AtomicityViolation) => (
            ErrorPattern::DistributedExplicit,
            RootCause::AtomicityViolation,
        ),
        None => (ErrorPattern::LocalExplicit, RootCause::OrderViolation),
    };
    let system = match spec.protocol {
        Protocol::LeaderElection => System::ZooKeeper,
        Protocol::TwoPhaseCommit => System::HBase,
        Protocol::PrimaryBackup => System::MapReduce,
        Protocol::Gossip => System::Cassandra,
    };
    let bench = Benchmark {
        id: intern(spec.id()),
        system,
        workload: "generated protocol scenario",
        symptom: "planted race (ground truth known)",
        error,
        root,
        program,
        topology,
        seed: spec.seed,
        bug_objects: truth.iter().map(|b| intern(b.object.clone())).collect(),
        scale: 1,
    };
    SynthScenario {
        spec: spec.clone(),
        bench,
        truth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcatch_sim::{FaultPlan, SimConfig, World};

    #[test]
    fn specs_are_deterministic_per_seed() {
        for seed in [0u64, 1, 7, 42, 1011] {
            let p = SynthParams {
                seed,
                ..SynthParams::default()
            };
            assert_eq!(ScenarioSpec::from_params(&p), ScenarioSpec::from_params(&p));
        }
    }

    #[test]
    fn spec_json_round_trips() {
        for seed in 0..40u64 {
            let spec = ScenarioSpec::from_params(&SynthParams {
                seed,
                ..SynthParams::default()
            });
            let back = ScenarioSpec::from_json(&spec.to_json()).expect("round trip");
            assert_eq!(spec, back, "seed {seed}");
        }
    }

    #[test]
    fn generated_fault_plans_parse() {
        for seed in 0..60u64 {
            let spec = ScenarioSpec::from_params(&SynthParams {
                seed,
                ..SynthParams::default()
            });
            FaultPlan::parse(&spec.fault_plan)
                .unwrap_or_else(|e| panic!("seed {seed}: generated plan must parse: {e}"));
        }
    }

    #[test]
    fn shrink_steps_strictly_shrink() {
        let mut multi_line = 0;
        for seed in 0..40u64 {
            let spec = ScenarioSpec::from_params(&SynthParams {
                seed,
                bugs: Some(2),
                ..SynthParams::default()
            });
            let lines = |s: &ScenarioSpec| s.fault_plan.lines().filter(|l| !l.is_empty()).count();
            let mut plan_steps = 0;
            for (i, s) in spec.shrink_steps().iter().enumerate() {
                assert!(
                    s.size() < spec.size(),
                    "seed {seed} step {i}: {} !< {}",
                    s.size(),
                    spec.size()
                );
                assert!(s.fan_out >= 1 && s.fan_out <= s.workers);
                assert!(s.workers >= 2 && s.clients >= 1 && s.rounds >= 1);
                assert!(s.bugs.iter().all(|b| b.host <= s.workers));
                FaultPlan::parse(&s.fault_plan)
                    .unwrap_or_else(|e| panic!("seed {seed} step {i}: {e}"));
                if s.fault_plan != spec.fault_plan {
                    // emptied, or one line dropped from several
                    assert!(lines(s) == 0 || lines(s) + 1 == lines(&spec));
                    plan_steps += 1;
                }
            }
            let n = lines(&spec);
            assert_eq!(plan_steps, if n > 1 { n + 1 } else { n }, "seed {seed}");
            multi_line += usize::from(n > 1);
        }
        assert!(multi_line > 0, "no seed planned several faults");
    }

    /// A plan of two lines shrinks to nothing or to either line alone, so
    /// a discrepancy that one line causes keeps that line and sheds the
    /// other (`SYNTH-GOSSIP-s339`'s throw comes from its delay line).
    #[test]
    fn a_two_line_plan_offers_both_one_line_plans() {
        let spec = ScenarioSpec::from_params(&SynthParams {
            seed: 339,
            protocol: Some(Protocol::Gossip),
            ..SynthParams::default()
        });
        let (delay, timeout) = ("delay any steps=5 nth=3\n", "timeout after=4000\n");
        assert_eq!(spec.fault_plan, format!("{delay}{timeout}"));
        let plans: Vec<String> = spec
            .shrink_steps()
            .into_iter()
            .map(|s| s.fault_plan)
            .filter(|p| *p != spec.fault_plan)
            .collect();
        assert_eq!(plans, ["", timeout, delay]);
    }

    #[test]
    fn natural_runs_are_correct_across_protocols_and_seeds() {
        for proto in Protocol::all() {
            for seed in [1u64, 7, 42] {
                let spec = ScenarioSpec::from_params(&SynthParams {
                    seed,
                    protocol: Some(proto),
                    bugs: Some(2),
                    ..SynthParams::default()
                });
                let sc = generate(&spec);
                let run = World::run_once(
                    &sc.bench.program,
                    &sc.bench.topology,
                    SimConfig::default().with_seed(sc.bench.seed),
                )
                .unwrap_or_else(|e| panic!("{}: {e}", sc.bench.id));
                assert!(
                    run.failures.is_empty(),
                    "{} natural run must be correct: {:?}",
                    sc.bench.id,
                    run.failures
                );
                assert!(run.completed, "{} must reach quiescence", sc.bench.id);
                assert_eq!(sc.truth.len(), 2, "{}", sc.bench.id);
            }
        }
    }
}
