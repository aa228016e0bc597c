//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes *environment* perturbations — message drops,
//! delays and duplications, node crashes with optional restarts, and RPC
//! timeouts — that the [`World`](crate::World) applies at fixed,
//! seed-independent points of the execution. The plan itself is
//! deterministic: the same (seed, program, topology, plan) quadruple
//! always produces the same trace, which keeps DCatch's predictive
//! analyses replayable under faults exactly as they are without them.
//!
//! An **empty plan is a strict no-op**: the simulator takes the same
//! scheduling decisions and emits a byte-identical trace (property-tested
//! in `crates/sim/tests/proptests.rs`).
//!
//! Plans also have a line-based text form for the `--fault-plan <file>`
//! CLI flag; see [`FaultPlan::parse`].

use std::fmt;

use dcatch_model::NodeId;

/// Which network channel a [`MessageFault`] matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelKind {
    /// RPC request messages (caller → callee).
    RpcRequest,
    /// RPC reply messages (callee → caller).
    RpcReply,
    /// Asynchronous socket messages.
    Socket,
    /// ZooKeeper watcher notifications.
    ZkNotify,
    /// Any of the above.
    Any,
}

impl ChannelKind {
    fn text(self) -> &'static str {
        match self {
            ChannelKind::RpcRequest => "rpc",
            ChannelKind::RpcReply => "reply",
            ChannelKind::Socket => "socket",
            ChannelKind::ZkNotify => "zk",
            ChannelKind::Any => "any",
        }
    }
}

/// What happens to a message matched by a [`MessageFault`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageAction {
    /// The message is silently lost.
    Drop,
    /// Delivery is withheld for this many scheduler steps.
    Delay(u64),
    /// The message is delivered twice (at-least-once delivery).
    Duplicate,
}

/// A message-level fault: every send matching the channel pattern (and,
/// optionally, only the `nth` such send) suffers `action`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageFault {
    /// Channel to match.
    pub channel: ChannelKind,
    /// Only messages sent by this node (None = any sender).
    pub from: Option<NodeId>,
    /// Only messages destined to this node (None = any receiver).
    pub to: Option<NodeId>,
    /// Only the k-th (1-based) matching send; None = every match.
    pub nth: Option<u64>,
    /// The perturbation applied.
    pub action: MessageAction,
}

impl MessageFault {
    /// A fault matching every message on `channel`.
    pub fn new(channel: ChannelKind, action: MessageAction) -> MessageFault {
        MessageFault {
            channel,
            from: None,
            to: None,
            nth: None,
            action,
        }
    }

    /// Restricts the fault to messages sent by `node`.
    pub fn from_node(mut self, node: NodeId) -> MessageFault {
        self.from = Some(node);
        self
    }

    /// Restricts the fault to messages destined to `node`.
    pub fn to_node(mut self, node: NodeId) -> MessageFault {
        self.to = Some(node);
        self
    }

    /// Restricts the fault to the k-th (1-based) matching send.
    pub fn nth(mut self, k: u64) -> MessageFault {
        self.nth = Some(k);
        self
    }

    /// Whether a send on `channel` from `from` to `to` matches this
    /// fault's pattern (ignoring the `nth` counter).
    pub fn applies(&self, channel: ChannelKind, from: NodeId, to: NodeId) -> bool {
        (self.channel == ChannelKind::Any || self.channel == channel)
            && self.from.is_none_or(|n| n == from)
            && self.to.is_none_or(|n| n == to)
    }
}

/// A node crash at a fixed scheduler step, with an optional rebirth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashFault {
    /// The node to crash.
    pub node: NodeId,
    /// Scheduler step at which the crash fires.
    pub at_step: u64,
    /// If set, the node restarts (fresh heap, fresh workers, entries
    /// re-run) this many steps after the crash.
    pub restart_after: Option<u64>,
}

/// An RPC timeout policy: callers blocked on an RPC for at least `after`
/// steps give up, receive `null`, and continue (their retry loops model
/// the client-side retry).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeoutFault {
    /// Only callers on this node (None = any node).
    pub from: Option<NodeId>,
    /// Blocked steps before the timeout fires.
    pub after: u64,
}

/// A deterministic fault-injection plan. The default plan is empty and
/// provably changes nothing about the execution.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Message-level faults (drop/delay/duplicate).
    pub messages: Vec<MessageFault>,
    /// Node crashes.
    pub crashes: Vec<CrashFault>,
    /// RPC timeout policies.
    pub rpc_timeouts: Vec<TimeoutFault>,
    /// Chaos hook: panic the *host* interpreter at this step — or, when a
    /// quiescent clock jump skips it, at the first step after it. Used to
    /// test that the detection pipeline survives a crashing benchmark;
    /// never useful for modelling distributed-system faults.
    pub panic_at_step: Option<u64>,
}

impl FaultPlan {
    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
            && self.crashes.is_empty()
            && self.rpc_timeouts.is_empty()
            && self.panic_at_step.is_none()
    }

    /// The step at which a caller on `node`, blocked on an RPC since step
    /// `since`, gives up under this plan (`None`: no policy matches it).
    pub(crate) fn rpc_deadline(&self, node: NodeId, since: u64) -> Option<u64> {
        self.rpc_timeouts
            .iter()
            .filter(|f| f.from.is_none_or(|n| n == node))
            .map(|f| since.saturating_add(f.after))
            .min()
    }

    /// Adds a message fault.
    pub fn with_message(mut self, fault: MessageFault) -> FaultPlan {
        self.messages.push(fault);
        self
    }

    /// Adds a crash of `node` at `at_step`, restarting after
    /// `restart_after` steps if given.
    pub fn with_crash(
        mut self,
        node: NodeId,
        at_step: u64,
        restart_after: Option<u64>,
    ) -> FaultPlan {
        self.crashes.push(CrashFault {
            node,
            at_step,
            restart_after,
        });
        self
    }

    /// Adds an RPC timeout policy.
    pub fn with_rpc_timeout(mut self, from: Option<NodeId>, after: u64) -> FaultPlan {
        self.rpc_timeouts.push(TimeoutFault { from, after });
        self
    }

    /// Adds the host-panic chaos hook.
    pub fn with_panic_at(mut self, step: u64) -> FaultPlan {
        self.panic_at_step = Some(step);
        self
    }

    /// Parses the text form: one directive per line, `#` comments.
    ///
    /// ```text
    /// # message faults: <verb> <channel> [key=value...]
    /// drop socket nth=2
    /// delay rpc steps=40 from=0 to=1
    /// dup zk nth=1
    /// # node crashes
    /// crash node=1 at=150 restart=80
    /// # rpc timeouts
    /// timeout after=100 from=0
    /// # chaos hook
    /// panic at=10
    /// ```
    pub fn parse(text: &str) -> Result<FaultPlan, FaultPlanError> {
        let mut plan = FaultPlan::default();
        for (lineno, raw) in text.lines().enumerate() {
            // strip the comment on the raw line so token columns stay
            // 1-based offsets into what the user actually wrote
            let effective = match raw.find('#') {
                Some(i) => &raw[..i],
                None => raw,
            };
            let tokens = tokenize(effective);
            let Some(&(verb_column, verb)) = tokens.first() else {
                continue;
            };
            let line = lineno + 1;
            let e = |column: usize, msg: String| FaultPlanError {
                line,
                column,
                message: msg,
            };
            let rest = &tokens[1..];
            match verb {
                "drop" | "delay" | "dup" => {
                    let channel = match rest.first() {
                        Some(&(_, "rpc")) => ChannelKind::RpcRequest,
                        Some(&(_, "reply")) => ChannelKind::RpcReply,
                        Some(&(_, "socket")) => ChannelKind::Socket,
                        Some(&(_, "zk")) => ChannelKind::ZkNotify,
                        Some(&(_, "any")) => ChannelKind::Any,
                        Some(&(column, other)) => {
                            return Err(e(
                                column,
                                format!(
                                    "`{verb}` needs a channel (rpc/reply/socket/zk/any), \
                                     got `{other}`"
                                ),
                            ))
                        }
                        None => {
                            return Err(e(
                                verb_column,
                                format!("`{verb}` needs a channel (rpc/reply/socket/zk/any)"),
                            ))
                        }
                    };
                    let allowed: &[&str] = match verb {
                        "delay" => &["steps", "from", "to", "nth"],
                        _ => &["from", "to", "nth"],
                    };
                    let kv = parse_kv(&rest[1..], verb, allowed, line)?;
                    let action = match verb {
                        "drop" => MessageAction::Drop,
                        "dup" => MessageAction::Duplicate,
                        _ => MessageAction::Delay(
                            kv_num(&kv, "steps", line)?
                                .ok_or_else(|| e(verb_column, "`delay` needs steps=N".into()))?,
                        ),
                    };
                    plan.messages.push(MessageFault {
                        channel,
                        from: kv_num(&kv, "from", line)?.map(|n| NodeId(n as u32)),
                        to: kv_num(&kv, "to", line)?.map(|n| NodeId(n as u32)),
                        nth: kv_num(&kv, "nth", line)?,
                        action,
                    });
                }
                "crash" => {
                    let kv = parse_kv(rest, verb, &["node", "at", "restart"], line)?;
                    let node = kv_num(&kv, "node", line)?
                        .ok_or_else(|| e(verb_column, "`crash` needs node=N".into()))?;
                    let at = kv_num(&kv, "at", line)?
                        .ok_or_else(|| e(verb_column, "`crash` needs at=STEP".into()))?;
                    plan.crashes.push(CrashFault {
                        node: NodeId(node as u32),
                        at_step: at,
                        restart_after: kv_num(&kv, "restart", line)?,
                    });
                }
                "timeout" => {
                    let kv = parse_kv(rest, verb, &["after", "from"], line)?;
                    let after = kv_num(&kv, "after", line)?
                        .ok_or_else(|| e(verb_column, "`timeout` needs after=STEPS".into()))?;
                    plan.rpc_timeouts.push(TimeoutFault {
                        from: kv_num(&kv, "from", line)?.map(|n| NodeId(n as u32)),
                        after,
                    });
                }
                "panic" => {
                    let kv = parse_kv(rest, verb, &["at"], line)?;
                    let at = kv_num(&kv, "at", line)?
                        .ok_or_else(|| e(verb_column, "`panic` needs at=STEP".into()))?;
                    plan.panic_at_step = Some(at);
                }
                other => return Err(e(verb_column, format!("unknown fault directive `{other}`"))),
            }
        }
        Ok(plan)
    }

    /// Serializes the plan back to its text form ([`FaultPlan::parse`] is
    /// its inverse).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for m in &self.messages {
            let verb = match m.action {
                MessageAction::Drop => "drop",
                MessageAction::Delay(_) => "delay",
                MessageAction::Duplicate => "dup",
            };
            out.push_str(verb);
            out.push(' ');
            out.push_str(m.channel.text());
            if let MessageAction::Delay(s) = m.action {
                out.push_str(&format!(" steps={s}"));
            }
            if let Some(n) = m.from {
                out.push_str(&format!(" from={}", n.0));
            }
            if let Some(n) = m.to {
                out.push_str(&format!(" to={}", n.0));
            }
            if let Some(k) = m.nth {
                out.push_str(&format!(" nth={k}"));
            }
            out.push('\n');
        }
        for c in &self.crashes {
            out.push_str(&format!("crash node={} at={}", c.node.0, c.at_step));
            if let Some(r) = c.restart_after {
                out.push_str(&format!(" restart={r}"));
            }
            out.push('\n');
        }
        for t in &self.rpc_timeouts {
            out.push_str(&format!("timeout after={}", t.after));
            if let Some(n) = t.from {
                out.push_str(&format!(" from={}", n.0));
            }
            out.push('\n');
        }
        if let Some(s) = self.panic_at_step {
            out.push_str(&format!("panic at={s}\n"));
        }
        out
    }
}

/// Splits a line into whitespace-separated tokens with their 1-based
/// byte columns, so every diagnostic can point at the offending token.
fn tokenize(line: &str) -> Vec<(usize, &str)> {
    let mut tokens = Vec::new();
    let mut start = None;
    for (i, c) in line.char_indices() {
        if c.is_whitespace() {
            if let Some(s) = start.take() {
                tokens.push((s + 1, &line[s..i]));
            }
        } else if start.is_none() {
            start = Some(i);
        }
    }
    if let Some(s) = start {
        tokens.push((s + 1, &line[s..]));
    }
    tokens
}

/// Parses `key=value` tokens, rejecting malformed pairs, keys `verb` does
/// not understand, and duplicates — each with the column of the bad token.
fn parse_kv<'a>(
    tokens: &[(usize, &'a str)],
    verb: &str,
    allowed: &[&str],
    line: usize,
) -> Result<Vec<(&'a str, &'a str, usize)>, FaultPlanError> {
    let mut kv: Vec<(&str, &str, usize)> = Vec::new();
    for &(column, word) in tokens {
        let e = |msg: String| FaultPlanError {
            line,
            column,
            message: msg,
        };
        let (k, v) = word
            .split_once('=')
            .ok_or_else(|| e(format!("expected key=value, got `{word}`")))?;
        if !allowed.contains(&k) {
            return Err(e(format!(
                "`{verb}` does not take `{k}` (allowed: {})",
                allowed.join("/")
            )));
        }
        if kv.iter().any(|(prev, _, _)| *prev == k) {
            return Err(e(format!("duplicate key `{k}`")));
        }
        kv.push((k, v, column));
    }
    Ok(kv)
}

fn kv_num(
    kv: &[(&str, &str, usize)],
    key: &str,
    line: usize,
) -> Result<Option<u64>, FaultPlanError> {
    match kv.iter().find(|(k, _, _)| *k == key) {
        None => Ok(None),
        Some((_, v, column)) => v.parse().map(Some).map_err(|_| FaultPlanError {
            line,
            column: *column,
            message: format!("bad numeric value for `{key}`: `{v}`"),
        }),
    }
}

/// Error from [`FaultPlan::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanError {
    /// 1-based line of the offending directive.
    pub line: usize,
    /// 1-based byte column of the offending token within that line.
    pub column: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fault plan line {}, column {}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for FaultPlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_empty() {
        assert!(FaultPlan::default().is_empty());
        assert_eq!(FaultPlan::default().to_text(), "");
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
    }

    #[test]
    fn parse_roundtrips() {
        let plan = FaultPlan::default()
            .with_message(
                MessageFault::new(ChannelKind::Socket, MessageAction::Drop)
                    .nth(2)
                    .to_node(NodeId(1)),
            )
            .with_message(
                MessageFault::new(ChannelKind::RpcRequest, MessageAction::Delay(40))
                    .from_node(NodeId(0)),
            )
            .with_message(MessageFault::new(ChannelKind::ZkNotify, MessageAction::Duplicate).nth(1))
            .with_crash(NodeId(1), 150, Some(80))
            .with_crash(NodeId(2), 500, None)
            .with_rpc_timeout(Some(NodeId(0)), 100)
            .with_rpc_timeout(None, 300)
            .with_panic_at(10);
        let text = plan.to_text();
        assert_eq!(FaultPlan::parse(&text).unwrap(), plan);
    }

    #[test]
    fn parse_accepts_comments_and_blanks() {
        let plan =
            FaultPlan::parse("# header\n\n  drop any   # trailing\ncrash node=0 at=5\n").unwrap();
        assert_eq!(plan.messages.len(), 1);
        assert_eq!(plan.crashes.len(), 1);
        assert_eq!(plan.messages[0].channel, ChannelKind::Any);
        assert_eq!(plan.messages[0].action, MessageAction::Drop);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("explode").is_err());
        assert!(FaultPlan::parse("drop").is_err());
        assert!(FaultPlan::parse("delay socket").is_err());
        assert!(FaultPlan::parse("crash node=0").is_err());
        assert!(FaultPlan::parse("timeout").is_err());
        assert!(FaultPlan::parse("crash node=x at=1").is_err());
        let err = FaultPlan::parse("drop any\nnope").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn parse_errors_carry_token_columns() {
        // the bad channel token starts at column 7 of `drop  bogus`
        let err = FaultPlan::parse("drop  bogus").unwrap_err();
        assert_eq!((err.line, err.column), (1, 7));
        // the malformed value token of `crash node=x at=1`
        let err = FaultPlan::parse("crash node=x at=1").unwrap_err();
        assert_eq!((err.line, err.column), (1, 7));
        assert!(err.to_string().contains("column 7"), "{err}");
        // comments do not shift columns: the bad token is still at 12
        let err = FaultPlan::parse("  crash at=1 node=y # trailing").unwrap_err();
        assert_eq!((err.line, err.column), (1, 14));
    }

    #[test]
    fn parse_rejects_unknown_and_duplicate_keys() {
        let err = FaultPlan::parse("drop any steps=3").unwrap_err();
        assert!(err.message.contains("does not take `steps`"), "{err}");
        let err = FaultPlan::parse("crash node=1 at=5 node=2").unwrap_err();
        assert!(err.message.contains("duplicate key `node`"), "{err}");
        let err = FaultPlan::parse("timeout after=10 nth=2").unwrap_err();
        assert!(err.message.contains("allowed: after/from"), "{err}");
    }

    #[test]
    fn pattern_matching_respects_fields() {
        let f = MessageFault::new(ChannelKind::Socket, MessageAction::Drop)
            .from_node(NodeId(0))
            .to_node(NodeId(1));
        assert!(f.applies(ChannelKind::Socket, NodeId(0), NodeId(1)));
        assert!(!f.applies(ChannelKind::Socket, NodeId(1), NodeId(0)));
        assert!(!f.applies(ChannelKind::RpcRequest, NodeId(0), NodeId(1)));
        let any = MessageFault::new(ChannelKind::Any, MessageAction::Duplicate);
        assert!(any.applies(ChannelKind::ZkNotify, NodeId(7), NodeId(9)));
    }
}
