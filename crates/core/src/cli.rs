//! The `dcatch` command line's grammar: one flag table per subcommand.
//!
//! A [`Command`] names its positionals and its [`Flag`] rows; a flag that
//! means the same in several subcommands is one shared row. The table is
//! where a flag is declared, and everything else reads it: [`parse`]
//! checks the arguments against it in one pass, [`Command::usage`] and
//! [`Command::help`] print it, and [`fingerprint`] pins a `--resume`
//! journal to the rows marked as shaping a journaled entry.

use std::fmt::Write as _;
use std::str::FromStr;

use dcatch_sim::FaultPlan;

/// One row of a subcommand's flag table.
#[derive(Debug)]
pub struct Flag {
    /// The flag itself, `--name`.
    pub name: &'static str,
    /// The value's metavar (`N`, `FILE`…); `None` for a switch.
    pub value: Option<&'static str>,
    /// The value an absent flag stands for.
    pub default: Option<&'static str>,
    /// Whether the value shapes a journaled entry: a `--resume` journal
    /// written under another value is refused.
    pub shapes: bool,
    /// One line of help.
    pub help: &'static str,
}

const fn switch(name: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        value: None,
        default: None,
        shapes: false,
        help,
    }
}

const fn valued(name: &'static str, metavar: &'static str, help: &'static str) -> Flag {
    let mut flag = switch(name, help);
    flag.value = Some(metavar);
    flag
}

impl Flag {
    /// `--name METAVAR`, or `--name` for a switch.
    fn spec(&self) -> String {
        match self.value {
            Some(metavar) => format!("{} {metavar}", self.name),
            None => self.name.to_owned(),
        }
    }

    const fn or(mut self, default: &'static str) -> Flag {
        self.default = Some(default);
        self
    }

    const fn shaping(mut self) -> Flag {
        self.shapes = true;
        self
    }
}

/// One subcommand: its positionals and its flag table.
#[derive(Debug)]
pub struct Command {
    /// `dcatch <name>`.
    pub name: &'static str,
    /// The positional arguments, all required, by metavar.
    pub positionals: &'static [&'static str],
    /// The flag table, in usage order.
    pub flags: &'static [Flag],
}

/// Every subcommand's table.
#[rustfmt::skip]
pub static COMMANDS: &[Command] = {
    // the rows several subcommands share
    const SCALE: Flag = valued("--scale", "N", "workload scale factor").or("1").shaping();
    const SEED: Flag = valued("--seed", "N", "scheduler seed (default: the benchmark's)").shaping();
    const FULL_TRACING: Flag =
        switch("--full-tracing", "unselective memory tracing (Table 8 mode)").shaping();
    const FAULT_PLAN: Flag = valued("--fault-plan", "FILE", "inject the faults in FILE").shaping();
    const STREAM_WINDOW: Flag =
        valued("--stream-window", "N", "resident window cap; beyond it evicts (lossy)").shaping();
    const JOBS: Flag = valued("--jobs", "N", "benchmarks or scenarios run at once").or("1");
    const TRIGGER_JOBS: Flag = valued("--trigger-jobs", "N", "work-stealing workers").or("1");
    const TIMEOUT: Flag =
        valued("--timeout", "SECS", "watchdog per benchmark, scenario or run").shaping();
    const MEM_BUDGET: Flag =
        valued("--mem-budget", "BYTES", "governor memory budget (512k, 64m, 1g)").shaping();
    const TIME_BUDGET: Flag =
        valued("--time-budget", "SECS", "governor time budget: then shed optional work").shaping();
    const RESUME: Flag = valued("--resume", "FILE", "journal finished entries; a rerun skips them");
    const VERBOSE: Flag = switch("--verbose", "stream span enter/exit lines to stderr");
    const JSON: Flag = switch("--json", "print machine-readable JSON instead of text");
    const OUT: Flag = valued("--out", "FILE", "write to FILE instead of stdout");
    &[
        Command { name: "list", positionals: &[], flags: &[] },
        Command { name: "detect", positionals: &["<BUG-ID|all>"], flags: &[
            SCALE, SEED, FULL_TRACING,
            switch("--no-prune", "skip static pruning").shaping(),
            switch("--no-loop-sync", "skip the loop/pull synchronization analysis").shaping(),
            switch("--no-trigger", "skip the triggering module").shaping(),
            switch("--streaming", "online single-pass detection, no stored trace").shaping(),
            STREAM_WINDOW,
            valued("--ablation", "K", "ignore one HB rule family: event|rpc|socket|push").shaping(),
            valued("--budget", "BYTES", "HB reachability index budget (64k, 64m, 1g)").shaping(),
            valued("--reachability", "E", "index: auto|matrix|clocks").or("auto").shaping(),
            FAULT_PLAN,
            valued("--fault-target", "ID", "apply the fault plan to benchmark ID only").shaping(),
            JOBS, TRIGGER_JOBS, TIMEOUT, MEM_BUDGET, TIME_BUDGET, RESUME,
            switch("--scrub-timings", "zero every wall-clock measurement in the report"),
            switch("--profile", "capture per-stage spans; write a Perfetto timeline"),
            valued("--profile-out", "FILE", "--profile's timeline file").or("profile.trace.json"),
            switch("--metrics", "print each run's counter deltas"),
            VERBOSE, JSON, OUT,
        ] },
        Command { name: "stats", positionals: &["<BUG-ID>"],
                  flags: &[SCALE, SEED, FULL_TRACING, JSON, OUT] },
        Command { name: "trace", positionals: &["<BUG-ID>"],
                  flags: &[SCALE, SEED, FULL_TRACING, OUT] },
        Command { name: "timeline", positionals: &["<BUG-ID>"],
                  flags: &[SCALE, SEED, FULL_TRACING, FAULT_PLAN, OUT] },
        Command { name: "explain", positionals: &["<BUG-ID>", "<OBJECT>"], flags: &[JSON, OUT] },
        Command { name: "faults", positionals: &["<BUG-ID|all>"], flags: &[
            SCALE,
            valued("--seeds", "CSV", "scheduler seeds of every scenario").or("1,2,3"),
            FAULT_PLAN, TRIGGER_JOBS, TIMEOUT, JSON, OUT,
        ] },
        Command { name: "synth", positionals: &[], flags: &[
            valued("--seed", "N", "generator base seed: scenario i uses N + i").or("1").shaping(),
            valued("--count", "N", "scenarios per protocol").or("1").shaping(),
            valued("--protocol", "P", "le|2pc|pb|gossip (default: all four)").shaping(),
            valued("--nodes", "K", "worker nodes per scenario").shaping(),
            valued("--clients", "C", "client threads per scenario").shaping(),
            valued("--fan-out", "F", "message fan-out per scenario").shaping(),
            valued("--bugs", "B", "bugs planted per scenario").shaping(),
            valued("--quarantine", "DIR", "where shrunk cases go").or("synth-quarantine").shaping(),
            switch("--no-shrink", "neither shrink nor quarantine discrepancies").shaping(),
            valued("--shrink-budget", "N", "shrinker runs per discrepancy").or("40").shaping(),
            valued("--replay", "FILE", "re-run one quarantined case"),
            valued("--fault-plan-out", "FILE", "write the one scenario's fault plan to FILE"),
            JOBS, TRIGGER_JOBS, TIMEOUT, MEM_BUDGET, TIME_BUDGET, RESUME, VERBOSE, JSON, OUT,
        ] },
        Command { name: "tables", positionals: &["<N>"], flags: &[
            valued("--scale", "N", "workload scale of tables 6, 7 and 8 (default 160)"),
            valued("--reachability", "E",
                   "index of tables 6 and 8: auto|matrix|clocks (default auto / matrix)"),
        ] },
        Command { name: "streambench", positionals: &[], flags: &[
            valued("--records", "N", "trace length to stream").or("1000000"),
            STREAM_WINDOW,
            valued("--seed", "N", "scheduler seed").or("7"),
            JSON, OUT,
        ] },
    ]
};

impl Command {
    /// The synopsis every usage error prints, wrapped at 80 columns.
    pub fn usage(&self) -> String {
        let mut text = format!("usage: dcatch {}", self.name);
        let indent = text.len();
        let flags = self.flags.iter().map(|f| format!("[{}]", f.spec()));
        for word in self.positionals.iter().map(|p| p.to_string()).chain(flags) {
            let line = text.len() - text.rfind('\n').map_or(0, |i| i + 1);
            if line + 1 + word.len() > 80 {
                let _ = write!(text, "\n{:indent$}", "");
            }
            let _ = write!(text, " {word}");
        }
        text
    }

    /// The synopsis plus one help line per flag (`dcatch <command> --help`).
    pub fn help(&self) -> String {
        let column = self.flags.iter().map(|f| f.spec().len()).max().unwrap_or(0);
        let mut text = self.usage();
        for f in self.flags {
            let default = f.default.map(|d| format!(" (default {d})"));
            let _ = write!(text, "\n  {:column$}  {}", f.spec(), f.help);
            text += &default.unwrap_or_default();
        }
        text
    }
}

/// A command line read against its subcommand's table.
#[derive(Debug)]
pub struct Parsed {
    /// The subcommand.
    pub command: &'static Command,
    /// The positional arguments, in order.
    pub positionals: Vec<String>,
    given: Vec<(&'static Flag, Option<String>)>,
}

/// Reads `args` — the words after the subcommand — against `command`'s
/// table in one pass; `Ok(None)` asks for `--help`. An unknown or
/// repeated flag, a valued flag with no value (or one that starts with
/// `--`), and a missing or extra positional are errors.
pub fn parse(command: &'static Command, args: &[String]) -> Result<Option<Parsed>, String> {
    let mut parsed = Parsed {
        command,
        positionals: Vec::new(),
        given: Vec::new(),
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with('-') {
            parsed.positionals.push(arg.clone());
            continue;
        }
        if arg == "--help" {
            return Ok(None);
        }
        let Some(flag) = command.flags.iter().find(|f| f.name == arg) else {
            return Err(format!("unknown flag `{arg}`"));
        };
        if parsed.given.iter().any(|(f, _)| f.name == flag.name) {
            return Err(format!("flag `{arg}` given twice"));
        }
        let value = flag.value.map(|_| match args.next() {
            Some(v) if !v.starts_with("--") => Ok(v.clone()),
            _ => Err(format!("flag `{arg}` requires a value")),
        });
        parsed.given.push((flag, value.transpose()?));
    }
    if let Some(missing) = command.positionals.get(parsed.positionals.len()) {
        return Err(format!("missing {missing}"));
    }
    if let Some(extra) = parsed.positionals.get(command.positionals.len()) {
        return Err(format!("unexpected argument `{extra}`"));
    }
    Ok(Some(parsed))
}

impl Parsed {
    /// Flag `name`'s entry, if it was given. A flag its subcommand does
    /// not have reads as absent, so code that several subcommands share
    /// reads whichever table it is given.
    fn given(&self, name: &str) -> Option<&Option<String>> {
        debug_assert!(
            COMMANDS
                .iter()
                .flat_map(|c| c.flags)
                .any(|f| f.name == name),
            "`{name}` is in no flag table"
        );
        let mut given = self.given.iter();
        given.find(|(f, _)| f.name == name).map(|(_, value)| value)
    }

    /// Whether flag `name` was given.
    pub fn on(&self, name: &str) -> bool {
        self.given(name).is_some()
    }

    /// The value of flag `name` as given, else its row's default.
    pub fn str(&self, name: &str) -> Option<&str> {
        match self.given(name) {
            Some(value) => value.as_deref(),
            None => self.command.flags.iter().find(|f| f.name == name)?.default,
        }
    }

    /// [`Parsed::str`], parsed: a malformed value is an error.
    pub fn get<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let Some(v) = self.str(name) else {
            return Ok(None);
        };
        let invalid = |_| format!("invalid value `{v}` for `{name}`");
        v.parse().map(Some).map_err(invalid)
    }

    /// [`Parsed::get`] of a row that has a default.
    pub fn value<T: FromStr>(&self, name: &str) -> Result<T, String> {
        Ok(self.get(name)?.expect("the row has a default"))
    }
}

/// The `--resume` journal fingerprint: the subcommand, its positionals,
/// and the value (or default) of every row that shapes a journaled entry
/// — a fault plan by its parsed content, not its file name.
pub fn fingerprint(parsed: &Parsed) -> Result<String, String> {
    let mut fp = format!("{} {:?}", parsed.command.name, parsed.positionals);
    for flag in parsed.command.flags.iter().filter(|f| f.shapes) {
        let value = match parsed.str(flag.name) {
            Some(path) if flag.name == "--fault-plan" => format!("={:?}", load_fault_plan(path)?),
            Some(value) => format!("={value}"),
            None if parsed.on(flag.name) => String::new(),
            None => continue,
        };
        let _ = write!(fp, " {}{value}", flag.name);
    }
    Ok(fp)
}

/// Reads and parses the fault plan in file `path`.
pub fn load_fault_plan(path: &str) -> Result<FaultPlan, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    FaultPlan::parse(&text).map_err(|e| format!("{path}: {e}"))
}
