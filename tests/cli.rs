//! The command-line grammar: each subcommand's flag table (`dcatch::cli`)
//! drives its parser, its usage text, its `--help` and its `--resume`
//! fingerprint, and README.md names every flag a table declares.

use std::process::{Command, Output};

use dcatch::cli::{self, COMMANDS};

fn dcatch(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dcatch"))
        .args(args)
        .output()
        .expect("dcatch runs")
}

/// `dcatch <command> args…` is a usage error: exit 1, the subcommand's
/// synopsis on stderr, nothing on stdout.
fn assert_usage_error(command: &cli::Command, args: &[&str], why: &str) {
    let output = dcatch(&[&[command.name], args].concat());
    let stderr = String::from_utf8_lossy(&output.stderr);
    let call = format!("dcatch {} {}", command.name, args.join(" "));
    assert_eq!(output.status.code(), Some(1), "{call}: {why}\n{stderr}");
    assert!(stderr.contains(&command.usage()), "{call}: {why}\n{stderr}");
    assert!(output.stdout.is_empty(), "{call}: {why}");
}

fn command(name: &str) -> &'static cli::Command {
    COMMANDS
        .iter()
        .find(|c| c.name == name)
        .expect("a subcommand")
}

/// A value each positional accepts.
fn sample(metavar: &str) -> &'static str {
    match metavar {
        "<OBJECT>" => "jMap",
        "<N>" => "7",
        _ => "MR-3274",
    }
}

#[test]
fn every_subcommand_rejects_malformed_arguments_with_its_usage() {
    for command in COMMANDS {
        let positionals: Vec<&str> = command.positionals.iter().map(|m| sample(m)).collect();
        let with = |extra: &[&'static str]| [&positionals[..], extra].concat();
        assert_usage_error(command, &with(&["--no-such-flag"]), "unknown flag");
        assert_usage_error(command, &with(&["stray"]), "stray positional");
        if !positionals.is_empty() {
            assert_usage_error(command, &positionals[1..], "missing positional");
        }
        for flag in command.flags {
            let once = match flag.value {
                Some(_) => vec![flag.name, "1"],
                None => vec![flag.name],
            };
            assert_usage_error(command, &with(&[&once[..], &once[..]].concat()), "repeated");
            if flag.value.is_some() {
                assert_usage_error(command, &with(&[flag.name]), "missing value");
                assert_usage_error(command, &with(&[flag.name, "--json"]), "`--` value");
            }
        }
    }
}

/// The two ways the flag lookups used to misread a command line: a
/// repeated flag ran with its first value, and `explain` took a flag for
/// its OBJECT.
#[test]
fn a_flag_is_never_half_honoured_or_taken_for_a_positional() {
    let detect = command("detect");
    let args = ["MR-3274", "--no-trigger", "--seed", "1", "--seed", "2"];
    assert_usage_error(detect, &args, "repeated flag");
    let explain = command("explain");
    assert_usage_error(explain, &["MR-3274", "--json"], "a flag is no OBJECT");
    let output = dcatch(&["explain", "MR-3274", "--json"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.starts_with("missing <OBJECT>"), "{stderr}");
}

#[test]
fn help_prints_the_synopsis_and_a_line_per_row() {
    for command in COMMANDS {
        let output = dcatch(&[command.name, "--help"]);
        assert_eq!(output.status.code(), Some(0), "{} --help", command.name);
        let stdout = String::from_utf8(output.stdout).expect("utf-8");
        assert!(stdout.starts_with(&command.usage()), "{stdout}");
        for flag in command.flags {
            let line = stdout
                .lines()
                .find(|l| l.split_whitespace().next() == Some(flag.name));
            assert!(
                line.is_some_and(|l| l.contains(flag.help)),
                "`dcatch {} --help` has no line for `{}`:\n{stdout}",
                command.name,
                flag.name
            );
        }
    }
}

/// Every row that shapes a journaled `detect` entry moves the `--resume`
/// fingerprint and every other row leaves it alone; a fault plan counts by
/// its parsed content, not its file.
#[test]
fn detect_fingerprint_follows_the_shaping_rows() {
    let dir = std::env::temp_dir().join(format!("dcatch-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let plan = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).expect("write plan");
        path.to_str().expect("utf-8 path").to_owned()
    };
    let drop_2nd = plan("a.plan", "drop rpc nth=2\n");
    let detect = command("detect");
    let fp = |args: &[&str]| {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let parsed = cli::parse(detect, &args)
            .expect("parses")
            .expect("not --help");
        cli::fingerprint(&parsed).expect("fingerprints")
    };
    let base = fp(&["all"]);
    assert_ne!(fp(&["MR-3274"]), base, "the BUG-ID shapes the batch");
    for flag in detect.flags {
        let given = match flag.value {
            Some(_) if flag.name == "--fault-plan" => fp(&["all", flag.name, &drop_2nd]),
            Some(_) => fp(&["all", flag.name, "3"]),
            None => fp(&["all", flag.name]),
        };
        assert_eq!(given != base, flag.shapes, "`{}` {given}", flag.name);
        if let Some(default) = flag.default {
            assert_eq!(fp(&["all", flag.name, default]), base, "`{}`", flag.name);
        }
    }
    let same = plan("b.plan", "# the same plan, commented\ndrop rpc nth=2\n");
    let other = plan("c.plan", "drop rpc nth=3\n");
    let with_plan = |path: &str| fp(&["all", "--fault-plan", path]);
    assert_eq!(with_plan(&drop_2nd), with_plan(&same));
    assert_ne!(with_plan(&drop_2nd), with_plan(&other));
    let _ = std::fs::remove_dir_all(&dir);
}

/// README.md names every flag a table declares, so the two cannot drift.
#[test]
fn readme_documents_every_flag() {
    let readme = include_str!("../README.md");
    let named = |name: &str| {
        readme.match_indices(name).any(|(i, _)| {
            let next = readme[i + name.len()..].chars().next();
            !next.is_some_and(|c| c.is_ascii_alphanumeric() || c == '-')
        })
    };
    for command in COMMANDS {
        for flag in command.flags {
            assert!(
                named(flag.name),
                "README.md never names `{}` (dcatch {})",
                flag.name,
                command.name
            );
        }
    }
}

/// A zero `--timeout` raced each run against its own watchdog, so it is
/// refused, pointing at `--time-budget 0`; a zero `--jobs`,
/// `--trigger-jobs` or `--count` is refused instead of read as 1, a zero
/// `--scale` instead of running the workload with its scaled loops removed,
/// a zero `--records` instead of streaming a minimum-length trace, a zero
/// `--stream-window` instead of a window that keeps one entry, and a zero
/// `--nodes`, `--clients` or `--fan-out` instead of generating with 2, 1
/// or 1 while the `--resume` fingerprint records 0.
#[test]
fn a_zero_timeout_or_count_is_refused() {
    let mut refused = 0;
    for command in COMMANDS {
        for flag in [
            "--timeout",
            "--jobs",
            "--trigger-jobs",
            "--count",
            "--scale",
            "--records",
            "--stream-window",
            "--nodes",
            "--clients",
            "--fan-out",
        ] {
            if command.flags.iter().all(|f| f.name != flag) {
                continue;
            }
            let mut args = vec![command.name];
            args.extend(command.positionals.iter().map(|m| sample(m)));
            args.extend([flag, "0"]);
            let output = dcatch(&args);
            let stderr = String::from_utf8_lossy(&output.stderr);
            let why = match flag {
                "--timeout" => "--time-budget 0".to_owned(),
                _ => format!("invalid value `0` for `{flag}`"),
            };
            assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(stderr.contains(&why), "{args:?}: {stderr}");
            assert!(output.stdout.is_empty(), "{args:?}");
            refused += 1;
        }
    }
    // --timeout on detect, synth and faults; --jobs on detect and synth;
    // --trigger-jobs on all three; --count on synth; --scale on detect,
    // stats, trace, timeline, faults and tables; --records on streambench;
    // --stream-window on detect and streambench; --nodes, --clients and
    // --fan-out on synth
    assert_eq!(refused, 21);
    // a scenario has at least two worker nodes
    let output = dcatch(&["synth", "--nodes", "1"]);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("invalid value `1` for `--nodes`"),
        "{stderr}"
    );
    assert!(output.stdout.is_empty());
}

/// `tables` names one of the paper's nine tables, and takes only the
/// flags that table reads, with a well-formed value: `table6 abc` used to
/// run at the default scale and `table8 160 bogus` to panic.
#[test]
fn tables_refuses_a_table_or_flag_it_does_not_have() {
    for (args, why) in [
        (&["tables", "0"][..], "no table `0`"),
        (&["tables", "10"], "no table `10`"),
        (
            &["tables", "4", "--scale", "8"],
            "table 4 does not read `--scale`",
        ),
        (
            &["tables", "6", "--scale", "abc"],
            "invalid value `abc` for `--scale`",
        ),
        (
            &["tables", "6", "--reachability", "bogus"],
            "unknown reachability engine `bogus`",
        ),
    ] {
        let output = dcatch(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(why), "{args:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}

/// `detect --profile`'s stage line names every Table 6 stage, base first,
/// then the total they add up to.
#[test]
fn profile_line_names_every_stage() {
    let dir = std::env::temp_dir().join(format!("dcatch-profile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let timeline = dir.join("profile.trace.json");
    let output = dcatch(&[
        "detect",
        "MR-3274",
        "--no-trigger",
        "--profile",
        "--profile-out",
        timeline.to_str().expect("utf-8 path"),
    ]);
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(output.status.code(), Some(0), "{stdout}");
    let line = stdout
        .lines()
        .find_map(|l| l.trim().strip_prefix("profile: base "))
        .map(|rest| format!("base {rest}"))
        .unwrap_or_else(|| panic!("no stage line starting with base:\n{stdout}"));
    let names: Vec<&str> = line
        .split(" | ")
        .map(|stage| stage.split_whitespace().next().expect("a stage name"))
        .collect();
    assert_eq!(
        names,
        [
            "base",
            "tracing",
            "streaming",
            "analysis",
            "pruning",
            "loop-sync",
            "triggering",
            "total"
        ],
        "{line}"
    );
}
