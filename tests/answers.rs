//! Same answers: each command below runs against this build's `dcatch`,
//! in a scratch directory with stdout and stderr in one file (as `>out
//! 2>&1`), and its output, exit status appended, must equal the committed
//! `tests/answers/<slug>`. The list takes both indexes, every governor
//! rung, every `--streaming` variant, the `--timeout` thread, every record
//! kind of the seven miniatures (full traces, stored as FNV-1a digests)
//! and `explain` on every object `detect all` reports. The one scrub is
//! streambench's wall-clock `elapsed_ns`. A moved answer is written to
//! `target/answers/`; re-blessing it is copying that file over the
//! committed one.

use std::fs::{self, File};
use std::process::Command;

mod corpus;

const COMMANDS: &[&str] = &[
    "detect all", // every candidate's verdict; `--json` prints only tallies
    "detect all --streaming",
    "detect all --scrub-timings --json",
    "detect all --scrub-timings --json --full-tracing --no-trigger --scale 8",
    "detect all --scrub-timings --json --full-tracing --no-trigger --scale 48",
    "detect all --scrub-timings --json --reachability matrix --scale 4",
    "detect all --scrub-timings --json --reachability clocks",
    "detect all --scrub-timings --json --mem-budget 2k",
    "detect all --scrub-timings --json --mem-budget 256 --full-tracing --no-trigger --scale 8",
    "detect all --scrub-timings --json --time-budget 0",
    "detect all --scrub-timings --json --budget 4096 --mem-budget 1g",
    "faults all",
    "synth --seed 1 --count 8",
    "detect all --scrub-timings --json --timeout 600", // the watchdog's thread
    "synth --seed 1 --count 8 --timeout 600",
    "synth --seed 1 --count 4 --mem-budget 8k --no-shrink --json",
    "detect all --scrub-timings --json --streaming",
    "detect all --scrub-timings --json --streaming --stream-window 2",
    "detect all --scrub-timings --json --streaming --mem-budget 16k",
    "detect all --scrub-timings --json --streaming --stream-window 2 --mem-budget 16k",
    "trace CA-1011 --full-tracing --scale 4",
    "trace HB-4539 --full-tracing --scale 4",
    "trace HB-4729 --full-tracing --scale 4",
    "trace MR-3274 --full-tracing --scale 4",
    "trace MR-4637 --full-tracing --scale 4",
    "trace ZK-1144 --full-tracing --scale 4",
    "trace ZK-1270 --full-tracing --scale 4",
    "streambench --records 200000 --json",
    "timeline HB-4729",
    "explain CA-1011 ca_phase --json",
    "explain CA-1011 token_map --json",
    "explain HB-4539 regionsToOpen --json",
    "explain HB-4729 /unassigned/r2 --json",
    "explain HB-4729 hb2table_phase --json",
    "explain MR-3274 commit_count --json",
    "explain MR-3274 jMap --json",
    "explain MR-3274 mr_phase --json",
    "explain MR-4637 attempt_states --json",
    "explain MR-4637 job_phase --json",
    "explain ZK-1144 request_processor --json",
    "explain ZK-1270 accepted_epoch --json",
    "explain ZK-1270 epoch_ack_count --json",
];

/// The answer file: the command's words, flags undashed, joined by `_`.
fn slug(command: &str) -> String {
    let keep = |c: char| c.is_ascii_alphanumeric() || c == '-' || c == '.';
    command.replace(" --", " ").replace(|c| !keep(c), "_")
}

/// What the command prints, exit status appended unless it is 0; a full
/// trace as its FNV-1a digest, size and line count.
fn run(command: &str, dir: &std::path::Path) -> String {
    let path = dir.join("out");
    let out = File::create(&path).unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_dcatch"))
        .args(command.split(' '))
        .current_dir(dir)
        .stdout(out.try_clone().unwrap())
        .stderr(out)
        .status()
        .expect("dcatch runs");
    let mut text = fs::read_to_string(&path).unwrap();
    if !status.success() {
        text += &format!("{status}\n");
    }
    let wall_clock = |l: &&str| l.contains("\"elapsed_ns\":") && command.starts_with("streambench");
    let text: String = text
        .split_inclusive('\n')
        .filter(|l| !wall_clock(l))
        .collect();
    if !command.starts_with("trace") {
        return text;
    }
    let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let (bytes, lines) = (text.len(), text.lines().count());
    format!("fnv1a {hash:016x}, {bytes} bytes, {lines} lines\n")
}

#[test]
fn every_answer_is_the_committed_one() {
    let slugs: Vec<String> = COMMANDS.iter().map(|c| slug(c)).collect();
    for entry in fs::read_dir(corpus::dir()).unwrap().map(Result::unwrap) {
        let name = entry.file_name().into_string().unwrap();
        let stale = entry.path().is_file() && !slugs.contains(&name);
        assert!(!stale, "tests/answers/{name} answers no command");
    }
    let dir = std::env::temp_dir().join(format!("dcatch-answers-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let answers = slugs
        .into_iter()
        .zip(COMMANDS)
        .map(|(s, c)| (s, run(c, &dir)));
    let answers: Vec<_> = answers.collect();
    fs::remove_dir_all(&dir).unwrap();
    corpus::check(env!("CARGO_BIN_EXE_dcatch"), answers);
}
