//! Crash-safe checkpoint/resume journal for `dcatch detect` and
//! `dcatch synth`.
//!
//! The journal is an append-only JSON-lines file. Line 1 is a meta
//! record pinning the journal format and a *fingerprint* of the run
//! configuration (benchmark set, scale, pipeline options); every later
//! line is one benchmark's completion record:
//!
//! ```text
//! {"journal_version":2,"tool":"dcatch-rs","schema_version":7,"fingerprint":"…"}
//! {"id":"MR-3274","entry":{…one benchmark's report-JSON section…}}
//! {"id":"ZK-1144","entry":{"id":"ZK-1144","error":{…}}}
//! ```
//!
//! Records are appended and flushed the moment each benchmark finishes
//! (from the worker thread), so a process killed mid-batch leaves a
//! journal describing exactly the benchmarks that completed.
//! `--resume <journal>`:
//!
//! * refuses a journal whose fingerprint does not match the current
//!   invocation — resuming under different options would splice
//!   incomparable results;
//! * skips benchmarks whose last record is a *success* (null `error`);
//!   errored and missing benchmarks re-run;
//! * tolerates a torn final line (the crash may have landed mid-write) but
//!   rejects corruption anywhere else;
//! * last record wins when a benchmark appears twice (an earlier resume
//!   re-ran it).
//!
//! A record is the benchmark's report entry verbatim, and an entry depends
//! on its own run alone, so [`report_doc`](crate::report_json::report_doc)
//! over journaled and fresh entries is byte-identical to the document an
//! uninterrupted run writes.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;

use dcatch_obs::{json, Json};

use crate::report_json::{entry_error, SCHEMA_VERSION};

/// Version of the journal file layout. Bump on breaking changes.
///
/// v2: entries list only non-zero metrics. A v1 journal holds zero-filled
/// metric maps, which must not be spliced into one report with v2 entries.
pub const JOURNAL_VERSION: u64 = 2;

/// An open checkpoint journal: previously completed entries plus an
/// append handle for new ones. Sync — workers record through `&Journal`.
#[derive(Debug)]
pub struct Journal {
    file: Mutex<std::fs::File>,
    done: BTreeMap<String, Json>,
}

impl Journal {
    /// Opens `path` for resuming (validating its meta line against
    /// `fingerprint`) or creates it with a fresh meta line.
    pub fn open_or_create(path: &Path, fingerprint: &str) -> Result<Journal, String> {
        if path.exists() {
            Journal::open_existing(path, fingerprint)
        } else {
            let mut file = std::fs::File::create(path)
                .map_err(|e| format!("cannot create journal {}: {e}", path.display()))?;
            let meta = Json::obj([
                ("journal_version", Json::UInt(JOURNAL_VERSION)),
                ("tool", Json::Str("dcatch-rs".to_owned())),
                ("schema_version", Json::UInt(SCHEMA_VERSION)),
                ("fingerprint", Json::Str(fingerprint.to_owned())),
            ]);
            writeln!(file, "{}", meta.to_compact())
                .and_then(|()| file.flush())
                .map_err(|e| format!("cannot write journal meta: {e}"))?;
            Ok(Journal {
                file: Mutex::new(file),
                done: BTreeMap::new(),
            })
        }
    }

    fn open_existing(path: &Path, fingerprint: &str) -> Result<Journal, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
        let lines: Vec<&str> = text.lines().collect();
        let meta_line = lines
            .first()
            .filter(|l| !l.trim().is_empty())
            .ok_or_else(|| format!("journal {} is empty", path.display()))?;
        let meta = json::parse(meta_line)
            .map_err(|e| format!("journal meta line is not valid JSON: {e}"))?;
        if meta.get("journal_version").and_then(|v| v.as_u64()) != Some(JOURNAL_VERSION) {
            return Err(format!(
                "unsupported journal_version (expected {JOURNAL_VERSION})"
            ));
        }
        match meta.get("fingerprint").and_then(|f| f.as_str()) {
            Some(found) if found == fingerprint => {}
            Some(found) => {
                return Err(format!(
                    "journal fingerprint mismatch: journal was written by `{found}`, \
                     this invocation is `{fingerprint}` — resuming under different \
                     options would splice incomparable results"
                ));
            }
            None => return Err("journal meta line has no fingerprint".to_owned()),
        }
        let mut done = BTreeMap::new();
        let last = lines.len() - 1;
        for (i, line) in lines.iter().enumerate().skip(1) {
            if line.trim().is_empty() {
                continue;
            }
            let record = match json::parse(line) {
                Ok(r) => r,
                // the crash this journal survived may have torn the final
                // line mid-write; anything earlier is real corruption
                Err(_) if i == last => continue,
                Err(e) => return Err(format!("journal line {} is corrupt: {e}", i + 1)),
            };
            let id = record
                .get("id")
                .and_then(|v| v.as_str())
                .ok_or_else(|| format!("journal line {} has no id", i + 1))?;
            let entry = record
                .get("entry")
                .ok_or_else(|| format!("journal line {} has no entry", i + 1))?;
            // last record wins: an earlier resume may have re-run this id
            done.insert(id.to_owned(), entry.clone());
        }
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot append to journal {}: {e}", path.display()))?;
        Ok(Journal {
            file: Mutex::new(file),
            done,
        })
    }

    /// Previously journaled completion entries, by benchmark id.
    pub fn completed(&self) -> &BTreeMap<String, Json> {
        &self.done
    }

    /// Whether `id`'s last journaled run *succeeded* (its entry's `error`
    /// is null). Errored entries return false: resume re-runs them.
    pub fn finished_ok(&self, id: &str) -> bool {
        self.done.get(id).is_some_and(|e| entry_error(e).is_none())
    }

    /// Appends one benchmark's completion entry and flushes it to disk.
    /// Called from worker threads the moment the benchmark finishes.
    pub fn record(&self, id: &str, entry: &Json) -> Result<(), String> {
        let line =
            Json::obj([("id", Json::Str(id.to_owned())), ("entry", entry.clone())]).to_compact();
        let mut file = self.file.lock().expect("journal file");
        writeln!(file, "{line}")
            .and_then(|()| file.flush())
            .map_err(|e| format!("cannot append journal entry for {id}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dcatch-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join("journal.jsonl")
    }

    #[test]
    fn create_record_reopen_round_trips() {
        let path = tmp("roundtrip");
        let j = Journal::open_or_create(&path, "fp-1").expect("create");
        assert!(j.completed().is_empty());
        let ok = Json::obj([("id", Json::Str("A".into())), ("error", Json::Null)]);
        let bad = Json::obj([
            ("id", Json::Str("B".into())),
            ("error", Json::obj([("kind", Json::Str("panic".into()))])),
        ]);
        j.record("A", &ok).expect("record A");
        j.record("B", &bad).expect("record B");
        drop(j);
        let j = Journal::open_or_create(&path, "fp-1").expect("reopen");
        assert_eq!(j.completed().len(), 2);
        assert!(j.finished_ok("A"));
        assert!(!j.finished_ok("B"), "errored entries re-run on resume");
        assert!(!j.finished_ok("C"), "missing entries re-run on resume");
        // last record wins
        let ok_b = Json::obj([("id", Json::Str("B".into())), ("error", Json::Null)]);
        j.record("B", &ok_b).expect("re-record B");
        drop(j);
        let j = Journal::open_or_create(&path, "fp-1").expect("reopen again");
        assert!(j.finished_ok("B"));
    }

    #[test]
    fn fingerprint_mismatch_is_refused() {
        let path = tmp("fingerprint");
        Journal::open_or_create(&path, "fp-1").expect("create");
        let err = Journal::open_or_create(&path, "fp-2").expect_err("must refuse");
        assert!(err.contains("fingerprint mismatch"), "{err}");
    }

    /// A v1 journal (zero-filled metric maps) must not be spliced into a
    /// report of v2 entries, even when its fingerprint matches.
    #[test]
    fn older_journal_version_is_refused() {
        let path = tmp("version");
        let meta =
            r#"{"journal_version":1,"tool":"dcatch-rs","schema_version":7,"fingerprint":"fp"}"#;
        std::fs::write(&path, format!("{meta}\n")).unwrap();
        let err = Journal::open_or_create(&path, "fp").expect_err("must refuse");
        assert!(err.contains("unsupported journal_version"), "{err}");
    }

    #[test]
    fn torn_final_line_is_tolerated_but_earlier_corruption_is_not() {
        let path = tmp("torn");
        let j = Journal::open_or_create(&path, "fp").expect("create");
        let ok = Json::obj([("id", Json::Str("A".into())), ("error", Json::Null)]);
        j.record("A", &ok).expect("record");
        drop(j);
        // simulate a crash mid-write of the next entry
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "{{\"id\":\"B\",\"ent").unwrap();
        }
        let j = Journal::open_or_create(&path, "fp").expect("torn tail tolerated");
        assert!(j.finished_ok("A"));
        assert!(!j.finished_ok("B"));
        drop(j);
        // corruption before the end is an error
        let text = std::fs::read_to_string(&path).unwrap();
        let fixed = format!("{text}\n{{\"id\":\"C\",\"entry\":{{\"error\":null}}}}\n");
        std::fs::write(&path, fixed).unwrap();
        let err = Journal::open_or_create(&path, "fp").expect_err("mid-file corruption");
        assert!(err.contains("corrupt"), "{err}");
    }
}
