//! The committed answer corpus, `tests/answers/`: one file per pinned
//! output. An output that differs from its file is written to
//! `target/answers/<name>` and fails the test, so re-blessing an answer
//! that moved on purpose is copying that file over the committed one.

use std::fs;
use std::path::{Path, PathBuf};

/// `tests/answers/`.
pub fn dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/answers")
}

/// Compares every `(name, actual)` with `tests/answers/<name>` and panics
/// naming each that differs and its first differing line. `bin` is a
/// `CARGO_BIN_EXE_*` of this build; its target directory gets `answers/`.
pub fn check(bin: &str, answers: Vec<(String, String)>) {
    let out = Path::new(bin).ancestors().nth(2).unwrap().join("answers");
    let mut failures = Vec::new();
    for (name, actual) in &answers {
        let expected = fs::read_to_string(dir().join(name)).unwrap_or_default();
        if *actual == expected {
            continue;
        }
        let path = out.join(name);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, actual).unwrap();
        let line = expected
            .lines()
            .zip(actual.lines())
            .take_while(|(e, a)| e == a)
            .count();
        let at = |text: &str| -> String {
            let text = text.lines().nth(line).unwrap_or("<end of file>");
            text.chars().take(200).collect()
        };
        let (want, got, path) = (at(&expected), at(actual), path.display());
        let n = line + 1;
        failures.push(format!(
            "{name}, line {n}:\n  answer: {want}\n  actual: {got}\n  written to {path}"
        ));
    }
    let (moved, total) = (failures.len(), answers.len());
    assert!(
        moved == 0,
        "{moved} of {total} answers moved:\n{}",
        failures.join("\n")
    );
}
