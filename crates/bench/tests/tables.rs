//! The paper's tables, pinned byte for byte: each timing-free `tableN` bin
//! at its default arguments must print `tests/answers/tables/tableN.txt`.
//! `table6` and `table8` print wall-clock columns and are left out.

use std::process::Command;

#[path = "../../../tests/corpus.rs"]
mod corpus;

#[test]
fn every_timing_free_table_is_the_committed_one() {
    let bins = [
        ("table1", env!("CARGO_BIN_EXE_table1")),
        ("table2", env!("CARGO_BIN_EXE_table2")),
        ("table3", env!("CARGO_BIN_EXE_table3")),
        ("table4", env!("CARGO_BIN_EXE_table4")),
        ("table5", env!("CARGO_BIN_EXE_table5")),
        ("table7", env!("CARGO_BIN_EXE_table7")),
        ("table9", env!("CARGO_BIN_EXE_table9")),
    ];
    let answers = bins.iter().map(|(name, bin)| {
        let output = Command::new(bin).output().expect("the table bin runs");
        assert!(output.status.success(), "{name}: {output:?}");
        let text = String::from_utf8(output.stdout).unwrap();
        (format!("tables/{name}.txt"), text)
    });
    corpus::check(bins[0].1, answers.collect());
}
