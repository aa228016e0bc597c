//! The paper's tables, pinned byte for byte through the library: each
//! timing-free [`dcatch::tables::table`] at its default arguments must
//! return `tests/answers/tables_N` less its final newline. Tables 6 and 8
//! print wall-clock columns and are left out. `tests/answers.rs` pins the
//! same files through `dcatch tables N`.

#[path = "../../../tests/corpus.rs"]
mod corpus;

#[test]
fn every_timing_free_table_is_the_committed_one() {
    let answers = [1, 2, 3, 4, 5, 7, 9].map(|n| {
        let text = dcatch::tables::table(n, None, None).expect("the table builds");
        (format!("tables_{n}"), text + "\n")
    });
    corpus::check(env!("CARGO_BIN_EXE_dcatch"), answers.into());
}
