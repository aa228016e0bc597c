//! The paper's tables, pinned byte for byte through the library: each
//! timing-free [`dcatch::tables::table`] at its default arguments must
//! return `tests/answers/tables_N` less its final newline. Tables 6 and 8
//! print wall-clock columns and are left out of the corpus; Table 6 is
//! checked for a measured Base column instead. `tests/answers.rs` pins the
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

/// Table 6's Base column is a measured untraced run on every row: the
/// pipeline runs none unless asked, so the table must ask for it.
#[test]
fn table6_measures_every_base_run() {
    let text = dcatch::tables::table(6, Some(40), None).expect("the table builds");
    let rows: Vec<&str> = text
        .lines()
        .skip_while(|l| !l.starts_with("---"))
        .skip(1)
        .collect();
    assert_eq!(rows.len(), 7, "{text}");
    for row in rows {
        let base = row.split_whitespace().nth(1).expect("a Base column");
        let ms: f64 = match base.strip_suffix("ms") {
            Some(ms) => ms.parse().unwrap(),
            None => 1e3 * base.strip_suffix('s').unwrap().parse::<f64>().unwrap(),
        };
        assert!(ms > 0.0, "unmeasured base run: {row}");
    }
}
