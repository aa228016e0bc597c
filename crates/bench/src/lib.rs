//! Table generators for DCatch-RS.
//!
//! One binary per table of the paper's evaluation section (§7): run
//! `cargo run --release -p dcatch-bench --bin table<N>` to regenerate the
//! corresponding table on the miniature benchmark suite. Nothing here is
//! a timing gate: `dcbench/` (`BENCHMARK.json`) measures the detector.
//!
//! Absolute numbers differ from the paper — the substrate is a
//! deterministic simulator on one machine, not instrumented JVM clusters —
//! but the *shape* of every result is reproduced; `EXPERIMENTS.md` at the
//! repository root records paper-vs-measured for each table.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::time::Duration;

/// Renders an aligned text table: header row plus data rows.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{:w$}", cell, w = widths[i]));
        }
        line.trim_end().to_owned()
    };
    let header_cells: Vec<String> = header.iter().map(|s| (*s).to_owned()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Human-friendly duration (ms with one decimal, or s).
pub fn fmt_duration(d: Duration) -> String {
    let ms = d.as_secs_f64() * 1000.0;
    if ms >= 1000.0 {
        format!("{:.2}s", ms / 1000.0)
    } else {
        format!("{ms:.1}ms")
    }
}

/// Human-friendly byte size.
pub fn fmt_bytes(b: usize) -> String {
    if b >= 1024 * 1024 {
        format!("{:.1}MB", b as f64 / (1024.0 * 1024.0))
    } else if b >= 1024 {
        format!("{:.1}KB", b as f64 / 1024.0)
    } else {
        format!("{b}B")
    }
}

/// The workload scale used by the measurement tables (6/7/8). Large enough
/// that full tracing exceeds the HB analysis budget on the big four
/// benchmarks, like the paper's Table 8.
pub const MEASURE_SCALE: u32 = 160;

/// HB reachability budget used by the Table 8 comparison (the paper's
/// analysis machine had 50 GB of JVM heap; this reproduces the same
/// failure mode at laptop scale).
pub const TABLE8_BUDGET: usize = 512 * 1024 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns_columns() {
        let t = render_table(
            &["id", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer-id".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("id"));
        assert!(lines[3].starts_with("longer-id"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.0KB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.0MB");
        assert_eq!(fmt_duration(Duration::from_millis(1500)), "1.50s");
        assert!(fmt_duration(Duration::from_micros(2500)).ends_with("ms"));
    }
}
