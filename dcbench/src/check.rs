//! The reference table (`expected.json`) and the checker that compares a
//! unit's observed numbers against it.
//!
//! The table is written by hand (its `source` fields say from where) and
//! compiled in, so a run can never produce the reference it is checked
//! against. Every mismatch is one line, `MR-3274: sp_static 9 ≠ 10`, and
//! fails the unit it belongs to.

use std::collections::BTreeMap;

use dcatch_obs::Json;

/// What a unit is compared on: field name → value.
pub type Observed = [(&'static str, u64)];

/// Parsed `expected.json`: workload → unit id (or `*`) → field → value.
#[derive(Debug)]
pub struct Expected {
    workloads: BTreeMap<String, BTreeMap<String, Vec<(String, u64)>>>,
}

impl Expected {
    /// The compiled-in reference table.
    pub fn load() -> Expected {
        Expected::parse(include_str!("expected.json")).expect("expected.json is well-formed")
    }

    fn parse(text: &str) -> Result<Expected, String> {
        let doc = dcatch_obs::json::parse(text).map_err(|e| e.to_string())?;
        let Json::Obj(top) = doc else {
            return Err("top level is not an object".to_owned());
        };
        let mut workloads = BTreeMap::new();
        for (workload, body) in top.iter().filter(|(k, _)| k != "comment") {
            let Some(Json::Obj(units)) = body.get("units") else {
                return Err(format!("{workload}: no `units` object"));
            };
            let mut table = BTreeMap::new();
            for (id, fields) in units {
                let Json::Obj(fields) = fields else {
                    return Err(format!("{workload}/{id}: not an object"));
                };
                let fields = fields
                    .iter()
                    .map(|(k, v)| {
                        let v = v
                            .as_u64()
                            .ok_or(format!("{workload}/{id}/{k}: not a count"))?;
                        Ok((k.clone(), v))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                table.insert(id.clone(), fields);
            }
            workloads.insert(workload.clone(), table);
        }
        Ok(Expected { workloads })
    }

    /// Compares one unit with its reference row (the row named `id`, else
    /// the workload's `*` row). Returns one diagnosis per mismatch; a
    /// reference field the unit did not report is a mismatch too.
    pub fn check_unit(&self, workload: &str, id: &str, observed: &Observed) -> Vec<String> {
        let row = self
            .workloads
            .get(workload)
            .and_then(|units| units.get(id).or_else(|| units.get("*")));
        let Some(row) = row else {
            return vec![format!("{id}: no reference row for workload {workload}")];
        };
        row.iter()
            .filter_map(
                |(field, want)| match observed.iter().find(|(name, _)| name == field) {
                    Some((_, got)) if got == want => None,
                    Some((_, got)) => Some(format!("{id}: {field} {got} ≠ {want}")),
                    None => Some(format!("{id}: {field} not reported, expected {want}")),
                },
            )
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MR3274: [(&str, u64); 7] = [
        ("ta_static", 11),
        ("sp_static", 10),
        ("lp_static", 8),
        ("harmful", 1),
        ("benign", 6),
        ("serial", 1),
        ("known_bug_confirmed", 1),
    ];

    #[test]
    fn a_matching_report_passes_and_a_wrong_one_is_diagnosed() {
        let exp = Expected::load();
        assert!(exp
            .check_unit("trigger_replay", "MR-3274", &MR3274)
            .is_empty());

        let mut wrong = MR3274;
        wrong[1].1 = 9;
        assert_eq!(
            exp.check_unit("trigger_replay", "MR-3274", &wrong),
            vec!["MR-3274: sp_static 9 ≠ 10".to_owned()]
        );
        // a report that lost a field fails as well
        let short = &MR3274[..6];
        assert_eq!(exp.check_unit("trigger_replay", "MR-3274", short).len(), 1);
        // and so does a unit nobody wrote a reference for
        assert_eq!(
            exp.check_unit("trigger_replay", "XX-0000", &MR3274).len(),
            1
        );
    }

    #[test]
    fn a_wrong_synth_score_is_diagnosed() {
        let exp = Expected::load();
        let clean = [
            ("pipeline_errors", 0),
            ("missed", 0),
            ("false_positives", 0),
        ];
        assert!(exp
            .check_unit("synth_batch", "SYNTH-LE-s1", &clean)
            .is_empty());
        let missed = [
            ("pipeline_errors", 0),
            ("missed", 1),
            ("false_positives", 2),
        ];
        assert_eq!(
            exp.check_unit("synth_batch", "SYNTH-LE-s1", &missed),
            vec![
                "SYNTH-LE-s1: missed 1 ≠ 0".to_owned(),
                "SYNTH-LE-s1: false_positives 2 ≠ 0".to_owned()
            ]
        );
    }

    /// The table's own invariants: seven units per suite workload, and
    /// every final report carries exactly one verdict.
    #[test]
    fn reference_table_is_internally_consistent() {
        let exp = Expected::load();
        for workload in ["trigger_replay", "full_trace"] {
            let units = &exp.workloads[workload];
            assert_eq!(units.len(), 7, "{workload}");
            for (id, fields) in units {
                let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
                let (ta, sp, lp) = (get("ta_static"), get("sp_static"), get("lp_static"));
                assert!(
                    ta >= sp && sp >= lp && lp > Some(0),
                    "{id}: pruning is monotone"
                );
                if workload == "trigger_replay" {
                    let verdicts =
                        get("harmful").unwrap() + get("benign").unwrap() + get("serial").unwrap();
                    assert_eq!(Some(verdicts), lp, "{id}: harmful + benign + serial = LP");
                }
            }
        }
        assert!(Expected::parse("[]").is_err());
        assert!(Expected::parse(r#"{"w": {"units": {"u": {"f": "x"}}}}"#).is_err());
    }
}
