//! Do two result files agree? Every end-to-end metric within its own
//! bound, every exact value (counts, simulated times, fingerprints, input
//! digests) identical. One row per workload and metric.

use std::fmt::Write as _;

use crate::json::Json;
use crate::metrics::END_TO_END;

/// The comparison table and whether everything agreed.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let workloads = |doc: &'_ Json| -> Result<Vec<(String, Json)>, String> {
        Ok(doc
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or("result file has no `workloads` object")?
            .to_vec())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut table = String::new();
    let mut ok = true;
    let _ = writeln!(
        table,
        "{:<14} {:<18} {:>14} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "a.median", "a.q1", "a.q3", "b.median", "diff", "bound"
    );
    for (name, ra) in &wa {
        let Some((_, rb)) = wb.iter().find(|(n, _)| n == name) else {
            let _ = writeln!(table, "{name:<14} missing from the second file");
            ok = false;
            continue;
        };
        for key in ["input_digest", "fingerprint", "attempted", "failed", "exact"] {
            let same = ra.get(key) == rb.get(key) && ra.get(key).is_some();
            ok &= same;
            if !same {
                let _ = writeln!(table, "{name:<14} {key:<18} differs: exact values must repeat");
                if let (Some(ea), Some(eb)) =
                    (ra.get(key).and_then(Json::as_obj), rb.get(key).and_then(Json::as_obj))
                {
                    for (k, va) in ea {
                        let vb = eb.iter().find(|(n, _)| n == k).map(|(_, v)| v);
                        if vb != Some(va) {
                            let _ = writeln!(table, "{:<14}   {k}: {va:?} vs {vb:?}", "");
                        }
                    }
                }
            }
        }
        for def in &END_TO_END {
            let field = |r: &Json, f: &str| {
                r.get("end_to_end")
                    .and_then(|e| e.get(def.name))
                    .and_then(|m| m.get(f))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{name}: {} has no `{f}`", def.name))
            };
            let (va, vb) = (field(ra, "value")?, field(rb, "value")?);
            let diff = (va - vb).abs() / va.abs().min(vb.abs()).max(f64::MIN_POSITIVE);
            let agrees = diff <= def.bound;
            ok &= agrees;
            let _ = writeln!(
                table,
                "{name:<14} {:<18} {va:>14.6} {:>14.6} {:>14.6} {vb:>14.6} {:>7.2}% {:>5.0}%  {}",
                def.name,
                field(ra, "q1")?,
                field(ra, "q3")?,
                diff * 100.0,
                def.bound * 100.0,
                if agrees { "agree" } else { "DISAGREE" }
            );
        }
    }
    for (name, _) in &wb {
        if !wa.iter().any(|(n, _)| n == name) {
            let _ = writeln!(table, "{name:<14} missing from the first file");
            ok = false;
        }
    }
    Ok((table, ok))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn result(wall: f64, fingerprint: &str, hits: f64) -> Json {
        let e2e: Vec<String> = END_TO_END
            .iter()
            .map(|d| {
                let v = if d.name == "wall_s" { wall } else { 1.0 };
                format!(
                    r#""{}": {{"value": {v}, "unit": "{}", "q1": {v}, "q3": {v}, "n": 9}}"#,
                    d.name, d.unit
                )
            })
            .collect();
        parse(&format!(
            r#"{{"workloads": {{"storm_flat": {{"input_digest": "0x1", "fingerprint": "{fingerprint}",
                "attempted": 10, "failed": 0, "end_to_end": {{{}}},
                "exact": {{"fleet.cache.hits": {hits}}}}}}}}}"#,
            e2e.join(",")
        ))
        .unwrap()
    }

    #[test]
    fn agreement_is_within_bound_and_exact_on_exact_values() {
        let bound = END_TO_END.iter().find(|d| d.name == "wall_s").unwrap().bound;
        let (inside, outside) = (1.0 + 0.9 * bound, 1.0 + 1.1 * bound);
        let base = result(1.0, "0xabc", 5.0);
        assert!(compare(&base, &base).unwrap().1);
        assert!(compare(&base, &result(inside, "0xabc", 5.0)).unwrap().1, "inside the bound");
        let (table, ok) = compare(&base, &result(outside, "0xabc", 5.0)).unwrap();
        assert!(!ok && table.contains("DISAGREE"), "{table}");
        assert!(!compare(&result(outside, "0xabc", 5.0), &base).unwrap().1, "symmetric");
        assert!(!compare(&base, &result(1.0, "0xdef", 5.0)).unwrap().1, "fingerprint");
        let (table, ok) = compare(&base, &result(1.0, "0xabc", 6.0)).unwrap();
        assert!(!ok && table.contains("fleet.cache.hits"), "{table}");
    }

    #[test]
    fn a_missing_workload_or_field_is_reported() {
        let base = result(1.0, "0xabc", 5.0);
        let empty = parse(r#"{"workloads": {}}"#).unwrap();
        assert!(!compare(&base, &empty).unwrap().1);
        assert!(!compare(&empty, &base).unwrap().1);
        assert!(compare(&base, &parse("{}").unwrap()).is_err());
    }
}
