//! `bench compare A.json B.json`: do two result sets agree?
//!
//! `A` is the baseline, `B` the candidate. Counts must be equal; an
//! end-to-end timing may not be worse than the baseline's value by more
//! than the bound the benchmark fixed for it; per-layer timings carry no
//! bound and are shown as advisory. A timing whose quartile spread (on
//! either side) exceeds its bound cannot be told apart from noise and is
//! reported as *unresolved*, never as unchanged.

use crate::json::Json;
use crate::metrics::{self, Better, Kind, SETUP_FLOOR_S};
use crate::stats::Summary;

/// What the comparison of one metric on one workload found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// A count, equal on both sides.
    Equal,
    /// A count that differs, or a run or metric missing on one side, or
    /// failed operations: the sets disagree.
    Mismatch,
    /// A bounded timing, not worse than the baseline by more than its
    /// bound.
    Within,
    /// A bounded timing, worse than the baseline by more than its bound:
    /// the sets disagree.
    Worse,
    /// A bounded timing whose spread exceeds its bound on either side.
    Unresolved,
    /// A timing without a bound.
    Advisory,
}

impl Verdict {
    /// Whether this verdict makes `compare` exit non-zero.
    pub fn disagrees(self) -> bool {
        matches!(self, Verdict::Mismatch | Verdict::Worse)
    }

    fn name(self) -> &'static str {
        match self {
            Verdict::Equal => "equal",
            Verdict::Mismatch => "MISMATCH",
            Verdict::Within => "within",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
            Verdict::Advisory => "advisory",
        }
    }
}

/// One row of the comparison: a workload × metric pair.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name, with `/traced` for the traced pass.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value, as reported.
    pub a: f64,
    /// Candidate value, as reported.
    pub b: f64,
    /// What was found.
    pub verdict: Verdict,
}

/// Compares two summaries of the metric `name` by the benchmark's rules.
pub fn judge(name: &str, a: &Summary, b: &Summary) -> Verdict {
    let Some(def) = metrics::find(name) else {
        return Verdict::Advisory;
    };
    let (va, vb) = (def.reported(a), def.reported(b));
    if def.kind == Kind::Count {
        return if va == vb {
            Verdict::Equal
        } else {
            Verdict::Mismatch
        };
    }
    let Some(bound) = def.bound else {
        return Verdict::Advisory;
    };
    if name == "setup_s" && (va - vb).abs() < SETUP_FLOOR_S {
        return Verdict::Within;
    }
    if a.spread() > bound || b.spread() > bound {
        // Noise wider than the bound: only a candidate whose every rep
        // beats every baseline rep is resolved (as an improvement).
        let all_better = match def.better {
            Better::Lower => b.max < a.min,
            Better::Higher => b.min > a.max,
        };
        return if all_better {
            Verdict::Within
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = match def.better {
        Better::Lower => (vb - va) / va,
        Better::Higher => (va - vb) / va,
    };
    if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

fn runs(set: &Json) -> Result<&[Json], String> {
    set.get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| "not a result set: no \"runs\" array".to_string())
}

fn key(run: &Json) -> Option<(String, u64)> {
    Some((
        run.get("workload")?.as_str()?.to_string(),
        run.get("trace")?.as_f64()? as u64,
    ))
}

/// Compares candidate `b` with baseline `a`, one row per workload ×
/// metric. Errors when the sets were not run on the same inputs.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    let b_runs = runs(b)?;
    for ra in runs(a)? {
        let (workload, trace) = key(ra).ok_or("run without workload/trace")?;
        let label = if trace == 1 {
            format!("{workload}/traced")
        } else {
            workload.clone()
        };
        let mismatch = |metric: &str, a: f64, b: f64| Row {
            workload: label.clone(),
            metric: metric.to_string(),
            a,
            b,
            verdict: Verdict::Mismatch,
        };
        let Some(rb) = b_runs
            .iter()
            .find(|r| key(r) == Some((workload.clone(), trace)))
        else {
            rows.push(mismatch("(run missing in B)", 0.0, 0.0));
            continue;
        };
        for field in ["seed", "size", "spec_digest"] {
            if ra.get(field) != rb.get(field) {
                return Err(format!(
                    "{label}: {field} differs ({:?} vs {:?}); compare runs of the same inputs",
                    ra.get(field),
                    rb.get(field)
                ));
            }
        }
        let failed = |r: &Json| r.get("failed_ops").and_then(Json::as_f64).unwrap_or(1.0);
        if failed(ra) != 0.0 || failed(rb) != 0.0 {
            rows.push(mismatch("failed_ops", failed(ra), failed(rb)));
        }
        fn metrics_of(r: &Json) -> Option<&[(String, Json)]> {
            r.get("metrics").and_then(Json::as_obj)
        }
        let (ma, mb) = (
            metrics_of(ra).ok_or("run without metrics")?,
            metrics_of(rb).ok_or("run without metrics")?,
        );
        for (name, va) in ma {
            let sa = Summary::from_json(va).ok_or(format!("{label}: bad metric {name}"))?;
            let Some(sb) = mb
                .iter()
                .find(|(n, _)| n == name)
                .and_then(|(_, v)| Summary::from_json(v))
            else {
                rows.push(mismatch(name, sa.median, 0.0));
                continue;
            };
            let reported = |s: &Summary| metrics::find(name).map_or(s.median, |d| d.reported(s));
            rows.push(Row {
                workload: label.clone(),
                metric: name.clone(),
                a: reported(&sa),
                b: reported(&sb),
                verdict: judge(name, &sa, &sb),
            });
        }
    }
    Ok(rows)
}

/// The comparison as a table, then one summary line.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<34} {:<34} {:>16} {:>16} {:>9}  verdict\n",
        "workload", "metric", "A", "B", "B/A"
    );
    for r in rows {
        let ratio = if r.a != 0.0 { r.b / r.a } else { f64::NAN };
        out.push_str(&format!(
            "{:<34} {:<34} {:>16.6} {:>16.6} {:>9.4}  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            ratio,
            r.verdict.name()
        ));
    }
    let n = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    out.push_str(&format!(
        "{} rows: {} equal, {} within bound, {} advisory, {} unresolved, {} worse, {} mismatched\n",
        rows.len(),
        n(Verdict::Equal),
        n(Verdict::Within),
        n(Verdict::Advisory),
        n(Verdict::Unresolved),
        n(Verdict::Worse),
        n(Verdict::Mismatch)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(x: f64) -> Summary {
        Summary::of(&[x * 0.999, x, x * 1.001])
    }

    #[test]
    fn counts_compare_exactly_and_timings_within_their_bound() {
        let v = |name, a: f64, b: f64| judge(name, &tight(a), &tight(b));
        assert_eq!(v("flitsim.flit_hops", 100.0, 100.0), Verdict::Equal);
        assert_eq!(v("flitsim.flit_hops", 100.0, 101.0), Verdict::Mismatch);
        assert_eq!(v("run_s", 1.0, 1.05), Verdict::Within);
        assert_eq!(v("run_s", 1.0, 1.5), Verdict::Worse);
        assert_eq!(v("run_s", 1.0, 0.5), Verdict::Within);
        assert_eq!(v("event_mhops_per_s", 50.0, 30.0), Verdict::Worse);
        assert_eq!(v("event_mhops_per_s", 50.0, 70.0), Verdict::Within);
        assert_eq!(v("flitsim.event.run_s", 1.0, 9.0), Verdict::Advisory);
        // Sub-millisecond set-ups move by less than the 5 ms floor.
        assert_eq!(v("setup_s", 0.0004, 0.0009), Verdict::Within);
        assert_eq!(v("setup_s", 0.4, 0.9), Verdict::Worse);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let noisy = Summary::of(&[0.5, 1.0, 1.5, 2.0, 2.5]);
        assert_eq!(judge("run_s", &noisy, &tight(1.5)), Verdict::Unresolved);
        assert_eq!(judge("run_s", &tight(1.5), &noisy), Verdict::Unresolved);
        // ... unless every candidate rep beats every baseline rep.
        assert_eq!(judge("run_s", &noisy, &tight(0.1)), Verdict::Within);
    }

    fn set(seed: u64, hops: f64, run_s: f64) -> Json {
        let metric = |s: Summary| s.to_json();
        Json::obj().with(
            "runs",
            vec![Json::obj()
                .with("workload", "w")
                .with("trace", 0u64)
                .with("seed", seed)
                .with("failed_ops", 0u64)
                .with(
                    "metrics",
                    Json::obj()
                        .with("flitsim.flit_hops", metric(Summary::exact(hops)))
                        .with("run_s", metric(tight(run_s))),
                )],
        )
    }

    #[test]
    fn sets_agree_disagree_or_refuse_to_compare() {
        let rows = compare(&set(1, 10.0, 1.0), &set(1, 10.0, 1.02)).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| !r.verdict.disagrees()), "{rows:?}");
        let rows = compare(&set(1, 10.0, 1.0), &set(1, 11.0, 2.0)).unwrap();
        assert!(rows.iter().all(|r| r.verdict.disagrees()), "{rows:?}");
        assert!(render(&rows).contains("MISMATCH"));
        assert!(compare(&set(1, 10.0, 1.0), &set(2, 10.0, 1.0)).is_err());
        let empty = Json::obj().with("runs", Vec::<Json>::new());
        let rows = compare(&set(1, 10.0, 1.0), &empty).unwrap();
        assert!(rows[0].verdict.disagrees());
    }
}
