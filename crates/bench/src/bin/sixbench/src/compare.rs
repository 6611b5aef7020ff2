//! `sixbench compare`: judges a change against its parent from two run
//! logs, by the rule for measuring in a small sandbox — at least ten
//! alternating pairs, each side's median and quartiles, the change's win
//! share, and a verdict per (metric, workload) against the bound in
//! `BENCHMARK.json`.

use crate::json::{parse, Value};
use crate::measure::quartiles;

/// An end-to-end metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// One logged run: workload and end-to-end metric values.
struct Logged {
    workload: String,
    metrics: Vec<(String, f64)>,
}

fn read_log(path: &str) -> Result<Vec<Logged>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if v.get("trace") == Some(&Value::Bool(true)) {
            continue;
        }
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", i + 1))?;
        let metrics = v
            .get("metrics")
            .map(Value::entries)
            .unwrap_or_default()
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect();
        runs.push(Logged {
            workload: workload.to_string(),
            metrics,
        });
    }
    Ok(runs)
}

fn read_declared(path: &str) -> Result<Vec<Declared>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    v.get("end_to_end")
        .map(Value::as_array)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            Some(Declared {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{path}: malformed end_to_end entry"))
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Improved,
    NoWorse,
    Worse,
    Unresolved,
}

/// The verdict for paired runs `parent[i]`/`change[i]` of one metric.
/// `worse` is positive when the change's median is worse, as a share of
/// the parent's median.
pub fn judge(
    parent: &[f64],
    change: &[f64],
    lower_is_better: bool,
    bound: f64,
) -> (Verdict, f64, f64) {
    let pairs = parent.len().min(change.len());
    let better = |c: f64, p: f64| if lower_is_better { c < p } else { c > p };
    let wins = (0..pairs).filter(|&i| better(change[i], parent[i])).count();
    let win_share = wins as f64 / pairs.max(1) as f64;
    if pairs < 10 {
        return (Verdict::Unresolved, f64::NAN, win_share);
    }
    let (pq1, pm, pq3) = quartiles(&parent[..pairs]);
    let (_, cm, _) = quartiles(&change[..pairs]);
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse = sign * (cm - pm) / pm;
    let all_better = change[..pairs]
        .iter()
        .all(|&c| parent[..pairs].iter().all(|&p| better(c, p)));
    let verdict = if worse < 0.0 && win_share >= 0.9 && (cm - pm).abs() > pq3 - pq1 {
        Verdict::Improved
    } else if all_better {
        Verdict::NoWorse
    } else if (pq3 - pq1) / pm > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Worse
    } else {
        Verdict::NoWorse
    };
    (verdict, worse, win_share)
}

pub fn run(args: &[String]) -> Result<bool, String> {
    let (logs, bench) =
        match args {
            [p, c] => ([p, c], "BENCHMARK.json"),
            [p, c, flag, b] if flag == "--bench" => ([p, c], b.as_str()),
            _ => return Err(
                "usage: sixbench compare <parent.jsonl> <change.jsonl> [--bench BENCHMARK.json]"
                    .into(),
            ),
        };
    let declared = read_declared(bench)?;
    let parent = read_log(logs[0])?;
    let change = read_log(logs[1])?;
    let mut workloads: Vec<&str> = Vec::new();
    for r in parent.iter().chain(&change) {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let values = |runs: &[Logged], w: &str, m: &str| -> Vec<f64> {
        runs.iter()
            .filter(|r| r.workload == w)
            .filter_map(|r| r.metrics.iter().find(|(k, _)| k == m).map(|(_, v)| *v))
            .collect()
    };
    println!(
        "{:<15} {:<14} {:>5} {:>30} {:>30} {:>8} {:>5}  verdict (bound)",
        "workload",
        "metric",
        "pairs",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "worse",
        "wins"
    );
    let mut regressed = false;
    for w in &workloads {
        for d in &declared {
            let (p, c) = (values(&parent, w, &d.name), values(&change, w, &d.name));
            let pairs = p.len().min(c.len());
            let summary = |v: &[f64]| match v.len() {
                0 | 1 => "-".to_string(),
                _ => {
                    let (q1, m, q3) = quartiles(v);
                    format!("{m:.6} [{q1:.6}, {q3:.6}]")
                }
            };
            let (verdict, worse, wins) = judge(&p, &c, d.lower_is_better, d.bound);
            regressed |= verdict == Verdict::Worse;
            println!(
                "{w:<15} {:<14} {pairs:>5} {:>30} {:>30} {:>+7.2}% {:>4.0}%  {verdict:?} ({:.0}%)",
                d.name,
                summary(&p[..pairs]),
                summary(&c[..pairs]),
                worse * 100.0,
                wins * 100.0,
                d.bound * 100.0
            );
        }
    }
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_sandbox_rule() {
        let parent: Vec<f64> = (0..10).map(|i| 1.0 + 0.001 * i as f64).collect();
        let faster: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(judge(&parent, &faster, true, 0.05).0, Verdict::Improved);
        assert_eq!(judge(&parent, &slower, true, 0.05).0, Verdict::Worse);
        assert_eq!(judge(&parent, &same, true, 0.05).0, Verdict::NoWorse);
        assert_eq!(
            judge(&parent[..9], &faster[..9], true, 0.05).0,
            Verdict::Unresolved
        );
        // Higher-is-better metrics flip the direction.
        assert_eq!(judge(&parent, &faster, false, 0.05).0, Verdict::Worse);
        // A parent spread wider than the bound cannot be resolved.
        let noisy: Vec<f64> = (0..10).map(|i| 1.0 + 0.2 * (i % 2) as f64).collect();
        assert_eq!(judge(&noisy, &noisy, true, 0.05).0, Verdict::Unresolved);
    }
}
