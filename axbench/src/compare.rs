//! `axbench run` (sets of runs, each workload and mode in a fresh driver
//! process) and `axbench compare` (two such sets judged against the
//! bounds of the catalog).

use crate::catalog::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::report::{parse_result_line, ParsedRun};
use crate::stats::{quartiles, spread};
use crate::Flags;
use approxql_query::json::{self, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

/// `workload → metric → one value per set`.
type Samples = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn run_once(
    workload: &str,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
) -> Result<ParsedRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(s) = seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "{workload} (trace {trace}) exited with {}",
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("driver printed nothing")?;
    parse_result_line(last)
}

/// `axbench run --all|W …`: K sets; prints every metric by name with its
/// unit (median and quartiles over the sets when K > 1) and optionally
/// writes the samples as JSON for `compare`.
pub fn run_sets(flags: &Flags) -> Result<ExitCode, String> {
    let seed: u64 = flags.parsed("--seed")?.unwrap_or(2002);
    let seconds: Option<f64> = flags.parsed("--seconds")?;
    let repeat: usize = flags.parsed("--repeat")?.unwrap_or(1).max(1);
    let smoke = flags.switch("--smoke");
    let chosen: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|w| flags.switch("--all") || flags.switch(w))
        .collect();
    if chosen.is_empty() {
        return Err(String::from("name a workload or pass --all"));
    }
    let mut samples = Samples::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut all_correct = true;
    for set in 0..repeat {
        for workload in &chosen {
            for trace in [false, true] {
                eprintln!(
                    "# set {} of {repeat}: {workload}, trace {}",
                    set + 1,
                    u8::from(trace)
                );
                let run = run_once(workload, seed, seconds, trace, smoke)?;
                attempted += run.attempted;
                failed += run.failed;
                all_correct &= run.correct;
                let metrics = samples.entry(workload.to_string()).or_default();
                for (name, value) in run.metrics {
                    metrics.entry(name).or_default().push(value);
                }
            }
        }
    }
    let unit_of = |name: &str| {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| u)
    };
    for workload in &chosen {
        let Some(metrics) = samples.get(*workload) else {
            continue;
        };
        println!("== {workload}");
        // Catalog order: end-to-end first, then the layers.
        let ordered = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in ordered {
            let Some(values) = metrics.get(name) else {
                continue;
            };
            let [q1, q2, q3] = quartiles(values);
            if repeat > 1 {
                println!(
                    "{name:<40} {q2:>16.4} {:<6} q1 {q1:.4}  q3 {q3:.4}  spread {:.1}%",
                    unit_of(name),
                    spread(values) * 100.0
                );
            } else {
                println!("{name:<40} {q2:>16.4} {}", unit_of(name));
            }
        }
    }
    println!(
        "ops attempted {attempted}, ops failed {failed}, output checks {}",
        if all_correct { "passed" } else { "FAILED" }
    );
    if let Some(path) = flags.value("--out") {
        std::fs::write(path, samples_json(seed, &samples)).map_err(|e| e.to_string())?;
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn samples_json(seed: u64, samples: &Samples) -> String {
    let mut out = format!("{{\"seed\": {seed}, \"workloads\": {{");
    for (i, (workload, metrics)) in samples.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n  \"{workload}\": {{",
            if i > 0 { "," } else { "" }
        );
        for (j, (name, values)) in metrics.iter().enumerate() {
            let list: Vec<String> = values.iter().map(f64::to_string).collect();
            let _ = write!(
                out,
                "{}\n    \"{name}\": [{}]",
                if j > 0 { "," } else { "" },
                list.join(", ")
            );
        }
        out.push_str("\n  }");
    }
    out.push_str("\n}}\n");
    out
}

fn read_samples(path: &str) -> Result<Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut samples = Samples::new();
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{path}: no workloads object"))?;
    for (workload, metrics) in workloads {
        let entry = samples.entry(workload.clone()).or_default();
        for (name, values) in metrics.as_obj().unwrap_or(&[]) {
            let values = values
                .as_arr()
                .unwrap_or(&[])
                .iter()
                .filter_map(|v| match v {
                    Json::Num(n) => Some(*n),
                    _ => None,
                })
                .collect();
            entry.insert(name.clone(), values);
        }
    }
    Ok(samples)
}

/// How B's samples of one bounded metric stand against A's.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regressed,
    /// The run-to-run spread is wider than the bound and the two sides
    /// overlap: the samples cannot tell.
    Unresolved,
}

pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (quartiles(a)[1], quartiles(b)[1]);
    if ma == 0.0 {
        return Verdict::Unresolved;
    }
    // Positive = B is worse, as a share of A's median.
    let worse = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    let is_better = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    // One run against one run always "dominates": that needs sets.
    let b_dominates =
        a.len() > 1 && b.len() > 1 && b.iter().all(|&x| a.iter().all(|&y| is_better(x, y)));
    if worse > bound {
        Verdict::Regressed
    } else if spread(a).max(spread(b)) > bound && !b_dominates {
        Verdict::Unresolved
    } else if b_dominates || worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// `axbench compare A.json B.json`: non-zero exit on any regression —
/// a bounded metric worse by more than its bound, or an exact column
/// (count, byte ratio) that differs at all.
pub fn compare(paths: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = paths else {
        return Err(String::from("compare needs exactly two result files"));
    };
    let (a, b) = (read_samples(a_path)?, read_samples(b_path)?);
    let mut regressions = 0;
    println!(
        "{:<16} {:<40} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for (workload, a_metrics) in &a {
        let Some(b_metrics) = b.get(workload) else {
            println!("{workload:<16} missing from {b_path}");
            regressions += 1;
            continue;
        };
        let row = |name: &str, va: &[f64], vb: &[f64], verdict: &str| {
            let (ma, mb) = (quartiles(va)[1], quartiles(vb)[1]);
            let change = if ma == 0.0 {
                0.0
            } else {
                (mb - ma) / ma * 100.0
            };
            println!("{workload:<16} {name:<40} {ma:>14.4} {mb:>14.4} {change:>+7.1}%  {verdict}");
        };
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (a_metrics.get(m.name), b_metrics.get(m.name)) else {
                continue;
            };
            let verdict = judge(va, vb, m.better, m.bound);
            regressions += usize::from(verdict == Verdict::Regressed);
            let text = format!("{verdict:?}").to_lowercase();
            row(
                m.name,
                va,
                vb,
                &format!("{text} (bound {:.0}%)", m.bound * 100.0),
            );
        }
        for m in &PER_LAYER {
            let (Some(va), Some(vb)) = (a_metrics.get(m.name), b_metrics.get(m.name)) else {
                continue;
            };
            if m.exact {
                let same = va.iter().chain(vb).all(|v| v == &va[0]);
                regressions += usize::from(!same);
                row(
                    m.name,
                    va,
                    vb,
                    if same {
                        "identical"
                    } else {
                        "DIFFERS (exact column)"
                    },
                );
            } else {
                row(m.name, va, vb, "layer timing");
            }
        }
    }
    println!("{regressions} regression(s)");
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let tight = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(
            judge(&tight, &[100.2, 99.8, 100.9, 100.1], Better::Lower, 0.1),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&tight, &[120.0, 121.0, 119.0, 122.0], Better::Lower, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&tight, &[120.0, 121.0, 119.0, 122.0], Better::Higher, 0.1),
            Verdict::Improved
        );
        assert_eq!(
            judge(&tight, &[80.0, 81.0, 79.0, 82.0], Better::Lower, 0.1),
            Verdict::Improved
        );
        // Spread wider than the bound, sides overlapping: cannot tell.
        let noisy = [80.0, 100.0, 125.0, 95.0];
        assert_eq!(
            judge(&noisy, &[85.0, 99.0, 120.0, 97.0], Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // … unless every run of B beats every run of A.
        assert_eq!(
            judge(&noisy, &[50.0, 60.0, 70.0, 55.0], Better::Lower, 0.1),
            Verdict::Improved
        );
    }

    #[test]
    fn samples_round_trip() {
        let mut s = Samples::new();
        s.entry("w".into())
            .or_default()
            .insert("m.x".into(), vec![1.5, 2.0]);
        let path =
            std::env::temp_dir().join(format!("axbench-samples-{}.json", std::process::id()));
        std::fs::write(&path, samples_json(7, &s)).unwrap();
        assert_eq!(read_samples(path.to_str().unwrap()).unwrap(), s);
        std::fs::remove_file(path).unwrap();
    }
}
