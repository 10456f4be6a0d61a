//! Steadiness self-check: runs each workload several times, each in
//! its own process with its own seed, and prints every end-to-end
//! metric's run-to-run spread (interquartile range over median) next to
//! the bound `BENCHMARK.json` gives it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

use crate::stats;
use crate::Workload;

/// An end-to-end metric's bound as `BENCHMARK.json` states it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Allowed worsening, as a share of the median.
    pub bound: f64,
}

/// The value of `"key": ...` in a flat JSON object's text.
fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let rest = obj.split_once(&format!("\"{key}\":"))?.1.trim_start();
    match rest.strip_prefix('"') {
        Some(s) => s.split_once('"').map(|x| x.0),
        None => rest.split([',', '}']).next().map(str::trim),
    }
}

/// The flat objects of the list under `key` in a `BENCHMARK.json` text.
fn objects<'a>(benchmark_json: &'a str, key: &str) -> Vec<&'a str> {
    let Some((_, rest)) = benchmark_json.split_once(&format!("\"{key}\"")) else {
        return Vec::new();
    };
    let list = rest.split_once(']').map_or(rest, |x| x.0);
    list.split('}').collect()
}

/// The `end_to_end` entries of a `BENCHMARK.json` text.
pub fn bounds(benchmark_json: &str) -> Vec<Bound> {
    objects(benchmark_json, "end_to_end")
        .into_iter()
        .filter_map(|obj| {
            Some(Bound {
                name: field(obj, "name")?.to_string(),
                bound: field(obj, "bound")?.parse().ok()?,
            })
        })
        .collect()
}

/// The workloads a `BENCHMARK.json` text lists.
pub fn workloads(benchmark_json: &str) -> Vec<Workload> {
    objects(benchmark_json, "workloads")
        .into_iter()
        .filter_map(|obj| Workload::from_name(field(obj, "name")?))
        .collect()
}

/// Parses a result line: `(correct, [(metric, value)])`.
pub fn parse_result(line: &str) -> Option<(bool, Vec<(String, f64)>)> {
    let correct = field(line, "correct")? == "true";
    let body = line.split_once("\"metrics\": {")?.1;
    let parts: Vec<&str> = body.split("{\"value\": ").collect();
    let metrics = parts
        .windows(2)
        .filter_map(|p| {
            let name = p[0].rsplit('"').nth(1)?;
            let value = p[1].split([',', '}']).next()?.trim().parse().ok()?;
            Some((name.to_string(), value))
        })
        .collect();
    Some((correct, metrics))
}

/// Runs `runs` untraced processes per workload (seeds `first_seed..`)
/// and prints the spread table. `only` picks one workload; by default
/// every workload `BENCHMARK.json` lists runs. Returns whether every
/// metric other than `setup_s` stayed within its bound and every run
/// was correct.
pub fn run(
    only: Option<Workload>,
    runs: usize,
    seconds: u64,
    first_seed: u64,
) -> Result<bool, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let bounds = bounds(&text);
    let workloads = only.map_or_else(|| workloads(&text), |w| vec![w]);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut steady = true;
    let mut table = String::new();
    for w in workloads {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for i in 0..runs as u64 {
            let seed = first_seed + i;
            let out = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .output()
                .map_err(|e| format!("running {}: {e}", w.name()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let parsed = stdout.lines().last().and_then(parse_result);
            let Some((correct, metrics)) = parsed.filter(|_| out.status.success()) else {
                return Err(format!("{} seed {seed}: no result line", w.name()));
            };
            steady &= correct;
            eprintln!("{} seed {seed}: correct={correct} {metrics:?}", w.name());
            for (name, v) in metrics {
                values.entry(name).or_default().push(v);
            }
        }
        for b in &bounds {
            let Some(v) = values.get(&b.name).filter(|v| v.len() >= 2) else {
                continue;
            };
            let spread = stats::spread(v);
            // Set-up time is held to its bound on medians only.
            let flagged = b.name != "setup_s" && spread > b.bound;
            steady &= !flagged;
            let _ = writeln!(
                table,
                "{:<11} {:<12} median {:>14.6}  spread {:>7.4}  bound {:>5.3}  {}",
                w.name(),
                b.name,
                stats::median(v),
                spread,
                b.bound,
                if flagged {
                    "SPREAD EXCEEDS BOUND"
                } else if spread > b.bound / 3.0 {
                    "ok (above a third of the bound)"
                } else {
                    "ok"
                }
            );
        }
    }
    print!("{table}");
    Ok(steady)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_committed_bounds() {
        let text = include_str!("../../BENCHMARK.json");
        let b = bounds(text);
        let names: Vec<&str> = b.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names, ["setup_s", "p50_ms", "peak_rss_mb"]);
        for x in &b {
            assert!(x.bound > 0.0 && x.bound <= 0.25, "{x:?}");
        }
        let setup = b.iter().find(|x| x.name == "setup_s").map(|x| x.bound);
        assert!(
            b.iter().all(|x| Some(x.bound) <= setup),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn parses_a_result_line() {
        let line = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
                    \"ops_s\": {\"value\": 12.5, \"unit\": \"1/s\"}, \
                    \"p50_ms\": {\"value\": 0.043, \"unit\": \"ms\"}}}";
        let (correct, m) = parse_result(line).unwrap();
        assert!(correct);
        assert_eq!(
            m,
            vec![("ops_s".to_string(), 12.5), ("p50_ms".to_string(), 0.043)]
        );
    }
}
