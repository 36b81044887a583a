//! `--summarize`: median, quartiles and spread of every metric over the
//! recorded results, grouped by source fingerprint, workload and mode —
//! the figures the benchmark's bounds are judged by.

use crate::stats;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The string value of `"key":"…"` in a flat JSON line.
fn string_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

/// The raw (unquoted) value of `"key":…` up to the next `,` or `}`.
fn raw_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let len = line[start..].find([',', '}'])?;
    Some(&line[start..start + len])
}

/// `(name, value)` of every entry in the result's `metrics` object.
fn metrics(line: &str) -> Vec<(String, f64)> {
    let Some(start) = line.rfind("\"metrics\":{") else {
        return Vec::new();
    };
    let mut rest = &line[start + "\"metrics\":{".len()..];
    let mut out = Vec::new();
    while let Some(q) = rest.strip_prefix('"') {
        let Some(end) = q.find('"') else { break };
        let name = &q[..end];
        let Some(value) = raw_field(q, "value").and_then(|v| v.parse::<f64>().ok()) else {
            break;
        };
        out.push((name.to_string(), value));
        // Skip past this entry's closing brace and the separator.
        let Some(close) = q.find('}') else { break };
        rest = q[close + 1..].trim_start_matches(',');
    }
    out
}

type Groups = BTreeMap<(String, String, String), BTreeMap<String, Vec<f64>>>;

fn group(text: &str) -> Groups {
    let mut groups = Groups::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let key = (
            string_field(line, "source_fingerprint")
                .unwrap_or("?")
                .to_string(),
            string_field(line, "workload").unwrap_or("?").to_string(),
            raw_field(line, "trace").unwrap_or("?").to_string(),
        );
        let entry = groups.entry(key).or_default();
        for (name, value) in metrics(line) {
            entry.entry(name).or_default().push(value);
        }
    }
    groups
}

/// Prints the summary of the results file at `path`.
pub fn print(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfbench: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    for ((source, workload, trace), metrics) in group(&text) {
        println!("{workload} trace={trace} source={source}");
        println!(
            "  {:<40} {:>4} {:>14} {:>14} {:>14} {:>8}",
            "metric", "n", "median", "q1", "q3", "spread"
        );
        for (name, values) in metrics {
            let [q1, _, q3] = stats::quartiles(&values);
            println!(
                "  {name:<40} {:>4} {:>14.6} {:>14.6} {:>14.6} {:>8.4}",
                values.len(),
                stats::median(&values),
                q1,
                q3,
                stats::spread(&values)
            );
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = "{\"record\":{\"provenance\":{\"workload\":\"calibrate\",\"seed\":3,\
        \"trace\":false,\"source_fingerprint\":\"ab\"}},\"config\":\"c\",\"result\":{\"correct\":true,\
        \"attempted\":4,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"},\
        \"op_p50_ms\":{\"value\":1e-3,\"unit\":\"ms\"}}}}";

    #[test]
    fn parses_recorded_result_lines() {
        assert_eq!(string_field(LINE, "workload"), Some("calibrate"));
        assert_eq!(raw_field(LINE, "trace"), Some("false"));
        assert_eq!(
            metrics(LINE),
            vec![
                ("setup_s".to_string(), 0.5),
                ("op_p50_ms".to_string(), 1e-3)
            ]
        );
        let g = group(&format!("{LINE}\n{LINE}\n"));
        let key = (
            "ab".to_string(),
            "calibrate".to_string(),
            "false".to_string(),
        );
        assert_eq!(g[&key]["setup_s"], vec![0.5, 0.5]);
    }
}
