//! Golden digests per cell, and the paper-headline table derived from
//! cell cycles.
//!
//! A golden file holds one line per simulated cell, in run order:
//! `<cell> <exec_cycles> <digest>`, the digest being 16 hex digits of the
//! FNV-1a 64-bit hash of the run's JSON with `host_events` zeroed. Lines
//! starting with `#` are comments.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One cell's expected result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    /// Simulated execution cycles.
    pub cycles: u64,
    /// Digest of the full result.
    pub digest: u64,
}

/// Parses a golden file into `(cell, expected)` pairs in file order.
pub fn parse(text: &str) -> Result<Vec<(String, Expect)>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|(i, l)| {
            let bad = || {
                format!(
                    "golden line {}: expected `<cell> <cycles> <digest>`: {l}",
                    i + 1
                )
            };
            let mut it = l.split_whitespace();
            let (Some(name), Some(c), Some(d), None) = (it.next(), it.next(), it.next(), it.next())
            else {
                return Err(bad());
            };
            let cycles = c.parse().map_err(|_| bad())?;
            let digest = u64::from_str_radix(d, 16).map_err(|_| bad())?;
            Ok((name.to_string(), Expect { cycles, digest }))
        })
        .collect()
}

/// Renders cells as a golden file with a comment header.
pub fn render(header: &str, cells: &[(String, Expect)]) -> String {
    let mut out = String::new();
    for l in header.lines() {
        let _ = writeln!(out, "# {l}");
    }
    for (name, e) in cells {
        let _ = writeln!(out, "{name} {} {:016x}", e.cycles, e.digest);
    }
    out
}

/// Compares produced cells against the golden ones; returns one message
/// per mismatch. With `subset`, produced cells need only appear in the
/// golden file (smoke runs); otherwise the two lists must match exactly.
pub fn compare(golden: &[(String, Expect)], got: &[(String, Expect)], subset: bool) -> Vec<String> {
    let want: BTreeMap<&str, &Expect> = golden.iter().map(|(n, e)| (n.as_str(), e)).collect();
    let mut out: Vec<String> = got
        .iter()
        .filter_map(|(name, e)| match want.get(name.as_str()) {
            None => Some(format!("{name}: no golden line")),
            Some(w) if *w != e => Some(format!(
                "{name}: {} cycles, digest {:016x}; golden {} cycles, digest {:016x}",
                e.cycles, e.digest, w.cycles, w.digest
            )),
            Some(_) => None,
        })
        .collect();
    if !subset && golden.len() != got.len() {
        out.push(format!(
            "{} cells run, {} golden lines",
            got.len(),
            golden.len()
        ));
    }
    out
}

/// The committed `reference/headline.txt`.
pub const PAPER_REFERENCE: &str = include_str!("../reference/headline.txt");

/// The paper's "slipstream vs best conventional" gain for one benchmark:
/// a percentage, or `None` where the paper reports only that slipstream
/// loses.
pub type PaperGain = Option<f64>;

/// Parses `reference/headline.txt`: `<benchmark> <gain%|negative>`.
pub fn parse_reference(text: &str) -> Result<Vec<(String, PaperGain)>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut it = l.split_whitespace();
            match (it.next(), it.next(), it.next()) {
                (Some(name), Some("negative"), None) => Ok((name.to_string(), None)),
                (Some(name), Some(v), None) => v
                    .parse()
                    .map(|v| (name.to_string(), Some(v)))
                    .map_err(|_| format!("reference line: bad gain: {l}")),
                _ => Err(format!(
                    "reference line: expected `<benchmark> <gain>`: {l}"
                )),
            }
        })
        .collect()
}

/// One row of the headline table (the `summary` binary's columns).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Benchmark name.
    pub bench: String,
    /// CMP count.
    pub nodes: String,
    /// Cycles of the better of single and double mode.
    pub best_conv: u64,
    /// Cycles of prefetch-only slipstream under the best A-R method.
    pub prefetch: u64,
    /// That method's label, e.g. `G0`.
    pub best_ar: String,
    /// Prefetch-only gain over the best conventional mode, percent.
    pub gain_pct: f64,
    /// Gain with self-invalidation, percent.
    pub gain_si_pct: f64,
}

/// Derives the headline table from `<bench>@<nodes>/<mode>` cell cycles.
/// Among the prefetch-only `slip-*` cells the first minimum wins, as in
/// the `summary` binary. Benchmarks missing a mode are skipped.
pub fn headline(cells: &[(String, Expect)]) -> Vec<Row> {
    // (benchmark, nodes, [(mode, cycles)]) in cell order.
    type Bench = (String, String, Vec<(String, u64)>);
    let mut benches: Vec<Bench> = Vec::new();
    for (name, e) in cells {
        let Some((bench, rest)) = name.split_once('@') else {
            continue;
        };
        let Some((nodes, mode)) = rest.split_once('/') else {
            continue;
        };
        if benches.last().is_none_or(|b| b.0 != bench) {
            benches.push((bench.to_string(), nodes.to_string(), Vec::new()));
        }
        if let Some(b) = benches.last_mut() {
            b.2.push((mode.to_string(), e.cycles));
        }
    }
    benches
        .into_iter()
        .filter_map(|(bench, nodes, modes)| {
            let get = |m: &str| modes.iter().find(|(k, _)| k == m).map(|x| x.1);
            let best_conv = get("single")?.min(get("double")?);
            let (best_ar, prefetch) = modes
                .iter()
                .filter_map(|(k, c)| k.strip_prefix("slip-").map(|ar| (ar.to_string(), *c)))
                .reduce(|a, b| if b.1 < a.1 { b } else { a })?;
            let si = get("slip+si")?;
            let gain = |c: u64| 100.0 * (best_conv as f64 / c as f64 - 1.0);
            Some(Row {
                bench,
                nodes,
                best_conv,
                prefetch,
                best_ar,
                gain_pct: gain(prefetch),
                gain_si_pct: gain(si),
            })
        })
        .collect()
}

/// Model error against the paper: the mean absolute difference, in
/// percentage points, between measured and paper gains over the
/// benchmarks with a numeric paper value; and the number of benchmarks
/// where slipstream wins or loses as it does in the paper.
pub fn accuracy(rows: &[Row], paper: &[(String, PaperGain)]) -> (f64, u32) {
    let mut err = Vec::new();
    let mut agree = 0;
    for (bench, gain) in paper {
        let Some(row) = rows.iter().find(|r| r.bench.eq_ignore_ascii_case(bench)) else {
            continue;
        };
        if let Some(g) = gain {
            err.push((row.gain_pct - g).abs());
        }
        if (row.gain_pct > 0.0) == gain.is_some_and(|g| g > 0.0) {
            agree += 1;
        }
    }
    let mean = if err.is_empty() {
        0.0
    } else {
        err.iter().sum::<f64>() / err.len() as f64
    };
    (mean, agree)
}

/// The table in the `summary` binary's layout.
pub fn render_headline(rows: &[Row]) -> String {
    let mut out = String::from("# Slipstream vs best conventional mode\n");
    let _ = writeln!(
        out,
        "{:<12} {:>6} {:>10} {:>10} {:>8} {:>10} {:>10}",
        "benchmark", "CMPs", "best-conv", "prefetch", "best-AR", "gain%", "gain+SI%"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>10.0} {:>10.0} {:>8} {:>9.1}% {:>9.1}%",
            r.bench,
            r.nodes,
            r.best_conv as f64,
            r.prefetch as f64,
            r.best_ar,
            r.gain_pct,
            r.gain_si_pct
        );
    }
    out
}
