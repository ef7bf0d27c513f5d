//! EXPERIMENTS.md quotes measured tables from `docs/results/`. This test
//! keeps the fenced Figure 1, 4 and 10 tables from drifting: every number
//! in a column whose header the cited file also has must equal the file's
//! value at the precision the document prints. Rows are matched by
//! benchmark and columns by header; other columns (the paper's values and
//! the verdicts) are prose.

/// A whitespace-separated table: column headers and labelled rows.
struct Table<'a> {
    headers: Vec<&'a str>,
    rows: Vec<(&'a str, Vec<&'a str>)>,
}

impl<'a> Table<'a> {
    /// Parses `lines`: the first is the header row, each later one a row
    /// whose first token is its label. With `labelled_header`, the header
    /// row names the label column too (as the results files do).
    fn parse(mut lines: impl Iterator<Item = &'a str>, labelled_header: bool) -> Table<'a> {
        let header = lines.next().expect("a header row");
        let headers = header.split_whitespace().skip(usize::from(labelled_header)).collect();
        let rows = lines
            .filter(|l| !l.trim().is_empty())
            .map(|l| {
                let mut tokens = l.split_whitespace();
                (tokens.next().expect("a label"), tokens.collect())
            })
            .collect();
        Table { headers, rows }
    }
}

fn read(path: &str) -> String {
    let full = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(full).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The first fenced block of the section whose heading starts with
/// `heading`.
fn fenced_table<'a>(doc: &'a str, heading: &str) -> &'a str {
    let start = doc.find(&format!("\n{heading}")).unwrap_or_else(|| panic!("no `{heading}`"));
    let section = &doc[start + 1..];
    let section = &section[..section[1..].find("\n## ").map_or(section.len(), |end| end + 1)];
    let open = section.find("\n```").unwrap_or_else(|| panic!("`{heading}` has no fenced table"));
    let body = &section[open + 4..];
    let body = &body[body.find('\n').expect("the fence line ends") + 1..];
    &body[..body.find("```").unwrap_or_else(|| panic!("`{heading}`: unclosed fence"))]
}

/// Checks the fenced table under `heading` against the results file
/// `results`, returning one message per mismatch.
fn check(doc: &str, heading: &str, results: &str) -> Vec<String> {
    let file_text = read(results);
    let file = Table::parse(file_text.lines().filter(|l| !l.starts_with('#')), true);
    let quoted = Table::parse(fenced_table(doc, heading).lines(), false);
    let columns: Vec<(usize, usize)> = quoted
        .headers
        .iter()
        .enumerate()
        .filter_map(|(i, h)| Some((i, file.headers.iter().position(|f| f == h)?)))
        .collect();
    if columns.is_empty() {
        return vec![format!("{heading}: no column header matches {results}: {:?}", file.headers)];
    }
    let mut errors = Vec::new();
    for (label, cells) in &quoted.rows {
        let Some((_, measured)) = file.rows.iter().find(|(l, _)| l == label) else {
            errors.push(format!("{heading}: {label} is not a row of {results}"));
            continue;
        };
        for &(i, j) in &columns {
            let (header, shown) = (quoted.headers[i], cells.get(i).copied().unwrap_or("nothing"));
            let digits = shown.split_once('.').map_or(0, |(_, frac)| frac.len());
            let value: f64 = measured[j].parse().expect("results cells are numbers");
            let expected = format!("{value:.digits$}");
            if shown != expected {
                errors.push(format!(
                    "{heading}: {label} {header} is {shown} in EXPERIMENTS.md, {expected} in \
                     {results}"
                ));
            }
        }
    }
    errors
}

#[test]
fn experiments_tables_match_docs_results() {
    let doc = read("EXPERIMENTS.md");
    let errors: Vec<String> = [
        ("## Figure 1 —", "docs/results/fig1.txt"),
        ("## Figure 4 —", "docs/results/fig4.txt"),
        ("## Figure 10 —", "docs/results/fig10.txt"),
    ]
    .iter()
    .flat_map(|(heading, results)| check(&doc, heading, results))
    .collect();
    assert!(errors.is_empty(), "EXPERIMENTS.md drifted from docs/results/:\n{}", errors.join("\n"));
}
