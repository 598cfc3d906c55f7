//! `cargo xtask experiments` — check EXPERIMENTS.md against `exp_all`.
//!
//! Every fenced block in EXPERIMENTS.md whose first line is an experiment
//! header (`== E… ==`) is a copy of a table that `exp_all` prints. The
//! check runs `SCALE=paper exp_all` and compares each block with the
//! printed table of the same header, cell by cell. Cells that hold wall-clock measurements are
//! masked, because they differ on every run:
//!
//! * columns named in [`WALL_CLOCK_COLUMNS`] (E22's timings, the
//!   summary's `wall ms`), and
//! * rows named in [`WALL_CLOCK_ROWS`] (E25's open-loop half).
//!
//! Cells are found by splitting a row on runs of two or more spaces, the
//! gap `bench::Table` leaves between right-aligned columns; the header
//! row's cells name the columns. The dashed rule under the header is not
//! compared, since its length follows the column widths.

use std::fmt::Write as _;

/// Columns whose cells are wall-clock measurements, by header name.
pub const WALL_CLOCK_COLUMNS: &[&str] = &["p50 us", "p95 us", "speedup vs scalar", "wall ms"];

/// Rows whose cells are all wall-clock outcomes: `(table header prefix,
/// first cell)`.
pub const WALL_CLOCK_ROWS: &[(&str, &str)] = &[("== E25", "open")];

/// A table copied into EXPERIMENTS.md.
#[derive(Debug)]
pub struct DocTable {
    /// 1-based line of the header in the document.
    pub line: usize,
    /// The header line, then the rows, as written.
    pub lines: Vec<String>,
}

fn is_header(line: &str) -> bool {
    line.starts_with("== E") && line.ends_with(" ==")
}

/// The fenced blocks of `md` that open with an experiment header.
pub fn documented_tables(md: &str) -> Vec<DocTable> {
    let mut out = Vec::new();
    let mut lines = md.lines().enumerate();
    while let Some((_, line)) = lines.next() {
        if !line.starts_with("```") {
            continue;
        }
        let mut block: Vec<(usize, &str)> = Vec::new();
        for (i, l) in lines.by_ref() {
            if l.starts_with("```") {
                break;
            }
            block.push((i, l));
        }
        if let Some(&(i, first)) = block.first() {
            if is_header(first) {
                out.push(DocTable {
                    line: i + 1,
                    lines: block
                        .iter()
                        .map(|&(_, l)| l.trim_end().to_string())
                        .collect(),
                });
            }
        }
    }
    out
}

/// The tables in `exp_all`'s stdout: each header line with the lines that
/// follow it up to the next blank line or header.
pub fn printed_tables(stdout: &str) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> = Vec::new();
    let mut open = false;
    for line in stdout.lines() {
        let line = line.trim_end();
        if is_header(line) {
            out.push(vec![line.to_string()]);
            open = true;
        } else if line.is_empty() {
            open = false;
        } else if open {
            out.last_mut()
                .expect("a header opened this table")
                .push(line.to_string());
        }
    }
    out
}

fn cells(row: &str) -> Vec<&str> {
    row.trim()
        .split("  ")
        .map(str::trim)
        .filter(|c| !c.is_empty())
        .collect()
}

fn is_rule(row: &str) -> bool {
    !row.is_empty() && row.chars().all(|c| c == '-')
}

/// Rows reduced to what the check compares: masked cells become `*`, the
/// dashed rule is dropped.
fn comparable(table: &[String]) -> Vec<Vec<String>> {
    let header = &table[0];
    let columns = table.get(1).map(|r| cells(r)).unwrap_or_default();
    let masked_rows: Vec<&str> = WALL_CLOCK_ROWS
        .iter()
        .filter(|(prefix, _)| header.starts_with(prefix))
        .map(|&(_, first)| first)
        .collect();
    let mut out = vec![vec![header.clone()]];
    for row in &table[1..] {
        if is_rule(row) {
            continue;
        }
        let cs = cells(row);
        if cs.first().is_some_and(|c| masked_rows.contains(c)) {
            out.push(vec![cs[0].to_string(), "*".into()]);
            continue;
        }
        let masked = cs.len() == columns.len();
        out.push(
            cs.iter()
                .enumerate()
                .map(|(i, c)| {
                    if masked && WALL_CLOCK_COLUMNS.contains(&columns[i]) {
                        "*".to_string()
                    } else {
                        (*c).to_string()
                    }
                })
                .collect(),
        );
    }
    out
}

/// Compare every documented table with the printed table of the same
/// header. Returns one report per table that moved (the document's copy
/// and the binary's, masked cells shown as printed) and the number of
/// tables checked.
pub fn check(md: &str, stdout: &str) -> (Vec<String>, usize) {
    let printed = printed_tables(stdout);
    let docs = documented_tables(md);
    let mut moved = Vec::new();
    for doc in &docs {
        let found = printed.iter().find(|t| t[0] == doc.lines[0]);
        let same = found.is_some_and(|t| comparable(t) == comparable(&doc.lines));
        if same {
            continue;
        }
        let mut report = String::new();
        let _ = writeln!(report, "EXPERIMENTS.md:{}: table moved", doc.line);
        let _ = writeln!(report, "--- EXPERIMENTS.md");
        for l in &doc.lines {
            let _ = writeln!(report, "{l}");
        }
        match found {
            Some(t) => {
                let _ = writeln!(report, "+++ exp_all");
                for l in t {
                    let _ = writeln!(report, "{l}");
                }
            }
            None => {
                let _ = writeln!(report, "+++ exp_all printed no table with this header");
            }
        }
        moved.push(report);
    }
    (moved, docs.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    const MD: &str = "\
intro

```
== E1 / demo ==
 n  IOs  p50 us
---------------
 8   12    3.50
16   20    4.10
```

```
excerpt without a header
```

```
== E25: serve ==
  half  config  ios
-------------------
closed     cap   40
  open   paced    -
```
";

    const OUT: &str = "
== E1 / demo ==
 n  IOs  p50 us
---------------
 8   12    9.75
16   20    1234

== E25: serve ==
  half               config  ios
--------------------------------
closed                  cap   40
  open  paced (offered 9/s)    -
";

    #[test]
    fn parses_only_headed_blocks() {
        let docs = documented_tables(MD);
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[0].line, 4);
        assert_eq!(docs[0].lines.len(), 5);
        assert_eq!(printed_tables(OUT).len(), 2);
    }

    #[test]
    fn wall_clock_cells_are_masked() {
        // E1's timings and E25's open row differ, as do the widths.
        let (moved, checked) = check(MD, OUT);
        assert!(moved.is_empty(), "{moved:?}");
        assert_eq!(checked, 2);
    }

    #[test]
    fn an_edited_number_is_reported_with_its_block() {
        let (moved, _) = check(&MD.replace("16   20", "16   21"), OUT);
        assert_eq!(moved.len(), 1);
        assert!(
            moved[0].starts_with("EXPERIMENTS.md:4: table moved"),
            "{}",
            moved[0]
        );
        assert!(moved[0].contains("16   21") && moved[0].contains("16   20"));
    }

    #[test]
    fn a_dropped_row_is_reported() {
        let (moved, _) = check(&MD.replace("closed     cap   40\n", ""), OUT);
        assert_eq!(moved.len(), 1);
        assert!(moved[0].contains("E25: serve"));
    }

    #[test]
    fn a_missing_table_is_reported() {
        let (moved, _) = check(&MD.replace("E1 / demo", "E1 / gone"), OUT);
        assert_eq!(moved.len(), 1);
        assert!(moved[0].contains("no table with this header"));
    }
}
