//! Helpers shared by the integration tests that hold the smoke registry
//! to its committed golden logical-I/O counts.

use bench::parallel::ExpOutcome;

/// A run's `(name, reads, writes)`, sorted by name.
pub fn sorted_ios(outcomes: &[ExpOutcome]) -> Vec<(String, u64, u64)> {
    let mut rows: Vec<(String, u64, u64)> = outcomes
        .iter()
        .map(|o| (o.name.to_string(), o.ios.reads, o.ios.writes))
        .collect();
    rows.sort();
    rows
}

/// The committed golden counts as `(name, reads, writes)`, sorted by name.
/// A hand parser for the file's one shape,
/// `{"name": {"reads": R, "writes": W}, ...}`: the workspace has no JSON
/// dependency.
pub fn golden() -> Vec<(String, u64, u64)> {
    let text = include_str!("../../crates/bench/golden_smoke_ios.json");
    let mut tokens = text
        .split(|c: char| c.is_whitespace() || "{}:,\"".contains(c))
        .filter(|t| !t.is_empty());
    let mut rows = Vec::new();
    while let Some(name) = tokens.next() {
        let mut field = |key: &str| {
            assert_eq!(tokens.next(), Some(key), "golden entry {name}");
            let value = tokens.next().unwrap_or_default();
            value
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("golden {name}.{key} = {value:?}"))
        };
        let reads = field("reads");
        let writes = field("writes");
        rows.push((name.to_string(), reads, writes));
    }
    rows.sort();
    rows
}
