//! A tour of the external-memory cost model (`emsim`): block sizes, the
//! buffer pool, and how the same index costs different I/Os on different
//! machines — the knobs behind every experiment table.
//!
//! Run with: `cargo run --release --example io_model`

use topk::core::{CostModel, EmConfig, TopKIndex};
use topk::interval::TopKStabbing;
use topk::workloads::intervals;

fn main() {
    let n = 50_000;
    let items = intervals::uniform(n, 1_000.0, 120.0, 3);

    println!("top-10 stabbing query costs for n = {n}, varying the machine:\n");
    println!(
        "{:>6} {:>10} {:>14} {:>12}",
        "B", "mem", "build blocks", "IO/query"
    );
    for (b, mem) in [(16usize, 0usize), (64, 0), (256, 0), (64, 256), (64, 4096)] {
        let model = CostModel::new(EmConfig::with_memory(b, mem));
        let index = TopKStabbing::build(&model, items.clone(), 3);
        // Warm the pool (if any), then measure 20 queries.
        let run = || {
            model.reset();
            for i in 0..20 {
                let mut out = Vec::new();
                index.query_topk(&(i as f64 * 47.0), 10, &mut out);
            }
            model.report().reads / 20
        };
        run();
        let per_query = run();
        println!(
            "{:>6} {:>10} {:>14} {:>12}",
            b,
            if mem == 0 {
                "none".to_string()
            } else {
                format!("{mem} blk")
            },
            index.space_blocks(),
            per_query
        );
    }

    println!(
        "\nLarger blocks amortize the output term (k/B); a buffer pool\n\
         absorbs re-reads of the hot upper levels — exactly the two levers\n\
         the paper's EM bounds are written in."
    );
}
