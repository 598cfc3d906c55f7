//! EXPLAIN a degraded serving batch end to end (the SERVING.md
//! walkthrough).
//!
//! ```text
//! cargo run --release -p bench --example explain_serve
//! ```
//!
//! Builds a Theorem 1 prefix index behind a [`TopKService`] whose
//! tenant budget is deliberately too small for the whale tenant, runs a
//! closed-loop request stream under [`CostModel::explain`], and prints
//! the per-phase table — the `admit`/`queue`/`shed` rows are the
//! serving loop, everything else is the index underneath — plus the
//! per-tenant ledger showing who got degraded and why.

use bench::traffic::{generate, TrafficConfig};
use emsim::{CostModel, EmConfig, FaultPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{Rung, ServeConfig, TopKService};
use topk_core::toy::{PrefixBuilder, ToyElem};
use topk_core::{Theorem1Params, WorstCaseTopK};

/// Distinct-weight random items on the prefix line (the E25 workload).
fn mk_items(n: usize, seed: u64) -> Vec<ToyElem> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut weights: Vec<u64> = (1..=n as u64).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        weights.swap(i, j);
    }
    (0..n)
        .map(|i| ToyElem {
            x: i as u64,
            w: weights[i],
        })
        .collect()
}

fn main() {
    let n = 4_096u64;
    let items = mk_items(n as usize, 0xE25);
    let requests: Vec<_> = generate(&TrafficConfig::whale_mix(0xE25, 160, n))
        .into_iter()
        .map(|a| a.req)
        .collect();

    // 64-word blocks, 256 pool frames; faults disarmed so the EXPLAIN
    // is reproducible.
    let model = CostModel::with_faults(EmConfig::with_memory(64, 256), FaultPlan::none());
    let index = WorstCaseTopK::build(
        &model,
        &PrefixBuilder,
        items,
        Theorem1Params::new(1.0).with_seed(0xE251),
    );

    // A budget small enough that tenant 0 (the whale, ~60% of traffic)
    // exhausts it mid-epoch; light tenants fit comfortably.
    let cfg = ServeConfig::default()
        .with_batch_max(16)
        .with_epoch_batches(4)
        .with_tenant_budget(100);
    let service = TopKService::new(index, model, cfg);

    let (replies, report) = service.model().explain(|| service.serve_closed(&requests));

    print!("{}", report.render("serve_closed, whale over budget"));
    println!();
    let count = |rung: Rung| replies.iter().filter(|r| r.rung == rung).count();
    println!(
        "{} requests: {} answered Full, {} Coarse, {} shed (all shed replies \
         are flagged Degraded, never silently wrong)",
        replies.len(),
        count(Rung::Full),
        count(Rung::Coarse),
        count(Rung::Shed)
    );
    println!();
    for t in service.report().tenants {
        println!(
            "tenant {}: {:>6} I/Os, epochs {:?}, full {:>3}, coarse {:>3}, shed {:>3}",
            t.tenant, t.ios, t.epochs, t.full, t.coarse, t.shed
        );
    }
}
