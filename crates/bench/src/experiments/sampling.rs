//! E1–E3: the probabilistic foundations (Lemmas 1–3).

use rand::rngs::StdRng;
use rand::SeedableRng;
use topk_core::coreset::{core_set, lemma2_holds_for_query, CoreSetParams};
use topk_core::sampling::{lemma1_holds, lemma3_holds, one_in_k_sample, p_sample, Lemma1Params};

use crate::table::{f, Table};
use crate::Scale;

/// **E1 (Lemma 1).** Empirical probability that a p-sample's ⌈2kp⌉-th
/// element lands at rank `[k, 4k]`, against the proven `1 − δ` bound.
pub fn exp_lemma1(scale: Scale) -> Table {
    let n = scale.n(100_000);
    let trials = scale.trials(400);
    let mut t = Table::new(
        format!("E1 / Lemma 1 — rank sampling (n = {n}, {trials} trials)"),
        &["k", "delta", "p", "empirical", "bound 1-δ", "ok"],
    );
    let s: Vec<u64> = (0..n as u64).collect();
    for &k in &[100usize, 1_000, 10_000] {
        if n < 4 * k {
            continue;
        }
        for (di, &delta) in [0.5f64, 0.25, 0.1].iter().enumerate() {
            let p = (3.0 * (3.0f64 / delta).ln() / k as f64).min(1.0);
            let params = Lemma1Params { p, delta, k };
            if !params.preconditions(n) {
                continue;
            }
            // Independent trials: each derives its RNG from the trial
            // index, so the empirical rate is identical at any thread
            // count (see parallel::map_trials).
            let ok: usize = crate::parallel::map_trials(
                (0..trials).collect::<Vec<usize>>(),
                crate::parallel::default_threads(),
                |t, _| {
                    let mut rng = StdRng::seed_from_u64(
                        0xE1_0000_0000 ^ ((k as u64) << 20) ^ ((di as u64) << 16) ^ t as u64,
                    );
                    let r = p_sample(&mut rng, &s, p);
                    usize::from(lemma1_holds(&s, &r, k, p))
                },
            )
            .into_iter()
            .sum();
            let rate = ok as f64 / trials as f64;
            t.row_strings(vec![
                k.to_string(),
                f(delta),
                format!("{p:.4}"),
                f(rate),
                f(1.0 - delta),
                (rate >= 1.0 - delta).to_string(),
            ]);
        }
    }
    t
}

/// **E2 (Lemma 3).** Empirical probability that a (1/K)-sample's maximum
/// has rank `(K, 4K]`, against the proven `0.09` bound.
pub fn exp_lemma3(scale: Scale) -> Table {
    let n = scale.n(100_000);
    let trials = scale.trials(2_000);
    let mut t = Table::new(
        format!("E2 / Lemma 3 — max-sample rank (n = {n}, {trials} trials)"),
        &["K", "empirical", "bound", "ok"],
    );
    let s: Vec<u64> = (0..n as u64).collect();
    for &big_k in &[8.0f64, 64.0, 512.0, 4_096.0] {
        if (n as f64) < 4.0 * big_k {
            continue;
        }
        let ok: usize = crate::parallel::map_trials(
            (0..trials).collect::<Vec<usize>>(),
            crate::parallel::default_threads(),
            |t, _| {
                let mut rng =
                    StdRng::seed_from_u64(0xE2_0000_0000 ^ ((big_k as u64) << 16) ^ t as u64);
                let r = one_in_k_sample(&mut rng, &s, big_k);
                usize::from(lemma3_holds(&s, &r, big_k))
            },
        )
        .into_iter()
        .sum();
        let rate = ok as f64 / trials as f64;
        t.row_strings(vec![
            f(big_k),
            f(rate),
            "0.09".into(),
            (rate >= 0.09).to_string(),
        ]);
    }
    t
}

/// **E3 (Lemma 2).** Core-set size against the `12λ(n/K)·ln n` bound, and
/// the per-query rank property over sampled 1D prefix predicates (λ = 1
/// problem, built with the library's λ).
pub fn exp_coreset(scale: Scale) -> Table {
    let mut t = Table::new(
        "E3 / Lemma 2 — top-k core-sets on 1D prefix predicates",
        &[
            "n",
            "K",
            "|R|",
            "size bound",
            "queries ok",
            "queries checked",
        ],
    );
    let mut rng = StdRng::seed_from_u64(0xE3);
    for &n in &[scale.n(20_000), scale.n(80_000)] {
        let k = n / 20;
        let params = CoreSetParams { lambda: 1.0, k };
        // Elements: positions 0..n with shuffled distinct weights.
        let weights = workloads::distinct_weights(n, &mut rng);
        #[derive(Clone)]
        struct P {
            x: usize,
            w: u64,
        }
        impl topk_core::Element for P {
            fn weight(&self) -> u64 {
                self.w
            }
        }
        let items: Vec<P> = (0..n).map(|x| P { x, w: weights[x] }).collect();
        let r = core_set(&mut rng, &items, &params);
        let bound = params.size_bound(n);

        let mut checked = 0;
        let mut ok = 0;
        for q in (4 * k..n).step_by((n / 40).max(1)) {
            let qd: Vec<u64> = items[..=q].iter().map(|p| p.w).collect();
            let qr: Vec<u64> = r.iter().filter(|p| p.x <= q).map(|p| p.w).collect();
            checked += 1;
            if lemma2_holds_for_query(&qd, &qr, &params, n) {
                ok += 1;
            }
        }
        t.row_strings(vec![
            n.to_string(),
            k.to_string(),
            r.len().to_string(),
            f(bound),
            ok.to_string(),
            checked.to_string(),
        ]);
    }
    t
}
