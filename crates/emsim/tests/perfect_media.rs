//! A read on [`Media::Perfect`] ignores an armed fault plan.
//!
//! Two meters build the same [`BlockArray`]: one armed with every block
//! permanently bad, every block corrupt and every device write torn, the
//! other with no plan at all. Each infallible accessor must give the
//! right answer on both, charge both meters the same [`IoReport`],
//! count no fault and issue no device read. The same blocks read on
//! [`Media::Retried`] fail on the armed meter, so the plan is live.

use std::sync::Arc;

use emsim::{BlockArray, CostModel, EmConfig, FaultPlan, Media, MemDevice, PoolPolicy, Retrier};

struct Fixture {
    m: CostModel,
    arr: BlockArray<u64>,
}

fn fixture(plan: FaultPlan) -> Fixture {
    let dev = Arc::new(MemDevice::with_plan(plan));
    let m = CostModel::with_device(EmConfig::with_memory(64, 8), plan, PoolPolicy::Lru, dev);
    let arr = BlockArray::new(&m, (0u64..3000).map(|i| i * 3).collect());
    Fixture { m, arr }
}

/// `(accessor, read, expected answer)`.
type Case = (&'static str, fn(&Fixture) -> u64, u64);

const CASES: [Case; 4] = [
    ("BlockArray::get", |f| *f.arr.get(1234), 3702),
    (
        "BlockArray::scan_while",
        |f| f.arr.scan_while(100, 2900, |&x| x < 5000) as u64,
        1568,
    ),
    (
        "BlockArray::partition_point",
        |f| f.arr.partition_point(|&x| x < 4000) as u64,
        1334,
    ),
    (
        "BlockArray::scan_range",
        |f| {
            let mut sum = 0;
            f.arr.scan_range(10, 700, |&x| sum += x);
            sum
        },
        733_815,
    ),
];

#[test]
fn perfect_reads_ignore_an_armed_plan() {
    let armed_plan = FaultPlan::new(9)
        .with_permanent(1.0)
        .with_corrupt(1.0)
        .with_torn_write(1.0);
    let armed = fixture(armed_plan);
    let clean = fixture(FaultPlan::none());
    assert!(
        armed.m.physical().pwrites > 0,
        "the torn-write device received mirrors"
    );

    for (name, read, expected) in CASES {
        let preads = armed.m.physical().preads;
        let (got, armed_io) = armed.m.measure(|| read(&armed));
        let (want, clean_io) = clean.m.measure(|| read(&clean));
        assert_eq!(want, expected, "{name}: unarmed answer");
        assert_eq!(got, expected, "{name}: armed answer");
        assert_eq!(armed_io, clean_io, "{name}: equal charges");
        assert!(armed_io.reads > 0, "{name}: the read was charged");
        assert_eq!(armed_io.faults, 0, "{name}: no fault counted");
        assert_eq!(armed.m.physical().preads, preads, "{name}: no device read");
    }

    let r = Retrier::default();
    armed.m.clear_pool();
    assert!(armed.arr.try_get(1234, Media::Retried(&r)).is_err());
    assert!(
        armed.m.report().faults > 0,
        "the armed plan bites on Media::Retried"
    );
}
