//! The header-mirror rule: a structure mirrors its block headers only to
//! a device that can hand a block back damaged.
//!
//! * A fault-free [`MemDevice`] never damages a block, so building a
//!   [`BlockArray`] on it issues no physical write at all.
//! * That changes no answer and no logical I/O: the same build on a
//!   [`FileDevice`], which receives every mirror and verifies every miss
//!   against it, gives equal `try_*` results and equal [`IoReport`]s.
//! * A [`MemDevice`] armed with torn writes still receives one mirror per
//!   block, and a device-checked read of a torn mirror is
//!   [`EmError::Corrupt`].

use std::path::PathBuf;
use std::sync::Arc;

use emsim::{
    BlockArray, BlockDevice, CostModel, EmConfig, EmError, FaultPlan, FileDevice, IoReport, Media,
    MemDevice, PoolPolicy, Retrier,
};

fn meter_on(dev: Arc<dyn BlockDevice>, plan: FaultPlan) -> CostModel {
    CostModel::with_device(EmConfig::with_memory(64, 8), plan, PoolPolicy::Lru, dev)
}

#[expect(clippy::disallowed_methods, reason = "test scratch directory")]
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("emsim-mirror-rule-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Build an array, run fallible reads over it, and return the answers
/// with the meter's report after each phase.
fn workout(m: &CostModel) -> (Vec<u64>, Vec<IoReport>) {
    let r = Retrier::default();
    let mut answers = Vec::new();
    let mut reports = Vec::new();

    let arr = BlockArray::new(m, (0u64..3000).map(|i| i * 3).collect());
    reports.push(m.report());

    for i in (0..3000).step_by(97) {
        answers.push(*arr.try_get(i, Media::Retried(&r)).expect("fault-free get"));
    }
    let visited = arr
        .try_scan_while(100, 2900, Media::Retried(&r), |&x| x < 5000)
        .expect("fault-free scan");
    answers.push(visited as u64);
    reports.push(m.report());
    (answers, reports)
}

#[test]
fn fault_free_mem_device_receives_no_mirror_writes() {
    let m = meter_on(Arc::new(MemDevice::new()), FaultPlan::none());
    let arr = BlockArray::new(&m, (0u64..5000).collect());
    assert!(arr.blocks() > 1);
    assert!(
        m.report().writes > 0,
        "the logical writes are still charged"
    );
    assert_eq!(
        m.physical().pwrites,
        0,
        "no header mirror reaches a fault-free MemDevice"
    );
    assert_eq!(m.physical().bytes_written, 0);
}

#[test]
fn skipping_mirrors_changes_no_answer_and_no_logical_io() {
    let mem = meter_on(Arc::new(MemDevice::new()), FaultPlan::none());
    let (mem_answers, mem_reports) = workout(&mem);

    let dir = fresh_dir("equal");
    let file = meter_on(
        Arc::new(FileDevice::open(&dir).expect("open store")),
        FaultPlan::none(),
    );
    let (file_answers, file_reports) = workout(&file);
    let file_physical = file.physical();
    #[expect(clippy::disallowed_methods, reason = "test scratch directory")]
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(mem_answers, file_answers);
    assert_eq!(mem_reports, file_reports);
    assert_eq!(mem.physical().pwrites, 0);
    assert!(
        file_physical.pwrites > 0,
        "the file store receives every mirror"
    );
    assert!(
        file_physical.preads > 0,
        "and verifies the misses against them"
    );
}

#[test]
fn torn_write_mem_device_keeps_one_mirror_per_block() {
    let plan = FaultPlan::new(5).with_torn_write(1.0);
    let m = meter_on(Arc::new(MemDevice::with_plan(plan)), plan);
    let arr = BlockArray::new(&m, (0u64..1000).collect());
    assert_eq!(
        m.physical().pwrites,
        arr.blocks(),
        "one mirror per laid-out block"
    );

    let e = arr
        .try_get(500, Media::Retried(&Retrier::default()))
        .expect_err("torn mirror detected");
    assert!(matches!(e, EmError::Corrupt { .. }), "got {e:?}");
}
