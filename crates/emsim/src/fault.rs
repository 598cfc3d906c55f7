//! Deterministic fault injection for the simulated disk.
//!
//! A [`FaultPlan`] decides, per `(array_id, block, attempt)` triple, whether
//! a block read succeeds, fails transiently, hits a permanently bad block,
//! or returns silently corrupted data (caught by the per-block sentinel
//! check of [`crate::CostModel::read`]). The decisions are pure
//! functions of the plan's seed — the same RNG discipline as the parallel
//! experiment harness — so a fault sweep is reproducible at any thread
//! count and a [`Retrier`] replaying an access sees a consistent device.
//!
//! The infallible [`crate::CostModel::touch`] path never consults the plan:
//! fault-free code keeps its exact I/O counts (no meter drift), and only
//! reads on [`crate::Media::Retried`] observe faults.
//!
//! A meter starts with its [`crate::Substrate`]'s plan, so a soak test can
//! subject every meter it builds to one failure regime by installing a
//! default substrate with that plan (`FAULT_RATE` / `FAULT_SEED` set it
//! from the environment) rather than threading a plan through every build.

use crate::error::EmError;

/// `SplitMix64` finalizer: the bit mixer behind every fault decision (also
/// used by the storage layer to derive per-block checksum sentinels).
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a hash to a uniform float in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

const SALT_TRANSIENT: u64 = 0x7472_616E_7369; // "transi"
const SALT_PERMANENT: u64 = 0x7065_726D; // "perm"
const SALT_CORRUPT: u64 = 0x636F_7272; // "corr"
const SALT_TORN: u64 = 0x746F_726E; // "torn"
const SALT_SHORT: u64 = 0x7368_6F72; // "shor"

/// Which device class an armed [`FaultPlan`] applies to.
///
/// With real devices in the process, a chaos plan armed for a
/// [`crate::FileDevice`] torture run must not silently also fire on the
/// in-memory meters that the golden baselines are recorded against. A plan
/// scoped to a class is inert
/// (both its logical rates and its device fault kinds) on meters and devices
/// of any other class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FaultScope {
    /// The plan applies everywhere (the historical behavior, and the
    /// default).
    #[default]
    Any,
    /// The plan applies only to meters/devices backed by the in-memory
    /// simulator ([`crate::MemDevice`]).
    Mem,
    /// The plan applies only to meters/devices backed by the file store
    /// ([`crate::FileDevice`]).
    File,
}

/// A deterministic, seed-driven description of which block reads fail.
///
/// Rates are probabilities in `[0, 1]`:
///
/// * `transient` — each *attempt* on a block independently fails with this
///   probability (so a retry usually clears it);
/// * `permanent` — each *block* is permanently unreadable with this
///   probability (every attempt fails);
/// * `corrupt` — each *block* silently corrupts with this probability (the
///   read "succeeds" but the checksum comparison fails, on every attempt).
///
/// Besides the logical rates, a plan can arm *physical* fault kinds that
/// only a [`crate::BlockDevice`] interprets:
///
/// * `torn_write` — each device write independently persists only a prefix
///   of the payload with this probability (a lying disk: the writer sees
///   success; the tear surfaces later as [`EmError::Corrupt`] when the
///   block's CRC fails);
/// * `short_read` — each device read independently returns short with this
///   probability (surfaced as a retryable [`EmError::Transient`]);
/// * `crash_after` — `CrashPoint(n)`: the `n`-th physical write (0-based)
///   is torn mid-sector and the device is poisoned — every subsequent
///   operation fails with [`EmError::Io`], modeling the process image dying.
///   Recovery is exercised by reopening the store with
///   [`crate::FileDevice::open`].
///
/// `scope` restricts the whole plan (logical and physical kinds alike) to
/// one device class; see [`FaultScope`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault universe; two plans with equal rates but different
    /// seeds fail different blocks.
    pub seed: u64,
    /// Per-attempt transient read failure probability.
    pub transient: f64,
    /// Per-block permanent bad-block probability.
    pub permanent: f64,
    /// Per-block silent-corruption probability.
    pub corrupt: f64,
    /// Per-write torn-write (prefix-only persistence) probability.
    pub torn_write: f64,
    /// Per-read short-read probability.
    pub short_read: f64,
    /// Poison the device after this 0-based physical write index, tearing
    /// that write mid-sector. `None` = never crash.
    pub crash_after: Option<u64>,
    /// Which device class the plan (all kinds) applies to.
    pub scope: FaultScope,
}

impl FaultPlan {
    /// The fault-free plan (all rates zero): what a [`crate::Substrate`]
    /// arms unless `FAULT_RATE` or its builder says otherwise.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            transient: 0.0,
            permanent: 0.0,
            corrupt: 0.0,
            torn_write: 0.0,
            short_read: 0.0,
            crash_after: None,
            scope: FaultScope::Any,
        }
    }

    /// A plan with the given seed and all rates zero; chain the `with_*`
    /// setters to arm it.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::none()
        }
    }

    /// Set the per-attempt transient failure rate.
    pub fn with_transient(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        self.transient = rate;
        self
    }

    /// Set the per-block permanent bad-block rate.
    pub fn with_permanent(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        self.permanent = rate;
        self
    }

    /// Set the per-block silent-corruption rate.
    pub fn with_corrupt(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        self.corrupt = rate;
        self
    }

    /// Set the per-write torn-write rate (device-level; see the type docs).
    pub fn with_torn_write(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        self.torn_write = rate;
        self
    }

    /// Set the per-read short-read rate (device-level; see the type docs).
    pub fn with_short_read(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        self.short_read = rate;
        self
    }

    /// Poison the device after its `n`-th physical write (0-based), tearing
    /// that write — the `CrashPoint(n)` fault kind.
    pub fn with_crash_point(mut self, n: u64) -> Self {
        self.crash_after = Some(n);
        self
    }

    /// Restrict the plan to one device class; see [`FaultScope`].
    pub fn with_scope(mut self, scope: FaultScope) -> Self {
        self.scope = scope;
        self
    }

    /// A convenience mixed profile for chaos runs: transient at `rate`,
    /// permanent at `rate/4`, corruption at `rate/8`.
    pub fn chaos(seed: u64, rate: f64) -> Self {
        FaultPlan::new(seed)
            .with_transient(rate)
            .with_permanent(rate / 4.0)
            .with_corrupt(rate / 8.0)
    }

    /// Whether any *logical* fault (transient / bad-block / corruption) can
    /// ever fire. Device-level kinds are reported by
    /// [`FaultPlan::has_device_faults`].
    pub fn is_active(&self) -> bool {
        self.transient > 0.0 || self.permanent > 0.0 || self.corrupt > 0.0
    }

    /// Whether any device-level fault kind (torn write / short read /
    /// crash point) is armed.
    pub fn has_device_faults(&self) -> bool {
        self.torn_write > 0.0 || self.short_read > 0.0 || self.crash_after.is_some()
    }

    /// Whether the plan's scope covers `class`.
    pub fn applies_to(&self, class: crate::device::DeviceClass) -> bool {
        match self.scope {
            FaultScope::Any => true,
            FaultScope::Mem => class == crate::device::DeviceClass::Mem,
            FaultScope::File => class == crate::device::DeviceClass::File,
        }
    }

    /// The plan as seen by a meter or device of class `class`: `self` when
    /// the scope covers it, [`FaultPlan::none`] otherwise. This is the
    /// choke point that keeps a file-scoped chaos plan from firing on the
    /// in-memory golden-baseline meters in the same process.
    pub fn for_class(&self, class: crate::device::DeviceClass) -> FaultPlan {
        if self.applies_to(class) {
            *self
        } else {
            FaultPlan::none()
        }
    }

    /// Whether the `index`-th physical device write is torn (only a prefix
    /// of the payload reaches the medium).
    pub fn is_torn_write(&self, index: u64) -> bool {
        self.torn_write > 0.0 && unit(self.hash(SALT_TORN, index, 0, 0)) < self.torn_write
    }

    /// Whether the `index`-th physical device read returns short (the
    /// device-level analogue of a transient fault; callers retry).
    pub fn is_short_read(&self, index: u64) -> bool {
        self.short_read > 0.0 && unit(self.hash(SALT_SHORT, index, 0, 0)) < self.short_read
    }

    fn hash(&self, salt: u64, array_id: u64, block: u64, attempt: u64) -> u64 {
        mix(mix(mix(mix(self.seed ^ salt) ^ array_id) ^ block) ^ attempt)
    }

    /// Whether this block is permanently unreadable under the plan.
    pub fn is_bad_block(&self, array_id: u64, block: u64) -> bool {
        self.permanent > 0.0 && unit(self.hash(SALT_PERMANENT, array_id, block, 0)) < self.permanent
    }

    /// Whether this block's payload is silently corrupted under the plan.
    /// Bad blocks are not additionally corrupted (the read already fails).
    pub fn is_corrupted(&self, array_id: u64, block: u64) -> bool {
        self.corrupt > 0.0
            && !self.is_bad_block(array_id, block)
            && unit(self.hash(SALT_CORRUPT, array_id, block, 0)) < self.corrupt
    }

    /// The outcome of disk-read `attempt` (0-based) on a block: `Ok(())` if
    /// the device returned data, or the injected failure. Corruption is
    /// *not* reported here — it is silent by definition and only surfaces
    /// through the sentinel check of [`crate::CostModel::read`].
    pub fn read_outcome(&self, array_id: u64, block: u64, attempt: u32) -> Result<(), EmError> {
        if self.is_bad_block(array_id, block) {
            return Err(EmError::BadBlock { array_id, block });
        }
        if self.transient > 0.0
            && unit(self.hash(SALT_TRANSIENT, array_id, block, attempt as u64)) < self.transient
        {
            return Err(EmError::Transient { array_id, block });
        }
        Ok(())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Bounded-retry policy for transient faults.
///
/// `budget` is the number of *re*-attempts after the first failure; a budget
/// of 0 fails fast. Each attempt is a real disk read, so the substrate
/// charges one read I/O per attempt (successful or not) — recovery cost is
/// visible in the [`crate::IoReport`], which is the "I/O-charged backoff"
/// the experiments plot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Retrier {
    /// Maximum retries after the first failed attempt.
    pub budget: u32,
}

impl Retrier {
    /// A retrier with the given budget.
    pub fn new(budget: u32) -> Self {
        Retrier { budget }
    }

    /// Run `f(attempt)` for attempts `0, 1, …` until it succeeds, fails
    /// non-transiently, or the budget is exhausted (in which case the last
    /// transient error is converted to [`EmError::Exhausted`]).
    pub fn run<T>(&self, mut f: impl FnMut(u32) -> Result<T, EmError>) -> Result<T, EmError> {
        let mut last = None;
        for attempt in 0..=self.budget {
            match f(attempt) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        let (array_id, block) = last
            .expect("loop ran at least once and only falls through on a stored transient error")
            .location();
        Err(EmError::Exhausted {
            array_id,
            block,
            attempts: self.budget + 1,
        })
    }
}

impl Default for Retrier {
    fn default() -> Self {
        Retrier { budget: 3 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_inert() {
        let p = FaultPlan::none();
        assert!(!p.is_active());
        for b in 0..1_000 {
            assert_eq!(p.read_outcome(0, b, 0), Ok(()));
            assert!(!p.is_bad_block(0, b));
            assert!(!p.is_corrupted(0, b));
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_dependent() {
        let p1 = FaultPlan::new(1).with_permanent(0.2);
        let p2 = FaultPlan::new(2).with_permanent(0.2);
        let a: Vec<bool> = (0..200).map(|b| p1.is_bad_block(5, b)).collect();
        let b: Vec<bool> = (0..200).map(|b| p1.is_bad_block(5, b)).collect();
        let c: Vec<bool> = (0..200).map(|b| p2.is_bad_block(5, b)).collect();
        assert_eq!(a, b, "same plan, same decisions");
        assert_ne!(a, c, "different seeds fail different blocks");
    }

    #[test]
    fn rates_are_roughly_honored() {
        let p = FaultPlan::new(42).with_permanent(0.1);
        let bad = (0..20_000).filter(|&b| p.is_bad_block(0, b)).count();
        assert!((1_200..2_800).contains(&bad), "bad = {bad}");
        let p = FaultPlan::new(42).with_transient(0.3);
        let fails = (0..20_000)
            .filter(|&b| p.read_outcome(0, b, 0).is_err())
            .count();
        assert!((4_800..7_200).contains(&fails), "fails = {fails}");
    }

    #[test]
    fn transient_faults_clear_across_attempts() {
        let p = FaultPlan::new(7).with_transient(0.5);
        // Find a block whose first attempt fails; some later attempt must
        // succeed (probability of 50 consecutive failures ~ 2^-50).
        let block = (0..1_000)
            .find(|&b| p.read_outcome(0, b, 0).is_err())
            .expect("at rate 0.5 some first attempt fails");
        assert!(
            (1..50).any(|a| p.read_outcome(0, block, a).is_ok()),
            "transient fault never cleared"
        );
    }

    #[test]
    fn bad_blocks_fail_every_attempt() {
        let p = FaultPlan::new(3).with_permanent(0.2);
        let block = (0..1_000)
            .find(|&b| p.is_bad_block(9, b))
            .expect("some bad block at rate 0.2");
        for attempt in 0..20 {
            assert_eq!(
                p.read_outcome(9, block, attempt),
                Err(EmError::BadBlock { array_id: 9, block })
            );
        }
    }

    #[test]
    fn corruption_is_silent_and_disjoint_from_bad_blocks() {
        let p = FaultPlan::new(11).with_corrupt(0.3).with_permanent(0.3);
        let mut corrupted = 0;
        for b in 0..2_000 {
            if p.is_corrupted(4, b) {
                corrupted += 1;
                // Silent: the read itself succeeds (unless transient).
                assert_eq!(p.read_outcome(4, b, 0), Ok(()));
                assert!(!p.is_bad_block(4, b));
            }
        }
        assert!(corrupted > 100, "corrupted = {corrupted}");
    }

    #[test]
    fn retrier_retries_transients_within_budget() {
        let mut calls = 0;
        let r = Retrier::new(3);
        let out = r.run(|attempt| {
            calls += 1;
            if attempt < 2 {
                Err(EmError::Transient {
                    array_id: 0,
                    block: 0,
                })
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(out, Ok(2));
        assert_eq!(calls, 3);
    }

    #[test]
    fn retrier_exhausts_into_typed_error() {
        let r = Retrier::new(2);
        let out: Result<(), _> = r.run(|_| {
            Err(EmError::Transient {
                array_id: 1,
                block: 9,
            })
        });
        assert_eq!(
            out,
            Err(EmError::Exhausted {
                array_id: 1,
                block: 9,
                attempts: 3
            })
        );
    }

    #[test]
    fn retrier_does_not_retry_permanent_faults() {
        let mut calls = 0;
        let out: Result<(), _> = Retrier::new(5).run(|_| {
            calls += 1;
            Err(EmError::BadBlock {
                array_id: 0,
                block: 3,
            })
        });
        assert_eq!(
            out,
            Err(EmError::BadBlock {
                array_id: 0,
                block: 3
            })
        );
        assert_eq!(calls, 1, "permanent faults fail fast");
    }

    #[test]
    fn device_fault_kinds_are_deterministic_and_scoped() {
        use crate::device::DeviceClass;
        let p = FaultPlan::new(17)
            .with_torn_write(0.3)
            .with_short_read(0.3)
            .with_crash_point(5);
        assert!(p.has_device_faults());
        assert!(
            !p.is_active(),
            "device kinds alone don't arm the logical path"
        );
        let torn: Vec<bool> = (0..500).map(|i| p.is_torn_write(i)).collect();
        assert_eq!(
            torn,
            (0..500).map(|i| p.is_torn_write(i)).collect::<Vec<_>>()
        );
        assert!(torn.iter().any(|&t| t) && torn.iter().any(|&t| !t));
        // Scoping: a file-only plan is inert for the Mem class.
        let scoped = p.with_scope(FaultScope::File);
        assert!(scoped.applies_to(DeviceClass::File));
        assert!(!scoped.applies_to(DeviceClass::Mem));
        assert_eq!(scoped.for_class(DeviceClass::Mem), FaultPlan::none());
        assert_eq!(scoped.for_class(DeviceClass::File), scoped);
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "test scratch directory")]
    fn global_plan_install_and_clear() {
        // File-scoped, so inert on the in-memory devices of meters other
        // tests build on the default while this one runs.
        use crate::{CostModel, EmConfig, FileDevice, Substrate};
        let _serial = crate::substrate::install_lock();
        let before = Substrate::current();
        let plan = FaultPlan::chaos(99, 0.25).with_scope(FaultScope::File);
        let guard = Substrate {
            faults: plan,
            ..before.clone()
        }
        .install();
        assert_eq!(Substrate::current().faults, plan);
        let m = CostModel::new(EmConfig::new(64));
        assert!(
            !m.fault_plan().is_active(),
            "scope-filtered on an in-memory meter"
        );
        let dir = std::env::temp_dir().join(format!(
            "emsim-fault-test-{}-global-plan",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let file = std::sync::Arc::new(FileDevice::open(&dir).expect("open"));
        let on_file = Substrate {
            device: Some(file),
            ..Substrate::current()
        };
        let armed = CostModel::with_substrate(EmConfig::new(64), on_file.clone());
        assert_eq!(armed.fault_plan(), plan);
        drop(guard);
        assert_eq!(Substrate::current().faults, before.faults);
        let cleared = Substrate {
            device: on_file.device,
            ..Substrate::current()
        };
        let m2 = CostModel::with_substrate(EmConfig::new(64), cleared);
        assert_eq!(
            m2.fault_plan(),
            before.faults,
            "cleared back to the previous default"
        );
        assert_eq!(armed.fault_plan(), plan, "a built meter keeps its plan");
        drop((armed, m2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
