//! The substrate under the meter: the device a
//! [`CostModel`](crate::CostModel) mirrors its blocks to, the kernel
//! [`Backend`] its selections run on, the [`FaultPlan`] its fallible reads
//! consult, and the [`TraceSink`] its events go to.
//!
//! The paper's cost unit is the block I/O of one EM machine (§1.1), and
//! none of the four moves a logical I/O count: golden baselines hold on
//! every substrate. They are therefore one value, [`Substrate`], that a
//! meter is built on
//! ([`CostModel::with_substrate`](crate::CostModel::with_substrate)) and
//! that its [`scoped`](crate::CostModel::scoped) children inherit.
//!
//! [`CostModel::new`](crate::CostModel::new) builds on the process
//! default: [`Substrate::from_env`] on first use, replaceable for a region
//! with [`Substrate::install`].

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::device::FileDevice;
use crate::error::EmError;
use crate::fault::FaultPlan;
use crate::kernels::Backend;
use crate::trace::TraceSink;

/// What a meter runs on. Every field is purely logical below the meter:
/// answers and metered I/Os are identical on every substrate.
#[derive(Clone, Debug)]
pub struct Substrate {
    /// The store every meter on this substrate shares (`EMSIM_DEVICE=file`),
    /// or `None` for a private in-memory [`crate::MemDevice`] per meter.
    pub device: Option<Arc<FileDevice>>,
    /// The kernel backend selections run on.
    pub kernels: Backend,
    /// The fault plan meters start with (`FAULT_RATE` / `FAULT_SEED`).
    pub faults: FaultPlan,
    /// The trace sink meters start with, if any.
    pub trace: Option<Arc<dyn TraceSink>>,
}

/// The process default, filled from the environment on first use.
static DEFAULT: Mutex<Option<Substrate>> = Mutex::new(None);

/// Lock the default slot. Only whole values are ever stored in it, so a
/// panic elsewhere while it was held leaves it valid.
fn slot() -> MutexGuard<'static, Option<Substrate>> {
    DEFAULT.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Substrate {
    /// The substrate the environment asks for:
    ///
    /// * `EMSIM_DEVICE=file` shares one [`FileDevice`] in `EMSIM_DATA_DIR`
    ///   (default: `emsim-data-<pid>` in the temp directory); anything
    ///   else gives each meter a private in-memory device.
    /// * `EMSIM_KERNELS=scalar` runs the reference kernels; `unrolled`,
    ///   unset or anything else runs `Unrolled`.
    /// * `FAULT_RATE=r` with `r > 0` arms [`FaultPlan::chaos`] at
    ///   `min(r, 1)`, seeded by `FAULT_SEED` (default `0xFA017`); a rate
    ///   that is unset, unparsable, NaN or not positive arms nothing.
    /// * No trace sink.
    ///
    /// Panics when the file store cannot be opened.
    pub fn from_env() -> Substrate {
        let env = parse_env(|key| std::env::var(key).ok());
        let device = env.file_dir.map(|dir| {
            let dev = FileDevice::open_with(dir, env.faults)
                .expect("EMSIM_DEVICE=file: opening the FileDevice failed");
            Arc::new(dev)
        });
        Substrate {
            device,
            kernels: env.kernels,
            faults: env.faults,
            trace: None,
        }
    }

    /// Delete the process default's file store if it lives where
    /// `EMSIM_DEVICE=file` puts it when `EMSIM_DATA_DIR` is unset
    /// (`emsim-data-<pid>` in the temp directory). A store the caller
    /// named is left in place, and so is a default that was never filled.
    /// For the end of a process: meters built on the default must not
    /// touch their device afterwards.
    pub fn remove_default_store() -> Result<(), EmError> {
        let slot = slot();
        let device = slot.as_ref().and_then(|s| s.device.as_ref());
        match device {
            Some(dev) if dev.path() == default_data_dir() => dev.remove(),
            _ => Ok(()),
        }
    }

    /// The process default: [`Substrate::from_env`] on first use, or what
    /// an [`install`](Substrate::install) guard in force put there.
    pub fn current() -> Substrate {
        slot().get_or_insert_with(Substrate::from_env).clone()
    }

    /// Make `self` the process default until the returned guard drops,
    /// which restores the previous default, also when unwinding. Meters
    /// built before or after keep the substrate they were built on.
    #[must_use = "the previous default is restored when the guard drops"]
    pub fn install(self) -> SubstrateGuard {
        let mut slot = slot();
        // Fill the slot first: the guard then restores a value instead of
        // leaving the environment to be parsed (and a file store opened)
        // a second time.
        let current = slot.get_or_insert_with(Substrate::from_env);
        SubstrateGuard {
            previous: Some(std::mem::replace(current, self)),
        }
    }
}

/// Serializes the tests of this crate that install a default: two guards
/// dropped out of order would leave the inner one's substrate in place.
#[cfg(test)]
pub(crate) fn install_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Restores the previous default substrate on drop; see
/// [`Substrate::install`].
#[derive(Debug)]
pub struct SubstrateGuard {
    previous: Option<Substrate>,
}

impl Drop for SubstrateGuard {
    fn drop(&mut self) {
        *slot() = self.previous.take();
    }
}

/// Where `EMSIM_DEVICE=file` keeps its store when `EMSIM_DATA_DIR` is
/// unset.
fn default_data_dir() -> PathBuf {
    std::env::temp_dir().join(format!("emsim-data-{}", std::process::id()))
}

/// What the environment asks for, before any device is opened.
#[derive(Debug, PartialEq)]
struct EnvChoice {
    file_dir: Option<PathBuf>,
    kernels: Backend,
    faults: FaultPlan,
}

/// The parse behind [`Substrate::from_env`], over a variable lookup.
fn parse_env(var: impl Fn(&str) -> Option<String>) -> EnvChoice {
    let file_dir = (var("EMSIM_DEVICE").as_deref() == Some("file"))
        .then(|| var("EMSIM_DATA_DIR").map_or_else(default_data_dir, PathBuf::from));
    let kernels = match var("EMSIM_KERNELS").as_deref() {
        Some("scalar") => Backend::Scalar,
        _ => Backend::Unrolled,
    };
    let faults = var("FAULT_RATE")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|&rate| rate > 0.0)
        .map_or_else(FaultPlan::none, |rate| {
            let seed = var("FAULT_SEED")
                .and_then(|s| s.parse().ok())
                .unwrap_or(0xFA_017);
            FaultPlan::chaos(seed, rate.min(1.0))
        });
    EnvChoice {
        file_dir,
        kernels,
        faults,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{phase, RecordingSink};
    use crate::{CostModel, EmConfig, FaultScope};

    fn parse(vars: &[(&str, &str)]) -> EnvChoice {
        let lookup = |key: &str| {
            vars.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| (*v).to_string())
        };
        parse_env(lookup)
    }

    #[test]
    fn env_parse_table() {
        let unset = parse(&[]);
        assert_eq!(
            unset,
            EnvChoice {
                file_dir: None,
                kernels: Backend::Unrolled,
                faults: FaultPlan::none()
            }
        );

        for (device, dir) in [
            ("mem", None),
            ("junk", None),
            ("file", Some(PathBuf::from("/data/emsim"))),
        ] {
            let got = parse(&[("EMSIM_DEVICE", device), ("EMSIM_DATA_DIR", "/data/emsim")]);
            assert_eq!(got.file_dir, dir, "EMSIM_DEVICE={device}");
        }
        let default_dir = parse(&[("EMSIM_DEVICE", "file")]).file_dir;
        let pid = std::process::id();
        assert_eq!(
            default_dir,
            Some(std::env::temp_dir().join(format!("emsim-data-{pid}")))
        );

        // The retired `avx2` value and junk read as unset: `Unrolled`,
        // whatever the host CPU, and never an error.
        for (kernels, want) in [
            ("scalar", Backend::Scalar),
            ("unrolled", Backend::Unrolled),
            ("avx2", Backend::Unrolled),
            ("AVX2", Backend::Unrolled),
            ("junk", Backend::Unrolled),
            ("", Backend::Unrolled),
        ] {
            let got = parse(&[("EMSIM_KERNELS", kernels)]).kernels;
            assert_eq!(got, want, "EMSIM_KERNELS={kernels}");
        }

        for (rate, want) in [
            ("0", FaultPlan::none()),
            ("NaN", FaultPlan::none()),
            ("-0.5", FaultPlan::none()),
            ("junk", FaultPlan::none()),
            ("0.2", FaultPlan::chaos(0xFA_017, 0.2)),
            ("7.5", FaultPlan::chaos(0xFA_017, 1.0)),
        ] {
            assert_eq!(
                parse(&[("FAULT_RATE", rate)]).faults,
                want,
                "FAULT_RATE={rate}"
            );
        }
        let seeded = parse(&[("FAULT_RATE", "0.02"), ("FAULT_SEED", "7")]);
        assert_eq!(seeded.faults, FaultPlan::chaos(7, 0.02));
        let bad_seed = parse(&[("FAULT_RATE", "0.02"), ("FAULT_SEED", "junk")]);
        assert_eq!(bad_seed.faults, FaultPlan::chaos(0xFA_017, 0.02));
    }

    #[test]
    fn installed_default_arms_new_meters_and_restores_on_drop() {
        // Other tests in this binary build meters on the default while
        // this one runs, so what it installs must not move their counts:
        // a backend and a sink never do, and the plan is file-scoped, so
        // inert on their in-memory devices.
        let _serial = install_lock();
        let before = Substrate::current();
        let sink = Arc::new(RecordingSink::new());
        let plan = FaultPlan::chaos(99, 0.25).with_scope(FaultScope::File);
        let installed = Substrate {
            kernels: Backend::Scalar,
            faults: plan,
            trace: Some(sink.clone()),
            ..before.clone()
        };
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = installed.install();
            assert_eq!(Substrate::current().faults, plan);
            let m = CostModel::new(EmConfig::new(64));
            assert_eq!(m.kernels(), Backend::Scalar);
            assert!(m.trace_sink().is_some());
            {
                let _g = m.span(phase::SCAN);
                m.charge_reads(2);
            }
            assert_eq!(sink.report().phase(phase::SCAN).reads, 2);
            assert_eq!(m.scoped().kernels(), Backend::Scalar, "children inherit");
            panic!("boom");
        }));
        assert!(r.is_err());
        let after = Substrate::current();
        assert_eq!(
            (after.kernels, after.faults),
            (before.kernels, before.faults)
        );
        assert!(after.trace.is_none(), "restored after panic");
        // An explicit substrate needs no default at all.
        let m = CostModel::with_substrate(
            EmConfig::new(64),
            Substrate {
                kernels: Backend::Scalar,
                ..Substrate::current()
            },
        );
        assert_eq!(m.kernels(), Backend::Scalar);
    }
}
