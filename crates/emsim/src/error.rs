//! [`EmError`]: the typed failure vocabulary of the fallible EM substrate.
//!
//! The infallible accessors ([`crate::BlockArray::get`] and friends) model
//! perfect media; the `try_*` accessors instead surface injected faults
//! (see [`crate::fault`]) as values of this type, so every layer above the
//! substrate can decide to retry, degrade, or report — never panic.

use std::path::PathBuf;
use std::sync::Arc;

/// A failed block access in the simulated EM machine.
///
/// The logical variants carry the `(array_id, block)` address of the failing
/// block so recovery policies can reason about *which* structure broke;
/// [`EmError::Io`] instead carries the syscall context (operation name, file
/// path, byte offset) of a real device failure. The enum is non-exhaustive
/// so future device kinds can add failure modes without breaking matches.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum EmError {
    /// A transient read error: the device timed out or returned garbage it
    /// itself flagged. Retrying the same block may succeed.
    Transient {
        /// Structure identity (from [`crate::CostModel::new_array_id`]).
        array_id: u64,
        /// Block index within the structure.
        block: u64,
    },
    /// A permanently unreadable block: every retry will fail.
    BadBlock {
        /// Structure identity.
        array_id: u64,
        /// Block index within the structure.
        block: u64,
    },
    /// The block was read "successfully" but its checksum does not match —
    /// silent corruption, detected. Retrying re-reads the same corrupted
    /// sectors, so this is as permanent as [`EmError::BadBlock`].
    Corrupt {
        /// Structure identity.
        array_id: u64,
        /// Block index within the structure.
        block: u64,
    },
    /// A [`crate::fault::Retrier`] gave up: the last error was transient but
    /// the retry budget ran out after `attempts` total attempts.
    Exhausted {
        /// Structure identity.
        array_id: u64,
        /// Block index within the structure.
        block: u64,
        /// Total attempts made (first try + retries).
        attempts: u32,
    },
    /// A real I/O failure from the persistent device layer: the named
    /// syscall failed against the named file at the given byte offset.
    /// Not retryable through the [`crate::fault::Retrier`] — a failed
    /// `pwrite`/`fsync`/`rename` means durability was *not* achieved and
    /// the caller must treat the device as suspect.
    Io {
        /// The operation that failed (`"pread"`, `"pwrite"`, `"fsync"`,
        /// `"rename"`, `"open"`, …).
        op: &'static str,
        /// The file the operation targeted.
        path: Arc<PathBuf>,
        /// Byte offset of the operation within the file (0 for whole-file
        /// operations like `fsync` and `rename`).
        offset: u64,
        /// The underlying OS error. `Arc`-wrapped because
        /// [`std::io::Error`] is neither `Clone` nor `PartialEq`; equality
        /// of two `Io` values compares the [`std::io::Error::kind`].
        source: Arc<std::io::Error>,
    },
}

impl EmError {
    /// Construct an [`EmError::Io`] from a failed syscall. The preferred
    /// way to route a device failure into the error ladder — it keeps the
    /// op-name vocabulary consistent across call sites.
    pub fn io(
        op: &'static str,
        path: impl Into<PathBuf>,
        offset: u64,
        source: std::io::Error,
    ) -> Self {
        EmError::Io {
            op,
            path: Arc::new(path.into()),
            offset,
            source: Arc::new(source),
        }
    }

    /// Whether retrying the failed access could possibly succeed.
    /// [`EmError::Exhausted`] is *not* retryable: it already encodes the
    /// decision that retrying stops. [`EmError::Io`] is not retryable
    /// either — a failed durability syscall leaves the device suspect.
    pub fn is_transient(&self) -> bool {
        matches!(self, EmError::Transient { .. })
    }

    /// The `(array_id, block)` address of the failing block.
    ///
    /// [`EmError::Io`] has no logical block address (it happened below the
    /// block mapping); it reports `(u64::MAX, offset)` so that diagnostics
    /// still carry the byte offset. The [`crate::fault::Retrier`] never
    /// calls this for `Io` — only transient errors, which always carry a
    /// real address, reach its exhaustion path.
    pub fn location(&self) -> (u64, u64) {
        match *self {
            EmError::Transient { array_id, block }
            | EmError::BadBlock { array_id, block }
            | EmError::Corrupt { array_id, block }
            | EmError::Exhausted {
                array_id, block, ..
            } => (array_id, block),
            EmError::Io { offset, .. } => (u64::MAX, offset),
        }
    }
}

/// Structural equality; two [`EmError::Io`] values compare equal when their
/// op, path, offset and [`std::io::Error::kind`] agree (the OS error payload
/// itself is not comparable).
impl PartialEq for EmError {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                EmError::Transient {
                    array_id: a1,
                    block: b1,
                },
                EmError::Transient {
                    array_id: a2,
                    block: b2,
                },
            )
            | (
                EmError::BadBlock {
                    array_id: a1,
                    block: b1,
                },
                EmError::BadBlock {
                    array_id: a2,
                    block: b2,
                },
            )
            | (
                EmError::Corrupt {
                    array_id: a1,
                    block: b1,
                },
                EmError::Corrupt {
                    array_id: a2,
                    block: b2,
                },
            ) => (a1, b1) == (a2, b2),
            (
                EmError::Exhausted {
                    array_id: a1,
                    block: b1,
                    attempts: n1,
                },
                EmError::Exhausted {
                    array_id: a2,
                    block: b2,
                    attempts: n2,
                },
            ) => (a1, b1, n1) == (a2, b2, n2),
            (
                EmError::Io {
                    op: o1,
                    path: p1,
                    offset: f1,
                    source: s1,
                },
                EmError::Io {
                    op: o2,
                    path: p2,
                    offset: f2,
                    source: s2,
                },
            ) => o1 == o2 && p1 == p2 && f1 == f2 && s1.kind() == s2.kind(),
            _ => false,
        }
    }
}

impl std::fmt::Display for EmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmError::Transient { array_id, block } => {
                write!(f, "transient read error at array {array_id} block {block}")
            }
            EmError::BadBlock { array_id, block } => {
                write!(f, "permanently bad block at array {array_id} block {block}")
            }
            EmError::Corrupt { array_id, block } => {
                write!(f, "checksum mismatch at array {array_id} block {block}")
            }
            EmError::Exhausted {
                array_id,
                block,
                attempts,
            } => write!(
                f,
                "retries exhausted after {attempts} attempts at array {array_id} block {block}"
            ),
            EmError::Io {
                op,
                path,
                offset,
                source,
            } => write!(
                f,
                "{op} failed at byte {offset} of {}: {source}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for EmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EmError::Io { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_is_the_only_retryable_kind() {
        assert!(EmError::Transient {
            array_id: 0,
            block: 1
        }
        .is_transient());
        assert!(!EmError::BadBlock {
            array_id: 0,
            block: 1
        }
        .is_transient());
        assert!(!EmError::Corrupt {
            array_id: 0,
            block: 1
        }
        .is_transient());
        assert!(!EmError::Exhausted {
            array_id: 0,
            block: 1,
            attempts: 4
        }
        .is_transient());
    }

    #[test]
    fn location_reports_the_failing_block() {
        assert_eq!(
            EmError::BadBlock {
                array_id: 7,
                block: 9
            }
            .location(),
            (7, 9)
        );
        assert_eq!(
            EmError::Exhausted {
                array_id: 1,
                block: 2,
                attempts: 3
            }
            .location(),
            (1, 2)
        );
    }

    #[test]
    fn display_names_the_fault_kind() {
        let e = EmError::Corrupt {
            array_id: 3,
            block: 4,
        };
        assert!(e.to_string().contains("checksum"));
        assert!(format!(
            "{}",
            EmError::Transient {
                array_id: 0,
                block: 0
            }
        )
        .contains("transient"));
    }

    #[test]
    fn io_errors_carry_syscall_context() {
        let e = EmError::io(
            "pwrite",
            "/tmp/emsim/data",
            4096,
            std::io::Error::other("disk full"),
        );
        assert!(!e.is_transient(), "a failed durability syscall is final");
        assert_eq!(e.location(), (u64::MAX, 4096));
        let s = e.to_string();
        assert!(s.contains("pwrite"), "{s}");
        assert!(s.contains("4096"), "{s}");
        assert!(s.contains("/tmp/emsim/data"), "{s}");
        assert!(s.contains("disk full"), "{s}");
        use std::error::Error;
        assert!(e.source().is_some(), "the OS error chains as source()");
    }

    #[test]
    fn io_equality_compares_kind_not_payload() {
        use std::io::{Error, ErrorKind};
        let a = EmError::io("fsync", "/d/cat", 0, Error::new(ErrorKind::NotFound, "x"));
        let b = EmError::io("fsync", "/d/cat", 0, Error::new(ErrorKind::NotFound, "y"));
        let c = EmError::io(
            "fsync",
            "/d/cat",
            0,
            Error::new(ErrorKind::PermissionDenied, "x"),
        );
        assert_eq!(a, b, "same kind compares equal regardless of message");
        assert_ne!(a, c, "different kinds differ");
        assert_ne!(
            a,
            EmError::Corrupt {
                array_id: 0,
                block: 0
            }
        );
    }
}
