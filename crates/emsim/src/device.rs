//! [`BlockDevice`]: the physical storage layer under the EM substrate.
//!
//! Every logical block the simulator meters now has a home on a *device*:
//! either [`MemDevice`] (the in-memory simulator that used to live inside
//! [`crate::BlockArray`]'s backing storage — the default, and the substrate
//! the golden I/O baselines are recorded against) or [`FileDevice`] (an
//! append-only data file plus a checksummed, generation-stamped catalog,
//! committed via write-temp/fsync/rename so every on-disk state after a
//! crash is either the old or the new catalog — never a mix).
//!
//! The device is deliberately *below* the meter: [`crate::CostModel`]
//! charges logical I/Os identically on every device, and physical traffic
//! (counted by [`CountingDevice`]) is validated against the meter by
//! experiment E23 instead of feeding it. Swapping the device of a meter's
//! [`Substrate`](crate::Substrate) (`EMSIM_DEVICE=mem|file` for the
//! process default) must therefore never move a golden baseline.
//!
//! # Durability contract
//!
//! A device buffers writes (the page cache): `write` makes a block visible
//! to `read` immediately (read-your-writes), but only [`BlockDevice::sync`]
//! makes it durable. [`BlockDevice::crash`] models power loss — staged
//! writes vanish, the last committed catalog survives, and
//! [`FileDevice::open`] (or `crash`, which re-runs the same pass) recovers:
//! it verifies the catalog's magic/generation/CRC, re-verifies every
//! committed block's payload CRC, and truncates the uncommitted data tail.
//!
//! # Fault kinds
//!
//! The physical fault kinds of [`FaultPlan`] are interpreted here:
//! `torn_write` persists only a prefix of a payload (detected later as
//! [`EmError::Corrupt`] by the payload CRC), `short_read` fails a read
//! retryably ([`EmError::Transient`]), and `crash_after` (`CrashPoint(n)`)
//! tears the `n`-th physical write and poisons the device — every later
//! operation fails with [`EmError::Io`] until the store is reopened.

#![expect(
    clippy::disallowed_types,
    reason = "the device module is the one owner of std::fs handles"
)]

use std::collections::HashMap;
use std::fs;
use std::io::Write as _;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::error::EmError;
use crate::fault::FaultPlan;

/// Which kind of physical substrate a device is — the key that
/// [`FaultPlan::scope`](crate::FaultPlan) gates on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceClass {
    /// In-memory simulator ([`MemDevice`]).
    Mem,
    /// File-backed store ([`FileDevice`]).
    File,
}

/// The physical address of a logical block: `(ns, array, block)`.
///
/// `ns` is a process-unique namespace drawn per meter (so two meters that
/// both allocate "array 0" never collide on a shared device), except for
/// *named* persistent arrays, which use the reserved namespace
/// [`NAMED_NS`] with a caller-chosen stable `array` so they can be found
/// again after reopening the store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId {
    /// Namespace (meter identity, or [`NAMED_NS`] for named arrays).
    pub ns: u64,
    /// Array identity within the namespace.
    pub array: u64,
    /// Block index within the array.
    pub block: u64,
}

/// The reserved namespace of named persistent arrays (see
/// [`crate::BlockArray::new_named`]); names are caller-chosen and stable
/// across process restarts.
pub const NAMED_NS: u64 = u64::MAX;

/// Fixed-size blocks with read-your-writes visibility and explicit
/// durability. See the module docs for the contract.
pub trait BlockDevice: Send + Sync + std::fmt::Debug {
    /// Which class of substrate this is (gates fault-plan scope).
    fn class(&self) -> DeviceClass;

    /// Whether a block read back from this device can ever fail or differ
    /// from what was written: always for [`FileDevice`] (real media), and
    /// for a [`MemDevice`] only when its plan arms a torn-write, short-read
    /// or crash-point kind. [`crate::CostModel`] mirrors block headers only
    /// to devices that answer `true`; on the others a missing mirror reads
    /// back as `Ok(None)`, which verifies exactly like a clean one.
    fn can_damage(&self) -> bool;

    /// Read back the payload of `id`: `Ok(None)` if the block was never
    /// written (structures that don't mirror payloads simply aren't
    /// checked), `Ok(Some(bytes))` on success, [`EmError::Corrupt`] when
    /// the stored CRC does not match, [`EmError::Transient`] on an
    /// injected short read (retry), [`EmError::Io`] when the device is
    /// poisoned or the OS call fails.
    fn read(&self, id: BlockId) -> Result<Option<Vec<u8>>, EmError>;

    /// Write `payload` as the new content of `id` (visible to `read`
    /// immediately, durable only after [`BlockDevice::sync`]).
    fn write(&self, id: BlockId, payload: &[u8]) -> Result<(), EmError>;

    /// Make every write so far durable: on [`FileDevice`] this fsyncs the
    /// data file and commits a new catalog generation atomically.
    fn sync(&self) -> Result<(), EmError>;

    /// Simulate power loss and restart: staged (unsynced) writes vanish,
    /// poisoning is cleared, and the device recovers to its last committed
    /// state ([`FileDevice`] re-runs the [`FileDevice::open`] pass).
    fn crash(&self);

    /// Number of distinct blocks currently visible to `read`.
    fn len(&self) -> u64;

    /// Whether no block is visible.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Completed sync generations (0 for a fresh store).
    fn generation(&self) -> u64;

    /// Sorted block indices currently visible under `(ns, array)` — the
    /// enumeration primitive recovery uses to rebuild a named array.
    fn blocks_of(&self, ns: u64, array: u64) -> Vec<u64>;
}

/// CRC-64 (ECMA-182 polynomial, reflected) over catalog bytes and block
/// payloads — the integrity check that makes torn writes *detected*
/// corruption instead of silent wrong answers.
const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

const fn crc64_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ CRC64_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC64_TABLE: [u64; 256] = crc64_table();

/// CRC-64 of `bytes` (ECMA-182, reflected, init/xorout `!0`).
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut crc = !0u64;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC64_TABLE[((crc ^ u64::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// CRC input for a block: the address is mixed in so a payload that lands
/// at the wrong `(ns, array, block)` (a misdirected write) also fails.
fn payload_crc(id: BlockId, payload: &[u8]) -> u64 {
    let mut buf = Vec::with_capacity(24 + payload.len());
    buf.extend_from_slice(&id.ns.to_le_bytes());
    buf.extend_from_slice(&id.array.to_le_bytes());
    buf.extend_from_slice(&id.block.to_le_bytes());
    buf.extend_from_slice(payload);
    crc64(&buf)
}

/// How many payload bytes a torn write actually persists: half, so the CRC
/// can't accidentally pass (an empty payload tears to empty and stays
/// consistent — a zero-length write has nothing to tear).
fn torn_len(full: usize) -> usize {
    full / 2
}

// ---------------------------------------------------------------------------
// MemDevice
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct StoredBlock {
    /// What the medium holds (a torn write stores only a prefix here).
    bytes: Vec<u8>,
    /// CRC of the payload the writer *intended* (so a torn prefix fails).
    crc: u64,
}

#[derive(Debug, Default)]
struct MemState {
    committed: HashMap<BlockId, StoredBlock>,
    staged: HashMap<BlockId, StoredBlock>,
    generation: u64,
    writes: u64,
    reads: u64,
    poisoned: bool,
}

/// The in-memory device: a faithful simulator of the durability contract
/// (staged vs committed state, crash discard, torn-write CRC detection)
/// with no real files. The default substrate of every meter.
#[derive(Debug, Default)]
pub struct MemDevice {
    plan: FaultPlan,
    state: Mutex<MemState>,
}

/// A placeholder path for [`EmError::Io`] raised by the in-memory device
/// (poisoned after a crash point); there is no real file.
const MEM_PATH: &str = "<mem>";

impl MemDevice {
    /// A fault-free in-memory device.
    pub fn new() -> Self {
        MemDevice::default()
    }

    /// An in-memory device subject to `plan`'s device fault kinds (already
    /// scope-filtered by the caller via [`FaultPlan::for_class`]).
    pub fn with_plan(plan: FaultPlan) -> Self {
        MemDevice {
            plan: plan.for_class(DeviceClass::Mem),
            state: Mutex::new(MemState::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, MemState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl BlockDevice for MemDevice {
    fn class(&self) -> DeviceClass {
        DeviceClass::Mem
    }

    fn can_damage(&self) -> bool {
        self.plan.has_device_faults()
    }

    fn read(&self, id: BlockId) -> Result<Option<Vec<u8>>, EmError> {
        let mut st = self.lock();
        if st.poisoned {
            return Err(EmError::io(
                "pread",
                MEM_PATH,
                0,
                std::io::Error::other("device poisoned by crash point"),
            ));
        }
        let idx = st.reads;
        st.reads += 1;
        if self.plan.is_short_read(idx) {
            return Err(EmError::Transient {
                array_id: id.array,
                block: id.block,
            });
        }
        let Some(stored) = st.staged.get(&id).or_else(|| st.committed.get(&id)) else {
            return Ok(None);
        };
        if payload_crc(id, &stored.bytes) != stored.crc {
            return Err(EmError::Corrupt {
                array_id: id.array,
                block: id.block,
            });
        }
        Ok(Some(stored.bytes.clone()))
    }

    fn write(&self, id: BlockId, payload: &[u8]) -> Result<(), EmError> {
        let mut st = self.lock();
        if st.poisoned {
            return Err(EmError::io(
                "pwrite",
                MEM_PATH,
                0,
                std::io::Error::other("device poisoned by crash point"),
            ));
        }
        let idx = st.writes;
        st.writes += 1;
        let crc = payload_crc(id, payload);
        if self.plan.crash_after == Some(idx) {
            st.staged.insert(
                id,
                StoredBlock {
                    bytes: payload[..torn_len(payload.len())].to_vec(),
                    crc,
                },
            );
            st.poisoned = true;
            return Err(EmError::io(
                "pwrite",
                MEM_PATH,
                0,
                std::io::Error::other("crash point reached mid-write"),
            ));
        }
        let bytes = if self.plan.is_torn_write(idx) {
            payload[..torn_len(payload.len())].to_vec()
        } else {
            payload.to_vec()
        };
        st.staged.insert(id, StoredBlock { bytes, crc });
        Ok(())
    }

    fn sync(&self) -> Result<(), EmError> {
        let mut st = self.lock();
        if st.poisoned {
            return Err(EmError::io(
                "fsync",
                MEM_PATH,
                0,
                std::io::Error::other("device poisoned by crash point"),
            ));
        }
        let staged = std::mem::take(&mut st.staged);
        st.committed.extend(staged);
        st.generation += 1;
        Ok(())
    }

    fn crash(&self) {
        let mut st = self.lock();
        st.staged.clear();
        st.poisoned = false;
    }

    fn len(&self) -> u64 {
        let st = self.lock();
        let mut keys: Vec<&BlockId> = st.committed.keys().collect();
        keys.extend(st.staged.keys());
        keys.sort_unstable();
        keys.dedup();
        keys.len() as u64
    }

    fn generation(&self) -> u64 {
        self.lock().generation
    }

    fn blocks_of(&self, ns: u64, array: u64) -> Vec<u64> {
        let st = self.lock();
        let mut v: Vec<u64> = st
            .committed
            .keys()
            .chain(st.staged.keys())
            .filter(|id| id.ns == ns && id.array == array)
            .map(|id| id.block)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

// ---------------------------------------------------------------------------
// FileDevice
// ---------------------------------------------------------------------------

const CATALOG_MAGIC: &[u8; 8] = b"EMCATv01";
const CATALOG_NAME: &str = "catalog";
const CATALOG_TMP_NAME: &str = "catalog.tmp";
const DATA_NAME: &str = "data";

#[derive(Clone, Copy, Debug)]
struct CatEntry {
    offset: u64,
    len: u32,
    crc: u64,
}

/// What [`FileDevice::open`]'s recovery pass found — the observable
/// evidence that crash recovery actually ran.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Catalog generation recovered to.
    pub generation: u64,
    /// Blocks the committed catalog describes.
    pub committed_blocks: u64,
    /// Uncommitted data-file bytes truncated (the tail beyond the last
    /// committed extent — writes that never made it into a catalog).
    pub truncated_bytes: u64,
    /// Committed blocks whose payload CRC failed verification (torn
    /// writes from a lying disk; their reads surface
    /// [`EmError::Corrupt`]).
    pub corrupt_blocks: u64,
}

#[derive(Debug)]
struct FileState {
    data: fs::File,
    tail: u64,
    /// Bytes known to exist in `data`: the length recovery left, grown by
    /// each write. A cataloged extent past it is `Corrupt` without being
    /// read or allocated.
    data_len: u64,
    committed: HashMap<BlockId, CatEntry>,
    staged: HashMap<BlockId, CatEntry>,
    generation: u64,
    writes: u64,
    reads: u64,
    poisoned: bool,
    recovery: RecoveryReport,
}

/// The file-backed device: an append-only `data` file plus a `catalog`
/// mapping each [`BlockId`] to `(offset, len, crc)`.
///
/// The catalog carries a magic, a monotonically increasing generation and
/// a whole-file CRC-64, and is replaced atomically (write `catalog.tmp`,
/// fsync it, rename over `catalog`, fsync the directory), so a crash at
/// any point leaves either the previous or the new catalog — the
/// old-or-new invariant E23 tortures. Payload CRCs mix in the block
/// address, so torn and misdirected writes are detected on read.
#[derive(Debug)]
pub struct FileDevice {
    dir: PathBuf,
    plan: FaultPlan,
    state: Mutex<FileState>,
}

impl FileDevice {
    /// Open (or create) the store in `dir` with no device faults armed.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, EmError> {
        FileDevice::open_with(dir, FaultPlan::none())
    }

    /// Open (or create) the store in `dir`, arming `plan`'s device fault
    /// kinds (scope-filtered to the file class).
    ///
    /// This is also the recovery pass: the catalog is validated
    /// (magic, version, footer CRC), every committed block's payload CRC
    /// is re-verified, and the uncommitted data tail is truncated. The
    /// findings are available from [`FileDevice::recovery`].
    pub fn open_with(dir: impl Into<PathBuf>, plan: FaultPlan) -> Result<Self, EmError> {
        let dir = dir.into();
        #[expect(clippy::disallowed_methods, reason = "the store's own directory")]
        fs::create_dir_all(&dir).map_err(|e| EmError::io("mkdir", dir.clone(), 0, e))?;
        let data_path = dir.join(DATA_NAME);
        let data = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&data_path)
            .map_err(|e| EmError::io("open", data_path.clone(), 0, e))?;
        let mut state = FileState {
            data,
            tail: 0,
            data_len: 0,
            committed: HashMap::new(),
            staged: HashMap::new(),
            generation: 0,
            writes: 0,
            reads: 0,
            poisoned: false,
            recovery: RecoveryReport::default(),
        };
        let dev = FileDevice {
            dir,
            plan: plan.for_class(DeviceClass::File),
            state: Mutex::new(state_placeholder()),
        };
        dev.recover_into(&mut state)?;
        *dev.lock() = state;
        Ok(dev)
    }

    /// The directory holding `data` and `catalog`.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Delete the store: its directory and everything in it. For a store
    /// that was scratch space; the device must not be used afterwards.
    #[expect(
        clippy::disallowed_methods,
        reason = "deletes the store's own directory"
    )]
    pub(crate) fn remove(&self) -> Result<(), EmError> {
        fs::remove_dir_all(&self.dir).map_err(|e| EmError::io("rmdir", self.dir.clone(), 0, e))
    }

    /// What the last recovery pass (open or crash) found.
    pub fn recovery(&self) -> RecoveryReport {
        self.lock().recovery
    }

    fn lock(&self) -> MutexGuard<'_, FileState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn data_path(&self) -> PathBuf {
        self.dir.join(DATA_NAME)
    }

    fn catalog_path(&self) -> PathBuf {
        self.dir.join(CATALOG_NAME)
    }

    /// Parse + verify the committed catalog and rebuild `state` from it:
    /// the recovery pass shared by [`FileDevice::open_with`] and
    /// [`BlockDevice::crash`].
    fn recover_into(&self, state: &mut FileState) -> Result<(), EmError> {
        let cat_path = self.catalog_path();
        let mut report = RecoveryReport::default();
        let mut committed = HashMap::new();
        let mut generation = 0u64;
        #[expect(clippy::disallowed_methods, reason = "reads the store's catalog")]
        let read = fs::read(&cat_path);
        match read {
            Ok(bytes) => {
                let (gen, entries) = parse_catalog(&bytes)?;
                generation = gen;
                committed = entries;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(EmError::io("pread", cat_path, 0, e)),
        }
        // Stale temp catalogs from an interrupted commit are garbage by
        // construction (the rename never happened) — drop them.
        #[expect(clippy::disallowed_methods, reason = "the store's stale temp catalog")]
        let _ = fs::remove_file(self.dir.join(CATALOG_TMP_NAME));
        // A forged offset near `u64::MAX` can pass the catalog CRC; an
        // extent that overflows is a corrupt catalog, not a panic.
        let extent = committed
            .values()
            .try_fold(0u64, |m, e| {
                Some(m.max(e.offset.checked_add(u64::from(e.len))?))
            })
            .ok_or_else(catalog_corrupt)?;
        let data_path = self.data_path();
        let data_len = state
            .data
            .metadata()
            .map_err(|e| EmError::io("stat", data_path.clone(), 0, e))?
            .len();
        if data_len > extent {
            // Truncate the uncommitted tail: those bytes belong to writes
            // that never reached a committed catalog.
            report.truncated_bytes = data_len - extent;
            state
                .data
                .set_len(extent)
                .map_err(|e| EmError::io("truncate", data_path.clone(), extent, e))?;
            #[expect(
                clippy::disallowed_methods,
                reason = "DURABILITY: the truncation itself must survive the next crash, \
                          or recovered-then-crashed stores resurrect dead bytes"
            )]
            state
                .data
                .sync_data()
                .map_err(|e| EmError::io("fsync", data_path.clone(), 0, e))?;
        }
        // Eagerly re-verify every committed payload: recovery's promise is
        // that surviving blocks are either intact or *known* corrupt. An
        // extent past the end of the data file is corrupt without reading
        // (or allocating) anything.
        let data_len = data_len.min(extent);
        for (id, entry) in &committed {
            let intact = entry.offset + u64::from(entry.len) <= data_len && {
                let mut buf = vec![0u8; entry.len as usize];
                state.data.read_exact_at(&mut buf, entry.offset).is_ok()
                    && payload_crc(*id, &buf) == entry.crc
            };
            if !intact {
                report.corrupt_blocks += 1;
            }
        }
        report.generation = generation;
        report.committed_blocks = committed.len() as u64;
        state.tail = extent;
        state.data_len = data_len;
        state.committed = committed;
        state.staged.clear();
        state.generation = generation;
        state.poisoned = false;
        state.recovery = report;
        Ok(())
    }

    /// Serialize and atomically install a new catalog generation.
    fn commit_catalog(&self, st: &mut FileState) -> Result<(), EmError> {
        let next_gen = st.generation + 1;
        let mut merged = st.committed.clone();
        merged.extend(st.staged.iter().map(|(k, v)| (*k, *v)));
        let bytes = serialize_catalog(next_gen, &merged);
        let tmp_path = self.dir.join(CATALOG_TMP_NAME);
        let cat_path = self.catalog_path();
        {
            let mut tmp = fs::File::create(&tmp_path)
                .map_err(|e| EmError::io("open", tmp_path.clone(), 0, e))?;
            tmp.write_all(&bytes)
                .map_err(|e| EmError::io("pwrite", tmp_path.clone(), 0, e))?;
            #[expect(
                clippy::disallowed_methods,
                reason = "DURABILITY: the temp catalog's bytes must be on the medium before \
                          the rename publishes it, or a crash could expose a renamed-but-empty \
                          catalog (rename can be reordered ahead of data writes)"
            )]
            tmp.sync_all()
                .map_err(|e| EmError::io("fsync", tmp_path.clone(), 0, e))?;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "publishes the store's new catalog"
        )]
        fs::rename(&tmp_path, &cat_path)
            .map_err(|e| EmError::io("rename", cat_path.clone(), 0, e))?;
        let dirf =
            fs::File::open(&self.dir).map_err(|e| EmError::io("open", self.dir.clone(), 0, e))?;
        #[expect(
            clippy::disallowed_methods,
            reason = "DURABILITY: the rename lives in the directory; fsync the directory entry \
                      so the new catalog (not the old one) is what a post-crash open sees once \
                      sync() returns"
        )]
        dirf.sync_all()
            .map_err(|e| EmError::io("fsync", self.dir.clone(), 0, e))?;
        st.committed = merged;
        st.staged.clear();
        st.generation = next_gen;
        Ok(())
    }

    fn poisoned_err(&self, op: &'static str) -> EmError {
        EmError::io(
            op,
            self.data_path(),
            0,
            std::io::Error::other("device poisoned by crash point"),
        )
    }
}

/// An inert placeholder so the `FileDevice` can exist while recovery runs
/// (recovery needs `&self` for paths but builds the real state off-lock).
fn state_placeholder() -> FileState {
    FileState {
        // An unnamed handle is not expressible; reuse /dev/null which is
        // always openable and never read through this placeholder.
        data: fs::File::open("/dev/null").expect("/dev/null exists"),
        tail: 0,
        data_len: 0,
        committed: HashMap::new(),
        staged: HashMap::new(),
        generation: 0,
        writes: 0,
        reads: 0,
        poisoned: false,
        recovery: RecoveryReport::default(),
    }
}

fn serialize_catalog(generation: u64, entries: &HashMap<BlockId, CatEntry>) -> Vec<u8> {
    let mut ids: Vec<&BlockId> = entries.keys().collect();
    ids.sort_unstable();
    let mut out = Vec::with_capacity(32 + entries.len() * 44);
    out.extend_from_slice(CATALOG_MAGIC);
    out.extend_from_slice(&generation.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for id in ids {
        let e = &entries[id];
        out.extend_from_slice(&id.ns.to_le_bytes());
        out.extend_from_slice(&id.array.to_le_bytes());
        out.extend_from_slice(&id.block.to_le_bytes());
        out.extend_from_slice(&e.offset.to_le_bytes());
        out.extend_from_slice(&e.len.to_le_bytes());
        out.extend_from_slice(&e.crc.to_le_bytes());
    }
    let footer = crc64(&out);
    out.extend_from_slice(&footer.to_le_bytes());
    out
}

/// The catalog-is-corrupt sentinel: there is no logical block to blame, so
/// the whole-store address `(u64::MAX, u64::MAX)` is used.
fn catalog_corrupt() -> EmError {
    EmError::Corrupt {
        array_id: u64::MAX,
        block: u64::MAX,
    }
}

fn parse_catalog(bytes: &[u8]) -> Result<(u64, HashMap<BlockId, CatEntry>), EmError> {
    let take_u64 = |b: &[u8], at: usize| -> u64 {
        u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"))
    };
    if bytes.len() < 32 || &bytes[..8] != CATALOG_MAGIC {
        return Err(catalog_corrupt());
    }
    let footer = take_u64(bytes, bytes.len() - 8);
    if crc64(&bytes[..bytes.len() - 8]) != footer {
        return Err(catalog_corrupt());
    }
    let generation = take_u64(bytes, 8);
    let count = take_u64(bytes, 16);
    if count.checked_mul(44).and_then(|n| n.checked_add(32)) != Some(bytes.len() as u64) {
        return Err(catalog_corrupt());
    }
    let count = count as usize;
    let mut entries = HashMap::with_capacity(count);
    for i in 0..count {
        let at = 24 + i * 44;
        let id = BlockId {
            ns: take_u64(bytes, at),
            array: take_u64(bytes, at + 8),
            block: take_u64(bytes, at + 16),
        };
        let offset = take_u64(bytes, at + 24);
        let len = u32::from_le_bytes(bytes[at + 32..at + 36].try_into().expect("4 bytes"));
        let crc = take_u64(bytes, at + 36);
        entries.insert(id, CatEntry { offset, len, crc });
    }
    Ok((generation, entries))
}

impl BlockDevice for FileDevice {
    fn class(&self) -> DeviceClass {
        DeviceClass::File
    }

    fn can_damage(&self) -> bool {
        true
    }

    fn read(&self, id: BlockId) -> Result<Option<Vec<u8>>, EmError> {
        let mut st = self.lock();
        if st.poisoned {
            return Err(self.poisoned_err("pread"));
        }
        let idx = st.reads;
        st.reads += 1;
        if self.plan.is_short_read(idx) {
            return Err(EmError::Transient {
                array_id: id.array,
                block: id.block,
            });
        }
        let Some(entry) = st
            .staged
            .get(&id)
            .or_else(|| st.committed.get(&id))
            .copied()
        else {
            return Ok(None);
        };
        if entry.offset + u64::from(entry.len) > st.data_len {
            return Err(EmError::Corrupt {
                array_id: id.array,
                block: id.block,
            });
        }
        let mut buf = vec![0u8; entry.len as usize];
        match st.data.read_exact_at(&mut buf, entry.offset) {
            Ok(()) => {}
            // A cataloged block with no bytes under it is corruption (a
            // truncated or misdirected store), not an I/O environment error.
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                return Err(EmError::Corrupt {
                    array_id: id.array,
                    block: id.block,
                });
            }
            Err(e) => return Err(EmError::io("pread", self.data_path(), entry.offset, e)),
        }
        if payload_crc(id, &buf) != entry.crc {
            return Err(EmError::Corrupt {
                array_id: id.array,
                block: id.block,
            });
        }
        Ok(Some(buf))
    }

    fn write(&self, id: BlockId, payload: &[u8]) -> Result<(), EmError> {
        let mut st = self.lock();
        if st.poisoned {
            return Err(self.poisoned_err("pwrite"));
        }
        let idx = st.writes;
        st.writes += 1;
        let offset = st.tail;
        let crc = payload_crc(id, payload);
        let full_len = payload.len();
        if self.plan.crash_after == Some(idx) {
            // The crash interrupts this very pwrite: a prefix lands, the
            // catalog never learns of it, and the device is dead until
            // reopened.
            let _ = st.data.write_all_at(&payload[..torn_len(full_len)], offset);
            st.poisoned = true;
            return Err(EmError::io(
                "pwrite",
                self.data_path(),
                offset,
                std::io::Error::other("crash point reached mid-write"),
            ));
        }
        let persisted: &[u8] = if self.plan.is_torn_write(idx) {
            &payload[..torn_len(full_len)]
        } else {
            payload
        };
        st.data
            .write_all_at(persisted, offset)
            .map_err(|e| EmError::io("pwrite", self.data_path(), offset, e))?;
        // The writer believes the full payload landed: the entry records
        // the intended length and CRC, the tail advances past the gap.
        st.staged.insert(
            id,
            CatEntry {
                offset,
                len: full_len as u32,
                crc,
            },
        );
        st.tail = offset + full_len as u64;
        st.data_len = st.data_len.max(offset + persisted.len() as u64);
        Ok(())
    }

    fn sync(&self) -> Result<(), EmError> {
        let mut st = self.lock();
        if st.poisoned {
            return Err(self.poisoned_err("fsync"));
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "DURABILITY: payload bytes must hit the medium before the catalog that \
                      points at them is published, the write-ahead order that makes every \
                      committed entry readable after a crash"
        )]
        st.data
            .sync_data()
            .map_err(|e| EmError::io("fsync", self.data_path(), 0, e))?;
        self.commit_catalog(&mut st)
    }

    fn crash(&self) {
        let mut st = self.lock();
        let mut fresh = state_placeholder();
        std::mem::swap(&mut *st, &mut fresh);
        drop(fresh); // the old data handle; recovery reopens it
        if let Ok(data) = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(self.data_path())
        {
            st.data = data;
            if let Err(e) = self.recover_into(&mut st) {
                // A store whose catalog cannot be recovered is unusable;
                // surface that on every subsequent operation.
                st.recovery = RecoveryReport::default();
                st.poisoned = true;
                let _ = e;
            }
        } else {
            st.poisoned = true;
        }
    }

    fn len(&self) -> u64 {
        let st = self.lock();
        let mut keys: Vec<&BlockId> = st.committed.keys().collect();
        keys.extend(st.staged.keys());
        keys.sort_unstable();
        keys.dedup();
        keys.len() as u64
    }

    fn generation(&self) -> u64 {
        self.lock().generation
    }

    fn blocks_of(&self, ns: u64, array: u64) -> Vec<u64> {
        let st = self.lock();
        let mut v: Vec<u64> = st
            .committed
            .keys()
            .chain(st.staged.keys())
            .filter(|id| id.ns == ns && id.array == array)
            .map(|id| id.block)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

// ---------------------------------------------------------------------------
// CountingDevice
// ---------------------------------------------------------------------------

/// Physical traffic observed by a [`DeviceLedger`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceCounts {
    /// `read` calls (each is exactly one `pread` on [`FileDevice`]).
    pub preads: u64,
    /// `write` calls (each is exactly one `pwrite` on [`FileDevice`]).
    pub pwrites: u64,
    /// `sync` calls.
    pub syncs: u64,
    /// Payload bytes returned by successful, non-empty `read` calls.
    pub bytes_read: u64,
    /// Payload bytes submitted to `write` calls.
    pub bytes_written: u64,
}

impl DeviceCounts {
    /// Counter-wise `self - earlier`, for before/after delta windows.
    #[must_use]
    pub fn since(&self, earlier: &DeviceCounts) -> DeviceCounts {
        DeviceCounts {
            preads: self.preads.saturating_sub(earlier.preads),
            pwrites: self.pwrites.saturating_sub(earlier.pwrites),
            syncs: self.syncs.saturating_sub(earlier.syncs),
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
        }
    }
}

/// The single physical-traffic ledger implementation: operation counts
/// plus payload bytes, shared by [`CountingDevice`] and the per-meter
/// physical accounting on `CostModel` (one set of counters, not two
/// parallel ones). Attempts are counted whether or not they succeed,
/// because a failed syscall still went to the device; bytes are counted
/// for the payloads that actually crossed (returned on read, submitted
/// on write).
#[derive(Debug, Default)]
pub struct DeviceLedger {
    preads: crate::sync::Counter,
    pwrites: crate::sync::Counter,
    syncs: crate::sync::Counter,
    bytes_read: crate::sync::Counter,
    bytes_written: crate::sync::Counter,
}

impl DeviceLedger {
    /// A fresh all-zero ledger.
    pub fn new() -> Self {
        DeviceLedger::default()
    }

    /// Record one `read` attempt returning `bytes` payload bytes.
    fn note_read(&self, bytes: u64) {
        self.preads.add(1);
        self.bytes_read.add(bytes);
    }

    /// Record one `write` attempt submitting `bytes` payload bytes.
    fn note_write(&self, bytes: u64) {
        self.pwrites.add(1);
        self.bytes_written.add(bytes);
    }

    /// Record one `sync` attempt.
    fn note_sync(&self) {
        self.syncs.add(1);
    }

    /// The counts so far.
    pub fn snapshot(&self) -> DeviceCounts {
        DeviceCounts {
            preads: self.preads.get(),
            pwrites: self.pwrites.get(),
            syncs: self.syncs.get(),
            bytes_read: self.bytes_read.get(),
            bytes_written: self.bytes_written.get(),
        }
    }
}

/// A transparent wrapper that counts physical operations — the instrument
/// behind E23's simulator-validation table (metered logical I/Os vs actual
/// `pread`/`pwrite` counts) and the feed for `CostModel`'s physical-bytes
/// accounting. All counting goes through one shared [`DeviceLedger`].
#[derive(Debug)]
pub struct CountingDevice {
    inner: Arc<dyn BlockDevice>,
    ledger: DeviceLedger,
}

impl CountingDevice {
    /// Wrap `inner`, counting every physical operation routed through it.
    pub fn new(inner: Arc<dyn BlockDevice>) -> Self {
        CountingDevice {
            inner,
            ledger: DeviceLedger::new(),
        }
    }

    /// The counts so far.
    pub fn counts(&self) -> DeviceCounts {
        self.ledger.snapshot()
    }
}

impl BlockDevice for CountingDevice {
    fn class(&self) -> DeviceClass {
        self.inner.class()
    }

    fn can_damage(&self) -> bool {
        self.inner.can_damage()
    }

    fn read(&self, id: BlockId) -> Result<Option<Vec<u8>>, EmError> {
        let out = self.inner.read(id);
        let bytes = match &out {
            Ok(Some(payload)) => payload.len() as u64,
            _ => 0,
        };
        self.ledger.note_read(bytes);
        out
    }

    fn write(&self, id: BlockId, payload: &[u8]) -> Result<(), EmError> {
        self.ledger.note_write(payload.len() as u64);
        self.inner.write(id, payload)
    }

    fn sync(&self) -> Result<(), EmError> {
        self.ledger.note_sync();
        #[expect(
            clippy::disallowed_methods,
            reason = "DURABILITY: pass-through; the wrapped device performs the real \
                      data-fsync and catalog commit, and counting must not change semantics"
        )]
        self.inner.sync()
    }

    fn crash(&self) {
        self.inner.crash();
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn generation(&self) -> u64 {
        self.inner.generation()
    }

    fn blocks_of(&self, ns: u64, array: u64) -> Vec<u64> {
        self.inner.blocks_of(ns, array)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test's scratch directory, removed on drop: hold it for as long as
    /// a `FileDevice` in it lives.
    struct TmpDir(PathBuf);

    impl TmpDir {
        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TmpDir {
        fn drop(&mut self) {
            #[expect(clippy::disallowed_methods, reason = "test scratch directory")]
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    /// `emsim-device-test-<pid>-<name>` under the temp directory, with any
    /// stale copy removed.
    fn tmp_dir(name: &str) -> TmpDir {
        let dir =
            std::env::temp_dir().join(format!("emsim-device-test-{}-{name}", std::process::id()));
        #[expect(clippy::disallowed_methods, reason = "test scratch directory")]
        let _ = fs::remove_dir_all(&dir);
        TmpDir(dir)
    }

    fn id(ns: u64, array: u64, block: u64) -> BlockId {
        BlockId { ns, array, block }
    }

    fn both_devices(dir: &TmpDir) -> Vec<Box<dyn BlockDevice>> {
        vec![
            Box::new(MemDevice::new()),
            Box::new(FileDevice::open(dir.path()).expect("open")),
        ]
    }

    #[test]
    fn crc64_known_vector() {
        // CRC-64/XZ check value for "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn read_your_writes_before_sync() {
        let dir = tmp_dir("ryw");
        for dev in both_devices(&dir) {
            assert!(dev.is_empty());
            dev.write(id(1, 2, 3), b"hello").expect("write");
            assert_eq!(
                dev.read(id(1, 2, 3)).expect("read"),
                Some(b"hello".to_vec())
            );
            assert_eq!(dev.read(id(1, 2, 4)).expect("read"), None);
            assert_eq!(dev.len(), 1);
            assert_eq!(dev.blocks_of(1, 2), vec![3]);
        }
    }

    #[test]
    fn crash_discards_staged_keeps_committed() {
        let dir = tmp_dir("crash_staged");
        for dev in both_devices(&dir) {
            dev.write(id(0, 0, 0), b"durable").expect("write");
            #[expect(
                clippy::disallowed_methods,
                reason = "DURABILITY: commits the block the crash must keep"
            )]
            dev.sync().expect("sync");
            dev.write(id(0, 0, 1), b"staged").expect("write");
            dev.crash();
            assert_eq!(
                dev.read(id(0, 0, 0)).expect("read"),
                Some(b"durable".to_vec())
            );
            assert_eq!(
                dev.read(id(0, 0, 1)).expect("read"),
                None,
                "unsynced write lost"
            );
            assert_eq!(dev.generation(), 1);
        }
    }

    #[test]
    fn overwrite_visibility_tracks_latest() {
        let dir = tmp_dir("overwrite");
        for dev in both_devices(&dir) {
            dev.write(id(0, 7, 0), b"v1").expect("write");
            #[expect(
                clippy::disallowed_methods,
                reason = "DURABILITY: commits v1, the value the crash restores"
            )]
            dev.sync().expect("sync");
            dev.write(id(0, 7, 0), b"v2-longer").expect("write");
            assert_eq!(
                dev.read(id(0, 7, 0)).expect("read"),
                Some(b"v2-longer".to_vec())
            );
            dev.crash();
            assert_eq!(dev.read(id(0, 7, 0)).expect("read"), Some(b"v1".to_vec()));
        }
    }

    #[test]
    fn file_store_persists_across_reopen() {
        let dir = tmp_dir("reopen");
        {
            let dev = FileDevice::open(dir.path()).expect("open");
            dev.write(id(NAMED_NS, 9, 0), b"block-zero").expect("write");
            dev.write(id(NAMED_NS, 9, 1), b"block-one").expect("write");
            #[expect(
                clippy::disallowed_methods,
                reason = "DURABILITY: commits the two blocks the reopen must find"
            )]
            dev.sync().expect("sync");
            dev.write(id(NAMED_NS, 9, 2), b"never-synced")
                .expect("write");
        }
        let dev = FileDevice::open(dir.path()).expect("reopen");
        let rec = dev.recovery();
        assert_eq!(rec.generation, 1);
        assert_eq!(rec.committed_blocks, 2);
        assert_eq!(rec.corrupt_blocks, 0);
        assert!(rec.truncated_bytes >= b"never-synced".len() as u64);
        assert_eq!(
            dev.read(id(NAMED_NS, 9, 0)).expect("read"),
            Some(b"block-zero".to_vec())
        );
        assert_eq!(
            dev.read(id(NAMED_NS, 9, 1)).expect("read"),
            Some(b"block-one".to_vec())
        );
        assert_eq!(dev.read(id(NAMED_NS, 9, 2)).expect("read"), None);
        assert_eq!(dev.blocks_of(NAMED_NS, 9), vec![0, 1]);
    }

    #[test]
    fn torn_write_is_detected_as_corrupt() {
        let plan = FaultPlan::new(3).with_torn_write(1.0);
        let dir = tmp_dir("torn");
        for dev in [
            Box::new(MemDevice::with_plan(plan)) as Box<dyn BlockDevice>,
            Box::new(FileDevice::open_with(dir.path(), plan).expect("open")),
        ] {
            dev.write(id(0, 1, 0), b"sixteen bytes!!!")
                .expect("writer sees success");
            let e = dev.read(id(0, 1, 0)).expect_err("prefix must fail CRC");
            assert_eq!(
                e,
                EmError::Corrupt {
                    array_id: 1,
                    block: 0
                }
            );
        }
    }

    #[test]
    fn crash_point_tears_then_poisons_then_recovers() {
        let dir = tmp_dir("crashpoint");
        let plan = FaultPlan::new(0).with_crash_point(2);
        {
            let dev = FileDevice::open_with(dir.path(), plan).expect("open");
            dev.write(id(0, 0, 0), b"first-write!").expect("write 0");
            dev.write(id(0, 0, 1), b"second-write").expect("write 1");
            #[expect(
                clippy::disallowed_methods,
                reason = "DURABILITY: commits the prefix the crash point leaves"
            )]
            dev.sync().expect("sync");
            let e = dev
                .write(id(0, 0, 2), b"third-write!")
                .expect_err("crash point");
            assert!(matches!(e, EmError::Io { op: "pwrite", .. }), "{e:?}");
            // Poisoned: everything fails now.
            assert!(dev.read(id(0, 0, 0)).is_err());
            #[expect(
                clippy::disallowed_methods,
                reason = "DURABILITY: a poisoned device must refuse to commit"
            )]
            let synced = dev.sync();
            assert!(synced.is_err());
            assert!(dev.write(id(0, 0, 3), b"x").is_err());
        }
        // Reopen fault-free: the committed prefix survives, the torn tail
        // is truncated.
        let dev = FileDevice::open(dir.path()).expect("recovery");
        let rec = dev.recovery();
        assert_eq!(rec.generation, 1);
        assert_eq!(rec.committed_blocks, 2);
        assert_eq!(rec.corrupt_blocks, 0);
        assert!(
            rec.truncated_bytes > 0,
            "the torn third write was truncated"
        );
        assert_eq!(
            dev.read(id(0, 0, 0)).expect("read"),
            Some(b"first-write!".to_vec())
        );
        assert_eq!(
            dev.read(id(0, 0, 1)).expect("read"),
            Some(b"second-write".to_vec())
        );
        assert_eq!(dev.read(id(0, 0, 2)).expect("read"), None);
    }

    #[test]
    fn short_reads_are_transient_and_clear() {
        let plan = FaultPlan::new(11).with_short_read(0.5);
        let dev = MemDevice::with_plan(plan);
        dev.write(id(0, 4, 0), b"payload").expect("write");
        let mut failures = 0;
        let mut successes = 0;
        for _ in 0..200 {
            match dev.read(id(0, 4, 0)) {
                Ok(Some(_)) => successes += 1,
                Err(EmError::Transient {
                    array_id: 4,
                    block: 0,
                }) => failures += 1,
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert!(
            failures > 0 && successes > 0,
            "{failures} fails / {successes} oks"
        );
    }

    #[test]
    fn scoped_plan_does_not_fire_on_other_class() {
        // A file-scoped torn-write plan must be inert on MemDevice (the
        // satellite regression: armed FileDevice chaos can't bleed into
        // in-memory golden runs).
        let plan = FaultPlan::new(3)
            .with_torn_write(1.0)
            .with_scope(crate::FaultScope::File);
        let dev = MemDevice::with_plan(plan);
        dev.write(id(0, 1, 0), b"sixteen bytes!!!").expect("write");
        assert_eq!(
            dev.read(id(0, 1, 0)).expect("scoped-out plan is inert"),
            Some(b"sixteen bytes!!!".to_vec())
        );
    }

    #[test]
    fn catalog_corruption_is_detected_on_open() {
        let dir = tmp_dir("badcat");
        {
            let dev = FileDevice::open(dir.path()).expect("open");
            dev.write(id(0, 0, 0), b"data").expect("write");
            #[expect(
                clippy::disallowed_methods,
                reason = "DURABILITY: commits the catalog the test corrupts"
            )]
            dev.sync().expect("sync");
        }
        // Flip a byte in the committed catalog: the footer CRC must catch it.
        let cat = dir.path().join(CATALOG_NAME);
        #[expect(
            clippy::disallowed_methods,
            reason = "the test corrupts the catalog on purpose"
        )]
        let mut bytes = fs::read(&cat).expect("read catalog");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        #[expect(
            clippy::disallowed_methods,
            reason = "the test corrupts the catalog on purpose"
        )]
        fs::write(&cat, bytes).expect("rewrite catalog");
        let err = FileDevice::open(dir.path()).expect_err("corrupt catalog");
        assert_eq!(
            err,
            EmError::Corrupt {
                array_id: u64::MAX,
                block: u64::MAX
            }
        );
    }

    /// Install `catalog` as the committed catalog of a fresh store in
    /// `dir` and open it.
    fn open_with_forged_catalog(dir: &TmpDir, catalog: &[u8]) -> Result<FileDevice, EmError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "the test forges a catalog on purpose"
        )]
        fs::create_dir_all(dir.path()).expect("mkdir");
        #[expect(
            clippy::disallowed_methods,
            reason = "the test forges a catalog on purpose"
        )]
        fs::write(dir.path().join(CATALOG_NAME), catalog).expect("write catalog");
        FileDevice::open(dir.path())
    }

    #[test]
    fn forged_entry_count_is_corrupt_not_an_overflow() {
        let mut catalog = CATALOG_MAGIC.to_vec();
        catalog.extend_from_slice(&1u64.to_le_bytes());
        catalog.extend_from_slice(&(u64::MAX / 40).to_le_bytes());
        let footer = crc64(&catalog); // a valid CRC over a forged count
        catalog.extend_from_slice(&footer.to_le_bytes());
        let dir = tmp_dir("forged-count");
        let err = open_with_forged_catalog(&dir, &catalog).expect_err("forged count");
        assert_eq!(err, catalog_corrupt());
    }

    #[test]
    fn forged_extent_past_u64_max_is_corrupt_not_an_overflow() {
        let entry = CatEntry {
            offset: u64::MAX - 2,
            len: 16,
            crc: 0,
        };
        let catalog = serialize_catalog(1, &HashMap::from([(id(0, 0, 0), entry)]));
        let dir = tmp_dir("forged-extent");
        let err = open_with_forged_catalog(&dir, &catalog).expect_err("forged extent");
        assert_eq!(err, catalog_corrupt());
    }

    #[test]
    fn entry_past_the_data_file_is_a_corrupt_block() {
        // A 4 GiB and a 64-byte extent over an empty data file: recovery
        // counts both as corrupt without reading them, and reading either
        // is `Corrupt` without allocating its length.
        let huge = CatEntry {
            offset: 0,
            len: u32::MAX,
            crc: 0,
        };
        let small = CatEntry {
            offset: 0,
            len: 64,
            crc: 0,
        };
        let catalog = serialize_catalog(
            1,
            &HashMap::from([(id(0, 0, 0), huge), (id(0, 0, 1), small)]),
        );
        let dir = tmp_dir("forged-len");
        let dev = open_with_forged_catalog(&dir, &catalog).expect("open");
        assert_eq!(dev.recovery().corrupt_blocks, 2);
        assert!(matches!(
            dev.read(id(0, 0, 0)),
            Err(EmError::Corrupt { .. })
        ));
        assert!(matches!(
            dev.read(id(0, 0, 1)),
            Err(EmError::Corrupt { .. })
        ));
    }

    #[test]
    fn counting_device_counts_physical_ops() {
        let inner: Arc<dyn BlockDevice> = Arc::new(MemDevice::new());
        let dev = CountingDevice::new(inner);
        dev.write(id(0, 0, 0), b"a").expect("write");
        dev.write(id(0, 0, 1), b"b").expect("write");
        #[expect(
            clippy::disallowed_methods,
            reason = "DURABILITY: the one sync the ledger must count"
        )]
        dev.sync().expect("sync");
        let _ = dev.read(id(0, 0, 0)).expect("read");
        let _ = dev.read(id(0, 0, 9)).expect("read miss still counts");
        assert_eq!(
            dev.counts(),
            DeviceCounts {
                preads: 2,
                pwrites: 2,
                syncs: 1,
                bytes_read: 1, // the hit returned 1 byte; the miss none
                bytes_written: 2,
            }
        );
        let later = DeviceCounts {
            preads: 5,
            bytes_read: 9,
            ..dev.counts()
        };
        assert_eq!(
            later.since(&dev.counts()),
            DeviceCounts {
                preads: 3,
                bytes_read: 8,
                ..DeviceCounts::default()
            }
        );
        assert_eq!(dev.class(), DeviceClass::Mem);
        assert_eq!(dev.len(), 2);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let dir = tmp_dir("empty");
        for dev in both_devices(&dir) {
            dev.write(id(0, 0, 0), b"").expect("write");
            #[expect(
                clippy::disallowed_methods,
                reason = "DURABILITY: commits the empty payload the crash must keep"
            )]
            dev.sync().expect("sync");
            dev.crash();
            assert_eq!(dev.read(id(0, 0, 0)).expect("read"), Some(Vec::new()));
        }
    }
}
