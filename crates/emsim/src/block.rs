//! [`BlockArray`]: a typed array laid out in disk blocks.
//!
//! This is the basic storage primitive of the simulated EM machine: items
//! are packed `⌊B / words(T)⌉` per block and every access charges the
//! [`CostModel`] per distinct block touched. Sequential scans therefore cost
//! `O(n/B)` I/Os and random probes cost one I/O each (modulo buffer-pool
//! hits), matching the model of §1.1.

use crate::cost::{CostModel, Media};
use crate::device::{self, BlockId};
use crate::error::EmError;
use crate::fault;

/// The sentinel checksum of block `block` of array `seed_id` when it holds
/// `items` items. It is a pure function of the block's address (the
/// payload itself lives in a native `Vec`, which the simulator never
/// physically scrambles), so it is recomputed on demand rather than
/// stored. It travels in the block's header image on the device and is
/// re-checked when a named array is reopened; at run time
/// [`CostModel::read`] fails exactly the blocks the [`crate::FaultPlan`]
/// corrupted. `seed_id` is the array id for anonymous arrays and the
/// stable name hash for named ones, so a named array's sentinels survive
/// reopening under a fresh array id.
fn block_checksum(seed_id: u64, block: u64, items: u64) -> u64 {
    fault::mix(fault::mix(seed_id ^ 0xC0DE_C0DE) ^ fault::mix(block) ^ items)
}

/// Magic of a mirrored block-header image on the device (`"EMB1"`).
const HEADER_MAGIC: u32 = 0x454D_4231;
/// Header-only image: the 40-byte header with no payload (anonymous
/// arrays, whose data lives in native memory).
const KIND_HEADER: u32 = 0;
/// Header + payload image: named persistent arrays, whose items are
/// serialized after the header via [`Persist`].
const KIND_PAYLOAD: u32 = 1;
/// Bytes in the fixed header.
const HEADER_LEN: usize = 40;

fn encode_header(
    kind: u32,
    seed_id: u64,
    block: u64,
    items: u32,
    per_block: u32,
    checksum: u64,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN);
    out.extend_from_slice(&HEADER_MAGIC.to_le_bytes());
    out.extend_from_slice(&kind.to_le_bytes());
    out.extend_from_slice(&seed_id.to_le_bytes());
    out.extend_from_slice(&block.to_le_bytes());
    out.extend_from_slice(&items.to_le_bytes());
    out.extend_from_slice(&per_block.to_le_bytes());
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// `(kind, seed_id, block, items, per_block, checksum)` of a header image,
/// or `None` when the bytes are not a valid header.
fn decode_header(bytes: &[u8]) -> Option<(u32, u64, u64, u32, u32, u64)> {
    if bytes.len() < HEADER_LEN {
        return None;
    }
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    if u32_at(0) != HEADER_MAGIC {
        return None;
    }
    Some((
        u32_at(4),
        u64_at(8),
        u64_at(16),
        u32_at(24),
        u32_at(28),
        u64_at(32),
    ))
}

/// A fixed-size, byte-oriented serialization contract for items that can
/// live on a persistent device ([`BlockArray::new_named`] /
/// [`BlockArray::open_named`]). Fixed size keeps block layout trivially
/// recoverable: `items × SIZE` bytes after the header, no framing.
pub trait Persist: Sized {
    /// Serialized size in bytes (every value of the type, exactly).
    const SIZE: usize;
    /// Append exactly [`Persist::SIZE`] bytes to `out`.
    fn to_bytes(&self, out: &mut Vec<u8>);
    /// Decode from exactly [`Persist::SIZE`] bytes; `None` if the bytes
    /// are not a valid encoding.
    fn from_bytes(bytes: &[u8]) -> Option<Self>;
}

impl Persist for u64 {
    const SIZE: usize = 8;
    fn to_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn from_bytes(bytes: &[u8]) -> Option<Self> {
        Some(u64::from_le_bytes(bytes.try_into().ok()?))
    }
}

impl Persist for i64 {
    const SIZE: usize = 8;
    fn to_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn from_bytes(bytes: &[u8]) -> Option<Self> {
        Some(i64::from_le_bytes(bytes.try_into().ok()?))
    }
}

impl Persist for u32 {
    const SIZE: usize = 4;
    fn to_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn from_bytes(bytes: &[u8]) -> Option<Self> {
        Some(u32::from_le_bytes(bytes.try_into().ok()?))
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    const SIZE: usize = A::SIZE + B::SIZE;
    fn to_bytes(&self, out: &mut Vec<u8>) {
        self.0.to_bytes(out);
        self.1.to_bytes(out);
    }
    fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != Self::SIZE {
            return None;
        }
        Some((
            A::from_bytes(&bytes[..A::SIZE])?,
            B::from_bytes(&bytes[A::SIZE..])?,
        ))
    }
}

/// The stable device identity of a named array: a pure function of the
/// name, so reopening finds the same blocks across processes.
fn name_id(name: &str) -> u64 {
    device::crc64(name.as_bytes())
}

/// A typed array stored in blocks of the simulated disk.
///
/// Every block carries a sentinel checksum derived from its address. Each
/// accessor reads through [`CostModel::read`], so on [`Media::Retried`]
/// silent corruption injected by the meter's [`crate::FaultPlan`] surfaces
/// as [`EmError::Corrupt`] instead of wrong answers.
#[derive(Debug)]
pub struct BlockArray<T> {
    data: Vec<T>,
    per_block: usize,
    array_id: u64,
    model: CostModel,
    /// The identity the sentinels are derived from (see
    /// [`block_checksum`]): the array id, or a named array's name hash.
    seed_id: u64,
}

impl<T> BlockArray<T> {
    /// Store `data` on disk, charging the writes needed to lay it out.
    pub fn new(model: &CostModel, data: Vec<T>) -> Self {
        let array_id = model.new_array_id();
        BlockArray::with_seed(model, data, array_id, array_id)
    }

    /// The shared layout path: charge the writes and mirror each block's
    /// header image, carrying its sentinel checksum under `seed_id`, to
    /// the device. The mirror is best-effort and unmetered — a shadow of
    /// the logical write, verified by the `try_*` read path, never a cost —
    /// and reaches only devices that can damage a block
    /// ([`CostModel::device_write`]); a fault-free [`crate::MemDevice`]
    /// receives no writes at all.
    fn with_seed(model: &CostModel, data: Vec<T>, array_id: u64, seed_id: u64) -> Self {
        let arr = BlockArray {
            per_block: model.config().items_per_block::<T>(),
            data,
            array_id,
            model: model.clone(),
            seed_id,
        };
        model.charge_writes(arr.blocks());
        arr.mirror_headers();
        arr
    }

    /// Items held by block `block` (every block is full but the last).
    fn block_items(&self, block: u64) -> usize {
        (self.data.len() - block as usize * self.per_block).min(self.per_block)
    }

    /// The sentinel checksum of block `block`.
    fn checksum(&self, block: u64) -> u64 {
        block_checksum(self.seed_id, block, self.block_items(block) as u64)
    }

    /// Mirror every block's header image under this meter's namespace.
    fn mirror_headers(&self) {
        for b in 0..self.blocks() {
            self.model.device_write(self.array_id, b, || {
                encode_header(
                    KIND_HEADER,
                    self.seed_id,
                    b,
                    self.block_items(b) as u32,
                    self.per_block as u32,
                    self.checksum(b),
                )
            });
        }
    }

    /// Number of items stored.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Items per block for this array's element type.
    pub fn items_per_block(&self) -> usize {
        self.per_block
    }

    /// Number of blocks occupied — the array's *space* in the EM model.
    pub fn blocks(&self) -> u64 {
        self.data.len().div_ceil(self.per_block) as u64
    }

    /// Random access to item `i`: charges the block containing `i`.
    pub fn get(&self, i: usize) -> &T {
        self.try_get(i, Media::Perfect)
            .expect("perfect media never fails")
    }

    /// [`BlockArray::get`] on `media`: on [`Media::Retried`], a fault that
    /// survives its retries, or a corrupt block, is an `Err`.
    pub fn try_get(&self, i: usize, media: Media) -> Result<&T, EmError> {
        self.model
            .read(self.array_id, (i / self.per_block) as u64, media)?;
        Ok(&self.data[i])
    }

    /// Read items `[lo, hi)` sequentially, charging each block in the range
    /// once, and call `f` on each item.
    pub fn scan_range(&self, lo: usize, hi: usize, mut f: impl FnMut(&T)) {
        assert!(
            lo <= hi && hi <= self.data.len(),
            "scan range out of bounds"
        );
        if lo == hi {
            return;
        }
        let first_block = lo / self.per_block;
        let last_block = (hi - 1) / self.per_block;
        for b in first_block..=last_block {
            self.model.touch(self.array_id, b as u64);
        }
        for item in &self.data[lo..hi] {
            f(item);
        }
    }

    /// Scan the whole array.
    pub fn scan(&self, f: impl FnMut(&T)) {
        self.scan_range(0, self.data.len(), f);
    }

    /// Scan `[lo, hi)` but stop early when `f` returns `false`. Blocks are
    /// charged lazily, only as the scan reaches them. Returns the number of
    /// items visited.
    pub fn scan_while(&self, lo: usize, hi: usize, f: impl FnMut(&T) -> bool) -> usize {
        self.try_scan_while(lo, hi, Media::Perfect, f)
            .expect("perfect media never fails")
    }

    /// [`BlockArray::scan_while`] on `media`: scan `[lo, hi)` until `f`
    /// returns `false`, a block read fails, or the range ends.
    ///
    /// Returns the number of items visited; on error, the pair of (items
    /// visited before the failing block, error) — the partial prefix is the
    /// raw material of graceful degradation, so callers can still answer
    /// from whatever was read.
    pub fn try_scan_while(
        &self,
        lo: usize,
        hi: usize,
        media: Media,
        mut f: impl FnMut(&T) -> bool,
    ) -> Result<usize, (usize, EmError)> {
        assert!(
            lo <= hi && hi <= self.data.len(),
            "scan range out of bounds"
        );
        let mut visited = 0;
        let mut current_block = u64::MAX;
        for i in lo..hi {
            let b = (i / self.per_block) as u64;
            if b != current_block {
                self.model
                    .read(self.array_id, b, media)
                    .map_err(|e| (visited, e))?;
                current_block = b;
            }
            visited += 1;
            if !f(&self.data[i]) {
                break;
            }
        }
        Ok(visited)
    }

    /// Binary search by a key extractor over an array sorted by that key.
    /// Charges one I/O per probe, i.e. `O(log₂(n/B))`-ish with a pool, or
    /// `O(log₂ n)` probes without.
    pub fn partition_point(&self, mut pred: impl FnMut(&T) -> bool) -> usize {
        let mut lo = 0usize;
        let mut hi = self.data.len();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            self.model
                .touch(self.array_id, (mid / self.per_block) as u64);
            if pred(&self.data[mid]) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Direct slice access **without charging I/Os**. For use by tests and
    /// by build-time code that has already accounted for its passes.
    /// Crate-private, so code outside emsim reads through the metered
    /// accessors:
    ///
    /// ```compile_fail,E0624
    /// use emsim::{BlockArray, CostModel, EmConfig};
    ///
    /// let model = CostModel::new(EmConfig::new(4));
    /// let arr = BlockArray::new(&model, vec![1u64, 2, 3]);
    /// let _ = arr.raw();
    /// ```
    ///
    /// The same snippet through the public oracle accessor compiles, so
    /// only `raw`'s visibility makes the one above fail:
    ///
    /// ```
    /// use emsim::{BlockArray, CostModel, EmConfig};
    ///
    /// let model = CostModel::new(EmConfig::new(4));
    /// let arr = BlockArray::new(&model, vec![1u64, 2, 3]);
    /// let _ = arr.unmetered_for_oracle();
    /// ```
    pub(crate) fn raw(&self) -> &[T] {
        &self.data
    }

    /// The stored items **without charging I/Os**, for a brute-force
    /// oracle that checks what a structure holds. No query path may use
    /// it: its reads are not in any I/O count.
    #[doc(hidden)]
    pub fn unmetered_for_oracle(&self) -> &[T] {
        self.raw()
    }
}

impl<T: Persist> BlockArray<T> {
    /// Store `data` *durably* under `name`: in addition to the normal
    /// logical layout (same charges as [`BlockArray::new`]), every block is
    /// written to the meter's device with its full payload under the
    /// reserved [`device::NAMED_NS`] namespace, keyed by a stable hash of
    /// `name` — so [`BlockArray::open_named`] can rebuild the array in a
    /// later process. Durable write failures surface as errors; the write
    /// becomes crash-proof only after the caller syncs the device.
    pub fn new_named(model: &CostModel, name: &str, data: Vec<T>) -> Result<Self, EmError> {
        let seed = name_id(name);
        let array_id = model.new_array_id();
        let arr = BlockArray::with_seed(model, data, array_id, seed);
        let dev = model.device();
        for b in 0..arr.blocks() {
            let lo = b as usize * arr.per_block;
            let items = arr.block_items(b);
            // The 40-byte header, then the items' bytes verbatim.
            let mut image = encode_header(
                KIND_PAYLOAD,
                seed,
                b,
                items as u32,
                arr.per_block as u32,
                arr.checksum(b),
            );
            for item in &arr.data[lo..lo + items] {
                item.to_bytes(&mut image);
            }
            dev.write(
                BlockId {
                    ns: device::NAMED_NS,
                    array: seed,
                    block: b,
                },
                &image,
            )?;
        }
        Ok(arr)
    }

    /// Rebuild the array stored by [`BlockArray::new_named`] from the
    /// meter's device, charging one read per block loaded (a sequential
    /// recovery scan). Every block's header is validated (magic, kind,
    /// name identity, block index, layout) and its sentinel checksum
    /// recomputed; any mismatch, torn payload or undecodable item surfaces
    /// as [`EmError::Corrupt`] on the named identity — feeding the same
    /// retry/degrade ladder as runtime corruption.
    pub fn open_named(model: &CostModel, name: &str) -> Result<Self, EmError> {
        let seed = name_id(name);
        let dev = model.device();
        let blocks = dev.blocks_of(device::NAMED_NS, seed);
        model.charge_reads(blocks.len() as u64);
        let corrupt = |b: u64| EmError::Corrupt {
            array_id: seed,
            block: b,
        };
        let mut per_block: Option<usize> = None;
        let mut data: Vec<T> = Vec::new();
        for (i, &b) in blocks.iter().enumerate() {
            // Blocks must be exactly 0..n — a gap means a lost block.
            if b != i as u64 {
                return Err(corrupt(i as u64));
            }
            let image = dev
                .read(BlockId {
                    ns: device::NAMED_NS,
                    array: seed,
                    block: b,
                })?
                .ok_or_else(|| corrupt(b))?;
            let (kind, seed_read, block_read, items, per, checksum) =
                decode_header(&image).ok_or_else(|| corrupt(b))?;
            // Compressing builds stamped a payload codec tag into bits 8..16
            // of the kind word; such a store fails this check as corrupt.
            if kind != KIND_PAYLOAD || seed_read != seed || block_read != b {
                return Err(corrupt(b));
            }
            let per = per as usize;
            if *per_block.get_or_insert(per) != per {
                return Err(corrupt(b));
            }
            // Every block but the last must be full; checked via the
            // recomputed sentinel below (items feeds the checksum) and the
            // payload length here.
            let items = items as usize;
            if items > per || (i + 1 < blocks.len() && items != per) {
                return Err(corrupt(b));
            }
            if block_checksum(seed, b, items as u64) != checksum {
                return Err(corrupt(b));
            }
            let payload = &image[HEADER_LEN..];
            if payload.len() != items * T::SIZE {
                return Err(corrupt(b));
            }
            for chunk in payload.chunks_exact(T::SIZE) {
                data.push(T::from_bytes(chunk).ok_or_else(|| corrupt(b))?);
            }
        }
        let arr = BlockArray {
            data,
            per_block: per_block.unwrap_or_else(|| model.config().items_per_block::<T>()),
            array_id: model.new_array_id(),
            model: model.clone(),
            seed_id: seed,
        };
        // Re-mirror header images under this meter's namespace so the
        // `try_*` read path verifies the reopened array like any other.
        arr.mirror_headers();
        Ok(arr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::EmConfig;

    fn model64() -> CostModel {
        CostModel::new(EmConfig::new(64))
    }

    #[test]
    fn build_charges_writes() {
        let m = model64();
        let a = BlockArray::new(&m, (0u64..130).collect());
        assert_eq!(a.blocks(), 3);
        assert_eq!(m.report().writes, 3);
        assert_eq!(m.report().reads, 0);
    }

    #[test]
    fn full_scan_costs_ceil_n_over_b() {
        let m = model64();
        let a = BlockArray::new(&m, (0u64..1000).collect());
        m.reset();
        let mut sum = 0u64;
        a.scan(|x| sum += x);
        assert_eq!(sum, 999 * 1000 / 2);
        assert_eq!(m.report().reads, 1000u64.div_ceil(64));
    }

    #[test]
    fn range_scan_charges_only_touched_blocks() {
        let m = model64();
        let a = BlockArray::new(&m, (0u64..640).collect());
        m.reset();
        let mut cnt = 0;
        a.scan_range(60, 70, |_| cnt += 1); // straddles blocks 0 and 1
        assert_eq!(cnt, 10);
        assert_eq!(m.report().reads, 2);
    }

    #[test]
    fn scan_while_stops_early_and_charges_lazily() {
        let m = model64();
        let a = BlockArray::new(&m, (0u64..6400).collect());
        m.reset();
        let visited = a.scan_while(0, 6400, |&x| x < 10);
        assert_eq!(visited, 11); // 0..=10, stopping at 10
        assert_eq!(m.report().reads, 1);
    }

    #[test]
    fn partition_point_agrees_with_slice() {
        let m = model64();
        let v: Vec<u64> = (0..977).map(|i| i * 3).collect();
        let a = BlockArray::new(&m, v.clone());
        for probe in [0u64, 1, 2, 3, 1000, 2927, 2928, 5000] {
            assert_eq!(
                a.partition_point(|&x| x < probe),
                v.partition_point(|&x| x < probe)
            );
        }
    }

    #[test]
    fn get_charges_one_io_per_block() {
        let m = model64();
        let a = BlockArray::new(&m, (0u64..256).collect());
        m.reset();
        assert_eq!(*a.get(0), 0);
        assert_eq!(*a.get(63), 63); // same block, but no pool: still 1 I/O
        assert_eq!(*a.get(64), 64);
        assert_eq!(m.report().reads, 3);
    }

    #[test]
    fn pool_makes_repeat_gets_free() {
        let m = CostModel::new(EmConfig::with_memory(64, 8));
        let a = BlockArray::new(&m, (0u64..256).collect());
        m.reset();
        a.get(0);
        a.get(1);
        a.get(63);
        assert_eq!(m.report().reads, 1);
    }

    #[test]
    fn empty_scan_is_free() {
        let m = model64();
        let a: BlockArray<u64> = BlockArray::new(&m, vec![]);
        m.reset();
        a.scan(|_| panic!("no items"));
        assert_eq!(m.report().reads, 0);
        assert!(a.is_empty());
    }

    use crate::cost::Media;
    use crate::fault::{FaultPlan, Retrier};

    fn faulty_model(plan: FaultPlan) -> CostModel {
        CostModel::with_faults(EmConfig::new(64), plan)
    }

    #[test]
    fn try_accessors_match_infallible_under_inert_plan() {
        let m = faulty_model(FaultPlan::none());
        let a = BlockArray::new(&m, (0u64..500).collect());
        m.reset();
        let r = Retrier::default();
        assert_eq!(a.try_get(123, Media::Retried(&r)).copied(), Ok(123));
        assert_eq!(a.try_get(499, Media::Retried(&r)).copied(), Ok(499));
        let mut sum = 0u64;
        let visited = a.try_scan_while(0, 500, Media::Retried(&r), |&x| {
            sum += x;
            true
        });
        assert_eq!(visited, Ok(500));
        assert_eq!(sum, 499 * 500 / 2);
        assert_eq!(
            a.try_scan_while(0, 500, Media::Retried(&r), |&x| x < 250),
            Ok(251)
        );
        assert_eq!(m.report().faults, 0);
    }

    #[test]
    fn transient_faults_are_retried_and_charged() {
        let m = faulty_model(FaultPlan::new(21).with_transient(0.5));
        let a = BlockArray::new(&m, (0u64..6400).collect());
        m.reset();
        // A generous budget makes full-scan success overwhelmingly likely
        // (100 blocks × 2^-12 residual failure probability).
        let r = Retrier::new(11);
        assert_eq!(
            a.try_scan_while(0, 6400, Media::Retried(&r), |_| true),
            Ok(6400)
        );
        let rep = m.report();
        assert_eq!(
            rep.faults as i64,
            rep.reads as i64 - 100,
            "every read beyond the 100 payload blocks was a charged, retried failure"
        );
        assert!(
            rep.faults > 0,
            "rate 0.5 over 100 blocks must fault somewhere"
        );
    }

    #[test]
    fn bad_blocks_surface_with_partial_progress() {
        let m = faulty_model(FaultPlan::new(8).with_permanent(0.2));
        let a = BlockArray::new(&m, (0u64..6400).collect());
        let r = Retrier::new(3);
        match a.try_scan_while(0, 6400, Media::Retried(&r), |_| true) {
            Ok(n) => {
                // No bad block in this array's id-universe: all visited.
                assert_eq!(n, 6400);
            }
            Err((visited, e)) => {
                assert!(!e.is_transient());
                // The prefix before the failing block was fully delivered.
                assert_eq!(visited % 64, 0, "failed at a block boundary");
                let (_, block) = e.location();
                assert_eq!(visited, block as usize * 64);
            }
        }
    }

    #[test]
    fn corruption_is_detected_not_returned() {
        // Corrupt every block: every try access must report Corrupt, never
        // hand back data, and the meter must count the detections.
        let m = faulty_model(FaultPlan::new(3).with_corrupt(1.0));
        let a = BlockArray::new(&m, (0u64..64).collect());
        m.reset();
        let r = Retrier::default();
        let e = a.try_get(0, Media::Retried(&r)).unwrap_err();
        assert!(matches!(e, EmError::Corrupt { .. }));
        assert_eq!(m.report().faults, 1);
        assert!(a
            .try_scan_while(0, 64, Media::Retried(&r), |_| true)
            .is_err());
        // The infallible path still reads "successfully" — corruption is
        // silent by definition and only checksums catch it.
        assert_eq!(*a.get(5), 5);
    }

    #[test]
    fn verify_passes_on_clean_blocks() {
        let m = faulty_model(FaultPlan::none());
        let a = BlockArray::new(&m, (0u64..200).collect());
        let r = Retrier::default();
        for b in 0..a.blocks() {
            assert_eq!(m.read(a.array_id, b, Media::Retried(&r)), Ok(()));
        }
    }

    use crate::device::{BlockDevice, FileDevice, MemDevice};
    use crate::PoolPolicy;
    use std::sync::Arc;

    fn meter_on(dev: Arc<dyn BlockDevice>) -> CostModel {
        CostModel::with_device(EmConfig::new(64), FaultPlan::none(), PoolPolicy::Lru, dev)
    }

    #[test]
    fn named_array_roundtrips_on_one_device() {
        let cases: [Vec<u64>; 5] = [
            (0..150).map(|i| i * 7).collect(),
            vec![42],
            vec![u64::MAX; 200],
            vec![0; 200],
            vec![u64::MAX, 0],
        ];
        for original in cases {
            let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new());
            let m = meter_on(dev.clone());
            let a = BlockArray::new_named(&m, "idx", original.clone()).expect("persist");
            assert_eq!(a.raw(), &original[..]);
            #[expect(
                clippy::disallowed_methods,
                reason = "DURABILITY: commit before reopening"
            )]
            dev.sync().expect("sync");
            // A different meter on the same device finds it by name.
            let m2 = meter_on(dev);
            let b: BlockArray<u64> = BlockArray::open_named(&m2, "idx").expect("reopen");
            assert_eq!(b.raw(), &original[..]);
            assert_eq!(b.blocks(), a.blocks());
            assert_eq!(
                m2.report().reads,
                a.blocks(),
                "recovery charges one sequential read per block"
            );
            let r = Retrier::default();
            for blk in 0..b.blocks() {
                assert_eq!(
                    m2.read(b.array_id, blk, Media::Retried(&r)),
                    Ok(()),
                    "sentinels survive the name round-trip"
                );
            }
        }
    }

    #[test]
    fn named_array_survives_file_reopen() {
        let dir = std::env::temp_dir().join(format!("emsim-block-named-{}", std::process::id()));
        #[expect(clippy::disallowed_methods, reason = "test scratch directory")]
        let _ = std::fs::remove_dir_all(&dir);
        let data: Vec<(u64, u64)> = (0..97).map(|i| (i, i * i)).collect();
        {
            let dev: Arc<dyn BlockDevice> = Arc::new(FileDevice::open(&dir).expect("open"));
            let m = meter_on(dev.clone());
            BlockArray::new_named(&m, "pairs", data.clone()).expect("persist");
            #[expect(
                clippy::disallowed_methods,
                reason = "DURABILITY: commit before reopening"
            )]
            dev.sync().expect("sync");
        }
        let dev: Arc<dyn BlockDevice> = Arc::new(FileDevice::open(&dir).expect("reopen"));
        let m = meter_on(dev);
        let b: BlockArray<(u64, u64)> = BlockArray::open_named(&m, "pairs").expect("load");
        assert_eq!(b.raw(), &data[..]);
        // Fallible reads verify clean against the reopened mirror.
        let r = Retrier::default();
        assert_eq!(
            b.try_get(42, Media::Retried(&r)).copied(),
            Ok((42, 42 * 42))
        );
        #[expect(clippy::disallowed_methods, reason = "test scratch directory")]
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_named_blocks_are_corrupt_on_reopen() {
        let plan = FaultPlan::new(7).with_torn_write(1.0);
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::with_plan(plan));
        BlockArray::new_named(&meter_on(dev.clone()), "torn", (0u64..500).collect())
            .expect("torn writes still return Ok; the damage surfaces on read");
        let got = BlockArray::<u64>::open_named(&meter_on(dev), "torn");
        assert!(matches!(got, Err(EmError::Corrupt { .. })), "got {got:?}");
    }

    #[test]
    fn nonzero_tag_byte_in_payload_image_is_corrupt() {
        let seed = super::name_id("tagged");
        for tag in [0u32, 1, 2] {
            let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new());
            // A block that is valid in every field but the tag byte.
            let mut image = encode_header(
                KIND_PAYLOAD | tag << 8,
                seed,
                0,
                3,
                64,
                block_checksum(seed, 0, 3),
            );
            for x in [5u64, 6, 7] {
                x.to_bytes(&mut image);
            }
            dev.write(
                BlockId {
                    ns: device::NAMED_NS,
                    array: seed,
                    block: 0,
                },
                &image,
            )
            .expect("write");
            let got = BlockArray::<u64>::open_named(&meter_on(dev), "tagged");
            if tag == 0 {
                assert_eq!(got.expect("tag 0 is the raw format").raw(), &[5, 6, 7]);
            } else {
                assert!(
                    matches!(got, Err(EmError::Corrupt { block: 0, .. })),
                    "tag {tag}: {got:?}"
                );
            }
        }
    }

    #[test]
    fn unknown_name_opens_empty_and_missing_blocks_are_corrupt() {
        let dev: Arc<dyn BlockDevice> = Arc::new(MemDevice::new());
        let m = meter_on(dev.clone());
        let e: BlockArray<u64> = BlockArray::open_named(&m, "nope").expect("empty");
        assert!(e.is_empty());
        // Drop a block out of the middle by writing a two-block array and
        // corrupting the device's view: simulate by persisting under a name
        // and opening with a different name that hashes no blocks — then
        // check a direct gap via a hand-written hole.
        let data: Vec<u64> = (0..100).collect();
        BlockArray::new_named(&m, "holey", data).expect("persist");
        // Forge a gap: a foreign block index far past the end under the
        // same name identity.
        let seed = super::name_id("holey");
        dev.write(
            BlockId {
                ns: device::NAMED_NS,
                array: seed,
                block: 9,
            },
            b"garbage-not-a-header-image-padding-40bytes!!",
        )
        .expect("write");
        let err = BlockArray::<u64>::open_named(&m, "holey").expect_err("gap detected");
        assert!(matches!(err, EmError::Corrupt { .. }));
    }
}
