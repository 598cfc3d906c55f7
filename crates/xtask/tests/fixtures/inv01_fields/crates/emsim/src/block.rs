//! INV01 fixture: a public storage field inside emsim.

pub struct BlockArray<T> {
    // Line 5: the violation — a `pub` storage field bypasses the meter.
    pub data: Vec<T>,
    pub per_block: usize,
}
