//! Suppression fixture: a real violation excused by a valid marker.

pub fn drop_scratch(path: &str) {
    // allow_invariant(device-hygiene): this helper deletes the checksum
    // verifier's scratch file, which is not block storage — the device
    // layer never reads it and no golden baseline counts it.
    std::fs::remove_file(path).ok();
}
