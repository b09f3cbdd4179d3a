//! Banked on-chip shared memory — KAMI's "network".
//!
//! The block's shared memory is a dense slab indexed by byte address:
//! per byte, the value of the element that starts there and that
//! element's size in bytes, where size 0 means no element starts there.
//! An element is keyed by its first byte and tagged with the size that
//! wrote it, so a mismatched read (wrong precision or misaligned
//! overlay) is caught as a simulation error instead of silently
//! reinterpreting bits. A store that partially overlaps previously
//! written data of a different extent invalidates the stale elements,
//! so a clobbered element reads back as uninitialized instead of
//! returning its old value.
//!
//! The slab grows on store to the highest extent stored — the block's
//! footprint, never the device capacity. A shape-only store (the cost
//! pass) writes size tags alone, so that pass never allocates values.
//!
//! The module also provides the bank-conflict analysis behind the paper's
//! `θ_r` / `θ_w` factors: for a warp-wide access with a given element size
//! and stride, it computes how many bank cycles the access takes relative
//! to the conflict-free ideal.

/// Read or write, for conflict analysis and traffic split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
}

/// Layout summary of the live elements, used to skip overlap scans in
/// the common case where a block only ever stores one element size at
/// aligned addresses (every KAMI kernel today).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    Empty,
    Uniform(usize),
    Mixed,
}

/// Shared-memory space of one thread block.
#[derive(Clone)]
pub struct SharedMemory {
    capacity: usize,
    /// Byte address -> size of the element starting there (0: none).
    /// Its length is the highest extent stored since the last reset.
    sizes: Vec<u8>,
    /// Byte address -> value of the element starting there. Only
    /// functional stores grow it, so it can be shorter than `sizes`.
    values: Vec<f64>,
    layout: Layout,
    /// Largest element size ever stored — bounds the overlap scan window.
    max_elem: usize,
    bytes_read: u64,
    bytes_written: u64,
}

impl SharedMemory {
    /// An empty shared memory of `capacity` bytes. Nothing is allocated
    /// until the first store.
    pub fn new(capacity: usize) -> Self {
        SharedMemory {
            capacity,
            sizes: Vec::new(),
            values: Vec::new(),
            layout: Layout::Empty,
            max_elem: 0,
            bytes_read: 0,
            bytes_written: 0,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Highest byte address stored + 1 — the block's shared-memory
    /// footprint (what a launch would have to reserve).
    pub fn peak_extent(&self) -> usize {
        self.sizes.len()
    }

    /// Store `values` contiguously at byte `addr` with elements of
    /// `elem_size` bytes. Returns `Err` description on capacity overflow,
    /// an end past `usize::MAX` included.
    ///
    /// A store that partially overlaps an existing element of a different
    /// start or extent invalidates that element: elements are keyed by
    /// start address, so without invalidation an 8-byte store at byte 0
    /// followed by a 4-byte store at byte 4 would leave the stale wide
    /// value readable at byte 0.
    ///
    /// # Panics
    ///
    /// If `elem_size` is not in `1..=255`.
    pub fn store(&mut self, addr: usize, elem_size: usize, values: &[f64]) -> Result<(), String> {
        self.store_cells(addr, elem_size, values.len(), Some(values))
    }

    /// Shape-only variant of [`Self::store`]: identical capacity check,
    /// overlap invalidation, counters, and layout bookkeeping, but no
    /// values — a functional load of the stored elements reads
    /// unspecified numbers. This is what the cost pass runs — it must
    /// see the exact same faults and footprint as a functional store
    /// without touching matrix data.
    pub fn store_shape(
        &mut self,
        addr: usize,
        elem_size: usize,
        count: usize,
    ) -> Result<(), String> {
        self.store_cells(addr, elem_size, count, None)
    }

    fn store_cells(
        &mut self,
        addr: usize,
        elem_size: usize,
        count: usize,
        values: Option<&[f64]>,
    ) -> Result<(), String> {
        let tag = u8::try_from(elem_size)
            .ok()
            .filter(|&t| t > 0)
            .expect("shared-memory element sizes are 1..=255 bytes");
        let extent = match count
            .checked_mul(elem_size)
            .and_then(|bytes| addr.checked_add(bytes))
        {
            Some(extent) if extent <= self.capacity => extent,
            Some(extent) => {
                return Err(format!(
                    "shared memory overflow: extent {extent} B > capacity {} B",
                    self.capacity
                ))
            }
            None => {
                return Err(format!(
                    "shared memory overflow: {count} x {elem_size} B at byte {addr} \
                     ends past usize::MAX, beyond capacity {} B",
                    self.capacity
                ))
            }
        };
        if self.sizes.len() < extent {
            self.sizes.resize(extent, 0);
        }
        // Partial overlaps can only exist once element sizes mix or an
        // address breaks the uniform alignment grid; skip the per-byte
        // scan on the fast path.
        let uniform = addr.is_multiple_of(elem_size)
            && match self.layout {
                Layout::Empty => true,
                Layout::Uniform(sz) => sz == elem_size,
                Layout::Mixed => false,
            };
        if !uniform {
            for a in (addr..extent).step_by(elem_size) {
                let lo = a.saturating_sub(self.max_elem.saturating_sub(1));
                for s in lo..a + elem_size {
                    // The exact-start element is replaced below.
                    if s != a && s + self.sizes[s] as usize > a {
                        self.sizes[s] = 0;
                    }
                }
            }
        }
        for a in (addr..extent).step_by(elem_size) {
            self.sizes[a] = tag;
        }
        if let Some(vs) = values {
            if self.values.len() < extent {
                self.values.resize(extent, 0.0);
            }
            for (a, &v) in (addr..extent).step_by(elem_size).zip(vs) {
                self.values[a] = v;
            }
        }
        self.layout = if uniform {
            Layout::Uniform(elem_size)
        } else {
            Layout::Mixed
        };
        self.max_elem = self.max_elem.max(elem_size);
        self.bytes_written += (extent - addr) as u64;
        Ok(())
    }

    /// Load `count` elements of `elem_size` bytes from byte `addr`.
    /// Errors on uninitialized cells or element-size mismatch.
    pub fn load(
        &mut self,
        addr: usize,
        elem_size: usize,
        count: usize,
    ) -> Result<Vec<f64>, String> {
        let mut out = Vec::with_capacity(count);
        self.load_cells(addr, elem_size, count, Some(&mut out))?;
        Ok(out)
    }

    /// Shape-only variant of [`Self::load`]: identical initialization and
    /// element-size checks and the same traffic counter, without
    /// producing values (the cost pass's read).
    pub fn load_shape(
        &mut self,
        addr: usize,
        elem_size: usize,
        count: usize,
    ) -> Result<(), String> {
        self.load_cells(addr, elem_size, count, None)
    }

    fn load_cells(
        &mut self,
        addr: usize,
        elem_size: usize,
        count: usize,
        mut out: Option<&mut Vec<f64>>,
    ) -> Result<(), String> {
        let mut a = addr;
        for _ in 0..count {
            match self.sizes.get(a).map_or(0, |&sz| sz as usize) {
                0 => return Err(format!("read of uninitialized shared memory at byte {a}")),
                sz if sz == elem_size => {
                    if let Some(o) = out.as_deref_mut() {
                        o.push(self.values.get(a).copied().unwrap_or(0.0));
                    }
                }
                sz => {
                    return Err(format!(
                        "shared memory element-size mismatch at byte {a}: \
                         written as {sz} B, read as {elem_size} B"
                    ))
                }
            }
            // The element just read ends inside the slab, so the next
            // address cannot overflow.
            a += elem_size;
        }
        self.bytes_read += (a - addr) as u64;
        Ok(())
    }

    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Clear contents and counters (new kernel on the same block). The
    /// slab keeps its allocation.
    pub fn reset(&mut self) {
        self.sizes.clear();
        self.values.clear();
        self.layout = Layout::Empty;
        self.max_elem = 0;
        self.bytes_read = 0;
        self.bytes_written = 0;
    }
}

/// Bank-conflict factor θ for a warp-wide access pattern: `warp_size`
/// lanes access elements of `elem_size` bytes separated by `stride_bytes`.
/// Returns the paper's θ ∈ (0, 1], where 1 means conflict-free.
///
/// Contiguous accesses (`stride == elem_size`) are conflict-free on all
/// four devices: sub-word elements coalesce within a bank word, and wide
/// elements are split into half-warp transactions by the hardware. For
/// strided patterns we use the textbook replay model: a bank conflict
/// occurs when two lanes address *different* `bank_width`-byte words in
/// the same bank, and the access replays once per extra word, so
/// `θ = 1 / max_bank(distinct words)`.
pub fn theta(
    warp_size: u32,
    banks: u32,
    bank_width: u32,
    elem_size: usize,
    stride_bytes: usize,
) -> f64 {
    if stride_bytes == elem_size {
        return 1.0;
    }
    let bw = bank_width as usize;
    let mut words_per_bank: Vec<std::collections::BTreeSet<usize>> =
        vec![std::collections::BTreeSet::new(); banks as usize];
    for lane in 0..warp_size as usize {
        // An element wider than a bank word touches every word it spans,
        // not just the one holding its first byte — an 8 B element at a
        // 4 B bank width occupies two consecutive words, and each one
        // can replay against other lanes.
        let start = lane * stride_bytes;
        let first = start / bw;
        let last = (start + elem_size.max(1) - 1) / bw;
        for word in first..=last {
            words_per_bank[word % banks as usize].insert(word);
        }
    }
    let worst = words_per_bank
        .iter()
        .map(|s| s.len())
        .max()
        .unwrap_or(1)
        .max(1);
    1.0 / worst as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    #[test]
    fn store_load_roundtrip() {
        let mut sm = SharedMemory::new(1024);
        sm.store(64, 2, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(sm.load(64, 2, 3).unwrap(), vec![1.0, 2.0, 3.0]);
        assert_eq!(sm.bytes_written(), 6);
        assert_eq!(sm.bytes_read(), 6);
        assert_eq!(sm.peak_extent(), 70);
    }

    #[test]
    fn capacity_overflow_detected() {
        let mut sm = SharedMemory::new(16);
        assert!(sm.store(0, 8, &[0.0, 0.0]).is_ok());
        assert!(sm.store(8, 8, &[0.0, 0.0]).is_err());
    }

    #[test]
    fn uninitialized_read_detected() {
        let mut sm = SharedMemory::new(1024);
        assert!(sm.load(0, 4, 1).is_err());
    }

    #[test]
    fn elem_size_mismatch_detected() {
        let mut sm = SharedMemory::new(1024);
        sm.store(0, 8, &[1.0]).unwrap();
        let err = sm.load(0, 4, 1).unwrap_err();
        assert!(err.contains("mismatch"), "{err}");
    }

    #[test]
    fn overwrite_is_allowed() {
        let mut sm = SharedMemory::new(1024);
        sm.store(0, 4, &[1.0]).unwrap();
        sm.store(0, 4, &[2.0]).unwrap();
        assert_eq!(sm.load(0, 4, 1).unwrap(), vec![2.0]);
    }

    #[test]
    fn reset_clears_everything() {
        let mut sm = SharedMemory::new(1024);
        sm.store(0, 4, &[1.0]).unwrap();
        sm.reset();
        assert!(sm.load(0, 4, 1).is_err());
        assert_eq!(sm.bytes_written(), 0);
        assert_eq!(sm.peak_extent(), 0);
    }

    #[test]
    fn shape_only_ops_match_functional_bookkeeping() {
        let mut full = SharedMemory::new(1024);
        let mut shape = SharedMemory::new(1024);
        full.store(0, 8, &[1.0, 2.0]).unwrap();
        shape.store_shape(0, 8, 2).unwrap();
        // Same overlap invalidation through the shape path.
        full.store(4, 4, &[3.0]).unwrap();
        shape.store_shape(4, 4, 1).unwrap();
        assert_eq!(
            full.load(0, 8, 1).unwrap_err(),
            shape.load_shape(0, 8, 1).unwrap_err()
        );
        full.load(4, 4, 1).unwrap();
        shape.load_shape(4, 4, 1).unwrap();
        assert_eq!(full.bytes_written(), shape.bytes_written());
        assert_eq!(full.bytes_read(), shape.bytes_read());
        assert_eq!(full.peak_extent(), shape.peak_extent());
        // Capacity overflow reports identically.
        assert_eq!(
            full.store(1020, 8, &[0.0]).unwrap_err(),
            shape.store_shape(1020, 8, 1).unwrap_err()
        );
    }

    #[test]
    fn contiguous_access_is_conflict_free() {
        // FP32 contiguous: classic conflict-free pattern.
        assert_eq!(theta(32, 32, 4, 4, 4), 1.0);
        // FP16 contiguous: two lanes per bank word but still one pass.
        assert_eq!(theta(32, 32, 4, 2, 2), 1.0);
        // FP64 contiguous: two words per element, no same-phase conflicts.
        assert_eq!(theta(32, 32, 4, 8, 8), 1.0);
    }

    #[test]
    fn wide_then_narrow_overlap_invalidates() {
        let mut sm = SharedMemory::new(1024);
        sm.store(0, 8, &[1.0]).unwrap();
        // Narrow store into the tail of the wide element: the stale
        // 8-byte cell at byte 0 must no longer be readable.
        sm.store(4, 4, &[2.0]).unwrap();
        let err = sm.load(0, 8, 1).unwrap_err();
        assert!(err.contains("uninitialized"), "{err}");
        assert_eq!(sm.load(4, 4, 1).unwrap(), vec![2.0]);
    }

    #[test]
    fn narrow_then_wide_overlap_invalidates() {
        let mut sm = SharedMemory::new(1024);
        sm.store(0, 4, &[1.0]).unwrap();
        sm.store(4, 4, &[2.0]).unwrap();
        // Wide store covering both narrow cells: the one at byte 4 is
        // not at the new start address and must be invalidated, not
        // left readable beside the new 8-byte value.
        sm.store(0, 8, &[3.0]).unwrap();
        let err = sm.load(4, 4, 1).unwrap_err();
        assert!(err.contains("uninitialized"), "{err}");
        assert_eq!(sm.load(0, 8, 1).unwrap(), vec![3.0]);
    }

    #[test]
    fn misaligned_same_size_overlap_invalidates() {
        let mut sm = SharedMemory::new(1024);
        sm.store(0, 4, &[1.0]).unwrap();
        sm.store(2, 4, &[2.0]).unwrap();
        let err = sm.load(0, 4, 1).unwrap_err();
        assert!(err.contains("uninitialized"), "{err}");
        assert_eq!(sm.load(2, 4, 1).unwrap(), vec![2.0]);
    }

    #[test]
    fn large_pow2_stride_conflicts() {
        // Stride of 128 B maps every lane to bank 0: worst case.
        let t = theta(32, 32, 4, 4, 128);
        assert!(t < 0.1, "theta = {t}");
        // Stride 8 B with 4 B elements: 2-way conflict.
        let t = theta(32, 32, 4, 4, 8);
        assert!((t - 0.5).abs() < 1e-9, "theta = {t}");
    }

    #[test]
    fn fp64_strided_theta_counts_every_word_touched() {
        // FP64 elements (8 B) at a 12 B stride on 32 banks × 4 B words:
        // lane l starts at byte 12l, so it touches words {3l, 3l+1}.
        // Over 32 lanes that is 64 distinct words, exactly 2 per bank,
        // so the replay count is 2 and θ = 1/2. Counting only each
        // element's starting word would see 32 words on 32 distinct
        // banks (gcd(3, 32) = 1) and wrongly report θ = 1.
        let t = theta(32, 32, 4, 8, 12);
        assert!((t - 0.5).abs() < 1e-9, "theta = {t}");
        // FP64 at 16 B stride: words {4l, 4l+1}, 4 words per touched
        // bank -> θ = 1/4 (the start-word model agrees here; the 12 B
        // pin above is the discriminating case).
        let t = theta(32, 32, 4, 8, 16);
        assert!((t - 0.25).abs() < 1e-9, "theta = {t}");
    }

    #[test]
    fn slab_allocates_nothing_before_a_store_and_spans_the_highest_extent() {
        let cap = 1 << 20;
        let mut sm = SharedMemory::new(cap);
        assert_eq!((sm.sizes.capacity(), sm.values.capacity()), (0, 0));
        // Loads and rejected stores allocate nothing.
        assert!(sm.load(512, 4, 4).is_err());
        assert!(sm.store(cap, 4, &[1.0]).is_err());
        assert_eq!((sm.sizes.capacity(), sm.values.capacity()), (0, 0));
        // A shape-only store grows the tags alone.
        sm.store_shape(96, 4, 8).unwrap();
        assert_eq!((sm.sizes.len(), sm.values.capacity()), (128, 0));
        // A functional store grows the values to its own extent.
        sm.store(0, 4, &[1.0; 4]).unwrap();
        assert_eq!((sm.sizes.len(), sm.values.len()), (128, 16));
        // A store below the highest extent grows the values only;
        // loads grow nothing.
        sm.store(64, 8, &[2.0; 2]).unwrap();
        sm.load(64, 8, 2).unwrap();
        sm.load_shape(96, 4, 8).unwrap();
        assert_eq!((sm.sizes.len(), sm.values.len()), (128, 80));
        assert_eq!(sm.peak_extent(), 128);
        // Growth follows the highest extent, never the device capacity.
        sm.store(4000, 2, &[3.0]).unwrap();
        assert_eq!((sm.sizes.len(), sm.values.len()), (4002, 4002));
        assert!(sm.sizes.capacity() < cap && sm.values.capacity() < cap);
    }

    /// The per-address map the slab replaced, as a reference model: one
    /// entry per element start, the overlap scan always on, and a
    /// shape-only store's values recorded as `None` (unspecified).
    struct MapModel {
        capacity: usize,
        cells: HashMap<usize, (Option<f64>, usize)>,
        bytes_read: u64,
        bytes_written: u64,
        peak_extent: usize,
    }

    impl MapModel {
        fn new(capacity: usize) -> Self {
            MapModel {
                capacity,
                cells: HashMap::new(),
                bytes_read: 0,
                bytes_written: 0,
                peak_extent: 0,
            }
        }

        fn store(
            &mut self,
            addr: usize,
            elem: usize,
            count: usize,
            values: Option<&[f64]>,
        ) -> Result<(), String> {
            let cap = self.capacity;
            let extent = match count.checked_mul(elem).and_then(|b| addr.checked_add(b)) {
                Some(extent) if extent <= cap => extent,
                Some(extent) => {
                    return Err(format!(
                        "shared memory overflow: extent {extent} B > capacity {cap} B"
                    ))
                }
                None => {
                    return Err(format!(
                        "shared memory overflow: {count} x {elem} B at byte {addr} \
                         ends past usize::MAX, beyond capacity {cap} B"
                    ))
                }
            };
            for i in 0..count {
                let a = addr + i * elem;
                // No element is wider than 8 B, so none starts before a - 7.
                for s in a.saturating_sub(7)..a + elem {
                    if s != a && self.cells.get(&s).is_some_and(|&(_, sz)| s + sz > a) {
                        self.cells.remove(&s);
                    }
                }
            }
            for i in 0..count {
                self.cells
                    .insert(addr + i * elem, (values.map(|vs| vs[i]), elem));
            }
            self.bytes_written += (count * elem) as u64;
            self.peak_extent = self.peak_extent.max(extent);
            Ok(())
        }

        fn load(
            &mut self,
            addr: usize,
            elem: usize,
            count: usize,
        ) -> Result<Vec<Option<f64>>, String> {
            let mut out = Vec::new();
            for i in 0..count {
                let a = addr + i * elem;
                match self.cells.get(&a) {
                    Some(&(v, sz)) if sz == elem => out.push(v),
                    Some(&(_, sz)) => {
                        return Err(format!(
                            "shared memory element-size mismatch at byte {a}: \
                             written as {sz} B, read as {elem} B"
                        ))
                    }
                    None => return Err(format!("read of uninitialized shared memory at byte {a}")),
                }
            }
            self.bytes_read += (count * elem) as u64;
            Ok(out)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random store/load/reset sequences — misaligned addresses,
        /// mixed element sizes, capacity edges and ends past
        /// `usize::MAX` — give the slab and the map model equal values,
        /// equal error texts, equal counters and equal footprints.
        #[test]
        fn slab_matches_map_model(
            seed in any::<u64>(),
            capacity in 8usize..96,
            elems in prop::sample::select(vec![vec![4usize], vec![2, 8], vec![1, 2, 4, 8]]),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut slab = SharedMemory::new(capacity);
            let mut model = MapModel::new(capacity);
            for _ in 0..64 {
                let elem = elems[rng.gen_range(0..elems.len())];
                let count = rng.gen_range(0..5usize);
                let addr = match rng.gen_range(0..8u32) {
                    // An end within two bytes of the capacity.
                    0 => (capacity + rng.gen_range(0..3usize))
                        .saturating_sub(rng.gen_range(0..3usize) + count * elem),
                    1 => usize::MAX - rng.gen_range(0..16usize),
                    2 | 3 => rng.gen_range(0..capacity),
                    _ => rng.gen_range(0..capacity / elem + 1) * elem,
                };
                match rng.gen_range(0..16u32) {
                    0..=4 => {
                        let vs: Vec<f64> = (0..count).map(|_| rng.gen_range(-1.0..1.0)).collect();
                        prop_assert_eq!(slab.store(addr, elem, &vs), model.store(addr, elem, count, Some(&vs)));
                    }
                    5..=6 => prop_assert_eq!(
                        slab.store_shape(addr, elem, count),
                        model.store(addr, elem, count, None)
                    ),
                    7..=11 => match (slab.load(addr, elem, count), model.load(addr, elem, count)) {
                        (Ok(got), Ok(want)) => {
                            prop_assert_eq!(got.len(), want.len());
                            for (g, w) in got.iter().zip(&want) {
                                if let Some(w) = w {
                                    prop_assert_eq!(g.to_bits(), w.to_bits());
                                }
                            }
                        }
                        (got, want) => prop_assert_eq!(got.err(), want.err()),
                    },
                    12..=14 => prop_assert_eq!(
                        slab.load_shape(addr, elem, count),
                        model.load(addr, elem, count).map(|_| ())
                    ),
                    _ => {
                        slab.reset();
                        model = MapModel::new(capacity);
                    }
                }
                prop_assert_eq!(
                    (slab.bytes_read(), slab.bytes_written(), slab.peak_extent()),
                    (model.bytes_read, model.bytes_written, model.peak_extent)
                );
            }
        }
    }
}
