//! Partition index arithmetic for the 1D / 2D / 3D data layouts
//! (paper §4.2, Fig 5) and the shared-memory address map each algorithm
//! uses as its communication medium.

use kami_gpu_sim::Precision;

/// Position of warp `i` in a stack of `q×q` grids: `(layer, row, col)`.
/// The layer axis parallelizes the k dimension; a single 2D grid is
/// layer 0.
#[inline]
pub fn cube_pos(i: usize, q: usize) -> (usize, usize, usize) {
    (i / (q * q), (i / q) % q, i % q)
}

/// Byte size of an `rows×cols` tile at `prec`.
#[inline]
pub fn tile_bytes(rows: usize, cols: usize, prec: Precision) -> usize {
    rows * cols * prec.size_bytes()
}

/// Shared-memory address map of one KAMI kernel.
///
/// Layout (byte offsets):
/// ```text
/// [ broadcast A: regions 0..a_regions ][ broadcast B: regions 0..b_regions ][ park: per warp ]
/// ```
/// The 1D algorithm uses zero A regions and one B region. The layered
/// grid kernels ([`crate::grid::LayeredGrid`]: 2D, 3D and 2.5D, `L`
/// stacked `q×q` grids) use `L·q` of each, one per (layer, row) /
/// (layer, col) pair: `√p` for 2D, `∛p²` for 3D.
#[derive(Debug, Clone)]
pub struct SmemMap {
    a_region_bytes: usize,
    b_region_bytes: usize,
    a_regions: usize,
    b_regions: usize,
    park_bytes_per_warp: usize,
}

impl SmemMap {
    pub fn new(
        a_regions: usize,
        a_region_bytes: usize,
        b_regions: usize,
        b_region_bytes: usize,
        park_bytes_per_warp: usize,
    ) -> Self {
        SmemMap {
            a_region_bytes,
            b_region_bytes,
            a_regions,
            b_regions,
            park_bytes_per_warp,
        }
    }

    /// Address of broadcast-A region `r`.
    pub fn a_addr(&self, r: usize) -> usize {
        debug_assert!(r < self.a_regions);
        r * self.a_region_bytes
    }

    /// Address of broadcast-B region `c`.
    pub fn b_addr(&self, c: usize) -> usize {
        debug_assert!(c < self.b_regions);
        self.a_regions * self.a_region_bytes + c * self.b_region_bytes
    }

    /// Address of warp `w`'s private parking area, offset by `off` bytes.
    pub fn park_addr(&self, w: usize, off: usize) -> usize {
        debug_assert!(off < self.park_bytes_per_warp.max(1));
        self.a_regions * self.a_region_bytes
            + self.b_regions * self.b_region_bytes
            + w * self.park_bytes_per_warp
            + off
    }

    /// Total footprint for `warps` warps.
    pub fn footprint(&self, warps: usize) -> usize {
        self.a_regions * self.a_region_bytes
            + self.b_regions * self.b_region_bytes
            + warps * self.park_bytes_per_warp
    }
}

/// Split `total` into a register-resident prefix and a shared-memory
/// parked suffix, in units of `chunk`, parking approximately `fraction`
/// of the chunks (rounded to nearest; never parks everything).
///
/// Returns `(register_chunks, parked_chunks)`.
pub fn split_chunks(total_chunks: usize, fraction: f64) -> (usize, usize) {
    let parked = ((total_chunks as f64) * fraction).round() as usize;
    let parked = parked.min(total_chunks.saturating_sub(1));
    (total_chunks - parked, parked)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_and_cube_positions() {
        // One 2D grid is layer 0.
        assert_eq!(cube_pos(5, 4), (0, 1, 1));
        assert_eq!(cube_pos(0, 2), (0, 0, 0));
        assert_eq!(cube_pos(7, 2), (1, 1, 1));
        assert_eq!(cube_pos(5, 2), (1, 0, 1));
        for i in 0..27 {
            let (l, r, c) = cube_pos(i, 3);
            assert_eq!(l * 9 + r * 3 + c, i);
        }
    }

    #[test]
    fn smem_map_regions_disjoint() {
        let map = SmemMap::new(2, 100, 3, 50, 10);
        assert_eq!(map.a_addr(0), 0);
        assert_eq!(map.a_addr(1), 100);
        assert_eq!(map.b_addr(0), 200);
        assert_eq!(map.b_addr(2), 300);
        assert_eq!(map.park_addr(0, 0), 350);
        assert_eq!(map.park_addr(2, 5), 375);
        assert_eq!(map.footprint(4), 390);
    }

    #[test]
    fn split_chunks_quantizes() {
        assert_eq!(split_chunks(4, 0.0), (4, 0));
        assert_eq!(split_chunks(4, 0.5), (2, 2));
        assert_eq!(split_chunks(4, 0.25), (3, 1));
        assert_eq!(split_chunks(4, 0.75), (1, 3));
        // Never park everything.
        assert_eq!(split_chunks(4, 0.99), (1, 3));
        assert_eq!(split_chunks(1, 0.9), (1, 0));
    }

    #[test]
    fn tile_bytes_uses_precision() {
        assert_eq!(tile_bytes(8, 8, Precision::Fp64), 512);
        assert_eq!(tile_bytes(8, 8, Precision::Fp16), 128);
    }
}
