//! Simulated global (HBM/GDDR) memory: named matrix buffers plus byte
//! traffic accounting.
//!
//! KAMI touches global memory only at kernel head and tail (matrices move
//! to registers once, results move back once); the cuBLAS-style baselines
//! stream through it per tile. Both patterns are charged through the byte
//! counters kept here.

use crate::matrix::Matrix;
use crate::precision::Precision;

/// Handle to a buffer in [`GlobalMemory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(pub(crate) usize);

struct Buffer {
    data: Matrix,
    precision: Precision,
    name: String,
}

#[derive(Debug, Clone)]
struct BufferMeta {
    name: String,
    rows: usize,
    cols: usize,
    precision: Precision,
}

/// Shape/precision metadata of a set of global buffers, with no values
/// attached — everything the cost pass needs to charge global traffic
/// and check window bounds. Declaring buffers here in the same order
/// they would be uploaded yields the same [`BufferId`]s, so a kernel
/// built against a `GmemLayout` runs unchanged against the real
/// [`GlobalMemory`].
#[derive(Debug, Clone, Default)]
pub struct GmemLayout {
    buffers: Vec<BufferMeta>,
}

impl GmemLayout {
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a buffer shape; returns the id an `upload`/`alloc_zeroed`
    /// at the same position would return.
    pub fn declare(
        &mut self,
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        precision: Precision,
    ) -> BufferId {
        let id = BufferId(self.buffers.len());
        self.buffers.push(BufferMeta {
            name: name.into(),
            rows,
            cols,
            precision,
        });
        id
    }

    pub fn precision(&self, id: BufferId) -> Precision {
        self.buffers[id.0].precision
    }

    pub fn name(&self, id: BufferId) -> &str {
        &self.buffers[id.0].name
    }

    pub fn shape(&self, id: BufferId) -> (usize, usize) {
        let b = &self.buffers[id.0];
        (b.rows, b.cols)
    }

    /// Bounds-check a read window exactly as
    /// [`GlobalMemory::read_window`] would.
    pub(crate) fn check_read(
        &self,
        id: BufferId,
        row0: usize,
        col0: usize,
        rows: usize,
        cols: usize,
    ) {
        let b = &self.buffers[id.0];
        assert!(
            row0 + rows <= b.rows && col0 + cols <= b.cols,
            "global read out of bounds on '{}': ({row0},{col0})+{rows}x{cols} of {}x{}",
            b.name,
            b.rows,
            b.cols
        );
    }

    /// Bounds-check a write window exactly as
    /// [`GlobalMemory::write_window`] would.
    pub(crate) fn check_write(
        &self,
        id: BufferId,
        row0: usize,
        col0: usize,
        rows: usize,
        cols: usize,
    ) {
        let b = &self.buffers[id.0];
        assert!(
            row0 + rows <= b.rows && col0 + cols <= b.cols,
            "global write out of bounds on '{}'",
            b.name
        );
    }
}

/// Global-memory space of one simulated kernel launch.
#[derive(Default)]
pub struct GlobalMemory {
    buffers: Vec<Buffer>,
    bytes_read: u64,
    bytes_written: u64,
}

impl GlobalMemory {
    pub fn new() -> Self {
        Self::default()
    }

    /// Upload a host matrix; values are quantized to `precision` exactly
    /// as a host-to-device copy of a typed buffer would.
    pub fn upload(
        &mut self,
        name: impl Into<String>,
        m: &Matrix,
        precision: Precision,
    ) -> BufferId {
        let id = BufferId(self.buffers.len());
        self.buffers.push(Buffer {
            data: m.quantized(precision),
            precision,
            name: name.into(),
        });
        id
    }

    /// Allocate a zero-initialized buffer (e.g. for the C output).
    pub fn alloc_zeroed(
        &mut self,
        name: impl Into<String>,
        rows: usize,
        cols: usize,
        precision: Precision,
    ) -> BufferId {
        let id = BufferId(self.buffers.len());
        self.buffers.push(Buffer {
            data: Matrix::zeros(rows, cols),
            precision,
            name: name.into(),
        });
        id
    }

    /// Download a buffer back to the host.
    pub fn download(&self, id: BufferId) -> Matrix {
        self.buffers[id.0].data.clone()
    }

    pub fn precision(&self, id: BufferId) -> Precision {
        self.buffers[id.0].precision
    }

    pub fn name(&self, id: BufferId) -> &str {
        &self.buffers[id.0].name
    }

    pub fn shape(&self, id: BufferId) -> (usize, usize) {
        let b = &self.buffers[id.0];
        (b.data.rows(), b.data.cols())
    }

    /// Read a window; counts traffic. Returns row-major values.
    pub fn read_window(
        &mut self,
        id: BufferId,
        row0: usize,
        col0: usize,
        rows: usize,
        cols: usize,
    ) -> Vec<f64> {
        let b = &self.buffers[id.0];
        assert!(
            row0 + rows <= b.data.rows() && col0 + cols <= b.data.cols(),
            "global read out of bounds on '{}': ({row0},{col0})+{rows}x{cols} of {}x{}",
            b.name,
            b.data.rows(),
            b.data.cols()
        );
        let mut out = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                out.push(b.data.get(row0 + r, col0 + c));
            }
        }
        self.bytes_read += (rows * cols * b.precision.size_bytes()) as u64;
        out
    }

    #[cfg(test)]
    pub(crate) fn buffer_count(&self) -> usize {
        self.buffers.len()
    }

    /// Snapshot the buffer shapes/precisions as a [`GmemLayout`] (the
    /// cost pass's view of this memory).
    pub fn layout(&self) -> GmemLayout {
        GmemLayout {
            buffers: self
                .buffers
                .iter()
                .map(|b| BufferMeta {
                    name: b.name.clone(),
                    rows: b.data.rows(),
                    cols: b.data.cols(),
                    precision: b.precision,
                })
                .collect(),
        }
    }

    /// Write (or accumulate into) a window; counts traffic and quantizes
    /// to the buffer's precision.
    #[allow(clippy::too_many_arguments)]
    pub fn write_window(
        &mut self,
        id: BufferId,
        row0: usize,
        col0: usize,
        rows: usize,
        cols: usize,
        values: &[f64],
        accumulate: bool,
    ) {
        assert_eq!(values.len(), rows * cols);
        let prec = self.buffers[id.0].precision;
        let b = &mut self.buffers[id.0];
        assert!(
            row0 + rows <= b.data.rows() && col0 + cols <= b.data.cols(),
            "global write out of bounds on '{}'",
            b.name
        );
        self.bytes_written += (rows * cols * prec.size_bytes()) as u64;
        if accumulate {
            // Read-modify-write also reads.
            self.bytes_read += (rows * cols * prec.size_bytes()) as u64;
        }
        for r in 0..rows {
            for c in 0..cols {
                let v = values[r * cols + c];
                let cur = b.data.get(row0 + r, col0 + c);
                let new = if accumulate {
                    prec.round(cur + v)
                } else {
                    prec.round(v)
                };
                b.data.set(row0 + r, col0 + c, new);
            }
        }
    }

    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Reset traffic counters (e.g. between timed repetitions).
    pub fn reset_traffic(&mut self) {
        self.bytes_read = 0;
        self.bytes_written = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upload_download_roundtrip() {
        let mut gm = GlobalMemory::new();
        let m = Matrix::seeded_uniform(4, 4, 1);
        let id = gm.upload("A", &m, Precision::Fp64);
        assert_eq!(gm.download(id), m);
        assert_eq!(gm.name(id), "A");
        assert_eq!(gm.shape(id), (4, 4));
    }

    #[test]
    fn upload_quantizes() {
        let mut gm = GlobalMemory::new();
        let m = Matrix::from_vec(1, 1, vec![1.0 + (2.0f64).powi(-13)]);
        let id = gm.upload("A", &m, Precision::Fp16);
        assert_eq!(gm.download(id)[(0, 0)], 1.0);
    }

    #[test]
    fn traffic_accounting() {
        let mut gm = GlobalMemory::new();
        let m = Matrix::zeros(8, 8);
        let id = gm.upload("A", &m, Precision::Fp16);
        gm.read_window(id, 0, 0, 4, 4);
        assert_eq!(gm.bytes_read(), 4 * 4 * 2);
        gm.write_window(id, 0, 0, 2, 2, &[1.0; 4], false);
        assert_eq!(gm.bytes_written(), 2 * 2 * 2);
        gm.reset_traffic();
        assert_eq!(gm.bytes_read(), 0);
    }

    #[test]
    fn accumulate_adds_and_counts_rmw() {
        let mut gm = GlobalMemory::new();
        let id = gm.alloc_zeroed("C", 2, 2, Precision::Fp64);
        gm.write_window(id, 0, 0, 2, 2, &[1.0; 4], false);
        gm.write_window(id, 0, 0, 2, 2, &[2.0; 4], true);
        assert_eq!(gm.download(id)[(1, 1)], 3.0);
        // Second write also read 32 bytes for the RMW.
        assert_eq!(gm.bytes_read(), 32);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn read_out_of_bounds_panics() {
        let mut gm = GlobalMemory::new();
        let id = gm.upload("A", &Matrix::zeros(2, 2), Precision::Fp64);
        gm.read_window(id, 1, 1, 2, 2);
    }
}
