//! KAMI configuration: which CA algorithm, how many warps, what precision,
//! and how much of the operands to park in shared memory (§4.7 slicing).

use crate::error::KamiError;
use kami_gpu_sim::{shape_for, BackendKind, CostConfig, DeviceSpec, MmaShape, Precision};
use serde::{Deserialize, Serialize};

/// The native MMA shape `device` runs `precision` on. A device needs
/// both a peak rate and a vendor MMA shape for a precision; without
/// either it has no tensor path, and the request is rejected here,
/// before any staging.
pub fn tensor_path(device: &DeviceSpec, precision: Precision) -> Result<MmaShape, KamiError> {
    shape_for(device, precision).ok_or_else(|| KamiError::Unsupported {
        detail: format!(
            "{} has no tensor path for {}",
            device.name,
            precision.label()
        ),
    })
}

/// The three communication-avoiding schemes of the paper (§4.3–4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algo {
    /// Row-wise partitioning; only B is communicated (Algorithm 1).
    OneD,
    /// √p×√p grid; A row-broadcast, B column-broadcast (Algorithm 2).
    TwoD,
    /// ∛p×∛p×∛p cube: ∛p concurrent layer-SUMMAs over k-chunks with a
    /// final cross-layer reduction (Algorithm 3).
    ThreeD,
}

impl Algo {
    pub fn label(self) -> &'static str {
        match self {
            Algo::OneD => "KAMI-1D",
            Algo::TwoD => "KAMI-2D",
            Algo::ThreeD => "KAMI-3D",
        }
    }

    /// All three algorithms, in the paper's reporting order.
    pub const ALL: [Algo; 3] = [Algo::OneD, Algo::TwoD, Algo::ThreeD];

    /// Grid extent for `warps`: `p` for 1D, `√p` for 2D, `∛p` for 3D.
    /// Errors unless `warps` is a positive perfect square/cube.
    pub fn grid_extent(self, warps: usize) -> Result<usize, KamiError> {
        let bad = || KamiError::BadWarpCount {
            algo: self.label(),
            warps,
        };
        if warps == 0 {
            return Err(bad());
        }
        match self {
            Algo::OneD => Ok(warps),
            Algo::TwoD => {
                let q = (warps as f64).sqrt().round() as usize;
                (q * q == warps && q >= 1).then_some(q).ok_or_else(bad)
            }
            Algo::ThreeD => {
                let q = (warps as f64).cbrt().round() as usize;
                (q * q * q == warps && q >= 1).then_some(q).ok_or_else(bad)
            }
        }
    }

    /// Number of communication/computation stages (p, √p, ∛p).
    pub fn stages(self, warps: usize) -> Result<usize, KamiError> {
        self.grid_extent(warps)
    }
}

/// Configuration of one KAMI block GEMM.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KamiConfig {
    pub algo: Algo,
    /// Warps cooperating on the block (`p`).
    pub warps: usize,
    /// Input precision of A and B; C accumulates at
    /// `precision.accumulator()`.
    pub precision: Precision,
    /// Fraction of each warp's operand registers parked in shared memory
    /// (the §4.7 register/shared-memory cooperation knob; Fig 10 sweeps
    /// 0 / 0.25 / 0.5 / 0.75). Quantized to the algorithm's chunk
    /// granularity.
    pub smem_fraction: f64,
    /// Cycle-model parameters.
    pub cost: CostConfig,
    /// Execution backend for the execute pass (numerics only — plans,
    /// cost reports, and results are identical across backends).
    /// `BackendKind`'s deserializer maps a missing field to the
    /// reference simulator, so configurations serialized before the
    /// seam existed still load.
    pub backend: BackendKind,
}

impl KamiConfig {
    /// Paper-default configuration: 4 warps (8 for 3D — the smallest
    /// perfect cube > 1, matching §5.6.2's measurement setup).
    pub fn new(algo: Algo, precision: Precision) -> Self {
        let warps = match algo {
            Algo::OneD | Algo::TwoD => 4,
            Algo::ThreeD => 8,
        };
        KamiConfig {
            algo,
            warps,
            precision,
            smem_fraction: 0.0,
            cost: CostConfig::default(),
            backend: BackendKind::default(),
        }
    }

    pub fn with_warps(mut self, warps: usize) -> Self {
        self.warps = warps;
        self
    }

    pub fn with_smem_fraction(mut self, f: f64) -> Self {
        self.smem_fraction = f;
        self
    }

    pub fn with_cost(mut self, cost: CostConfig) -> Self {
        self.cost = cost;
        self
    }

    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Validate against a problem and a device. Returns the grid extent.
    pub fn validate(
        &self,
        device: &DeviceSpec,
        m: usize,
        n: usize,
        k: usize,
    ) -> Result<usize, KamiError> {
        if !(0.0..1.0).contains(&self.smem_fraction) {
            return Err(KamiError::BadSliceFraction {
                fraction: self.smem_fraction,
            });
        }
        if self.warps > device.max_warps_per_block() as usize {
            return Err(KamiError::Unsupported {
                detail: format!(
                    "{} warps exceed the device block limit of {}",
                    self.warps,
                    device.max_warps_per_block()
                ),
            });
        }
        tensor_path(device, self.precision)?;
        let q = self.algo.grid_extent(self.warps)?;
        let err = |detail: String| Err(KamiError::Indivisible { detail });
        match self.algo {
            Algo::OneD => {
                if !m.is_multiple_of(self.warps) || !k.is_multiple_of(self.warps) {
                    return err(format!(
                        "1D with p={} needs p | m and p | k (got m={m}, k={k})",
                        self.warps
                    ));
                }
            }
            Algo::TwoD => {
                if !m.is_multiple_of(q) || !n.is_multiple_of(q) || !k.is_multiple_of(q) {
                    return err(format!(
                        "2D with √p={q} needs √p | m, n, k (got {m}x{n}x{k})"
                    ));
                }
            }
            Algo::ThreeD => {
                if !m.is_multiple_of(q) || !n.is_multiple_of(q) || !k.is_multiple_of(q * q) {
                    return err(format!(
                        "3D with ∛p={q} needs ∛p | m, ∛p | n, ∛p² | k (got {m}x{n}x{k})"
                    ));
                }
            }
        }
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kami_gpu_sim::device::gh200;

    #[test]
    fn grid_extents() {
        assert_eq!(Algo::OneD.grid_extent(4).unwrap(), 4);
        assert_eq!(Algo::TwoD.grid_extent(4).unwrap(), 2);
        assert_eq!(Algo::TwoD.grid_extent(16).unwrap(), 4);
        assert_eq!(Algo::ThreeD.grid_extent(8).unwrap(), 2);
        assert_eq!(Algo::ThreeD.grid_extent(27).unwrap(), 3);
        assert!(Algo::TwoD.grid_extent(6).is_err());
        assert!(Algo::ThreeD.grid_extent(4).is_err());
        assert!(Algo::OneD.grid_extent(0).is_err());
    }

    #[test]
    fn default_warp_counts_match_paper_measurement_setup() {
        assert_eq!(KamiConfig::new(Algo::OneD, Precision::Fp16).warps, 4);
        assert_eq!(KamiConfig::new(Algo::TwoD, Precision::Fp16).warps, 4);
        assert_eq!(KamiConfig::new(Algo::ThreeD, Precision::Fp16).warps, 8);
    }

    #[test]
    fn validation_catches_indivisible_sizes() {
        let dev = gh200();
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp16);
        assert!(cfg.validate(&dev, 64, 64, 64).is_ok());
        assert!(matches!(
            cfg.validate(&dev, 63, 64, 64),
            Err(KamiError::Indivisible { .. })
        ));
        let cfg3 = KamiConfig::new(Algo::ThreeD, Precision::Fp16);
        // 3D with q=2 needs 4 | k.
        assert!(cfg3.validate(&dev, 64, 64, 64).is_ok());
        assert!(cfg3.validate(&dev, 64, 64, 66).is_err());
    }

    #[test]
    fn validation_catches_unsupported_precision() {
        let dev = kami_gpu_sim::device::rtx5090();
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp64);
        assert!(matches!(
            cfg.validate(&dev, 64, 64, 64),
            Err(KamiError::Unsupported { .. })
        ));
    }

    #[test]
    fn precisions_without_an_mma_shape_are_rejected_before_staging() {
        use kami_gpu_sim::{device, Matrix};
        let (a, b) = (Matrix::zeros(32, 32), Matrix::zeros(32, 32));
        for dev in [device::amd_7900xtx(), device::intel_max1100()] {
            for prec in [Precision::Tf32, Precision::Fp32, Precision::Fp8E4M3] {
                // A peak rate alone is no tensor path: the vendor has
                // no MMA shape for this precision.
                assert!(dev.peak_tflops(prec).is_some());
                let cfg = KamiConfig::new(Algo::OneD, prec);
                let want = format!("{} has no tensor path for {}", dev.name, prec.label());
                for got in [
                    crate::gemm_cost(&dev, &cfg, 32, 32, 32).map(|_| ()),
                    crate::gemm(&dev, &cfg, &a, &b).map(|_| ()),
                ] {
                    match got {
                        Err(KamiError::Unsupported { detail }) => assert_eq!(detail, want),
                        other => panic!("{} {}: {other:?}", dev.name, prec.label()),
                    }
                }
            }
        }
    }

    #[test]
    fn configs_serialized_before_the_backend_seam_deserialize_to_sim() {
        let v = Serialize::to_value(
            &KamiConfig::new(Algo::TwoD, Precision::Fp16).with_backend(BackendKind::Native),
        );
        let serde::Value::Object(pairs) = v else {
            panic!("config serializes to an object");
        };
        let stripped = serde::Value::Object(
            pairs
                .into_iter()
                .filter(|(key, _)| key != "backend")
                .collect(),
        );
        let cfg = <KamiConfig as Deserialize>::from_value(&stripped).unwrap();
        assert_eq!(cfg.backend, BackendKind::Sim);
    }

    #[test]
    fn validation_catches_bad_fraction() {
        let dev = gh200();
        let cfg = KamiConfig::new(Algo::OneD, Precision::Fp16).with_smem_fraction(1.5);
        assert!(matches!(
            cfg.validate(&dev, 64, 64, 64),
            Err(KamiError::BadSliceFraction { .. })
        ));
    }
}
