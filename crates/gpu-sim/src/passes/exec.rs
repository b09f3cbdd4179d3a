//! Execute pass: numerics only, no cycle accounting.
//!
//! Interprets a [`PlannedKernel`] phase by phase through the phase walker
//! of `passes/walk.rs`, whatever the [`BackendKind`]: warps in warp order,
//! ops in program order, then same-phase race detection. KAMI kernels exchange data between warps
//! only across a barrier, so this walk *is* the semantics; every fault
//! surfaces with the same error, panic message, and ordering as
//! [`Engine::run`]. The backend selects only the body of each MMA once
//! its legality checks have passed — the reference interpreter for
//! [`BackendKind::Sim`], the host microkernel of [`super::native`] for
//! [`BackendKind::Native`] — so both leave bit-identical state.
//!
//! The pass prices nothing and consults no
//! [`CostConfig`](crate::cost::CostConfig) — the walker's tallies are
//! dropped: cycles are the cost pass's business alone.

use super::backend::BackendKind;
use super::walk::Walk;
use super::PlannedKernel;
use crate::engine::{fresh_frags, Engine};
use crate::error::SimError;
use crate::memory::global::GlobalMemory;
use crate::program::{Op, WarpProgram};

impl<'a> Engine<'a> {
    /// Execute pass: run the planned kernel's numerics against `gmem`
    /// with the selected backend's MMA body. Every backend leaves the
    /// state [`Engine::run`] leaves behind (fragment values, shared/global
    /// memory contents, global traffic counters) on every kernel that
    /// runs to completion, and fails with its error on every other.
    pub fn execute_with(
        &self,
        backend: BackendKind,
        plan: &PlannedKernel<'_>,
        gmem: &mut GlobalMemory,
    ) -> Result<(), SimError> {
        let mut walk = Walk::new(self.device);
        let mut frags = fresh_frags(plan.kernel);
        let mut step = |w: usize, prog: &WarpProgram, op: &Op, walk: &mut Walk| {
            self.exec_op(backend, w, prog, op, gmem, &mut frags[w], walk)
        };
        for phase in 0..plan.phases {
            self.walk_phase(plan, phase, &mut walk, false, &mut step)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::device::gh200;
    use crate::engine::Engine;
    use crate::error::SimError;
    use crate::matrix::Matrix;
    use crate::memory::global::{BufferId, GlobalMemory};
    use crate::passes::{BackendKind, RunOptions};
    use crate::precision::Precision;
    use crate::program::{BlockKernel, WarpProgram};

    fn assert_gmem_identical(what: &str, want: &GlobalMemory, got: &GlobalMemory) {
        assert_eq!(want.bytes_read(), got.bytes_read(), "{what}");
        assert_eq!(want.bytes_written(), got.bytes_written(), "{what}");
        for i in 0..want.buffer_count() {
            let id = BufferId(i);
            assert_eq!(
                want.download(id).max_abs_diff(&got.download(id)),
                0.0,
                "{what}: buffer '{}' diverges",
                want.name(id)
            );
        }
    }

    /// Run `k` through the legacy interleaved engine, through the cost
    /// pass alone, through [`Engine::run_kernel`] on every backend, and
    /// through the execute pass alone ([`Engine::plan`] →
    /// [`Engine::execute_with`]) on every backend, each against a fresh
    /// memory built by `build`. On success the buffers and traffic
    /// counters must be identical, and so must the serde reports and
    /// `run_kernel`'s trace; on failure the `Debug` errors must be.
    /// Returns the legacy result.
    fn check_every_backend(
        k: &BlockKernel,
        build: impl Fn(&mut GlobalMemory),
    ) -> Result<(), SimError> {
        let dev = gh200();
        let eng = Engine::new(&dev);
        let mut g_legacy = GlobalMemory::new();
        build(&mut g_legacy);
        let legacy = eng.run_traced(k, &mut g_legacy);
        let mut g = GlobalMemory::new();
        build(&mut g);
        let cost = eng.plan(k).and_then(|plan| eng.cost(&plan, &g.layout()));
        assert_eq!(
            format!("{:?}", legacy.as_ref().map(|(rep, _)| rep)),
            format!("{:?}", cost.as_ref()),
            "cost pass"
        );
        for kind in BackendKind::ALL {
            let mut g = GlobalMemory::new();
            build(&mut g);
            let opts = RunOptions::default().traced().with_backend(kind);
            let split = eng.run_kernel(k, &mut g, &opts);
            match (&legacy, split) {
                (Ok((legacy_rep, legacy_trace)), Ok(arts)) => {
                    assert_eq!(
                        serde_json::to_string(legacy_rep).unwrap(),
                        serde_json::to_string(&arts.report).unwrap(),
                        "{kind}: report diverges"
                    );
                    assert_eq!(
                        serde_json::to_string(legacy_trace).unwrap(),
                        serde_json::to_string(&arts.trace.unwrap()).unwrap(),
                        "{kind}: trace diverges"
                    );
                    assert_gmem_identical(&format!("{kind}"), &g_legacy, &g);
                }
                (Err(legacy_err), Err(err)) => {
                    assert_eq!(format!("{legacy_err:?}"), format!("{err:?}"), "{kind}");
                }
                (legacy, split) => panic!(
                    "{kind}: legacy {:?} vs split {:?}",
                    legacy.as_ref().map(|_| ()),
                    split.map(|_| ())
                ),
            }

            let mut g = GlobalMemory::new();
            build(&mut g);
            let exec = eng
                .plan(k)
                .and_then(|plan| eng.execute_with(kind, &plan, &mut g));
            match (&legacy, exec) {
                (Ok(_), Ok(())) => assert_gmem_identical(&format!("{kind} execute"), &g_legacy, &g),
                (Err(legacy_err), Err(err)) => {
                    assert_eq!(
                        format!("{legacy_err:?}"),
                        format!("{err:?}"),
                        "{kind} execute"
                    );
                }
                (legacy, exec) => panic!(
                    "{kind} execute: legacy {:?} vs {exec:?}",
                    legacy.as_ref().map(|_| ())
                ),
            }
        }
        legacy.map(|_| ())
    }

    #[test]
    fn gemm_matches_legacy_through_every_backend() {
        // All four warps load the same A/B windows (read-only sharing is
        // race-free); disjoint smem staging; warp 0 alone stores C.
        let n = 8;
        let k = BlockKernel::spmd(4, |i, w| {
            let fa = w.frag("A", n, n, Precision::Fp64);
            let fb = w.frag("B", n, n, Precision::Fp64);
            let fc = w.frag("C", n, n, Precision::Fp64);
            w.global_load(fa, BufferId(0), 0, 0);
            w.global_load(fb, BufferId(1), 0, 0);
            w.zero_acc(fc);
            w.mma(fc, fa, fb);
            w.shared_store(fc, i * n * n * 8);
            w.barrier();
            w.shared_load(fc, i * n * n * 8);
            if i == 0 {
                w.global_store(fc, BufferId(2), 0, 0);
            }
        });
        check_every_backend(&k, |g| {
            g.upload("A", &Matrix::seeded_uniform(n, n, 1), Precision::Fp64);
            g.upload("B", &Matrix::seeded_uniform(n, n, 2), Precision::Fp64);
            g.alloc_zeroed("C", n, n, Precision::Fp64);
        })
        .unwrap();
    }

    #[test]
    fn accumulate_stores_match_legacy_in_warp_order() {
        let build = |g: &mut GlobalMemory| {
            g.upload("A", &Matrix::seeded_uniform(4, 4, 7), Precision::Fp16);
            g.upload("C", &Matrix::seeded_uniform(4, 4, 9), Precision::Fp16);
        };
        // Each warp accumulates into a disjoint row band of C; every
        // backend must reproduce the interleaved engine's rounding.
        let k = BlockKernel::spmd(2, |i, w| {
            let fa = w.frag("a", 2, 4, Precision::Fp16);
            w.global_load(fa, BufferId(0), i * 2, 0);
            w.global_accumulate(fa, BufferId(1), i * 2, 0);
        });
        check_every_backend(&k, build).unwrap();

        // Both warps accumulate into the same C window in one phase,
        // the cross-layer aggregation of KAMI-3D: warp order settles it.
        let k = BlockKernel::spmd(2, |i, w| {
            let fa = w.frag("a", 2, 4, Precision::Fp16);
            w.global_load(fa, BufferId(0), i * 2, 0);
            w.global_accumulate(fa, BufferId(1), 0, 0);
        });
        check_every_backend(&k, build).unwrap();
    }

    #[test]
    fn same_phase_gmem_rmw_matches_legacy() {
        // Warp 0 stores then reloads the same C window inside one phase:
        // global ops run in warp and program order, which settles it.
        let k = BlockKernel::spmd(2, |i, w| {
            let f = w.frag("x", 2, 2, Precision::Fp64);
            w.global_load(f, BufferId(0), 0, 0);
            if i == 0 {
                w.global_store(f, BufferId(1), 0, 0);
                w.global_load(f, BufferId(1), 0, 0);
            }
        });
        check_every_backend(&k, |g| {
            g.upload("A", &Matrix::seeded_uniform(2, 2, 3), Precision::Fp64);
            g.alloc_zeroed("C", 2, 2, Precision::Fp64);
        })
        .unwrap();
    }

    #[test]
    fn disjoint_smem_phase_reports_lowest_warp_error_like_legacy() {
        // Disjoint smem addresses (race-free), but warps 1 and 2 both
        // store uninitialized fragments; legacy reaches warp 1 first.
        let k = BlockKernel::spmd(3, |i, w| {
            let f = w.frag("x", 1, 1, Precision::Fp32);
            if i == 0 {
                w.zero_acc(f);
            }
            w.shared_store(f, i * 64);
        });
        let legacy = check_every_backend(&k, |_| {});
        assert!(matches!(
            legacy,
            Err(SimError::UninitializedFragment { warp: 1, .. })
        ));
    }

    #[test]
    fn smem_race_errors_identically_through_every_backend() {
        let k = BlockKernel::spmd(2, |i, w| {
            let f = w.frag("x", 1, 1, Precision::Fp32);
            w.zero_acc(f);
            if i == 0 {
                w.shared_store(f, 0);
            } else {
                w.shared_load(f, 0);
            }
        });
        let legacy = check_every_backend(&k, |_| {});
        assert!(matches!(legacy, Err(SimError::SharedMemoryHazard { .. })));
    }

    #[test]
    fn out_of_range_metadata_errors_identically_through_every_backend() {
        let cap = gh200().smem_capacity;
        // A read past the end faults in the reading warp.
        let k = BlockKernel::spmd(2, |i, w| w.meta_load(cap - 8 + i * 4, 8));
        let legacy = check_every_backend(&k, |_| {});
        assert!(
            matches!(legacy, Err(SimError::SharedMemoryFault { warp: 1, .. })),
            "{legacy:?}"
        );
        // An end that overflows `usize` is out of range too.
        let k = BlockKernel::spmd(1, |_, w| w.meta_load(usize::MAX, 2));
        let legacy = check_every_backend(&k, |_| {});
        assert!(
            matches!(legacy, Err(SimError::SharedMemoryFault { warp: 0, .. })),
            "{legacy:?}"
        );
        let k = BlockKernel::spmd(1, |_, w| w.meta_store(usize::MAX, 2));
        let legacy = check_every_backend(&k, |_| {});
        assert!(
            matches!(legacy, Err(SimError::SharedMemoryOverflow { .. })),
            "{legacy:?}"
        );
        // The last in-range bytes are fine.
        let k = BlockKernel::spmd(1, |_, w| w.meta_load(cap - 8, 8));
        check_every_backend(&k, |_| {}).unwrap();
    }

    #[test]
    fn overflowing_shared_access_errors_identically_through_every_backend() {
        let cap = gh200().smem_capacity;
        // A 1×4 FP32 fragment (16 B) at `addr`, stored or loaded.
        let access = |addr: usize, load: bool| {
            BlockKernel::spmd(1, move |_, w| {
                let f = w.frag("x", 1, 4, Precision::Fp32);
                w.zero_acc(f);
                if load {
                    w.shared_load(f, addr);
                } else {
                    w.shared_store(f, addr);
                }
            })
        };
        // An end that overflows `usize` is out of range.
        let legacy = check_every_backend(&access(usize::MAX - 3, false), |_| {});
        assert!(
            matches!(legacy, Err(SimError::SharedMemoryOverflow { .. })),
            "{legacy:?}"
        );
        let legacy = check_every_backend(&access(usize::MAX - 3, true), |_| {});
        assert!(
            matches!(legacy, Err(SimError::SharedMemoryFault { warp: 0, .. })),
            "{legacy:?}"
        );
        // One byte past the capacity overflows; the last 16 B store.
        let legacy = check_every_backend(&access(cap - 15, false), |_| {});
        assert!(
            matches!(legacy, Err(SimError::SharedMemoryOverflow { .. })),
            "{legacy:?}"
        );
        check_every_backend(&access(cap - 16, false), |_| {}).unwrap();
    }

    #[test]
    fn overflowing_k_slice_is_bad_operand_through_every_backend() {
        let build = |g: &mut GlobalMemory| {
            g.upload("A", &Matrix::seeded_uniform(2, 4, 1), Precision::Fp16);
            g.upload("B", &Matrix::seeded_uniform(4, 2, 2), Precision::Fp16);
        };
        // A k-slice of `a`'s columns (A 2×4, B 1×2) or of `b`'s rows
        // (A 2×1, B 4×2) starting at `start`, one iteration wide.
        let sliced = |start: usize, of_a: bool| {
            BlockKernel::spmd(1, move |_, w| {
                let (ak, bk) = if of_a { (4, 1) } else { (1, 4) };
                let fa = w.frag("a", 2, ak, Precision::Fp16);
                let fb = w.frag("b", bk, 2, Precision::Fp16);
                let fd = w.frag("d", 2, 2, Precision::Fp32);
                w.global_load(fa, BufferId(0), 0, 0);
                w.global_load(fb, BufferId(1), 0, 0);
                w.zero_acc(fd);
                if of_a {
                    w.mma_a_cols(fd, fa, fb, start, 1);
                } else {
                    w.mma_b_rows(fd, fa, fb, start, 1);
                }
            })
        };
        for of_a in [true, false] {
            // A start whose end overflows `usize` is out of bounds.
            let legacy = check_every_backend(&sliced(usize::MAX, of_a), build);
            assert!(
                matches!(legacy, Err(SimError::BadOperand { .. })),
                "{legacy:?}"
            );
            // The last in-range slice runs.
            check_every_backend(&sliced(3, of_a), build).unwrap();
        }
    }

    /// Run a one-warp kernel through the execute pass on every backend
    /// against one input row per `(precision, values)` (buffers `0..`)
    /// and a final FP64 output row of `n` values, whose store keeps
    /// every bit. Returns the output's bits, which every backend must
    /// agree on.
    fn output_bits(
        inputs: &[(Precision, &[f64])],
        n: usize,
        body: impl Fn(&mut WarpProgram, BufferId),
    ) -> Vec<u64> {
        let dev = gh200();
        let eng = Engine::new(&dev);
        let k = BlockKernel::spmd(1, |_, w| body(w, BufferId(inputs.len())));
        let runs: Vec<Vec<u64>> = BackendKind::ALL
            .iter()
            .map(|&kind| {
                let mut g = GlobalMemory::new();
                for (i, &(p, vs)) in inputs.iter().enumerate() {
                    for &v in vs {
                        assert_eq!(p.round(v).to_bits(), v.to_bits(), "{v:e} is not {p:?}");
                    }
                    g.upload(
                        format!("in{i}"),
                        &Matrix::from_vec(1, vs.len(), vs.to_vec()),
                        p,
                    );
                }
                let out = g.alloc_zeroed("out", 1, n, Precision::Fp64);
                eng.plan(&k)
                    .and_then(|plan| eng.execute_with(kind, &plan, &mut g))
                    .unwrap();
                g.download(out)
                    .as_slice()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect()
            })
            .collect();
        assert!(runs.windows(2).all(|w| w[0] == w[1]), "backends disagree");
        runs.into_iter().next().unwrap()
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// `to.round` of every source value, which a move into `to` must give.
    fn rounded(to: Precision, src: &[f64]) -> Vec<u64> {
        src.iter().map(|&x| to.round(x).to_bits()).collect()
    }

    /// Exact FP32 values whose FP16 roundings are a plain narrowing, a
    /// round-up, a tie that overflows to infinity and a tie to -0.
    const FP32_SRC: [f64; 4] = [
        1.0 + 1.0 / 8192.0,
        1.0 + 1.0 / 2048.0 + 1.0 / 8192.0,
        65520.0,
        -1.0 / 33554432.0,
    ];
    const FP32_AS_FP16: [f64; 4] = [1.0, 1.0 + 1.0 / 1024.0, f64::INFINITY, -0.0];

    #[test]
    fn fp32_buffer_loads_into_fp16_fragment_rounded() {
        let got = output_bits(&[(Precision::Fp32, &FP32_SRC)], 4, |w, out| {
            let h = w.frag("h", 1, 4, Precision::Fp16);
            w.global_load(h, BufferId(0), 0, 0);
            w.global_store(h, out, 0, 0);
        });
        assert_eq!(got, bits(&FP32_AS_FP16));
        assert_eq!(got, rounded(Precision::Fp16, &FP32_SRC));
    }

    #[test]
    fn reg_copy_from_fp32_to_fp16_rounds() {
        let got = output_bits(&[(Precision::Fp32, &FP32_SRC)], 4, |w, out| {
            let f = w.frag("f", 1, 4, Precision::Fp32);
            let h = w.frag("h", 1, 4, Precision::Fp16);
            w.global_load(f, BufferId(0), 0, 0);
            w.reg_copy(h, f);
            w.global_store(h, out, 0, 0);
        });
        assert_eq!(got, bits(&FP32_AS_FP16));
        assert_eq!(got, rounded(Precision::Fp16, &FP32_SRC));
    }

    /// Stage a row through shared memory: stored at `from`, loaded at
    /// the same-size `to`.
    fn smem_crossing(from: Precision, to: Precision, src: &[f64]) -> Vec<u64> {
        output_bits(&[(from, src)], src.len(), |w, out| {
            let a = w.frag("a", 1, src.len(), from);
            let b = w.frag("b", 1, src.len(), to);
            w.global_load(a, BufferId(0), 0, 0);
            w.shared_store(a, 64);
            w.barrier();
            w.shared_load(b, 64);
            w.global_store(b, out, 0, 0);
        })
    }

    #[test]
    fn smem_stored_as_bf16_loads_as_fp16_rounded() {
        // Exact BF16 values: FP16-exact, below FP16's smallest
        // subnormal (rounds up to it), beyond FP16's range, and a
        // subnormal with a dropped low bit.
        let src = [
            1.0 + 1.0 / 128.0,
            1.5 * 2f64.powi(-25),
            131072.0,
            -(1.0 + 1.0 / 128.0) * 2f64.powi(-20),
        ];
        let got = smem_crossing(Precision::Bf16, Precision::Fp16, &src);
        let want = [
            1.0 + 1.0 / 128.0,
            2f64.powi(-24),
            f64::INFINITY,
            -(2f64.powi(-20)),
        ];
        assert_eq!(got, bits(&want));
        assert_eq!(got, rounded(Precision::Fp16, &src));
        // At the stored precision the row comes back unchanged.
        assert_eq!(
            smem_crossing(Precision::Bf16, Precision::Bf16, &src),
            bits(&src)
        );
    }

    #[test]
    fn smem_stored_as_fp32_loads_as_tf32_rounded() {
        let src = [
            1.0 + 1.0 / 8192.0,
            1.0 + 1.0 / 2048.0 + 1.0 / 8192.0,
            2f64.powi(-149),
            -(2.0 - 2f64.powi(-23)),
        ];
        let got = smem_crossing(Precision::Fp32, Precision::Tf32, &src);
        assert_eq!(got, bits(&[1.0, 1.0 + 1.0 / 1024.0, 0.0, -2.0]));
        assert_eq!(got, rounded(Precision::Tf32, &src));
        assert_eq!(
            smem_crossing(Precision::Fp32, Precision::Fp32, &src),
            bits(&src)
        );
    }

    #[test]
    fn fp16_mma_narrows_only_a_d_below_the_accumulator() {
        // (1 + 2^-10)·(1 + 2^-10) = 1 + 2^-9 + 2^-20 and
        // 3·(1 + 2^-10) = 3 + 1.5·2^-9, both exact at the FP32
        // accumulator; FP16 drops the 2^-20 and rounds the tie at 3 to
        // the even 3 + 2^-8.
        let e = 1.0 + 1.0 / 1024.0;
        let acc = [
            1.0 + 2f64.powi(-9) + 2f64.powi(-20),
            3.0 + 1.5 * 2f64.powi(-9),
        ];
        let mma = |d_prec: Precision| {
            output_bits(
                &[(Precision::Fp16, &[e]), (Precision::Fp16, &[e, 3.0])],
                2,
                |w, out| {
                    let a = w.frag("a", 1, 1, Precision::Fp16);
                    let b = w.frag("b", 1, 2, Precision::Fp16);
                    let d = w.frag("d", 1, 2, d_prec);
                    w.global_load(a, BufferId(0), 0, 0);
                    w.global_load(b, BufferId(1), 0, 0);
                    w.zero_acc(d);
                    w.mma(d, a, b);
                    w.global_store(d, out, 0, 0);
                },
            )
        };
        let got = mma(Precision::Fp16);
        assert_eq!(got, bits(&[1.0 + 2f64.powi(-9), 3.0 + 2f64.powi(-8)]));
        assert_eq!(got, rounded(Precision::Fp16, &acc));
        assert_eq!(mma(Precision::Fp32), bits(&acc));
    }

    #[test]
    fn adds_read_their_source_in_place_and_in_alias() {
        let src = [1.0 + 1.0 / 1024.0, 40000.0, -0.0];
        let doubled = [2.0 + 1.0 / 512.0, f64::INFINITY, -0.0];
        for alias in [false, true] {
            // `x += x` and `x += row(x)` on a 1×3 row, against adding a
            // separate copy `y` declared after (`dst < src`) or before
            // (`dst > src`) it.
            for row in [false, true] {
                for y_first in [false, true] {
                    let got = output_bits(&[(Precision::Fp16, &src)], 3, |w, out| {
                        let decl = |w: &mut WarpProgram, n| w.frag(n, 1, 3, Precision::Fp16);
                        let (x, y) = if y_first {
                            let y = decl(w, "y");
                            (decl(w, "x"), y)
                        } else {
                            (decl(w, "x"), decl(w, "y"))
                        };
                        w.global_load(x, BufferId(0), 0, 0);
                        w.global_load(y, BufferId(0), 0, 0);
                        let s = if alias { x } else { y };
                        if row {
                            w.add_row_broadcast(x, s);
                        } else {
                            w.add_assign(x, s);
                        }
                        w.global_store(x, out, 0, 0);
                    });
                    assert_eq!(got, bits(&doubled), "alias {alias}, row {row}");
                }
            }
        }
    }
}
