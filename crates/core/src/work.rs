//! Building the platform models' [`KernelWork`] record from flow state.
//!
//! Dynamic quantities (FLOPs, cycles, bytes, trip counts) come from the
//! cached [`psa_analyses::KernelAnalysis`] of the *original* extracted
//! kernel; static quantities (op mix, register pressure, precision, flat
//! pipeline shape, gather fraction) are re-derived from the *current* AST so
//! transforms (SP conversion, unrolling, reduction rewrites) are reflected.

use crate::context::FlowContext;
use crate::flow::FlowError;
use psa_platform::resources;
use psa_platform::KernelWork;

/// Assemble the evaluation-workload [`KernelWork`] for the current state of
/// the flow.
pub fn kernel_work(ctx: &FlowContext) -> Result<KernelWork, FlowError> {
    let kernel = ctx.kernel_name()?.to_string();
    let analysis = ctx.analysis()?;
    let module = &ctx.ast.module;

    let ops = resources::op_counts(module, &kernel).ok_or_else(|| {
        FlowError::precondition(format!("kernel `{kernel}` missing for op counts"))
    })?;
    let regs = resources::estimate_registers(module, &kernel)
        .ok_or_else(|| FlowError::analysis("register estimation failed"))?;
    let fp64 = resources::kernel_uses_fp64(module, &kernel);
    let gather = resources::gather_fraction(module, &kernel);

    // Split measured FLOPs into FMA-class and SFU-class work using the
    // static op mix.
    let sfu_frac = ops.sfu_flop_fraction();
    let total_flops = analysis.kernel_flops as f64;

    // Precision halves the memory traffic once the SP transforms have
    // converted the kernel (the dynamic run measured double precision).
    let byte_scale = if fp64 { 1.0 } else { 0.5 };

    // Outer-loop parallelism and pipeline initiations from the trip-count
    // report: pipeline iterations = the busiest runtime-bound loop level
    // (fixed-bound loops are folded into the datapath).
    let outer_iters = analysis
        .trips
        .loops
        .iter()
        .find(|l| l.depth == 0)
        .map(|l| l.iterations as f64)
        .unwrap_or(1.0);
    let pipeline_iters = analysis
        .trips
        .loops
        .iter()
        .filter(|l| l.static_trip.is_none())
        .map(|l| l.iterations as f64)
        .fold(outer_iters, f64::max);

    // Fig. 3's flat-pipeline criterion: every dependence-carrying inner
    // loop is fully unrollable (vacuously true when none remain).
    let inner_deps = analysis.deps.inner_loops_with_deps();
    let flat_pipeline = inner_deps.is_empty()
        || analysis
            .deps
            .inner_deps_fully_unrollable(ctx.params.full_unroll_limit);

    let base = KernelWork {
        flops_fma: total_flops * (1.0 - sfu_frac),
        flops_sfu: total_flops * sfu_frac,
        cycles_1t: analysis.kernel_cycles as f64,
        bytes_mem: analysis.kernel_bytes() as f64 * byte_scale,
        gather_fraction: gather,
        bytes_in: analysis.data.total_bytes_in as f64 * byte_scale,
        bytes_out: analysis.data.total_bytes_out as f64 * byte_scale,
        threads: outer_iters.max(1.0),
        pipeline_iters: pipeline_iters.max(1.0),
        fp64,
        regs_per_thread: regs,
        flat_pipeline,
        ops,
    };
    let s = ctx.params.scale;
    Ok(base.scaled(s.compute, s.data, s.threads))
}

/// The single-thread reference time at the evaluation workload.
pub fn reference_time(ctx: &FlowContext) -> Result<f64, FlowError> {
    let w = kernel_work(ctx)?;
    let cpu = psa_platform::CpuModel::new(psa_platform::epyc_7543());
    Ok(cpu.time_single_thread(&w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{FlowContext, PsaParams};
    use crate::ScaleFactors;
    use psa_artisan::Ast;

    const APP: &str = "void knl(double* a, double* b, int n) {\
        for (int i = 0; i < n; i++) { b[i] = exp(a[i]) * 2.0; }\
      }\
      int main() { int n = 32; double* a = alloc_double(n); double* b = alloc_double(n);\
        fill_random(a, n, 5); knl(a, b, n); return 0; }";

    fn ctx() -> FlowContext {
        let ast = Ast::from_source(APP, "t").unwrap();
        let analysis = psa_analyses::analyze_kernel(&ast.module, "knl").unwrap();
        let mut c = FlowContext::new(ast, PsaParams::default());
        c.kernel = Some("knl".into());
        c.analysis = Some(analysis);
        c
    }

    #[test]
    fn work_reflects_measurements() {
        let c = ctx();
        let w = kernel_work(&c).unwrap();
        assert!(w.flops() > 0.0);
        assert!(w.cycles_1t > 0.0);
        assert_eq!(w.threads, 32.0);
        assert_eq!(w.pipeline_iters, 32.0);
        assert!(w.fp64);
        assert!(w.flat_pipeline, "elementwise kernel has no inner dep loops");
        assert!(
            w.sfu_fraction() > 0.3,
            "exp-heavy kernel: {}",
            w.sfu_fraction()
        );
    }

    #[test]
    fn scaling_applies() {
        let mut c = ctx();
        c.params.scale = ScaleFactors {
            compute: 4.0,
            data: 2.0,
            threads: 2.0,
        };
        let w1 = {
            let mut c0 = c.clone();
            c0.params.scale = ScaleFactors::default();
            kernel_work(&c0).unwrap()
        };
        let w4 = kernel_work(&c).unwrap();
        assert!((w4.flops() / w1.flops() - 4.0).abs() < 1e-9);
        assert!((w4.threads / w1.threads - 2.0).abs() < 1e-9);
        assert!(
            (reference_time(&c).unwrap()
                / reference_time(&{
                    let mut c0 = c.clone();
                    c0.params.scale = ScaleFactors::default();
                    c0
                })
                .unwrap()
                - 4.0)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn sp_conversion_halves_bytes_and_clears_fp64() {
        let mut c = ctx();
        let before = kernel_work(&c).unwrap();
        psa_artisan::transforms::precision::employ_sp_literals(&mut c.ast.module, "knl").unwrap();
        let after = kernel_work(&c).unwrap();
        assert!(before.fp64 && !after.fp64);
        assert!((before.bytes_mem / after.bytes_mem - 2.0).abs() < 1e-9);
        assert!((before.bytes_in / after.bytes_in - 2.0).abs() < 1e-9);
    }
}
