//! Property tests: the interpreter agrees with a Rust reference evaluator
//! on randomly generated programs, is deterministic, and its loop
//! accounting matches the static trip-count algebra.

use proptest::prelude::*;
use psa_interp::{Engine, Interpreter, Program, RunConfig, RuntimeResult, Value, Vm};
use psa_minicpp::parse_module;
use std::sync::Arc;

/// One engine's complete observable surface, stringified for comparison:
/// result, every profile counter, and the full memory image on success, or
/// the exact error (variant, message, span) on failure.
fn observables(run: RuntimeResult<(Value, psa_interp::Profile, psa_interp::Memory)>) -> String {
    match run {
        Ok((result, profile, memory)) => format!("{result:?} | {profile:?} | {memory:?}"),
        Err(e) => format!("err: {e:?}"),
    }
}

fn run_tree(m: &psa_minicpp::Module, config: RunConfig) -> String {
    let mut i = Interpreter::new(m, config);
    let r = i.run_main();
    let (profile, memory) = i.into_parts();
    observables(r.map(|v| (v, profile, memory)))
}

fn run_vm(
    m: &psa_minicpp::Module,
    config: RunConfig,
    compile: fn(&psa_minicpp::Module, &RunConfig) -> Program,
) -> String {
    let program = compile(m, &config);
    let mut vm = Vm::with_program(Arc::new(program), config);
    let r = vm.run_main();
    let (profile, memory) = vm.into_parts();
    observables(r.map(|v| (v, profile, memory)))
}

/// Tree walker, unfused VM, fused-but-unspecialised VM, and the fully
/// specialised VM (typed opcode variants + deferred loop charging) must
/// agree on the complete observable surface — including failures, where
/// the error variant, message, and span must match exactly.
fn assert_four_way(src: &str, config: &RunConfig) {
    let m = parse_module(src, "p").expect("parses");
    let vm_cfg = RunConfig {
        engine: Engine::Vm,
        ..config.clone()
    };
    let tree = run_tree(
        &m,
        RunConfig {
            engine: Engine::Tree,
            ..config.clone()
        },
    );
    let unfused = run_vm(&m, vm_cfg.clone(), Program::compile_unfused);
    let unspec = run_vm(&m, vm_cfg.clone(), Program::compile_unspecialized);
    let full = run_vm(&m, vm_cfg, Program::compile);
    assert_eq!(tree, unfused, "tree vs unfused VM diverged");
    assert_eq!(tree, unspec, "tree vs fused-unspecialised VM diverged");
    assert_eq!(tree, full, "tree vs specialised VM diverged");
}

fn run_int(src: &str) -> i64 {
    let m = parse_module(src, "p").expect("parses");
    let mut interp = Interpreter::new(&m, RunConfig::default());
    match interp.run_main().expect("runs") {
        Value::Int(v) => v,
        other => panic!("expected int, got {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Integer arithmetic matches Rust's wrapping semantics.
    #[test]
    fn integer_arithmetic_matches_rust(a in -10_000i64..10_000, b in -10_000i64..10_000, c in 1i64..100) {
        let src = format!(
            "int main() {{ int a = {a}; int b = {b}; int c = {c}; return a * b + a / c - b % c; }}"
        );
        let expected = a.wrapping_mul(b).wrapping_add(a.wrapping_div(c)).wrapping_sub(b.wrapping_rem(c));
        prop_assert_eq!(run_int(&src), expected);
    }

    /// Ascending loops execute exactly the statically predicted number of
    /// iterations.
    #[test]
    fn observed_trips_match_static_algebra(init in -40i64..40, bound in -40i64..40, step in 1i64..7) {
        let src = format!(
            "int main() {{ int count = 0; for (int i = {init}; i < {bound}; i += {step}) {{ count++; }} return count; }}"
        );
        let m = parse_module(&src, "p").unwrap();
        // Pull the static prediction straight off the AST.
        let f = m.function("main").unwrap();
        let static_trips = f.body.stmts.iter().find_map(|s| match &s.kind {
            psa_minicpp::StmtKind::For(l) => l.static_trip_count(),
            _ => None,
        }).expect("literal bounds");
        prop_assert_eq!(run_int(&src) as u64, static_trips);
    }

    /// Descending loops too.
    #[test]
    fn descending_trips_match(init in -40i64..40, bound in -40i64..40, step in 1i64..7) {
        let src = format!(
            "int main() {{ int count = 0; for (int i = {init}; i > {bound}; i -= {step}) {{ count++; }} return count; }}"
        );
        let m = parse_module(&src, "p").unwrap();
        let f = m.function("main").unwrap();
        let static_trips = f.body.stmts.iter().find_map(|s| match &s.kind {
            psa_minicpp::StmtKind::For(l) => l.static_trip_count(),
            _ => None,
        }).expect("literal bounds");
        prop_assert_eq!(run_int(&src) as u64, static_trips);
    }

    /// Double-precision arithmetic is bit-identical to Rust's f64.
    #[test]
    fn double_arithmetic_matches_rust(a in -100.0f64..100.0, b in 0.5f64..100.0) {
        // Use exactly representable operations and compare via scaled ints.
        let src = format!(
            "int main() {{ double a = {a:?}; double b = {b:?}; double r = a * b + a / b - b; return (int)(r * 1024.0); }}"
        );
        let expected = ((a * b + a / b - b) * 1024.0) as i64;
        prop_assert_eq!(run_int(&src), expected);
    }

    /// Determinism: two runs of the same randomized program agree on both
    /// the result and every profile counter.
    #[test]
    fn runs_are_bit_deterministic(n in 1usize..64, seed in 0i64..1_000_000) {
        let src = format!(
            "int main() {{\
               double* a = alloc_double({n});\
               fill_random(a, {n}, {seed});\
               double s = 0.0;\
               for (int i = 0; i < {n}; i++) {{ s += sqrt(a[i]) * 3.0; }}\
               return (int)(s * 4096.0);\
             }}"
        );
        let m = parse_module(&src, "p").unwrap();
        let mut i1 = Interpreter::new(&m, RunConfig::default());
        let r1 = i1.run_main().unwrap();
        let mut i2 = Interpreter::new(&m, RunConfig::default());
        let r2 = i2.run_main().unwrap();
        prop_assert_eq!(r1, r2);
        prop_assert_eq!(i1.profile().total_cycles, i2.profile().total_cycles);
        prop_assert_eq!(i1.profile().flops, i2.profile().flops);
        prop_assert_eq!(i1.profile().bytes_loaded, i2.profile().bytes_loaded);
    }

    /// The cycle counter is monotone in the workload size, and FLOP counts
    /// scale exactly linearly with the trip count.
    #[test]
    fn profile_scales_with_work(n in 2usize..64) {
        let src_for = |n: usize| format!(
            "int main() {{ double* a = alloc_double({n}); double s = 0.0;\
             for (int i = 0; i < {n}; i++) {{ s += (double)i * 2.0; }} sink(s); return 0; }}"
        );
        let run = |src: &str| {
            let m = parse_module(src, "p").unwrap();
            let mut i = Interpreter::new(&m, RunConfig::default());
            i.run_main().unwrap();
            (i.profile().total_cycles, i.profile().flops)
        };
        let (c1, f1) = run(&src_for(n));
        let (c2, f2) = run(&src_for(n * 2));
        prop_assert!(c2 > c1);
        // Two FLOPs per iteration: mul + add.
        prop_assert_eq!(f1, 2 * n as u64);
        prop_assert_eq!(f2, 4 * n as u64);
    }

    /// Kernel-scoped accounting equals whole-program accounting when the
    /// whole program is the kernel call.
    #[test]
    fn kernel_scope_is_consistent(n in 1usize..48) {
        let src = format!(
            "void knl(double* a, int n) {{ for (int i = 0; i < n; i++) {{ a[i] = a[i] * 2.0 + 1.0; }} }}\
             int main() {{ double* a = alloc_double({n}); knl(a, {n}); return 0; }}"
        );
        let m = parse_module(&src, "p").unwrap();
        let config = RunConfig { watch_function: Some("knl".into()), ..Default::default() };
        let mut interp = Interpreter::new(&m, config);
        interp.run_main().unwrap();
        let p = interp.profile();
        prop_assert_eq!(p.kernel_flops, 2 * n as u64);
        prop_assert_eq!(p.kernel_bytes_loaded, 8 * n as u64);
        prop_assert_eq!(p.kernel_bytes_stored, 8 * n as u64);
        prop_assert!(p.kernel_cycles <= p.total_cycles);
    }

    /// Differential: the bytecode VM and the tree walker agree on the
    /// result and the complete profile of randomized programs mixing
    /// shadowed locals, nested loops, function calls, and array traffic.
    #[test]
    fn vm_matches_tree_walker(
        n in 1usize..48,
        seed in 0i64..1_000_000,
        bias in -50i64..50,
        step in 1i64..5,
    ) {
        let src = format!(
            "int scale(int x) {{ int x2 = x * 2; {{ int x = x2 + {bias}; x2 = x; }} return x2; }}\
             int main() {{\
               double* a = alloc_double({n});\
               fill_random(a, {n}, {seed});\
               double s = 0.0;\
               int acc = 0;\
               for (int i = 0; i < {n}; i += {step}) {{\
                 double t = a[i] * 0.5;\
                 s += sqrt(t + 1.0);\
                 acc += scale(i);\
                 int j = 0;\
                 while (j < 3) {{ j++; if (j == 2 && i % 2 == 0) {{ break; }} }}\
                 acc += j;\
               }}\
               a[0] = s;\
               return acc + (int)(s * 512.0);\
             }}"
        );
        let m = parse_module(&src, "p").unwrap();
        let run = |engine| {
            psa_interp::run_main_profiled(&m, RunConfig { engine, ..Default::default() }).unwrap()
        };
        let tree = run(Engine::Tree);
        let vm = run(Engine::Vm);
        prop_assert_eq!(format!("{:?}", tree.result), format!("{:?}", vm.result));
        prop_assert_eq!(&tree.profile, &vm.profile);
        prop_assert_eq!(format!("{:?}", tree.memory), format!("{:?}", vm.memory));
    }

    /// Four-way differential over deep programs: rushlarsen-shaped gate
    /// chains (immediate-heavy float expressions feeding `exp`, the exact
    /// shapes the peephole fuses into `BinImm2`/`MathCallImm` and the
    /// specialiser then types) plus integer address arithmetic,
    /// casts, nested conditionals, and cross-function calls. All four
    /// execution paths must produce identical results, profiles, memory.
    #[test]
    fn four_way_deep_programs(
        n in 2usize..24,
        gates in 1usize..4,
        seed in 0i64..1_000_000,
        c1 in 0.01f64..0.2,
        c2 in 0.01f64..0.1,
    ) {
        let mut body = String::new();
        for k in 0..gates {
            let ck = c1 + k as f64 * 0.013;
            body.push_str(&format!(
                "double alpha{k} = {ck:?} * exp({c2:?} * v) / (1.0 + exp({c2:?} * v - 1.0));\
                 double beta{k} = 0.02 * exp(v * -{ck:?});\
                 double rate{k} = alpha{k} + beta{k};\
                 double e{k} = exp(0.0 - 0.01 * rate{k});\
                 g[i * {gates} + {k}] = alpha{k} / rate{k} + (g[i * {gates} + {k}] - alpha{k} / rate{k}) * e{k};\
                 "
            ));
        }
        let src = format!(
            "double mix(double a, double b) {{ if (a < b) {{ return b - a; }} return a * 0.5 + b; }}\
             int main() {{\
               int n = {n};\
               double* vs = alloc_double(n);\
               double* g = alloc_double(n * {gates});\
               fill_random(vs, n, {seed});\
               fill_random(g, n * {gates}, {seed} + 1);\
               double acc = 0.0;\
               for (int i = 0; i < n; i++) {{\
                 double v = vs[i];\
                 {body}\
                 acc += mix(v, g[i * {gates}]);\
                 vs[i] = acc;\
               }}\
               sink(acc);\
               return (int)(acc * 64.0);\
             }}"
        );
        assert_four_way(&src, &RunConfig::default());
    }

    /// Four-way differential on runtime-error paths: division by zero,
    /// out-of-bounds stores, and cycle-budget exhaustion mid-loop must
    /// fail identically (same variant, message, and span) on all four
    /// execution paths, with the failure landing at the same iteration.
    #[test]
    fn four_way_error_paths(
        n in 2usize..16,
        seed in 0i64..1_000_000,
        fail_kind in 0usize..3,
        trip in 1usize..40,
    ) {
        // `trip` picks the iteration where the poison triggers; the budget
        // case instead truncates the virtual clock to land mid-run.
        let poison = match fail_kind {
            0 => format!("if (i == {trip}) {{ int z = i - i; s += (double)(7 / z); }}"),
            1 => format!("if (i == {trip}) {{ a[n + i] = s; }}"),
            _ => String::new(),
        };
        let src = format!(
            "int main() {{\
               int n = {n};\
               double* a = alloc_double(n);\
               fill_random(a, n, {seed});\
               double s = 0.0;\
               for (int i = 0; i < 64; i++) {{\
                 s += sqrt(a[i % n] * a[i % n]) + exp(0.001 * (double)i);\
                 {poison}\
                 a[i % n] = s * 0.25;\
               }}\
               sink(s);\
               return 0;\
             }}"
        );
        let config = if fail_kind == 2 {
            // Exhaust the budget partway through the loop: the virtual
            // clock is engine-invariant, so all four paths must stop at
            // the same instant.
            RunConfig { max_cycles: 40 + 11 * trip as u64, ..Default::default() }
        } else {
            RunConfig::default()
        };
        assert_four_way(&src, &config);
    }

    /// Four-way differential over coercion-heavy mixed int/float programs:
    /// doubles fed from int expressions, ints fed from float casts, and
    /// both `double*` and `float*` traffic — the exact shapes the type
    /// specialiser gates on — with optional division-by-zero, index-OOB,
    /// and cycle-budget poisons. The poison-free and budget variants keep
    /// the loop body straight-line, so the budget exhaustion lands inside
    /// a deferred-charge loop and must still fire at the exact cycle.
    #[test]
    fn four_way_mixed_coercion_programs(
        n in 2usize..16,
        seed in 0i64..1_000_000,
        fail_kind in 0usize..4,
        trip in 1usize..32,
        scale in 1i64..5,
    ) {
        let poison = match fail_kind {
            0 => format!("if (i == {trip}) {{ int z = i - i; s += (double)(7 / z); }}"),
            1 => format!("if (i == {trip}) {{ a[n + i] = s; }}"),
            _ => String::new(),
        };
        let src = format!(
            "int main() {{\
               int n = {n};\
               double* a = alloc_double(n);\
               float* b = alloc_float(n);\
               fill_random(a, n, {seed});\
               fill_random(b, n, {seed} + 7);\
               double s = 0.0;\
               int k = {scale};\
               for (int i = 0; i < 48; i++) {{\
                 double u = a[i % n] * 0.5 + (double)(i * k);\
                 s += u / (1.0 + (double)b[i % n]);\
                 s = s + exp(0.001 * u);\
                 {poison}\
                 k = k + ((int)u) % 7;\
                 a[i % n] = s * 0.125;\
               }}\
               sink(s);\
               return k + (int)(s * 32.0);\
             }}"
        );
        let config = if fail_kind == 2 {
            RunConfig { max_cycles: 60 + 13 * trip as u64, ..Default::default() }
        } else {
            RunConfig::default()
        };
        assert_four_way(&src, &config);
    }
}
