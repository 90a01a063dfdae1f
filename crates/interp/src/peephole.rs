//! Superinstruction peephole pass.
//!
//! Runs after [`crate::compile`]'s flat register lowering and fuses hot
//! adjacent instruction pairs into single dispatches:
//!
//! | pattern                           | superinstruction                     |
//! |-----------------------------------|--------------------------------------|
//! | compare + `JumpIfFalse`           | [`Insn::CmpBranch`] / `CmpImmBranch` |
//! | compare + `WhileTest`             | [`Insn::CmpWhile`] / `CmpImmWhile`   |
//! | binop + `AssignLocal`             | [`Insn::BinAssign`] / `BinImmAssign` |
//! | producer + declaration `Coerce`   | [`Insn::BinCoerce`] / `IndexCoerce`… |
//! | immediate binop + immediate binop | [`Insn::BinImm2`]                    |
//! | immediate binop + unary math call | [`Insn::MathCallImm`]                |
//! | `ForStep` + back-edge `Jump`      | [`Insn::ForStepJump`]                |
//!
//! An indexed load feeding a binop is deliberately left unfused: type
//! inference turns the pair into `F64Index` + `F64Bin*`, which measured
//! faster than a generic fused form (EXPERIMENTS.md, VM fusion ablation).
//!
//! Fusion is observably invisible. Each superinstruction performs exactly
//! the steps of its pair in the original order; the only collapsed step is
//! a cycle charge: the compare+branch forms issue the comparison charge and
//! the branch charge as **one** combined `charge()`. That is exact because
//! `charge(c1); charge(c2)` fails iff `total + c1 + c2 > max` — the same
//! condition as `charge(c1 + c2)` — the error value carries only the
//! budget limit, and a failed run's profile is not an observable (PR 3
//! established this for the tree-walker's own combined charges).
//!
//! Two safety conditions gate every rule:
//!
//! * **no jump target between the pair** — if any branch can land on the
//!   second instruction, fusing would skip the first on that path;
//! * **the forwarded register is a temporary** (`>= first_temp`) — the
//!   pass elides the intermediate register write, which is only invisible
//!   for expression temporaries (dead after their single consumer, and
//!   always rewritten before any later read); locals stay materialised.

use crate::compile::{CallSite, DeferredLoop, Insn};
use crate::profile::CostModel;
use crate::typeinfer;
use crate::value::Value;
use psa_minicpp::ast::{BinOp, Type};

/// Fuse adjacent pairs in `code`. `first_temp` is the first
/// expression-temporary register — registers below it are named locals and
/// never have their writes elided.
///
/// One left-to-right pass is a fixpoint: no rule takes a superinstruction
/// as either half, so a second pass over the output would fuse nothing.
pub(crate) fn fuse(code: Vec<Insn>, first_temp: u16) -> Vec<Insn> {
    // Every pc that any control transfer can land on.
    let mut is_target = vec![false; code.len() + 1];
    for insn in &code {
        match insn {
            Insn::Jump(t) => is_target[*t as usize] = true,
            Insn::JumpIfFalse { target, .. }
            | Insn::AndShort { target, .. }
            | Insn::OrShort { target, .. }
            | Insn::CmpBranch { target, .. }
            | Insn::CmpImmBranch { target, .. }
            | Insn::ForStepJump { target, .. } => is_target[*target as usize] = true,
            Insn::ForTest { exit, .. }
            | Insn::WhileTest { exit, .. }
            | Insn::CmpWhile { exit, .. }
            | Insn::CmpImmWhile { exit, .. } => is_target[*exit as usize] = true,
            _ => {}
        }
    }

    let mut out: Vec<Insn> = Vec::with_capacity(code.len());
    // old pc -> new pc, for retargeting jumps afterwards.
    let mut remap = vec![0u32; code.len() + 1];
    let mut i = 0;
    while i < code.len() {
        remap[i] = out.len() as u32;
        let fused = if i + 1 < code.len() && !is_target[i + 1] {
            fuse_pair(&code[i], &code[i + 1], first_temp)
        } else {
            None
        };
        match fused {
            Some(insn) => {
                remap[i + 1] = out.len() as u32;
                out.push(insn);
                i += 2;
            }
            None => {
                out.push(code[i].clone());
                i += 1;
            }
        }
    }
    remap[code.len()] = out.len() as u32;

    for insn in &mut out {
        match insn {
            Insn::Jump(t) => *t = remap[*t as usize],
            Insn::JumpIfFalse { target, .. }
            | Insn::AndShort { target, .. }
            | Insn::OrShort { target, .. }
            | Insn::CmpBranch { target, .. }
            | Insn::CmpImmBranch { target, .. }
            | Insn::ForStepJump { target, .. } => *target = remap[*target as usize],
            Insn::ForTest { exit, .. }
            | Insn::WhileTest { exit, .. }
            | Insn::CmpWhile { exit, .. }
            | Insn::CmpImmWhile { exit, .. } => *exit = remap[*exit as usize],
            _ => {}
        }
    }
    out
}

/// The full optimisation pipeline: pair fusion, then type-inference-driven
/// specialisation ([`crate::typeinfer`]), then loop-charge deferral.
/// Specialisation runs after fusion so the fused forms get typed variants.
pub(crate) fn optimize(
    code: Vec<Insn>,
    first_temp: u16,
    param_tys: &[Type],
    nregs: usize,
    call_sites: &[CallSite],
    cm: &CostModel,
) -> Vec<Insn> {
    let fused = fuse(code, first_temp);
    let call_rets = typeinfer::call_ret_types(call_sites);
    let specialized = typeinfer::specialize(fused, param_tys, nregs, &call_rets);
    defer_loops(specialized, cm)
}

/// Worst-case virtual-cycle charge one execution of `insn` can make, or
/// `None` when the instruction is not eligible for a deferred loop body
/// (control flow, calls, allocation, globals, loop bookkeeping — anything
/// that is not a straight-line `step_arith` form).
///
/// The bound must dominate every *runtime* path of the instruction: binary
/// ops pick their charge from the operand tags (`int_op`/`int_mul`/
/// `int_div`/`fp_op`/`fp_div`), so their bound is the max over all of
/// those; baked `cost` fields are exact.
fn worst_charge(insn: &Insn, cm: &CostModel) -> Option<u64> {
    let wmax = cm
        .int_op
        .max(cm.int_mul)
        .max(cm.int_div)
        .max(cm.fp_op)
        .max(cm.fp_div);
    let fpmax = cm.fp_op.max(cm.fp_div);
    match insn {
        Insn::Const { .. } | Insn::Copy { .. } | Insn::AssignLocal { .. } | Insn::Coerce { .. } => {
            Some(0)
        }
        Insn::Cast { cost, .. }
        | Insn::ToBool { cost, .. }
        | Insn::Index { cost, .. }
        | Insn::IndexAddr { cost, .. }
        | Insn::LoadElem { cost, .. }
        | Insn::StoreElem { cost, .. }
        | Insn::IndexCoerce { cost, .. }
        | Insn::F64Index { cost, .. }
        | Insn::F64Store { cost, .. } => Some(*cost),
        Insn::Un { .. } => Some(cm.int_op.max(cm.fp_op)),
        Insn::Bin { .. }
        | Insn::BinImm { .. }
        | Insn::BinImmRev { .. }
        | Insn::BinAssign { .. }
        | Insn::BinImmAssign { .. }
        | Insn::BinCoerce { .. }
        | Insn::BinImmCoerce { .. } => Some(wmax),
        Insn::F64Bin { .. }
        | Insn::F64BinImm { .. }
        | Insn::F64BinAssign { .. }
        | Insn::F64BinImmAssign { .. } => Some(fpmax),
        Insn::MathCall { cycles, .. } | Insn::MathCallCoerce { cycles, .. } => Some(*cycles),
        Insn::MathCallImm { cycles, .. } => Some(u64::from(*cycles).saturating_add(wmax)),
        Insn::F64MathCallImm { cycles, .. } => Some(u64::from(*cycles).saturating_add(fpmax)),
        Insn::BinImm2 { .. } => Some(wmax.saturating_add(wmax)),
        _ => None,
    }
}

/// Collapse eligible counted loops into [`Insn::DeferredFor`].
///
/// A loop is eligible when its shape is exactly
/// `ForTest .. straight-line body .. ForStepJump` (pinned bound, matching
/// induction slot, test exiting to just past the back edge), every body
/// instruction has a [`worst_charge`] bound, and **no control transfer
/// from outside the range lands anywhere inside it** (breaks and
/// continues compile to interior `Jump`s, which already fail the
/// straight-line test). The replacement executes the whole loop as one
/// dispatch; its normal exit falls through to the instruction after the
/// old back edge — the `ForTest`'s exit target, i.e. the loop's
/// `LoopExit`.
fn defer_loops(code: Vec<Insn>, cm: &CostModel) -> Vec<Insn> {
    let n = code.len();
    // Every control edge (source pc, destination pc).
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for (pc, insn) in code.iter().enumerate() {
        match insn {
            Insn::Jump(t) => edges.push((pc, *t as usize)),
            Insn::JumpIfFalse { target, .. }
            | Insn::AndShort { target, .. }
            | Insn::OrShort { target, .. }
            | Insn::CmpBranch { target, .. }
            | Insn::CmpImmBranch { target, .. }
            | Insn::ForStepJump { target, .. } => edges.push((pc, *target as usize)),
            Insn::ForTest { exit, .. }
            | Insn::WhileTest { exit, .. }
            | Insn::CmpWhile { exit, .. }
            | Insn::CmpImmWhile { exit, .. } => edges.push((pc, *exit as usize)),
            _ => {}
        }
    }

    // collapse[t] = Some((s, meta)): the range [t..=s] becomes one
    // DeferredFor built from `meta`.
    let mut collapse: Vec<Option<(usize, DeferredLoop)>> = Vec::new();
    collapse.resize_with(n, || None);
    for s in 0..n {
        let Insn::ForStepJump {
            slot,
            step,
            negative,
            cost: step_cost,
            span: step_span,
            target,
        } = &code[s]
        else {
            continue;
        };
        let t = *target as usize;
        if t >= s {
            continue;
        }
        let Insn::ForTest {
            slot: test_slot,
            bound,
            cond_op,
            exit,
            cost: test_cost,
            span: test_span,
        } = &code[t]
        else {
            continue;
        };
        if test_slot != slot || *exit as usize != s + 1 {
            continue;
        }
        let body = &code[t + 1..s];
        let Some(body_worst) = body
            .iter()
            .map(|i| worst_charge(i, cm))
            .try_fold(0u64, |a, w| w.map(|w| a.saturating_add(w)))
        else {
            continue;
        };
        if edges
            .iter()
            .any(|&(src, dst)| (t..=s).contains(&dst) && !(t..=s).contains(&src))
        {
            continue;
        }
        let nspec = body
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Insn::F64Bin { .. }
                        | Insn::F64BinImm { .. }
                        | Insn::F64BinAssign { .. }
                        | Insn::F64BinImmAssign { .. }
                        | Insn::F64Index { .. }
                        | Insn::F64Store { .. }
                        | Insn::F64MathCallImm { .. }
                )
            })
            .count() as u32;
        collapse[t] = Some((
            s,
            DeferredLoop {
                slot: *slot,
                bound: *bound,
                cond_op: *cond_op,
                step: *step,
                negative: *negative,
                test_cost: *test_cost,
                step_cost: *step_cost,
                iter_max: test_cost
                    .saturating_add(body_worst)
                    .saturating_add(*step_cost),
                nspec,
                body: body.to_vec().into_boxed_slice(),
                test_span: *test_span,
                step_span: *step_span,
            },
        ));
    }

    let mut out: Vec<Insn> = Vec::with_capacity(n);
    let mut remap = vec![0u32; n + 1];
    let mut i = 0;
    while i < n {
        remap[i] = out.len() as u32;
        if let Some((s, d)) = collapse[i].take() {
            for r in &mut remap[i..=s] {
                *r = out.len() as u32;
            }
            out.push(Insn::DeferredFor(Box::new(d)));
            i = s + 1;
            continue;
        }
        out.push(code[i].clone());
        i += 1;
    }
    remap[n] = out.len() as u32;

    for insn in &mut out {
        match insn {
            Insn::Jump(t) => *t = remap[*t as usize],
            Insn::JumpIfFalse { target, .. }
            | Insn::AndShort { target, .. }
            | Insn::OrShort { target, .. }
            | Insn::CmpBranch { target, .. }
            | Insn::CmpImmBranch { target, .. }
            | Insn::ForStepJump { target, .. } => *target = remap[*target as usize],
            Insn::ForTest { exit, .. }
            | Insn::WhileTest { exit, .. }
            | Insn::CmpWhile { exit, .. }
            | Insn::CmpImmWhile { exit, .. } => *exit = remap[*exit as usize],
            _ => {}
        }
    }
    out
}

/// Try to fuse one adjacent pair (the second is known not to be a jump
/// target).
fn fuse_pair(a: &Insn, b: &Insn, first_temp: u16) -> Option<Insn> {
    match (a, b) {
        // compare + conditional branch
        (
            Insn::Bin {
                op,
                dst,
                l,
                r,
                span,
            },
            Insn::JumpIfFalse {
                src,
                target,
                cost,
                span: br_span,
            },
        ) if op.is_comparison() && src == dst && *dst >= first_temp => Some(Insn::CmpBranch {
            op: *op,
            l: *l,
            r: *r,
            target: *target,
            branch_cost: *cost,
            cmp_span: *span,
            br_span: *br_span,
        }),
        (
            Insn::BinImm {
                op,
                dst,
                l,
                imm,
                span,
            },
            Insn::JumpIfFalse {
                src,
                target,
                cost,
                span: br_span,
            },
        ) if op.is_comparison() && src == dst && *dst >= first_temp => Some(Insn::CmpImmBranch {
            op: *op,
            l: *l,
            imm: *imm,
            target: *target,
            branch_cost: *cost,
            cmp_span: *span,
            br_span: *br_span,
        }),
        // compare + while test
        (
            Insn::Bin {
                op,
                dst,
                l,
                r,
                span,
            },
            Insn::WhileTest {
                src,
                exit,
                cost,
                span: br_span,
            },
        ) if op.is_comparison() && src == dst && *dst >= first_temp => Some(Insn::CmpWhile {
            op: *op,
            l: *l,
            r: *r,
            exit: *exit,
            branch_cost: *cost,
            cmp_span: *span,
            br_span: *br_span,
        }),
        (
            Insn::BinImm {
                op,
                dst,
                l,
                imm,
                span,
            },
            Insn::WhileTest {
                src,
                exit,
                cost,
                span: br_span,
            },
        ) if op.is_comparison() && src == dst && *dst >= first_temp => Some(Insn::CmpImmWhile {
            op: *op,
            l: *l,
            imm: *imm,
            exit: *exit,
            branch_cost: *cost,
            cmp_span: *span,
            br_span: *br_span,
        }),
        // binop + local assignment (simple and compound lowerings)
        (
            Insn::Bin {
                op,
                dst,
                l,
                r,
                span,
            },
            Insn::AssignLocal {
                slot,
                src,
                span: asg_span,
            },
        ) if src == dst && *dst >= first_temp => Some(Insn::BinAssign {
            op: *op,
            slot: *slot,
            l: *l,
            r: *r,
            span: *span,
            asg_span: *asg_span,
        }),
        (
            Insn::BinImm {
                op,
                dst,
                l,
                imm,
                span,
            },
            Insn::AssignLocal {
                slot,
                src,
                span: asg_span,
            },
        ) if src == dst && *dst >= first_temp => Some(Insn::BinImmAssign {
            op: *op,
            slot: *slot,
            l: *l,
            imm: *imm,
            span: *span,
            asg_span: *asg_span,
        }),
        // producer + declaration coercion. `Coerce` never charges, so the
        // fusion removes only the dispatch and the dead temporary write;
        // the coercion (and its possible type error) happens after the
        // producer's charges and errors, in the original order.
        (
            Insn::Bin {
                op,
                dst,
                l,
                r,
                span,
            },
            Insn::Coerce {
                dst: c_dst,
                src,
                ty,
                span: co_span,
            },
        ) if src == dst && *dst >= first_temp => Some(Insn::BinCoerce {
            op: *op,
            dst: *c_dst,
            l: *l,
            r: *r,
            ty: *ty,
            span: *span,
            co_span: *co_span,
        }),
        (
            Insn::BinImm {
                op,
                dst,
                l,
                imm,
                span,
            },
            Insn::Coerce {
                dst: c_dst,
                src,
                ty,
                span: co_span,
            },
        ) if src == dst && *dst >= first_temp => Some(Insn::BinImmCoerce {
            op: *op,
            dst: *c_dst,
            l: *l,
            imm: *imm,
            ty: *ty,
            span: *span,
            co_span: *co_span,
        }),
        (
            Insn::Index {
                dst,
                base,
                idx,
                cost,
                base_span,
                index_span,
                span,
            },
            Insn::Coerce {
                dst: c_dst,
                src,
                ty,
                span: co_span,
            },
        ) if src == dst && *dst >= first_temp => Some(Insn::IndexCoerce {
            dst: *c_dst,
            base: *base,
            idx: *idx,
            cost: *cost,
            ty: *ty,
            base_span: *base_span,
            index_span: *index_span,
            span: *span,
            co_span: *co_span,
        }),
        (
            Insn::MathCall {
                dst,
                a,
                b,
                f,
                cycles,
                flops,
                name,
                span,
            },
            Insn::Coerce {
                dst: c_dst,
                src,
                ty,
                span: co_span,
            },
        ) if src == dst && *dst >= first_temp => Some(Insn::MathCallCoerce {
            dst: *c_dst,
            a: *a,
            b: *b,
            f: *f,
            cycles: *cycles,
            flops: *flops,
            name: name.clone(),
            ty: *ty,
            span: *span,
            co_span: *co_span,
        }),
        // immediate-binop chain: the second binop consumes the first's
        // single-use temporary (`i * N + k` address forms, `c * v - 1.0`
        // scalings). Both `apply_binary` calls still run in order, so
        // charges and error behaviour are exactly the unfused pair's; only
        // the dead temporary write disappears.
        (
            Insn::BinImm {
                op: op1,
                dst,
                l,
                imm: imm1,
                span: span1,
            },
            Insn::BinImm {
                op: op2,
                dst: dst2,
                l: l2,
                imm: imm2,
                span: span2,
            },
        ) if l2 == dst && *dst >= first_temp => Some(Insn::BinImm2 {
            op1: *op1,
            op2: *op2,
            dst: *dst2,
            l: *l,
            imm1: *imm1,
            imm2: *imm2,
            span1: *span1,
            span2: *span2,
        }),
        // immediate binop + unary math intrinsic consuming its temporary
        // (`exp(c * v)` and friends). Gated on a floating immediate and an
        // arithmetic op so the binop result is always numeric: the
        // intrinsic's non-numeric-argument error — the only consumer of
        // the call's source-name string — cannot fire, and the fused form
        // need not carry the name.
        (
            Insn::BinImm {
                op,
                dst,
                l,
                imm,
                span,
            },
            Insn::MathCall {
                dst: m_dst,
                a,
                f,
                cycles,
                flops,
                ..
            },
        ) if a == dst
            && *dst >= first_temp
            && f.op.arity() == 1
            && matches!(imm, Value::Double(_) | Value::Float(_))
            && matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div)
            && u32::try_from(*cycles).is_ok()
            && u32::try_from(*flops).is_ok() =>
        {
            Some(Insn::MathCallImm {
                op: *op,
                rev: false,
                dst: *m_dst,
                l: *l,
                imm: *imm,
                f: *f,
                cycles: *cycles as u32,
                flops: *flops as u32,
                bin_span: *span,
            })
        }
        // reversed-immediate binop + unary math intrinsic (`exp(0.0 - x)`)
        (
            Insn::BinImmRev {
                op,
                dst,
                imm,
                r,
                span,
            },
            Insn::MathCall {
                dst: m_dst,
                a,
                f,
                cycles,
                flops,
                ..
            },
        ) if a == dst
            && *dst >= first_temp
            && f.op.arity() == 1
            && matches!(imm, Value::Double(_) | Value::Float(_))
            && matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div)
            && u32::try_from(*cycles).is_ok()
            && u32::try_from(*flops).is_ok() =>
        {
            Some(Insn::MathCallImm {
                op: *op,
                rev: true,
                dst: *m_dst,
                l: *r,
                imm: *imm,
                f: *f,
                cycles: *cycles as u32,
                flops: *flops as u32,
                bin_span: *span,
            })
        }
        // for-step + back-edge jump
        (
            Insn::ForStep {
                slot,
                step,
                negative,
                cost,
                span,
            },
            Insn::Jump(target),
        ) => Some(Insn::ForStepJump {
            slot: *slot,
            step: *step,
            negative: *negative,
            cost: *cost,
            span: *span,
            target: *target,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{Program, SpanId};
    use crate::eval::RunConfig;
    use psa_minicpp::ast::BinOp;
    use psa_minicpp::parse_module;
    use psa_minicpp::scopes::resolve_function;

    // These tests pin the *fusion* layer's output, so they compile at the
    // unspecialised level — the later passes (typeinfer specialisation,
    // loop-charge deferral) rewrite several of the fused forms and have
    // their own tests in `crate::typeinfer` and below.
    fn main_code(src: &str) -> Vec<Insn> {
        let m = parse_module(src, "t").unwrap();
        let p = Program::compile_unspecialized(&m, &RunConfig::default());
        let fidx = p.fn_by_name["main"];
        p.funcs[fidx as usize].code.clone()
    }

    fn count(code: &[Insn], pred: impl Fn(&Insn) -> bool) -> usize {
        code.iter().filter(|i| pred(i)).count()
    }

    #[test]
    fn if_comparison_fuses_to_cmp_branch() {
        let code =
            main_code("int main() { int a = 1; int b = 2; if (a < b) { return 1; } return 0; }");
        assert_eq!(count(&code, |i| matches!(i, Insn::CmpBranch { .. })), 1);
        // The pair it replaced is gone.
        assert_eq!(count(&code, |i| matches!(i, Insn::JumpIfFalse { .. })), 0);
    }

    #[test]
    fn literal_comparison_fuses_to_cmp_imm_branch() {
        let code = main_code("int main() { int a = 1; if (a < 10) { return 1; } return 0; }");
        assert_eq!(count(&code, |i| matches!(i, Insn::CmpImmBranch { .. })), 1);
    }

    #[test]
    fn while_comparison_fuses_to_cmp_imm_while() {
        let code = main_code("int main() { int i = 0; while (i < 5) { i += 1; } return i; }");
        assert_eq!(count(&code, |i| matches!(i, Insn::CmpImmWhile { .. })), 1);
        assert_eq!(count(&code, |i| matches!(i, Insn::WhileTest { .. })), 0);
    }

    #[test]
    fn compound_assignment_fuses_to_bin_assign() {
        let code = main_code(
            "int main() { int s = 0; for (int i = 0; i < 9; i++) { s += i; } return s; }",
        );
        assert_eq!(count(&code, |i| matches!(i, Insn::BinAssign { .. })), 1);
        // The loop's step + back-edge fused too.
        assert_eq!(count(&code, |i| matches!(i, Insn::ForStepJump { .. })), 1);
        assert_eq!(count(&code, |i| matches!(i, Insn::ForStep { .. })), 0);
    }

    #[test]
    fn indexed_load_feeding_binop_specialises_as_f64_index_then_f64_bin() {
        // Pair fusion leaves `Index` + binop alone, so type inference turns
        // the load into `F64Index` and the binop (after its own fusion
        // with the declaration `Coerce` or the `AssignLocal`) into a typed
        // `F64Bin*` that reads the loaded register.
        fn load_feeds(code: &[Insn], consumer: impl Fn(&Insn, u16) -> bool) -> usize {
            code.windows(2)
                .filter(|w| match &w[0] {
                    Insn::F64Index { dst, .. } => consumer(&w[1], *dst),
                    _ => false,
                })
                .count()
        }
        fn full_main_code(src: &str) -> Vec<Insn> {
            let m = parse_module(src, "t").unwrap();
            let p = Program::compile(&m, &RunConfig::default());
            p.funcs[p.fn_by_name["main"] as usize].code.clone()
        }
        let code = full_main_code(
            "int main() { double* a = alloc_double(4); double x = 1.0; \
             double y = a[2] - x; double z = a[3] * 0.5; return (int)(y + z); }",
        );
        assert_eq!(
            load_feeds(&code, |i, r| matches!(i, Insn::F64Bin { l, .. } if *l == r)),
            1
        );
        assert_eq!(
            load_feeds(
                &code,
                |i, r| matches!(i, Insn::F64BinImm { l, .. } if *l == r)
            ),
            1
        );
        let code = full_main_code(
            "int main() { double* a = alloc_double(4); double y = 0.0; \
             y = a[2] - 1.5; return (int)y; }",
        );
        assert_eq!(
            load_feeds(
                &code,
                |i, r| matches!(i, Insn::F64BinImmAssign { l, .. } if *l == r)
            ),
            1
        );
    }

    #[test]
    fn one_fuse_pass_is_a_fixpoint_on_the_benchsuite() {
        // No rule takes a superinstruction as either half, so running the
        // pass again over its own output must change nothing.
        for bench in psa_benchsuite::all() {
            let m = parse_module(&bench.source, &bench.key).unwrap();
            let p = Program::compile_unspecialized(&m, &RunConfig::default());
            let init_first_temp = p.global_names.len() as u16;
            let chunks = p
                .funcs
                .iter()
                .map(|f| {
                    let ast = m.function(&f.name).unwrap();
                    let first_temp = resolve_function(ast).locals as u16;
                    (&*f.name, &f.code, first_temp)
                })
                .chain([("<globals>", &p.globals_init, init_first_temp)]);
            for (name, code, first_temp) in chunks {
                let again = fuse(code.clone(), first_temp);
                assert_eq!(
                    format!("{again:?}"),
                    format!("{code:?}"),
                    "{}::{name} changed on a second fuse pass",
                    bench.key
                );
            }
        }
    }

    #[test]
    fn declaration_initialisers_fuse_with_their_producers() {
        let code = main_code(
            "int main() { double* a = alloc_double(4); int i = 2; \
             double u = a[i]; double s = sqrt(u); double t = s * s; \
             double w = t + 0.5; return (int)w; }",
        );
        assert_eq!(count(&code, |i| matches!(i, Insn::IndexCoerce { .. })), 1);
        assert_eq!(
            count(&code, |i| matches!(i, Insn::MathCallCoerce { .. })),
            1
        );
        assert_eq!(count(&code, |i| matches!(i, Insn::BinCoerce { .. })), 1);
        assert_eq!(count(&code, |i| matches!(i, Insn::BinImmCoerce { .. })), 1);
        assert_eq!(count(&code, |i| matches!(i, Insn::Coerce { .. })), 0);
    }

    #[test]
    fn fused_programs_run_identically() {
        // Same program, fused vs unfused: values must agree (the
        // differential suites check the full observable set; this is the
        // in-crate smoke check).
        let src = "int main() { int s = 0; for (int i = 0; i < 20; i++) { \
                   if (i % 3 == 0) { continue; } s += i; } return s; }";
        let m = parse_module(src, "t").unwrap();
        let cfg = RunConfig::default();
        let mut fast = crate::vm::Vm::with_program(
            std::sync::Arc::new(Program::compile(&m, &cfg)),
            cfg.clone(),
        );
        let mut slow = crate::vm::Vm::with_program(
            std::sync::Arc::new(Program::compile_unfused(&m, &cfg)),
            cfg.clone(),
        );
        let a = fast.run_main().unwrap();
        let b = slow.run_main().unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(fast.profile(), slow.profile());
    }

    #[test]
    fn fusion_never_fires_across_jump_targets() {
        // Hand-built: a comparison followed by a branch, where some other
        // jump lands ON the branch. Fusing would skip the comparison on
        // that path.
        let s = SpanId(0);
        let code = vec![
            Insn::Bin {
                op: BinOp::Lt,
                dst: 5,
                l: 0,
                r: 1,
                span: s,
            },
            Insn::JumpIfFalse {
                src: 5,
                target: 3,
                cost: 1,
                span: s,
            },
            Insn::Jump(1), // lands on the JumpIfFalse: blocks fusion
            Insn::Ret {
                src: 0,
                has_value: false,
            },
        ];
        let out = fuse(code, 5);
        assert_eq!(out.len(), 4, "pair across a jump target must not fuse");
        assert!(matches!(out[0], Insn::Bin { .. }));
        assert!(matches!(out[1], Insn::JumpIfFalse { .. }));
        // Identical code without the incoming jump does fuse.
        let code = vec![
            Insn::Bin {
                op: BinOp::Lt,
                dst: 5,
                l: 0,
                r: 1,
                span: s,
            },
            Insn::JumpIfFalse {
                src: 5,
                target: 2,
                cost: 1,
                span: s,
            },
            Insn::Ret {
                src: 0,
                has_value: false,
            },
        ];
        let out = fuse(code, 5);
        assert!(matches!(out[0], Insn::CmpBranch { .. }));
    }

    #[test]
    fn fusion_never_elides_a_local_register_write() {
        // The comparison writes a *local* (register below first_temp):
        // eliding that write would be observable, so fusion must not fire.
        let s = SpanId(0);
        let code = vec![
            Insn::Bin {
                op: BinOp::Lt,
                dst: 2,
                l: 0,
                r: 1,
                span: s,
            },
            Insn::JumpIfFalse {
                src: 2,
                target: 2,
                cost: 1,
                span: s,
            },
            Insn::Ret {
                src: 0,
                has_value: false,
            },
        ];
        let out = fuse(code, 5);
        assert_eq!(out.len(), 3);
        assert!(matches!(out[0], Insn::Bin { .. }));
    }

    #[test]
    fn jump_targets_are_remapped_after_fusion() {
        // A for loop with a `continue`: the continue's jump targets the
        // step, which fuses with the back-edge; the retargeted jump must
        // land on the fused instruction and the program must still work.
        let src = "int main() { int s = 0; for (int i = 0; i < 10; i++) { \
                   if (i == 5) { continue; } s += 1; } return s; }";
        let m = parse_module(src, "t").unwrap();
        let cfg = RunConfig::default();
        let mut vm = crate::vm::Vm::new(&m, cfg);
        let v = vm.run_main().unwrap();
        assert_eq!(format!("{v:?}"), "Int(9)");
    }

    #[test]
    fn imm_binop_chain_fuses_to_bin_imm2() {
        // `i * 4 + 2`: the second immediate binop consumes the first's
        // single-use temporary (the shape of flattened 2-D addressing).
        let code = main_code("int main() { int i = 5; return i * 4 + 2; }");
        assert_eq!(count(&code, |i| matches!(i, Insn::BinImm2 { .. })), 1);
        assert_eq!(count(&code, |i| matches!(i, Insn::BinImm { .. })), 0);
    }

    #[test]
    fn scaled_math_call_fuses_to_math_call_imm() {
        // `sqrt(v * 4.0)`: immediate scaling feeding a unary intrinsic.
        let code = main_code(
            "int main() { double v = 2.25; double r = 0.0; \
             r = sqrt(v * 4.0); return (int)r; }",
        );
        assert_eq!(
            count(&code, |i| matches!(i, Insn::MathCallImm { rev: false, .. })),
            1
        );
        assert_eq!(count(&code, |i| matches!(i, Insn::MathCall { .. })), 0);
        // Literal-left (`4.0 / v`) goes through `BinImmRev` and sets `rev`.
        let code = main_code(
            "int main() { double v = 2.0; double r = 0.0; \
             r = sqrt(4.0 / v); return (int)r; }",
        );
        assert_eq!(
            count(&code, |i| matches!(i, Insn::MathCallImm { rev: true, .. })),
            1
        );
    }

    #[test]
    fn bin_imm2_never_elides_a_local_register_write() {
        // First binop writes a *local* (below first_temp): its write is
        // observable, so the chain must stay unfused.
        let s = SpanId(0);
        let code = vec![
            Insn::BinImm {
                op: BinOp::Mul,
                dst: 2,
                l: 0,
                imm: Value::Int(4),
                span: s,
            },
            Insn::BinImm {
                op: BinOp::Add,
                dst: 6,
                l: 2,
                imm: Value::Int(2),
                span: s,
            },
            Insn::Ret {
                src: 6,
                has_value: true,
            },
        ];
        let out = fuse(code, 5);
        assert_eq!(count(&out, |i| matches!(i, Insn::BinImm2 { .. })), 0);
        assert_eq!(count(&out, |i| matches!(i, Insn::BinImm { .. })), 2);
    }

    #[test]
    fn math_call_imm_requires_float_immediate() {
        // An integer immediate is excluded from `MathCallImm` (the fused
        // handler is specialised to the float fast path); the pair must
        // stay unfused.
        use crate::intrinsics::{MathFn, MathOp};
        let s = SpanId(0);
        let code = vec![
            Insn::BinImm {
                op: BinOp::Add,
                dst: 6,
                l: 0,
                imm: Value::Int(3),
                span: s,
            },
            Insn::MathCall {
                dst: 7,
                a: 6,
                b: 0,
                f: MathFn {
                    op: MathOp::Sqrt,
                    single: false,
                },
                cycles: 20,
                flops: 1,
                name: "sqrt".into(),
                span: s,
            },
            Insn::Ret {
                src: 7,
                has_value: true,
            },
        ];
        let out = fuse(code, 5);
        assert_eq!(count(&out, |i| matches!(i, Insn::MathCallImm { .. })), 0);
        assert_eq!(count(&out, |i| matches!(i, Insn::MathCall { .. })), 1);
    }
}
