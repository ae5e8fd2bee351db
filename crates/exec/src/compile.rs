//! Lowering from the IR to the compiled tape of [`crate::tape`], the
//! VM's input.
//!
//! Compilation is a single walk over the program body that resolves every
//! quantity the interpreter re-derives at run time:
//!
//! * loop bounds and guard ranges are `LinExpr`s over size parameters only,
//!   so under a fixed [`ParamBinding`] they fold to constants — each loop
//!   body is split into segments on which the active-member set is fixed;
//! * subscript chains fold into one affine walker per static reference:
//!   `konst` absorbs the layout base, all invariant subscripts, and the
//!   constant offsets, leaving only `stride · var` terms;
//! * expression trees serialize into a register tape whose destination
//!   slots are the tree depths (left subtree at `d`, right at `d+1`),
//!   reproducing the interpreter's left-to-right evaluation order and
//!   therefore its exact floating-point results.
//!
//! [`compile`] is total over the IR the rest of the workspace produces but
//! deliberately conservative: it returns `None` — and the caller falls
//! back to the tree walker — for shapes whose interpreter semantics depend
//! on *stale* loop variables (a variable read outside its enclosing loop,
//! an outer-condition on the loop's own variable), for bodies exceeding
//! the 64-bit outer-condition mask, and for any subscript it cannot prove
//! in-bounds over the reference's execution interval. The last rule keeps
//! the interpreter's debug bounds assertion authoritative: a program that
//! could step outside an array runs (and panics, in debug builds) exactly
//! as it always has.

use crate::layout::DataLayout;
use crate::tape::{
    CLoop, CStmt, CompiledProgram, EvMeta, Item, ItemKind, Op, OuterCheck, Segment, Walker,
};
use gcr_ir::{
    ArrayRef, Assign, AssignKind, BinOp, Expr, Loop, ParamBinding, Program, Stmt, StmtId,
    Subscript, UnOp, VarId,
};

/// Lowers `prog` under `binding` and `layout` into a [`CompiledProgram`].
///
/// Returns `None` when the program is outside the compiler's domain (see
/// the module docs); the machine then keeps using the interpreter, which
/// is the reference semantics for every shape.
pub(crate) fn compile(
    prog: &Program,
    binding: &ParamBinding,
    layout: &DataLayout,
) -> Option<CompiledProgram> {
    if prog.vars.len() > usize::from(u16::MAX) {
        return None;
    }
    let mut lw = Lower {
        binding,
        layout,
        out: CompiledProgram::default(),
        stmt_walkers: Vec::new(),
        cur_stmt_walkers: Vec::new(),
        ranges: Vec::new(),
        cur_id: StmtId::from_index(0),
    };
    let mut top_kinds = Vec::new();
    for gs in &prog.body {
        // The interpreter asserts top-level statements are unguarded; keep
        // that invariant's enforcement in one place by refusing to compile
        // anything else.
        if gs.guard.is_some() || !gs.outer.is_empty() {
            return None;
        }
        top_kinds.push(match &gs.stmt {
            Stmt::Assign(a) => ItemKind::Stmt(lw.assign(a)?),
            Stmt::Loop(l) => ItemKind::Loop(lw.lower_loop(l)?),
        });
    }
    let item_start = lw.out.items.len() as u32;
    for &kind in &top_kinds {
        lw.out.items.push(Item { kind, req: 0 });
    }
    lw.out.top_items = (item_start, lw.out.items.len() as u32);
    let prime_start = lw.out.prime_list.len() as u32;
    for &kind in &top_kinds {
        if let ItemKind::Stmt(si) = kind {
            lw.out.prime_list.extend(&lw.stmt_walkers[si as usize]);
        }
    }
    lw.out.top_prime = (prime_start, lw.out.prime_list.len() as u32);
    // The executor's register file is fixed-size with masked indexing;
    // deeper expressions than that stay on the interpreter.
    if lw.out.max_regs > crate::tape::MAX_REGS {
        return None;
    }
    Some(lw.out)
}

struct Lower<'a> {
    binding: &'a ParamBinding,
    layout: &'a DataLayout,
    out: CompiledProgram,
    /// Walkers referenced by each compiled statement (parallel to
    /// `out.stmts`), used to build segment prime/advance lists.
    stmt_walkers: Vec<Vec<u32>>,
    cur_stmt_walkers: Vec<u32>,
    /// Value intervals of the enclosing loop variables along the current
    /// member chain, outermost first: loop range intersected with the
    /// member's guard and outer conditions. Innermost binding wins on
    /// lookup. Doubles as the "is this variable live here?" check and as
    /// the bound prover for subscripts.
    ranges: Vec<(VarId, i64, i64)>,
    /// Id of the assignment currently being lowered (baked into read ops
    /// so they emit events without statement context).
    cur_id: StmtId,
}

/// Per-member lowering result, before segmentation.
struct Member {
    kind: ItemKind,
    /// Effective iteration interval: loop range intersected with the guard.
    alo: i64,
    ahi: i64,
    /// Outer-condition mask bit (0 when unconditional).
    req: u64,
}

impl Lower<'_> {
    /// Slot of a variable, provided it is bound by an enclosing loop. Both
    /// engines then agree on its value at every read; anything else would
    /// read a stale variable whose value depends on execution history.
    fn slot_of(&self, v: VarId) -> Option<u16> {
        self.range_of(v).map(|_| v.index() as u16)
    }

    /// Value interval of an enclosing loop variable at the current point.
    fn range_of(&self, v: VarId) -> Option<(i64, i64)> {
        self.ranges.iter().rev().find(|(rv, _, _)| *rv == v).map(|&(_, lo, hi)| (lo, hi))
    }

    fn push(&mut self, op: Op) {
        self.out.ops.push(op);
    }

    fn note_depth(&mut self, d: u16) {
        self.out.max_regs = self.out.max_regs.max(usize::from(d) + 1);
    }

    fn expr(&mut self, e: &Expr, d: u16) -> Option<()> {
        self.note_depth(d);
        match e {
            Expr::Const(c) => self.push(Op::Const { d, v: *c }),
            Expr::Lin(l) => self.push(Op::Const { d, v: l.eval(self.binding) as f64 }),
            Expr::Var { var, offset } => {
                let slot = self.slot_of(*var)?;
                self.push(Op::Var { d, slot, offset: *offset });
            }
            Expr::Read(r) => {
                let w = self.walker(r)?;
                self.push(if r.subs.is_empty() {
                    Op::ReadScalar { d, w }
                } else {
                    Op::Read { d, w, stmt: self.cur_id }
                });
            }
            Expr::Unary(op, x) => {
                self.expr(x, d)?;
                self.push(match op {
                    UnOp::Neg => Op::Neg { d },
                    UnOp::Sqrt => Op::Sqrt { d },
                    UnOp::Abs => Op::Abs { d },
                });
            }
            Expr::Bin(op, x, y) => {
                let d2 = d.checked_add(1)?;
                self.expr(x, d)?;
                if self.fused_rhs(op, y, d)?.is_some() {
                    return Some(());
                }
                self.expr(y, d2)?;
                self.note_depth(d2);
                self.push(match op {
                    BinOp::Add => Op::Add { d },
                    BinOp::Sub => Op::Sub { d },
                    BinOp::Mul => Op::Mul { d },
                    BinOp::Div => Op::Div { d },
                    BinOp::Max => Op::Max { d },
                    BinOp::Min => Op::Min { d },
                });
            }
            Expr::Call(name, args) => {
                // The interpreter folds `s = 0.0; for a in args { s += a }`
                // then applies the intrinsic; replicate that exact order.
                self.push(Op::Const { d, v: 0.0 });
                let d2 = d.checked_add(1)?;
                for a in args {
                    if self.fused_rhs(&BinOp::Add, a, d)?.is_some() {
                        continue;
                    }
                    self.expr(a, d2)?;
                    self.note_depth(d2);
                    self.push(Op::Add { d });
                }
                let (scale, bias) = crate::machine::intrinsic_coeffs(name);
                self.push(Op::Intrinsic { d, scale, bias });
            }
        }
        Some(())
    }

    /// Fuses a binary op whose right operand is a leaf into a single
    /// superinstruction (`regs[d] op= leaf`), skipping the spill to
    /// `regs[d+1]`. The arithmetic is the identical operation in the
    /// identical order — only the dispatch count changes. Returns
    /// `Some(Some(()))` when fused, `Some(None)` when the shape does not
    /// fuse (caller lowers normally), `None` on a compile failure.
    fn fused_rhs(&mut self, op: &BinOp, y: &Expr, d: u16) -> Option<Option<()>> {
        let konst = match y {
            Expr::Const(c) => Some(*c),
            Expr::Lin(l) => Some(l.eval(self.binding) as f64),
            _ => None,
        };
        if let Some(v) = konst {
            self.push(match op {
                BinOp::Add => Op::ConstAdd { d, v },
                BinOp::Sub => Op::ConstSub { d, v },
                BinOp::Mul => Op::ConstMul { d, v },
                BinOp::Div => {
                    // The interpreter's division guard, resolved statically:
                    // a tiny constant divisor leaves `regs[d]` unchanged, so
                    // nothing is emitted at all.
                    if v.abs() < 1e-300 {
                        return Some(Some(()));
                    }
                    Op::ConstDiv { d, v }
                }
                BinOp::Max => Op::ConstMax { d, v },
                BinOp::Min => Op::ConstMin { d, v },
            });
            return Some(Some(()));
        }
        if let Expr::Read(r) = y {
            // Division needs both operands at run time for its guard.
            if !r.subs.is_empty() && !matches!(op, BinOp::Div) {
                let w = self.walker(r)?;
                let stmt = self.cur_id;
                self.push(match op {
                    BinOp::Add => Op::ReadAdd { d, w, stmt },
                    BinOp::Sub => Op::ReadSub { d, w, stmt },
                    BinOp::Mul => Op::ReadMul { d, w, stmt },
                    BinOp::Max => Op::ReadMax { d, w, stmt },
                    BinOp::Min => Op::ReadMin { d, w, stmt },
                    BinOp::Div => unreachable!("division is never fused"),
                });
                return Some(Some(()));
            }
        }
        Some(None)
    }

    /// Creates the affine walker for one static reference. Every subscript
    /// is proved in-bounds over the reference's execution interval —
    /// programs that could step outside an array stay on the interpreter,
    /// whose debug bounds assertion is part of the reference semantics.
    fn walker(&mut self, r: &ArrayRef) -> Option<u32> {
        let al = &self.layout.arrays[r.array.index()];
        let mut konst = al.base as i64;
        let mut terms: Vec<(u16, i64)> = Vec::new();
        for (k, sub) in r.subs.iter().enumerate() {
            let stride = al.strides[k] as i64;
            match sub {
                Subscript::Var { var, offset } => {
                    let slot = self.slot_of(*var)?;
                    let (vlo, vhi) = self.range_of(*var)?;
                    if vlo + offset < 1 || vhi + offset > al.extents[k] {
                        return None;
                    }
                    konst += stride * (offset - 1);
                    match terms.iter_mut().find(|(s, _)| *s == slot) {
                        Some(t) => t.1 += stride,
                        None => terms.push((slot, stride)),
                    }
                }
                Subscript::Invariant(e) => {
                    let i = e.eval(self.binding);
                    if i < 1 || i > al.extents[k] {
                        return None;
                    }
                    konst += stride * (i - 1);
                }
            }
        }
        let w = self.out.walkers.len() as u32;
        self.out.walkers.push(Walker { konst, terms });
        self.out.ev.push(EvMeta { array: r.array, ref_id: r.id });
        self.cur_stmt_walkers.push(w);
        Some(w)
    }

    fn assign(&mut self, a: &Assign) -> Option<u32> {
        debug_assert!(self.cur_stmt_walkers.is_empty());
        self.cur_id = a.id;
        let op_start = self.out.ops.len() as u32;
        let lowered = (|| {
            self.expr(&a.rhs, 0)?;
            self.walker(&a.lhs)
        })();
        let Some(lhs) = lowered else {
            self.cur_stmt_walkers.clear();
            return None;
        };
        let si = self.out.stmts.len() as u32;
        self.out.stmts.push(CStmt {
            ops: (op_start, self.out.ops.len() as u32),
            walker: lhs,
            traced: !a.lhs.subs.is_empty(),
            reduce: match a.kind {
                AssignKind::Normal => None,
                AssignKind::Reduce(op) => Some(op),
            },
            id: a.id,
            flops: a.rhs.op_count() as u32 + 1,
        });
        self.stmt_walkers.push(std::mem::take(&mut self.cur_stmt_walkers));
        Some(si)
    }

    fn lower_loop(&mut self, l: &Loop) -> Option<u32> {
        let lo = l.lo.eval(self.binding);
        let hi = l.hi.eval(self.binding);
        if l.var.index() > usize::from(u16::MAX)
            || hi.checked_add(1).is_none()
            || hi.checked_sub(lo).is_none()
        {
            return None;
        }
        let var_slot = l.var.index() as u16;

        // Phase 1: lower members (recursing into nested loops) and resolve
        // their guard intervals and outer-condition bits. Checks are
        // buffered locally so recursion does not interleave them.
        let mut members: Vec<Member> = Vec::new();
        let mut local_checks: Vec<OuterCheck> = Vec::new();
        let mut nbits = 0u32;
        for gs in &l.body {
            let (mut alo, mut ahi) = (lo, hi);
            if let Some(g) = &gs.guard {
                let (glo, ghi) = g.eval(self.binding);
                alo = alo.max(glo);
                ahi = ahi.min(ghi);
            }
            if alo > ahi {
                // Statically never active: skip the member entirely.
                continue;
            }
            // Outer conditions must test *strictly* enclosing variables —
            // that is the only case in which their value at loop entry is
            // well-defined in both engines. (`l.var` is not yet on the
            // range stack here, so it is rejected too.) Each condition
            // also statically refines the variable's interval for the
            // member's subtree, tightening the bound prover.
            let mut refinements: Vec<(VarId, i64, i64)> = Vec::new();
            let mut statically_dead = false;
            for (v, range) in &gs.outer {
                let (vlo, vhi) = self.range_of(*v)?;
                let (rlo, rhi) = range.eval(self.binding);
                let (nlo, nhi) = (vlo.max(rlo), vhi.min(rhi));
                if nlo > nhi {
                    statically_dead = true;
                    break;
                }
                refinements.push((*v, nlo, nhi));
            }
            if statically_dead {
                // The condition can never hold: the member never runs.
                continue;
            }
            let mut req = 0u64;
            if !gs.outer.is_empty() {
                if nbits == 64 {
                    return None;
                }
                req = 1u64 << nbits;
                nbits += 1;
                for (v, range) in &gs.outer {
                    let (rlo, rhi) = range.eval(self.binding);
                    local_checks.push(OuterCheck {
                        bit: req,
                        slot: v.index() as u16,
                        lo: rlo,
                        hi: rhi,
                    });
                }
            }
            let depth = self.ranges.len();
            self.ranges.extend(refinements);
            self.ranges.push((l.var, alo, ahi));
            let kind = match &gs.stmt {
                Stmt::Assign(a) => self.assign(a).map(ItemKind::Stmt),
                Stmt::Loop(inner) => self.lower_loop(inner).map(ItemKind::Loop),
            };
            self.ranges.truncate(depth);
            members.push(Member { kind: kind?, alo, ahi, req });
        }

        // Phase 2: split `lo..=hi` at every member boundary into segments
        // with a constant active set. A loop that never runs gets no
        // segments; intervals where nothing is active still become
        // segments so the iteration fuel is charged exactly.
        let seg_start = self.out.segments.len() as u32;
        if lo <= hi {
            let mut cuts: Vec<i64> = vec![lo, hi + 1];
            for m in &members {
                cuts.push(m.alo);
                cuts.push(m.ahi + 1);
            }
            cuts.sort_unstable();
            cuts.dedup();
            for w in cuts.windows(2) {
                let (a, b) = (w[0], w[1] - 1);
                let item_start = self.out.items.len() as u32;
                for m in &members {
                    if m.alo <= a && m.ahi >= b {
                        self.out.items.push(Item { kind: m.kind, req: m.req });
                    }
                }
                let item_end = self.out.items.len() as u32;
                let prime_start = self.out.prime_list.len() as u32;
                let adv_start = self.out.advance_list.len() as u32;
                for m in &members {
                    let ItemKind::Stmt(si) = m.kind else { continue };
                    if !(m.alo <= a && m.ahi >= b) {
                        continue;
                    }
                    for &wk in &self.stmt_walkers[si as usize] {
                        self.out.prime_list.push(wk);
                        let stride = self.out.walkers[wk as usize]
                            .terms
                            .iter()
                            .find(|(s, _)| *s == var_slot)
                            .map_or(0, |(_, st)| *st);
                        if stride != 0 {
                            self.out.advance_list.push((wk, stride));
                        }
                    }
                }
                let items = &self.out.items[item_start as usize..item_end as usize];
                let flat = !items.is_empty()
                    && items.iter().all(|it| it.req == 0 && matches!(it.kind, ItemKind::Stmt(_)));
                self.out.segments.push(Segment {
                    lo: a,
                    hi: b,
                    items: (item_start, item_end),
                    prime: (prime_start, self.out.prime_list.len() as u32),
                    advance: (adv_start, self.out.advance_list.len() as u32),
                    flat,
                });
            }
        }
        let checks_start = self.out.checks.len() as u32;
        self.out.checks.extend(local_checks);
        let li = self.out.loops.len() as u32;
        self.out.loops.push(CLoop {
            var: var_slot,
            segments: (seg_start, self.out.segments.len() as u32),
            checks: (checks_start, self.out.checks.len() as u32),
        });
        Some(li)
    }
}
