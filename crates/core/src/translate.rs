//! Translators: a program plus a [`Technique`] become per-instance
//! [`SlotCode`] — the simulated equivalent of generating threaded code and
//! (for the dynamic techniques) copying routine code at run time.

use std::collections::HashMap;
use std::fmt;

use ivm_bpred::Addr;

use crate::layout::{CodeSpace, RoutineTable, DYNAMIC_BASE};
use crate::native::{
    InstKind, NativeSpec, CALL_SITE_BYTES, CALL_THREAD_INSTRS, DISPATCH_BYTES, DISPATCH_INSTRS,
    IP_INC_BYTES, IP_INC_INSTRS, SWITCH_BREAK_BYTES, SWITCH_BREAK_INSTRS, SWITCH_DISPATCH_BYTES,
    SWITCH_DISPATCH_INSTRS,
};
use crate::profile::Profile;
use crate::program::ProgramCode;
use crate::replicate::{allocate_replicas, ReplicaPicker, UnitOp};
use crate::slots::{AltCode, DispatchPoint, PreDispatch, SlotCode};
use crate::spec::{OpId, VmSpec};
use crate::superinst::{SuperSelection, SuperTable};
use crate::technique::{CoverAlgorithm, ReplicaSelection, Technique};

/// A fully translated program: the code layout for one interpreter variant.
///
/// Build one with [`translate`]; execute it by feeding control transfers to
/// a [`crate::Measurement`].
pub struct Translation {
    technique: Technique,
    slots: Vec<SlotCode>,
    code_bytes: u64,
    ops: Vec<OpId>,
    spec: VmSpec,
    ctx: QuickCtx,
}

impl fmt::Debug for Translation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Translation")
            .field("technique", &self.technique)
            .field("instances", &self.slots.len())
            .field("code_bytes", &self.code_bytes)
            .finish()
    }
}

enum QuickCtx {
    /// Switch dispatch: quickening swaps the case.
    Switch { routines: Box<RoutineTable> },
    /// Threaded / static replication / static superinstructions:
    /// quickening re-parses the enclosing block (paper §5.4).
    Static(Box<StaticCtx>),
    /// Dynamic code: quickening patches the reserved gap (paper §5.4).
    Dynamic { gaps: Vec<Option<GapInfo>> },
    /// Subroutine threading: quickening retargets the direct call.
    Subroutine { routines: Box<RoutineTable>, call_sites: Vec<Addr> },
}

/// Everything block re-parsing needs (boxed: one per translation).
struct StaticCtx {
    routines: RoutineTable,
    table: SuperTable,
    algo: CoverAlgorithm,
    picker: ReplicaPicker,
    block_starts: Vec<u32>,
}

/// The reserved patch gap of one quickable instance in dynamic code.
#[derive(Debug, Clone, Copy)]
struct GapInfo {
    gap_addr: Addr,
    gap_bytes: u32,
    interior: bool,
    end_branch: Addr,
}

impl Translation {
    /// All per-instance slots.
    pub fn slots(&self) -> &[SlotCode] {
        &self.slots
    }

    /// The slot of instance `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn slot(&self, i: usize) -> &SlotCode {
        &self.slots[i]
    }

    /// Bytes of code generated at interpreter run time (startup replicas
    /// for static replication, copied regions for the dynamic techniques).
    pub fn code_bytes(&self) -> u64 {
        self.code_bytes
    }

    /// The technique this translation implements.
    pub fn technique(&self) -> Technique {
        self.technique
    }

    /// The current opcode of instance `i` (reflects quickening).
    pub fn op(&self, i: usize) -> OpId {
        self.ops[i]
    }

    /// The name of instance `i`'s current opcode (reflects quickening) —
    /// for attribution reports keyed by opcode rather than instance.
    pub fn op_name(&self, i: usize) -> &str {
        self.spec.name(self.ops[i])
    }

    /// Checks internal consistency of the layout and panics on violations;
    /// returns `self`'s instance count on success. Intended for tests and
    /// debugging after custom translator changes.
    ///
    /// Checked invariants:
    /// * every slot's fetch regions have non-zero addresses when non-empty,
    /// * dispatch branch addresses lie inside some fetch region of the
    ///   translation (static text or generated code),
    /// * merged slots (no fall, no taken) only occur for instructions that
    ///   fall through,
    /// * side-entry `alt.until` indices are in range and non-decreasing.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn validate(&self) -> usize {
        for (i, slot) in self.slots.iter().enumerate() {
            assert!(slot.fetch.1 == 0 || slot.fetch.0 > 0, "slot {i}: fetch at null");
            assert!(
                slot.extra_fetch.1 == 0 || slot.extra_fetch.0 > 0,
                "slot {i}: extra fetch at null"
            );
            assert!(slot.entry > 0, "slot {i}: null entry");
            if let Some(pre) = slot.pre {
                assert!(pre.target > 0, "slot {i}: pre-dispatch to null");
                assert_ne!(pre.branch, 0, "slot {i}: pre-dispatch branch at null");
            }
            let kind = self.spec.native(self.ops[i]).kind;
            if slot.fall.is_none() && slot.taken.is_none() {
                assert!(
                    kind.falls_through(),
                    "slot {i} ({}) is merged but cannot fall through",
                    self.spec.name(self.ops[i])
                );
            }
            if kind.is_control() {
                assert!(
                    slot.taken.is_some() || slot.alt.is_some(),
                    "slot {i} ({}) is control but has no taken dispatch",
                    self.spec.name(self.ops[i])
                );
            }
            if let Some(alt) = slot.alt {
                assert!(
                    (alt.until as usize) < self.slots.len(),
                    "slot {i}: alt.until out of range"
                );
                assert!(alt.until as usize >= i, "slot {i}: alt.until before slot");
            }
        }
        self.slots.len()
    }

    /// Rewrites quickable instance `instance` into `quick_op`, updating its
    /// slot (and, for static superinstructions, re-parsing the enclosing
    /// block).
    ///
    /// # Panics
    ///
    /// Panics if `instance` is not a quickable site, or `quick_op` is not
    /// one of its declared quick variants.
    pub fn quicken(&mut self, instance: usize, quick_op: OpId) {
        let old_op = self.ops[instance];
        assert_eq!(
            self.spec.native(old_op).kind,
            InstKind::Quickable,
            "instance {instance} ({}) is not quickable",
            self.spec.name(old_op)
        );
        assert!(
            self.spec.def(old_op).quick_variants.contains(&quick_op),
            "{} is not a quick variant of {}",
            self.spec.name(quick_op),
            self.spec.name(old_op)
        );
        self.ops[instance] = quick_op;
        match &mut self.ctx {
            QuickCtx::Switch { routines } => {
                let (head, branch) = routines.switch_head().expect("switch layout");
                self.slots[instance] = switch_slot(routines, self.ops[instance], head, branch);
            }
            QuickCtx::Static(ctx) => {
                let (start, end) = enclosing_block(&ctx.block_starts, self.ops.len(), instance);
                let block_ops = &self.ops[start..end];
                let units = ctx.table.cover(block_ops, ctx.algo);
                for u in units {
                    emit_static_unit(
                        &mut self.slots,
                        &ctx.routines,
                        &mut ctx.picker,
                        start + u.start,
                        u.len,
                        u.super_id.map(UnitOp::Super).unwrap_or(UnitOp::Op(block_ops[u.start])),
                    );
                }
            }
            QuickCtx::Subroutine { routines, call_sites } => {
                self.slots[instance] = subroutine_slot(call_sites[instance], routines, quick_op);
            }
            QuickCtx::Dynamic { gaps } => {
                let gap = gaps[instance]
                    .unwrap_or_else(|| panic!("instance {instance} has no quick gap"));
                let native = self.spec.native(quick_op);
                let code_len = native.work_bytes + tail_bytes(native.kind, gap.interior);
                assert!(
                    code_len <= gap.gap_bytes,
                    "quick code ({code_len}B) must fit the reserved gap ({}B)",
                    gap.gap_bytes
                );
                self.slots[instance] =
                    dyn_slot(gap.gap_addr, native, code_len, gap.end_branch, gap.interior);
            }
        }
    }
}

/// Translates `program` for `technique`.
///
/// `profile` supplies the training data for the static techniques (see
/// [`Technique::needs_profile`]); `selection` controls superinstruction
/// scoring.
///
/// # Panics
///
/// Panics if the technique needs a profile and none is given.
pub fn translate(
    spec: &VmSpec,
    program: &ProgramCode,
    technique: Technique,
    profile: Option<&Profile>,
    selection: SuperSelection,
) -> Translation {
    assert!(
        !technique.needs_profile() || profile.is_some(),
        "{technique} requires a training profile"
    );
    match technique {
        Technique::Switch => translate_switch(spec, program),
        Technique::Threaded => translate_static_family(
            spec,
            program,
            technique,
            0,
            0,
            ReplicaSelection::RoundRobin,
            CoverAlgorithm::Greedy,
            profile,
            selection,
        ),
        Technique::StaticRepl { budget, selection: rs } => translate_static_family(
            spec,
            program,
            technique,
            budget,
            0,
            rs,
            CoverAlgorithm::Greedy,
            profile,
            selection,
        ),
        Technique::StaticSuper { budget, algo } => translate_static_family(
            spec,
            program,
            technique,
            0,
            budget,
            ReplicaSelection::RoundRobin,
            algo,
            profile,
            selection,
        ),
        Technique::StaticBoth { replicas, supers, selection: rs, algo } => translate_static_family(
            spec, program, technique, replicas, supers, rs, algo, profile, selection,
        ),
        Technique::DynamicRepl => translate_dynamic(
            spec,
            program,
            technique,
            DynMode::Repl,
            &SuperTable::empty(),
            CoverAlgorithm::Greedy,
        ),
        Technique::DynamicSuper => translate_dynamic(
            spec,
            program,
            technique,
            DynMode::Super { share: true },
            &SuperTable::empty(),
            CoverAlgorithm::Greedy,
        ),
        Technique::DynamicBoth => translate_dynamic(
            spec,
            program,
            technique,
            DynMode::Super { share: false },
            &SuperTable::empty(),
            CoverAlgorithm::Greedy,
        ),
        Technique::AcrossBb => translate_dynamic(
            spec,
            program,
            technique,
            DynMode::Across { cross_bb: false },
            &SuperTable::empty(),
            CoverAlgorithm::Greedy,
        ),
        Technique::WithStaticSuper { supers, algo } => {
            let table = SuperTable::select(spec, profile.expect("profile"), supers, selection);
            translate_dynamic(
                spec,
                program,
                technique,
                DynMode::Across { cross_bb: false },
                &table,
                algo,
            )
        }
        Technique::WithStaticSuperAcross { supers, algo } => {
            let table = SuperTable::select(spec, profile.expect("profile"), supers, selection);
            translate_dynamic(
                spec,
                program,
                technique,
                DynMode::Across { cross_bb: true },
                &table,
                algo,
            )
        }
        Technique::SubroutineThreading => translate_subroutine(spec, program),
    }
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// Fall/taken dispatch wiring for a routine ending in `kind` whose single
/// dispatch is `dp` (plain threaded layout: one dispatch per routine used by
/// every exit path).
fn kind_dispatch(
    kind: InstKind,
    dp: DispatchPoint,
) -> (Option<DispatchPoint>, Option<DispatchPoint>) {
    match kind {
        InstKind::Plain => (Some(dp), None),
        // A quickable instruction may do anything on its first (slow)
        // execution — e.g. an unquickened invokevirtual transfers control —
        // so both exits dispatch through the routine's branch.
        InstKind::Quickable => (Some(dp), Some(dp)),
        InstKind::CondBranch => (Some(dp), Some(dp)),
        InstKind::Jump | InstKind::Call | InstKind::Return => (None, Some(dp)),
    }
}

fn enclosing_block(block_starts: &[u32], n: usize, i: usize) -> (usize, usize) {
    let bi = match block_starts.binary_search(&(i as u32)) {
        Ok(b) => b,
        Err(ins) => ins - 1,
    };
    let start = block_starts[bi] as usize;
    let end = block_starts.get(bi + 1).map(|&e| e as usize).unwrap_or(n);
    (start, end)
}

// ---------------------------------------------------------------------------
// Switch dispatch
// ---------------------------------------------------------------------------

fn switch_slot(routines: &RoutineTable, op: OpId, head: Addr, branch: Addr) -> SlotCode {
    let r = routines.routine(UnitOp::Op(op), 0);
    let dp = DispatchPoint {
        branch,
        instrs: SWITCH_DISPATCH_INSTRS,
        fetch: (head, SWITCH_DISPATCH_BYTES),
    };
    let (fall, taken) = kind_dispatch(r.kind, dp);
    SlotCode {
        entry: r.addr,
        work_instrs: r.work_instrs + SWITCH_BREAK_INSTRS,
        fetch: (r.addr, r.work_bytes + SWITCH_BREAK_BYTES),
        extra_fetch: (0, 0),
        pre: None,
        fall,
        taken,
        alt: None,
    }
}

fn translate_switch(spec: &VmSpec, program: &ProgramCode) -> Translation {
    let routines = RoutineTable::build(spec, &SuperTable::empty(), &HashMap::new(), true);
    let (head, branch) = routines.switch_head().expect("switch layout");
    let slots = program.ops().iter().map(|&op| switch_slot(&routines, op, head, branch)).collect();
    Translation {
        technique: Technique::Switch,
        slots,
        code_bytes: 0,
        ops: program.ops().to_vec(),
        spec: spec.clone(),
        ctx: QuickCtx::Switch { routines: Box::new(routines) },
    }
}

// ---------------------------------------------------------------------------
// Subroutine threading (Berndl et al., paper §8)
// ---------------------------------------------------------------------------

/// One subroutine-threaded instance: a direct call at `call_site` to the
/// base routine of `op`. Dispatch executes no indirect branch — the return
/// is predicted by the hardware return stack — so `fall` is `None`; only
/// taken VM control flow keeps an indirect jump (inside the routine).
fn subroutine_slot(call_site: Addr, routines: &RoutineTable, op: OpId) -> SlotCode {
    let r = routines.routine(UnitOp::Op(op), 0);
    let rdp = DispatchPoint {
        branch: r.dispatch_branch(),
        instrs: DISPATCH_INSTRS,
        fetch: (r.dispatch_branch(), 0),
    };
    let taken = r.kind.is_control().then_some(rdp);
    SlotCode {
        entry: call_site,
        work_instrs: r.work_instrs + CALL_THREAD_INSTRS,
        fetch: (r.addr, r.fetch_len()),
        extra_fetch: (call_site, CALL_SITE_BYTES),
        pre: None,
        fall: None,
        taken,
        alt: None,
    }
}

fn translate_subroutine(spec: &VmSpec, program: &ProgramCode) -> Translation {
    let routines = RoutineTable::build(spec, &SuperTable::empty(), &HashMap::new(), false);
    let mut space = CodeSpace::new(DYNAMIC_BASE);
    // The call table is contiguous, one call per instance, no alignment
    // between sites (it is emitted as one run of code).
    let base = space.alloc(program.len() as u32 * CALL_SITE_BYTES);
    let call_sites: Vec<Addr> =
        (0..program.len()).map(|i| base + i as u64 * u64::from(CALL_SITE_BYTES)).collect();
    let slots = program
        .ops()
        .iter()
        .zip(&call_sites)
        .map(|(&op, &site)| subroutine_slot(site, &routines, op))
        .collect();
    Translation {
        technique: Technique::SubroutineThreading,
        slots,
        code_bytes: space.used(),
        ops: program.ops().to_vec(),
        spec: spec.clone(),
        ctx: QuickCtx::Subroutine { routines: Box::new(routines), call_sites },
    }
}

// ---------------------------------------------------------------------------
// Static family: threaded, static repl, static super, static both
// ---------------------------------------------------------------------------

fn emit_static_unit(
    slots: &mut [SlotCode],
    routines: &RoutineTable,
    picker: &mut ReplicaPicker,
    first: usize,
    len: usize,
    uop: UnitOp,
) {
    let copies = routines.copies(uop);
    let copy = picker.pick(uop, copies);
    let r = routines.routine(uop, copy);
    let dp = DispatchPoint {
        branch: r.dispatch_branch(),
        instrs: DISPATCH_INSTRS,
        fetch: (r.dispatch_branch(), 0),
    };
    let (fall, taken) = kind_dispatch(r.kind, dp);
    slots[first] = SlotCode {
        entry: r.addr,
        work_instrs: r.work_instrs,
        fetch: (r.addr, r.fetch_len()),
        extra_fetch: (0, 0),
        pre: None,
        fall,
        taken,
        alt: None,
    };
    for slot in &mut slots[first + 1..first + len] {
        *slot = SlotCode::merged(r.addr);
    }
}

#[allow(clippy::too_many_arguments)]
fn translate_static_family(
    spec: &VmSpec,
    program: &ProgramCode,
    technique: Technique,
    replica_budget: usize,
    super_budget: usize,
    replica_selection: ReplicaSelection,
    algo: CoverAlgorithm,
    profile: Option<&Profile>,
    selection: SuperSelection,
) -> Translation {
    let table = if super_budget > 0 {
        SuperTable::select(spec, profile.expect("profile"), super_budget, selection)
    } else {
        SuperTable::empty()
    };

    let mut counts: HashMap<UnitOp, u64> = HashMap::new();
    if replica_budget > 0 {
        let prof = profile.expect("profile");
        for (op, c) in prof.op_counts() {
            // Quickable originals execute once each; the paper replicates
            // their quick versions instead (§5.4).
            if spec.native(op).kind != InstKind::Quickable {
                counts.insert(UnitOp::Op(op), c);
            }
        }
        for (sid, def) in table.iter() {
            counts.insert(UnitOp::Super(sid), def.count);
        }
    }
    let extra = allocate_replicas(replica_budget, &counts);

    // Gforth implements static replication by copying at interpreter
    // startup (§6.1), so the replica bytes count as generated code; the
    // JVM's Tiger does it at build time (no run-time code).
    let replica_bytes: u64 = if !selection.startup_replication {
        0
    } else {
        extra
            .iter()
            .map(|(&uop, &n)| {
                let native = match uop {
                    UnitOp::Op(op) => spec.native(op),
                    UnitOp::Super(sid) => table.def(sid).native,
                };
                n as u64 * u64::from(native.work_bytes + DISPATCH_BYTES)
            })
            .sum()
    };

    let routines = RoutineTable::build(spec, &table, &extra, false);
    let mut picker = ReplicaPicker::new(replica_selection);
    let mut slots = vec![SlotCode::merged(0); program.len()];
    let mut block_starts = Vec::new();
    for block in program.blocks() {
        block_starts.push(block.start as u32);
        let ops: Vec<OpId> = block.clone().map(|i| program.op(i)).collect();
        for u in table.cover(&ops, algo) {
            emit_static_unit(
                &mut slots,
                &routines,
                &mut picker,
                block.start + u.start,
                u.len,
                u.super_id.map(UnitOp::Super).unwrap_or(UnitOp::Op(ops[u.start])),
            );
        }
    }

    Translation {
        technique,
        slots,
        code_bytes: replica_bytes,
        ops: program.ops().to_vec(),
        spec: spec.clone(),
        ctx: QuickCtx::Static(Box::new(StaticCtx { routines, table, algo, picker, block_starts })),
    }
}

// ---------------------------------------------------------------------------
// Dynamic family
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DynMode {
    /// One copy per instruction instance.
    Repl,
    /// One region per basic block; `share` reuses identical blocks.
    Super { share: bool },
    /// Regions span fall-through chains of blocks; `cross_bb` additionally
    /// lets static superinstructions span block boundaries.
    Across { cross_bb: bool },
}

/// Code bytes at the end of a copied component.
fn tail_bytes(kind: InstKind, interior: bool) -> u32 {
    match kind {
        InstKind::Plain | InstKind::Quickable => {
            if interior {
                IP_INC_BYTES
            } else {
                DISPATCH_BYTES
            }
        }
        // An interior conditional branch keeps the fall-through increment
        // and embeds a dispatch for the taken path (paper §5.2).
        InstKind::CondBranch => {
            if interior {
                DISPATCH_BYTES + IP_INC_BYTES
            } else {
                DISPATCH_BYTES
            }
        }
        InstKind::Jump | InstKind::Call | InstKind::Return => DISPATCH_BYTES,
    }
}

/// Builds the slot of a *copied* (relocatable) component.
fn dyn_slot(
    entry: Addr,
    native: NativeSpec,
    code_len: u32,
    end_branch: Addr,
    interior: bool,
) -> SlotCode {
    let kind = native.kind;
    let full =
        DispatchPoint { branch: end_branch, instrs: DISPATCH_INSTRS, fetch: (end_branch, 0) };
    let (fall, taken, extra_work) = match kind {
        InstKind::Plain | InstKind::Quickable => {
            if interior {
                (None, None, IP_INC_INSTRS)
            } else {
                (Some(full), None, 0)
            }
        }
        InstKind::CondBranch => {
            if interior {
                // Fall-through keeps only the increment; the taken path
                // pays the rest of the dispatch.
                let taken_dp = DispatchPoint { instrs: DISPATCH_INSTRS - IP_INC_INSTRS, ..full };
                (None, Some(taken_dp), IP_INC_INSTRS)
            } else {
                (Some(full), Some(full), 0)
            }
        }
        InstKind::Jump | InstKind::Call | InstKind::Return => (None, Some(full), 0),
    };
    SlotCode {
        entry,
        work_instrs: native.work_instrs + extra_work,
        fetch: (entry, code_len),
        extra_fetch: (0, 0),
        pre: None,
        fall,
        taken,
        alt: None,
    }
}

/// Builds the slot of a component that executes in the shared base
/// interpreter (non-relocatable instructions or superinstructions, and
/// not-yet-quickened quickables). For an *interior* component (`stub_addr`
/// is `Some`) a dispatch stub in the dynamic code jumps to the original
/// routine; for a region-initial component the threaded-code pointer
/// targets the original directly (paper §5.2/§5.4 — dynamic replication
/// needs no stubs at all). Either way the original routine's own (shared)
/// dispatch continues.
fn external_slot(stub_addr: Option<Addr>, routines: &RoutineTable, uop: UnitOp) -> SlotCode {
    let r = routines.routine(uop, 0);
    let rdp = DispatchPoint {
        branch: r.dispatch_branch(),
        instrs: DISPATCH_INSTRS,
        fetch: (r.dispatch_branch(), 0),
    };
    let (fall, taken) = kind_dispatch(r.kind, rdp);
    SlotCode {
        entry: stub_addr.unwrap_or(r.addr),
        work_instrs: r.work_instrs,
        fetch: (r.addr, r.fetch_len()),
        extra_fetch: (0, 0),
        pre: stub_addr.map(|stub| PreDispatch {
            branch: stub,
            target: r.addr,
            instrs: DISPATCH_INSTRS,
            fetch: (stub, DISPATCH_BYTES),
        }),
        fall,
        taken,
        alt: None,
    }
}

/// One cover unit scheduled for emission into a region.
#[derive(Debug, Clone, Copy)]
struct DynUnit {
    /// Absolute first instance index.
    first: usize,
    /// Component count.
    len: usize,
    /// Static superinstruction implementing the unit, if any.
    super_id: Option<crate::superinst::SuperId>,
}

fn translate_dynamic(
    spec: &VmSpec,
    program: &ProgramCode,
    technique: Technique,
    mode: DynMode,
    table: &SuperTable,
    algo: CoverAlgorithm,
) -> Translation {
    let routines = RoutineTable::build(spec, table, &HashMap::new(), false);
    let mut space = CodeSpace::new(DYNAMIC_BASE);
    let n = program.len();
    let mut slots = vec![SlotCode::merged(0); n];
    let mut gaps: Vec<Option<GapInfo>> = vec![None; n];

    // Group instances into regions.
    let regions: Vec<std::ops::Range<usize>> = match mode {
        DynMode::Repl => (0..n).map(|i| i..i + 1).collect(),
        DynMode::Super { .. } => program.blocks().collect(),
        DynMode::Across { .. } => {
            let mut chains: Vec<std::ops::Range<usize>> = Vec::new();
            for block in program.blocks() {
                let continues = chains.last().is_some_and(|prev| {
                    prev.end == block.start
                        && spec.native(program.op(prev.end - 1)).kind.falls_through()
                });
                if continues {
                    chains.last_mut().expect("nonempty").end = block.end;
                } else {
                    chains.push(block);
                }
            }
            chains
        }
    };

    // Shared-region cache for `dynamic super`.
    let mut shared: HashMap<Vec<OpId>, (Addr, Vec<SlotCode>)> = HashMap::new();

    for region in regions {
        let region_ops: Vec<OpId> = region.clone().map(|i| program.op(i)).collect();

        // Sharing applies only to `dynamic super`, and only to regions with
        // no quickable sites (their patch gaps cannot be shared).
        let sharable = matches!(mode, DynMode::Super { share: true })
            && !region_ops.iter().any(|&op| spec.native(op).kind == InstKind::Quickable);
        if sharable {
            if let Some((_, cached)) = shared.get(&region_ops) {
                for (k, i) in region.clone().enumerate() {
                    slots[i] = cached[k].clone();
                }
                continue;
            }
        }

        // Parse the region into units.
        let units: Vec<DynUnit> = match mode {
            DynMode::Repl | DynMode::Super { .. } => {
                region.clone().map(|i| DynUnit { first: i, len: 1, super_id: None }).collect()
            }
            DynMode::Across { cross_bb } => {
                if table.is_empty() {
                    region.clone().map(|i| DynUnit { first: i, len: 1, super_id: None }).collect()
                } else if cross_bb {
                    table
                        .cover(&region_ops, algo)
                        .into_iter()
                        .map(|u| DynUnit {
                            first: region.start + u.start,
                            len: u.len,
                            super_id: u.super_id,
                        })
                        .collect()
                } else {
                    let mut units = Vec::new();
                    for block in
                        program.blocks().filter(|b| b.start >= region.start && b.end <= region.end)
                    {
                        let ops: Vec<OpId> = block.clone().map(|i| program.op(i)).collect();
                        for u in table.cover(&ops, algo) {
                            units.push(DynUnit {
                                first: block.start + u.start,
                                len: u.len,
                                super_id: u.super_id,
                            });
                        }
                    }
                    units
                }
            }
        };

        // Pass 1: component sizes.
        let sizes: Vec<u32> = units
            .iter()
            .enumerate()
            .map(|(k, u)| {
                let interior = k + 1 < units.len();
                let stub = if k == 0 { 0 } else { DISPATCH_BYTES };
                let native = unit_native(spec, table, program, u);
                match native.kind {
                    InstKind::Quickable => {
                        stub.max(spec.max_quick_bytes(program.op(u.first))) + DISPATCH_BYTES
                    }
                    _ if !native.relocatable => stub,
                    kind => native.work_bytes + tail_bytes(kind, interior),
                }
            })
            .collect();
        let total: u32 = sizes.iter().sum();
        let base = space.alloc(total);

        // Pass 2: emit slots.
        let mut off: u32 = 0;
        for (k, (u, &size)) in units.iter().zip(&sizes).enumerate() {
            let interior = k + 1 < units.len();
            let addr = base + u64::from(off);
            let native = unit_native(spec, table, program, u);
            let op = program.op(u.first);
            let stub = (k > 0).then_some(addr);
            if native.kind == InstKind::Quickable {
                slots[u.first] = external_slot(stub, &routines, UnitOp::Op(op));
                gaps[u.first] = Some(GapInfo {
                    gap_addr: addr,
                    gap_bytes: size,
                    interior,
                    end_branch: addr + u64::from(size) - 4,
                });
            } else if !native.relocatable {
                // A non-relocatable unit (single instruction or static
                // superinstruction) executes in the interpreter text; mid
                // slots of a super unit are merged into it.
                let uop = u.super_id.map(UnitOp::Super).unwrap_or(UnitOp::Op(op));
                slots[u.first] = external_slot(stub, &routines, uop);
                let routine_entry = routines.routine(uop, 0).addr;
                for slot in &mut slots[u.first + 1..u.first + u.len] {
                    *slot = SlotCode::merged(routine_entry);
                }
            } else {
                let end_branch = addr + u64::from(size) - 4;
                slots[u.first] = dyn_slot(addr, native, size, end_branch, interior);
                for slot in &mut slots[u.first + 1..u.first + u.len] {
                    *slot = SlotCode::merged(addr);
                }
                // Side-entry fallback for cross-block superinstructions
                // (paper Figure 6): leaders inside a fused unit execute the
                // shared base routines until the unit ends.
                if u.len > 1 && (u.first + 1..u.first + u.len).any(|i| program.is_leader(i)) {
                    #[allow(clippy::needless_range_loop)] // indexes two tables
                    for mid in u.first + 1..u.first + u.len {
                        let mop = program.op(mid);
                        let r = routines.routine(UnitOp::Op(mop), 0);
                        slots[mid].alt = Some(AltCode {
                            entry: r.addr,
                            work_instrs: r.work_instrs,
                            fetch: (r.addr, r.fetch_len()),
                            fall: DispatchPoint {
                                branch: r.dispatch_branch(),
                                instrs: DISPATCH_INSTRS,
                                fetch: (r.dispatch_branch(), 0),
                            },
                            until: (u.first + u.len - 1) as u32,
                        });
                    }
                }
            }
            off += size;
        }

        if sharable {
            let cached: Vec<SlotCode> = region.clone().map(|i| slots[i].clone()).collect();
            shared.insert(region_ops, (base, cached));
        }
    }

    Translation {
        technique,
        slots,
        code_bytes: space.used(),
        ops: program.ops().to_vec(),
        spec: spec.clone(),
        ctx: QuickCtx::Dynamic { gaps },
    }
}

fn unit_native(
    spec: &VmSpec,
    table: &SuperTable,
    program: &ProgramCode,
    u: &DynUnit,
) -> NativeSpec {
    match u.super_id {
        Some(sid) => table.def(sid).native,
        None => spec.native(program.op(u.first)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::native::{SWITCH_BREAK_INSTRS, SWITCH_DISPATCH_INSTRS};
    use crate::profile::Profile;
    use crate::spec::VmSpecBuilder;

    pub(crate) struct Fixture {
        pub(crate) spec: VmSpec,
        pub(crate) plain_a: OpId,
        pub(crate) plain_b: OpId,
        pub(crate) nonreloc: OpId,
        pub(crate) cond: OpId,
        pub(crate) jump: OpId,
        pub(crate) call: OpId,
        pub(crate) ret: OpId,
        pub(crate) quick: OpId,
        pub(crate) quickable: OpId,
    }

    pub(crate) fn fixture() -> Fixture {
        let mut b: VmSpecBuilder = VmSpec::builder("tx");
        let plain_a = b.inst("a", NativeSpec::new(2, 6, InstKind::Plain));
        let plain_b = b.inst("b", NativeSpec::new(3, 9, InstKind::Plain));
        let nonreloc = b.inst("nr", NativeSpec::new(4, 12, InstKind::Plain).non_relocatable());
        let cond = b.inst("cond", NativeSpec::new(3, 12, InstKind::CondBranch));
        let jump = b.inst("jump", NativeSpec::new(2, 8, InstKind::Jump));
        let call = b.inst("call", NativeSpec::new(4, 12, InstKind::Call));
        let ret = b.inst("ret", NativeSpec::new(3, 10, InstKind::Return));
        let quick = b.inst("gq", NativeSpec::new(4, 12, InstKind::Plain));
        let quickable = b.quickable("g", NativeSpec::new(40, 80, InstKind::Plain), vec![quick]);
        Fixture {
            spec: b.build(),
            plain_a,
            plain_b,
            nonreloc,
            cond,
            jump,
            call,
            ret,
            quick,
            quickable,
        }
    }

    /// a b a cond(->0) | ret
    pub(crate) fn loop_program(f: &Fixture) -> ProgramCode {
        let mut p = ProgramCode::builder("t");
        p.push(f.plain_a, None);
        p.push(f.plain_b, None);
        p.push(f.plain_a, None);
        p.push(f.cond, Some(0));
        p.push(f.ret, None);
        p.finish(&f.spec)
    }

    #[test]
    fn switch_slots_share_one_branch() {
        let f = fixture();
        let program = loop_program(&f);
        let t = translate(&f.spec, &program, Technique::Switch, None, SuperSelection::gforth());
        let branches: Vec<_> =
            t.slots().iter().filter_map(|s| s.fall.or(s.taken)).map(|dp| dp.branch).collect();
        assert!(branches.windows(2).all(|w| w[0] == w[1]), "one shared switch branch");
        // Same opcode, same case entry; switch pays the shared dispatch.
        assert_eq!(t.slot(0).entry, t.slot(2).entry);
        let dp = t.slot(0).fall.expect("dispatch");
        assert_eq!(dp.instrs, SWITCH_DISPATCH_INSTRS);
        assert_eq!(t.slot(0).work_instrs, 2 + SWITCH_BREAK_INSTRS);
    }

    #[test]
    fn threaded_slots_share_per_opcode_branches() {
        let f = fixture();
        let program = loop_program(&f);
        let t = translate(&f.spec, &program, Technique::Threaded, None, SuperSelection::gforth());
        // Two instances of `a` share one routine (and branch); `b` differs.
        assert_eq!(t.slot(0).entry, t.slot(2).entry);
        assert_ne!(t.slot(0).entry, t.slot(1).entry);
        assert_eq!(t.slot(0).fall, t.slot(2).fall);
        // Conditional branch uses one dispatch for both exits.
        assert_eq!(t.slot(3).fall, t.slot(3).taken);
        // Return has no fall-through.
        assert!(t.slot(4).fall.is_none() && t.slot(4).taken.is_some());
        assert_eq!(t.code_bytes(), 0);
    }

    #[test]
    fn static_replication_splits_instances() {
        let f = fixture();
        let program = loop_program(&f);
        let mut profile = Profile::new();
        profile.record_op(f.plain_a, 1000);
        profile.record_op(f.plain_b, 10);
        let t = translate(
            &f.spec,
            &program,
            Technique::StaticRepl { budget: 8, selection: ReplicaSelection::RoundRobin },
            Some(&profile),
            SuperSelection::gforth(),
        );
        // `a` got nearly all replicas; round-robin gives its two instances
        // different copies.
        assert_ne!(t.slot(0).entry, t.slot(2).entry);
        // Startup replication accounts generated code.
        assert!(t.code_bytes() > 0);
    }

    #[test]
    fn dynamic_repl_gives_every_instance_its_own_branch() {
        let f = fixture();
        let program = loop_program(&f);
        let t =
            translate(&f.spec, &program, Technique::DynamicRepl, None, SuperSelection::gforth());
        let entries: Vec<_> = t.slots().iter().map(|s| s.entry).collect();
        let mut dedup = entries.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), entries.len(), "no shared entries: {entries:?}");
        assert!(t.slots().iter().all(|s| s.pre.is_none()), "repl never needs stubs");
    }

    #[test]
    fn nonrelocatable_is_interior_stub_or_direct() {
        let f = fixture();
        // Block: a nr a cond | ret  -- nr is interior under dynamic super.
        let mut p = ProgramCode::builder("t");
        p.push(f.plain_a, None);
        p.push(f.nonreloc, None);
        p.push(f.plain_a, None);
        p.push(f.cond, Some(0));
        p.push(f.ret, None);
        let program = p.finish(&f.spec);

        let t =
            translate(&f.spec, &program, Technique::DynamicSuper, None, SuperSelection::gforth());
        let stub = t.slot(1);
        assert!(stub.pre.is_some(), "interior non-relocatable uses a dispatch stub");
        assert_eq!(stub.pre.expect("stub").target, stub.fetch.0, "stub jumps to the original");

        // Region-initial non-relocatable: threaded pointer goes direct.
        let mut p = ProgramCode::builder("t2");
        p.push(f.nonreloc, None);
        p.push(f.cond, Some(0));
        p.push(f.ret, None);
        let program = p.finish(&f.spec);
        let t =
            translate(&f.spec, &program, Technique::DynamicSuper, None, SuperSelection::gforth());
        assert!(t.slot(0).pre.is_none(), "region-initial non-relocatable is direct");
    }

    #[test]
    fn quick_gap_is_patched_in_place() {
        let f = fixture();
        let mut p = ProgramCode::builder("t");
        p.push(f.plain_a, None);
        p.push(f.quickable, None);
        p.push(f.plain_b, None);
        p.push(f.ret, None);
        let program = p.finish(&f.spec);
        let mut t =
            translate(&f.spec, &program, Technique::AcrossBb, None, SuperSelection::gforth());
        let entry_before = t.slot(1).entry;
        let pre_before = t.slot(1).pre;
        assert!(pre_before.is_some(), "pre-quickening dispatches to the original");
        t.quicken(1, f.quick);
        assert_eq!(t.slot(1).entry, entry_before, "patching reuses the gap address");
        assert!(t.slot(1).pre.is_none(), "quick code replaces the stub");
        assert!(t.slot(1).fall.is_none(), "interior quick code falls through");
        assert_eq!(t.op(1), f.quick);
    }

    #[test]
    #[should_panic(expected = "not a quick variant")]
    fn quicken_rejects_wrong_variant() {
        let f = fixture();
        let mut p = ProgramCode::builder("t");
        p.push(f.quickable, None);
        p.push(f.ret, None);
        let program = p.finish(&f.spec);
        let mut t =
            translate(&f.spec, &program, Technique::Threaded, None, SuperSelection::gforth());
        t.quicken(0, f.plain_a);
    }

    #[test]
    #[should_panic(expected = "is not quickable")]
    fn quicken_rejects_non_quickable_site() {
        let f = fixture();
        let program = loop_program(&f);
        let mut t =
            translate(&f.spec, &program, Technique::Threaded, None, SuperSelection::gforth());
        t.quicken(0, f.quick);
    }

    #[test]
    fn blocks_with_quickables_are_never_shared() {
        let f = fixture();
        // Two identical blocks containing a quickable site.
        let mut p = ProgramCode::builder("t");
        p.push(f.quickable, None); // 0
        p.push(f.jump, Some(4)); // 1
        p.push(f.quickable, None); // 2 (identical content to block 0)
        p.push(f.jump, Some(4)); // 3
        p.push(f.ret, None); // 4
        let program = p.finish(&f.spec);
        let mut t =
            translate(&f.spec, &program, Technique::DynamicSuper, None, SuperSelection::gforth());
        // Pre-quickening both sites run the shared base routine...
        assert_eq!(t.slot(0).entry, t.slot(2).entry);
        // ...but their patch gaps are private: after quickening, each site
        // has its own code (sharing the gap would corrupt patching).
        t.quicken(0, f.quick);
        t.quicken(2, f.quick);
        assert_ne!(t.slot(0).entry, t.slot(2).entry, "patch gaps cannot be shared between sites");
    }

    #[test]
    fn across_bb_merges_through_calls_and_breaks_at_jumps() {
        let f = fixture();
        let mut p = ProgramCode::builder("t");
        p.push(f.plain_a, None); // 0
        p.push(f.call, Some(5)); // 1: call f
        p.push(f.plain_b, None); // 2: continues the region (entered by return)
        p.push(f.jump, Some(0)); // 3: ends the region
        p.push(f.plain_a, None); // 4: new region (unreachable by fall-through)
        p.push(f.plain_b, None); // 5: function body (target of call)
        p.push(f.ret, None); // 6
        p.mark_entry(5);
        let program = p.finish(&f.spec);
        let t = translate(&f.spec, &program, Technique::AcrossBb, None, SuperSelection::gforth());
        // 0 -> 1 merged; call has a taken dispatch but no fall.
        assert!(t.slot(0).fall.is_none());
        assert!(t.slot(1).taken.is_some() && t.slot(1).fall.is_none());
        // 2 is mid-region with its own entry address (kept ip increments).
        assert!(t.slot(2).entry > t.slot(0).entry);
        assert!(t.slot(2).fall.is_none(), "2 -> 3 merged");
        // 3 (jump) dispatches; 4 starts a fresh region.
        assert!(t.slot(3).taken.is_some());
        assert!(t.slot(4).entry > t.slot(3).entry);
    }

    #[test]
    fn cross_block_static_supers_get_side_entries() {
        let f = fixture();
        // Region: a b | a b (leader at 2, target of cond) with super [a,b]
        // crossing the leader? Build: a b a b cond(->2) ret.
        let mut p = ProgramCode::builder("t");
        p.push(f.plain_a, None); // 0
        p.push(f.plain_b, None); // 1
        p.push(f.plain_a, None); // 2 <- branch target (leader)
        p.push(f.plain_b, None); // 3
        p.push(f.cond, Some(2)); // 4
        p.push(f.ret, None); // 5
        let program = p.finish(&f.spec);
        let mut profile = Profile::new();
        // Train a 4-long super so the cover spans the leader at 2.
        profile.record_block(&[f.plain_a, f.plain_b, f.plain_a, f.plain_b], 100);
        let t = translate(
            &f.spec,
            &program,
            Technique::WithStaticSuperAcross { supers: 4, algo: CoverAlgorithm::Greedy },
            Some(&profile),
            SuperSelection::gforth(),
        );
        // The fused unit covers 0..4; slots 1..3 carry side-entry alt code.
        assert!(t.slot(0).alt.is_none());
        let alt = t.slot(2).alt.expect("leader inside a fused unit needs alt");
        assert_eq!(alt.until, 3);
        assert!(t.slot(3).alt.is_some());
        // The non-Across variant never fuses across the leader.
        let t2 = translate(
            &f.spec,
            &program,
            Technique::WithStaticSuper { supers: 4, algo: CoverAlgorithm::Greedy },
            Some(&profile),
            SuperSelection::gforth(),
        );
        assert!(t2.slots().iter().all(|s| s.alt.is_none()));
    }

    #[test]
    fn static_quicken_reparses_the_block_into_supers() {
        let f = fixture();
        // Block: a quickable b ret; super [a, gq, b] only applies after
        // quickening (paper §5.4: re-parse on quicken).
        let mut p = ProgramCode::builder("t");
        p.push(f.plain_a, None);
        p.push(f.quickable, None);
        p.push(f.plain_b, None);
        p.push(f.ret, None);
        let program = p.finish(&f.spec);
        let mut profile = Profile::new();
        profile.record_block(&[f.plain_a, f.quick, f.plain_b], 100);
        let mut t = translate(
            &f.spec,
            &program,
            Technique::StaticSuper { budget: 4, algo: CoverAlgorithm::Greedy },
            Some(&profile),
            SuperSelection::gforth(),
        );
        // Before quickening: three separate units (quickable blocks supers).
        assert!(t.slot(1).fall.is_some());
        let b_entry_before = t.slot(2).entry;
        t.quicken(1, f.quick);
        // After: the whole block is one superinstruction; instances 1 and 2
        // merged into instance 0's unit.
        assert!(t.slot(1).fall.is_none(), "now mid-superinstruction");
        assert!(t.slot(2).fall.is_none() || t.slot(2).entry != b_entry_before);
        assert_eq!(t.op(1), f.quick);
    }

    #[test]
    fn translation_debug_is_informative() {
        let f = fixture();
        let program = loop_program(&f);
        let t = translate(&f.spec, &program, Technique::Threaded, None, SuperSelection::gforth());
        let dbg = format!("{t:?}");
        assert!(dbg.contains("Translation") && dbg.contains("instances"));
    }
}

#[cfg(test)]
mod subroutine_tests {
    use super::tests::{fixture, loop_program};
    use super::*;

    #[test]
    fn call_table_is_one_site_per_instance() {
        let f = fixture();
        let program = loop_program(&f);
        let t = translate(
            &f.spec,
            &program,
            Technique::SubroutineThreading,
            None,
            SuperSelection::gforth(),
        );
        // Entries are consecutive call sites; no indirect dispatch on the
        // fall-through path.
        for i in 0..program.len() - 1 {
            assert!(t.slot(i).fall.is_none(), "instance {i} must not dispatch");
            assert_eq!(t.slot(i + 1).entry - t.slot(i).entry, u64::from(CALL_SITE_BYTES));
        }
        // Plain instructions have no taken dispatch either; control ops do.
        assert!(t.slot(0).taken.is_none());
        assert!(t.slot(3).taken.is_some(), "cond branch keeps an indirect jump");
        assert_eq!(t.code_bytes(), program.len() as u64 * u64::from(CALL_SITE_BYTES));
        // Every instance pays the call/return pair.
        assert_eq!(t.slot(0).work_instrs, 2 + CALL_THREAD_INSTRS);
        assert_eq!(t.slot(0).extra_fetch.1, CALL_SITE_BYTES);
    }

    #[test]
    fn quickening_retargets_the_call() {
        let f = fixture();
        let mut p = ProgramCode::builder("t");
        p.push(f.quickable, None);
        p.push(f.ret, None);
        let program = p.finish(&f.spec);
        let mut t = translate(
            &f.spec,
            &program,
            Technique::SubroutineThreading,
            None,
            SuperSelection::gforth(),
        );
        let site = t.slot(0).entry;
        let work_before = t.slot(0).work_instrs;
        t.quicken(0, f.quick);
        assert_eq!(t.slot(0).entry, site, "call site address is stable");
        assert!(t.slot(0).work_instrs < work_before, "quick routine is cheaper");
    }
}
