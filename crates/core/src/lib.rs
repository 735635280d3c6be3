//! Core of the interpreter-dispatch reproduction: the code-layout model,
//! the static and dynamic replication/superinstruction techniques, and the
//! instrumented dispatch engine.
//!
//! The pipeline mirrors the paper's:
//!
//! 1. A VM crate describes its instruction set as a [`VmSpec`] (compiled
//!    shapes per instruction, [`NativeSpec`]) and loads programs as
//!    [`ProgramCode`] (opcode stream + control structure).
//! 2. [`translate`] turns the program into a [`Translation`] for a chosen
//!    [`Technique`] — plain threaded code, switch dispatch, static
//!    replication/superinstructions, or one of the dynamic code-copying
//!    variants (paper §5). Static techniques train on a [`Profile`].
//! 3. The VM interprets the program for real, reporting control transfers
//!    and quickenings through [`VmEvents`]; a [`Measurement`] couples the
//!    translation with an [`Engine`] over simulated hardware
//!    ([`ivm_cache::CpuSpec`]) and accumulates the paper's performance
//!    counters.
//!
//! # Examples
//!
//! ```
//! use ivm_core::{
//!     translate, Engine, Measurement, ProgramCode, SuperSelection,
//!     Technique, VmEvents, VmSpec, NativeSpec, InstKind,
//! };
//! use ivm_cache::CpuSpec;
//!
//! // A two-instruction VM and a trivial loop program.
//! let mut b = VmSpec::builder("demo");
//! let work = b.inst("work", NativeSpec::new(3, 9, InstKind::Plain));
//! let loop_ = b.inst("loop", NativeSpec::new(3, 12, InstKind::CondBranch));
//! let spec = b.build();
//! let mut p = ProgramCode::builder("spin");
//! p.push(work, None);
//! p.push(loop_, Some(0));
//! let program = p.finish(&spec);
//!
//! // Translate for plain threaded code and "execute" 10 iterations.
//! let t = translate(&spec, &program, Technique::Threaded, None, SuperSelection::gforth());
//! let mut m = Measurement::new(t, Engine::for_cpu(&CpuSpec::celeron800()));
//! m.begin(0);
//! for _ in 0..10 {
//!     m.transfer(0, 1, false);
//!     m.transfer(1, 0, true);
//! }
//! let (result, ()) = m.finish();
//! assert!(result.counters.instructions > 0);
//! assert!(result.cycles > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod dtrace;
mod engine;
mod events;
mod guest;
mod layout;
mod measure;
mod native;
mod profile;
mod program;
mod replicate;
mod slots;
mod spec;
mod superinst;
mod technique;
mod trace;
mod translate;

pub use cache::Memo;
pub use dtrace::{
    dispatch_spec_hash, simulate_many, DispatchTrace, DtraceError, IntervalBbv, IntervalIndex,
    SpecHasher, DTRACE_MAGIC, DTRACE_VERSION,
};
pub use engine::{DispatchObserver, Engine, Measurement, RunResult};
pub use events::{NullEvents, VmEvents};
pub use guest::{GuestVm, VmError, VmOutput};
pub use layout::{CodeSpace, Routine, RoutineTable, DYNAMIC_BASE, STATIC_BASE};
pub use measure::{measure, measure_trace, measure_trace_with, measure_with, profile, record};
pub use native::{
    align_up, static_super_spec, InstKind, NativeSpec, CODE_ALIGN, DISPATCH_BYTES, DISPATCH_INSTRS,
    IP_INC_BYTES, IP_INC_INSTRS, STATIC_SUPER_SAVINGS_BYTES, STATIC_SUPER_SAVINGS_INSTRS,
    SWITCH_BREAK_BYTES, SWITCH_BREAK_INSTRS, SWITCH_DISPATCH_BYTES, SWITCH_DISPATCH_INSTRS,
};
pub use profile::{Profile, ProfileCollector};
pub use program::{ProgramBuilder, ProgramCode};
pub use replicate::{allocate_replicas, ReplicaPicker, UnitOp};
pub use slots::{AltCode, DispatchPoint, PreDispatch, SlotCode};
pub use spec::{InstDef, OpId, VmSpec, VmSpecBuilder};
pub use superinst::{is_super_component, CoverUnit, SuperDef, SuperId, SuperSelection, SuperTable};
pub use technique::{CoverAlgorithm, ParseTechniqueError, ReplicaSelection, Technique};
pub use trace::ExecutionTrace;
pub use translate::{translate, Translation};

/// A simulated native-code address (re-exported from [`ivm_bpred`]).
pub use ivm_bpred::Addr;
