//! The measurement pipeline: profile, translate and measure any
//! [`GuestVm`] program on a simulated machine.
//!
//! These six entry points used to exist per frontend; they are generic
//! over the [`GuestVm`] seam now, so every interpreter — Forth, mini-JVM,
//! the calculator VM, and whatever comes next — is profiled, translated
//! and measured by exactly the same code.
//!
//! Every phase is wrapped in an `ivm_harness::span` guard (`train`,
//! `translate`, `execute`, `simulate`, `record`), so pipeline runs are
//! wall-time-attributable end to end; the spans only watch the clock and
//! never influence a measured statistic.

use ivm_cache::CpuSpec;
use ivm_harness::span;

use crate::engine::{DispatchObserver, Engine, Measurement, RunResult};
use crate::guest::{GuestVm, VmError, VmOutput};
use crate::profile::{Profile, ProfileCollector};
use crate::technique::Technique;
use crate::trace::ExecutionTrace;
use crate::translate::translate;

/// Collects a training profile by running `vm` once.
///
/// The collector tracks quickening, so for quickening VMs the profile is
/// expressed in terms of quick opcodes — what static selection needs
/// (paper §5.4).
///
/// # Errors
///
/// Propagates any [`VmError`] from the training run.
pub fn profile<G: GuestVm + ?Sized>(vm: &G) -> Result<Profile, VmError> {
    let _span = span::enter("train");
    let mut collector = ProfileCollector::new(vm.program());
    vm.execute(&mut collector, vm.default_fuel())?;
    Ok(collector.into_profile())
}

/// Runs `vm` under `technique` on `cpu`, returning the run result and the
/// program output.
///
/// `training` supplies the profile for static techniques (pass the
/// profile of a *different* program to reproduce the paper's
/// cross-training setup, or this program's own profile for
/// self-training).
///
/// # Errors
///
/// Propagates any [`VmError`] from the measured run.
///
/// # Panics
///
/// Panics if `technique` needs a profile and `training` is `None`.
pub fn measure<G: GuestVm + ?Sized>(
    vm: &G,
    technique: Technique,
    cpu: &CpuSpec,
    training: Option<&Profile>,
) -> Result<(RunResult, VmOutput), VmError> {
    measure_with(vm, technique, Engine::for_cpu(cpu), training)
}

/// Like [`measure`], but with a caller-supplied [`Engine`] — for
/// experiments that vary the predictor or fetch path independently of the
/// CPU presets (e.g. BTB size sweeps, two-level predictors).
///
/// # Errors
///
/// Propagates any [`VmError`] from the measured run.
///
/// # Panics
///
/// Panics if `technique` needs a profile and `training` is `None`.
pub fn measure_with<G: GuestVm + ?Sized>(
    vm: &G,
    technique: Technique,
    engine: Engine,
    training: Option<&Profile>,
) -> Result<(RunResult, VmOutput), VmError> {
    let translation = {
        let _span = span::enter("translate");
        translate(vm.spec(), vm.program(), technique, training, vm.super_selection())
    };
    let mut measurement = Measurement::new(translation, engine);
    let output = {
        let _span = span::enter("execute");
        vm.execute(&mut measurement, vm.default_fuel())?
    };
    Ok((measurement.finish().0, output))
}

/// Records one run of `vm` as an [`ExecutionTrace`] (plus its output),
/// for replaying against many translations with [`measure_trace`] — much
/// faster than re-interpreting in parameter sweeps.
///
/// # Errors
///
/// Propagates any [`VmError`] from the recording run.
pub fn record<G: GuestVm + ?Sized>(vm: &G) -> Result<(ExecutionTrace, VmOutput), VmError> {
    let _span = span::enter("record");
    let mut trace = ExecutionTrace::new();
    let output = vm.execute(&mut trace, vm.default_fuel())?;
    Ok((trace, output))
}

/// Replays a recorded trace of `vm` under `technique` on `cpu`.
///
/// # Panics
///
/// Panics if `technique` needs a profile and `training` is `None`.
pub fn measure_trace<G: GuestVm + ?Sized>(
    vm: &G,
    trace: &ExecutionTrace,
    technique: Technique,
    cpu: &CpuSpec,
    training: Option<&Profile>,
) -> RunResult {
    measure_trace_with(vm, trace, technique, Engine::for_cpu(cpu), training).0
}

/// Like [`measure_trace`], but with a caller-supplied [`Engine`] — the
/// trace-replay counterpart of [`measure_with`] — returning the engine's
/// observer next to the result. Attach an observer with
/// [`Engine::with_observer`] to capture the replay's dispatch stream
/// (e.g. into a [`crate::DispatchTrace`]) while measuring.
///
/// # Panics
///
/// Panics if `technique` needs a profile and `training` is `None`.
pub fn measure_trace_with<G: GuestVm + ?Sized, O: DispatchObserver>(
    vm: &G,
    trace: &ExecutionTrace,
    technique: Technique,
    engine: Engine<O>,
    training: Option<&Profile>,
) -> (RunResult, O) {
    let translation = {
        let _span = span::enter("translate");
        translate(vm.spec(), vm.program(), technique, training, vm.super_selection())
    };
    let mut measurement = Measurement::new(translation, engine);
    {
        let _span = span::enter("simulate");
        trace.replay(&mut measurement);
    }
    measurement.finish()
}
