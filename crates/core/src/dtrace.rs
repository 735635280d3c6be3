//! Compact binary dispatch traces: capture the predictor-input stream of
//! one run, then sweep any number of predictors over it in a single pass.
//!
//! A [`crate::ExecutionTrace`] records the *semantic* control flow of a
//! run (instance indices); a [`DispatchTrace`] records what the branch
//! predictor actually sees — the `(branch, target)` native-address pair
//! of every executed indirect dispatch, in execution order, exactly the
//! stream a [`crate::DispatchObserver`] sees. Because control
//! flow never depends on the predictor, one replay of the interpreter
//! serves *every* predictor configuration a study wants to evaluate:
//! [`PredictorSweep`] feeds the stream through all of them as the replay
//! produces it, and [`simulate_many`] does the same over a stored
//! trace.
//!
//! # Binary format (version 3)
//!
//! ```text
//! magic      4  b"IVMT"
//! version    4  u32 LE
//! spec_hash  8  u64 LE   — invalidation key (see below)
//! tech_len   4  u32 LE   — length of the technique id
//! technique  n  UTF-8    — Technique::id() of the captured translation
//! count      8  u64 LE   — number of dispatch events
//! events     …  per event: zigzag-varint delta of the branch address
//!               from the previous event's branch, then zigzag-varint
//!               delta of the target address from the previous target
//! ```
//!
//! Dispatch branches are heavily repeated and targets cluster around the
//! routine table, so delta + LEB128 varint encoding stores most events in
//! 2–4 bytes instead of 16. The `spec_hash` is an FNV-1a fingerprint of
//! everything the stream depends on (instruction set, program, technique
//! parameters, training profile for static techniques — see
//! [`SpecHasher`]); a store finding a trace whose header hash differs
//! from the freshly computed one must discard and recapture.
//!
//! The file holds the stream and nothing derived from it: studies that
//! slice the stream into intervals compute the slicing in memory with
//! [`DispatchTrace::interval_index`].

use std::collections::HashMap;

use ivm_bpred::{Addr, AnyPredictor, PredStats};

use crate::engine::DispatchObserver;
use crate::native::InstKind;
use crate::profile::Profile;
use crate::program::ProgramCode;
use crate::spec::VmSpec;
use crate::technique::Technique;
use crate::trace::checked_u32;

/// File magic of the dispatch-trace format.
pub const DTRACE_MAGIC: [u8; 4] = *b"IVMT";

/// Current version of the dispatch-trace format. Bump on any layout
/// change; the decoder accepts this version only, so files written under
/// an earlier layout fail with [`DtraceError::BadVersion`] and a trace
/// store recaptures them.
pub const DTRACE_VERSION: u32 = 3;

/// Why a byte buffer failed to decode as a [`DispatchTrace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DtraceError {
    /// The buffer does not start with [`DTRACE_MAGIC`].
    BadMagic,
    /// The version field is not [`DTRACE_VERSION`].
    BadVersion(u32),
    /// The buffer ends before the declared header or event count.
    Truncated,
    /// A varint ran past 10 bytes (not a canonical u64 encoding).
    BadVarint,
    /// The technique id is not valid UTF-8.
    BadTechnique,
    /// Bytes remain after the declared number of events.
    TrailingBytes,
}

impl std::fmt::Display for DtraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DtraceError::BadMagic => write!(f, "not a dispatch trace (bad magic)"),
            DtraceError::BadVersion(v) => {
                write!(f, "unsupported dispatch-trace version {v} (expected {DTRACE_VERSION})")
            }
            DtraceError::Truncated => write!(f, "dispatch trace is truncated"),
            DtraceError::BadVarint => write!(f, "dispatch trace has a malformed varint"),
            DtraceError::BadTechnique => write!(f, "dispatch trace technique id is not UTF-8"),
            DtraceError::TrailingBytes => write!(f, "dispatch trace has trailing bytes"),
        }
    }
}

impl std::error::Error for DtraceError {}

/// FNV-1a accumulator for the `spec_hash` header field.
///
/// Deliberately not `std::hash::Hasher`: the stream hashed here must be
/// stable across processes, platforms and Rust versions, because the hash
/// is persisted inside trace files and compared on reload.
///
/// # Examples
///
/// ```
/// use ivm_core::SpecHasher;
///
/// let h = SpecHasher::new().str("forth").u64(42).finish();
/// assert_eq!(h, SpecHasher::new().str("forth").u64(42).finish());
/// assert_ne!(h, SpecHasher::new().str("forth").u64(43).finish());
/// ```
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct SpecHasher(u64);

impl SpecHasher {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes into the hash.
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Folds a `u64` (little-endian) into the hash.
    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds a length-prefixed string into the hash (prefixing keeps
    /// `"ab" + "c"` distinct from `"a" + "bc"`).
    pub fn str(self, s: &str) -> Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// The accumulated hash.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for SpecHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// The invalidation hash for a dispatch trace of `program` running on
/// `spec` translated with `technique`.
///
/// Folds in everything the captured `(branch, target)` stream can depend
/// on: the instruction set (names, shapes, quickening variants), the
/// program's opcode stream and control structure, the fully-parameterised
/// [`Technique::id`], and — only when [`Technique::needs_profile`] — the
/// training profile, via its canonical text form. A cached
/// trace whose header hash differs from this value is stale and must be
/// recaptured. Profile-independent techniques deliberately ignore
/// `training`, so every caller computes the same hash for them regardless
/// of which (unused) profile it happens to hold.
pub fn dispatch_spec_hash(
    spec: &VmSpec,
    program: &ProgramCode,
    technique: Technique,
    training: Option<&Profile>,
) -> u64 {
    fn kind_tag(k: InstKind) -> u64 {
        match k {
            InstKind::Plain => 0,
            InstKind::CondBranch => 1,
            InstKind::Jump => 2,
            InstKind::Call => 3,
            InstKind::Return => 4,
            InstKind::Quickable => 5,
        }
    }
    let mut h = SpecHasher::new().str("ivm-dtrace-spec-v1").str(spec.vm_name());
    h = h.u64(spec.len() as u64);
    for (_, def) in spec.iter() {
        h = h
            .str(&def.name)
            .u64(u64::from(def.native.work_instrs))
            .u64(u64::from(def.native.work_bytes))
            .u64(u64::from(def.native.relocatable))
            .u64(kind_tag(def.native.kind));
        h = h.u64(def.quick_variants.len() as u64);
        for &q in &def.quick_variants {
            h = h.u64(u64::from(q));
        }
    }
    h = h.str(program.name()).u64(program.len() as u64);
    for i in 0..program.len() {
        h = h.u64(u64::from(program.op(i)));
        // Encode Some(0) distinctly from None.
        h = h.u64(program.target(i).map_or(0, |t| t as u64 + 1));
    }
    h = h.u64(program.extra_entries().len() as u64);
    for &e in program.extra_entries() {
        h = h.u64(u64::from(e));
    }
    h = h.str(&technique.id());
    if technique.needs_profile() {
        match training {
            Some(p) => h = h.str("profile").str(&p.to_text()),
            None => h = h.str("no-profile"),
        }
    }
    h.finish()
}

/// One interval slice's basic-block frequency vector.
///
/// `bbv` is sparse — `(dim, count)` pairs in ascending `dim` order, where
/// `dim` indexes the owning [`IntervalIndex::dims`] dictionary of
/// distinct dispatch-branch addresses — and its counts sum to `len`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalBbv {
    /// Index of the interval's first event in the stream.
    pub start: u64,
    /// Number of events in the interval (the last interval may be short).
    pub len: u64,
    /// Sparse frequency vector over the dictionary, ascending by dim.
    pub bbv: Vec<(u32, u64)>,
}

/// The interval slicing of a dispatch trace: fixed-size event intervals
/// and one basic-block frequency vector (BBV) per interval, computed in
/// one streaming pass by [`DispatchTrace::interval_index`].
///
/// The BBV dimension dictionary is the distinct dispatch-branch
/// addresses of the stream in first-appearance order — each dispatch
/// branch is one executed handler (≈ one basic block of the translated
/// interpreter), so the vector is the opcode/basic-block frequency
/// profile SimPoint-style phase clustering works on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalIndex {
    interval_len: u64,
    total_events: u64,
    dims: Vec<Addr>,
    intervals: Vec<IntervalBbv>,
}

impl IntervalIndex {
    /// The slicing granularity, in events per interval.
    pub fn interval_len(&self) -> u64 {
        self.interval_len
    }

    /// Number of events the sliced stream contains.
    pub fn total_events(&self) -> u64 {
        self.total_events
    }

    /// The BBV dimension dictionary: distinct dispatch-branch addresses
    /// in first-appearance order.
    pub fn dims(&self) -> &[Addr] {
        &self.dims
    }

    /// The interval slices in stream order.
    pub fn intervals(&self) -> &[IntervalBbv] {
        &self.intervals
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Whether the sliced stream was empty.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Dense, L1-normalised BBV points (one per interval), the input
    /// shape phase clustering expects: each point sums to 1, so interval
    /// similarity compares *where* time went, not how long the tail
    /// interval happened to be.
    pub fn normalized_points(&self) -> Vec<Vec<f64>> {
        self.intervals
            .iter()
            .map(|iv| {
                let mut p = vec![0.0; self.dims.len()];
                if iv.len > 0 {
                    let total = iv.len as f64;
                    for &(dim, count) in &iv.bbv {
                        p[dim as usize] = count as f64 / total;
                    }
                }
                p
            })
            .collect()
    }
}

/// Builds the interval index of `events` in one streaming pass.
fn build_interval_index(events: &[(Addr, Addr)], interval_len: u64) -> IntervalIndex {
    assert!(interval_len >= 1, "interval length must be at least 1 event");
    let mut dims: Vec<Addr> = Vec::new();
    let mut dim_of: HashMap<Addr, u32> = HashMap::new();
    let mut intervals = Vec::new();
    for (i, chunk) in events.chunks(interval_len as usize).enumerate() {
        let mut counts: HashMap<u32, u64> = HashMap::new();
        for &(branch, _) in chunk {
            let dim = *dim_of.entry(branch).or_insert_with(|| {
                let id = checked_u32(dims.len(), "BBV dimension count");
                dims.push(branch);
                id
            });
            *counts.entry(dim).or_insert(0) += 1;
        }
        let mut bbv: Vec<(u32, u64)> = counts.into_iter().collect();
        bbv.sort_unstable_by_key(|&(dim, _)| dim);
        intervals.push(IntervalBbv {
            start: i as u64 * interval_len,
            len: chunk.len() as u64,
            bbv,
        });
    }
    IntervalIndex { interval_len, total_events: events.len() as u64, dims, intervals }
}

/// The captured `(branch, target)` stream of one run's indirect
/// dispatches, plus the identity of the translation it was captured from.
///
/// Capture one by attaching it to an [`crate::Engine`] with
/// [`crate::Engine::with_observer`]; every simulated dispatch is
/// appended, and the run's `finish` hands the trace back. Persist with
/// [`DispatchTrace::to_bytes`] / [`DispatchTrace::from_bytes`] and sweep
/// predictors with [`simulate_many`].
///
/// # Examples
///
/// ```
/// use ivm_bpred::{AnyPredictor, Btb, BtbConfig, IdealBtb};
/// use ivm_core::{simulate_many, DispatchTrace};
///
/// let mut trace = DispatchTrace::new(0xFEED, "threaded");
/// trace.push(0x1000, 0x8000);
/// trace.push(0x1000, 0x8000);
/// trace.push(0x1000, 0x9000);
///
/// let decoded = DispatchTrace::from_bytes(&trace.to_bytes()).unwrap();
/// assert_eq!(decoded, trace);
///
/// let mut zoo: Vec<AnyPredictor> =
///     vec![IdealBtb::new().into(), Btb::new(BtbConfig::celeron()).into()];
/// let stats = simulate_many(&decoded, &mut zoo);
/// assert_eq!(stats[0].executed, 3);
/// assert_eq!(stats[0].mispredicted, 2); // ideal: cold miss + target change
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DispatchTrace {
    spec_hash: u64,
    technique: String,
    events: Vec<(Addr, Addr)>,
}

impl DispatchTrace {
    /// An empty trace for the translation identified by `spec_hash` and
    /// the [`crate::Technique::id`] string `technique`.
    ///
    /// The buffer starts at 1024 events rather than empty. Grown by
    /// doubling from a few events, the long buffers of a capture sweep
    /// land differently under glibc's adaptive mmap threshold, and the
    /// sweep's peak RSS rises for the same data: perfbench `zoo-sweep`
    /// on a 2-core VM peaked at a median 219 MB that way, 201 MB with
    /// this start.
    pub fn new(spec_hash: u64, technique: impl Into<String>) -> Self {
        Self { spec_hash, technique: technique.into(), events: Vec::with_capacity(1024) }
    }

    /// Appends one executed dispatch.
    pub fn push(&mut self, branch: Addr, target: Addr) {
        self.events.push((branch, target));
    }

    /// Number of recorded dispatch events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The invalidation hash this trace was captured under.
    pub fn spec_hash(&self) -> u64 {
        self.spec_hash
    }

    /// The technique id this trace was captured under.
    pub fn technique(&self) -> &str {
        &self.technique
    }

    /// The recorded `(branch, target)` events in execution order.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, Addr)> + '_ {
        self.events.iter().copied()
    }

    /// The recorded `(branch, target)` events as a slice — what sampled
    /// simulation feeds through predictors interval by interval.
    pub fn events(&self) -> &[(Addr, Addr)] {
        &self.events
    }

    /// Slices the stream into `interval_len`-event intervals and computes
    /// one basic-block frequency vector per interval, in a single
    /// streaming pass (the `bbv_extract` pipeline phase).
    ///
    /// # Panics
    ///
    /// Panics if `interval_len` is zero.
    pub fn interval_index(&self, interval_len: u64) -> IntervalIndex {
        let _span = ivm_harness::span::enter("bbv_extract");
        build_interval_index(&self.events, interval_len)
    }

    /// Serialises the trace into the binary format: header, then the
    /// delta-encoded events.
    pub fn to_bytes(&self) -> Vec<u8> {
        let _span = ivm_harness::span::enter("trace_encode");
        let mut out = Vec::with_capacity(28 + self.technique.len() + self.events.len() * 3);
        out.extend_from_slice(&DTRACE_MAGIC);
        out.extend_from_slice(&DTRACE_VERSION.to_le_bytes());
        out.extend_from_slice(&self.spec_hash.to_le_bytes());
        // Same checked 32-bit width policy as ExecutionTrace: error, never
        // silently wrap (a >4 GiB technique id is always a caller bug).
        out.extend_from_slice(
            &checked_u32(self.technique.len(), "technique id length").to_le_bytes(),
        );
        out.extend_from_slice(self.technique.as_bytes());
        out.extend_from_slice(&(self.events.len() as u64).to_le_bytes());
        let (mut prev_branch, mut prev_target) = (0u64, 0u64);
        for &(branch, target) in &self.events {
            write_varint(&mut out, zigzag(branch.wrapping_sub(prev_branch) as i64));
            write_varint(&mut out, zigzag(target.wrapping_sub(prev_target) as i64));
            prev_branch = branch;
            prev_target = target;
        }
        out
    }

    /// Decodes a trace previously produced by [`DispatchTrace::to_bytes`].
    ///
    /// # Errors
    ///
    /// Rejects wrong magic, any version but [`DTRACE_VERSION`],
    /// truncation, malformed varints, non-UTF-8 technique ids and
    /// trailing bytes — a corrupt trace must never decode into a
    /// slightly-wrong dispatch stream.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DtraceError> {
        let _span = ivm_harness::span::enter("trace_decode");
        let mut r = Reader { bytes, pos: 0 };
        if r.take(4)? != DTRACE_MAGIC {
            return Err(DtraceError::BadMagic);
        }
        let version = u32::from_le_bytes(r.take(4)?.try_into().expect("4 bytes"));
        if version != DTRACE_VERSION {
            return Err(DtraceError::BadVersion(version));
        }
        let spec_hash = u64::from_le_bytes(r.take(8)?.try_into().expect("8 bytes"));
        let tech_len = u32::from_le_bytes(r.take(4)?.try_into().expect("4 bytes")) as usize;
        let technique = std::str::from_utf8(r.take(tech_len)?)
            .map_err(|_| DtraceError::BadTechnique)?
            .to_owned();
        let count = u64::from_le_bytes(r.take(8)?.try_into().expect("8 bytes"));
        // Guard allocation: a corrupt count cannot ask for more events than
        // the remaining bytes could possibly encode (>= 2 bytes per event).
        if count > (bytes.len() - r.pos) as u64 / 2 {
            return Err(DtraceError::Truncated);
        }
        let mut events = Vec::with_capacity(count as usize);
        let (mut prev_branch, mut prev_target) = (0u64, 0u64);
        for _ in 0..count {
            prev_branch = prev_branch.wrapping_add(unzigzag(r.varint()?) as u64);
            prev_target = prev_target.wrapping_add(unzigzag(r.varint()?) as u64);
            events.push((prev_branch, prev_target));
        }
        if r.pos != bytes.len() {
            return Err(DtraceError::TrailingBytes);
        }
        Ok(Self { spec_hash, technique, events })
    }
}

impl DispatchObserver for DispatchTrace {
    #[inline]
    fn dispatch(&mut self, _from: usize, branch: Addr, target: Addr, _mispredicted: bool) {
        self.events.push((branch, target));
    }
}

/// Feeds every event of `trace` through all `predictors` in one pass
/// over the stream, returning one [`PredStats`] per predictor in order.
///
/// This is the single-pass sweep driver: for N predictors it performs the
/// same `predict_and_update` calls as N separate replays, but walks the
/// event stream once, so sweep cost is dominated by predictor work
/// instead of stream traffic. Each predictor walks the events as its own
/// inner loop ([`AnyPredictor::run_stream`], which matches the variant
/// once per pass, so the loop pays no per-event dispatch) rather than
/// interleaving predictors per event. Outcomes are bit-identical to
/// running each predictor alone — predictors share no state, so the loop
/// order is unobservable.
pub fn simulate_many(trace: &DispatchTrace, predictors: &mut [AnyPredictor]) -> Vec<PredStats> {
    let mut stats = vec![PredStats::default(); predictors.len()];
    sweep(&trace.events, predictors, &mut stats);
    stats
}

/// Events a [`PredictorSweep`] buffers before its predictors run over
/// them: long enough that each chunk amortises the variant match of
/// [`AnyPredictor::run_stream`], short enough to stay in cache.
const SWEEP_CHUNK: usize = 4096;

/// A [`DispatchObserver`] that sweeps predictors over a run as it
/// streams: [`simulate_many`] without a stored trace.
///
/// It buffers 4,096 events, then feeds the chunk to each predictor in
/// turn through the loop `simulate_many` runs, so a predictor's state
/// (its history, its tables) carries from one chunk into the next and
/// the counts equal a `simulate_many` over the whole stream. Attach it
/// to an [`crate::Engine`] with [`crate::Engine::with_observer`]; the
/// run's `finish` hands it back.
///
/// # Examples
///
/// ```
/// use ivm_bpred::{AnyPredictor, Btb, BtbConfig, IdealBtb};
/// use ivm_core::{DispatchObserver, PredictorSweep};
///
/// let zoo: Vec<AnyPredictor> =
///     vec![IdealBtb::new().into(), Btb::new(BtbConfig::celeron()).into()];
/// let mut sweep = PredictorSweep::new(zoo);
/// for target in [0x8000, 0x8000, 0x9000] {
///     sweep.dispatch(0, 0x1000, target, false);
/// }
/// let (stats, _predictors) = sweep.finish();
/// assert_eq!(stats[0].executed, 3);
/// assert_eq!(stats[0].mispredicted, 2); // ideal: cold miss + target change
/// ```
#[derive(Debug)]
pub struct PredictorSweep {
    predictors: Vec<AnyPredictor>,
    stats: Vec<PredStats>,
    chunk: Vec<(Addr, Addr)>,
}

impl PredictorSweep {
    /// A sweep of `predictors`, in order, over the events to come.
    pub fn new(predictors: Vec<AnyPredictor>) -> Self {
        let stats = vec![PredStats::default(); predictors.len()];
        Self { predictors, stats, chunk: Vec::with_capacity(SWEEP_CHUNK) }
    }

    /// Runs the last partial chunk and returns one [`PredStats`] per
    /// predictor, with the predictors themselves for what else they
    /// tallied (an ITTAGE's provider breakdown).
    pub fn finish(mut self) -> (Vec<PredStats>, Vec<AnyPredictor>) {
        sweep(&self.chunk, &mut self.predictors, &mut self.stats);
        (self.stats, self.predictors)
    }
}

impl DispatchObserver for PredictorSweep {
    #[inline]
    fn dispatch(&mut self, _from: usize, branch: Addr, target: Addr, _mispredicted: bool) {
        self.chunk.push((branch, target));
        if self.chunk.len() == SWEEP_CHUNK {
            sweep(&self.chunk, &mut self.predictors, &mut self.stats);
            self.chunk.clear();
        }
    }
}

/// Feeds `events` to each predictor in turn, adding its counts to the
/// matching `stats` entry: the loop [`simulate_many`] and
/// [`PredictorSweep`] share.
fn sweep(events: &[(Addr, Addr)], predictors: &mut [AnyPredictor], stats: &mut [PredStats]) {
    let _span = ivm_harness::span::enter("predictor_sweep");
    for (p, s) in predictors.iter_mut().zip(stats) {
        let (executed, mispredicted) = p.run_stream(events);
        s.executed += executed;
        s.mispredicted += mispredicted;
    }
}

fn zigzag(v: i64) -> u64 {
    // Shift as unsigned: `v << 1` on the signed value would be lost-bit
    // overflow for deltas with the top bit set (i64::MIN, u64-wrapped
    // address gaps), while the unsigned shift is defined for every input
    // and produces the identical bit pattern. The arithmetic `v >> 63`
    // sign-fill (0 or -1) supplies the XOR mask.
    ((v as u64) << 1) ^ ((v >> 63) as u64)
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DtraceError> {
        let end = self.pos.checked_add(n).ok_or(DtraceError::Truncated)?;
        if end > self.bytes.len() {
            return Err(DtraceError::Truncated);
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn varint(&mut self) -> Result<u64, DtraceError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = *self.bytes.get(self.pos).ok_or(DtraceError::Truncated)?;
            self.pos += 1;
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                // The 10th byte may only contribute the single top bit.
                if shift == 63 && byte > 1 {
                    return Err(DtraceError::BadVarint);
                }
                return Ok(v);
            }
        }
        Err(DtraceError::BadVarint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_bpred::IdealBtb;

    fn sample() -> DispatchTrace {
        let mut t = DispatchTrace::new(0xDEAD_BEEF, "static-repl-b400-rr");
        t.push(0x1000, 0x8000);
        t.push(0x1040, 0x8000);
        t.push(0x1000, 0x9000);
        t.push(u64::MAX, 0); // extreme deltas must round-trip
        t.push(0, u64::MAX);
        t
    }

    #[test]
    fn round_trips_through_bytes() {
        let t = sample();
        let decoded = DispatchTrace::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(decoded, t);
        assert_eq!(decoded.spec_hash(), 0xDEAD_BEEF);
        assert_eq!(decoded.technique(), "static-repl-b400-rr");
        assert_eq!(decoded.len(), 5);
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = DispatchTrace::new(7, "threaded");
        let decoded = DispatchTrace::from_bytes(&t.to_bytes()).unwrap();
        assert!(decoded.is_empty());
        assert_eq!(decoded, t);
    }

    #[test]
    fn delta_encoding_is_compact_for_repetitive_streams() {
        let mut t = DispatchTrace::new(0, "threaded");
        for i in 0..1000u64 {
            t.push(0x1000, 0x8000 + (i % 4) * 0x40);
        }
        let bytes = t.to_bytes();
        // 16 bytes/event raw; delta+varint must stay under 4.
        assert!(bytes.len() < 36 + 4 * 1000, "encoded {} bytes", bytes.len());
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        let good = sample().to_bytes();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert_eq!(DispatchTrace::from_bytes(&bad_magic), Err(DtraceError::BadMagic));

        let mut bad_version = good.clone();
        bad_version[4] = 99;
        assert_eq!(DispatchTrace::from_bytes(&bad_version), Err(DtraceError::BadVersion(99)));

        for cut in [0, 3, 7, 12, 19, good.len() - 1] {
            assert_eq!(
                DispatchTrace::from_bytes(&good[..cut]),
                Err(DtraceError::Truncated),
                "cut at {cut}"
            );
        }

        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(DispatchTrace::from_bytes(&trailing), Err(DtraceError::TrailingBytes));

        assert!(DispatchTrace::from_bytes(&[]).is_err());
    }

    #[test]
    fn oversized_event_count_is_rejected_before_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&DTRACE_MAGIC);
        bytes.extend_from_slice(&DTRACE_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes()); // absurd count
        assert_eq!(DispatchTrace::from_bytes(&bytes), Err(DtraceError::Truncated));
    }

    #[test]
    fn event_count_beyond_the_remaining_bytes_is_rejected_before_decoding() {
        // 11 events need at least 22 bytes; only 20 follow the header. The
        // bound is the bytes left after the header, not the whole buffer.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&DTRACE_MAGIC);
        bytes.extend_from_slice(&DTRACE_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&11u64.to_le_bytes());
        bytes.extend_from_slice(&[0x80; 20]);
        assert_eq!(DispatchTrace::from_bytes(&bytes), Err(DtraceError::Truncated));
    }

    #[test]
    fn observer_hook_appends_the_predictor_view() {
        let mut t = DispatchTrace::new(0, "threaded");
        t.dispatch(3, 0x100, 0x200, true);
        t.dispatch(4, 0x110, 0x210, false);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![(0x100, 0x200), (0x110, 0x210)]);
    }

    #[test]
    fn simulate_many_matches_individual_runs() {
        use ivm_bpred::IndirectPredictor;

        let t = sample();
        let mut alone = IdealBtb::new();
        let mut expect = PredStats::default();
        for (b, tg) in t.iter() {
            expect.record(alone.predict_and_update(b, tg));
        }
        // Two instances of the same predictor in one pass must each agree
        // with a hand-stepped run.
        let mut preds: Vec<AnyPredictor> = vec![IdealBtb::new().into(), IdealBtb::new().into()];
        let stats = simulate_many(&t, &mut preds);
        assert_eq!(stats, vec![expect, expect], "shared pass must not couple predictors");
    }

    #[test]
    fn interval_index_slices_and_counts() {
        let mut t = DispatchTrace::new(0, "threaded");
        // 7 events over 2 branches: slicing at 3 gives intervals of 3/3/1.
        for &b in &[0x10u64, 0x10, 0x20, 0x20, 0x10, 0x10, 0x10] {
            t.push(b, 0x8000);
        }
        let idx = t.interval_index(3);
        assert_eq!(idx.interval_len(), 3);
        assert_eq!(idx.total_events(), 7);
        assert_eq!(idx.dims(), &[0x10, 0x20], "first-appearance order");
        assert_eq!(idx.len(), 3);
        let ivs = idx.intervals();
        assert_eq!((ivs[0].start, ivs[0].len, ivs[0].bbv.clone()), (0, 3, vec![(0, 2), (1, 1)]));
        assert_eq!((ivs[1].start, ivs[1].len, ivs[1].bbv.clone()), (3, 3, vec![(0, 2), (1, 1)]));
        assert_eq!((ivs[2].start, ivs[2].len, ivs[2].bbv.clone()), (6, 1, vec![(0, 1)]));
        // Normalised points are dense and L1-normalised per interval.
        let pts = idx.normalized_points();
        assert_eq!(pts[0], vec![2.0 / 3.0, 1.0 / 3.0]);
        assert_eq!(pts[2], vec![1.0, 0.0]);
    }

    #[test]
    fn varint_zigzag_round_trip_edges() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 0x7F, -0x80, 1 << 62] {
            assert_eq!(unzigzag(zigzag(v)), v);
            let mut buf = Vec::new();
            write_varint(&mut buf, zigzag(v));
            let mut r = Reader { bytes: &buf, pos: 0 };
            assert_eq!(unzigzag(r.varint().unwrap()), v);
        }
    }

    #[test]
    fn spec_hash_tracks_parameters_and_gates_the_profile() {
        use crate::native::NativeSpec;
        use crate::technique::ReplicaSelection;

        let mut b = VmSpec::builder("demo");
        let work = b.inst("work", NativeSpec::new(3, 9, InstKind::Plain));
        let brn = b.inst("loop", NativeSpec::new(3, 12, InstKind::CondBranch));
        let spec = b.build();
        let mut p = ProgramCode::builder("spin");
        p.push(work, None);
        p.push(brn, Some(0));
        let program = p.finish(&spec);
        let mut profile = Profile::from_static(&program);

        let hash =
            |t: Technique, prof: Option<&Profile>| dispatch_spec_hash(&spec, &program, t, prof);
        let repl =
            |budget| Technique::StaticRepl { budget, selection: ReplicaSelection::RoundRobin };

        // Deterministic, and distinct across technique parameters that
        // paper_name() cannot distinguish.
        assert_eq!(hash(repl(400), Some(&profile)), hash(repl(400), Some(&profile)));
        assert_ne!(hash(repl(400), Some(&profile)), hash(repl(100), Some(&profile)));

        // Profile-independent techniques ignore the training profile...
        assert_eq!(hash(Technique::Threaded, Some(&profile)), hash(Technique::Threaded, None));
        // ...while static techniques are invalidated when it changes.
        let with_old = hash(repl(400), Some(&profile));
        profile.record_op(work, 1000);
        assert_ne!(with_old, hash(repl(400), Some(&profile)));
    }

    #[test]
    fn spec_hasher_is_order_and_boundary_sensitive() {
        let a = SpecHasher::new().str("ab").str("c").finish();
        let b = SpecHasher::new().str("a").str("bc").finish();
        assert_ne!(a, b);
        assert_ne!(
            SpecHasher::new().u64(1).u64(2).finish(),
            SpecHasher::new().u64(2).u64(1).finish()
        );
    }
}
