//! The Forth interpreter proper: executes an [`Image`] while reporting
//! every dispatch through [`VmEvents`], plus the [`GuestVm`] impl that
//! plugs Forth programs into the generic measurement pipeline.

use ivm_core::{GuestVm, ProgramCode, SuperSelection, VmError, VmEvents, VmOutput, VmSpec};

use crate::compiler::Image;
use crate::inst::ops;

/// Default fuel for benchmark runs (VM instructions).
pub const DEFAULT_FUEL: u64 = 100_000_000;

impl GuestVm for Image {
    fn spec(&self) -> &VmSpec {
        &ops().spec
    }

    fn program(&self) -> &ProgramCode {
        &self.program
    }

    fn super_selection(&self) -> SuperSelection {
        // Gforth policy (paper §7.1): favour long dynamic sequences.
        SuperSelection::gforth()
    }

    fn default_fuel(&self) -> u64 {
        DEFAULT_FUEL
    }

    fn execute(&self, events: &mut dyn VmEvents, fuel: u64) -> Result<VmOutput, VmError> {
        run(self, events, fuel)
    }
}

enum Flow {
    Next,
    Taken(usize),
    Halt,
}

/// Interprets `image`, reporting control transfers to `events`.
///
/// `fuel` bounds the number of VM instructions executed, protecting tests
/// and benchmarks against accidental non-termination.
///
/// # Errors
///
/// Returns a [`VmError`] on stack underflow, bad memory access, division by
/// zero, or fuel exhaustion.
///
/// # Examples
///
/// ```
/// use ivm_core::NullEvents;
///
/// let image = ivm_forth::compile(": main 6 7 * . ;").unwrap();
/// let out = ivm_forth::run(&image, &mut NullEvents, 1_000).unwrap();
/// assert_eq!(out.text, "42 ");
/// ```
pub fn run(image: &Image, events: &mut dyn VmEvents, fuel: u64) -> Result<VmOutput, VmError> {
    let o = ops();
    let program = &image.program;
    let mut mem = vec![0i64; image.memory_cells];
    let mut stack: Vec<i64> = Vec::with_capacity(256);
    let mut rstack: Vec<i64> = Vec::with_capacity(64);
    let mut calls: Vec<usize> = Vec::with_capacity(64);
    let mut loops: Vec<(i64, i64)> = Vec::with_capacity(16);
    let mut text = String::new();
    let mut steps: u64 = 0;

    let mut ip = image.entry;
    events.begin(ip);

    macro_rules! pop {
        () => {
            match stack.pop() {
                Some(v) => v,
                None => return Err(VmError::StackUnderflow(ip)),
            }
        };
    }
    macro_rules! addr {
        ($a:expr) => {{
            let a = $a;
            if a < 0 || a as usize >= mem.len() {
                return Err(VmError::BadAddress(ip, a));
            }
            a as usize
        }};
    }

    loop {
        steps += 1;
        if steps > fuel {
            return Err(VmError::FuelExhausted(fuel));
        }
        let op = program.op(ip);
        let operand = image.operands[ip];
        let target = program.target(ip);

        let flow = if op == o.lit {
            stack.push(operand);
            Flow::Next
        } else if op == o.add {
            let b = pop!();
            let a = pop!();
            stack.push(a.wrapping_add(b));
            Flow::Next
        } else if op == o.sub {
            let b = pop!();
            let a = pop!();
            stack.push(a.wrapping_sub(b));
            Flow::Next
        } else if op == o.mul {
            let b = pop!();
            let a = pop!();
            stack.push(a.wrapping_mul(b));
            Flow::Next
        } else if op == o.div {
            let b = pop!();
            let a = pop!();
            if b == 0 {
                return Err(VmError::DivisionByZero(ip));
            }
            stack.push(a.wrapping_div(b));
            Flow::Next
        } else if op == o.mod_ {
            let b = pop!();
            let a = pop!();
            if b == 0 {
                return Err(VmError::DivisionByZero(ip));
            }
            stack.push(a.wrapping_rem(b));
            Flow::Next
        } else if op == o.negate {
            let a = pop!();
            stack.push(a.wrapping_neg());
            Flow::Next
        } else if op == o.abs_ {
            let a = pop!();
            stack.push(a.wrapping_abs());
            Flow::Next
        } else if op == o.min_ {
            let b = pop!();
            let a = pop!();
            stack.push(a.min(b));
            Flow::Next
        } else if op == o.max_ {
            let b = pop!();
            let a = pop!();
            stack.push(a.max(b));
            Flow::Next
        } else if op == o.and_ {
            let b = pop!();
            let a = pop!();
            stack.push(a & b);
            Flow::Next
        } else if op == o.or_ {
            let b = pop!();
            let a = pop!();
            stack.push(a | b);
            Flow::Next
        } else if op == o.xor_ {
            let b = pop!();
            let a = pop!();
            stack.push(a ^ b);
            Flow::Next
        } else if op == o.invert {
            let a = pop!();
            stack.push(!a);
            Flow::Next
        } else if op == o.lshift {
            let b = pop!();
            let a = pop!();
            stack.push(a.wrapping_shl(b as u32));
            Flow::Next
        } else if op == o.rshift {
            let b = pop!();
            let a = pop!();
            stack.push(((a as u64) >> (b as u32 & 63)) as i64);
            Flow::Next
        } else if op == o.one_plus {
            let a = pop!();
            stack.push(a.wrapping_add(1));
            Flow::Next
        } else if op == o.one_minus {
            let a = pop!();
            stack.push(a.wrapping_sub(1));
            Flow::Next
        } else if op == o.two_star {
            let a = pop!();
            stack.push(a.wrapping_shl(1));
            Flow::Next
        } else if op == o.two_slash {
            let a = pop!();
            stack.push(a >> 1);
            Flow::Next
        } else if op == o.cells {
            // Memory is cell-addressed: CELLS is the identity scale.
            Flow::Next
        } else if op == o.eq {
            let b = pop!();
            let a = pop!();
            stack.push(if a == b { -1 } else { 0 });
            Flow::Next
        } else if op == o.ne {
            let b = pop!();
            let a = pop!();
            stack.push(if a != b { -1 } else { 0 });
            Flow::Next
        } else if op == o.lt {
            let b = pop!();
            let a = pop!();
            stack.push(if a < b { -1 } else { 0 });
            Flow::Next
        } else if op == o.gt {
            let b = pop!();
            let a = pop!();
            stack.push(if a > b { -1 } else { 0 });
            Flow::Next
        } else if op == o.le {
            let b = pop!();
            let a = pop!();
            stack.push(if a <= b { -1 } else { 0 });
            Flow::Next
        } else if op == o.ge {
            let b = pop!();
            let a = pop!();
            stack.push(if a >= b { -1 } else { 0 });
            Flow::Next
        } else if op == o.zero_eq {
            let a = pop!();
            stack.push(if a == 0 { -1 } else { 0 });
            Flow::Next
        } else if op == o.zero_lt {
            let a = pop!();
            stack.push(if a < 0 { -1 } else { 0 });
            Flow::Next
        } else if op == o.zero_gt {
            let a = pop!();
            stack.push(if a > 0 { -1 } else { 0 });
            Flow::Next
        } else if op == o.dup {
            let a = pop!();
            stack.push(a);
            stack.push(a);
            Flow::Next
        } else if op == o.drop {
            pop!();
            Flow::Next
        } else if op == o.swap {
            let b = pop!();
            let a = pop!();
            stack.push(b);
            stack.push(a);
            Flow::Next
        } else if op == o.over {
            let b = pop!();
            let a = pop!();
            stack.push(a);
            stack.push(b);
            stack.push(a);
            Flow::Next
        } else if op == o.rot {
            let c = pop!();
            let b = pop!();
            let a = pop!();
            stack.push(b);
            stack.push(c);
            stack.push(a);
            Flow::Next
        } else if op == o.nip {
            let b = pop!();
            pop!();
            stack.push(b);
            Flow::Next
        } else if op == o.tuck {
            let b = pop!();
            let a = pop!();
            stack.push(b);
            stack.push(a);
            stack.push(b);
            Flow::Next
        } else if op == o.qdup {
            let a = pop!();
            stack.push(a);
            if a != 0 {
                stack.push(a);
            }
            Flow::Next
        } else if op == o.two_dup {
            let b = pop!();
            let a = pop!();
            stack.push(a);
            stack.push(b);
            stack.push(a);
            stack.push(b);
            Flow::Next
        } else if op == o.two_drop {
            pop!();
            pop!();
            Flow::Next
        } else if op == o.depth {
            stack.push(stack.len() as i64);
            Flow::Next
        } else if op == o.to_r {
            rstack.push(pop!());
            Flow::Next
        } else if op == o.r_from {
            match rstack.pop() {
                Some(v) => stack.push(v),
                None => return Err(VmError::StackUnderflow(ip)),
            }
            Flow::Next
        } else if op == o.r_fetch {
            match rstack.last() {
                Some(&v) => stack.push(v),
                None => return Err(VmError::StackUnderflow(ip)),
            }
            Flow::Next
        } else if op == o.fetch || op == o.cfetch {
            let a = addr!(pop!());
            stack.push(mem[a]);
            Flow::Next
        } else if op == o.store || op == o.cstore {
            let a = addr!(pop!());
            let v = pop!();
            mem[a] = v;
            Flow::Next
        } else if op == o.plus_store {
            let a = addr!(pop!());
            let v = pop!();
            mem[a] = mem[a].wrapping_add(v);
            Flow::Next
        } else if op == o.do_ {
            let start = pop!();
            let limit = pop!();
            loops.push((start, limit));
            Flow::Next
        } else if op == o.loop_ {
            match loops.last_mut() {
                Some((index, limit)) => {
                    *index = index.wrapping_add(1);
                    if *index < *limit {
                        Flow::Taken(target.expect("loop has a target"))
                    } else {
                        loops.pop();
                        Flow::Next
                    }
                }
                None => return Err(VmError::StackUnderflow(ip)),
            }
        } else if op == o.plus_loop {
            let step = pop!();
            match loops.last_mut() {
                Some((index, limit)) => {
                    *index = index.wrapping_add(step);
                    let continue_ = if step >= 0 { *index < *limit } else { *index > *limit };
                    if continue_ {
                        Flow::Taken(target.expect("+loop has a target"))
                    } else {
                        loops.pop();
                        Flow::Next
                    }
                }
                None => return Err(VmError::StackUnderflow(ip)),
            }
        } else if op == o.pick {
            let n = pop!();
            let len = stack.len() as i64;
            if n < 0 || n >= len {
                return Err(VmError::StackUnderflow(ip));
            }
            stack.push(stack[(len - 1 - n) as usize]);
            Flow::Next
        } else if op == o.i_ {
            match loops.last() {
                Some(&(index, _)) => stack.push(index),
                None => return Err(VmError::StackUnderflow(ip)),
            }
            Flow::Next
        } else if op == o.j_ {
            if loops.len() < 2 {
                return Err(VmError::StackUnderflow(ip));
            }
            stack.push(loops[loops.len() - 2].0);
            Flow::Next
        } else if op == o.unloop {
            if loops.pop().is_none() {
                return Err(VmError::StackUnderflow(ip));
            }
            Flow::Next
        } else if op == o.leave_check {
            let flag = pop!();
            if flag != 0 {
                loops.pop();
                Flow::Taken(target.expect("leave has a target"))
            } else {
                Flow::Next
            }
        } else if op == o.zbranch {
            let flag = pop!();
            if flag == 0 {
                Flow::Taken(target.expect("0branch has a target"))
            } else {
                Flow::Next
            }
        } else if op == o.branch {
            Flow::Taken(target.expect("branch has a target"))
        } else if op == o.call {
            calls.push(ip + 1);
            Flow::Taken(target.expect("call has a target"))
        } else if op == o.exit {
            match calls.pop() {
                Some(ret) => Flow::Taken(ret),
                None => return Err(VmError::StackUnderflow(ip)),
            }
        } else if op == o.halt {
            Flow::Halt
        } else if op == o.emit {
            let c = pop!();
            text.push(char::from_u32(c as u32 & 0x7f).unwrap_or('?'));
            Flow::Next
        } else if op == o.dot {
            let v = pop!();
            text.push_str(&v.to_string());
            text.push(' ');
            Flow::Next
        } else if op == o.cr {
            text.push('\n');
            Flow::Next
        } else {
            unreachable!("unhandled forth op {}", o.spec.name(op));
        };

        match flow {
            Flow::Next => {
                events.transfer(ip, ip + 1, false);
                ip += 1;
            }
            Flow::Taken(t) => {
                events.transfer(ip, t, true);
                ip = t;
            }
            Flow::Halt => break,
        }
    }

    Ok(VmOutput { text, steps, stack, ..VmOutput::default() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile;
    use ivm_core::NullEvents;

    fn eval(src: &str) -> VmOutput {
        let image = compile(src).expect("compiles");
        run(&image, &mut NullEvents, 10_000_000).expect("runs")
    }

    #[test]
    fn arithmetic_words() {
        assert_eq!(
            eval(": main 2 3 + . 10 3 - . 6 7 * . 20 6 / . 20 6 mod . ;").text,
            "5 7 42 3 2 "
        );
        assert_eq!(eval(": main -5 abs . 3 7 min . 3 7 max . -5 negate . ;").text, "5 3 7 5 ");
        assert_eq!(eval(": main 6 1+ . 6 1- . 6 2* . 6 2/ . ;").text, "7 5 12 3 ");
    }

    #[test]
    fn logic_and_shifts() {
        assert_eq!(
            eval(": main 12 10 and . 12 10 or . 12 10 xor . 0 invert . ;").text,
            "8 14 6 -1 "
        );
        assert_eq!(eval(": main 1 4 lshift . 256 4 rshift . ;").text, "16 16 ");
    }

    #[test]
    fn comparisons_produce_forth_flags() {
        assert_eq!(eval(": main 1 2 < . 2 1 < . 3 3 = . 3 4 <> . ;").text, "-1 0 -1 -1 ");
        assert_eq!(eval(": main 0 0= . 5 0= . -3 0< . 3 0> . ;").text, "-1 0 -1 -1 ");
        assert_eq!(eval(": main 2 2 <= . 3 2 >= . ;").text, "-1 -1 ");
    }

    #[test]
    fn stack_words() {
        assert_eq!(eval(": main 1 2 swap . . ;").text, "1 2 ");
        assert_eq!(eval(": main 1 2 over . . . ;").text, "1 2 1 ");
        assert_eq!(eval(": main 1 2 3 rot . . . ;").text, "1 3 2 ");
        assert_eq!(eval(": main 1 2 nip . depth . ;").text, "2 0 ");
        assert_eq!(eval(": main 1 2 tuck . . . ;").text, "2 1 2 ");
        assert_eq!(eval(": main 7 dup . . ;").text, "7 7 ");
        assert_eq!(eval(": main 1 2 2dup . . . . ;").text, "2 1 2 1 ");
        assert_eq!(eval(": main 0 ?dup . 5 ?dup . . ;").text, "0 5 5 ");
    }

    #[test]
    fn return_stack() {
        assert_eq!(eval(": main 42 >r 1 . r@ . r> . ;").text, "1 42 42 ");
    }

    #[test]
    fn memory_words() {
        assert_eq!(eval("variable x : main 42 x ! x @ . 8 x +! x @ . ;").text, "42 50 ");
        assert_eq!(eval("create arr 10 cells allot : main 7 arr 3 + ! arr 3 + @ . ;").text, "7 ");
    }

    #[test]
    fn control_flow() {
        assert_eq!(eval(": main 5 0< if 1 . else 2 . then ;").text, "2 ");
        assert_eq!(eval(": main 0 begin 1+ dup 5 >= until . ;").text, "5 ");
        assert_eq!(eval(": main 0 begin dup 5 < while 1+ repeat . ;").text, "5 ");
        assert_eq!(eval(": main 0 10 0 do i + loop . ;").text, "45 ");
    }

    #[test]
    fn nested_loops_and_j() {
        assert_eq!(eval(": main 0 3 0 do 3 0 do j 10 * i + + loop loop . ;").text, "99 ");
    }

    #[test]
    fn calls_and_recursion() {
        assert_eq!(eval(": sq dup * ; : main 7 sq . ;").text, "49 ");
        assert_eq!(
            eval(
                ": fib dup 2 < if exit then dup 1- recurse swap 2 - recurse + ; : main 15 fib . ;"
            )
            .text,
            "610 "
        );
    }

    #[test]
    fn emit_and_cr() {
        assert_eq!(eval(": main 72 emit 105 emit cr ;").text, "Hi\n");
    }

    #[test]
    fn runtime_errors() {
        let image = compile(": main + ;").unwrap();
        assert!(matches!(run(&image, &mut NullEvents, 100), Err(VmError::StackUnderflow(_))));
        let image = compile(": main 1 0 / . ;").unwrap();
        assert!(matches!(run(&image, &mut NullEvents, 100), Err(VmError::DivisionByZero(_))));
        let image = compile(": main -1 @ . ;").unwrap();
        assert!(matches!(run(&image, &mut NullEvents, 100), Err(VmError::BadAddress(_, -1))));
        let image = compile(": main begin again ;").unwrap();
        assert!(matches!(run(&image, &mut NullEvents, 100), Err(VmError::FuelExhausted(100))));
    }

    #[test]
    fn step_count_is_reported() {
        let out = eval(": main 1 2 + . ;");
        // boot call, lit, lit, add, dot, exit, halt = 7 steps.
        assert_eq!(out.steps, 7);
        assert!(out.stack.is_empty());
    }
}

#[cfg(test)]
mod extension_tests {
    use crate::compiler::compile;
    use crate::vm::run;
    use ivm_core::NullEvents;

    fn eval(src: &str) -> String {
        let image = compile(src).expect("compiles");
        run(&image, &mut NullEvents, 1_000_000).expect("runs").text
    }

    #[test]
    fn plus_loop_counts_by_stride() {
        assert_eq!(eval(": main 0 10 0 do i + 2 +loop . ;"), "20 "); // 0+2+4+6+8
        assert_eq!(eval(": main 0 9 0 do i + 3 +loop . ;"), "9 "); // 0+3+6
    }

    #[test]
    fn plus_loop_negative_stride() {
        // From 10 down to (exclusive) 0 by -2: i = 10 8 6 4 2.
        assert_eq!(eval(": main 0 0 10 do i + -2 +loop . ;"), "30 ");
    }

    #[test]
    fn pick_copies_deep_items() {
        assert_eq!(eval(": main 11 22 33 2 pick . . . . ;"), "11 33 22 11 ");
        assert_eq!(eval(": main 7 0 pick . . ;"), "7 7 ");
    }

    #[test]
    fn qleave_exits_early() {
        // Leave the loop as soon as i reaches 5: sum = 0+1+2+3+4.
        assert_eq!(eval(": main 0 100 0 do i 5 >= ?leave i + loop . ;"), "10 ");
    }

    #[test]
    fn qleave_without_flag_continues() {
        assert_eq!(eval(": main 0 5 0 do false ?leave i + loop . ;"), "10 ");
    }

    #[test]
    fn qleave_outside_do_is_an_error() {
        assert!(compile(": main true ?leave ;").is_err());
    }

    #[test]
    fn extensions_survive_all_techniques() {
        use ivm_cache::CpuSpec;
        use ivm_core::Technique;
        use ivm_core::{measure, profile};
        let image = compile(": main 0 40 0 do i 30 >= ?leave i 1 pick xor 1023 and 2 +loop . ;")
            .expect("compiles");
        let prof = profile(&image).expect("profiles");
        let mut texts = Vec::new();
        for tech in Technique::gforth_suite() {
            let (_, out) = measure(&image, tech, &CpuSpec::celeron800(), Some(&prof))
                .unwrap_or_else(|e| panic!("{tech}: {e}"));
            texts.push(out.text);
        }
        assert!(texts.windows(2).all(|w| w[0] == w[1]), "{texts:?}");
    }
}
