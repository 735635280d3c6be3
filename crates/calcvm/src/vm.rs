//! The calculator VM: a line-oriented assembler and the interpreter
//! proper, wired to the generic measurement pipeline through [`GuestVm`].

use std::fmt;

use ivm_core::{GuestVm, ProgramCode, SuperSelection, VmError, VmEvents, VmOutput, VmSpec};

use crate::inst::ops;

/// Default fuel for benchmark runs (VM instructions).
pub const DEFAULT_FUEL: u64 = 50_000_000;

/// Number of global register slots (`load`/`store` operands).
pub const SLOTS: usize = 32;

/// A loaded calculator program.
#[derive(Debug, Clone)]
pub struct CalcImage {
    /// Instruction stream and control structure.
    pub program: ProgramCode,
    /// Per-instance operand (literal or slot index; unused entries are 0).
    pub operands: Vec<i64>,
    /// Entry instance.
    pub entry: usize,
}

/// Assembly failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "calc assembly error: {}", self.message)
    }
}

impl std::error::Error for AsmError {}

fn err<T>(message: impl Into<String>) -> Result<T, AsmError> {
    Err(AsmError { message: message.into() })
}

/// Assembles calculator source into a runnable image.
///
/// The language is one instruction per line: `push N`, `load K`,
/// `store K`, stack/arithmetic words (`add`, `sub`, `mul`, `div`, `mod`,
/// `neg`, `dup`, `drop`, `swap`, `over`, `lt`, `eq`, `print`), control
/// flow (`jmp L`, `jz L`, `jnz L`, `call L`, `ret`, `halt`) and labels
/// (`L:`). `#` starts a comment. Execution begins at the first
/// instruction; `call` targets become dispatch entry points.
///
/// # Errors
///
/// Returns an [`AsmError`] for unknown mnemonics, missing or duplicate
/// labels, malformed operands, slot indices outside [`SLOTS`], a jump or
/// call to a label after the last instruction, or a last instruction
/// other than `jmp`, `ret` or `halt` (execution would run off the end).
///
/// # Examples
///
/// ```
/// use ivm_core::NullEvents;
///
/// let image = ivm_calc::assemble("push 6\npush 7\nmul\nprint\nhalt").unwrap();
/// let out = ivm_calc::run(&image, &mut NullEvents, 100).unwrap();
/// assert_eq!(out.text, "42\n");
/// ```
pub fn assemble(source: &str) -> Result<CalcImage, AsmError> {
    let o = ops();
    let mut b = ProgramCode::builder("calc");
    let mut operands: Vec<i64> = Vec::new();
    let mut labels: std::collections::BTreeMap<&str, u32> = std::collections::BTreeMap::new();
    // (instance, label, is_call) fixups resolved after the first pass.
    let mut fixups: Vec<(u32, &str, bool)> = Vec::new();
    let mut last = "";

    for (lineno, raw) in source.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut tokens = line.split_whitespace();
        let head = tokens.next().expect("non-empty line");
        if let Some(label) = head.strip_suffix(':') {
            if tokens.next().is_some() {
                return err(format!("line {}: label {label} must stand alone", lineno + 1));
            }
            if labels.insert(label, b.len() as u32).is_some() {
                return err(format!("line {}: duplicate label {label}", lineno + 1));
            }
            continue;
        }
        let operand = tokens.next();
        if tokens.next().is_some() {
            return err(format!("line {}: trailing tokens after {head}", lineno + 1));
        }
        last = head;
        let int_operand = || -> Result<i64, AsmError> {
            let text =
                operand.ok_or_else(|| AsmError { message: format!("{head} needs an operand") })?;
            text.parse().map_err(|_| AsmError { message: format!("bad operand {text} for {head}") })
        };
        let (op, value) = match head {
            "push" => (o.push, int_operand()?),
            "load" | "store" => {
                let slot = int_operand()?;
                if slot < 0 || slot as usize >= SLOTS {
                    return err(format!("line {}: slot {slot} out of range", lineno + 1));
                }
                (if head == "load" { o.load } else { o.store }, slot)
            }
            "add" => (o.add, 0),
            "sub" => (o.sub, 0),
            "mul" => (o.mul, 0),
            "div" => (o.div, 0),
            "mod" => (o.mod_, 0),
            "neg" => (o.neg, 0),
            "dup" => (o.dup, 0),
            "drop" => (o.drop, 0),
            "swap" => (o.swap, 0),
            "over" => (o.over, 0),
            "lt" => (o.lt, 0),
            "eq" => (o.eq, 0),
            "print" => (o.print, 0),
            "ret" => (o.ret, 0),
            "halt" => (o.halt, 0),
            "jmp" | "jz" | "jnz" | "call" => {
                let label =
                    operand.ok_or_else(|| AsmError { message: format!("{head} needs a label") })?;
                let op = match head {
                    "jmp" => o.jmp,
                    "jz" => o.jz,
                    "jnz" => o.jnz,
                    _ => o.call,
                };
                let i = b.push(op, None);
                operands.push(0);
                fixups.push((i, label, head == "call"));
                continue;
            }
            other => return err(format!("line {}: unknown instruction {other}", lineno + 1)),
        };
        b.push(op, None);
        operands.push(value);
    }
    if b.is_empty() {
        return err("empty program");
    }
    if !matches!(last, "jmp" | "ret" | "halt") {
        return err(format!("the last instruction, {last}, would run off the end"));
    }
    for (i, label, is_call) in fixups {
        let Some(&target) = labels.get(label) else {
            return err(format!("undefined label {label}"));
        };
        if target as usize == b.len() {
            return err(format!("label {label} follows the last instruction"));
        }
        b.patch_target(i, target);
        if is_call {
            b.mark_entry(target);
        }
    }
    Ok(CalcImage { program: b.finish(&o.spec), operands, entry: 0 })
}

enum Flow {
    Next,
    Taken(usize),
    Halt,
}

/// Interprets `image`, reporting control transfers to `events`.
///
/// # Errors
///
/// Returns a [`VmError`] on stack underflow, division by zero, a `ret`
/// without a pending call, or fuel exhaustion.
pub fn run(image: &CalcImage, events: &mut dyn VmEvents, fuel: u64) -> Result<VmOutput, VmError> {
    let o = ops();
    let program = &image.program;
    let mut stack: Vec<i64> = Vec::with_capacity(64);
    let mut calls: Vec<usize> = Vec::with_capacity(16);
    let mut slots = [0i64; SLOTS];
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

    loop {
        steps += 1;
        if steps > fuel {
            return Err(VmError::FuelExhausted(fuel));
        }
        let op = program.op(ip);
        let operand = image.operands[ip];

        let flow = if op == o.push {
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
        } else if op == o.div || op == o.mod_ {
            let b = pop!();
            let a = pop!();
            if b == 0 {
                return Err(VmError::DivisionByZero(ip));
            }
            stack.push(if op == o.div { a.wrapping_div(b) } else { a.wrapping_rem(b) });
            Flow::Next
        } else if op == o.neg {
            let a = pop!();
            stack.push(a.wrapping_neg());
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
        } else if op == o.lt {
            let b = pop!();
            let a = pop!();
            stack.push(i64::from(a < b));
            Flow::Next
        } else if op == o.eq {
            let b = pop!();
            let a = pop!();
            stack.push(i64::from(a == b));
            Flow::Next
        } else if op == o.load {
            stack.push(slots[operand as usize]);
            Flow::Next
        } else if op == o.store {
            slots[operand as usize] = pop!();
            Flow::Next
        } else if op == o.print {
            let a = pop!();
            text.push_str(&a.to_string());
            text.push('\n');
            Flow::Next
        } else if op == o.jmp {
            Flow::Taken(program.target(ip).expect("assembler sets jump targets"))
        } else if op == o.jz || op == o.jnz {
            let a = pop!();
            if (a == 0) == (op == o.jz) {
                Flow::Taken(program.target(ip).expect("assembler sets branch targets"))
            } else {
                Flow::Next
            }
        } else if op == o.call {
            calls.push(ip + 1);
            Flow::Taken(program.target(ip).expect("assembler sets call targets"))
        } else if op == o.ret {
            match calls.pop() {
                Some(r) => Flow::Taken(r),
                None => return Err(VmError::StackUnderflow(ip)),
            }
        } else if op == o.halt {
            Flow::Halt
        } else {
            unreachable!("unknown calc opcode");
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

impl GuestVm for CalcImage {
    fn spec(&self) -> &VmSpec {
        &ops().spec
    }

    fn program(&self) -> &ProgramCode {
        &self.program
    }

    fn super_selection(&self) -> SuperSelection {
        // Like Gforth, the calculator is a simple stack machine: favour
        // long dynamic sequences.
        SuperSelection::gforth()
    }

    fn default_fuel(&self) -> u64 {
        DEFAULT_FUEL
    }

    fn execute(&self, events: &mut dyn VmEvents, fuel: u64) -> Result<VmOutput, VmError> {
        run(self, events, fuel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivm_core::NullEvents;

    fn eval(src: &str) -> VmOutput {
        let image = assemble(src).expect("assembles");
        run(&image, &mut NullEvents, 1_000_000).expect("runs")
    }

    #[test]
    fn arithmetic_and_stack_words() {
        assert_eq!(eval("push 2\npush 3\nadd\nprint\nhalt").text, "5\n");
        assert_eq!(eval("push 10\npush 3\nsub\nprint\nhalt").text, "7\n");
        assert_eq!(eval("push 20\npush 6\ndiv\nprint\nhalt").text, "3\n");
        assert_eq!(eval("push 20\npush 6\nmod\nprint\nhalt").text, "2\n");
        assert_eq!(eval("push 5\nneg\nprint\nhalt").text, "-5\n");
        assert_eq!(eval("push 1\npush 2\nswap\nprint\nprint\nhalt").text, "1\n2\n");
        assert_eq!(eval("push 1\npush 2\nover\nprint\nprint\nprint\nhalt").text, "1\n2\n1\n");
        assert_eq!(eval("push 7\ndup\nmul\nprint\nhalt").text, "49\n");
        assert_eq!(eval("push 9\npush 8\ndrop\nprint\nhalt").text, "9\n");
    }

    #[test]
    fn comparisons_and_branches() {
        assert_eq!(eval("push 1\npush 2\nlt\nprint\nhalt").text, "1\n");
        assert_eq!(eval("push 2\npush 2\neq\nprint\nhalt").text, "1\n");
        let loop_src = "push 0\nstore 0\nhead:\nload 0\npush 1\nadd\ndup\nstore 0\npush 5\nlt\njnz head\nload 0\nprint\nhalt";
        assert_eq!(eval(loop_src).text, "5\n");
    }

    #[test]
    fn calls_and_recursion() {
        let fib = "push 10\ncall fib\nprint\nhalt\n\
                   fib:\ndup\npush 2\nlt\njnz base\n\
                   dup\npush 1\nsub\ncall fib\nswap\npush 2\nsub\ncall fib\nadd\nret\n\
                   base:\nret";
        assert_eq!(eval(fib).text, "55\n");
    }

    #[test]
    fn registers_and_jumps() {
        assert_eq!(
            eval("push 42\nstore 3\njmp skip\npush 0\nprint\nskip:\nload 3\nprint\nhalt").text,
            "42\n"
        );
    }

    #[test]
    fn runtime_errors() {
        let image = assemble("add\nhalt").unwrap();
        assert!(matches!(run(&image, &mut NullEvents, 100), Err(VmError::StackUnderflow(_))));
        let image = assemble("push 1\npush 0\ndiv\nhalt").unwrap();
        assert!(matches!(run(&image, &mut NullEvents, 100), Err(VmError::DivisionByZero(_))));
        let image = assemble("ret\nhalt").unwrap();
        assert!(matches!(run(&image, &mut NullEvents, 100), Err(VmError::StackUnderflow(0))));
        let image = assemble("head:\njmp head").unwrap();
        assert!(matches!(run(&image, &mut NullEvents, 10), Err(VmError::FuelExhausted(10))));
    }

    #[test]
    fn assembler_rejects_bad_programs() {
        assert!(assemble("").is_err());
        assert!(assemble("bogus\nhalt").is_err());
        assert!(assemble("jmp nowhere\nhalt").is_err());
        assert!(assemble("x:\nx:\nhalt").is_err());
        assert!(assemble("push\nhalt").is_err());
        assert!(assemble("load 99\nhalt").is_err());
        assert!(assemble("push 1 2\nhalt").is_err());
    }

    #[test]
    fn assembler_rejects_programs_that_run_off_the_end() {
        assert!(assemble("push 1").is_err(), "falls through the last instruction");
        assert!(assemble("push 1\njz done\ndone:\nhalt").is_ok());
        assert!(assemble("call f\nhalt\nf:").is_err(), "calls past the last instruction");
        assert!(assemble("jmp end\nend:").is_err(), "jumps past the last instruction");
        assert!(assemble("halt\nunused:").is_ok(), "an unused trailing label is harmless");
    }

    #[test]
    fn events_cover_every_step() {
        struct Count(u64);
        impl VmEvents for Count {
            fn begin(&mut self, _entry: usize) {
                self.0 += 1;
            }
            fn transfer(&mut self, _from: usize, _to: usize, _taken: bool) {
                self.0 += 1;
            }
            fn quicken(&mut self, _instance: usize, _quick_op: ivm_core::OpId) {
                unreachable!("calc never quickens");
            }
        }
        let image = assemble("push 3\npush 4\nadd\nprint\nhalt").unwrap();
        let mut count = Count(0);
        let out = run(&image, &mut count, 100).unwrap();
        assert_eq!(count.0, out.steps, "begin + transfers == steps");
        assert_eq!(out.text, "7\n");
        assert!(out.stack.is_empty());
    }
}
