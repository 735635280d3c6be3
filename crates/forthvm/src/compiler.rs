//! A compiler from a mini-Forth dialect to Forth VM code.
//!
//! This plays the role of Gforth's text interpreter front end (paper §2.1:
//! efficient interpretive systems compile the source into a flat VM code
//! once, then interpret that). The dialect supports colon definitions, the
//! standard stack/arithmetic words, `IF ELSE THEN`, `BEGIN UNTIL/AGAIN`,
//! `BEGIN WHILE REPEAT`, counted `DO ... LOOP` with `I`/`J`, `RECURSE`,
//! `EXIT`, `VARIABLE`, `CONSTANT`, and `CREATE ... ALLOT` arrays. Memory is
//! cell-addressed (so `CELLS` is the identity scale).

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use ivm_core::{OpId, ProgramCode};

use crate::inst::{ops, ForthOps};

/// A compiled Forth program ready to interpret.
#[derive(Debug, Clone)]
pub struct Image {
    /// Instruction stream and control structure.
    pub program: ProgramCode,
    /// Per-instance operand (literal value; unused entries are 0).
    pub operands: Vec<i64>,
    /// Entry instance (the boot code: `call main; halt`).
    pub entry: usize,
    /// Cells of data memory the program statically allocates.
    pub memory_cells: usize,
}

/// Compilation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "forth compile error: {}", self.message)
    }
}

impl Error for CompileError {}

fn err<T>(message: impl Into<String>) -> Result<T, CompileError> {
    Err(CompileError { message: message.into() })
}

/// Data-space cells a program may allocate (cell 0, the null address,
/// included): 8 MiB of memory, far above the bundled programs' needs.
const MAX_DATA_CELLS: i64 = 1 << 20;

#[derive(Debug, Clone, Copy)]
enum Dict {
    /// A user word: callable instance index.
    Word(u32),
    /// A primitive op.
    Prim(OpId),
    /// Pushes an address.
    Variable(i64),
    /// Pushes a value.
    Constant(i64),
}

#[derive(Debug, Clone)]
enum Ctl {
    If { orig: u32 },
    Else { orig: u32 },
    Begin { dest: u32 },
    While { dest: u32, orig: u32 },
    Do { dest: u32, leaves: Vec<u32> },
    Case { exits: Vec<u32> },
    Of { orig: u32 },
}

struct Compiler<'s> {
    o: &'static ForthOps,
    tokens: Vec<&'s str>,
    pos: usize,
    dict: HashMap<String, Dict>,
    program: ivm_core::ProgramBuilder,
    operands: Vec<i64>,
    ctl: Vec<Ctl>,
    here: i64,
    current_word: Option<(String, u32)>,
    data_stack: Vec<i64>,
    boot_call: u32,
}

/// Compiles mini-Forth `source` into an [`Image`].
///
/// Execution will begin at the word named `main`.
///
/// # Errors
///
/// Returns a [`CompileError`] for unknown words, unbalanced control
/// structures, a missing `main`, or data allocations past 2^20 cells.
///
/// # Examples
///
/// ```
/// let image = ivm_forth::compile(": main 2 3 + . ;").unwrap();
/// assert!(image.program.len() > 3);
/// ```
pub fn compile(source: &str) -> Result<Image, CompileError> {
    let tokens = tokenize(source);
    let o = ops();
    let mut program = ProgramCode::builder("forth-program");
    // Boot code: call main (patched later), halt.
    let boot_call = program.push(o.call, None);
    program.push(o.halt, None);

    let mut c = Compiler {
        o,
        tokens,
        pos: 0,
        dict: primitives(o),
        program,
        operands: vec![0, 0],
        ctl: Vec::new(),
        here: 1, // cell 0 reserved as a null address
        current_word: None,
        data_stack: Vec::new(),
        boot_call,
    };
    c.compile_all()?;

    let main = match c.dict.get("main") {
        Some(&Dict::Word(w)) => w,
        _ => return err("program must define `: main ... ;`"),
    };
    c.program.patch_target(c.boot_call, main);
    let program = c.program.finish(&o.spec);
    Ok(Image {
        program,
        operands: c.operands,
        entry: 0,
        memory_cells: usize::try_from(c.here).expect("`reserve` keeps `here` positive") + 1,
    })
}

fn tokenize(source: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for line in source.lines() {
        let line = line.split('\\').next().unwrap_or("");
        let mut in_comment = false;
        for tok in line.split_whitespace() {
            if in_comment {
                if tok.ends_with(')') {
                    in_comment = false;
                }
                continue;
            }
            if tok == "(" {
                in_comment = true;
                continue;
            }
            out.push(tok);
        }
    }
    out
}

fn primitives(o: &ForthOps) -> HashMap<String, Dict> {
    let mut d = HashMap::new();
    // Every spec instruction whose name is a plain word is directly usable;
    // internal ops are parenthesised and bound to structured words instead.
    for (op, def) in o.spec.iter() {
        if !def.name.starts_with('(') {
            d.insert(def.name.clone(), Dict::Prim(op));
        }
    }
    d.insert("bl".to_owned(), Dict::Constant(32));
    d.insert("true".to_owned(), Dict::Constant(-1));
    d.insert("false".to_owned(), Dict::Constant(0));
    d
}

impl Compiler<'_> {
    fn next(&mut self) -> Option<String> {
        let t = self.tokens.get(self.pos).map(|t| t.to_lowercase());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn next_name(&mut self, what: &str) -> Result<String, CompileError> {
        match self.next() {
            Some(n) => Ok(n),
            None => err(format!("missing name after `{what}`")),
        }
    }

    fn emit(&mut self, op: OpId, operand: i64, target: Option<u32>) -> u32 {
        let i = self.program.push(op, target);
        self.operands.push(operand);
        i
    }

    fn here_inst(&self) -> u32 {
        self.program.len() as u32
    }

    /// Allocates `cells` cells of data space, returning the first one's
    /// address.
    fn reserve(&mut self, cells: i64) -> Result<i64, CompileError> {
        let addr = self.here;
        match addr.checked_add(cells) {
            Some(end) if end < MAX_DATA_CELLS => {
                self.here = end;
                Ok(addr)
            }
            _ => err(format!("data space exceeds {MAX_DATA_CELLS} cells")),
        }
    }

    fn compile_all(&mut self) -> Result<(), CompileError> {
        while let Some(tok) = self.next() {
            if self.current_word.is_some() {
                self.compile_token(&tok)?;
            } else {
                self.interpret_token(&tok)?;
            }
        }
        if let Some((name, _)) = &self.current_word {
            return err(format!("unterminated definition of `{name}`"));
        }
        Ok(())
    }

    /// Top-level ("interpret state"): definitions and data allocation only.
    fn interpret_token(&mut self, tok: &str) -> Result<(), CompileError> {
        match tok {
            ":" => {
                let name = self.next_name(":")?;
                let start = self.here_inst();
                self.current_word = Some((name, start));
                Ok(())
            }
            "variable" => {
                let name = self.next_name("variable")?;
                let addr = self.reserve(1)?;
                self.dict.insert(name, Dict::Variable(addr));
                Ok(())
            }
            "create" => {
                let name = self.next_name("create")?;
                let addr = self.here;
                self.dict.insert(name, Dict::Variable(addr));
                Ok(())
            }
            "constant" => {
                let name = self.next_name("constant")?;
                match self.data_stack.pop() {
                    Some(v) => {
                        self.dict.insert(name, Dict::Constant(v));
                        Ok(())
                    }
                    None => err("constant needs a value on the compile-time stack"),
                }
            }
            "allot" => match self.data_stack.pop() {
                Some(n) if n >= 0 => self.reserve(n).map(drop),
                _ => err("allot needs a non-negative compile-time value"),
            },
            "cells" => match self.data_stack.pop() {
                Some(n) => {
                    self.data_stack.push(n); // cell-addressed memory: identity
                    Ok(())
                }
                None => err("cells needs a compile-time value"),
            },
            "*" => {
                let (b, a) = match (self.data_stack.pop(), self.data_stack.pop()) {
                    (Some(b), Some(a)) => (b, a),
                    _ => return err("compile-time * needs two values"),
                };
                self.data_stack.push(a.wrapping_mul(b)); // like the VM's `*`
                Ok(())
            }
            _ => {
                if let Ok(n) = parse_number(tok) {
                    self.data_stack.push(n);
                    return Ok(());
                }
                err(format!("`{tok}` is not usable outside a definition"))
            }
        }
    }

    /// Inside a colon definition ("compile state").
    fn compile_token(&mut self, tok: &str) -> Result<(), CompileError> {
        let o = self.o;
        match tok {
            ";" => {
                if !self.ctl.is_empty() {
                    return err("unbalanced control structure at `;`");
                }
                self.emit(o.exit, 0, None);
                let (name, start) = self.current_word.take().expect("in definition");
                self.program.mark_entry(start);
                self.dict.insert(name, Dict::Word(start));
                Ok(())
            }
            "if" => {
                let orig = self.emit(o.zbranch, 0, None);
                self.ctl.push(Ctl::If { orig });
                Ok(())
            }
            "else" => match self.ctl.pop() {
                Some(Ctl::If { orig }) => {
                    let jump = self.emit(o.branch, 0, None);
                    let here = self.here_inst();
                    self.program.patch_target(orig, here);
                    self.ctl.push(Ctl::Else { orig: jump });
                    Ok(())
                }
                _ => err("`else` without matching `if`"),
            },
            "then" => match self.ctl.pop() {
                Some(Ctl::If { orig }) | Some(Ctl::Else { orig }) => {
                    let here = self.here_inst();
                    self.program.patch_target(orig, here);
                    Ok(())
                }
                _ => err("`then` without matching `if`"),
            },
            "begin" => {
                self.ctl.push(Ctl::Begin { dest: self.here_inst() });
                Ok(())
            }
            "until" => match self.ctl.pop() {
                Some(Ctl::Begin { dest }) => {
                    self.emit(o.zbranch, 0, Some(dest));
                    Ok(())
                }
                _ => err("`until` without matching `begin`"),
            },
            "again" => match self.ctl.pop() {
                Some(Ctl::Begin { dest }) => {
                    self.emit(o.branch, 0, Some(dest));
                    Ok(())
                }
                _ => err("`again` without matching `begin`"),
            },
            "while" => match self.ctl.pop() {
                Some(Ctl::Begin { dest }) => {
                    let orig = self.emit(o.zbranch, 0, None);
                    self.ctl.push(Ctl::While { dest, orig });
                    Ok(())
                }
                _ => err("`while` without matching `begin`"),
            },
            "repeat" => match self.ctl.pop() {
                Some(Ctl::While { dest, orig }) => {
                    self.emit(o.branch, 0, Some(dest));
                    let here = self.here_inst();
                    self.program.patch_target(orig, here);
                    Ok(())
                }
                _ => err("`repeat` without matching `begin ... while`"),
            },
            "do" => {
                self.emit(o.do_, 0, None);
                self.ctl.push(Ctl::Do { dest: self.here_inst(), leaves: Vec::new() });
                Ok(())
            }
            "loop" => match self.ctl.pop() {
                Some(Ctl::Do { dest, leaves }) => {
                    self.emit(o.loop_, 0, Some(dest));
                    let after = self.here_inst();
                    for l in leaves {
                        self.program.patch_target(l, after);
                    }
                    Ok(())
                }
                _ => err("`loop` without matching `do`"),
            },
            "+loop" => match self.ctl.pop() {
                Some(Ctl::Do { dest, leaves }) => {
                    self.emit(o.plus_loop, 0, Some(dest));
                    let after = self.here_inst();
                    for l in leaves {
                        self.program.patch_target(l, after);
                    }
                    Ok(())
                }
                _ => err("`+loop` without matching `do`"),
            },
            "?leave" => {
                let orig = self.emit(o.leave_check, 0, None);
                match self.ctl.iter_mut().rev().find_map(|c| match c {
                    Ctl::Do { leaves, .. } => Some(leaves),
                    _ => None,
                }) {
                    Some(leaves) => {
                        leaves.push(orig);
                        Ok(())
                    }
                    None => err("`?leave` outside of `do ... loop`"),
                }
            }
            "case" => {
                self.ctl.push(Ctl::Case { exits: Vec::new() });
                Ok(())
            }
            "of" => {
                // ( sel x -- sel ) compare; skip clause unless equal.
                if !matches!(self.ctl.last(), Some(Ctl::Case { .. })) {
                    return err("`of` outside of `case`");
                }
                self.emit(o.over, 0, None);
                self.emit(o.eq, 0, None);
                let orig = self.emit(o.zbranch, 0, None);
                self.emit(o.drop, 0, None); // clause body runs without sel
                self.ctl.push(Ctl::Of { orig });
                Ok(())
            }
            "endof" => match self.ctl.pop() {
                Some(Ctl::Of { orig }) => {
                    let exit = self.emit(o.branch, 0, None);
                    let here = self.here_inst();
                    self.program.patch_target(orig, here);
                    match self.ctl.last_mut() {
                        Some(Ctl::Case { exits }) => {
                            exits.push(exit);
                            Ok(())
                        }
                        _ => err("`endof` outside of `case`"),
                    }
                }
                _ => err("`endof` without matching `of`"),
            },
            "endcase" => match self.ctl.pop() {
                Some(Ctl::Case { exits }) => {
                    // Default path still holds the selector.
                    self.emit(o.drop, 0, None);
                    let here = self.here_inst();
                    for e in exits {
                        self.program.patch_target(e, here);
                    }
                    Ok(())
                }
                _ => err("`endcase` without matching `case`"),
            },
            "recurse" => {
                let (_, start) = *self.current_word.as_ref().expect("in definition");
                self.emit(o.call, 0, Some(start));
                Ok(())
            }
            _ => {
                if let Ok(n) = parse_number(tok) {
                    self.emit(o.lit, n, None);
                    return Ok(());
                }
                match self.dict.get(tok).copied() {
                    Some(Dict::Prim(op)) => {
                        self.emit(op, 0, None);
                        Ok(())
                    }
                    Some(Dict::Word(start)) => {
                        self.emit(o.call, 0, Some(start));
                        Ok(())
                    }
                    Some(Dict::Variable(addr)) => {
                        self.emit(o.lit, addr, None);
                        Ok(())
                    }
                    Some(Dict::Constant(v)) => {
                        self.emit(o.lit, v, None);
                        Ok(())
                    }
                    None => err(format!("unknown word `{tok}`")),
                }
            }
        }
    }
}

fn parse_number(tok: &str) -> Result<i64, std::num::ParseIntError> {
    if let Some(hex) = tok.strip_prefix('$') {
        i64::from_str_radix(hex, 16)
    } else {
        tok.parse()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_program_compiles() {
        let image = compile(": main 1 2 + . ;").expect("compiles");
        // boot(2) + lit lit add dot exit = 7 instances.
        assert_eq!(image.program.len(), 7);
        assert_eq!(image.entry, 0);
    }

    #[test]
    fn missing_main_is_an_error() {
        let e = compile(": helper 1 ;").unwrap_err();
        assert!(e.message.contains("main"));
    }

    #[test]
    fn unknown_word_is_an_error() {
        let e = compile(": main frobnicate ;").unwrap_err();
        assert!(e.message.contains("frobnicate"));
    }

    #[test]
    fn unbalanced_if_is_an_error() {
        assert!(compile(": main 1 if 2 ;").is_err());
        assert!(compile(": main then ;").is_err());
        assert!(compile(": main begin ;").is_err());
    }

    #[test]
    fn variables_and_constants() {
        let image = compile(
            "variable x\n\
             42 constant answer\n\
             create buf 10 cells allot\n\
             : main x ! answer . buf drop ;",
        )
        .expect("compiles");
        assert!(image.memory_cells >= 12);
    }

    #[test]
    fn comments_are_ignored() {
        let image = compile(": main ( a comment ) 1 . \\ line comment\n ;");
        assert!(image.is_ok());
    }

    #[test]
    fn control_structures_compile() {
        let src = "
            : abs2 dup 0< if negate then ;
            : count10 0 begin 1+ dup 10 >= until ;
            : sum10 0 10 0 do i + loop ;
            : main 5 abs2 drop count10 drop sum10 . ;
        ";
        assert!(compile(src).is_ok());
    }

    #[test]
    fn recursion_compiles() {
        let src =
            ": fib dup 2 < if exit then dup 1- recurse swap 2 - recurse + ; : main 10 fib . ;";
        let image = compile(src).expect("compiles");
        assert!(image.program.len() > 10);
    }

    #[test]
    fn hex_literals() {
        let image = compile(": main $ff . ;").expect("compiles");
        assert!(image.operands.contains(&255));
    }
}

#[cfg(test)]
mod case_tests {
    use super::compile;
    use crate::vm::run;
    use ivm_core::NullEvents;

    fn eval(src: &str) -> String {
        let image = compile(src).expect("compiles");
        run(&image, &mut NullEvents, 1_000_000).expect("runs").text
    }

    #[test]
    fn case_selects_matching_clause() {
        let src = "
            : classify ( n -- )
              case
                1 of 10 . endof
                2 of 20 . endof
                3 of 30 . endof
                99 .
              endcase ;
            : main 1 classify 2 classify 3 classify 7 classify ;
        ";
        assert_eq!(eval(src), "10 20 30 99 ");
    }

    #[test]
    fn case_default_drops_selector() {
        // The stack must end balanced whether a clause fired or not.
        let src = ": main 5 case 1 of 111 . endof endcase depth . ;";
        assert_eq!(eval(src), "0 ");
    }

    #[test]
    fn nested_case_inside_loop() {
        let src = "
            : main
              0
              6 0 do
                i case
                  0 of 1 endof
                  1 of 2 endof
                  3 of 8 endof
                  0 swap \\ default: contribute 0 (endcase drops the selector)
                endcase
                +
              loop . ;
        ";
        // i=0 ->1, 1->2, 2->default 0, 3->8, 4->0, 5->0 = 11.
        assert_eq!(eval(src), "11 ");
    }

    #[test]
    fn unbalanced_case_errors() {
        assert!(compile(": main case ;").is_err());
        assert!(compile(": main 1 of ;").is_err());
        assert!(compile(": main endcase ;").is_err());
        assert!(compile(": main case 1 of endcase ;").is_err());
    }
}

/// Disassembles a compiled [`Image`] back to a readable listing — one line
/// per instance with the word name, literal operand, and branch target.
///
/// # Examples
///
/// ```
/// let image = ivm_forth::compile(": main 2 3 + . ;").unwrap();
/// let listing = ivm_forth::disassemble(&image);
/// assert!(listing.contains("lit") && listing.contains("(call)"));
/// ```
pub fn disassemble(image: &Image) -> String {
    use std::fmt::Write as _;
    let o = ops();
    let mut out = String::new();
    for i in 0..image.program.len() {
        let op = image.program.op(i);
        let name = o.spec.name(op);
        let _ = write!(out, "{i:5}{} {name}", if image.program.is_leader(i) { ':' } else { ' ' });
        if op == o.lit {
            let _ = write!(out, " {}", image.operands[i]);
        }
        if let Some(t) = image.program.target(i) {
            let _ = write!(out, " -> {t}");
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod disassemble_tests {
    use super::*;

    #[test]
    fn listing_shows_structure() {
        let image = compile(": main 5 0 do i . loop ;").expect("compiles");
        let text = disassemble(&image);
        assert!(text.contains("(do)"));
        assert!(text.contains("(loop)"));
        assert!(text.contains("->"), "loop shows its back edge");
        assert!(text.contains("lit 5"));
        assert_eq!(text.lines().count(), image.program.len());
    }
}
