//! Host-speed normalisation.
//!
//! On a shared host the same single-threaded loop can take 40% longer
//! from one minute to the next while its ratio to a fixed reference
//! kernel stays within a few percent. Every end-to-end wall-clock figure
//! is therefore reported *at reference speed*: each timed slice's wall
//! time is multiplied by `NOMINAL_REF_NS / measured`, where `measured`
//! is the mean time of the std-only kernel below over the calibration
//! windows just before and just after the slice. The kernel and its
//! nominal time are constants of the benchmark; changing either changes
//! every reported figure.

use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// The kernel's time at reference speed, in nanoseconds.
pub const NOMINAL_REF_NS: f64 = 250_000.0;

/// Passes over the reference program per kernel call.
const KERNEL_ROUNDS: u32 = 4;

/// Calibration window per second of timed work.
const DUTY: f64 = 0.5;

/// The shortest calibration window, and the first one of a run.
const MIN_WINDOW: Duration = Duration::from_millis(2);
const FIRST_WINDOW: Duration = Duration::from_millis(20);

/// A value of the reference machine: an integer or a shared pair.
#[derive(Clone)]
enum Value {
    Int(i64),
    Pair(Rc<(Value, Value)>),
}

impl Value {
    fn int(&self) -> i64 {
        match self {
            Value::Int(n) => *n,
            Value::Pair(p) => p.0.int().wrapping_add(1),
        }
    }
}

/// An instruction of the reference machine.
#[derive(Clone, Copy)]
enum Op {
    Quote(i64),
    Cons,
    Fst,
    Snd,
    Add,
    Mul,
    Dup,
    Drop,
    Swap,
    Over,
    Rot,
    Neg,
    Less,
    SkipOdd,
    Call(u16),
}

/// Instructions in the reference program.
const PROGRAM_LEN: usize = 2048;

/// The fixed reference program: a pseudo-random instruction mix from a
/// constant seed.
fn program() -> Vec<Op> {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    (0..PROGRAM_LEN)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match x % 16 {
                0 | 1 => Op::Quote((x >> 20) as i64 % 1000),
                2 | 3 => Op::Cons,
                4 => Op::Fst,
                5 => Op::Snd,
                6 => Op::Add,
                7 => Op::Mul,
                8 => Op::Dup,
                9 => Op::Drop,
                10 => Op::Swap,
                11 => Op::Over,
                12 => Op::SkipOdd,
                13 if i % 64 == 0 => Op::Call(((x >> 16) % PROGRAM_LEN as u64) as u16),
                13 => Op::Rot,
                14 => Op::Neg,
                _ => Op::Less,
            }
        })
        .collect()
}

/// The calibration kernel: a small stack machine, shaped like the
/// workload (dispatch on an instruction enum, `Rc` pairs built, taken
/// apart and dropped, a value stack and a return stack), running the
/// reference program `rounds` times.
fn kernel(program: &[Op], rounds: u32) -> i64 {
    let mut stack: Vec<Value> = vec![Value::Int(1), Value::Int(2), Value::Int(3)];
    let mut returns: Vec<usize> = Vec::with_capacity(8);
    let mut acc = 0i64;
    let pop = |stack: &mut Vec<Value>| stack.pop().unwrap_or(Value::Int(0));
    for _ in 0..rounds {
        let mut pc = 0;
        let mut budget = 2 * PROGRAM_LEN;
        while pc < program.len() && budget > 0 {
            budget -= 1;
            if stack.len() < 3 {
                stack.push(Value::Int(pc as i64));
            }
            let op = program[pc];
            pc += 1;
            match op {
                Op::Quote(n) => stack.push(Value::Int(n)),
                Op::Cons => {
                    let (a, b) = (pop(&mut stack), pop(&mut stack));
                    stack.push(Value::Pair(Rc::new((a, b))));
                }
                Op::Fst | Op::Snd => {
                    let v = match pop(&mut stack) {
                        Value::Pair(p) if matches!(op, Op::Fst) => p.0.clone(),
                        Value::Pair(p) => p.1.clone(),
                        v => v,
                    };
                    stack.push(v);
                }
                Op::Add => {
                    let (a, b) = (pop(&mut stack), pop(&mut stack));
                    stack.push(Value::Int(a.int().wrapping_add(b.int())));
                }
                Op::Mul => {
                    let (a, b) = (pop(&mut stack), pop(&mut stack));
                    stack.push(Value::Int(a.int().wrapping_mul(b.int()) % 100_003));
                }
                Op::Dup => stack.push(stack[stack.len() - 1].clone()),
                Op::Drop => drop(pop(&mut stack)),
                Op::Swap => {
                    let n = stack.len();
                    stack.swap(n - 1, n - 2);
                }
                Op::Over => stack.push(stack[stack.len() - 2].clone()),
                Op::Rot => {
                    let n = stack.len();
                    stack[n - 3..].rotate_left(1);
                }
                Op::Neg => {
                    let a = pop(&mut stack);
                    stack.push(Value::Int(a.int().wrapping_neg()));
                }
                Op::Less => {
                    let (a, b) = (pop(&mut stack), pop(&mut stack));
                    stack.push(Value::Int(i64::from(a.int() < b.int())));
                }
                Op::SkipOdd => pc += (stack[stack.len() - 1].int() & 1) as usize,
                Op::Call(target) => {
                    if returns.len() < 8 {
                        returns.push(pc);
                        pc = usize::from(target);
                    }
                }
            }
            if pc >= program.len() {
                if let Some(back) = returns.pop() {
                    pc = back;
                }
            }
            if stack.len() > 64 {
                acc = acc.wrapping_add(stack[0].int());
                stack.truncate(8);
            }
        }
    }
    acc.wrapping_add(stack.len() as i64)
}

/// Runs the kernel back to back on this thread for at least `window`
/// and returns the mean time of one call, in ns. A window as long as the
/// work it calibrates samples the same host conditions, bursts included.
/// One thread only: on a host whose two CPUs share a core, kernels on
/// both at once would measure each other.
pub fn measure(window: Duration) -> f64 {
    let program = program();
    let started = Instant::now();
    let mut calls = 0u32;
    while calls == 0 || started.elapsed() < window {
        black_box(kernel(black_box(&program), black_box(KERNEL_ROUNDS)));
        calls += 1;
    }
    started.elapsed().as_nanos() as f64 / f64::from(calls)
}

/// Alternates calibration windows with timed slices of work.
pub struct Calibrator {
    last: f64,
    /// Every calibration point taken, in ns per kernel call.
    points: Vec<f64>,
}

impl Calibrator {
    /// Takes the first calibration point.
    pub fn new() -> Calibrator {
        let first = measure(FIRST_WINDOW);
        Calibrator {
            last: first,
            points: vec![first],
        }
    }

    /// Runs `slice`, then a calibration window as long as the slice took
    /// (times [`DUTY`]), and returns the slice's result, its wall time in
    /// s, and its reference-speed factor: the nominal kernel time over
    /// the mean of the two points around the slice.
    pub fn slice<T>(&mut self, slice: impl FnOnce() -> T) -> (T, f64, f64) {
        let started = Instant::now();
        let out = slice();
        let elapsed = started.elapsed();
        let next = measure(elapsed.mul_f64(DUTY).max(MIN_WINDOW));
        let factor = NOMINAL_REF_NS / ((self.last + next) / 2.0);
        self.last = next;
        self.points.push(next);
        (out, elapsed.as_secs_f64(), factor)
    }

    /// The median calibration point, in ns.
    pub fn median_ns(&self) -> f64 {
        crate::median(&self.points)
    }
}
