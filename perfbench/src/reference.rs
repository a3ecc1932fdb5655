//! A fixed amount of reference work, written in the benchmark itself and
//! calling no library code, timed between the workload's calls and around
//! its set-ups, to tell when a neighbour slowed the machine down.
//!
//! On a shared machine the speed a process gets changes within seconds
//! with the load of neighbouring machines, in two ways. Spells of heavy
//! load make the reference take about 1.85 times as long, while the
//! program slows by a factor of its own that depends on the work (a
//! `federate` round by about 1.3). Lighter drift, of up to a quarter, slows
//! the reference and the program alike. The reference runs in the same
//! process, on the same core and right around each timed piece of work.
//! Pieces timed in a spell of heavy load are left out, and the rest are
//! scaled by `nominal ÷ measured` reference time, so the drift cancels.
//! When a whole run falls in such a spell, the pieces it keeps are
//! corrected by no more than the drift limit, since how much the program
//! slowed is not known. No change to the program can move the reference,
//! because it shares no code or heap with it.

use crate::common::percentile;
use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// Units in one sample.
const UNITS: usize = 2;

/// A piece of work ran outside a spell of heavy load when the reference
/// samples around it took at most this many times the nominal time. On the
/// machine the benchmark was set up on, samples took 0.9–1.3 times the
/// nominal time outside such spells and 1.7–2.2 times within them.
const DRIFT_LIMIT: f64 = 1.4;

/// Fewest timings kept, as a share of all: a run slowed throughout keeps
/// the share taken at its highest speed.
const MIN_KEPT_SHARE: f64 = 0.25;

/// Time of one sample on an unloaded core of the 2-vCPU machine the
/// benchmark was set up on. Scaled timings read as times on that machine.
const NOMINAL_NS: f64 = 7.5e5;

/// Inputs and scratch space of the reference work, allocated once, so the
/// samples do not depend on the state of the heap the program leaves.
struct Buffers {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    keys: Vec<u64>,
    sorted: Vec<u64>,
}

const DIMS: (usize, usize, usize) = (12, 48, 32);
const KEYS: usize = 8_000;

impl Buffers {
    fn new() -> Self {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (n, k, m) = DIMS;
        Self {
            a: (0..n * k).map(|_| (next() >> 11) as f64 / 9.0e15).collect(),
            b: (0..k * m).map(|_| (next() >> 11) as f64 / 9.0e15).collect(),
            c: vec![0.0; n * m],
            keys: (0..KEYS).map(|_| next()).collect(),
            sorted: vec![0; KEYS],
        }
    }

    /// One unit: small dense products and a sort, the kinds of work the
    /// program does. About 0.4 ms.
    fn unit(&mut self) {
        let (n, k, m) = DIMS;
        let mut acc = 0.0;
        for _ in 0..40 {
            self.c.fill(0.0);
            for i in 0..n {
                for p in 0..k {
                    let x = black_box(self.a[i * k + p]);
                    for j in 0..m {
                        self.c[i * m + j] += x * self.b[p * m + j];
                    }
                }
            }
            acc += self.c.iter().sum::<f64>();
        }
        self.sorted.copy_from_slice(&self.keys);
        self.sorted.sort_unstable();
        black_box((acc, self.sorted[KEYS / 2]));
    }
}

thread_local! {
    static BUFFERS: RefCell<Buffers> = RefCell::new(Buffers::new());
}

/// Wall time in ns of one sample.
pub fn sample() -> f64 {
    BUFFERS.with(|b| {
        let mut b = b.borrow_mut();
        let t0 = Instant::now();
        for _ in 0..UNITS {
            b.unit();
        }
        t0.elapsed().as_nanos() as f64
    })
}

/// The factor that scales each piece of work to nominal speed, or `None`
/// for a piece to leave out. `around[i]` are the reference samples taken
/// right before and after piece `i`.
/// Keeps the pieces whose median sample is within the drift limit or, if
/// that leaves too few, the pieces with the fastest samples.
pub fn scale(around: &[Vec<f64>]) -> Vec<Option<f64>> {
    let level: Vec<f64> = around.iter().map(|s| percentile(s, 50.0)).collect();
    let limit = DRIFT_LIMIT * NOMINAL_NS;
    outside_heavy_load(&level, limit)
        .into_iter()
        .zip(&level)
        .map(|(keep, &l)| keep.then_some(NOMINAL_NS / l.min(limit)))
        .collect()
}

fn outside_heavy_load(level: &[f64], limit: f64) -> Vec<bool> {
    let at_full: Vec<bool> = level.iter().map(|&l| l <= limit).collect();
    let least = ((level.len() as f64 * MIN_KEPT_SHARE).ceil() as usize).max(1);
    if at_full.iter().filter(|&&k| k).count() >= least {
        return at_full;
    }
    let mut order: Vec<usize> = (0..level.len()).collect();
    order.sort_by(|&a, &b| level[a].total_cmp(&level[b]));
    let mut keep = vec![false; level.len()];
    for &i in order.iter().take(least) {
        keep[i] = true;
    }
    keep
}
