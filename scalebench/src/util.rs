//! Small helpers: a seeded generator, sample summaries, process facts.

use std::time::{Duration, Instant};

/// SplitMix64: every input of a run is drawn from this, seeded from the
/// `--seed` argument, so one seed always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream derived from `seed` and a per-purpose `stream` tag, so
    /// adding draws to one input does not shift another.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The `q`-quantile (nearest rank) of `xs`, which it sorts; 0 when empty.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sleep until `at` (returns at once when it has passed).
pub fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn kernel_release() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// The commit of the checkout in the working directory, or "unknown"
/// when it is not a git repository (its parents are not searched).
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Set-ups per run; `setup_s` is the median of their times.
pub const SETUP_REPS: usize = 3;

/// Slots of the calibration ring: 32 MiB of `u32`, larger than a core's
/// L2, so the chase runs at the speed of the shared cache and memory.
const RING_SLOTS: usize = 1 << 23;
/// Dependent loads in one calibration pass.
const CHASE_STEPS: usize = 600_000;
/// Rounds of register-only arithmetic in one calibration pass.
const ALU_ROUNDS: u64 = 30_000_000;
/// Seconds one calibration pass takes on the reference machine (2-vCPU
/// Xeon, 4 MiB L2 per core, 105 MiB shared L3, no other load).
const CALIBRATION_REF_S: f64 = 0.15;

/// A fixed piece of work, independent of the program under test, that
/// measures how fast the machine runs right now. A pass chases pointers
/// around one random cycle through [`RING_SLOTS`] slots, which pays the
/// cache and memory latency a graph search pays, then runs a chain of
/// multiply-rotate rounds, which runs at the core's clock. On a shared
/// machine the same set-up took up to 40 % longer from one quarter of an
/// hour to the next; timing this pass beside it cancels what of that
/// drift the pass also sees.
pub struct Calibration {
    ring: Vec<u32>,
}

impl Calibration {
    pub fn new() -> Self {
        // Sattolo's shuffle: one cycle through every slot, the same on
        // every run.
        let mut ring: Vec<u32> = (0..RING_SLOTS as u32).collect();
        let mut rng = Rng::new(0, 0xCA1B);
        for i in (1..RING_SLOTS).rev() {
            let j = rng.below(i as u64) as usize;
            ring.swap(i, j);
        }
        Calibration { ring }
    }

    /// Seconds one pass takes now.
    pub fn pass(&self) -> f64 {
        let start = Instant::now();
        let mut at = 0u32;
        for _ in 0..CHASE_STEPS {
            at = self.ring[at as usize];
        }
        let mut h = u64::from(at);
        for i in 0..ALU_ROUNDS {
            h = (h ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        }
        std::hint::black_box(h);
        start.elapsed().as_secs_f64()
    }
}

/// What [`timed_setups`] measured.
pub struct SetupTimes {
    /// Median set-up time scaled to the reference machine's speed: times
    /// [`CALIBRATION_REF_S`] over the median calibration pass.
    pub setup_s: f64,
    /// Median of the set-up times as measured.
    pub raw_s: f64,
    /// Median calibration pass, in seconds.
    pub calibration_s: f64,
}

/// Run `setup` [`SETUP_REPS`] times, dropping each result before the
/// next, with a calibration pass before the first and after each; keep
/// the last result. Medians on both sides keep one slow pass or set-up
/// from moving the figure.
pub fn timed_setups<T>(mut setup: impl FnMut() -> (T, Duration)) -> (T, SetupTimes) {
    let calibration = Calibration::new();
    let mut passes = vec![calibration.pass()];
    let mut raw = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let (value, took) = setup();
        kept = Some(value);
        raw.push(took.as_secs_f64());
        passes.push(calibration.pass());
    }
    let (raw_s, calibration_s) = (median(&mut raw), median(&mut passes));
    let times = SetupTimes {
        setup_s: raw_s * CALIBRATION_REF_S / calibration_s,
        raw_s,
        calibration_s,
    };
    (kept.expect("at least one set-up"), times)
}

/// Windows a measured phase is cut into for [`windowed`].
pub const WINDOWS: usize = 10;

/// The median, over [`WINDOWS`] equal windows of `[0, span)` seconds, of
/// `stat` applied to the values of the `(time, value)` samples falling
/// in each window. A slow spell on a shared machine then moves one
/// window's figure, not the run's; anything the program does in every
/// window still shows in full.
pub fn windowed(samples: &[(f64, f64)], span: f64, stat: impl Fn(&mut [f64]) -> f64) -> f64 {
    let mut bins = vec![Vec::new(); WINDOWS];
    for &(at, v) in samples {
        let i = (at / span * WINDOWS as f64).floor();
        if (0.0..WINDOWS as f64).contains(&i) {
            bins[i as usize].push(v);
        }
    }
    let mut per: Vec<f64> = bins.iter_mut().map(|b| stat(b)).collect();
    median(&mut per)
}
