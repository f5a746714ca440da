//! The workspace's one tick clock.
//!
//! [`now`] is a raw counter read — the TSC on x86_64 (a few ns,
//! unserialized, no syscall or vDSO call), nanoseconds since a process
//! epoch elsewhere — cheap enough for a spin loop and a per-attempt stamp.
//! Ticks are only meaningful as *differences*; [`ticks_to_ns`] /
//! [`ns_to_ticks`] convert one through a once-per-process scale, and
//! [`Stamp`] is a reading that carries its own difference arithmetic.
//!
//! Contract:
//! * [`now`] is monotone per thread and never calibrates.
//! * A difference of readings taken on two threads is valid where the
//!   counter is synchronised across CPUs: always for the fallback source,
//!   and for the TSC wherever Linux runs the `tsc` clocksource (it selects
//!   it only after its cross-CPU synchronisation check). The lifecycle
//!   trace and the server's queue-wait stamps rely on this. A reading
//!   taken after a hand-off is ordered after one taken before it only if
//!   it is [`Stamp::now_ordered`]; any other pair of readings from two
//!   threads may come out a little behind each other, and [`Stamp`] reads
//!   such a negative difference as 0.
//! * The scale is fixed at the first conversion and never changes, so
//!   converted durations are mutually consistent for the life of the
//!   process (to within the ~0.1 % calibration error; they are *not*
//!   disciplined against `Instant` afterwards).
//! * Calibration compares the counter against `Instant` over the window
//!   since [`anchor`] was first called. Whoever wants conversions to be
//!   free calls [`anchor`] early (one counter read, no waiting — the STM
//!   heap constructor and `Trace::new` do); only a conversion that comes
//!   within [`MIN_WINDOW_NS`] of the anchor spins out the rest of that
//!   window, so calibration never costs more than that once.

/// Shortest `Instant`-vs-counter window the scale is computed over. The
/// two ends are each read to within ~15 ns, so 40 µs bounds the scale's
/// error near 0.1 % — and bounds what a too-early first conversion can
/// spin.
pub const MIN_WINDOW_NS: u64 = 40_000;

/// Fallback source for targets without a cheap invariant cycle counter:
/// ticks *are* nanoseconds since the first call. Compiled (and tested) on
/// every target so it cannot rot.
#[cfg_attr(target_arch = "x86_64", allow(dead_code))]
mod instant_source {
    use std::sync::OnceLock;
    use std::time::Instant;

    static EPOCH: OnceLock<Instant> = OnceLock::new();

    pub fn anchor() {
        EPOCH.get_or_init(Instant::now);
    }

    #[inline]
    pub fn now() -> u64 {
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }

    /// `Instant` reads are already ordered after earlier loads.
    #[inline]
    pub fn now_ordered() -> u64 {
        now()
    }

    pub fn ns_per_tick() -> f64 {
        1.0
    }
}

#[cfg(target_arch = "x86_64")]
mod tsc_source {
    use std::sync::OnceLock;
    use std::time::Instant;

    /// An `Instant` and the TSC read together.
    pub struct Pair {
        at: Instant,
        ticks: u64,
    }

    static ANCHOR: OnceLock<Pair> = OnceLock::new();
    static NS_PER_TICK: OnceLock<f64> = OnceLock::new();

    /// The workspace's only `_rdtsc` call site
    /// (`scripts/check_one_clock.sh`).
    #[inline]
    pub fn now() -> u64 {
        // SAFETY: `_rdtsc` has no preconditions.
        unsafe { core::arch::x86_64::_rdtsc() }
    }

    /// [`now`] read only once every earlier load has completed: `lfence`
    /// holds the `rdtsc` back, as the kernel's vDSO clock does. Plain
    /// `rdtsc` may run ahead of an earlier load still in flight, so a
    /// reading taken just after an `Acquire` can predate the store that
    /// load saw — by up to ~190 ticks (~60 ns) on a 2-vCPU Xeon guest,
    /// never with the fence.
    #[inline]
    pub fn now_ordered() -> u64 {
        // SAFETY: `lfence` is SSE2, which every x86_64 CPU has.
        unsafe { core::arch::x86_64::_mm_lfence() };
        now()
    }

    /// Read both clocks, bracketing the `Instant` read between two TSC
    /// reads and keeping the tightest of three brackets, so a preemption
    /// between the reads cannot skew the pair.
    pub fn pair() -> Pair {
        let bracket = |_| {
            let t0 = now();
            let at = Instant::now();
            let width = now().wrapping_sub(t0);
            let ticks = t0.wrapping_add(width / 2);
            (width, Pair { at, ticks })
        };
        let (_, tightest) = (0..3)
            .map(bracket)
            .min_by_key(|(width, _)| *width)
            .expect("three brackets were taken");
        tightest
    }

    pub fn anchor() {
        ANCHOR.get_or_init(pair);
    }

    /// Nanoseconds per tick over the window since `anchor`, waiting out
    /// whatever is missing of [`MIN_WINDOW_NS`](super::MIN_WINDOW_NS).
    pub fn calibrate(anchor: &Pair) -> f64 {
        loop {
            let end = pair();
            let ns = end.at.duration_since(anchor.at).as_nanos() as u64;
            if ns >= super::MIN_WINDOW_NS {
                let ticks = end.ticks.wrapping_sub(anchor.ticks).max(1);
                return ns as f64 / ticks as f64;
            }
            std::hint::spin_loop();
        }
    }

    #[inline]
    pub fn ns_per_tick() -> f64 {
        *NS_PER_TICK.get_or_init(|| calibrate(ANCHOR.get_or_init(pair)))
    }
}

#[cfg(not(target_arch = "x86_64"))]
use instant_source as source;
#[cfg(target_arch = "x86_64")]
use tsc_source as source;

/// The current tick count (see the module contract for which differences
/// are valid).
#[inline]
pub fn now() -> u64 {
    source::now()
}

/// One [`now`] reading as a timestamp: what the server stamps on an
/// envelope at admission and what its executor stamps at start and end of
/// service. Differences saturate at 0, so a reading taken on another
/// thread that lands just behind this one reads as "no time", never as a
/// wrapped huge one.
///
/// Across a hand-off (a `Release` store on one thread, the `Acquire` load
/// that sees it on another), a [`now`](Self::now) taken before the store
/// is never later than a [`now_ordered`](Self::now_ordered) taken after
/// the load. A plain `now` after the load carries no such promise: the
/// counter read may run ahead of the load.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Stamp(u64);

impl Stamp {
    /// The current reading. One counter read; never calibrates.
    #[inline]
    pub fn now() -> Self {
        Self(now())
    }

    /// The current reading, taken only after every earlier load has
    /// completed: the stamp to take after receiving another thread's
    /// stamp (one fence more than [`now`](Self::now), ~10 ns).
    #[inline]
    pub fn now_ordered() -> Self {
        Self(source::now_ordered())
    }

    /// Ticks from `earlier` to `self` (0 if `earlier` is later).
    #[inline]
    pub(crate) fn ticks_since(self, earlier: Stamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Nanoseconds from `earlier` to `self` (0 if `earlier` is later).
    #[inline]
    pub fn ns_since(self, earlier: Stamp) -> u64 {
        ticks_to_ns(self.ticks_since(earlier))
    }

    /// Time from this reading, taken on any thread, to now.
    pub fn elapsed(self) -> std::time::Duration {
        std::time::Duration::from_nanos(Self::now_ordered().ns_since(self))
    }
}

/// Pin the start of the calibration window (idempotent; one counter read,
/// never waits). See the module contract.
pub fn anchor() {
    source::anchor();
}

/// A tick difference in nanoseconds.
#[inline]
pub fn ticks_to_ns(ticks: u64) -> u64 {
    (ticks as f64 * source::ns_per_tick()) as u64
}

/// A nanosecond duration in ticks (negative or NaN → 0, huge → saturates).
#[inline]
pub fn ns_to_ticks(ns: f64) -> u64 {
    (ns / source::ns_per_tick()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// Busy-wait `d`, returning the same interval on both clocks.
    fn measure(d: Duration) -> (u64, u64) {
        let (t0, i0) = (now(), Instant::now());
        while i0.elapsed() < d {
            std::hint::spin_loop();
        }
        let ticks = now().wrapping_sub(t0);
        (ticks_to_ns(ticks), i0.elapsed().as_nanos() as u64)
    }

    #[test]
    fn ticks_are_monotone_on_a_thread() {
        let mut prev = now();
        for _ in 0..200_000 {
            let t = now();
            assert!(t >= prev, "tick clock went backwards: {prev} -> {t}");
            prev = t;
        }
    }

    #[test]
    fn a_stamp_before_a_release_is_not_after_one_past_its_acquire() {
        // Two threads hand a turn back and forth 100k times. Each stamps
        // just before the `Release` store that passes the turn on, and
        // (ordered) just after the `Acquire` load that receives it: across
        // threads, the sender's stamp is never later than the receiver's.
        // With a plain `Stamp::now` on the receiving side this fails within
        // a few thousand rounds on a 2-vCPU Xeon guest.
        use std::sync::atomic::{AtomicU64, Ordering};
        const ROUNDS: u64 = 100_000;
        let turn = AtomicU64::new(0);
        let wait_for = |t: u64| {
            let mut spins = 0u32;
            while turn.load(Ordering::Acquire) != t {
                spins += 1;
                if spins.is_multiple_of(256) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
            Stamp::now_ordered()
        };
        // Side `side` receives turns 2r + side and sends 2r + side + 1.
        let play = |side: u64| {
            let mut sent = Vec::with_capacity(ROUNDS as usize);
            let mut received = Vec::with_capacity(ROUNDS as usize);
            for r in 0..ROUNDS {
                received.push(wait_for(2 * r + side));
                sent.push(Stamp::now());
                turn.store(2 * r + side + 1, Ordering::Release);
            }
            (sent, received)
        };
        let ((sent0, received0), (sent1, received1)) = std::thread::scope(|s| {
            let other = s.spawn(|| play(1));
            (play(0), other.join().unwrap())
        });
        for r in 0..ROUNDS as usize {
            assert!(sent0[r] <= received1[r], "round {r}: 0 -> 1 went backwards");
            if r + 1 < ROUNDS as usize {
                assert!(
                    sent1[r] <= received0[r + 1],
                    "round {r}: 1 -> 0 went backwards"
                );
            }
        }
    }

    #[test]
    fn stamp_differences_saturate_and_convert() {
        let a = Stamp::now();
        std::thread::sleep(Duration::from_millis(1));
        let b = Stamp::now();
        assert_eq!(a.ticks_since(b), 0, "a negative difference reads as 0");
        assert_eq!(a.ns_since(b), 0);
        assert!(b.ns_since(a) >= 990_000, "{} ns", b.ns_since(a));
        assert!(a.elapsed() >= Duration::from_nanos(b.ns_since(a)));
    }

    #[test]
    fn conversion_tracks_instant_within_one_percent_over_10ms() {
        anchor();
        // A preemption between the two clocks' end reads skews one
        // attempt, not all five.
        let mut worst = 0.0f64;
        for _ in 0..5 {
            let (ours, theirs) = measure(Duration::from_millis(10));
            let err = (ours as f64 - theirs as f64).abs() / theirs as f64;
            if err <= 0.01 {
                return;
            }
            worst = worst.max(err);
        }
        panic!("tick-derived ns off by {:.2}% from Instant", worst * 100.0);
    }

    #[test]
    fn ns_and_ticks_round_trip() {
        for ns in [0u64, 1_000, 1_000_000, 3_600_000_000_000] {
            let back = ticks_to_ns(ns_to_ticks(ns as f64));
            assert!(back.abs_diff(ns) <= 1 + ns / 1_000_000, "{ns} -> {back}");
        }
        assert_eq!(ns_to_ticks(-5.0), 0);
        assert_eq!(ns_to_ticks(f64::NAN), 0);
        assert_eq!(ns_to_ticks(f64::INFINITY), u64::MAX);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn calibration_costs_at_most_its_window() {
        // Worst case: the first conversion comes right after the anchor.
        // Best of five, so a preempted attempt does not decide it.
        let best = (0..5)
            .map(|_| {
                let t = Instant::now();
                let scale = tsc_source::calibrate(&tsc_source::pair());
                assert!(scale.is_finite() && scale > 0.0);
                t.elapsed()
            })
            .min()
            .expect("five attempts");
        assert!(
            best <= Duration::from_micros(50),
            "calibration took {best:?}"
        );
        // ... and a window that has already passed costs no wait at all.
        let old = tsc_source::pair();
        std::thread::sleep(Duration::from_micros(2 * MIN_WINDOW_NS / 1_000));
        let best = (0..5)
            .map(|_| {
                let t = Instant::now();
                tsc_source::calibrate(&old);
                t.elapsed()
            })
            .min()
            .expect("five attempts");
        assert!(
            best <= Duration::from_micros(5),
            "no-wait path took {best:?}"
        );
    }

    #[test]
    fn instant_fallback_is_a_nanosecond_clock() {
        instant_source::anchor();
        assert_eq!(instant_source::ns_per_tick(), 1.0);
        let (t0, i0) = (instant_source::now(), Instant::now());
        std::thread::sleep(Duration::from_millis(2));
        // `t0` was read before `i0` and the end is read before `i0.elapsed()`
        // would be, so the tick interval covers the whole sleep.
        let dt = instant_source::now() - t0;
        assert!(dt >= 2_000_000, "fallback ticks are not ns: {dt}");
        assert!(i0.elapsed().as_nanos() as u64 >= 2_000_000);
    }
}
