//! Simulated time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in (or span of) simulated time, in microseconds.
///
/// One type serves as both instant and duration, like `u64` nanoseconds in
/// many simulators; the arithmetic below keeps uses readable.
///
/// # Examples
///
/// ```
/// use fabriccrdt_sim::SimTime;
///
/// let t = SimTime::from_millis(2) + SimTime::from_micros(500);
/// assert_eq!(t.as_micros(), 2_500);
/// assert_eq!(t.as_secs_f64(), 0.0025);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Constructs from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Constructs from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Constructs from fractional seconds (rounds to microseconds, half
    /// away from zero; negative values and NaN clamp to zero, values past
    /// `u64::MAX` microseconds saturate).
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(round_to_u64(secs.max(0.0) * 1e6))
    }

    /// Value in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Value in milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Value in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Value in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Scales a duration by an integer factor.
    pub fn scale(self, factor: u64) -> SimTime {
        SimTime(self.0 * factor)
    }
}

/// `x.round() as u64`, without the call to a software `round` that
/// baseline x86-64, lacking `roundsd`, makes: the truncating (and
/// saturating) conversion, then the fraction it dropped, which is exact
/// below 2^53 and zero above.
fn round_to_u64(x: f64) -> u64 {
    let whole = x as u64;
    whole.saturating_add(u64::from(x - whole as f64 >= 0.5))
}

impl Add for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    /// # Panics
    ///
    /// Panics in debug builds on underflow, like integer subtraction; use
    /// [`SimTime::saturating_sub`] when the ordering is not guaranteed.
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_secs_f64(0.5).as_millis(), 500);
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
    }

    #[test]
    fn rounding_is_the_library_round() {
        let round = |x: f64| x.round() as u64;
        let two = |e: i32| 2f64.powi(e);
        let named = [
            0.0,
            -0.0,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            -0.5,
            -7.25,
            two(52) - 1.0,
            two(52) + 1.0,
            two(52) - 0.5,
            two(53),
            two(53) + 2.0,
            two(63),
            two(64) - 2048.0,
            two(64),
            1e30,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for x in named {
            assert_eq!(round_to_u64(x), round(x), "{x:e}");
            let secs = x / 1e6;
            assert_eq!(
                SimTime::from_secs_f64(secs).as_micros(),
                round(secs.max(0.0) * 1e6),
                "{secs:e}"
            );
        }
        let mut halves = 0;
        crate::gen::cases(2_000, |g| {
            let k = g.range(0, 1 << 40) as f64;
            let near = f64::from_bits((k + 0.5).to_bits() + g.range(0, 3) - 1);
            for x in [f64::from_bits(g.u64()), g.f64_in(0.0, 2e6), k + 0.5, near] {
                assert_eq!(round_to_u64(x), round(x), "{x:e}");
                let secs = x / 1e6;
                let micros = secs.max(0.0) * 1e6;
                halves += usize::from(micros.fract() == 0.5);
                assert_eq!(SimTime::from_secs_f64(secs).as_micros(), round(micros));
            }
        });
        assert!(halves > 100, "only {halves} draws landed on a half");
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_millis(5);
        let b = SimTime::from_millis(3);
        assert_eq!((a + b).as_millis(), 8);
        assert_eq!((a - b).as_millis(), 2);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(b.scale(4).as_millis(), 12);
        let mut c = a;
        c += b;
        assert_eq!(c.as_millis(), 8);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_micros(1) < SimTime::from_millis(1));
        assert!(SimTime::ZERO <= SimTime::ZERO);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_micros(7).to_string(), "7us");
        assert_eq!(SimTime::from_micros(1500).to_string(), "1.500ms");
        assert_eq!(SimTime::from_millis(2500).to_string(), "2.500s");
    }
}
