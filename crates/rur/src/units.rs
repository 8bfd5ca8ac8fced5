//! Measurement units used by usage records and rate tables.
//!
//! The paper prices: CPU time in G$ per CPU **hour**; memory and secondary
//! storage in G$ per **MB·hour**; I/O in G$ per **MB**; software libraries
//! by system CPU time. These newtypes keep the integer bookkeeping exact
//! and make unit errors type errors.

/// Milliseconds per hour — the denominator for per-hour pricing.
pub const MS_PER_HOUR: u64 = 3_600_000;

/// Bytes per megabyte (decimal MB, as grid accounting conventionally used).
pub const BYTES_PER_MB: u64 = 1_000_000;

/// A duration in milliseconds of virtual or wall time.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct Duration(pub u64);

impl Duration {
    /// Zero duration.
    pub const ZERO: Duration = Duration(0);

    /// From whole milliseconds.
    pub const fn from_ms(ms: u64) -> Duration {
        Duration(ms)
    }

    /// From whole seconds.
    pub const fn from_secs(s: u64) -> Duration {
        Duration(s.saturating_mul(1_000))
    }

    /// From whole hours.
    pub const fn from_hours(h: u64) -> Duration {
        Duration(h.saturating_mul(MS_PER_HOUR))
    }

    /// Milliseconds.
    pub const fn as_ms(self) -> u64 {
        self.0
    }

    /// Whole seconds (truncated).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional hours, for display.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / MS_PER_HOUR as f64
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl std::fmt::Display for Duration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= MS_PER_HOUR {
            write!(f, "{:.3}h", self.as_hours_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}s", self.0 as f64 / 1_000.0)
        } else {
            write!(f, "{}ms", self.0)
        }
    }
}

/// An amount of data in bytes (network traffic, storage footprints).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct DataSize(pub u64);

impl DataSize {
    /// Zero bytes.
    pub const ZERO: DataSize = DataSize(0);

    /// From bytes.
    pub const fn from_bytes(b: u64) -> DataSize {
        DataSize(b)
    }

    /// From whole megabytes.
    pub const fn from_mb(mb: u64) -> DataSize {
        DataSize(mb.saturating_mul(BYTES_PER_MB))
    }

    /// Bytes.
    pub const fn as_bytes(self) -> u64 {
        self.0
    }

    /// Whole megabytes (truncated).
    pub const fn as_mb(self) -> u64 {
        self.0 / BYTES_PER_MB
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: DataSize) -> DataSize {
        DataSize(self.0.saturating_add(rhs.0))
    }
}

impl std::fmt::Display for DataSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= BYTES_PER_MB {
            write!(f, "{:.2}MB", self.0 as f64 / BYTES_PER_MB as f64)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

/// The MB·hour composite the paper prices memory and storage in, tracked
/// exactly as **MB·milliseconds** internally.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct MbHours(pub u64);

impl MbHours {
    /// Zero.
    pub const ZERO: MbHours = MbHours(0);

    /// From MB·milliseconds.
    pub const fn from_mb_ms(v: u64) -> MbHours {
        MbHours(v)
    }

    /// Computes `size × duration` occupancy.
    pub fn occupancy(size: DataSize, held_for: Duration) -> MbHours {
        // Work in bytes·ms then convert to MB·ms to preserve precision for
        // small allocations; saturate on pathological inputs.
        let bytes_ms = (size.as_bytes() as u128).saturating_mul(held_for.as_ms() as u128);
        MbHours(bytes_ms.checked_div(BYTES_PER_MB as u128).unwrap_or(0).min(u64::MAX as u128) as u64)
    }

    /// Raw MB·milliseconds.
    pub const fn as_mb_ms(self) -> u64 {
        self.0
    }

    /// Fractional MB·hours, for display.
    pub fn as_mb_hours_f64(self) -> f64 {
        self.0 as f64 / MS_PER_HOUR as f64
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: MbHours) -> MbHours {
        MbHours(self.0.saturating_add(rhs.0))
    }
}

impl std::fmt::Display for MbHours {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4}MBh", self.as_mb_hours_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_conversions() {
        assert_eq!(Duration::from_secs(2).as_ms(), 2_000);
        assert_eq!(Duration::from_hours(1).as_ms(), MS_PER_HOUR);
        assert_eq!(Duration::from_ms(2_500).as_secs(), 2);
        assert!((Duration::from_hours(2).as_hours_f64() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn duration_display_picks_scale() {
        assert_eq!(Duration::from_ms(5).to_string(), "5ms");
        assert_eq!(Duration::from_ms(1_500).to_string(), "1.500s");
        assert_eq!(Duration::from_hours(2).to_string(), "2.000h");
    }

    #[test]
    fn duration_saturating_ops() {
        assert_eq!(Duration(u64::MAX).saturating_add(Duration(1)), Duration(u64::MAX));
        assert_eq!(Duration(5).saturating_sub(Duration(9)), Duration::ZERO);
    }

    #[test]
    fn datasize_conversions() {
        assert_eq!(DataSize::from_mb(3).as_bytes(), 3_000_000);
        assert_eq!(DataSize::from_bytes(2_500_000).as_mb(), 2);
        assert_eq!(DataSize::from_bytes(10).to_string(), "10B");
        assert_eq!(DataSize::from_mb(2).to_string(), "2.00MB");
    }

    #[test]
    fn occupancy_computes_mb_ms() {
        // 512 MB held for 2 hours = 512 * 2 MBh.
        let occ = MbHours::occupancy(DataSize::from_mb(512), Duration::from_hours(2));
        assert_eq!(occ.as_mb_ms(), 512 * 2 * MS_PER_HOUR);
        assert!((occ.as_mb_hours_f64() - 1024.0).abs() < 1e-9);
        // Sub-MB sizes still accrue.
        let small = MbHours::occupancy(DataSize::from_bytes(500_000), Duration::from_ms(2));
        assert_eq!(small.as_mb_ms(), 1);
    }

    #[test]
    fn occupancy_saturates() {
        let huge = MbHours::occupancy(DataSize::from_bytes(u64::MAX), Duration::from_ms(u64::MAX));
        assert_eq!(huge.as_mb_ms(), u64::MAX);
    }
}
