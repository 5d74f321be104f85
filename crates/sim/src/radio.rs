//! Radio PHY model: bitrate, framing overhead and airtime. Stochastic
//! reception loss belongs to the channel ([`crate::channel`]).

use crate::time::SimDuration;

/// Physical-layer parameters of the simulated radio.
///
/// Defaults match the paper family's ns-2 setup: 1 Mbps bitrate, 50 m
/// transmission range (the range itself lives in
/// [`Deployment`](crate::topology::Deployment)), plus a small per-frame
/// PHY/MAC header charged on every transmission.
///
/// # Examples
///
/// ```
/// use wsn_sim::radio::RadioConfig;
///
/// let radio = RadioConfig::default();
/// // A 16-byte payload plus the 16-byte header at 1 Mbps: 256 µs.
/// assert_eq!(radio.airtime(16).as_nanos(), 256_000);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RadioConfig {
    /// Link bitrate in bits per second.
    pub bitrate_bps: u64,
    /// Fixed per-frame overhead (preamble + PHY/MAC header) in bytes,
    /// charged on the air and in the byte counters.
    pub frame_overhead_bytes: usize,
}

impl RadioConfig {
    /// The paper's radio: 1 Mbps, 16-byte frame overhead.
    #[must_use]
    pub const fn paper_default() -> Self {
        RadioConfig {
            bitrate_bps: 1_000_000,
            frame_overhead_bytes: 16,
        }
    }

    /// Time a frame with `payload_bytes` of payload occupies the channel.
    ///
    /// # Panics
    ///
    /// Panics if the configured bitrate is zero.
    #[must_use]
    pub fn airtime(&self, payload_bytes: usize) -> SimDuration {
        assert!(self.bitrate_bps > 0, "bitrate must be positive");
        let bits = ((payload_bytes + self.frame_overhead_bytes) as u128) * 8;
        // ns = bits * 1e9 / bitrate; u128 keeps this exact for any frame.
        let ns = bits * 1_000_000_000 / self.bitrate_bps as u128;
        SimDuration::from_nanos(u64::try_from(ns).unwrap_or(u64::MAX))
    }

    /// Total on-air size of a frame with the given payload.
    #[must_use]
    pub fn on_air_bytes(&self, payload_bytes: usize) -> usize {
        payload_bytes + self.frame_overhead_bytes
    }
}

impl Default for RadioConfig {
    fn default() -> Self {
        RadioConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn airtime_scales_linearly() {
        let r = RadioConfig::paper_default();
        let a = r.airtime(0);
        let b = r.airtime(100);
        // 100 extra bytes at 1 Mbps = 800 µs extra.
        assert_eq!((b - a).as_nanos(), 800_000);
    }

    #[test]
    fn airtime_includes_overhead() {
        let r = RadioConfig {
            bitrate_bps: 8_000, // 1 byte per ms: easy arithmetic
            frame_overhead_bytes: 2,
        };
        assert_eq!(r.airtime(3), SimDuration::from_millis(5));
        assert_eq!(r.on_air_bytes(3), 5);
    }
}
