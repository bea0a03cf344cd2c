//! Virtual time: the resilience layer waits out call timeouts and retry
//! backoffs, and times breaker cooldowns, on a clock that advances
//! instantly — like the transfers, whose delays are accounted, never slept.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Deterministic virtual time, advanced explicitly.
#[derive(Debug, Default)]
pub struct VirtualClock {
    micros: AtomicU64,
}

impl VirtualClock {
    /// Elapsed virtual time since the clock's epoch.
    pub fn now(&self) -> Duration {
        Duration::from_micros(self.micros.load(Ordering::Relaxed))
    }

    /// Advance by `d` and return the new now.
    pub fn advance(&self, d: Duration) -> Duration {
        let v = self
            .micros
            .fetch_add(d.as_micros() as u64, Ordering::Relaxed)
            + d.as_micros() as u64;
        Duration::from_micros(v)
    }
}

/// A virtual clock at zero behind a shared handle.
pub fn virtual_clock() -> Arc<VirtualClock> {
    Arc::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_advances() {
        let clock = virtual_clock();
        assert_eq!(clock.now(), Duration::ZERO);
        assert_eq!(
            clock.advance(Duration::from_millis(5)),
            Duration::from_millis(5)
        );
        clock.advance(Duration::from_millis(3));
        assert_eq!(clock.now(), Duration::from_millis(8));
    }
}
