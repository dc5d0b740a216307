//! Cooperative cancellation for long scans.
//!
//! A [`CancelToken`] carries an explicit cancel flag (shared through
//! clones) and an optional wall-clock deadline. Scan loops call
//! [`CancelToken::check`] at chunk boundaries — the natural quantum of
//! work in the store — so a query over a gigabyte trace notices a
//! cancelled client or an expired request deadline within one chunk's
//! decode, not at the end of the file. Readers are shared across
//! server requests behind an `Arc`, so the token travels per-call
//! rather than living on the reader.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cheaply clonable cancellation handle. Clones share the cancel
/// flag; the deadline is copied (it is immutable after construction).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only cancels when [`cancel`](Self::cancel) is called.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that also expires `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> CancelToken {
        CancelToken { flag: Arc::new(AtomicBool::new(false)), deadline: Instant::now().checked_add(timeout) }
    }

    /// Trip the explicit cancel flag (visible to every clone).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
            || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Error out if cancelled: `TimedOut` for an expired deadline,
    /// `Interrupted` for an explicit cancel. Scan loops propagate this
    /// like any other IO error.
    pub fn check(&self) -> io::Result<()> {
        if self.flag.load(Ordering::Acquire) {
            return Err(io::Error::new(io::ErrorKind::Interrupted, "scan cancelled"));
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "scan deadline exceeded"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_passes() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        t.cancel();
        assert!(c.is_cancelled());
        assert_eq!(c.check().unwrap_err().kind(), io::ErrorKind::Interrupted);
    }

    #[test]
    fn expired_deadline_is_timed_out() {
        let t = CancelToken::with_timeout(Duration::from_secs(0));
        assert!(t.is_cancelled());
        assert_eq!(t.check().unwrap_err().kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn future_deadline_passes() {
        let t = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(t.check().is_ok());
    }
}
