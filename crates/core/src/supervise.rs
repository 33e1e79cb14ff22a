//! The one supervisor: attempt, one identical retry, then report.
//!
//! Shards ([`crate::Campaign::run`]) and observatory epochs both run
//! deterministic jobs that can fail — a blown virtual deadline returns
//! an error, a bug or injected sabotage panics. Rerunning the same job
//! with the same seed tells a transient fault from a deterministic one;
//! a second failure is reported to the caller, which degrades instead
//! of dying.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// What a supervised job came to.
#[derive(Debug)]
pub struct Supervised<T> {
    /// The value of the attempt that succeeded, or why the last attempt
    /// failed.
    pub outcome: Result<T, String>,
    /// Why the first attempt failed, when it did (so the retry ran).
    pub first_failure: Option<String>,
}

impl<T> Supervised<T> {
    /// Whether the first attempt failed and the job ran a second time.
    pub fn retried(&self) -> bool {
        self.first_failure.is_some()
    }
}

/// Runs `attempt(0)` and, if it fails, `attempt(1)`. An attempt fails by
/// returning `Err` or by panicking; a panic's payload becomes the
/// failure text. The caller makes the retry identical by deriving
/// everything from the same seed in both calls.
pub fn supervise<T>(mut attempt: impl FnMut(u32) -> Result<T, String>) -> Supervised<T> {
    let mut run = |n: u32| {
        catch_unwind(AssertUnwindSafe(|| attempt(n)))
            .unwrap_or_else(|payload| Err(payload_text(payload.as_ref())))
    };
    match run(0) {
        Ok(value) => Supervised {
            outcome: Ok(value),
            first_failure: None,
        },
        Err(first) => Supervised {
            outcome: run(1),
            first_failure: Some(first),
        },
    }
}

fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_owned()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_success_runs_once() {
        let mut calls = Vec::new();
        let run = supervise(|attempt| {
            calls.push(attempt);
            Ok::<_, String>(7)
        });
        assert_eq!(run.outcome, Ok(7));
        assert!(!run.retried());
        assert_eq!(calls, [0]);
    }

    #[test]
    fn a_failure_is_retried_once_whether_returned_or_panicked() {
        let run = supervise(|attempt| match attempt {
            0 => panic!("first attempt {}", "blew up"),
            _ => Ok(attempt),
        });
        assert_eq!(run.outcome, Ok(1));
        assert_eq!(run.first_failure.as_deref(), Some("first attempt blew up"));

        let run = supervise(|attempt| match attempt {
            0 => Err("refused".to_owned()),
            _ => Ok(attempt),
        });
        assert_eq!(run.outcome, Ok(1));
        assert_eq!(run.first_failure.as_deref(), Some("refused"));
    }

    #[test]
    fn two_failures_report_the_last_and_stop() {
        let mut calls = 0;
        let run = supervise(|attempt| -> Result<(), String> {
            calls += 1;
            if attempt == 0 {
                panic!("static text");
            }
            std::panic::panic_any(42u8)
        });
        assert_eq!(run.outcome, Err("opaque panic payload".to_owned()));
        assert_eq!(run.first_failure.as_deref(), Some("static text"));
        assert_eq!(calls, 2);
    }
}
