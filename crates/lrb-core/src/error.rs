//! Error types shared across the crate.

use std::fmt;

/// Errors raised when constructing or manipulating instances and assignments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The instance declares zero processors.
    NoProcessors,
    /// A job references a processor index `proc` outside `0..num_procs`.
    ProcOutOfRange {
        job: usize,
        proc: usize,
        num_procs: usize,
    },
    /// `jobs` and `assignment` vectors have different lengths.
    LengthMismatch { jobs: usize, assignment: usize },
    /// An assignment given to a validation routine has the wrong length.
    AssignmentLength { expected: usize, got: usize },
    /// A relocation budget was exceeded (moves or cost, reported generically).
    BudgetExceeded { used: u64, budget: u64 },
    /// A makespan guess was infeasible (e.g. more large jobs than processors).
    InfeasibleGuess { guess: u64, reason: &'static str },
    /// A solver hit its work budget / deadline and stopped at a cancellation
    /// point before producing an answer (see [`crate::deadline::WorkBudget`]).
    Cancelled {
        /// The phase that was executing when the budget ran out.
        phase: &'static str,
        /// Work ticks consumed when the cancellation fired.
        consumed: u64,
        /// The work budget that was exhausted.
        limit: u64,
    },
    /// An operation referenced a processor that is marked down / crashed.
    ProcessorDown { proc: usize },
    /// An online event referenced a job key that is not live.
    UnknownJob { key: u64 },
    /// An online arrival reused a job key that is still live.
    DuplicateJob { key: u64 },
    /// A speed vector declares a zero speed for processor `proc`.
    ZeroSpeed { proc: usize },
    /// A speed vector's length does not match the instance's processor count.
    SpeedsLength { expected: usize, got: usize },
    /// Processor `proc`'s initial load exceeds `u64::MAX`, so its prefix
    /// sums (and the thresholds built from them) cannot be represented.
    LoadOverflow { proc: usize },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NoProcessors => write!(f, "instance has no processors"),
            Error::ProcOutOfRange { job, proc, num_procs } => write!(
                f,
                "job {job} assigned to processor {proc}, but instance has only {num_procs} processors"
            ),
            Error::LengthMismatch { jobs, assignment } => write!(
                f,
                "{jobs} jobs but {assignment} assignment entries"
            ),
            Error::AssignmentLength { expected, got } => write!(
                f,
                "assignment has {got} entries, expected {expected}"
            ),
            Error::BudgetExceeded { used, budget } => {
                write!(f, "relocation budget exceeded: used {used}, budget {budget}")
            }
            Error::InfeasibleGuess { guess, reason } => {
                write!(f, "makespan guess {guess} infeasible: {reason}")
            }
            Error::Cancelled {
                phase,
                consumed,
                limit,
            } => {
                write!(
                    f,
                    "solver cancelled in {phase}: consumed {consumed} of {limit} work ticks"
                )
            }
            Error::ProcessorDown { proc } => write!(f, "processor {proc} is down"),
            Error::UnknownJob { key } => write!(f, "no live job with key {key}"),
            Error::DuplicateJob { key } => {
                write!(f, "job key {key} is already live")
            }
            Error::ZeroSpeed { proc } => {
                write!(f, "processor {proc} has zero speed")
            }
            Error::SpeedsLength { expected, got } => {
                write!(f, "speed vector has {got} entries, expected {expected}")
            }
            Error::LoadOverflow { proc } => {
                write!(f, "processor {proc}'s initial load exceeds u64::MAX")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Convenience result alias for fallible operations in this crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_key_fields() {
        let e = Error::ProcOutOfRange {
            job: 3,
            proc: 9,
            num_procs: 4,
        };
        let s = e.to_string();
        assert!(s.contains('3') && s.contains('9') && s.contains('4'));

        let e = Error::BudgetExceeded {
            used: 11,
            budget: 10,
        };
        assert!(e.to_string().contains("11"));
    }

    #[test]
    fn cancellation_and_outage_messages() {
        let e = Error::Cancelled {
            phase: "mpartition.search",
            consumed: 120,
            limit: 100,
        };
        let s = e.to_string();
        assert!(s.contains("mpartition.search") && s.contains("120") && s.contains("100"));
        assert_eq!(
            Error::ProcessorDown { proc: 7 }.to_string(),
            "processor 7 is down"
        );
        assert_eq!(
            Error::LoadOverflow { proc: 2 }.to_string(),
            "processor 2's initial load exceeds u64::MAX"
        );
    }

    #[test]
    fn online_job_key_messages() {
        assert_eq!(
            Error::UnknownJob { key: 42 }.to_string(),
            "no live job with key 42"
        );
        assert_eq!(
            Error::DuplicateJob { key: 7 }.to_string(),
            "job key 7 is already live"
        );
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&Error::NoProcessors);
    }
}
