//! Error type for the predvfs core crate.

use std::error::Error;
use std::fmt;

use predvfs_rtl::RtlError;

/// Errors reported by the training pipeline and controllers.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// An underlying RTL operation failed.
    Rtl(RtlError),
    /// Training was attempted with no jobs.
    EmptyTrainingSet,
    /// A controller was given fewer oracle traces than jobs.
    OracleExhausted {
        /// Index of the job with no trace.
        index: usize,
    },
    /// A controller was asked about a job its slice table does not hold.
    SliceTableExhausted {
        /// Index of the job with no slice run.
        index: usize,
        /// Jobs the table holds.
        len: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Rtl(e) => write!(f, "rtl error: {e}"),
            CoreError::EmptyTrainingSet => write!(f, "training set is empty"),
            CoreError::OracleExhausted { index } => {
                write!(f, "oracle has no trace for job {index}")
            }
            CoreError::SliceTableExhausted { index, len } => {
                write!(f, "slice table has no run for job {index} (it holds {len})")
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Rtl(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RtlError> for CoreError {
    fn from(e: RtlError) -> Self {
        CoreError::Rtl(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::from(RtlError::EmptySlice);
        assert!(e.to_string().contains("rtl error"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(CoreError::EmptyTrainingSet.to_string().contains("empty"));
    }
}
