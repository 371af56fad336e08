//! Error types for the RTL crate.

use std::error::Error;
use std::fmt;

/// Errors reported by module validation, analysis, and slicing.
#[derive(Debug, Clone, PartialEq)]
pub enum RtlError {
    /// A register or an input field declared a width outside `1..=64`.
    BadWidth {
        /// Register or input field name.
        name: String,
        /// Offending width.
        width: u32,
    },
    /// A register's reset value does not fit its width.
    InitOutOfRange {
        /// Register name.
        name: String,
        /// Offending reset value.
        init: u64,
        /// Register width.
        width: u32,
    },
    /// Two registers share a name.
    DuplicateName {
        /// The colliding name.
        name: String,
        /// Index of the first occurrence.
        first: usize,
        /// Index of the second occurrence.
        second: usize,
    },
    /// An expression references a register id outside the module.
    DanglingReg {
        /// The out-of-range index.
        id: usize,
    },
    /// An expression references an input field id outside the module.
    DanglingInput {
        /// The out-of-range index.
        id: usize,
    },
    /// A probe or lookup referenced a register the module does not have.
    UnknownRegister {
        /// Name of the module searched.
        module: String,
        /// The missing register's name (or `rN` for an index-only
        /// reference, matching [`crate::module::RegId`]'s display form).
        name: String,
    },
    /// The interpreter exceeded its cycle budget without `done` asserting.
    CycleLimit {
        /// The configured limit.
        limit: u64,
    },
    /// A slice was requested for a feature the schema does not contain.
    UnknownFeature {
        /// The requested feature index.
        index: usize,
    },
    /// Slicing removed everything (no selected feature depends on any
    /// register), which indicates a degenerate model.
    EmptySlice,
}

impl fmt::Display for RtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtlError::BadWidth { name, width } => {
                write!(f, "register or input `{name}` has invalid width {width}")
            }
            RtlError::InitOutOfRange { name, init, width } => write!(
                f,
                "register `{name}` reset value {init} does not fit in {width} bits"
            ),
            RtlError::DuplicateName {
                name,
                first,
                second,
            } => write!(
                f,
                "register name `{name}` used twice (indices {first} and {second})"
            ),
            RtlError::DanglingReg { id } => {
                write!(f, "expression references unknown register index {id}")
            }
            RtlError::DanglingInput { id } => {
                write!(f, "expression references unknown input field index {id}")
            }
            RtlError::UnknownRegister { module, name } => {
                write!(f, "module `{module}` has no register `{name}`")
            }
            RtlError::CycleLimit { limit } => {
                write!(f, "job did not finish within {limit} cycles")
            }
            RtlError::UnknownFeature { index } => {
                write!(f, "feature index {index} is not in the schema")
            }
            RtlError::EmptySlice => {
                write!(f, "slice is empty: no selected feature depends on state")
            }
        }
    }
}

impl Error for RtlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs: Vec<RtlError> = vec![
            RtlError::BadWidth {
                name: "x".into(),
                width: 0,
            },
            RtlError::InitOutOfRange {
                name: "x".into(),
                init: 9,
                width: 2,
            },
            RtlError::DuplicateName {
                name: "x".into(),
                first: 0,
                second: 1,
            },
            RtlError::DanglingReg { id: 3 },
            RtlError::DanglingInput { id: 4 },
            RtlError::UnknownRegister {
                module: "m".into(),
                name: "x".into(),
            },
            RtlError::CycleLimit { limit: 10 },
            RtlError::UnknownFeature { index: 2 },
            RtlError::EmptySlice,
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase() || s.starts_with('`'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RtlError>();
    }
}
