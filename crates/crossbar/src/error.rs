//! Error types for the crossbar circuit layer.

use std::error::Error;
use std::fmt;

/// Errors produced while programming or driving crossbar structures.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CrossbarError {
    /// A weight matrix does not fit the target array.
    DimensionMismatch {
        /// Rows offered.
        rows: usize,
        /// Columns offered.
        cols: usize,
        /// Rows available.
        max_rows: usize,
        /// Columns available.
        max_cols: usize,
    },
    /// An input vector length does not match the programmed rows.
    InputLengthMismatch {
        /// Length supplied.
        len: usize,
        /// Length expected.
        expected: usize,
    },
    /// A kernel's receptive field exceeds what the structure supports.
    ReceptiveFieldTooLarge {
        /// Requested receptive field (rows).
        rf: usize,
        /// Maximum rows this structure can merge in the current domain.
        max: usize,
    },
    /// A configuration value was invalid.
    InvalidConfig {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
}

impl fmt::Display for CrossbarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrossbarError::DimensionMismatch {
                rows,
                cols,
                max_rows,
                max_cols,
            } => write!(
                f,
                "weight block {rows}×{cols} does not fit a {max_rows}×{max_cols} array"
            ),
            CrossbarError::InputLengthMismatch { len, expected } => {
                write!(f, "input of length {len} driven into {expected} rows")
            }
            CrossbarError::ReceptiveFieldTooLarge { rf, max } => {
                write!(
                    f,
                    "receptive field {rf} exceeds the {max}-row current-summing limit"
                )
            }
            CrossbarError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
        }
    }
}

impl Error for CrossbarError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CrossbarError::ReceptiveFieldTooLarge {
            rf: 4096,
            max: 2048,
        };
        assert!(e.to_string().contains("4096"));
        assert!(e.to_string().contains("2048"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CrossbarError>();
    }
}
