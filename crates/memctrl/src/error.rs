//! Error type for the memory controller.

use std::error::Error;
use std::fmt;

use ia_dram::ConfigError;

/// Controller-level failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CtrlError {
    /// The request queue is at capacity.
    QueueFull,
    /// A run harness was given an empty trace.
    EmptyTrace,
    /// Underlying DRAM configuration error.
    Config(ConfigError),
    /// Invalid argument.
    Invalid(&'static str),
    /// The simulation engine's watchdog detected a component that
    /// stopped making forward progress.
    Stalled(ia_sim::StallReport),
}

impl fmt::Display for CtrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtrlError::QueueFull => f.write_str("request queue is full"),
            CtrlError::EmptyTrace => f.write_str("trace must contain at least one request"),
            CtrlError::Config(e) => write!(f, "dram configuration error: {e}"),
            CtrlError::Invalid(msg) => f.write_str(msg),
            CtrlError::Stalled(report) => write!(f, "{report}"),
        }
    }
}

impl Error for CtrlError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CtrlError::Config(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for CtrlError {
    fn from(e: ConfigError) -> Self {
        CtrlError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_and_source() {
        fn check<T: Error + Send + Sync>() {}
        check::<CtrlError>();
        assert!(!CtrlError::QueueFull.to_string().is_empty());
        assert!(!CtrlError::EmptyTrace.to_string().is_empty());
        assert!(!CtrlError::Invalid("x").to_string().is_empty());
    }
}
