//! Level-gated logging facade.
//!
//! Replaces ad-hoc `eprintln!` progress lines with macros gated on
//! `GOPIM_LOG` (`error` | `warn` | `info` | `debug` | `off`, default
//! `info`). All output goes to stderr so binaries' stdout tables stay
//! byte-identical. The disabled path is one relaxed atomic load.

use std::sync::atomic::{AtomicU8, Ordering};

/// Log severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Failures the run cannot recover from.
    Error = 1,
    /// Suspicious conditions the run survives.
    Warn = 2,
    /// Progress lines (the default level).
    Info = 3,
    /// Verbose diagnostics.
    Debug = 4,
}

impl Level {
    /// The lowercase name `GOPIM_LOG` spells the level with.
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// 0 = not yet seeded from the config; otherwise max enabled level + 1
/// (so `1` means everything off).
static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);

#[cold]
fn init() -> u8 {
    let max = crate::env::get().log.map_or(0, |l| l as u8) + 1;
    MAX_LEVEL.store(max, Ordering::Relaxed);
    max
}

/// Whether messages at `level` are emitted.
#[inline]
pub fn enabled(level: Level) -> bool {
    let max = match MAX_LEVEL.load(Ordering::Relaxed) {
        0 => init(),
        m => m,
    };
    (level as u8) < max
}

/// Overrides the maximum emitted level (`None` silences everything),
/// taking precedence over `GOPIM_LOG`. For tests and embedders.
pub fn set_max_level(level: Option<Level>) {
    let max = level.map(|l| l as u8).unwrap_or(0) + 1;
    MAX_LEVEL.store(max, Ordering::Relaxed);
}

/// Formats and writes one line to stderr; the macros call this after
/// their level check so formatting never runs for disabled levels.
pub fn emit(level: Level, message: std::fmt::Arguments<'_>) {
    eprintln!("[gopim {}] {message}", level.name());
}

/// Logs at [`Level::Error`] (`format!`-style arguments).
#[macro_export]
macro_rules! log_error {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Error) {
            $crate::log::emit($crate::log::Level::Error, format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Warn`].
#[macro_export]
macro_rules! log_warn {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Warn) {
            $crate::log::emit($crate::log::Level::Warn, format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Info`].
#[macro_export]
macro_rules! log_info {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Info) {
            $crate::log::emit($crate::log::Level::Info, format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Debug`].
#[macro_export]
macro_rules! log_debug {
    ($($arg:tt)*) => {
        if $crate::log::enabled($crate::log::Level::Debug) {
            $crate::log::emit($crate::log::Level::Debug, format_args!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_gate() {
        assert!(Level::Error < Level::Debug);
        set_max_level(Some(Level::Warn));
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        assert!(!enabled(Level::Debug));
        set_max_level(None);
        assert!(!enabled(Level::Error));
        set_max_level(Some(Level::Info));
        assert!(enabled(Level::Info));
        assert!(!enabled(Level::Debug));
    }
}
