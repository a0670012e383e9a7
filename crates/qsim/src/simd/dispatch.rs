//! Runtime CPU-feature dispatch for the amplitude kernels.
//!
//! Detection runs once per process (`is_x86_feature_detected!` on
//! x86-64, `is_aarch64_feature_detected!` on aarch64) and is cached;
//! every kernel entry point reads [`active_backend`] and jumps to the
//! matching instruction-set implementation. Two overrides exist, both
//! honored by every dispatch site:
//!
//! * the `QSIM_SIMD` environment variable (`scalar` | `avx2` | `neon` |
//!   `auto`), read once on first dispatch — how CI forces the scalar
//!   fallback for a whole test binary,
//! * [`set_backend_override`], a process-global programmatic override —
//!   how the `perf` bench times forced-scalar vs dispatched execution
//!   inside one process.
//!
//! Forcing a backend the host cannot execute (e.g. `QSIM_SIMD=avx2` on
//! a CPU without AVX2) panics at the first dispatch rather than
//! executing illegal instructions.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// One instruction-set implementation of the amplitude kernels.
///
/// Every backend computes **bit-identical** results (see the
/// [`crate::simd`] module docs for the contract); the choice affects
/// throughput only.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SimdBackend {
    /// The portable reference loops — the bit-exactness oracle every
    /// vector lane is tested against, and the fallback on hosts without
    /// a supported vector unit.
    Scalar,
    /// 256-bit AVX2 lanes (x86-64): two complex amplitudes per vector.
    Avx2,
    /// 128-bit NEON lanes (aarch64): one complex amplitude per vector.
    Neon,
}

impl SimdBackend {
    /// The lowercase name used in telemetry, bench artifacts, and the
    /// `QSIM_SIMD` environment variable.
    pub fn name(self) -> &'static str {
        match self {
            SimdBackend::Scalar => "scalar",
            SimdBackend::Avx2 => "avx2",
            SimdBackend::Neon => "neon",
        }
    }

    /// Whether this host can execute the backend.
    pub fn is_available(self) -> bool {
        match self {
            SimdBackend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdBackend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "aarch64")]
            SimdBackend::Neon => std::arch::is_aarch64_feature_detected!("neon"),
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// Parses a `QSIM_SIMD` value; `None` for `auto` (use detection).
    ///
    /// # Errors
    ///
    /// Returns the unrecognized value back as the error.
    pub fn parse(value: &str) -> Result<Option<SimdBackend>, String> {
        match value.trim().to_ascii_lowercase().as_str() {
            "" | "auto" => Ok(None),
            "scalar" => Ok(Some(SimdBackend::Scalar)),
            "avx2" => Ok(Some(SimdBackend::Avx2)),
            "neon" => Ok(Some(SimdBackend::Neon)),
            other => Err(other.to_string()),
        }
    }
}

/// The backend the CPU supports, ignoring every override. Detected once
/// and cached.
pub fn detected_backend() -> SimdBackend {
    static DETECTED: OnceLock<SimdBackend> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        if SimdBackend::Avx2.is_available() {
            SimdBackend::Avx2
        } else if SimdBackend::Neon.is_available() {
            SimdBackend::Neon
        } else {
            SimdBackend::Scalar
        }
    })
}

/// Encoding of the programmatic override in [`OVERRIDE`]:
/// 0 = none (fall through to `QSIM_SIMD` / detection), else variant + 1.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

const OVERRIDE_CODES: [SimdBackend; 3] =
    [SimdBackend::Scalar, SimdBackend::Avx2, SimdBackend::Neon];

/// Forces every subsequent dispatch onto `backend` (`None` restores the
/// `QSIM_SIMD` / auto-detected choice). Process-global: the `perf`
/// bench uses it to time forced-scalar vs dispatched execution in one
/// process; concurrent kernel calls observe the switch at their
/// next dispatch, which is safe precisely because all backends are
/// bit-identical.
///
/// # Panics
///
/// Panics when `backend` is not executable on this host.
pub fn set_backend_override(backend: Option<SimdBackend>) {
    if let Some(b) = backend {
        assert!(
            b.is_available(),
            "SIMD backend {} is not available on this host",
            b.name()
        );
    }
    let code = match backend {
        None => 0,
        Some(SimdBackend::Scalar) => 1,
        Some(SimdBackend::Avx2) => 2,
        Some(SimdBackend::Neon) => 3,
    };
    OVERRIDE.store(code, Ordering::Release);
}

/// The backend resolved from `QSIM_SIMD` (or detection when unset),
/// computed once.
fn env_backend() -> SimdBackend {
    static FROM_ENV: OnceLock<SimdBackend> = OnceLock::new();
    *FROM_ENV.get_or_init(|| {
        let forced = match std::env::var("QSIM_SIMD") {
            Ok(value) => SimdBackend::parse(&value).unwrap_or_else(|bad| {
                panic!("QSIM_SIMD={bad} is not one of scalar|avx2|neon|auto")
            }),
            Err(_) => None,
        };
        match forced {
            Some(b) => {
                assert!(
                    b.is_available(),
                    "QSIM_SIMD requests {}, which this host cannot execute",
                    b.name()
                );
                b
            }
            None => detected_backend(),
        }
    })
}

/// The backend every kernel entry point dispatches to right now:
/// [`set_backend_override`] if set, else `QSIM_SIMD`, else detection.
#[inline]
pub fn active_backend() -> SimdBackend {
    let code = OVERRIDE.load(Ordering::Acquire);
    if code != 0 {
        OVERRIDE_CODES[(code - 1) as usize]
    } else {
        env_backend()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        for b in [SimdBackend::Scalar, SimdBackend::Avx2, SimdBackend::Neon] {
            assert_eq!(SimdBackend::parse(b.name()), Ok(Some(b)));
        }
        assert_eq!(SimdBackend::parse("auto"), Ok(None));
        assert_eq!(SimdBackend::parse(""), Ok(None));
        assert_eq!(SimdBackend::parse(" AVX2 "), Ok(Some(SimdBackend::Avx2)));
        assert!(SimdBackend::parse("sse9").is_err());
    }

    #[test]
    fn scalar_is_always_available_and_detection_is_executable() {
        assert!(SimdBackend::Scalar.is_available());
        assert!(detected_backend().is_available());
    }

    #[test]
    fn arch_foreign_backends_are_unavailable() {
        #[cfg(target_arch = "x86_64")]
        assert!(!SimdBackend::Neon.is_available());
        #[cfg(target_arch = "aarch64")]
        assert!(!SimdBackend::Avx2.is_available());
    }
}
