//! Runtime CPU-capability detection for the tax-kernel fast paths.
//!
//! The paper's datacenter-tax kernels (checksumming, compression, hashing,
//! filtering) all have hardware-instruction or SIMD fast paths on modern
//! cores. Only one of them earns its `unsafe` here: hardware CRC32C (SSE4.2
//! or the aarch64 CRC extension, 14x over slicing-by-8). This module
//! performs **one-time** feature detection and hands that kernel a function
//! pointer for the best implementation the host supports; the scalar path
//! remains the permanent fallback, equivalence oracle, and benchmark
//! baseline. (An AVX2 compressor and bloom probe were measured and removed:
//! neither moved a fleet run, see DESIGN.md "Kernel round 3".)
//!
//! Detection runs once per process via [`CpuFeatures::get`] and is cached in
//! a `OnceLock`; kernels then cache their *resolved* function pointer the
//! same way, so the steady-state dispatch cost is a single indirect call.
//!
//! ## Forcing the scalar paths
//!
//! Setting the environment variable `HSDP_FORCE_SCALAR` to any value other
//! than `0` or the empty string makes detection report no capabilities, so
//! every kernel resolves to its scalar implementation. CI runs the test and
//! equivalence suites both natively and under `HSDP_FORCE_SCALAR=1`;
//! because every fast path is byte-identical to its scalar predecessor, all
//! determinism and telemetry artifacts are unchanged either way.

use std::sync::OnceLock;

/// The instruction-set capabilities the tax kernels can dispatch on.
///
/// Detected once per process; all fields are `false` when the scalar paths
/// are forced via `HSDP_FORCE_SCALAR` or on architectures without a fast
/// path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuFeatures {
    /// The scalar override (`HSDP_FORCE_SCALAR`) was active at detection.
    pub forced_scalar: bool,
    /// x86-64 SSE4.2: the `crc32` instruction (hardware CRC32C).
    pub sse42: bool,
    /// aarch64 CRC extension: the `crc32c*` instructions.
    pub aarch64_crc: bool,
}

impl CpuFeatures {
    /// A feature set with nothing enabled (the scalar-only profile).
    const fn none(forced_scalar: bool) -> Self {
        CpuFeatures {
            forced_scalar,
            sse42: false,
            aarch64_crc: false,
        }
    }

    /// The process-wide detected feature set (detection runs on first call).
    pub fn get() -> &'static Self {
        static FEATURES: OnceLock<CpuFeatures> = OnceLock::new();
        FEATURES.get_or_init(Self::detect)
    }

    /// Performs detection: the env override first, then the host ISA.
    ///
    /// Reading `HSDP_FORCE_SCALAR` is an ambient input, but it only selects
    /// *which* byte-identical implementation runs — outputs are invariant.
    fn detect() -> Self {
        if force_scalar_requested() {
            return Self::none(true);
        }
        Self::detect_isa()
    }

    #[cfg(target_arch = "x86_64")]
    fn detect_isa() -> Self {
        CpuFeatures {
            forced_scalar: false,
            sse42: std::arch::is_x86_feature_detected!("sse4.2"),
            aarch64_crc: false,
        }
    }

    #[cfg(target_arch = "aarch64")]
    fn detect_isa() -> Self {
        CpuFeatures {
            forced_scalar: false,
            sse42: false,
            aarch64_crc: std::arch::is_aarch64_feature_detected!("crc"),
        }
    }

    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    fn detect_isa() -> Self {
        Self::none(false)
    }

    /// True when any fast-path capability is available.
    #[must_use]
    pub fn any(&self) -> bool {
        self.sse42 || self.aarch64_crc
    }

    /// A compact, order-stable summary for bench reports and log headers,
    /// e.g. `"sse4.2"`, `"aarch64-crc"`, `"scalar(forced)"`, or `"scalar"`.
    #[must_use]
    pub fn summary(&self) -> String {
        if self.forced_scalar {
            return "scalar(forced)".to_owned();
        }
        let mut parts: Vec<&str> = Vec::new();
        if self.sse42 {
            parts.push("sse4.2");
        }
        if self.aarch64_crc {
            parts.push("aarch64-crc");
        }
        if parts.is_empty() {
            "scalar".to_owned()
        } else {
            parts.join("+")
        }
    }
}

/// True when `HSDP_FORCE_SCALAR` requests the scalar paths.
///
/// Any value other than unset, empty, or `0` counts as a request, so both
/// `HSDP_FORCE_SCALAR=1` and `HSDP_FORCE_SCALAR=yes` work.
#[must_use]
pub fn force_scalar_requested() -> bool {
    match std::env::var_os("HSDP_FORCE_SCALAR") {
        Some(v) => !v.is_empty() && v != "0",
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_stable_across_calls() {
        assert_eq!(CpuFeatures::get(), CpuFeatures::get());
    }

    #[test]
    fn summary_shapes() {
        assert_eq!(CpuFeatures::none(true).summary(), "scalar(forced)");
        assert_eq!(CpuFeatures::none(false).summary(), "scalar");
        let full = CpuFeatures {
            forced_scalar: false,
            sse42: true,
            aarch64_crc: true,
        };
        assert_eq!(full.summary(), "sse4.2+aarch64-crc");
        assert!(full.any());
        assert!(!CpuFeatures::none(false).any());
    }

    #[test]
    fn forced_scalar_reports_no_capabilities() {
        let forced = CpuFeatures::none(true);
        assert!(!forced.any());
        assert!(forced.forced_scalar);
    }
}
