//! # hsdp-taxes
//!
//! Real, from-scratch implementations of the *datacenter tax* operations the
//! paper identifies as dominant acceleration targets (Section 5.4, Table 2):
//!
//! | Paper tax | Module |
//! |---|---|
//! | Protobuf (de)serialization | [`protowire`] (+ [`varint`]) |
//! | Compression | [`compress`](mod@compress) |
//! | Cryptography | [`sha3`] |
//! | RPC | [`frame`] |
//! | EDAC / checksums (system tax) | [`crc`] |
//!
//! The remaining Table 2 taxes (memory allocation, data movement) have no
//! kernel here: the platforms charge them as modeled costs
//! (`hsdp-platforms::costs`).
//!
//! [`pprof`] dogfoods [`protowire`] to serialize profiler output in the
//! standard `profile.proto` format, and [`framed`] wraps protowire payloads
//! in the length-prefixed, CRC32C-checked container the per-commit
//! profile-history store (`hsdp-profiling::history`) appends to.
//!
//! The platform simulators in `hsdp-platforms` execute these primitives on
//! their hot paths, so the profiling pipeline observes genuine tax work; the
//! chained-accelerator validation in `hsdp-accelsim` uses [`protowire`] and
//! [`sha3`] as its pipeline stages, mirroring the paper's ProtoAcc → SHA3
//! RTL experiment (Section 6.4).

// `deny` rather than `forbid`: the [`simd`] quarantine (hardware CRC32C)
// overrides it with a scoped allow. Everything outside `simd/` remains
// unsafe-free, enforced by `xtask audit --rule unsafe`.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compress;
pub mod crc;
pub mod dispatch;
pub mod error;
pub mod frame;
pub mod framed;
pub mod pprof;
pub mod protowire;
pub mod sha3;
pub mod simd;
pub mod varint;

pub use compress::{compress, decompress};
pub use crc::crc32c;
pub use error::{CompressError, FrameError, WireError};
pub use frame::{Frame, FrameKind};
pub use protowire::{FieldDescriptor, FieldType, Message, MessageDescriptor, Value};
pub use sha3::{Sha3_256, Sha3_512};
