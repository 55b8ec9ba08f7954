//! Offline stand-in for the `zerocopy` crate.
//!
//! The build environment has no reachable crates registry, so this shim
//! implements exactly the API surface the workspace uses: the
//! [`FromBytes`] / [`IntoBytes`] / [`Immutable`] / [`KnownLayout`] marker
//! traits, their derives (re-exported from `zerocopy_derive`), and the
//! checked casting entry points the snapshot store's mmap read path and
//! its fixed headers are built on: slices of records, and one value read
//! from the front of a buffer ([`FromBytes::ref_from_prefix`]) or viewed
//! as bytes ([`IntoBytes::as_bytes`]).
//!
//! # Safety contract
//!
//! Unlike the real crate, the markers here are *safe* traits so that
//! `#![forbid(unsafe_code)]` crates (tls-trace) can derive them; the
//! soundness obligation moves to the implementor and is discharged by
//! convention: **only derive these traits** — the derives are restricted
//! to non-generic items, and every deriving type in this workspace backs
//! the derive with compile-time layout assertions (size, alignment and
//! field offsets) next to its definition. The casting functions in this
//! module then re-check everything checkable at runtime (size, alignment,
//! length divisibility) before the single `unsafe` pointer cast each
//! performs, so a misuse fails closed with a [`CastError`] rather than
//! producing a misaligned or out-of-bounds reference.

pub use zerocopy_derive::{FromBytes, Immutable, IntoBytes, KnownLayout};

/// Marker: every bit pattern of `size_of::<Self>()` bytes is a valid
/// value of `Self` (all-integer field types, no padding, no niches).
pub trait FromBytes: Sized {
    /// Reads one `Self` in place from the front of `bytes`, returning it
    /// and the bytes after it. Fails if `bytes` is shorter than `Self` or
    /// misaligned for it.
    fn ref_from_prefix(bytes: &[u8]) -> Result<(&Self, &[u8]), CastError>
    where
        Self: Immutable,
    {
        let size = core::mem::size_of::<Self>();
        if bytes.len() < size {
            return Err(CastError::SizeMismatch { record: size, len: bytes.len() });
        }
        let (head, rest) = bytes.split_at(size);
        Ok((&slice_from_bytes::<Self>(head)?[0], rest))
    }
}

/// Marker: the bytes of `Self` fully determine its value — no padding
/// bytes, so viewing a value as `&[u8]` never exposes uninitialized
/// memory.
pub trait IntoBytes: Sized {
    /// Views `self` as its raw bytes, without copying.
    fn as_bytes(&self) -> &[u8]
    where
        Self: Immutable,
    {
        slice_as_bytes(core::slice::from_ref(self))
    }
}

/// Marker: `Self` contains no interior mutability (`UnsafeCell`), so a
/// shared reference really is read-only.
pub trait Immutable {}

/// Marker: the layout (size and alignment) of `Self` is fixed by a
/// `repr(C)` definition and is the same on every target.
pub trait KnownLayout {}

/// Why a byte-slice cast was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CastError {
    /// The source pointer is not aligned to `align_of::<T>()`.
    Misaligned {
        /// The required alignment.
        align: usize,
        /// The offending address modulo the required alignment.
        offset: usize,
    },
    /// The source length is not a multiple of `size_of::<T>()`.
    SizeMismatch {
        /// The record size in bytes.
        record: usize,
        /// The source length in bytes.
        len: usize,
    },
}

impl core::fmt::Display for CastError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CastError::Misaligned { align, offset } => {
                write!(f, "source is {offset} bytes past an {align}-byte alignment boundary")
            }
            CastError::SizeMismatch { record, len } => {
                write!(f, "{len} bytes is not a whole number of {record}-byte records")
            }
        }
    }
}

impl std::error::Error for CastError {}

/// Reinterprets `bytes` as a slice of `T` records without copying.
///
/// Checks alignment and length divisibility; zero-sized `T` is rejected
/// at compile time by the derives (no such type derives `FromBytes`
/// here) and defensively at runtime.
pub fn slice_from_bytes<T: FromBytes + Immutable>(bytes: &[u8]) -> Result<&[T], CastError> {
    let size = core::mem::size_of::<T>();
    let align = core::mem::align_of::<T>();
    assert!(size > 0, "zero-sized records cannot be cast from bytes");
    let offset = (bytes.as_ptr() as usize) % align;
    if offset != 0 {
        return Err(CastError::Misaligned { align, offset });
    }
    if !bytes.len().is_multiple_of(size) {
        return Err(CastError::SizeMismatch { record: size, len: bytes.len() });
    }
    let count = bytes.len() / size;
    // SAFETY: `T: FromBytes` guarantees every bit pattern is a valid `T`
    // (and, per the derive restrictions, `T` is a padding-free repr(C)
    // struct of integer fields); the pointer is checked aligned above and
    // the length is an exact record multiple, so the produced slice covers
    // only the source bytes.
    Ok(unsafe { core::slice::from_raw_parts(bytes.as_ptr().cast::<T>(), count) })
}

/// Views a slice of `T` records as raw bytes without copying.
pub fn slice_as_bytes<T: IntoBytes + Immutable>(records: &[T]) -> &[u8] {
    let len = core::mem::size_of_val(records);
    // SAFETY: `T: IntoBytes` guarantees the representation has no padding
    // (every byte is initialized), and a byte view of initialized memory
    // at the same address/length is always in bounds.
    unsafe { core::slice::from_raw_parts(records.as_ptr().cast::<u8>(), len) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Clone, Copy)]
    #[repr(C)]
    struct Rec {
        a: u32,
        b: u32,
    }
    impl FromBytes for Rec {}
    impl IntoBytes for Rec {}
    impl Immutable for Rec {}
    impl KnownLayout for Rec {}

    #[test]
    fn round_trips_records() {
        let recs = [Rec { a: 1, b: 2 }, Rec { a: 3, b: 4 }];
        let bytes = slice_as_bytes(&recs);
        assert_eq!(bytes.len(), 16);
        let back: &[Rec] = slice_from_bytes(bytes).expect("aligned");
        assert_eq!(back, &recs);
    }

    #[test]
    fn reads_a_prefix_in_place() {
        let recs = [Rec { a: 1, b: 2 }, Rec { a: 3, b: 4 }];
        let bytes = slice_as_bytes(&recs);
        let (first, rest) = Rec::ref_from_prefix(bytes).expect("aligned and long enough");
        assert_eq!((first, rest), (&recs[0], recs[1].as_bytes()));
        assert_eq!(
            Rec::ref_from_prefix(&bytes[..7]),
            Err(CastError::SizeMismatch { record: 8, len: 7 })
        );
    }

    #[test]
    fn rejects_misaligned_and_ragged() {
        let buf = [0u8; 32];
        let base = buf.as_ptr() as usize;
        let shift = (4 - base % 4) % 4 + 1; // guaranteed misaligned for u32
        let misaligned = &buf[shift..shift + 8];
        assert!(matches!(
            slice_from_bytes::<Rec>(misaligned),
            Err(CastError::Misaligned { align: 4, .. })
        ));
        let aligned = &buf[(4 - base % 4) % 4..];
        let ragged = &aligned[..7];
        assert_eq!(
            slice_from_bytes::<Rec>(ragged),
            Err(CastError::SizeMismatch { record: 8, len: 7 })
        );
    }
}
