//! # deeplake-codec
//!
//! Compression codecs for the Tensor Storage Format.
//!
//! The paper uses two compression levels (§5): *sample compression* (each
//! sample is an independently encoded blob, e.g. JPEG images copied verbatim
//! into chunks) and *chunk compression* (the whole chunk payload is
//! compressed, e.g. LZ4 over label chunks). This crate provides the codecs
//! both levels dispatch to:
//!
//! * [`lz4`] — a from-scratch implementation of the LZ4 *block* format
//!   (the real algorithm: 4-byte-hash greedy matching, literal/match token
//!   stream). Used for chunk compression of labels and metadata.
//! * [`rle`] — byte run-length encoding, effective on masks.
//! * [`synthimg`] — a synthetic lossy image codec standing in for JPEG
//!   (see DESIGN.md substitutions): bit-depth quantization + left-neighbour
//!   delta prediction + LZ4. It reproduces JPEG's *system-level* properties
//!   (≈5-10× size reduction on natural-ish images, decode cost proportional
//!   to pixel count) without binding libjpeg.
//! * [`Compression`] — the registry enum stored in tensor metadata, with
//!   self-describing magic headers so blobs can be decoded without context.
//! * [`Frame`] — a stored blob with its header read and checked: lengths
//!   in blobs are untrusted, so a decoder asks the frame how much to
//!   allocate and decodes into that one buffer.
//!
//! Every codec has `*_into` forms (`compress_into(.., &mut Vec<u8>)`,
//! `decompress_into(.., &mut [u8])`) that write into the caller's buffer;
//! the `Vec`-returning functions are wrappers over them.

pub mod error;
pub mod lz4;
pub mod registry;
pub mod rle;
pub mod synthimg;

pub use error::CodecError;
pub use registry::{Compression, Frame};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CodecError>;
