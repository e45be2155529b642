//! The versioned binary checkpoint format: how a trained [`Network`]'s
//! weights reach disk and come back bit-exact.
//!
//! # Format v2 (all integers little-endian, see `serde::bin`)
//!
//! ```text
//! magic            8 bytes   b"HSNNCKPT"
//! format version   u32       currently 2
//! fingerprint      u64       FNV-1a over the layer topology (below)
//! param tensors    u64       number of stored parameter tensors
//! per param tensor (in layer order):
//!   dtype tag      u8        0 = f32 (1 and 2, the retired f16/i8 tags,
//!                              are rejected as unknown)
//!   element count  u64
//!   payload        f32 bits × n
//!   checksum       u32       CRC-32 (IEEE) over the payload bytes
//! buffer count     u64       number of named buffer tensors
//! per buffer:
//!   name           u32 len + UTF-8 bytes (diagnostic, not validated)
//!   rank           u32
//!   dims           u32 × rank
//!   data           f32 × prod(dims)
//!   checksum       u32       CRC-32 (IEEE) over the data bytes
//! ```
//!
//! The **fingerprint** hashes the parameter and buffer *shapes* in walk
//! order — the same topology signature [`Network::set_weights`] implicitly
//! relies on. It reads the state walk ([`Network::for_each_state`]). It
//! deliberately excludes layer names, so a checkpoint saved from a plain
//! model loads into its [`Network::fuse_inference`]d replica (fusion keeps
//! parameter/buffer order and shapes — pinned since PR 2) and vice versa.
//! Buffer names are carried for diagnostics (`layer3.batch_norm2d.buf0`)
//! but loading validates shapes, not names, for the same reason.
//!
//! Floats are stored as raw bit patterns, so a save → load round trip is
//! exact to the bit (NaN payloads included) and the byte stream is
//! identical across platforms — `checkpoint_header_is_byte_stable` pins
//! the header.
//!
//! Loading validates magic, version, fingerprint, every length and every
//! checksum before touching the model, and returns a [`CheckpointError`]
//! naming exactly what went wrong; the network is never partially
//! overwritten by a failed load.

use crate::{states, Layer, Network, State};
use serde::bin::{ByteReader, ByteWriter, TruncatedInput};
use std::fmt;
use std::path::Path;

/// First 8 bytes of every checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"HSNNCKPT";

/// Current format version: the one written on save and the only one read.
pub const CHECKPOINT_VERSION: u32 = 2;

/// The dtype tag of an f32 tensor in the v2 per-tensor headers, the only
/// one written or read.
const TAG_F32: u8 = 0;

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), bitwise — checkpoints are
/// megabytes at most, so a lookup table buys nothing worth its cache lines.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

/// Why a checkpoint failed to load. Every variant's `Display` says what was
/// found, what was expected, and what to do about it.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error while reading or writing.
    Io(std::io::Error),
    /// The file does not start with [`CHECKPOINT_MAGIC`].
    BadMagic {
        /// The first bytes actually found (at most 8).
        found: Vec<u8>,
    },
    /// The format version is not the one this build reads and writes.
    UnsupportedVersion {
        /// Version read from the file.
        found: u32,
    },
    /// The checkpoint was saved from a structurally different model.
    FingerprintMismatch {
        /// Fingerprint of the loading network.
        expected: u64,
        /// Fingerprint stored in the checkpoint.
        found: u64,
    },
    /// The flat parameter vector has the wrong length.
    ParamCountMismatch {
        /// Scalar count the loading network needs.
        expected: u64,
        /// Scalar count stored in the checkpoint.
        found: u64,
    },
    /// The checkpoint stores a different number of buffers.
    BufferCountMismatch {
        /// Buffer count the loading network has.
        expected: u64,
        /// Buffer count stored in the checkpoint.
        found: u64,
    },
    /// A buffer's stored shape does not match the loading network's.
    BufferShapeMismatch {
        /// Name stored in the checkpoint for the offending buffer.
        name: String,
        /// Shape the loading network expects.
        expected: Vec<usize>,
        /// Shape stored in the checkpoint; empty when the stored rank
        /// already differs (the dims are then not read).
        found: Vec<usize>,
    },
    /// A stored tensor's dtype tag is not one this build understands.
    UnknownDType {
        /// The tag byte actually found.
        found: u8,
    },
    /// A stored payload's CRC-32 does not match its recorded checksum: the
    /// file's contents were altered after saving (bit rot, partial
    /// overwrite, tampering).
    CrcMismatch {
        /// Which tensor failed (`param3`, or a buffer's diagnostic name).
        name: String,
        /// Checksum recorded in the checkpoint.
        expected: u32,
        /// Checksum computed from the payload actually read.
        found: u32,
    },
    /// The file ends before the format says it should.
    Truncated(TruncatedInput),
    /// Bytes remain after the last buffer — the file is longer than the
    /// format describes (corrupt, or concatenated with something else).
    TrailingBytes {
        /// Number of unread bytes.
        extra: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic { found } => write!(
                f,
                "not a checkpoint: file starts with {found:02x?} instead of the \
                 {CHECKPOINT_MAGIC:02x?} magic (b\"HSNNCKPT\") — is this the right file?"
            ),
            CheckpointError::UnsupportedVersion { found } => write!(
                f,
                "checkpoint format version {found} is not the supported version \
                 {CHECKPOINT_VERSION}; re-save the checkpoint with a matching build"
            ),
            CheckpointError::FingerprintMismatch { expected, found } => write!(
                f,
                "checkpoint topology fingerprint {found:#018x} does not match this \
                 model's {expected:#018x}: the checkpoint was saved from a different \
                 architecture (or width/depth configuration) — load it into a replica \
                 built by the same constructor"
            ),
            CheckpointError::ParamCountMismatch { expected, found } => write!(
                f,
                "checkpoint stores {found} parameter values but this model expects \
                 {expected} — architecture mismatch the fingerprint did not catch"
            ),
            CheckpointError::BufferCountMismatch { expected, found } => write!(
                f,
                "checkpoint stores {found} buffers but this model has {expected} — \
                 architecture mismatch the fingerprint did not catch"
            ),
            CheckpointError::BufferShapeMismatch {
                name,
                expected,
                found,
            } => write!(
                f,
                "checkpoint buffer {name:?} has shape {found:?} but this model \
                 expects {expected:?}"
            ),
            CheckpointError::UnknownDType { found } => write!(
                f,
                "checkpoint stores a tensor with dtype tag {found} but this build \
                 only understands 0 (f32) — tags 1 (f16) and 2 (i8) are retired; the \
                 file is corrupt, quantized, or from a newer format revision"
            ),
            CheckpointError::CrcMismatch {
                name,
                expected,
                found,
            } => write!(
                f,
                "checkpoint tensor {name:?} fails its integrity check: stored \
                 CRC-32 {expected:#010x}, computed {found:#010x} — the file was \
                 corrupted after saving; re-fetch or re-save it"
            ),
            CheckpointError::Truncated(t) => write!(
                f,
                "checkpoint is truncated: {t} — the file was cut short (partial \
                 download or interrupted save); re-fetch or re-save it"
            ),
            CheckpointError::TrailingBytes { extra } => write!(
                f,
                "checkpoint has {extra} unexpected trailing byte(s) after the last \
                 buffer — the file is corrupt or not a single checkpoint"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Truncated(t) => Some(t),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<TruncatedInput> for CheckpointError {
    fn from(t: TruncatedInput) -> Self {
        CheckpointError::Truncated(t)
    }
}

/// Decodes a payload of little-endian f32 bit patterns, staged before commit
/// so a validation failure later in the file leaves the network untouched.
fn decode_f32(payload: &[u8]) -> Vec<f32> {
    payload
        .chunks_exact(4)
        .map(|b| f32::from_bits(u32::from_le_bytes([b[0], b[1], b[2], b[3]])))
        .collect()
}

/// Incremental FNV-1a (64-bit) over the topology description.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn push(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn push_u64(&mut self, v: u64) {
        self.push(&v.to_le_bytes());
    }
    fn push_dims(&mut self, dims: &[usize]) {
        self.push_u64(dims.len() as u64);
        for &d in dims {
            self.push_u64(d as u64);
        }
    }
}

impl Network {
    /// The layer-topology fingerprint: FNV-1a over every parameter shape and
    /// every buffer shape in walk order. Two networks with the same
    /// fingerprint accept each other's weight vectors; fusion
    /// ([`Network::fuse_inference`]) does not change it because fusion keeps
    /// parameter/buffer order and shapes.
    pub fn fingerprint(&mut self) -> u64 {
        let (params, buffers) = states(&mut self.layers);
        let mut h = Fnv::new();
        h.push_u64(params.len() as u64);
        for p in &params {
            h.push_dims(p.value.dims());
        }
        h.push_u64(buffers.len() as u64);
        for b in &buffers {
            h.push_dims(b.dims());
        }
        h.0
    }

    /// The diagnostic names paired with each buffer, in buffer order:
    /// `layer{i}.{layer name}.buf{j}` where `i` indexes the top-level layer
    /// stack (composite blocks contribute all their nested buffers under the
    /// block's name).
    fn buffer_names(&mut self) -> Vec<String> {
        let mut names = Vec::new();
        let mut i = 0;
        self.layers.for_each_child_mut(&mut |layer| {
            let (lname, mut j) = (layer.name(), 0);
            layer.for_each_state(&mut |s| {
                if let State::Buffer(_) = s {
                    names.push(format!("layer{i}.{lname}.buf{j}"));
                    j += 1;
                }
            });
            i += 1;
        });
        names
    }

    /// Serialises the network into checkpoint bytes (see the module docs for
    /// the exact layout — always the current format version). Byte-stable:
    /// the same weights always produce the same bytes.
    pub fn to_checkpoint_bytes(&mut self) -> Vec<u8> {
        let fingerprint = self.fingerprint();
        let names = self.buffer_names();
        let mut w = ByteWriter::new();
        w.put_bytes(&CHECKPOINT_MAGIC);
        w.put_u32(CHECKPOINT_VERSION);
        w.put_u64(fingerprint);

        let (params, buffers) = states(&mut self.layers);
        w.put_u64(params.len() as u64);
        for p in params {
            let mut payload = ByteWriter::new();
            payload.put_f32_slice(p.value.as_slice());
            w.put_bytes(&[TAG_F32]);
            w.put_u64(p.len() as u64);
            let payload = payload.into_bytes();
            let crc = crc32(&payload);
            w.put_bytes(&payload);
            w.put_u32(crc);
        }

        w.put_u64(buffers.len() as u64);
        for (b, name) in buffers.into_iter().zip(&names) {
            w.put_str(name);
            let dims = b.dims();
            w.put_u32(dims.len() as u32);
            for &d in dims {
                w.put_u32(d as u32);
            }
            let mut payload = ByteWriter::new();
            payload.put_f32_slice(b.as_slice());
            let payload = payload.into_bytes();
            let crc = crc32(&payload);
            w.put_bytes(&payload);
            w.put_u32(crc);
        }
        w.into_bytes()
    }

    /// Restores the network from checkpoint bytes produced by
    /// [`Network::to_checkpoint_bytes`] on a structurally identical network
    /// (fused or not).
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] — without modifying the network — when
    /// the magic, version, fingerprint, any count or any shape does not
    /// match, or the input is truncated.
    pub fn load_checkpoint_bytes(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let mut r = ByteReader::new(bytes);
        let magic = r
            .get_bytes(8, "magic")
            .map_err(|_| CheckpointError::BadMagic {
                found: bytes.to_vec(),
            })?;
        if magic != CHECKPOINT_MAGIC {
            return Err(CheckpointError::BadMagic {
                found: magic.to_vec(),
            });
        }
        let version = r.get_u32("format version")?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion { found: version });
        }
        let fingerprint = r.get_u64("fingerprint")?;
        let expected_fp = self.fingerprint();
        if fingerprint != expected_fp {
            return Err(CheckpointError::FingerprintMismatch {
                expected: expected_fp,
                found: fingerprint,
            });
        }

        // stage every parameter tensor and buffer before touching the model
        let (expected_lens, expected_dims): (Vec<usize>, Vec<Vec<usize>>) = {
            let (params, buffers) = states(&mut self.layers);
            (
                params.iter().map(|p| p.len()).collect(),
                buffers.iter().map(|b| b.dims().to_vec()).collect(),
            )
        };
        let n_tensors = r.get_u64("parameter tensor count")?;
        if n_tensors != expected_lens.len() as u64 {
            return Err(CheckpointError::ParamCountMismatch {
                expected: expected_lens.len() as u64,
                found: n_tensors,
            });
        }
        let mut staged_params = Vec::with_capacity(expected_lens.len());
        for (i, &len_expected) in expected_lens.iter().enumerate() {
            let tag = r.get_bytes(1, "parameter dtype tag")?[0];
            let len = r.get_u64("parameter element count")? as usize;
            if len != len_expected {
                return Err(CheckpointError::ParamCountMismatch {
                    expected: len_expected as u64,
                    found: len as u64,
                });
            }
            if tag != TAG_F32 {
                return Err(CheckpointError::UnknownDType { found: tag });
            }
            let payload_len =
                len.checked_mul(4)
                    .ok_or(CheckpointError::Truncated(TruncatedInput {
                        expected: "parameter payload",
                        offset: r.offset(),
                    }))?;
            let payload = r.get_bytes(payload_len, "parameter payload")?;
            let stored = r.get_u32("parameter checksum")?;
            let computed = crc32(payload);
            if computed != stored {
                return Err(CheckpointError::CrcMismatch {
                    name: format!("param{i}"),
                    expected: stored,
                    found: computed,
                });
            }
            staged_params.push(decode_f32(payload));
        }

        let n_buffers = r.get_u64("buffer count")?;
        if n_buffers != expected_dims.len() as u64 {
            return Err(CheckpointError::BufferCountMismatch {
                expected: expected_dims.len() as u64,
                found: n_buffers,
            });
        }
        // stage every buffer too, so a shape mismatch, checksum failure or
        // truncation midway leaves the network untouched
        let mut staged: Vec<Vec<f32>> = Vec::with_capacity(expected_dims.len());
        for dims_expected in &expected_dims {
            let name = r.get_str("buffer name")?;
            // the rank is untrusted: check it before it sizes anything
            let rank = r.get_u32("buffer rank")? as usize;
            if rank != dims_expected.len() {
                return Err(CheckpointError::BufferShapeMismatch {
                    name,
                    expected: dims_expected.clone(),
                    found: Vec::new(),
                });
            }
            let mut dims = Vec::with_capacity(rank);
            for _ in 0..rank {
                dims.push(r.get_u32("buffer dims")? as usize);
            }
            if &dims != dims_expected {
                return Err(CheckpointError::BufferShapeMismatch {
                    name,
                    expected: dims_expected.clone(),
                    found: dims,
                });
            }
            let len: usize = dims.iter().product();
            let payload = r.get_bytes(
                len.checked_mul(4)
                    .ok_or(CheckpointError::Truncated(TruncatedInput {
                        expected: "buffer data",
                        offset: r.offset(),
                    }))?,
                "buffer data",
            )?;
            let stored = r.get_u32("buffer checksum")?;
            let computed = crc32(payload);
            if computed != stored {
                return Err(CheckpointError::CrcMismatch {
                    name,
                    expected: stored,
                    found: computed,
                });
            }
            staged.push(decode_f32(payload));
        }
        if r.remaining() > 0 {
            return Err(CheckpointError::TrailingBytes {
                extra: r.remaining(),
            });
        }

        // all validated: commit
        let (params, buffers) = states(&mut self.layers);
        for (p, data) in params.into_iter().zip(staged_params) {
            p.value.as_mut_slice().copy_from_slice(&data);
        }
        for (b, data) in buffers.into_iter().zip(staged) {
            b.as_mut_slice().copy_from_slice(&data);
        }
        Ok(())
    }

    /// Writes the checkpoint to `path` (creating parent directories), via an
    /// adjacent temporary file and an atomic rename so readers never observe
    /// a half-written checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save_checkpoint(&mut self, path: &Path) -> Result<(), CheckpointError> {
        let bytes = self.to_checkpoint_bytes();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        // append to the full file name (with_extension would REPLACE the
        // last extension, so model.v1 / model.v2 would collide on one tmp)
        let mut tmp_name = path
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_else(|| "checkpoint".into());
        tmp_name.push(".tmp");
        let tmp = path.with_file_name(tmp_name);
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and loads a checkpoint written by [`Network::save_checkpoint`].
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] on I/O failure or any validation
    /// failure (see [`Network::load_checkpoint_bytes`]).
    pub fn load_checkpoint(&mut self, path: &Path) -> Result<(), CheckpointError> {
        let bytes = std::fs::read(path)?;
        self.load_checkpoint_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Linear, Relu, Sequential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new(Sequential::new(vec![
            Box::new(Linear::new(3, 8, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(8, 2, &mut rng)),
        ]))
    }

    #[test]
    fn bytes_round_trip_bit_exact() {
        let mut a = net(1);
        let mut b = net(2);
        let bytes = a.to_checkpoint_bytes();
        b.load_checkpoint_bytes(&bytes).unwrap();
        let wa: Vec<u32> = a.weights().iter().map(|v| v.to_bits()).collect();
        let wb: Vec<u32> = b.weights().iter().map(|v| v.to_bits()).collect();
        assert_eq!(wa, wb);
        // and re-saving reproduces identical bytes
        assert_eq!(b.to_checkpoint_bytes(), bytes);
    }

    #[test]
    fn file_round_trip_and_atomic_tmp_cleanup() {
        let dir = std::env::temp_dir().join(format!("hs_ckpt_{}", std::process::id()));
        let path = dir.join("nested/model.ckpt");
        let mut a = net(3);
        a.save_checkpoint(&path).unwrap();
        assert!(!path.with_extension("ckpt.tmp").exists());
        let mut b = net(4);
        b.load_checkpoint(&path).unwrap();
        assert_eq!(a.weights(), b.weights());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn versioned_paths_sharing_a_stem_do_not_collide_on_the_tmp_file() {
        // with_extension-based tmp naming would map model.v1 and model.v2
        // onto ONE model.tmp; the tmp must append to the full file name
        let dir = std::env::temp_dir().join(format!("hs_ckpt_vers_{}", std::process::id()));
        let mut a = net(10);
        let mut b = net(11);
        a.save_checkpoint(&dir.join("model.v1")).unwrap();
        b.save_checkpoint(&dir.join("model.v2")).unwrap();
        let mut ra = net(12);
        let mut rb = net(13);
        ra.load_checkpoint(&dir.join("model.v1")).unwrap();
        rb.load_checkpoint(&dir.join("model.v2")).unwrap();
        assert_eq!(ra.weights(), a.weights());
        assert_eq!(rb.weights(), b.weights());
        // and the tmp names are distinct (so concurrent saves cannot race)
        assert!(!dir.join("model.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_is_detected_and_model_untouched() {
        let mut a = net(5);
        let bytes = a.to_checkpoint_bytes();
        let mut rng = StdRng::seed_from_u64(6);
        let mut other = Network::new(Sequential::new(vec![Box::new(Linear::new(
            3, 9, // different width
            &mut rng,
        ))]));
        let before = other.weights();
        let err = other.load_checkpoint_bytes(&bytes).unwrap_err();
        assert!(matches!(err, CheckpointError::FingerprintMismatch { .. }));
        assert!(err.to_string().contains("different architecture"));
        assert_eq!(other.weights(), before, "failed load must not mutate");
    }

    #[test]
    fn truncated_and_garbage_inputs_are_rejected() {
        let mut a = net(7);
        let bytes = a.to_checkpoint_bytes();
        let mut b = net(8);
        let before = b.weights();
        // every truncation point fails cleanly and leaves the model alone
        for cut in [0, 4, 12, 20, bytes.len() / 2, bytes.len() - 1] {
            let err = b.load_checkpoint_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated(_)
                        | CheckpointError::BadMagic { .. }
                        | CheckpointError::ParamCountMismatch { .. }
                ),
                "cut at {cut} gave {err}"
            );
            assert_eq!(b.weights(), before);
        }
        // wrong magic
        let mut garbage = bytes.clone();
        garbage[0] = b'X';
        assert!(matches!(
            b.load_checkpoint_bytes(&garbage).unwrap_err(),
            CheckpointError::BadMagic { .. }
        ));
        // trailing junk
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(
            b.load_checkpoint_bytes(&long).unwrap_err(),
            CheckpointError::TrailingBytes { extra: 1 }
        ));
    }

    #[test]
    fn version_from_the_future_is_rejected() {
        // ...and so is the retired, checksum-less version 1
        for version in [99u32, 1] {
            let mut a = net(9);
            let before = a.weights();
            let mut bytes = a.to_checkpoint_bytes();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            let err = a.load_checkpoint_bytes(&bytes).unwrap_err();
            assert!(matches!(
                err,
                CheckpointError::UnsupportedVersion { found } if found == version
            ));
            assert!(err.to_string().contains(&format!("version {version}")));
            assert_eq!(
                a.weights(),
                before,
                "a rejected load must not touch the model"
            );
        }
    }

    #[test]
    fn corrupted_payloads_are_rejected_and_model_untouched() {
        let mut a = net(26);
        let bytes = a.to_checkpoint_bytes();
        let mut b = net(27);
        let before = b.weights();
        // flip one byte inside the first parameter payload (header is 28
        // bytes: magic 8 + version 4 + fingerprint 8 + tensor count 8; the
        // first tensor's tag+len take 9 more)
        let mut corrupt = bytes.clone();
        corrupt[40] ^= 0xff;
        let err = b.load_checkpoint_bytes(&corrupt).unwrap_err();
        assert!(
            matches!(err, CheckpointError::CrcMismatch { .. }),
            "expected CRC mismatch, got {err}"
        );
        assert!(err.to_string().contains("integrity check"));
        assert_eq!(b.weights(), before, "failed load must not mutate");
        // corruption near the end of the file is caught too: net() has no
        // buffers, so the file ends with payload, crc (4 bytes), buffer
        // count (8 bytes) — flip the last payload byte of the last tensor
        let mut tail = bytes.clone();
        let n = tail.len();
        tail[n - 13] ^= 0xff;
        let err = b.load_checkpoint_bytes(&tail).unwrap_err();
        assert!(matches!(err, CheckpointError::CrcMismatch { .. }));
        assert_eq!(b.weights(), before);
        // the retired f16 (1) and i8 (2) tags on the first tensor (byte 28)
        // are a typed error before its payload is read
        for tag in [1u8, 2] {
            let mut retired = bytes.clone();
            retired[28] = tag;
            let err = b.load_checkpoint_bytes(&retired).unwrap_err();
            assert!(
                matches!(err, CheckpointError::UnknownDType { found } if found == tag),
                "tag {tag} gave {err}"
            );
            assert_eq!(b.weights(), before);
        }
    }
}
