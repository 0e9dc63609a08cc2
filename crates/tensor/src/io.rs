//! Checkpoint (de)serialisation for named tensor collections.
//!
//! Format (CEMT v2, little-endian):
//!
//! ```text
//! magic "CEMT" | u32 version=2 | u32 entry_count | u32 meta_count
//! per meta:  u32 name_len | name bytes | u64 value
//! per entry: u32 name_len | name bytes | u32 rank | u32 dims.. | f32 data..
//!            | u32 entry_crc   (CRC-32 of this entry's preceding bytes)
//! footer:    u32 file_crc      (CRC-32 of every preceding byte)
//!            | end magic "CEMZ"
//! ```
//!
//! Any other version, including the retired v1 (which had no CRCs), is
//! rejected with [`CheckpointError::UnsupportedVersion`]. Hand-rolled
//! (rather than serde) so checkpoints stay compact and the format is
//! trivially auditable. Every read path returns a typed
//! [`CheckpointError`] — corrupted or truncated files are never a panic —
//! and [`StateDict::save`] writes through a temp file + fsync + atomic
//! rename so a crash mid-save can never destroy an existing checkpoint.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

use crate::crc::crc32;
use crate::tensor::Tensor;

const MAGIC: &[u8; 4] = b"CEMT";
const END_MAGIC: &[u8; 4] = b"CEMZ";
/// The current container version (per-entry CRC32 + whole-file footer).
pub const FORMAT_V2: u32 = 2;

/// Typed failure modes of checkpoint I/O.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem failure (open, read, write, rename, fsync).
    Io(io::Error),
    /// The file does not start with the `CEMT` magic.
    BadMagic([u8; 4]),
    /// The container version is not one this build can read.
    UnsupportedVersion(u32),
    /// The file ended before the structure it claims to contain.
    Truncated { context: &'static str, offset: usize },
    /// An integrity check failed (CRC mismatch, missing footer, bad UTF-8).
    Corrupted { context: String },
    /// A stored tensor does not fit the live parameter it targets.
    ShapeMismatch { name: String, expected: Vec<usize>, found: Vec<usize> },
    /// Structurally invalid content (duplicate names, absurd sizes).
    InvalidEntry { context: String },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::BadMagic(found) => {
                write!(f, "bad checkpoint magic {found:?} (expected {MAGIC:?})")
            }
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (this build reads v2)")
            }
            CheckpointError::Truncated { context, offset } => {
                write!(f, "truncated checkpoint: {context} at byte {offset}")
            }
            CheckpointError::Corrupted { context } => {
                write!(f, "corrupted checkpoint: {context}")
            }
            CheckpointError::ShapeMismatch { name, expected, found } => {
                write!(f, "checkpoint shape mismatch for {name:?}: stored {found:?}, live {expected:?}")
            }
            CheckpointError::InvalidEntry { context } => {
                write!(f, "invalid checkpoint entry: {context}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// An ordered map of parameter name → tensor plus a small `u64` metadata
/// map (epoch counters, seeds, fingerprints), used for save/load.
#[derive(Debug, Default)]
pub struct StateDict {
    entries: BTreeMap<String, Tensor>,
    meta: BTreeMap<String, u64>,
}

impl StateDict {
    pub fn new() -> Self {
        StateDict::default()
    }

    /// Insert a tensor; panics on duplicate names to surface wiring bugs.
    pub fn insert(&mut self, name: impl Into<String>, tensor: Tensor) {
        let name = name.into();
        assert!(
            self.entries.insert(name.clone(), tensor).is_none(),
            "duplicate parameter name {name:?}"
        );
    }

    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.entries.get(name)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Iterate over `(name, tensor)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Set a `u64` metadata value (overwrites).
    pub fn insert_meta(&mut self, name: impl Into<String>, value: u64) {
        self.meta.insert(name.into(), value);
    }

    /// Look up a `u64` metadata value.
    pub fn meta(&self, name: &str) -> Option<u64> {
        self.meta.get(name).copied()
    }

    /// Iterate over `(name, value)` metadata pairs in name order.
    pub fn meta_iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.meta.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Serialise to the current (v2) container format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_V2.to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.meta.len() as u32).to_le_bytes());
        for (name, value) in &self.meta {
            let bytes = name.as_bytes();
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
            out.extend_from_slice(&value.to_le_bytes());
        }
        for (name, tensor) in &self.entries {
            let start = out.len();
            write_entry_body(&mut out, name, tensor);
            let entry_crc = crc32(&out[start..]);
            out.extend_from_slice(&entry_crc.to_le_bytes());
        }
        let file_crc = crc32(&out);
        out.extend_from_slice(&file_crc.to_le_bytes());
        out.extend_from_slice(END_MAGIC);
        out
    }

    /// Serialise (v2) to any writer.
    pub fn write_to(&self, mut w: impl Write) -> Result<(), CheckpointError> {
        w.write_all(&self.to_bytes())?;
        Ok(())
    }

    /// Deserialise from any reader.
    pub fn read_from(mut r: impl Read) -> Result<Self, CheckpointError> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        StateDict::from_bytes(&bytes)
    }

    /// Deserialise from an in-memory buffer.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut cur = Cursor { bytes, pos: 0 };
        let magic = cur.take(4, "file magic")?;
        if magic != MAGIC {
            return Err(CheckpointError::BadMagic([magic[0], magic[1], magic[2], magic[3]]));
        }
        let version = cur.u32("container version")?;
        if version != FORMAT_V2 {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        parse_v2(cur)
    }

    /// Save to a file path: write to a sibling temp file, fsync it, then
    /// atomically rename into place. A crash mid-save leaves any previous
    /// file at `path` untouched.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let path = path.as_ref();
        let tmp = temp_sibling(path);
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&self.to_bytes())?;
        file.sync_all()?;
        drop(file);
        if let Err(e) = std::fs::rename(&tmp, path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e.into());
        }
        // Best-effort directory sync so the rename itself is durable.
        if let Some(dir) = path.parent() {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Load from a file path.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let file = std::fs::File::open(path)?;
        StateDict::read_from(io::BufReader::new(file))
    }

    /// Copy stored values into live parameter tensors by name. Returns the
    /// list of names that were present in the dict but not in `targets`,
    /// or a [`CheckpointError::ShapeMismatch`] if a stored tensor does not
    /// fit its live counterpart.
    pub fn restore_into(
        &self,
        targets: &[(String, Tensor)],
    ) -> Result<Vec<String>, CheckpointError> {
        let mut used = std::collections::HashSet::new();
        for (name, param) in targets {
            if let Some(saved) = self.entries.get(name) {
                if saved.numel() != param.numel() {
                    return Err(CheckpointError::ShapeMismatch {
                        name: name.clone(),
                        expected: param.dims().to_vec(),
                        found: saved.dims().to_vec(),
                    });
                }
                param.copy_from_slice(&saved.to_vec());
                used.insert(name.clone());
            }
        }
        Ok(self.entries.keys().filter(|k| !used.contains(*k)).cloned().collect())
    }
}

/// Temp-file path next to `path` (same filesystem, so rename is atomic).
fn temp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

fn write_entry_body(out: &mut Vec<u8>, name: &str, tensor: &Tensor) {
    let bytes = name.as_bytes();
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
    let dims = tensor.dims();
    out.extend_from_slice(&(dims.len() as u32).to_le_bytes());
    for &d in dims {
        out.extend_from_slice(&(d as u32).to_le_bytes());
    }
    for v in tensor.to_vec() {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Bounds-checked reader over an in-memory buffer. Refusing to read past
/// the end (instead of trusting stored lengths) is what keeps corrupted
/// length fields from turning into allocation bombs or panics.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], CheckpointError> {
        if self.bytes.len() - self.pos < n {
            return Err(CheckpointError::Truncated { context, offset: self.pos });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, CheckpointError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, CheckpointError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    fn f32(&mut self, context: &'static str) -> Result<f32, CheckpointError> {
        let b = self.take(4, context)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn string(&mut self, context: &'static str) -> Result<String, CheckpointError> {
        let len = self.u32(context)? as usize;
        let bytes = self.take(len, context)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| CheckpointError::Corrupted {
            context: format!("{context}: non-UTF-8 name ({e})"),
        })
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

/// Parse one `name | rank | dims | data` entry body.
fn parse_entry(cur: &mut Cursor<'_>, dict: &mut StateDict) -> Result<(), CheckpointError> {
    let name = cur.string("entry name")?;
    let rank = cur.u32("entry rank")? as usize;
    if rank * 4 > cur.remaining() {
        return Err(CheckpointError::Truncated { context: "entry dims", offset: cur.pos });
    }
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        dims.push(cur.u32("entry dim")? as usize);
    }
    let numel = dims.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d)).ok_or_else(|| {
        CheckpointError::InvalidEntry { context: format!("entry {name:?}: dims {dims:?} overflow") }
    })?;
    if numel.checked_mul(4).map(|b| b > cur.remaining()).unwrap_or(true) {
        return Err(CheckpointError::Truncated { context: "entry data", offset: cur.pos });
    }
    let mut data = Vec::with_capacity(numel);
    for _ in 0..numel {
        data.push(cur.f32("entry data")?);
    }
    if dict.entries.contains_key(&name) {
        return Err(CheckpointError::InvalidEntry {
            context: format!("duplicate entry name {name:?}"),
        });
    }
    dict.entries.insert(name, Tensor::from_vec(data, &dims));
    Ok(())
}

fn parse_v2(mut cur: Cursor<'_>) -> Result<StateDict, CheckpointError> {
    // Validate the footer first: end magic, then the whole-file CRC. This
    // catches truncation and any byte-level damage before the entry walk.
    let total = cur.bytes.len();
    if total < cur.pos + 8 {
        return Err(CheckpointError::Truncated { context: "v2 footer", offset: total });
    }
    if &cur.bytes[total - 4..] != END_MAGIC {
        return Err(CheckpointError::Truncated { context: "v2 end magic missing", offset: total });
    }
    let stored_file_crc = u32::from_le_bytes(cur.bytes[total - 8..total - 4].try_into().unwrap());
    let computed_file_crc = crc32(&cur.bytes[..total - 8]);
    if stored_file_crc != computed_file_crc {
        return Err(CheckpointError::Corrupted {
            context: format!(
                "file CRC mismatch: stored {stored_file_crc:#010x}, computed {computed_file_crc:#010x}"
            ),
        });
    }

    let entry_count = cur.u32("entry count")? as usize;
    let meta_count = cur.u32("meta count")? as usize;
    let mut dict = StateDict::new();
    for _ in 0..meta_count {
        let name = cur.string("meta name")?;
        let value = cur.u64("meta value")?;
        dict.meta.insert(name, value);
    }
    for _ in 0..entry_count {
        let start = cur.pos;
        parse_entry(&mut cur, &mut dict)?;
        let stored = cur.u32("entry crc")?;
        let computed = crc32(&cur.bytes[start..cur.pos - 4]);
        if stored != computed {
            return Err(CheckpointError::Corrupted {
                context: format!(
                    "entry CRC mismatch at byte {start}: stored {stored:#010x}, computed {computed:#010x}"
                ),
            });
        }
    }
    if cur.pos != total - 8 {
        return Err(CheckpointError::Corrupted {
            context: format!("{} unparsed bytes before footer", total - 8 - cur.pos),
        });
    }
    Ok(dict)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StateDict {
        let mut dict = StateDict::new();
        dict.insert("layer.weight", Tensor::from_vec(vec![1.5, -2.0, 0.25, 8.0], &[2, 2]));
        dict.insert("layer.bias", Tensor::from_vec(vec![0.1, 0.2], &[2]));
        dict.insert_meta("epoch", 7);
        dict.insert_meta("seed", u64::MAX - 3);
        dict
    }

    #[test]
    fn roundtrip_through_memory() {
        let dict = sample();
        let mut buf = Vec::new();
        dict.write_to(&mut buf).unwrap();
        let restored = StateDict::read_from(buf.as_slice()).unwrap();

        assert_eq!(restored.len(), 2);
        assert_eq!(restored.get("layer.weight").unwrap().to_vec(), vec![1.5, -2.0, 0.25, 8.0]);
        assert_eq!(restored.get("layer.weight").unwrap().dims(), &[2, 2]);
        assert_eq!(restored.get("layer.bias").unwrap().to_vec(), vec![0.1, 0.2]);
        assert_eq!(restored.meta("epoch"), Some(7));
        assert_eq!(restored.meta("seed"), Some(u64::MAX - 3));
    }

    #[test]
    fn v1_files_are_rejected() {
        // The retired v1 layout: magic, version 1, entry count, bare entries
        // with no CRCs. Its version word is checked before anything else.
        let mut v1 = MAGIC.to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&1u32.to_le_bytes());
        write_entry_body(&mut v1, "w", &Tensor::from_vec(vec![1.5, -2.0], &[2]));
        let err = StateDict::from_bytes(&v1).unwrap_err();
        assert!(matches!(err, CheckpointError::UnsupportedVersion(1)), "{err}");
    }

    #[test]
    fn bad_magic_rejected() {
        let err = StateDict::from_bytes(b"XXXX\x01\x00\x00\x00\x00\x00\x00\x00").unwrap_err();
        assert!(matches!(err, CheckpointError::BadMagic(_)), "{err}");
    }

    #[test]
    fn unsupported_version_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[4] = 9;
        let err = StateDict::from_bytes(&bytes).unwrap_err();
        // The version byte is covered by the file CRC, so either error is a
        // correct rejection; a version-9 file without a CRC must report the
        // version.
        assert!(
            matches!(
                err,
                CheckpointError::UnsupportedVersion(9) | CheckpointError::Corrupted { .. }
            ),
            "{err}"
        );
    }

    #[test]
    fn truncation_detected_at_every_length() {
        let bytes = sample().to_bytes();
        for keep in 0..bytes.len() {
            let err = StateDict::from_bytes(&bytes[..keep]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated { .. }
                        | CheckpointError::BadMagic(_)
                        | CheckpointError::Corrupted { .. }
                ),
                "keep={keep}: {err}"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_detected() {
        let bytes = sample().to_bytes();
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 0xFF;
            assert!(StateDict::from_bytes(&corrupted).is_err(), "flip at byte {i} not caught");
        }
    }

    #[test]
    fn restore_into_copies_and_reports_unused() {
        let mut dict = StateDict::new();
        dict.insert("a", Tensor::from_vec(vec![9.0], &[1]));
        dict.insert("orphan", Tensor::from_vec(vec![1.0], &[1]));

        let live = Tensor::zeros(&[1]);
        let unused = dict.restore_into(&[("a".to_string(), live.clone())]).unwrap();
        assert_eq!(live.item(), 9.0);
        assert_eq!(unused, vec!["orphan".to_string()]);
    }

    #[test]
    fn restore_into_rejects_shape_mismatch() {
        let mut dict = StateDict::new();
        dict.insert("w", Tensor::zeros(&[3]));
        let live = Tensor::zeros(&[2]);
        let err = dict.restore_into(&[("w".to_string(), live)]).unwrap_err();
        assert!(matches!(err, CheckpointError::ShapeMismatch { .. }), "{err}");
    }

    #[test]
    #[should_panic(expected = "duplicate parameter")]
    fn duplicate_names_panic() {
        let mut dict = StateDict::new();
        dict.insert("w", Tensor::zeros(&[1]));
        dict.insert("w", Tensor::zeros(&[1]));
    }

    #[test]
    fn file_roundtrip_is_atomic() {
        let dir = std::env::temp_dir().join("cem_tensor_io_test_v2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.cemt");
        let mut dict = StateDict::new();
        dict.insert("w", Tensor::from_vec(vec![3.25; 6], &[3, 2]));
        dict.save(&path).unwrap();
        // No temp file left behind.
        assert!(!temp_sibling(&path).exists());
        let back = StateDict::load(&path).unwrap();
        assert_eq!(back.get("w").unwrap().to_vec(), vec![3.25; 6]);

        // Overwriting goes through the same atomic path.
        let mut dict2 = StateDict::new();
        dict2.insert("w", Tensor::from_vec(vec![-1.0; 6], &[3, 2]));
        dict2.save(&path).unwrap();
        let back2 = StateDict::load(&path).unwrap();
        assert_eq!(back2.get("w").unwrap().to_vec(), vec![-1.0; 6]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn nan_payloads_roundtrip_bit_exact() {
        let mut dict = StateDict::new();
        let weird = f32::from_bits(0x7FC0_1234); // NaN with payload
        dict.insert("w", Tensor::from_vec(vec![weird, f32::INFINITY, -0.0], &[3]));
        let back = StateDict::from_bytes(&dict.to_bytes()).unwrap();
        let values = back.get("w").unwrap().to_vec();
        assert_eq!(values[0].to_bits(), 0x7FC0_1234);
        assert_eq!(values[1], f32::INFINITY);
        assert_eq!(values[2].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn corrupt_length_fields_do_not_allocate_bombs() {
        let mut bytes = sample().to_bytes();
        // Blow up the meta count field; must fail fast with a typed error.
        bytes[12] = 0xFF;
        bytes[13] = 0xFF;
        bytes[14] = 0xFF;
        bytes[15] = 0x7F;
        let err = StateDict::from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Corrupted { .. } | CheckpointError::Truncated { .. }),
            "{err}"
        );
    }
}
