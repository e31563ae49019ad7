//! Binary model checkpoints.
//!
//! The paper's `Flux.moe.load_model` API loads pretrained parameters into a
//! customized MoE. The reproduction has no external checkpoint format to
//! read, so this module defines a small self-describing binary format
//! (little-endian, length-prefixed) that round-trips a [`MoeModel`] —
//! including models with customized per-layer expert counts and non-identity
//! routing maps — to and from a byte buffer or file.

use std::fmt;
use std::fs;
use std::path::Path;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use flux_tensor::Matrix;

use crate::attention::Attention;
use crate::config::MoeConfig;
use crate::expert::Expert;
use crate::gating::{Gate, RoutingMap};
use crate::layer::{MoeLayer, TransformerLayer};
use crate::model::MoeModel;

/// Magic bytes identifying a Flux checkpoint.
const MAGIC: &[u8; 8] = b"FLUXMOE1";

/// Errors produced while reading or writing checkpoints.
#[derive(Debug)]
pub enum CheckpointError {
    /// The buffer does not start with the expected magic bytes.
    BadMagic,
    /// The buffer ended before the structure was complete.
    Truncated,
    /// A length or dimension field was implausible.
    Corrupt(String),
    /// Underlying filesystem error.
    Io(std::io::Error),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a Flux checkpoint (bad magic)"),
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Serializes a model into a byte buffer.
pub fn to_bytes(model: &MoeModel) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    put_config(&mut buf, &model.config);
    put_matrix(&mut buf, &model.embedding);
    put_matrix(&mut buf, &model.lm_head);
    match &model.cls_head {
        Some(h) => {
            buf.put_u8(1);
            put_matrix(&mut buf, h);
        }
        None => buf.put_u8(0),
    }
    buf.put_u32_le(model.layers.len() as u32);
    for layer in &model.layers {
        put_matrix(&mut buf, &layer.attention.wq);
        put_matrix(&mut buf, &layer.attention.wk);
        put_matrix(&mut buf, &layer.attention.wv);
        put_matrix(&mut buf, &layer.attention.wo);
        put_matrix(&mut buf, &layer.moe.gate.weight);
        buf.put_u32_le(layer.moe.gate.top_k as u32);
        buf.put_u32_le(layer.moe.experts.len() as u32);
        for expert in &layer.moe.experts {
            put_matrix(&mut buf, &expert.w1);
            put_vec(&mut buf, &expert.b1);
            put_matrix(&mut buf, &expert.w2);
            put_vec(&mut buf, &expert.b2);
        }
        let table = layer.moe.routing_map.table();
        buf.put_u32_le(table.len() as u32);
        for &t in table {
            buf.put_u32_le(t as u32);
        }
    }
    buf.freeze()
}

/// Deserializes a model from a byte buffer.
///
/// # Errors
///
/// Returns a [`CheckpointError`] if the buffer is not a valid checkpoint.
pub fn from_bytes(mut buf: &[u8]) -> Result<MoeModel, CheckpointError> {
    let magic = take(&mut buf, MAGIC.len())?;
    if magic != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let config = get_config(&mut buf)?;
    let embedding = get_matrix(&mut buf)?;
    let lm_head = get_matrix(&mut buf)?;
    let has_cls = get_u8(&mut buf)?;
    let cls_head = if has_cls == 1 {
        Some(get_matrix(&mut buf)?)
    } else {
        None
    };
    let num_layers = get_u32(&mut buf)? as usize;
    if num_layers > 4096 {
        return Err(CheckpointError::Corrupt(format!(
            "implausible layer count {num_layers}"
        )));
    }
    let mut layers = Vec::with_capacity(num_layers);
    for _ in 0..num_layers {
        let wq = get_matrix(&mut buf)?;
        let wk = get_matrix(&mut buf)?;
        let wv = get_matrix(&mut buf)?;
        let wo = get_matrix(&mut buf)?;
        let gate_weight = get_matrix(&mut buf)?;
        let top_k = get_u32(&mut buf)? as usize;
        let num_experts = get_u32(&mut buf)? as usize;
        if num_experts > 65_536 {
            return Err(CheckpointError::Corrupt(format!(
                "implausible expert count {num_experts}"
            )));
        }
        let mut experts = Vec::with_capacity(num_experts);
        for _ in 0..num_experts {
            let w1 = get_matrix(&mut buf)?;
            let b1 = get_vec(&mut buf)?;
            let w2 = get_matrix(&mut buf)?;
            let b2 = get_vec(&mut buf)?;
            experts.push(Expert { w1, b1, w2, b2 });
        }
        let table_len = get_u32(&mut buf)? as usize;
        ensure_remaining(buf, table_len, 4)?;
        let mut table = Vec::with_capacity(table_len);
        for _ in 0..table_len {
            table.push(get_u32(&mut buf)? as usize);
        }
        let routing_map = if table.is_empty() {
            RoutingMap::identity(num_experts)
        } else {
            RoutingMap::from_table(table)
        };
        layers.push(TransformerLayer {
            attention: Attention::from_parts(wq, wk, wv, wo),
            moe: MoeLayer {
                gate: Gate {
                    weight: gate_weight,
                    top_k,
                },
                experts,
                routing_map,
            },
        });
    }
    Ok(MoeModel {
        config,
        embedding,
        layers,
        lm_head,
        cls_head,
    })
}

/// Writes a model checkpoint to a file.
///
/// # Errors
///
/// Returns a [`CheckpointError::Io`] when the file cannot be written.
pub fn save(model: &MoeModel, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    fs::write(path, to_bytes(model))?;
    Ok(())
}

/// Reads a model checkpoint from a file.
///
/// # Errors
///
/// Returns a [`CheckpointError`] when the file cannot be read or parsed.
pub fn load(path: impl AsRef<Path>) -> Result<MoeModel, CheckpointError> {
    let data = fs::read(path)?;
    from_bytes(&data)
}

fn put_config(buf: &mut BytesMut, cfg: &MoeConfig) {
    let name = cfg.name.as_bytes();
    buf.put_u32_le(name.len() as u32);
    buf.put_slice(name);
    buf.put_u32_le(cfg.vocab_size as u32);
    buf.put_u32_le(cfg.d_model as u32);
    buf.put_u32_le(cfg.d_ff as u32);
    buf.put_u32_le(cfg.num_layers as u32);
    buf.put_u32_le(cfg.experts_per_layer.len() as u32);
    for &e in &cfg.experts_per_layer {
        buf.put_u32_le(e as u32);
    }
    buf.put_u32_le(cfg.top_k as u32);
    buf.put_u32_le(cfg.num_heads as u32);
    match cfg.num_classes {
        Some(c) => {
            buf.put_u8(1);
            buf.put_u32_le(c as u32);
        }
        None => buf.put_u8(0),
    }
    buf.put_u32_le(cfg.max_seq_len as u32);
    buf.put_f32_le(cfg.reference_size_gb);
}

fn get_config(buf: &mut &[u8]) -> Result<MoeConfig, CheckpointError> {
    let name_len = get_u32(buf)? as usize;
    if name_len > 1024 {
        return Err(CheckpointError::Corrupt("model name too long".into()));
    }
    let name_bytes = take(buf, name_len)?;
    let name = String::from_utf8(name_bytes.to_vec())
        .map_err(|_| CheckpointError::Corrupt("model name is not UTF-8".into()))?;
    let vocab_size = get_u32(buf)? as usize;
    let d_model = get_u32(buf)? as usize;
    let d_ff = get_u32(buf)? as usize;
    let num_layers = get_u32(buf)? as usize;
    let epl_len = get_u32(buf)? as usize;
    ensure_remaining(buf, epl_len, 4)?;
    let mut experts_per_layer = Vec::with_capacity(epl_len);
    for _ in 0..epl_len {
        experts_per_layer.push(get_u32(buf)? as usize);
    }
    let top_k = get_u32(buf)? as usize;
    let num_heads = get_u32(buf)? as usize;
    let has_classes = get_u8(buf)?;
    let num_classes = if has_classes == 1 {
        Some(get_u32(buf)? as usize)
    } else {
        None
    };
    let max_seq_len = get_u32(buf)? as usize;
    let reference_size_gb = get_f32(buf)?;
    Ok(MoeConfig {
        name,
        vocab_size,
        d_model,
        d_ff,
        num_layers,
        experts_per_layer,
        top_k,
        num_heads,
        num_classes,
        max_seq_len,
        reference_size_gb,
    })
}

/// Appends a length-prefixed matrix (rows, cols, row-major f32 data).
pub fn put_matrix(buf: &mut BytesMut, m: &Matrix) {
    buf.put_u32_le(m.rows() as u32);
    buf.put_u32_le(m.cols() as u32);
    for &x in m.as_slice() {
        buf.put_f32_le(x);
    }
}

/// Reads a matrix written by [`put_matrix`].
///
/// # Errors
///
/// Returns a [`CheckpointError`] when the buffer is truncated or the shape
/// is implausible.
pub fn get_matrix(buf: &mut &[u8]) -> Result<Matrix, CheckpointError> {
    let rows = get_u32(buf)? as usize;
    let cols = get_u32(buf)? as usize;
    if rows.saturating_mul(cols) > 64_000_000 {
        return Err(CheckpointError::Corrupt(format!(
            "implausible matrix shape {rows}x{cols}"
        )));
    }
    ensure_remaining(buf, rows * cols, 4)?;
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows * cols {
        data.push(get_f32(buf)?);
    }
    Matrix::from_vec(rows, cols, data)
        .map_err(|e| CheckpointError::Corrupt(format!("matrix rebuild failed: {e}")))
}

/// Appends a length-prefixed `f32` vector.
pub fn put_vec(buf: &mut BytesMut, v: &[f32]) {
    buf.put_u32_le(v.len() as u32);
    for &x in v {
        buf.put_f32_le(x);
    }
}

/// Reads a vector written by [`put_vec`].
///
/// # Errors
///
/// Returns a [`CheckpointError`] when the buffer is truncated or the length
/// is implausible.
pub fn get_vec(buf: &mut &[u8]) -> Result<Vec<f32>, CheckpointError> {
    let len = get_u32(buf)? as usize;
    if len > 64_000_000 {
        return Err(CheckpointError::Corrupt("implausible vector length".into()));
    }
    ensure_remaining(buf, len, 4)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(get_f32(buf)?);
    }
    Ok(out)
}

/// Appends one expert (two projections plus biases) to the buffer.
pub fn put_expert(buf: &mut BytesMut, e: &Expert) {
    put_matrix(buf, &e.w1);
    put_vec(buf, &e.b1);
    put_matrix(buf, &e.w2);
    put_vec(buf, &e.b2);
}

/// Reads an expert written by [`put_expert`].
///
/// # Errors
///
/// Returns a [`CheckpointError`] when the buffer is truncated or corrupt.
pub fn get_expert(buf: &mut &[u8]) -> Result<Expert, CheckpointError> {
    let w1 = get_matrix(buf)?;
    let b1 = get_vec(buf)?;
    let w2 = get_matrix(buf)?;
    let b2 = get_vec(buf)?;
    Ok(Expert { w1, b1, w2, b2 })
}

/// Splits the next `n` bytes off the front of `buf`.
///
/// # Errors
///
/// Returns [`CheckpointError::Truncated`] when fewer than `n` bytes remain.
pub fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], CheckpointError> {
    if buf.len() < n {
        return Err(CheckpointError::Truncated);
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

/// Checks that `count` elements of `size` bytes each remain in `buf`, so a
/// corrupt length prefix is rejected before its elements are reserved.
///
/// # Errors
///
/// Returns [`CheckpointError::Truncated`] when fewer bytes remain.
fn ensure_remaining(buf: &[u8], count: usize, size: usize) -> Result<(), CheckpointError> {
    match count.checked_mul(size) {
        Some(bytes) if bytes <= buf.len() => Ok(()),
        _ => Err(CheckpointError::Truncated),
    }
}

/// Reads one byte.
///
/// # Errors
///
/// Returns [`CheckpointError::Truncated`] when the buffer is empty.
pub fn get_u8(buf: &mut &[u8]) -> Result<u8, CheckpointError> {
    if buf.remaining() < 1 {
        return Err(CheckpointError::Truncated);
    }
    Ok(buf.get_u8())
}

/// Reads a little-endian `u32`.
///
/// # Errors
///
/// Returns [`CheckpointError::Truncated`] when fewer than 4 bytes remain.
pub fn get_u32(buf: &mut &[u8]) -> Result<u32, CheckpointError> {
    if buf.remaining() < 4 {
        return Err(CheckpointError::Truncated);
    }
    Ok(buf.get_u32_le())
}

/// Reads a little-endian `u64`.
///
/// # Errors
///
/// Returns [`CheckpointError::Truncated`] when fewer than 8 bytes remain.
pub fn get_u64(buf: &mut &[u8]) -> Result<u64, CheckpointError> {
    if buf.remaining() < 8 {
        return Err(CheckpointError::Truncated);
    }
    Ok(buf.get_u64_le())
}

/// Reads a little-endian `f32`.
///
/// # Errors
///
/// Returns [`CheckpointError::Truncated`] when fewer than 4 bytes remain.
pub fn get_f32(buf: &mut &[u8]) -> Result<f32, CheckpointError> {
    if buf.remaining() < 4 {
        return Err(CheckpointError::Truncated);
    }
    Ok(buf.get_f32_le())
}

/// Reads a little-endian `f64`.
///
/// # Errors
///
/// Returns [`CheckpointError::Truncated`] when fewer than 8 bytes remain.
pub fn get_f64(buf: &mut &[u8]) -> Result<f64, CheckpointError> {
    if buf.remaining() < 8 {
        return Err(CheckpointError::Truncated);
    }
    Ok(f64::from_bits(buf.get_u64_le()))
}

/// Appends a little-endian `f64` (bit-exact, via `to_bits`).
pub fn put_f64(buf: &mut BytesMut, x: f64) {
    buf.put_u64_le(x.to_bits());
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_tensor::SeededRng;

    fn model(seed: u64) -> MoeModel {
        let mut rng = SeededRng::new(seed);
        MoeModel::new(MoeConfig::tiny(), &mut rng)
    }

    #[test]
    fn round_trip_preserves_everything() {
        let m = model(1);
        let bytes = to_bytes(&m);
        let restored = from_bytes(&bytes).unwrap();
        assert_eq!(restored.config, m.config);
        assert_eq!(restored.embedding, m.embedding);
        assert_eq!(restored.lm_head, m.lm_head);
        assert_eq!(restored.layers.len(), m.layers.len());
        for (a, b) in restored.layers.iter().zip(m.layers.iter()) {
            assert_eq!(a.moe.experts, b.moe.experts);
            assert_eq!(a.moe.gate, b.moe.gate);
            assert_eq!(a.attention, b.attention);
        }
    }

    #[test]
    fn round_trip_with_classification_head_and_custom_experts() {
        let mut rng = SeededRng::new(2);
        let mut m = MoeModel::new(MoeConfig::tiny().with_classes(4), &mut rng);
        // Merge experts 6 and 7 of layer 2 to exercise a non-identity map.
        let merged = Expert::weighted_merge(
            &[&m.layers[2].moe.experts[6], &m.layers[2].moe.experts[7]],
            &[1.0, 1.0],
        );
        let mut experts = m.layers[2].moe.experts[..6].to_vec();
        experts.push(merged);
        m.set_layer_experts(
            2,
            experts,
            RoutingMap::from_table(vec![0, 1, 2, 3, 4, 5, 6, 6]),
        );
        let restored = from_bytes(&to_bytes(&m)).unwrap();
        assert_eq!(restored.cls_head, m.cls_head);
        assert_eq!(restored.layers[2].moe.experts.len(), 7);
        assert_eq!(
            restored.layers[2].moe.routing_map.table(),
            m.layers[2].moe.routing_map.table()
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = from_bytes(b"NOTAMODELxxxxxxxxxxx").unwrap_err();
        assert!(matches!(err, CheckpointError::BadMagic));
    }

    #[test]
    fn truncated_buffer_is_rejected() {
        let m = model(3);
        let bytes = to_bytes(&m);
        let err = from_bytes(&bytes[..bytes.len() / 2]).unwrap_err();
        assert!(matches!(err, CheckpointError::Truncated));
        // A 32-byte header whose experts-per-layer count claims u32::MAX
        // entries must fail as truncated before reserving them.
        let mut header = MAGIC.to_vec();
        for field in [0u32, 64, 16, 32, 4, u32::MAX] {
            header.extend_from_slice(&field.to_le_bytes());
        }
        assert_eq!(header.len(), 32);
        let err = from_bytes(&header).unwrap_err();
        assert!(matches!(err, CheckpointError::Truncated));
    }

    #[test]
    fn file_round_trip() {
        let m = model(4);
        let dir = std::env::temp_dir();
        let path = dir.join("flux_checkpoint_test.bin");
        save(&m, &path).unwrap();
        let restored = load(&path).unwrap();
        assert_eq!(restored.embedding, m.embedding);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = load("/nonexistent/flux/checkpoint.bin").unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }

    #[test]
    fn error_display_strings() {
        assert!(CheckpointError::BadMagic.to_string().contains("magic"));
        assert!(CheckpointError::Truncated.to_string().contains("truncated"));
        assert!(CheckpointError::Corrupt("x".into())
            .to_string()
            .contains("x"));
    }
}
