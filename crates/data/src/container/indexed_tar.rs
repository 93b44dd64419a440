//! Indexed POSIX-tar-style archive with true random access.
//!
//! The paper's `IndexedTarDataset` packs ImageNet JPEGs into a POSIX tar
//! with "precomputed indexing" so single images can be fetched at random —
//! at the price of a filesystem seek per access and "true random image
//! selection" (contrast with the record pipeline's pseudo-shuffling).
//!
//! We write genuine tar-compatible 512-byte headers (name, size, checksum)
//! followed by payloads padded to 512-byte blocks, plus a sidecar index
//! mapping sample id → (offset, size, label).

use crate::codec;
use crate::io_model::{StorageClock, StorageModel};
use deep500_tensor::{Error, Result};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Index entry for one archived sample.
///
/// Public for: returned by `write_indexed_tar`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    pub offset: u64,
    pub size: u64,
    pub label: u32,
}

fn octal(buf: &mut [u8], value: u64) {
    // Right-justified octal with trailing NUL, tar-style.
    let s = format!("{value:0width$o}\0", width = buf.len() - 1);
    buf.copy_from_slice(s.as_bytes());
}

fn tar_header(name: &str, size: u64) -> [u8; 512] {
    let mut h = [0u8; 512];
    let name_bytes = name.as_bytes();
    h[..name_bytes.len().min(100)].copy_from_slice(&name_bytes[..name_bytes.len().min(100)]);
    octal(&mut h[100..108], 0o644); // mode
    octal(&mut h[108..116], 0); // uid
    octal(&mut h[116..124], 0); // gid
    octal(&mut h[124..136], size);
    octal(&mut h[136..148], 0); // mtime
    h[156] = b'0'; // typeflag: regular file
    h[257..262].copy_from_slice(b"ustar");
    h[263..265].copy_from_slice(b"00");
    // Checksum: spaces while computing.
    for b in &mut h[148..156] {
        *b = b' ';
    }
    let sum: u64 = h.iter().map(|&b| b as u64).sum();
    let s = format!("{sum:06o}\0 ");
    h[148..156].copy_from_slice(s.as_bytes());
    h
}

/// Write an indexed tar of D5J-encoded images; returns the index.
pub fn write_indexed_tar(
    path: &Path,
    samples: &[(codec::RawImage, u32)],
    quality: u8,
) -> Result<Vec<IndexEntry>> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut index = Vec::with_capacity(samples.len());
    let mut offset = 0u64;
    for (i, (img, label)) in samples.iter().enumerate() {
        let payload = codec::encode(img, quality)?;
        let header = tar_header(&format!("img{i:08}.d5j"), payload.len() as u64);
        f.write_all(&header)?;
        offset += 512;
        index.push(IndexEntry {
            offset,
            size: payload.len() as u64,
            label: *label,
        });
        f.write_all(&payload)?;
        let pad = (512 - payload.len() % 512) % 512;
        f.write_all(&vec![0u8; pad])?;
        offset += (payload.len() + pad) as u64;
    }
    // Two zero blocks terminate a tar archive.
    f.write_all(&[0u8; 1024])?;
    f.flush()?;

    // Sidecar index: id -> offset,size,label.
    let mut idx = std::io::BufWriter::new(std::fs::File::create(index_path(path))?);
    idx.write_all(&(index.len() as u64).to_le_bytes())?;
    for e in &index {
        idx.write_all(&e.offset.to_le_bytes())?;
        idx.write_all(&e.size.to_le_bytes())?;
        idx.write_all(&e.label.to_le_bytes())?;
    }
    idx.flush()?;
    Ok(index)
}

fn index_path(tar: &Path) -> PathBuf {
    let mut p = tar.as_os_str().to_owned();
    p.push(".idx");
    PathBuf::from(p)
}

/// Which decoder the reader uses — Table III's PIL vs libjpeg-turbo axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoder {
    /// Straightforward scalar decode (the "PIL" analogue).
    Scalar,
    /// Optimized decode (the "libjpeg-turbo" analogue).
    Turbo,
}

/// Random-access reader over an indexed tar.
pub struct IndexedTarReader {
    file: std::fs::File,
    index: Vec<IndexEntry>,
    model: StorageModel,
    clock: Arc<StorageClock>,
    /// Padded end of the last payload read — where the next entry's header
    /// starts — to distinguish sequential from random access.
    last_end: u64,
    pub decoder: Decoder,
}

impl IndexedTarReader {
    /// Open an archive and its sidecar index.
    pub fn open(
        path: &Path,
        decoder: Decoder,
        model: StorageModel,
        clock: Arc<StorageClock>,
    ) -> Result<Self> {
        let mut idx_file = std::fs::File::open(index_path(path))?;
        let mut bytes = Vec::new();
        idx_file.read_to_end(&mut bytes)?;
        if bytes.len() < 8 {
            return Err(Error::Format("truncated tar index".into()));
        }
        let count = u64::from_le_bytes(bytes[..8].try_into().unwrap()) as usize;
        if bytes.len() != 8 + count * 20 {
            return Err(Error::Format("tar index size mismatch".into()));
        }
        let mut index = Vec::with_capacity(count);
        for i in 0..count {
            let off = 8 + i * 20;
            index.push(IndexEntry {
                offset: u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap()),
                size: u64::from_le_bytes(bytes[off + 8..off + 16].try_into().unwrap()),
                label: u32::from_le_bytes(bytes[off + 16..off + 20].try_into().unwrap()),
            });
        }
        clock.charge(model.open_latency_s * 2.0); // tar + index
        Ok(IndexedTarReader {
            file: std::fs::File::open(path)?,
            index,
            model,
            clock,
            last_end: u64::MAX,
            decoder,
        })
    }

    /// Number of archived samples.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the archive is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Read and decode sample `idx`. Sequential access (the next sample in
    /// file order) streams; anything else pays a seek — reproducing the
    /// Table III sequential-vs-shuffled gap.
    pub fn read_sample(&mut self, idx: usize) -> Result<(codec::RawImage, u32)> {
        let e = *self
            .index
            .get(idx)
            .ok_or_else(|| Error::NotFound(format!("tar sample {idx}")))?;
        // Charge modeled I/O. A header read precedes the payload, so the
        // entry that follows the last one read has its payload one header
        // past `last_end`; when jumping, charge a seek.
        let sequential = self.last_end.checked_add(512) == Some(e.offset);
        if sequential {
            self.clock
                .charge(self.model.stream_cost(e.size as usize + 512));
        } else {
            self.clock
                .charge(self.model.random_access_cost(e.size as usize + 512));
        }
        self.last_end = e.offset + e.size.div_ceil(512) * 512;

        self.file.seek(SeekFrom::Start(e.offset))?;
        let mut payload = vec![0u8; e.size as usize];
        self.file.read_exact(&mut payload)?;
        let img = match self.decoder {
            Decoder::Scalar => codec::decode_scalar(&payload)?,
            Decoder::Turbo => codec::decode_turbo(&payload)?,
        };
        Ok((img, e.label))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticDataset;

    fn make_tar(n: usize, name: &str) -> std::path::PathBuf {
        let src = SyntheticDataset::cifar10_like(n, 9);
        let samples: Vec<(codec::RawImage, u32)> = (0..n)
            .map(|i| {
                let (pix, label) = src.sample_u8(i);
                (codec::RawImage::new(3, 32, 32, pix).unwrap(), label)
            })
            .collect();
        let dir = std::env::temp_dir().join("d5-tar-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        write_indexed_tar(&path, &samples, 80).unwrap();
        path
    }

    fn cleanup(path: &Path) {
        std::fs::remove_file(path).ok();
        std::fs::remove_file(index_path(path)).ok();
    }

    #[test]
    fn random_access_decodes_correct_samples() {
        let path = make_tar(10, "rand.tar");
        let clock = Arc::new(StorageClock::new());
        let mut r = IndexedTarReader::open(
            &path,
            Decoder::Turbo,
            StorageModel::local_ssd(),
            clock.clone(),
        )
        .unwrap();
        assert_eq!(r.len(), 10);
        let src = SyntheticDataset::cifar10_like(10, 9);
        for idx in [7usize, 0, 3] {
            let (img, label) = r.read_sample(idx).unwrap();
            assert_eq!((img.c, img.h, img.w), (3, 32, 32));
            assert_eq!(label, src.label_of(idx));
        }
        assert!(r.read_sample(10).is_err());
        assert!(clock.elapsed() > 0.0);
        cleanup(&path);
    }

    #[test]
    fn scalar_and_turbo_decode_identically() {
        let path = make_tar(4, "dec.tar");
        let clock = Arc::new(StorageClock::new());
        let mut a = IndexedTarReader::open(
            &path,
            Decoder::Scalar,
            StorageModel::local_ssd(),
            clock.clone(),
        )
        .unwrap();
        let mut b = IndexedTarReader::open(&path, Decoder::Turbo, StorageModel::local_ssd(), clock)
            .unwrap();
        for i in 0..4 {
            assert_eq!(a.read_sample(i).unwrap(), b.read_sample(i).unwrap());
        }
        cleanup(&path);
    }

    #[test]
    fn sequential_access_charges_less_than_shuffled() {
        let path = make_tar(16, "seq.tar");
        let seq_clock = Arc::new(StorageClock::new());
        let mut r = IndexedTarReader::open(
            &path,
            Decoder::Turbo,
            StorageModel::parallel_fs(),
            seq_clock.clone(),
        )
        .unwrap();
        for i in 0..16 {
            r.read_sample(i).unwrap();
        }
        let shuf_clock = Arc::new(StorageClock::new());
        let mut r = IndexedTarReader::open(
            &path,
            Decoder::Turbo,
            StorageModel::parallel_fs(),
            shuf_clock.clone(),
        )
        .unwrap();
        for i in [5usize, 1, 14, 3, 9, 0, 12, 7, 2, 15, 4, 11, 6, 13, 8, 10] {
            r.read_sample(i).unwrap();
        }
        assert!(
            shuf_clock.elapsed() > seq_clock.elapsed(),
            "shuffled {} !> sequential {}",
            shuf_clock.elapsed(),
            seq_clock.elapsed()
        );
        cleanup(&path);
    }

    #[test]
    fn consecutive_entries_stream_and_a_jump_seeks() {
        let path = make_tar(4, "stream.tar");
        let model = StorageModel::parallel_fs();
        // Streaming a few KB costs far less than one seek.
        let seek = model.seek_latency_s;
        assert!(model.stream_cost(64 << 10) < seek);
        let clock = Arc::new(StorageClock::new());
        let mut r = IndexedTarReader::open(&path, Decoder::Turbo, model, clock.clone()).unwrap();
        let mut seeks = |idx: usize| {
            let before = clock.elapsed();
            r.read_sample(idx).unwrap();
            clock.elapsed() - before >= seek
        };
        assert!(seeks(0), "nothing was read before the first entry");
        assert!(!seeks(1), "the entry after the last one read streams");
        assert!(!seeks(2));
        assert!(seeks(0), "backwards");
        assert!(seeks(2), "forwards past an entry");
        assert!(seeks(2), "the same entry again");
        assert!(!seeks(3));
        cleanup(&path);
    }

    #[test]
    fn headers_are_tar_compatible() {
        // ustar magic, octal size, correct checksum.
        let h = tar_header("hello.d5j", 1234);
        assert_eq!(&h[257..262], b"ustar");
        let size = u64::from_str_radix(
            std::str::from_utf8(&h[124..135])
                .unwrap()
                .trim_end_matches('\0'),
            8,
        )
        .unwrap();
        assert_eq!(size, 1234);
        // Recompute checksum.
        let mut copy = h;
        for b in &mut copy[148..156] {
            *b = b' ';
        }
        let expect: u64 = copy.iter().map(|&b| b as u64).sum();
        let stored = u64::from_str_radix(std::str::from_utf8(&h[148..154]).unwrap(), 8).unwrap();
        assert_eq!(stored, expect);
    }

    #[test]
    fn missing_index_is_an_error() {
        let path = make_tar(2, "noidx.tar");
        std::fs::remove_file(index_path(&path)).unwrap();
        let clock = Arc::new(StorageClock::new());
        assert!(
            IndexedTarReader::open(&path, Decoder::Turbo, StorageModel::local_ssd(), clock)
                .is_err()
        );
        std::fs::remove_file(&path).ok();
    }
}
