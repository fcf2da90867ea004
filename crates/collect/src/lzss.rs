//! LZSS compression for rotated snapshot files.
//!
//! §3: the data-buffer module *compresses* each accumulation file before
//! upload, to minimize bandwidth. Snapshot streams are extremely
//! repetitive (consecutive fast snapshots differ in a handful of bytes),
//! so a simple LZ77-family scheme recovers most of the redundancy.
//!
//! Format: a stream of tokens introduced by flag bytes. Each flag byte
//! covers the next 8 tokens, LSB first; bit = 0 means a literal byte,
//! bit = 1 means a back-reference of `(distance: u16 LE, length: u8)`
//! with real length `length + MIN_MATCH`. Window 64 KiB, match lengths
//! 4..=258.
//!
//! Match finding walks hash chains over 4-byte prefixes (at most
//! `CHAIN_LIMIT` candidates per position) with one-step lazy matching.
//! The output is a pure function of the input bytes; the collect crate's
//! `tests/codec_props.rs` pins it byte for byte to a straightforward
//! reference tokenizer kept in `tests/support/lzss_reference.rs`.

/// Minimum back-reference length (shorter matches are stored literally).
const MIN_MATCH: usize = 4;
/// Maximum back-reference length (255 + MIN_MATCH).
const MAX_MATCH: usize = 255 + MIN_MATCH;
/// Sliding-window size (maximum back-reference distance).
const WINDOW: usize = 65_535;

// Chained hash table over 4-byte prefixes for match finding.
const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// Maximum candidates examined per position before giving up.
const CHAIN_LIMIT: u32 = 32;

/// Worst-case compressed size for `n` input bytes: an all-literal stream
/// costs one flag byte per 8 literals, plus a small cushion. Reserving
/// this up front means [`Workspace::compress_into`] never regrows its
/// output, even on incompressible input.
pub const fn max_compressed_len(n: usize) -> usize {
    n + n / 8 + 16
}

#[inline]
fn hash4(d: &[u8]) -> usize {
    let v = u32::from_le_bytes([d[0], d[1], d[2], d[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `data[c..]` and `data[i..]`, capped at
/// `max_len`. Requires `c < i` and `i + max_len <= data.len()`.
///
/// Compares eight bytes at a time: both reads stay in bounds
/// (`l + 8 <= max_len` implies `i + l + 8 <= data.len()`, and `c < i`
/// keeps the candidate read strictly earlier), and on a mismatch the
/// first differing byte is recovered from the trailing zeros of the
/// little-endian XOR, so the result is the byte-at-a-time answer.
#[inline]
fn match_len(data: &[u8], c: usize, i: usize, max_len: usize) -> usize {
    debug_assert!(c < i && i + max_len <= data.len());
    let mut l = 0usize;
    while l + 8 <= max_len {
        let a = u64::from_le_bytes(data[c + l..c + l + 8].try_into().unwrap());
        let b = u64::from_le_bytes(data[i + l..i + l + 8].try_into().unwrap());
        let diff = a ^ b;
        if diff != 0 {
            return l + (diff.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max_len && data[c + l] == data[i + l] {
        l += 1;
    }
    l
}

/// Reusable compression state: the hash-chain `head`/`prev` arrays.
///
/// Chains hold *position offsets*: input position `pos` of a run is
/// stored as `base + pos`, and each run starts its `base` above every
/// offset an earlier run stored. A chain walk therefore ends at the first
/// offset below `base` (or outside the window), so neither array needs a
/// clear between runs: a `prev[pos]` is only read after `pos` was
/// inserted in the current run. When the offsets would pass `u32::MAX`,
/// `head` is zeroed once and `base` restarts at 1 (0 marks an empty
/// slot).
///
/// [`Workspace::new`] allocates nothing; `head` (128 KiB) and `prev`
/// (4 bytes per input byte) are created by the first compress, so a
/// buffer that never rotates never pays for them. After that a per-lane
/// workspace compresses without allocating.
///
/// Output is a pure function of the input bytes: a reused workspace
/// produces byte-identical streams to a fresh one (property-tested in
/// `tests/codec_props.rs`).
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// Per hash bucket, the offset of the latest position with that hash.
    head: Vec<u32>,
    /// Per position, the offset of the previous position in its chain.
    prev: Vec<u32>,
    /// Offset of position 0 of the next run.
    base: u32,
}

impl Workspace {
    /// A fresh workspace. Allocates nothing until the first compress.
    pub fn new() -> Workspace {
        Workspace::default()
    }

    /// Start a run over `n` input bytes and return its `base`: size the
    /// chain arrays, and restart the offsets when they would wrap.
    fn begin(&mut self, n: usize) -> u32 {
        if self.prev.len() < n {
            self.prev.resize(n, 0);
        }
        assert!(n < u32::MAX as usize, "LZSS input must be under 4 GiB");
        let n = n as u32;
        if self.head.is_empty() {
            self.head = vec![0; HASH_SIZE];
            self.base = 1;
        } else if self.base.checked_add(n).is_none() {
            self.head.fill(0);
            self.base = 1;
        }
        let base = self.base;
        self.base += n;
        base
    }

    /// Chain position `pos` (which has four bytes left to hash).
    #[inline]
    fn insert(&mut self, data: &[u8], pos: usize, base: u32) {
        let h = hash4(&data[pos..]);
        self.prev[pos] = self.head[h];
        self.head[h] = base + pos as u32;
    }

    /// Longest match for `data[i..]` among chained earlier positions.
    /// Returns `(length, distance)`; length 0 means no candidate.
    #[inline]
    fn find_match(&self, data: &[u8], i: usize, base: u32) -> (usize, usize) {
        if i + MIN_MATCH > data.len() {
            return (0, 0);
        }
        let max_len = (data.len() - i).min(MAX_MATCH);
        // Oldest usable offset: written by this run, inside the window.
        let floor = base.max((base + i as u32).saturating_sub(WINDOW as u32));
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let mut cand = self.head[hash4(&data[i..])];
        for _ in 0..CHAIN_LIMIT {
            if cand < floor {
                break;
            }
            let c = (cand - base) as usize;
            // `best_len < max_len` here, so both reads are in bounds; a
            // candidate differing at `best_len` cannot beat the best.
            if data[c + best_len] == data[i + best_len] {
                let l = match_len(data, c, i, max_len);
                if l > best_len {
                    best_len = l;
                    best_dist = i - c;
                    if l == max_len {
                        break;
                    }
                }
            }
            cand = self.prev[c];
        }
        (best_len, best_dist)
    }

    /// Compress `data`, replacing the contents of `out`.
    ///
    /// `out` is cleared and reserved to [`max_compressed_len`] up front,
    /// so a buffer that already has that capacity is never reallocated.
    /// Uses one-step lazy matching: when the position after a match start
    /// holds a strictly longer match, the first byte is emitted as a
    /// literal instead, improving ratio on snapshot streams at equal
    /// speed.
    pub fn compress_into(&mut self, data: &[u8], out: &mut Vec<u8>) {
        out.clear();
        if data.is_empty() {
            return;
        }
        out.reserve(max_compressed_len(data.len()));
        let base = self.begin(data.len());
        let n = data.len();

        let mut i = 0;
        let mut flag_pos = out.len();
        out.push(0);
        let mut flag_bit = 0u8;

        macro_rules! emit_token {
            ($is_ref:expr, $body:expr) => {{
                if flag_bit == 8 {
                    flag_pos = out.len();
                    out.push(0);
                    flag_bit = 0;
                }
                if $is_ref {
                    out[flag_pos] |= 1 << flag_bit;
                }
                flag_bit += 1;
                let bytes: &[u8] = $body;
                out.extend_from_slice(bytes);
            }};
        }

        // The lazy peek's result, when it won and `i` moved onto it.
        let mut deferred = None;
        while i < n {
            let (best_len, best_dist) = deferred
                .take()
                .unwrap_or_else(|| self.find_match(data, i, base));

            if best_len >= MIN_MATCH {
                // One-step lazy matching: peek at i + 1 before committing.
                // `i` must be inserted first so the peek can chain to it
                // (a match implies four bytes are left to hash).
                self.insert(data, i, base);
                if best_len < MAX_MATCH {
                    let next = self.find_match(data, i + 1, base);
                    if next.0 > best_len {
                        // The deferred match is strictly better: spend a
                        // literal and take it on the next iteration. The
                        // literal inserts nothing, so searching i + 1
                        // again would find exactly `next`.
                        emit_token!(false, &data[i..=i]);
                        i += 1;
                        deferred = Some(next);
                        continue;
                    }
                }
                let dist = best_dist as u16;
                let len_code = (best_len - MIN_MATCH) as u8;
                emit_token!(
                    true,
                    &[dist.to_le_bytes()[0], dist.to_le_bytes()[1], len_code]
                );
                // Chain the rest of the span (`i` itself is already in)
                // up to the last position with four bytes left to hash.
                let end = i + best_len;
                let stop = end.min(n - MIN_MATCH + 1);
                let mut offset = base + i as u32;
                for (slot, window) in self.prev[i + 1..stop]
                    .iter_mut()
                    .zip(data[i + 1..].windows(MIN_MATCH))
                {
                    offset += 1;
                    let h = hash4(window);
                    *slot = self.head[h];
                    self.head[h] = offset;
                }
                i = end;
            } else {
                emit_token!(false, &data[i..=i]);
                if i + MIN_MATCH <= n {
                    self.insert(data, i, base);
                }
                i += 1;
            }
        }
    }

    /// Compress `data` into a freshly allocated `Vec`.
    pub fn compress(&mut self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.compress_into(data, &mut out);
        out
    }
}

/// Compress a byte slice with a throwaway [`Workspace`].
///
/// Convenience for one-shot callers and tests; hot paths (the per-lane
/// buffer rotate) hold a persistent workspace instead.
///
/// ```
/// let data = b"snapshot;snapshot;snapshot;snapshot;".repeat(50);
/// let packed = racket_collect::lzss::compress(&data);
/// assert!(packed.len() < data.len() / 4);
/// assert_eq!(racket_collect::lzss::decompress(&packed).unwrap(), data);
/// ```
pub fn compress(data: &[u8]) -> Vec<u8> {
    Workspace::new().compress(data)
}

/// Decompression errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecompressError {
    /// A token was cut off mid-stream.
    Truncated,
    /// A back-reference pointed before the start of the output.
    BadReference {
        /// Output length when the bad reference was hit.
        at: usize,
        /// The offending distance.
        distance: usize,
    },
}

impl std::fmt::Display for DecompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecompressError::Truncated => write!(f, "compressed stream truncated"),
            DecompressError::BadReference { at, distance } => {
                write!(
                    f,
                    "back-reference distance {distance} at output offset {at}"
                )
            }
        }
    }
}

impl std::error::Error for DecompressError {}

/// Decompress a stream produced by [`compress`].
pub fn decompress(data: &[u8]) -> Result<Vec<u8>, DecompressError> {
    let mut out = Vec::with_capacity(data.len() * 3);
    decompress_into(data, &mut out)?;
    Ok(out)
}

/// Decompress into a caller-supplied buffer (cleared first), letting hot
/// ingest paths reuse one scratch allocation across files.
pub fn decompress_into(data: &[u8], out: &mut Vec<u8>) -> Result<(), DecompressError> {
    out.clear();
    let mut i = 0;
    while i < data.len() {
        let flags = data[i];
        i += 1;
        if flags == 0 && i + 8 <= data.len() {
            // All eight tokens are literals: one bulk copy instead of
            // eight pushes. (The tail of the stream may cover fewer than
            // eight tokens, so the slow loop handles that case.)
            out.extend_from_slice(&data[i..i + 8]);
            i += 8;
            continue;
        }
        for bit in 0..8 {
            if i >= data.len() {
                break;
            }
            if flags & (1 << bit) == 0 {
                out.push(data[i]);
                i += 1;
            } else {
                if i + 3 > data.len() {
                    return Err(DecompressError::Truncated);
                }
                let dist = u16::from_le_bytes([data[i], data[i + 1]]) as usize;
                let len = data[i + 2] as usize + MIN_MATCH;
                i += 3;
                if dist == 0 || dist > out.len() {
                    return Err(DecompressError::BadReference {
                        at: out.len(),
                        distance: dist,
                    });
                }
                let start = out.len() - dist;
                if dist >= len {
                    // Non-overlapping back-reference: one block copy.
                    out.extend_from_within(start..start + len);
                } else {
                    // Overlapping copy (run-length style): the output is
                    // periodic with period `dist` from `start` on, so any
                    // already-written chunk whose length is a multiple of
                    // `dist` can be replayed. Doubling the chunk gives
                    // O(log(len/dist)) block copies instead of `len`
                    // byte-wise pushes.
                    let mut remaining = len;
                    let mut chunk = dist;
                    while chunk < remaining {
                        out.extend_from_within(start..start + chunk);
                        remaining -= chunk;
                        chunk *= 2;
                    }
                    out.extend_from_within(start..start + remaining);
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) -> Vec<u8> {
        let c = compress(data);
        decompress(&c).expect("round trip must decompress")
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(round_trip(b""), b"");
        assert_eq!(round_trip(b"a"), b"a");
        assert_eq!(round_trip(b"abc"), b"abc");
    }

    #[test]
    fn repetitive_input_round_trips_and_shrinks() {
        let data: Vec<u8> = b"fast_snapshot{install:123,fg:com.app,screen:1};"
            .iter()
            .copied()
            .cycle()
            .take(20_000)
            .collect();
        let c = compress(&data);
        assert!(
            c.len() < data.len() / 5,
            "compressed {} of {}",
            c.len(),
            data.len()
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn run_length_overlapping_match() {
        let data = vec![0x41u8; 1000];
        let c = compress(&data);
        assert!(c.len() < 40, "pure run compresses hard, got {}", c.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn run_longer_than_window_round_trips() {
        // A uniform run longer than the 64 KiB search window: every match
        // candidate distance must stay clamped to the window even though
        // identical bytes continue far beyond it.
        let data = vec![0x42u8; WINDOW + 10_000];
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
        assert!(c.len() < data.len() / 50, "long run still compresses");
    }

    #[test]
    fn repeat_exactly_at_window_distance_round_trips() {
        // A motif that recurs at exactly the maximum representable
        // distance, with incompressible noise in between: exercises the
        // `i - cand <= WINDOW` boundary on both sides.
        let motif = b"racketstore-window-boundary-motif";
        let mut data = Vec::new();
        data.extend_from_slice(motif);
        // Pseudo-random filler (SplitMix-ish) that won't form long matches.
        let mut x = 0x9E37_79B9u32;
        while data.len() < WINDOW {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            data.push(x as u8);
        }
        data.truncate(WINDOW);
        data.extend_from_slice(motif); // second copy, distance == WINDOW
        assert_eq!(round_trip(&data), data);
    }

    #[test]
    fn incompressible_input_round_trips() {
        // Pseudo-random bytes: no matches, pure literal stream.
        let mut x: u32 = 0x12345678;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x & 0xff) as u8
            })
            .collect();
        assert_eq!(round_trip(&data), data);
        // Overhead is bounded by 1 flag byte per 8 literals.
        let c = compress(&data);
        assert!(c.len() <= data.len() + data.len() / 8 + 2);
    }

    #[test]
    fn truncated_stream_rejected() {
        let c = compress(&[7u8; 100]);
        assert!(matches!(
            decompress(&c[..c.len() - 1]),
            Err(DecompressError::Truncated) | Ok(_)
        ));
        // A reference token cut exactly is definitely Truncated.
        let mut bad = vec![0b0000_0001u8]; // first token is a reference
        bad.push(0x01); // half a distance
        assert_eq!(decompress(&bad), Err(DecompressError::Truncated));
    }

    #[test]
    fn bad_reference_rejected() {
        // Flag says reference, distance 9999 with empty output so far.
        let bad = vec![0b0000_0001u8, 0x0f, 0x27, 0x00];
        match decompress(&bad) {
            Err(DecompressError::BadReference { distance, .. }) => {
                assert_eq!(distance, 9999);
            }
            other => panic!("expected BadReference, got {other:?}"),
        }
    }

    #[test]
    fn workspace_reuse_matches_fresh_state() {
        // One workspace across many inputs must produce the same bytes as
        // a throwaway workspace per input (the position-offset contract).
        let inputs: Vec<Vec<u8>> = vec![
            b"aaaaaaaaaaaaaaaaaaaaaaaa".to_vec(),
            b"abcdefgh".repeat(100),
            (0..5000u32).flat_map(|i| i.to_le_bytes()).collect(),
            vec![],
            b"x".repeat(3),
        ];
        let mut ws = Workspace::new();
        for data in &inputs {
            assert_eq!(ws.compress(data), compress(data));
        }
        // And again in reverse order, on the same (now dirty) workspace.
        for data in inputs.iter().rev() {
            assert_eq!(ws.compress(data), compress(data));
        }
    }

    #[test]
    fn chain_arrays_are_allocated_by_the_first_compress() {
        let mut ws = Workspace::new();
        assert_eq!((ws.head.capacity(), ws.prev.capacity()), (0, 0));
        ws.compress(b"abcdabcdabcd");
        assert_eq!(ws.head.len(), HASH_SIZE);
        assert!(ws.prev.len() >= 12);
    }

    #[test]
    fn position_offset_wrap_restarts_cleanly() {
        // Push `base` to the top of the u32 range. A run whose offsets end
        // exactly at u32::MAX - 1 needs no restart; the next run must
        // zero `head` and restart at 1, and no offset left over from the
        // high run may leak into its chains.
        let data = b"wrap-around-motif;install=7;".repeat(400);
        let fresh = compress(&data);
        let n = data.len() as u32;
        let mut ws = Workspace::new();
        assert_eq!(ws.compress(&data), fresh);
        ws.base = u32::MAX - n;
        assert_eq!(ws.compress(&data), fresh);
        assert_eq!(ws.base, u32::MAX);
        assert_eq!(ws.compress(&data), fresh);
        assert_eq!(ws.base, 1 + n, "offsets restarted");
        assert_eq!(ws.compress(&data), fresh);
    }

    #[test]
    fn incompressible_input_never_regrows_preallocated_output() {
        // Satellite: the old `data.len() / 2 + 16` preallocation forced
        // regrows on incompressible input. With the worst-case reserve, a
        // buffer at `max_compressed_len` capacity is never reallocated.
        let mut x: u32 = 0xDEAD_BEEF;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x & 0xff) as u8
            })
            .collect();
        let mut out = Vec::with_capacity(max_compressed_len(data.len()));
        let before = out.as_ptr();
        Workspace::new().compress_into(&data, &mut out);
        assert_eq!(out.as_ptr(), before, "output buffer was reallocated");
        assert!(
            out.len() <= max_compressed_len(data.len()),
            "compressed {} exceeds worst case {}",
            out.len(),
            max_compressed_len(data.len())
        );
        assert_eq!(decompress(&out).unwrap(), data);
    }

    #[test]
    fn json_snapshot_payload_compresses_well() {
        // Realistic payload shape: many similar JSON records.
        let mut data = Vec::new();
        for i in 0..500 {
            data.extend_from_slice(
                format!(
                    "{{\"install_id\":1234567890,\"participant_id\":111111,\
                     \"time\":{},\"foreground_app\":\"app-42\",\"screen_on\":true,\
                     \"battery_pct\":87}}\n",
                    i * 5
                )
                .as_bytes(),
            );
        }
        let c = compress(&data);
        assert!(
            c.len() * 4 < data.len(),
            "expected ≥4× ratio, got {}/{}",
            c.len(),
            data.len()
        );
        assert_eq!(decompress(&c).unwrap(), data);
    }
}
