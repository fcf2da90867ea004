//! Reference LZSS compressor: the straightforward hash-chain tokenizer
//! that `racket_collect::lzss::Workspace` must reproduce byte for byte.
//!
//! Same format, hash, chain limit, window and one-step lazy rule as the
//! product compressor, written for clarity instead of speed: generation
//! stamps invalidate the `head` slots between runs, every candidate is
//! compared byte at a time, and the lazy peek's winner is searched again
//! on the next iteration. The differential proptests in
//! `codec_props.rs` pin the product's output to this one.

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 255 + MIN_MATCH;
pub const WINDOW: usize = 65_535;
const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
const CHAIN_LIMIT: u32 = 32;
/// Empty-slot sentinel in the hash chains.
const NIL: u32 = u32::MAX;

fn hash4(d: &[u8]) -> usize {
    let v = u32::from_le_bytes([d[0], d[1], d[2], d[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `data[c..]` and `data[i..]`, capped at
/// `max_len`.
fn match_len(data: &[u8], c: usize, i: usize, max_len: usize) -> usize {
    let mut l = 0usize;
    while l < max_len && data[c + l] == data[i + l] {
        l += 1;
    }
    l
}

/// Reusable reference state: `head`/`prev` chains plus a generation
/// counter that stales every `head` slot between runs.
pub struct ReferenceWorkspace {
    head: Vec<u32>,
    head_gen: Vec<u32>,
    prev: Vec<u32>,
    gen: u32,
}

impl ReferenceWorkspace {
    pub fn new() -> ReferenceWorkspace {
        ReferenceWorkspace {
            head: vec![0; HASH_SIZE],
            head_gen: vec![0; HASH_SIZE],
            prev: Vec::new(),
            gen: 0,
        }
    }

    fn begin(&mut self, n: usize) {
        if self.prev.len() < n {
            self.prev.resize(n, 0);
        }
        if self.gen == u32::MAX {
            self.head_gen.fill(0);
            self.gen = 0;
        }
        self.gen += 1;
    }

    fn chain_head(&self, h: usize) -> u32 {
        if self.head_gen[h] == self.gen {
            self.head[h]
        } else {
            NIL
        }
    }

    fn insert(&mut self, h: usize, pos: usize) {
        self.prev[pos] = self.chain_head(h);
        self.head[h] = pos as u32;
        self.head_gen[h] = self.gen;
    }

    /// Longest match for `data[i..]` among chained earlier positions:
    /// `(length, distance)`, length 0 when there is no candidate.
    fn find_match(&self, data: &[u8], i: usize) -> (usize, usize) {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH > data.len() {
            return (0, 0);
        }
        let max_len = (data.len() - i).min(MAX_MATCH);
        let mut cand = self.chain_head(hash4(&data[i..]));
        let mut chain = 0;
        while cand != NIL && i - cand as usize <= WINDOW && chain < CHAIN_LIMIT {
            let c = cand as usize;
            let l = match_len(data, c, i, max_len);
            if l > best_len {
                best_len = l;
                best_dist = i - c;
                if l == max_len {
                    break;
                }
            }
            cand = self.prev[c];
            chain += 1;
        }
        (best_len, best_dist)
    }

    /// Compress `data` into a fresh `Vec`.
    pub fn compress(&mut self, data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        if data.is_empty() {
            return out;
        }
        self.begin(data.len());

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

        while i < data.len() {
            let (best_len, best_dist) = self.find_match(data, i);

            if best_len >= MIN_MATCH {
                // One-step lazy matching: insert `i`, then peek at i + 1.
                if i + MIN_MATCH <= data.len() {
                    self.insert(hash4(&data[i..]), i);
                }
                if best_len < MAX_MATCH {
                    let (next_len, _) = self.find_match(data, i + 1);
                    if next_len > best_len {
                        emit_token!(false, &data[i..=i]);
                        i += 1;
                        continue;
                    }
                }
                let dist = best_dist as u16;
                let len_code = (best_len - MIN_MATCH) as u8;
                emit_token!(
                    true,
                    &[dist.to_le_bytes()[0], dist.to_le_bytes()[1], len_code]
                );
                let end = i + best_len;
                i += 1;
                while i < end {
                    if i + MIN_MATCH <= data.len() {
                        self.insert(hash4(&data[i..]), i);
                    }
                    i += 1;
                }
            } else {
                emit_token!(false, &data[i..=i]);
                if i + MIN_MATCH <= data.len() {
                    self.insert(hash4(&data[i..]), i);
                }
                i += 1;
            }
        }
        out
    }
}
