//! Shared-secret worker authentication: HMAC-SHA-256 over a per-link
//! challenge nonce.
//!
//! Non-loopback TCP workers must prove knowledge of the coordinator's
//! shared secret before they are handed a job (`docs/PROTOCOL.md`,
//! *Authenticated TCP handshake*): the coordinator opens the link with a
//! `Challenge { nonce }` frame, and the worker's `Hello` must carry
//! `auth = hex(HMAC-SHA-256(secret, nonce))`. Loopback links (and the
//! spawned stdio/ssh transports, where the coordinator starts the worker
//! itself) skip the challenge.
//!
//! The workspace vendors no cryptography crate, so SHA-256 (FIPS 180-4)
//! and HMAC (RFC 2104) are implemented here directly and pinned against
//! the published test vectors. The goal is pool hygiene — keeping a
//! stray or stale worker from joining a listener exposed beyond the
//! machine — not resistance against an active network attacker (frames
//! are neither encrypted nor per-message authenticated).

use std::sync::atomic::{AtomicU64, Ordering};

const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// SHA-256 of `data` (FIPS 180-4).
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut state: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    // Padding: 0x80, zeros to 56 mod 64, then the bit length as u64 BE.
    let mut message = data.to_vec();
    let bit_len = (data.len() as u64).wrapping_mul(8);
    message.push(0x80);
    while message.len() % 64 != 56 {
        message.push(0);
    }
    message.extend_from_slice(&bit_len.to_be_bytes());

    for block in message.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(SHA256_K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }

    let mut digest = [0u8; 32];
    for (chunk, word) in digest.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    digest
}

/// HMAC-SHA-256 of `message` under `key` (RFC 2104).
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut block_key = [0u8; 64];
    if key.len() > 64 {
        block_key[..32].copy_from_slice(&sha256(key));
    } else {
        block_key[..key.len()].copy_from_slice(key);
    }
    let mut inner = Vec::with_capacity(64 + message.len());
    inner.extend(block_key.iter().map(|b| b ^ 0x36));
    inner.extend_from_slice(message);
    let inner_digest = sha256(&inner);
    let mut outer = Vec::with_capacity(64 + 32);
    outer.extend(block_key.iter().map(|b| b ^ 0x5c));
    outer.extend_from_slice(&inner_digest);
    sha256(&outer)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The authentication tag a challenged worker puts in its `Hello`:
/// lowercase hex of `HMAC-SHA-256(secret, nonce)`.
pub fn auth_tag(secret: &str, nonce: &str) -> String {
    hex(&hmac_sha256(secret.as_bytes(), nonce.as_bytes()))
}

/// True when `tag` authenticates `nonce` under `secret`. Comparison is
/// over the full fixed-length hex tag; a malformed tag simply fails.
pub fn verify_auth_tag(secret: &str, nonce: &str, tag: &str) -> bool {
    // Constant-time-ish: always compare the whole expected tag.
    let expected = auth_tag(secret, nonce);
    expected.len() == tag.len()
        && expected
            .bytes()
            .zip(tag.bytes())
            .fold(0u8, |acc, (a, b)| acc | (a ^ b))
            == 0
}

/// A fresh per-link challenge nonce: unpredictable enough that a replayed
/// old `Hello` never matches (process id, wall clock, monotonic counter,
/// and a stack address, hashed together).
pub fn make_nonce() -> String {
    static NONCE_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = NONCE_SEQ.fetch_add(1, Ordering::Relaxed);
    let clock = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let stack_probe = 0u8;
    let mut seed = Vec::with_capacity(32);
    seed.extend_from_slice(&(std::process::id() as u64).to_le_bytes());
    seed.extend_from_slice(&clock.to_le_bytes());
    seed.extend_from_slice(&seq.to_le_bytes());
    seed.extend_from_slice(&(&stack_probe as *const u8 as u64).to_le_bytes());
    hex(&sha256(&seed)[..16])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS 180-4 / NIST example vectors.
    #[test]
    fn sha256_matches_the_published_vectors() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // Multi-block with a 55..64-byte tail (padding edge).
        assert_eq!(
            hex(&sha256(&[0x61u8; 64])),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"
        );
    }

    /// RFC 4231 test cases 1 and 2.
    #[test]
    fn hmac_sha256_matches_rfc_4231() {
        assert_eq!(
            hex(&hmac_sha256(&[0x0b; 20], b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
        // RFC 4231 test case 6: a key longer than the block size is
        // pre-hashed.
        assert_eq!(
            hex(&hmac_sha256(
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn auth_tags_verify_and_reject_wrong_secrets() {
        let nonce = make_nonce();
        let tag = auth_tag("fleet-secret", &nonce);
        assert!(verify_auth_tag("fleet-secret", &nonce, &tag));
        assert!(!verify_auth_tag("other-secret", &nonce, &tag));
        assert!(!verify_auth_tag("fleet-secret", "other-nonce", &tag));
        assert!(!verify_auth_tag("fleet-secret", &nonce, ""));
    }

    #[test]
    fn nonces_are_unique_per_call() {
        let a = make_nonce();
        let b = make_nonce();
        assert_ne!(a, b);
        assert_eq!(a.len(), 32, "nonce is 16 hashed bytes as hex");
    }
}
