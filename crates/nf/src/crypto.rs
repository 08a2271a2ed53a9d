//! From-scratch cryptographic primitives for the IPsec gateway.
//!
//! The paper's IPsec NF uses **AES-128-CTR** for encryption and
//! **HMAC-SHA1** for authentication (§III-A2). Both are implemented here
//! with no external dependencies so the NF is functionally real; test
//! vectors come from FIPS-197, RFC 3686, FIPS 180-1 and RFC 2202.

/// AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36];

/// AES-128 block cipher (encryption direction only — CTR mode never needs
/// the inverse cipher).
#[derive(Debug, Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
}

impl Aes128 {
    /// Expands a 128-bit key.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut rk = [[0u8; 16]; 11];
        rk[0] = *key;
        for r in 1..11 {
            let prev = rk[r - 1];
            let mut t = [prev[12], prev[13], prev[14], prev[15]];
            t.rotate_left(1);
            for b in &mut t {
                *b = SBOX[*b as usize];
            }
            t[0] ^= RCON[r - 1];
            for i in 0..4 {
                rk[r][i] = prev[i] ^ t[i];
            }
            for i in 4..16 {
                rk[r][i] = prev[i] ^ rk[r][i - 4];
            }
        }
        Aes128 { round_keys: rk }
    }

    fn xtime(b: u8) -> u8 {
        (b << 1) ^ (if b & 0x80 != 0 { 0x1B } else { 0 })
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        for (b, k) in block.iter_mut().zip(&self.round_keys[0]) {
            *b ^= k;
        }
        for round in 1..11 {
            // SubBytes
            for b in block.iter_mut() {
                *b = SBOX[*b as usize];
            }
            // ShiftRows (state is column-major: byte i is row i%4, col i/4).
            let s = *block;
            for col in 0..4 {
                for row in 1..4 {
                    block[col * 4 + row] = s[((col + row) % 4) * 4 + row];
                }
            }
            // MixColumns (skipped in the final round).
            if round < 10 {
                for col in 0..4 {
                    let c = &mut block[col * 4..col * 4 + 4];
                    let (a0, a1, a2, a3) = (c[0], c[1], c[2], c[3]);
                    c[0] = Self::xtime(a0) ^ Self::xtime(a1) ^ a1 ^ a2 ^ a3;
                    c[1] = a0 ^ Self::xtime(a1) ^ Self::xtime(a2) ^ a2 ^ a3;
                    c[2] = a0 ^ a1 ^ Self::xtime(a2) ^ Self::xtime(a3) ^ a3;
                    c[3] = Self::xtime(a0) ^ a0 ^ a1 ^ a2 ^ Self::xtime(a3);
                }
            }
            // AddRoundKey
            for (b, k) in block.iter_mut().zip(&self.round_keys[round]) {
                *b ^= k;
            }
        }
    }

    /// AES-128-CTR keystream application (encrypt == decrypt). The 16-byte
    /// counter block layout follows RFC 3686: 4-byte nonce, 8-byte IV,
    /// 4-byte big-endian block counter starting at 1.
    pub fn ctr_apply(&self, nonce: u32, iv: u64, data: &mut [u8]) {
        let mut counter: u32 = 1;
        for chunk in data.chunks_mut(16) {
            let mut block = [0u8; 16];
            block[0..4].copy_from_slice(&nonce.to_be_bytes());
            block[4..12].copy_from_slice(&iv.to_be_bytes());
            block[12..16].copy_from_slice(&counter.to_be_bytes());
            self.encrypt_block(&mut block);
            for (d, k) in chunk.iter_mut().zip(block.iter()) {
                *d ^= k;
            }
            counter = counter.wrapping_add(1);
        }
    }
}

/// SHA-1 (FIPS 180-1). Broken for collision resistance, but HMAC-SHA1 is
/// exactly what the paper's IPsec configuration uses.
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha1 {
            state: [
                0x6745_2301,
                0xEFCD_AB89,
                0x98BA_DCFE,
                0x1032_5476,
                0xC3D2_E1F0,
            ],
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for (i, c) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let (mut a, mut b, mut c, mut d, mut e) =
            (state[0], state[1], state[2], state[3], state[4]);
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i / 20 {
                0 => ((b & c) | (!b & d), 0x5A82_7999),
                1 => (b ^ c ^ d, 0x6ED9_EBA1),
                2 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
                _ => (b ^ c ^ d, 0xCA62_C1D6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
    }

    /// Feeds data into the hash.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len += data.len() as u64;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                Self::compress(&mut self.state, &block);
                self.buf_len = 0;
            }
            if data.is_empty() {
                return;
            }
        }
        let mut chunks = data.chunks_exact(64);
        for c in &mut chunks {
            let mut block = [0u8; 64];
            block.copy_from_slice(c);
            Self::compress(&mut self.state, &block);
        }
        let rem = chunks.remainder();
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    /// Finishes the hash and returns the 20-byte digest.
    pub fn finish(mut self) -> [u8; 20] {
        let bit_len = self.total_len * 8;
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        // Manually append the length to avoid recounting it.
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        Self::compress(&mut self.state, &block);
        let mut out = [0u8; 20];
        for (i, s) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&s.to_be_bytes());
        }
        out
    }

    /// One-shot convenience.
    pub fn digest(data: &[u8]) -> [u8; 20] {
        let mut h = Sha1::new();
        h.update(data);
        h.finish()
    }
}

/// An HMAC-SHA1 key (RFC 2104) prepared for repeated use: the SHA-1
/// states after absorbing `key ^ ipad` and `key ^ opad`. Tagging a
/// message then costs the message's own blocks plus two finishing
/// compressions, with no per-message key schedule or allocation.
#[derive(Debug, Clone)]
pub struct HmacSha1Key {
    inner: Sha1,
    outer: Sha1,
}

impl HmacSha1Key {
    /// Derives the key block (keys longer than 64 bytes are hashed
    /// first) and compresses both pads.
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; 64];
        if key.len() > 64 {
            k[..20].copy_from_slice(&Sha1::digest(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let midstate = |pad: u8| {
            let mut h = Sha1::new();
            h.update(&k.map(|b| b ^ pad));
            h
        };
        HmacSha1Key {
            inner: midstate(0x36),
            outer: midstate(0x5C),
        }
    }

    /// The full 20-byte tag of `data`; IPsec truncates to 12 bytes
    /// (HMAC-SHA1-96) at the ESP layer.
    pub fn tag(&self, data: &[u8]) -> [u8; 20] {
        let mut inner = self.inner.clone();
        inner.update(data);
        let mut outer = self.outer.clone();
        outer.update(&inner.finish());
        outer.finish()
    }
}

/// One-shot HMAC-SHA1; use [`HmacSha1Key`] when the key is reused.
pub fn hmac_sha1(key: &[u8], data: &[u8]) -> [u8; 20] {
    HmacSha1Key::new(key).tag(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn aes128_fips197_vector() {
        // FIPS-197 appendix C.1.
        let key: [u8; 16] = hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let mut block: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        Aes128::new(&key).encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
    }

    #[test]
    fn aes128_second_vector() {
        // "Sample vectors" from the AES submission (key = plaintext pattern).
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let mut block: [u8; 16] = hex("6bc1bee22e409f96e93d7e117393172a").try_into().unwrap();
        Aes128::new(&key).encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("3ad77bb40d7a3660a89ecaf32466ef97"));
    }

    #[test]
    fn ctr_rfc3686_vector_1() {
        // RFC 3686 Test Vector #1: 16 bytes of plaintext.
        let key: [u8; 16] = hex("ae6852f8121067cc4bf7a5765577f39e").try_into().unwrap();
        let nonce = 0x0000_0030;
        let iv = 0u64;
        let mut data = *b"Single block msg";
        Aes128::new(&key).ctr_apply(nonce, iv, &mut data);
        assert_eq!(data.to_vec(), hex("e4095d4fb7a7b3792d6175a3261311b8"));
    }

    #[test]
    fn ctr_roundtrip_multi_block() {
        let key = [7u8; 16];
        let aes = Aes128::new(&key);
        let mut data: Vec<u8> = (0..100).collect();
        let orig = data.clone();
        aes.ctr_apply(0xDEAD_BEEF, 42, &mut data);
        assert_ne!(data, orig);
        aes.ctr_apply(0xDEAD_BEEF, 42, &mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn ctr_different_iv_different_keystream() {
        let aes = Aes128::new(&[1u8; 16]);
        let mut a = vec![0u8; 32];
        let mut b = vec![0u8; 32];
        aes.ctr_apply(1, 1, &mut a);
        aes.ctr_apply(1, 2, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn sha1_fips_vectors() {
        assert_eq!(
            Sha1::digest(b"abc").to_vec(),
            hex("a9993e364706816aba3e25717850c26c9cd0d89d")
        );
        assert_eq!(
            Sha1::digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_vec(),
            hex("84983e441c3bd26ebaae4aa1f95129e5e54670f1")
        );
        assert_eq!(
            Sha1::digest(b"").to_vec(),
            hex("da39a3ee5e6b4b0d3255bfef95601890afd80709")
        );
    }

    #[test]
    fn sha1_million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            h.finish().to_vec(),
            hex("34aa973cd4c4daa4f61eeb2bdbad27316534016f")
        );
    }

    #[test]
    fn sha1_incremental_equals_oneshot() {
        let data: Vec<u8> = (0..255).collect();
        let mut h = Sha1::new();
        for c in data.chunks(17) {
            h.update(c);
        }
        assert_eq!(h.finish(), Sha1::digest(&data));
    }

    #[test]
    fn hmac_rfc2202_vectors() {
        let cases: [(Vec<u8>, Vec<u8>, &str); 7] = [
            (
                vec![0x0b; 20],
                b"Hi There".to_vec(),
                "b617318655057264e28bc0b6fb378c8ef146be00",
            ),
            (
                b"Jefe".to_vec(),
                b"what do ya want for nothing?".to_vec(),
                "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79",
            ),
            (
                vec![0xaa; 20],
                vec![0xdd; 50],
                "125d7342b9ac11cd91a39af48aa17b4f63f175d3",
            ),
            (
                (1..=25).collect(),
                vec![0xcd; 50],
                "4c9007f4026250c6bc8414f9bf50c86c2d7235da",
            ),
            (
                vec![0x0c; 20],
                b"Test With Truncation".to_vec(),
                "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04",
            ),
            // Keys longer than the block size are hashed first.
            (
                vec![0xaa; 80],
                b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
                "aa4ae5e15272d00e95705637ce8a3b55ed402112",
            ),
            (
                vec![0xaa; 80],
                b"Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data"
                    .to_vec(),
                "e8e99d0f45237d786d6bbaa7965c7808bbff1a91",
            ),
        ];
        for (key, data, want) in &cases {
            assert_eq!(hmac_sha1(key, data).to_vec(), hex(want));
            // A prepared key is reusable: tagging twice changes nothing.
            let prepared = HmacSha1Key::new(key);
            assert_eq!(prepared.tag(data).to_vec(), hex(want));
            assert_eq!(prepared.tag(data).to_vec(), hex(want));
        }
    }
}
