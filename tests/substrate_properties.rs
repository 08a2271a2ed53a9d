//! Property-based tests of the functional substrates: checksums, crypto,
//! matching, lookup and NAT invariants hold for arbitrary inputs.

use nfc_click::element::RunCtx;
use nfc_click::Element;
use nfc_nf::ac::AhoCorasick;
use nfc_nf::crypto::{hmac_sha1, Aes128, HmacSha1Key, Sha1};
use nfc_nf::elements::{IpsecDecrypt, IpsecEncrypt, IpsecSa, Nat};
use nfc_nf::lpm::{Dir24_8, RouteV4, TrieV4, WaldvogelV6};
use nfc_packet::{checksum, Batch, Packet};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn checksum_incremental_equals_recompute(
        data in proptest::collection::vec(any::<u8>(), 20..200),
        idx in 0usize..9,
        new_word in any::<u16>(),
    ) {
        let mut buf = data.clone();
        let off = (idx * 2).min(buf.len() - 2);
        let old = u16::from_be_bytes([buf[off], buf[off + 1]]);
        let c0 = checksum::checksum(&buf);
        buf[off..off + 2].copy_from_slice(&new_word.to_be_bytes());
        prop_assert_eq!(checksum::update16(c0, old, new_word), checksum::checksum(&buf));
    }

    #[test]
    fn aes_ctr_is_an_involution(
        key in any::<[u8; 16]>(),
        nonce in any::<u32>(),
        iv in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let aes = Aes128::new(&key);
        let mut buf = data.clone();
        aes.ctr_apply(nonce, iv, &mut buf);
        aes.ctr_apply(nonce, iv, &mut buf);
        prop_assert_eq!(buf, data);
    }

    #[test]
    fn sha1_incremental_chunking_is_invariant(
        data in proptest::collection::vec(any::<u8>(), 0..500),
        chunk in 1usize..64,
    ) {
        let mut h = Sha1::new();
        for c in data.chunks(chunk) {
            h.update(c);
        }
        prop_assert_eq!(h.finish(), Sha1::digest(&data));
    }

    #[test]
    fn hmac_distinguishes_keys_and_messages(
        key in proptest::collection::vec(any::<u8>(), 1..80),
        msg in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let tag = hmac_sha1(&key, &msg);
        // Flipping one message byte changes the tag.
        if !msg.is_empty() {
            let mut other = msg.clone();
            other[0] ^= 1;
            prop_assert_ne!(hmac_sha1(&key, &other), tag);
        }
        // Flipping one key byte changes the tag.
        let mut k2 = key.clone();
        k2[0] ^= 1;
        prop_assert_ne!(hmac_sha1(&k2, &msg), tag);
    }

    #[test]
    fn hmac_prepared_key_matches_rfc2104_definition(
        key in proptest::collection::vec(any::<u8>(), 0..200),
        first in proptest::collection::vec(any::<u8>(), 0..300),
        second in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        // H((K ^ opad) || H((K ^ ipad) || m)), spelled out with one-shot
        // digests so it shares nothing with the midstate implementation.
        let mut k = if key.len() > 64 { Sha1::digest(&key).to_vec() } else { key.clone() };
        k.resize(64, 0);
        let by_definition = |msg: &[u8]| {
            let mut inner: Vec<u8> = k.iter().map(|b| b ^ 0x36).collect();
            inner.extend_from_slice(msg);
            let mut outer: Vec<u8> = k.iter().map(|b| b ^ 0x5C).collect();
            outer.extend_from_slice(&Sha1::digest(&inner));
            Sha1::digest(&outer)
        };
        // One prepared key tags both messages: reuse must not leak state.
        let prepared = HmacSha1Key::new(&key);
        for msg in [&first, &second] {
            prop_assert_eq!(prepared.tag(msg), by_definition(msg));
            prop_assert_eq!(hmac_sha1(&key, msg), by_definition(msg));
        }
    }

    #[test]
    fn aho_corasick_agrees_with_naive_search(
        patterns in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..6), 1..6),
        haystack in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let ac = AhoCorasick::new(patterns.clone());
        let got = ac.is_match(&haystack);
        let expect = patterns.iter().any(|p| {
            !p.is_empty() && haystack.windows(p.len()).any(|w| w == p.as_slice())
        });
        prop_assert_eq!(got, expect);
        // Count agreement too.
        let naive: usize = patterns
            .iter()
            .map(|p| haystack.windows(p.len()).filter(|w| *w == p.as_slice()).count())
            .sum();
        prop_assert_eq!(ac.find_all(&haystack).len(), naive);
    }

    #[test]
    fn dir24_8_agrees_with_trie(
        routes in proptest::collection::vec(
            (any::<u32>(), 0u8..=32, any::<u32>()), 1..40),
        probes in proptest::collection::vec(any::<u32>(), 20),
    ) {
        let routes: Vec<RouteV4> = routes
            .into_iter()
            .map(|(p, len, nh)| RouteV4 {
                prefix: if len == 0 { 0 } else { p >> (32 - u32::from(len)) << (32 - u32::from(len)) },
                len,
                next_hop: nh % 1000,
            })
            .collect();
        // Later duplicates of the same prefix/len overwrite earlier ones
        // in the trie; deduplicate to keep both structures consistent.
        let mut seen = std::collections::HashSet::new();
        let routes: Vec<RouteV4> = routes
            .into_iter()
            .rev()
            .filter(|r| seen.insert((r.prefix, r.len)))
            .collect();
        let mut trie = TrieV4::new();
        for r in &routes {
            trie.insert(*r);
        }
        let dir = Dir24_8::from_routes(&routes, 16);
        for a in probes {
            prop_assert_eq!(dir.lookup(a), trie.lookup(a), "addr {:#x}", a);
        }
    }

    #[test]
    fn waldvogel_agrees_with_linear_scan(
        raw in proptest::collection::vec((any::<u128>(), 1u8..=64, any::<u32>()), 1..30),
        probes in proptest::collection::vec(any::<u128>(), 15),
    ) {
        let routes: Vec<nfc_nf::lpm::RouteV6> = raw
            .into_iter()
            .map(|(p, len, nh)| nfc_nf::lpm::RouteV6 {
                prefix: p >> (128 - u32::from(len)) << (128 - u32::from(len)),
                len,
                next_hop: nh % 1000,
            })
            .collect();
        let mut seen = std::collections::HashSet::new();
        let routes: Vec<_> = routes
            .into_iter()
            .rev()
            .filter(|r| seen.insert((r.prefix, r.len)))
            .collect();
        let w = WaldvogelV6::build(&routes);
        for a in probes {
            prop_assert_eq!(w.lookup(a), WaldvogelV6::lookup_linear(&routes, a));
        }
        // Probe exact prefixes as addresses too (boundary cases).
        for r in routes.iter().take(10) {
            prop_assert_eq!(
                w.lookup(r.prefix),
                WaldvogelV6::lookup_linear(&routes, r.prefix)
            );
        }
    }

    #[test]
    fn ipsec_roundtrip_arbitrary_payloads(
        payload in proptest::collection::vec(any::<u8>(), 0..800),
        spi in any::<u32>(),
    ) {
        let mut sa = IpsecSa::example();
        sa.spi = spi;
        let mut enc = IpsecEncrypt::new(sa.clone());
        let mut dec = IpsecDecrypt::new(sa);
        let pkt = Packet::ipv4_udp([10, 0, 0, 1], [10, 0, 0, 2], 1, 2, &payload);
        let batch: Batch = [pkt].into_iter().collect();
        let mut ctx = RunCtx::default();
        let enc_out = enc.process(batch, &mut ctx).pop().expect("one port");
        let dec_out = dec.process(enc_out, &mut ctx).pop().expect("one port");
        prop_assert_eq!(dec_out.len(), 1);
        prop_assert_eq!(dec_out.get(0).unwrap().l4_payload().unwrap(), &payload[..]);
    }

    #[test]
    fn nat_preserves_checksum_validity(
        src in any::<[u8; 4]>(),
        sport in 1u16..65535,
        dport in 1u16..65535,
        payload in proptest::collection::vec(any::<u8>(), 0..100),
    ) {
        prop_assume!(src != [203, 0, 113, 1]);
        let mut nat = Nat::new([203, 0, 113, 1]);
        let pkt = Packet::ipv4_udp(src, [172, 16, 0, 9], sport, dport, &payload);
        let batch: Batch = [pkt].into_iter().collect();
        let mut ctx = RunCtx::default();
        let out = nat.process(batch, &mut ctx).pop().expect("one port");
        let p = out.get(0).unwrap();
        // IPv4 header checksum still verifies.
        let hdr = &p.data()[14..34];
        prop_assert_eq!(checksum::fold(checksum::sum(hdr, 0)), 0xFFFF);
        // UDP checksum still verifies (unless it was 0).
        let udp = p.udp().unwrap();
        if udp.checksum != 0 {
            let ip = p.ipv4().unwrap();
            let l4 = p.l4_offset().unwrap();
            let ph = checksum::pseudo_header_v4(
                ip.src, ip.dst, 17, (p.len() - l4) as u16);
            prop_assert_eq!(
                checksum::fold(checksum::sum(&p.data()[l4..], ph)), 0xFFFF);
        }
    }

    #[test]
    fn batch_split_merge_roundtrip(
        n in 0usize..64,
        ways in 1usize..5,
    ) {
        let batch: Batch = (0..n)
            .map(|i| {
                let mut p = Packet::ipv4_udp([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, b"x");
                p.meta.seq = i as u64;
                p
            })
            .collect();
        let parts = batch.clone().split_by(ways, |i, _| i % ways);
        let merged = Batch::merge_ordered(parts);
        prop_assert_eq!(merged.len(), n);
        let seqs: Vec<u64> = merged.iter().map(|p| p.meta.seq).collect();
        prop_assert_eq!(seqs, (0..n as u64).collect::<Vec<_>>());
    }
}
