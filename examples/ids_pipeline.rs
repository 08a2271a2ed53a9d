//! A fully functional security pipeline, exercised packet by packet.
//!
//! This example is about the *functional* layer: real packets flow
//! through firewall ACL classification, Aho–Corasick/DFA intrusion
//! detection, NAT rewriting and IPsec encryption, and the output is
//! verified end to end (NAT checksums, ESP decrypt round-trip).
//!
//! Run with: `cargo run --release -p nfc-core --example ids_pipeline`

use nfc_nf::elements::{IpsecDecrypt, IpsecEncrypt, IpsecSa};
use nfc_nf::Nf;
use nfc_packet::traffic::{PayloadPolicy, SizeDist, TrafficGenerator, TrafficSpec};
use nfc_packet::Batch;

fn main() {
    // Traffic: 20 % of packets carry an IDS signature.
    let spec = TrafficSpec::udp(SizeDist::Fixed(512)).with_payload(PayloadPolicy::MatchRatio {
        patterns: Nf::default_ids_signatures(),
        ratio: 0.2,
    });
    let mut gen = TrafficGenerator::new(spec, 99);
    let batch = gen.batch(1000);
    println!(
        "generated {} packets, {} bytes",
        batch.len(),
        batch.total_bytes()
    );

    // Stage 1: firewall (counting mode, per the paper's Table II).
    let fw = Nf::firewall("fw", 1000, 7);
    let mut fw_run = fw.graph().clone().compile().expect("fw compiles");
    let after_fw = fw_run.push_merged(fw.entry(), batch);
    println!("firewall: {} packets pass", after_fw.len());

    // Stage 2: inline IDS drops signature hits — exactly the packets a
    // naive substring search finds a default signature in.
    let ids = Nf::ids("ids");
    let mut ids_run = ids.graph().clone().compile().expect("ids compiles");
    let before = after_fw.len();
    let sigs = Nf::default_ids_signatures();
    let clean: Vec<u64> = after_fw
        .iter()
        .filter(|p| {
            let payload = p.l4_payload().unwrap_or(&[]);
            !sigs
                .iter()
                .any(|s| payload.windows(s.len()).any(|w| w == s))
        })
        .map(|p| p.meta.seq)
        .collect();
    let after_ids = ids_run.push_merged(ids.entry(), after_fw);
    println!(
        "ids: dropped {} malicious of {} ({:.1}%)",
        before - after_ids.len(),
        before,
        (before - after_ids.len()) as f64 / before as f64 * 100.0
    );
    let passed: Vec<u64> = after_ids.iter().map(|p| p.meta.seq).collect();
    assert_eq!(passed, clean, "the IDS drops exactly the signature hits");

    // Stage 3: NAT to a public address, checksums fixed incrementally.
    let nat = Nf::nat("nat", [203, 0, 113, 1]);
    let mut nat_run = nat.graph().clone().compile().expect("nat compiles");
    let after_nat = nat_run.push_merged(nat.entry(), after_ids);
    let sample = after_nat.get(0).expect("traffic survived");
    println!(
        "nat: first packet now {} (header checksum {})",
        sample.five_tuple().expect("valid tuple"),
        if verify_ip_checksum(sample) {
            "OK"
        } else {
            "BROKEN"
        }
    );

    // Stage 4: IPsec encrypt, then decrypt on the "other end".
    let sa = IpsecSa::example();
    let mut enc = IpsecEncrypt::new(sa.clone());
    let mut dec = IpsecDecrypt::new(sa);
    let mut ctx = nfc_click::element::RunCtx::default();
    use nfc_click::Element;
    let n = after_nat.len();
    let plains: Vec<Vec<u8>> = after_nat
        .iter()
        .map(|p| p.l4_payload().unwrap_or(&[]).to_vec())
        .collect();
    let encrypted = enc.process(after_nat, &mut ctx).pop().expect("one port");
    println!(
        "ipsec: encrypted {} packets (+{} bytes ESP overhead each)",
        encrypted.len(),
        encrypted
            .get(0)
            .map(|p| p.l4_payload().unwrap().len() - plains[0].len())
            .unwrap_or(0)
    );
    let decrypted = dec.process(encrypted, &mut ctx).pop().expect("one port");
    let intact = decrypted
        .iter()
        .zip(plains.iter())
        .filter(|(p, orig)| p.l4_payload().map(|pl| pl == &orig[..]).unwrap_or(false))
        .count();
    println!(
        "ipsec: decrypted {}/{} packets, {} payloads byte-identical, {} auth failures",
        decrypted.len(),
        n,
        intact,
        dec.auth_failures()
    );
    assert_eq!(intact, n, "every payload must round-trip");

    // Stage 5: a stream-aware IDS catches a signature split across TCP
    // segments, which the per-packet matcher above cannot see.
    let sids = Nf::stream_ids("stream-ids");
    let mut sids_run = sids.graph().clone().compile().expect("compiles");
    let seg = |seq_no: u32, payload: &[u8]| {
        let mut p = nfc_packet::Packet::ipv4_tcp(
            [10, 0, 0, 9],
            [172, 16, 0, 1],
            5555,
            443,
            payload,
            nfc_packet::headers::tcp_flags::ACK,
        );
        let mut t = p.tcp().expect("tcp");
        t.seq = seq_no;
        p.set_tcp(&t).expect("set");
        p
    };
    let split_attack: Batch = [
        seg(12, b"_SHELLCODE..."), // second half arrives first
        seg(0, b"attackATTACK"),   // first half completes the pattern
    ]
    .into_iter()
    .collect();
    let survivors = sids_run.push_merged(sids.entry(), split_attack);
    println!(
        "stream-ids: reassembled out-of-order segments, {} of 2 packets dropped \
         (signature was split across packets)",
        2 - survivors.len()
    );
    assert_eq!(
        survivors.len(),
        1,
        "stream-ids drops the completing segment"
    );
    println!("pipeline OK");
}

fn verify_ip_checksum(p: &nfc_packet::Packet) -> bool {
    let hdr = &p.data()[14..34];
    nfc_packet::checksum::fold(nfc_packet::checksum::sum(hdr, 0)) == 0xFFFF
}
