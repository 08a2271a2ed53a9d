//! Real network function implementations built from Click elements.
//!
//! Every NF the paper characterizes or deploys is implemented here as a
//! functional packet processor (packets really are encrypted, matched,
//! looked-up and rewritten) composed of `nfc-click` elements:
//!
//! * **IPv4/IPv6 forwarders** — DIR-24-8-style longest-prefix match for
//!   IPv4 (two memory accesses, as the paper notes) and a Waldvogel
//!   binary-search-on-prefix-lengths table for IPv6 ([`lpm`]).
//! * **IPsec gateway** — ESP encapsulation with AES-128-CTR encryption and
//!   HMAC-SHA1 authentication, implemented from scratch in [`crypto`].
//! * **DPI / IDS** — Aho–Corasick multi-pattern matching ([`ac`]) and a
//!   regular-expression DFA ([`dfa`]), the two engines the paper cites
//!   (Snap's AC and a DFA implementation).
//! * **Firewall** — 5-tuple ACL classification with a ClassBench-style
//!   synthetic rule generator ([`acl`]) for the 200/1k/10k-rule
//!   experiments of Figure 17.
//! * **NAT, load balancer, probe, proxy, WAN optimizer** — the remaining
//!   rows of the paper's Table II action matrix.
//!
//! The [`catalog`] module assembles each NF into an element graph and tags
//! it with an [`catalog::NfKind`], which is what `nfc-core`'s SFC machinery
//! consumes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ac;
pub mod acl;
pub mod catalog;
pub mod crypto;
pub mod dfa;
pub mod elements;
pub mod flowcache;
pub mod lpm;
mod matchset;
pub mod stateful;

pub use catalog::{Nf, NfKind};
