//! Aho–Corasick multi-pattern string matching.
//!
//! This is the matching engine the paper's DPI/IDS uses ("for the string
//! matching we use \[the\] Aho-Corasick algorithm that is implemented in
//! Snap"). The automaton is built as a goto/fail trie and then flattened
//! into a dense DFA (one 256-way transition row per state) — the same
//! "DFA table lookup per payload byte" access pattern whose memory
//! behaviour drives the paper's full-match vs no-match throughput gap.
//!
//! [`IdsMatch`] does not run this automaton per packet: it scans one
//! product of this table and the rule set's regex DFAs, and
//! [`AhoCorasick::is_match`] is the reference that scan is tested
//! against. [`StreamIds`] scans with [`AhoCorasick::scan_streaming`],
//! which needs the real automaton state across packets.
//!
//! [`IdsMatch`]: crate::elements::IdsMatch
//! [`StreamIds`]: crate::stateful::StreamIds

/// A compiled Aho–Corasick automaton.
#[derive(Debug, Clone)]
pub struct AhoCorasick {
    /// Dense next-state table: `next[state * 256 + byte]`.
    next: Vec<u32>,
    /// For each state, indices of patterns ending there (including via
    /// suffix links).
    output: Vec<Vec<u32>>,
    patterns: Vec<Vec<u8>>,
}

/// A single match occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    /// Index of the pattern (in construction order).
    pub pattern: usize,
    /// Byte offset one past the end of the match.
    pub end: usize,
}

impl AhoCorasick {
    /// Builds the automaton from the given patterns. Empty patterns are
    /// ignored.
    pub fn new<I, P>(patterns: I) -> Self
    where
        I: IntoIterator<Item = P>,
        P: AsRef<[u8]>,
    {
        let patterns: Vec<Vec<u8>> = patterns
            .into_iter()
            .map(|p| p.as_ref().to_vec())
            .filter(|p| !p.is_empty())
            .collect();
        // Trie construction.
        let mut goto: Vec<[i32; 256]> = vec![[-1; 256]];
        let mut out: Vec<Vec<u32>> = vec![Vec::new()];
        for (pi, pat) in patterns.iter().enumerate() {
            let mut s = 0usize;
            for &b in pat {
                if goto[s][b as usize] < 0 {
                    goto.push([-1; 256]);
                    out.push(Vec::new());
                    let ns = (goto.len() - 1) as i32;
                    goto[s][b as usize] = ns;
                }
                s = goto[s][b as usize] as usize;
            }
            out[s].push(pi as u32);
        }
        // BFS fail links + dense DFA flattening.
        let n = goto.len();
        let mut fail = vec![0u32; n];
        let mut next = vec![0u32; n * 256];
        let mut queue = std::collections::VecDeque::new();
        for b in 0..256 {
            let t = goto[0][b];
            if t >= 0 {
                next[b] = t as u32;
                queue.push_back(t as usize);
            } else {
                next[b] = 0;
            }
        }
        while let Some(s) = queue.pop_front() {
            let f = fail[s] as usize;
            // Propagate outputs along the suffix link.
            let inherited = out[f].clone();
            out[s].extend(inherited);
            for b in 0..256 {
                let t = goto[s][b];
                if t >= 0 {
                    fail[t as usize] = next[f * 256 + b];
                    next[s * 256 + b] = t as u32;
                    queue.push_back(t as usize);
                } else {
                    next[s * 256 + b] = next[f * 256 + b];
                }
            }
        }
        AhoCorasick {
            next,
            output: out,
            patterns,
        }
    }

    /// Number of DFA states.
    pub fn state_count(&self) -> usize {
        self.output.len()
    }

    /// The patterns this automaton was built from.
    pub fn patterns(&self) -> &[Vec<u8>] {
        &self.patterns
    }

    /// The dense transition table, `next[state * 256 + byte]` from start
    /// state 0.
    pub(crate) fn transitions(&self) -> &[u32] {
        &self.next
    }

    /// True if some pattern ends in `state`.
    pub(crate) fn accepts(&self, state: usize) -> bool {
        !self.output[state].is_empty()
    }

    /// Scans `haystack`, returning every match (all patterns, all
    /// positions, including overlaps).
    pub fn find_all(&self, haystack: &[u8]) -> Vec<Match> {
        let mut res = Vec::new();
        let mut s = 0usize;
        for (i, &b) in haystack.iter().enumerate() {
            s = self.next[s * 256 + b as usize] as usize;
            for &p in &self.output[s] {
                res.push(Match {
                    pattern: p as usize,
                    end: i + 1,
                });
            }
        }
        res
    }

    /// Returns true as soon as any pattern matches (early-exit scan used
    /// by the IDS fast path).
    pub fn is_match(&self, haystack: &[u8]) -> bool {
        let mut s = 0usize;
        for &b in haystack {
            s = self.next[s * 256 + b as usize] as usize;
            if !self.output[s].is_empty() {
                return true;
            }
        }
        false
    }

    /// Scans while carrying DFA state across calls — the stateful
    /// (cross-packet) stream scanning mode the IDS uses after reassembly.
    /// Returns the new state; matches are appended to `matches` with `end`
    /// offsets relative to this chunk.
    pub fn scan_streaming(&self, state: u32, chunk: &[u8], matches: &mut Vec<Match>) -> u32 {
        let mut s = state as usize;
        for (i, &b) in chunk.iter().enumerate() {
            s = self.next[s * 256 + b as usize] as usize;
            for &p in &self.output[s] {
                matches.push(Match {
                    pattern: p as usize,
                    end: i + 1,
                });
            }
        }
        s as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_he_she_his_hers() {
        let ac = AhoCorasick::new(["he", "she", "his", "hers"]);
        let ms = ac.find_all(b"ushers");
        let found: Vec<(usize, usize)> = ms.iter().map(|m| (m.pattern, m.end)).collect();
        // "she" ends at 4, "he" ends at 4, "hers" ends at 6.
        assert!(found.contains(&(1, 4)));
        assert!(found.contains(&(0, 4)));
        assert!(found.contains(&(3, 6)));
        assert_eq!(ms.len(), 3);
    }

    #[test]
    fn no_match_scans_cleanly() {
        let ac = AhoCorasick::new(["ATTACK", "EXPLOIT"]);
        assert!(!ac.is_match(b"perfectly benign lowercase traffic"));
        assert!(ac.find_all(b"nothing here").is_empty());
    }

    #[test]
    fn overlapping_matches_reported() {
        let ac = AhoCorasick::new(["aa"]);
        assert_eq!(ac.find_all(b"aaaa").len(), 3);
    }

    #[test]
    fn match_at_start_and_end() {
        let ac = AhoCorasick::new(["start", "end"]);
        let ms = ac.find_all(b"start middle end");
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].end, 5);
        assert_eq!(ms[1].end, 16);
    }

    #[test]
    fn pattern_is_substring_of_other() {
        let ac = AhoCorasick::new(["abcd", "bc"]);
        let ms = ac.find_all(b"abcd");
        assert!(ms.iter().any(|m| m.pattern == 0));
        assert!(ms.iter().any(|m| m.pattern == 1));
    }

    #[test]
    fn empty_patterns_ignored() {
        let ac = AhoCorasick::new(["", "x"]);
        assert_eq!(ac.patterns().len(), 1);
        assert!(ac.is_match(b"xyz"));
    }

    #[test]
    fn streaming_matches_across_chunks() {
        let ac = AhoCorasick::new(["SPLIT"]);
        let mut ms = Vec::new();
        let s1 = ac.scan_streaming(0, b"xxSPL", &mut ms);
        assert!(ms.is_empty());
        ac.scan_streaming(s1, b"ITyy", &mut ms);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].end, 2); // relative to second chunk
    }

    #[test]
    fn binary_patterns_work() {
        let ac = AhoCorasick::new([vec![0x00u8, 0xFF, 0x00]]);
        assert!(ac.is_match(&[0x01, 0x00, 0xFF, 0x00, 0x02]));
    }

    #[test]
    fn state_count_reflects_trie() {
        // "ab" and "ac" share one trie node for 'a': root + a + b + c = 4.
        let ac = AhoCorasick::new(["ab", "ac"]);
        assert_eq!(ac.state_count(), 4);
    }
}
