//! A regular-expression engine compiled to a dense DFA.
//!
//! The paper's DPI uses "a Deterministic Finite Automata (DFA)
//! implementation" for regex rules alongside Aho–Corasick for fixed
//! strings. This module implements the standard pipeline — recursive-
//! descent parser → Thompson NFA → subset-construction DFA — for the
//! regex subset IDS rule sets use: literals, `.`, character classes
//! (`[a-z]`, `[^0-9]`), escapes (`\d`, `\w`, `\s`, and escaped
//! metacharacters), grouping, alternation, and the `*`, `+`, `?`
//! quantifiers. Matching is unanchored ("contains"), byte-oriented, and
//! runs one table lookup per byte — the access pattern the paper's DPI
//! characterization measures.

/// Errors from regex compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegexError {
    /// Unexpected character or end of pattern at the given byte offset.
    Parse {
        /// Offset in the pattern.
        at: usize,
        /// What went wrong.
        msg: &'static str,
    },
    /// Subset construction exceeded the state budget.
    TooManyStates {
        /// The configured limit.
        limit: usize,
    },
}

impl std::fmt::Display for RegexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegexError::Parse { at, msg } => write!(f, "regex parse error at byte {at}: {msg}"),
            RegexError::TooManyStates { limit } => {
                write!(f, "DFA exceeds {limit} states")
            }
        }
    }
}

impl std::error::Error for RegexError {}

/// 256-bit byte-set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ByteSet([u64; 4]);

impl ByteSet {
    fn empty() -> Self {
        ByteSet([0; 4])
    }

    fn all() -> Self {
        ByteSet([u64::MAX; 4])
    }

    fn single(b: u8) -> Self {
        let mut s = Self::empty();
        s.insert(b);
        s
    }

    fn insert(&mut self, b: u8) {
        self.0[(b >> 6) as usize] |= 1 << (b & 63);
    }

    fn insert_range(&mut self, lo: u8, hi: u8) {
        for b in lo..=hi {
            self.insert(b);
        }
    }

    fn contains(&self, b: u8) -> bool {
        self.0[(b >> 6) as usize] & (1 << (b & 63)) != 0
    }

    fn negate(&mut self) {
        for w in &mut self.0 {
            *w = !*w;
        }
    }
}

#[derive(Debug, Clone)]
enum Ast {
    Empty,
    Class(ByteSet),
    Concat(Box<Ast>, Box<Ast>),
    Alt(Box<Ast>, Box<Ast>),
    Star(Box<Ast>),
    Plus(Box<Ast>),
    Opt(Box<Ast>),
}

struct Parser<'a> {
    pat: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> RegexError {
        RegexError::Parse { at: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.pat.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn parse_alt(&mut self) -> Result<Ast, RegexError> {
        let mut left = self.parse_concat()?;
        while self.peek() == Some(b'|') {
            self.bump();
            let right = self.parse_concat()?;
            left = Ast::Alt(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_concat(&mut self) -> Result<Ast, RegexError> {
        let mut parts: Vec<Ast> = Vec::new();
        while let Some(b) = self.peek() {
            if b == b'|' || b == b')' {
                break;
            }
            parts.push(self.parse_repeat()?);
        }
        Ok(parts
            .into_iter()
            .reduce(|a, b| Ast::Concat(Box::new(a), Box::new(b)))
            .unwrap_or(Ast::Empty))
    }

    fn parse_repeat(&mut self) -> Result<Ast, RegexError> {
        let atom = self.parse_atom()?;
        match self.peek() {
            Some(b'*') => {
                self.bump();
                Ok(Ast::Star(Box::new(atom)))
            }
            Some(b'+') => {
                self.bump();
                Ok(Ast::Plus(Box::new(atom)))
            }
            Some(b'?') => {
                self.bump();
                Ok(Ast::Opt(Box::new(atom)))
            }
            _ => Ok(atom),
        }
    }

    fn escape_class(b: u8) -> Option<ByteSet> {
        let mut s = ByteSet::empty();
        match b {
            b'd' => s.insert_range(b'0', b'9'),
            b'w' => {
                s.insert_range(b'a', b'z');
                s.insert_range(b'A', b'Z');
                s.insert_range(b'0', b'9');
                s.insert(b'_');
            }
            b's' => {
                for c in [b' ', b'\t', b'\n', b'\r', 0x0B, 0x0C] {
                    s.insert(c);
                }
            }
            b'n' => s.insert(b'\n'),
            b't' => s.insert(b'\t'),
            b'r' => s.insert(b'\r'),
            _ => return None,
        }
        Some(s)
    }

    fn parse_atom(&mut self) -> Result<Ast, RegexError> {
        match self.bump() {
            None => Err(self.err("unexpected end of pattern")),
            Some(b'(') => {
                let inner = self.parse_alt()?;
                if self.bump() != Some(b')') {
                    return Err(self.err("expected ')'"));
                }
                Ok(inner)
            }
            Some(b'.') => Ok(Ast::Class(ByteSet::all())),
            Some(b'[') => self.parse_class(),
            Some(b'\\') => {
                let b = self.bump().ok_or_else(|| self.err("dangling escape"))?;
                if let Some(cls) = Self::escape_class(b) {
                    Ok(Ast::Class(cls))
                } else {
                    Ok(Ast::Class(ByteSet::single(b)))
                }
            }
            Some(b'*' | b'+' | b'?') => Err(self.err("quantifier with nothing to repeat")),
            Some(b) => Ok(Ast::Class(ByteSet::single(b))),
        }
    }

    fn parse_class(&mut self) -> Result<Ast, RegexError> {
        let mut set = ByteSet::empty();
        let negate = if self.peek() == Some(b'^') {
            self.bump();
            true
        } else {
            false
        };
        let mut first = true;
        loop {
            let b = self.bump().ok_or_else(|| self.err("unterminated class"))?;
            if b == b']' && !first {
                break;
            }
            first = false;
            let lo = if b == b'\\' {
                let e = self.bump().ok_or_else(|| self.err("dangling escape"))?;
                if let Some(cls) = Self::escape_class(e) {
                    for w in 0..4 {
                        set.0[w] |= cls.0[w];
                    }
                    continue;
                }
                e
            } else {
                b
            };
            if self.peek() == Some(b'-') && self.pat.get(self.pos + 1) != Some(&b']') {
                self.bump();
                let hi = self.bump().ok_or_else(|| self.err("unterminated range"))?;
                if hi < lo {
                    return Err(self.err("reversed range"));
                }
                set.insert_range(lo, hi);
            } else {
                set.insert(lo);
            }
        }
        if negate {
            set.negate();
        }
        Ok(Ast::Class(set))
    }
}

#[derive(Debug, Clone, Default)]
struct NfaState {
    trans: Vec<(ByteSet, usize)>,
    eps: Vec<usize>,
}

#[derive(Debug, Default)]
struct Nfa {
    states: Vec<NfaState>,
}

impl Nfa {
    fn push(&mut self) -> usize {
        self.states.push(NfaState::default());
        self.states.len() - 1
    }

    /// Compiles `ast`, returning (start, accept).
    fn compile(&mut self, ast: &Ast) -> (usize, usize) {
        match ast {
            Ast::Empty => {
                let s = self.push();
                let a = self.push();
                self.states[s].eps.push(a);
                (s, a)
            }
            Ast::Class(set) => {
                let s = self.push();
                let a = self.push();
                self.states[s].trans.push((*set, a));
                (s, a)
            }
            Ast::Concat(l, r) => {
                let (ls, la) = self.compile(l);
                let (rs, ra) = self.compile(r);
                self.states[la].eps.push(rs);
                (ls, ra)
            }
            Ast::Alt(l, r) => {
                let s = self.push();
                let (ls, la) = self.compile(l);
                let (rs, ra) = self.compile(r);
                let a = self.push();
                self.states[s].eps.push(ls);
                self.states[s].eps.push(rs);
                self.states[la].eps.push(a);
                self.states[ra].eps.push(a);
                (s, a)
            }
            Ast::Star(inner) => {
                let s = self.push();
                let (is, ia) = self.compile(inner);
                let a = self.push();
                self.states[s].eps.push(is);
                self.states[s].eps.push(a);
                self.states[ia].eps.push(is);
                self.states[ia].eps.push(a);
                (s, a)
            }
            Ast::Plus(inner) => {
                let (is, ia) = self.compile(inner);
                let a = self.push();
                self.states[ia].eps.push(is);
                self.states[ia].eps.push(a);
                (is, a)
            }
            Ast::Opt(inner) => {
                let s = self.push();
                let (is, ia) = self.compile(inner);
                let a = self.push();
                self.states[s].eps.push(is);
                self.states[s].eps.push(a);
                self.states[ia].eps.push(a);
                (s, a)
            }
        }
    }

    fn eps_closure(&self, set: &mut Vec<usize>) {
        let mut stack: Vec<usize> = set.clone();
        while let Some(s) = stack.pop() {
            for &e in &self.states[s].eps {
                if !set.contains(&e) {
                    set.push(e);
                    stack.push(e);
                }
            }
        }
        set.sort_unstable();
        set.dedup();
    }
}

/// A compiled, dense, unanchored-match DFA.
#[derive(Debug, Clone)]
pub struct Dfa {
    /// `next[state * 256 + byte]`.
    next: Vec<u32>,
    accepting: Vec<bool>,
    pattern: String,
}

impl Dfa {
    /// Default subset-construction state budget.
    pub const DEFAULT_STATE_LIMIT: usize = 10_000;

    /// Compiles `pattern` into a DFA with the default state budget.
    ///
    /// # Errors
    ///
    /// Returns [`RegexError`] on malformed patterns or state blowup.
    pub fn compile(pattern: &str) -> Result<Dfa, RegexError> {
        Self::compile_with_limit(pattern, Self::DEFAULT_STATE_LIMIT)
    }

    /// Compiles with an explicit state budget.
    ///
    /// # Errors
    ///
    /// Returns [`RegexError`] on malformed patterns or state blowup.
    pub fn compile_with_limit(pattern: &str, limit: usize) -> Result<Dfa, RegexError> {
        let mut parser = Parser {
            pat: pattern.as_bytes(),
            pos: 0,
        };
        let ast = parser.parse_alt()?;
        if parser.pos != pattern.len() {
            return Err(RegexError::Parse {
                at: parser.pos,
                msg: "unbalanced ')'",
            });
        }
        let mut nfa = Nfa::default();
        let (start, accept) = nfa.compile(&ast);
        // Unanchored search: self-loop on the start set.
        let mut start_set = vec![start];
        nfa.eps_closure(&mut start_set);

        let mut dfa_next: Vec<u32> = Vec::new();
        let mut accepting: Vec<bool> = Vec::new();
        let mut index: std::collections::HashMap<Vec<usize>, u32> =
            std::collections::HashMap::new();
        let mut work: Vec<Vec<usize>> = Vec::new();
        index.insert(start_set.clone(), 0);
        work.push(start_set.clone());
        accepting.push(start_set.contains(&accept));
        dfa_next.resize(256, 0);
        let mut done = 0usize;
        while done < work.len() {
            let cur = work[done].clone();
            let cur_id = done;
            done += 1;
            for byte in 0..=255u8 {
                let mut nxt: Vec<usize> = start_set.clone(); // unanchored restart
                for &s in &cur {
                    for (set, to) in &nfa.states[s].trans {
                        if set.contains(byte) {
                            nxt.push(*to);
                        }
                    }
                }
                nfa.eps_closure(&mut nxt);
                let id = match index.get(&nxt) {
                    Some(&id) => id,
                    None => {
                        let id = work.len() as u32;
                        if work.len() >= limit {
                            return Err(RegexError::TooManyStates { limit });
                        }
                        index.insert(nxt.clone(), id);
                        accepting.push(nxt.contains(&accept));
                        work.push(nxt);
                        dfa_next.resize((id as usize + 1) * 256, 0);
                        id
                    }
                };
                dfa_next[cur_id * 256 + byte as usize] = id;
            }
        }
        Ok(Dfa {
            next: dfa_next,
            accepting,
            pattern: pattern.to_string(),
        })
    }

    /// The source pattern.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Number of DFA states.
    pub fn state_count(&self) -> usize {
        self.accepting.len()
    }

    /// The dense transition table, `next[state * 256 + byte]` from start
    /// state 0.
    pub(crate) fn transitions(&self) -> &[u32] {
        &self.next
    }

    /// True if `state` has seen a match.
    pub(crate) fn accepts(&self, state: usize) -> bool {
        self.accepting[state]
    }

    /// Returns true if the pattern occurs anywhere in `haystack`.
    pub fn is_match(&self, haystack: &[u8]) -> bool {
        let mut s = 0usize;
        if self.accepting[0] {
            return true;
        }
        for &b in haystack {
            s = self.next[s * 256 + b as usize] as usize;
            if self.accepting[s] {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_contains_semantics() {
        let d = Dfa::compile("abc").unwrap();
        assert!(d.is_match(b"xxabcxx"));
        assert!(d.is_match(b"abc"));
        assert!(!d.is_match(b"ab c"));
        assert!(!d.is_match(b""));
    }

    #[test]
    fn alternation_and_grouping() {
        let d = Dfa::compile("(cat|dog)food").unwrap();
        assert!(d.is_match(b"my catfood bowl"));
        assert!(d.is_match(b"dogfood"));
        assert!(!d.is_match(b"birdfood"));
    }

    #[test]
    fn star_plus_opt() {
        let d = Dfa::compile("ab*c").unwrap();
        assert!(d.is_match(b"ac"));
        assert!(d.is_match(b"abbbbc"));
        let d = Dfa::compile("ab+c").unwrap();
        assert!(!d.is_match(b"ac"));
        assert!(d.is_match(b"abc"));
        let d = Dfa::compile("ab?c").unwrap();
        assert!(d.is_match(b"ac"));
        assert!(d.is_match(b"abc"));
        assert!(!d.is_match(b"abbc"));
    }

    #[test]
    fn classes_and_ranges() {
        let d = Dfa::compile("[a-c]x").unwrap();
        assert!(d.is_match(b"bx"));
        assert!(!d.is_match(b"dx"));
        let d = Dfa::compile("[^0-9]z").unwrap();
        assert!(d.is_match(b"az"));
        assert!(!d.is_match(b"5z"));
    }

    #[test]
    fn escapes() {
        let d = Dfa::compile(r"\d\d\d").unwrap();
        assert!(d.is_match(b"port 443 open"));
        assert!(!d.is_match(b"no digits"));
        let d = Dfa::compile(r"a\.b").unwrap();
        assert!(d.is_match(b"a.b"));
        assert!(!d.is_match(b"axb"));
        let d = Dfa::compile(r"\w+@\w+").unwrap();
        assert!(d.is_match(b"user@host"));
    }

    #[test]
    fn dot_matches_any_byte() {
        let d = Dfa::compile("a.c").unwrap();
        assert!(d.is_match(&[b'a', 0x00, b'c']));
        assert!(d.is_match(b"abc"));
        assert!(!d.is_match(b"ab"));
    }

    #[test]
    fn snort_like_rule() {
        // A realistic IDS regex: HTTP method smuggling.
        let d = Dfa::compile(r"(GET|POST) /[\w/]*\.php\?id=\d+").unwrap();
        assert!(d.is_match(b"GET /admin/login.php?id=123 HTTP/1.1"));
        assert!(!d.is_match(b"GET /admin/login.html?id=123"));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(matches!(Dfa::compile("("), Err(RegexError::Parse { .. })));
        assert!(matches!(Dfa::compile("a)"), Err(RegexError::Parse { .. })));
        assert!(matches!(Dfa::compile("*a"), Err(RegexError::Parse { .. })));
        assert!(matches!(Dfa::compile("[a"), Err(RegexError::Parse { .. })));
        assert!(matches!(
            Dfa::compile("[z-a]"),
            Err(RegexError::Parse { .. })
        ));
    }

    #[test]
    fn state_limit_enforced() {
        // A pattern that blows up under subset construction with a tiny cap.
        let err = Dfa::compile_with_limit("a.....b", 3);
        assert!(matches!(err, Err(RegexError::TooManyStates { limit: 3 })));
    }

    #[test]
    fn empty_pattern_matches_everything() {
        let d = Dfa::compile("").unwrap();
        assert!(d.is_match(b""));
        assert!(d.is_match(b"anything"));
    }
}
