//! Hostile-input tests for the serve daemon's request path: seeded
//! mutations of valid protocol lines — truncation at every offset, every
//! single-bit flip of every byte, an inserted byte at every offset, two
//! lines spliced at random cuts, and stacked random edits — go through
//! `json::parse` and then `Request::parse`, as the daemon does with every
//! line it reads.
//!
//! Nothing may panic, and the parsers must agree with two independent
//! oracles written here from the specs: a strict RFC 8259 recogniser
//! decides which lines are JSON, and a schema check written from the
//! protocol catalogue (DESIGN §12) decides which JSON values are requests.
//! Every malformed line must give `Err`, and every well-formed one `Ok`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use hsbp::collections::SplitMix64;
use hsbp::serve::json::{parse, Json};
use hsbp::serve::{ErrorKind, Request};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One valid line per request shape, with escapes, weights, exponents and
/// whitespace the writer never emits.
const VALID: &[&str] = &[
    r#"{"op":"version"}"#,
    r#"{"op":"add_edges","edges":[[0,1],[2,3,4]]}"#,
    r#"{"op":"remove_edges","edges":[[5,6]]}"#,
    r#"{"op":"add_vertices","count":3}"#,
    r#"{"op":"remove_vertex","vertex":7}"#,
    r#"{"op":"membership","vertices":[0,10,2e1]}"#,
    r#"{"op":"block_stats"}"#,
    r#"{"op":"block_stats","block":1}"#,
    r#"{"op":"mdl"}"#,
    r#"{"op":"status","note":"a\"b\\cé\n\u00e9"}"#,
    r#"{"op":"flush","pad":[true,false,null,-0.5E+2]}"#,
    r#" { "op" : "quit" , "x" : { } } "#,
];

/// A strict RFC 8259 recogniser: the reference for "is this JSON".
struct Strict<'a> {
    b: &'a [u8],
    i: usize,
}

impl Strict<'_> {
    fn is_json(text: &str) -> bool {
        let mut p = Strict {
            b: text.as_bytes(),
            i: 0,
        };
        p.ws();
        let ok = p.value();
        p.ws();
        ok && p.i == p.b.len()
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, set: &[u8]) -> bool {
        let hit = self.peek().is_some_and(|c| set.contains(&c));
        self.i += usize::from(hit);
        hit
    }

    fn ws(&mut self) {
        while self.eat(b" \t\n\r") {}
    }

    fn digits(&mut self) -> usize {
        let from = self.i;
        while self.eat(b"0123456789") {}
        self.i - from
    }

    fn value(&mut self) -> bool {
        match self.peek() {
            Some(b'{') => self.members(b'}', true),
            Some(b'[') => self.members(b']', false),
            Some(b'"') => self.string(),
            Some(b't') => self.literal(b"true"),
            Some(b'f') => self.literal(b"false"),
            Some(b'n') => self.literal(b"null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => false,
        }
    }

    fn literal(&mut self, lit: &[u8]) -> bool {
        let hit = self.b[self.i..].starts_with(lit);
        self.i += lit.len();
        hit
    }

    fn number(&mut self) -> bool {
        self.eat(b"-");
        let leading_zero = self.peek() == Some(b'0');
        let int = self.digits();
        if int == 0 || (int > 1 && leading_zero) {
            return false;
        }
        if self.eat(b".") && self.digits() == 0 {
            return false;
        }
        if self.eat(b"eE") {
            self.eat(b"+-");
            return self.digits() > 0;
        }
        true
    }

    fn string(&mut self) -> bool {
        self.i += 1;
        loop {
            match self.peek() {
                None => return false,
                Some(b'"') => {
                    self.i += 1;
                    return true;
                }
                Some(b'\\') => {
                    self.i += 1;
                    if self.eat(b"u") {
                        for _ in 0..4 {
                            if !self.peek().is_some_and(|c| c.is_ascii_hexdigit()) {
                                return false;
                            }
                            self.i += 1;
                        }
                    } else if !self.eat(b"\"\\/bfnrt") {
                        return false;
                    }
                }
                Some(0..=0x1f) => return false,
                Some(_) => self.i += 1,
            }
        }
    }

    /// An object (`keyed`) or array body up to `close`.
    fn members(&mut self, close: u8, keyed: bool) -> bool {
        self.i += 1;
        self.ws();
        if self.eat(&[close]) {
            return true;
        }
        loop {
            self.ws();
            if keyed {
                if self.peek() != Some(b'"') || !self.string() {
                    return false;
                }
                self.ws();
                if !self.eat(b":") {
                    return false;
                }
                self.ws();
            }
            if !self.value() {
                return false;
            }
            self.ws();
            if self.eat(&[close]) {
                return true;
            }
            if !self.eat(b",") {
                return false;
            }
        }
    }
}

/// Schema of a request per the protocol catalogue: `Some(true)` for a
/// well-formed request, `Some(false)` for a missing `op` or a known op
/// with bad arguments, `None` for an op the daemon does not know.
fn schema(req: &Json) -> Option<bool> {
    let Json::Obj(fields) = req else {
        return Some(false);
    };
    let field = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let whole = |v: Option<&Json>, max: f64| match v {
        Some(Json::Num(x)) => *x >= 0.0 && x.fract() == 0.0 && *x <= max,
        _ => false,
    };
    let id = |v: Option<&Json>| whole(v, f64::from(u32::MAX));
    let items = |key: &str| match field(key) {
        Some(Json::Arr(items)) => Some(items),
        _ => None,
    };
    let edges = |lens: &[usize]| {
        items("edges").is_some_and(|edges| {
            edges.iter().all(|e| match e {
                Json::Arr(p) if lens.contains(&p.len()) => {
                    id(p.first())
                        && id(p.get(1))
                        && (p.len() == 2
                            || whole(p.get(2), u64::MAX as f64) && p[2] != Json::Num(0.0))
                }
                _ => false,
            })
        })
    };
    let Some(Json::Str(op)) = field("op") else {
        return Some(false);
    };
    Some(match op.as_str() {
        "version" | "mdl" | "status" | "flush" | "quit" => true,
        "add_edges" => edges(&[2, 3]),
        "remove_edges" => edges(&[2]),
        "add_vertices" => id(field("count")) && field("count") != Some(&Json::Num(0.0)),
        "remove_vertex" => id(field("vertex")),
        "membership" => items("vertices").is_some_and(|vs| vs.iter().all(|v| id(Some(v)))),
        "block_stats" => field("block").is_none() || id(field("block")),
        _ => return None,
    })
}

/// Run one line through the daemon's two parsers and both oracles.
fn check(bytes: &[u8]) {
    // The daemon decodes lines lossily before parsing them.
    let text = String::from_utf8_lossy(bytes);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let parsed = parse(&text);
        let request = parsed.as_ref().ok().map(Request::parse);
        (parsed, request)
    }));
    let Ok((parsed, request)) = outcome else {
        panic!("parser panicked on {text:?}");
    };
    let json = Strict::is_json(&text);
    assert_eq!(
        parsed.is_ok(),
        json,
        "json::parse disagrees with RFC 8259 on {text:?}"
    );
    let (Ok(value), Some(request)) = (parsed, request) else {
        return;
    };
    match (schema(&value), request) {
        (Some(true), Ok(_)) | (Some(false), Err((ErrorKind::BadRequest, _))) => {}
        (None, Err((ErrorKind::UnknownCommand, _))) => {}
        (expected, got) => panic!("{text:?}: schema says {expected:?}, Request::parse {got:?}"),
    }
}

#[test]
fn valid_lines_parse_to_requests() {
    for line in VALID {
        assert!(Strict::is_json(line), "corpus line is not JSON: {line}");
        let value = parse(line).unwrap();
        assert_eq!(schema(&value), Some(true), "{line}");
        check(line.as_bytes());
    }
}

#[test]
fn truncated_lines_are_errors() {
    for line in VALID {
        for cut in 0..line.len() {
            check(&line.as_bytes()[..cut]);
        }
    }
}

#[test]
fn every_bit_flip_is_handled() {
    for line in VALID {
        for at in 0..line.len() {
            for bit in 0..8 {
                let mut bytes = line.as_bytes().to_vec();
                bytes[at] ^= 1 << bit;
                check(&bytes);
            }
        }
    }
}

/// Bytes that change JSON structure, plus controls and a UTF-8 lead byte.
const INSERTS: &[u8] = b"{}[]\":,-+.0123456789eE\\u /tfnx\x00\x09\x1f\x7f\xc3";

#[test]
fn every_inserted_byte_is_handled() {
    for line in VALID {
        for at in 0..=line.len() {
            for &byte in INSERTS {
                let mut bytes = line.as_bytes().to_vec();
                bytes.insert(at, byte);
                check(&bytes);
            }
        }
    }
}

#[test]
fn spliced_lines_are_handled() {
    let mut rng = SplitMix64::new(0x5e7e);
    for a in VALID {
        for b in VALID {
            for _ in 0..16 {
                let cut_a = rng.next_below(a.len() as u64 + 1) as usize;
                let cut_b = rng.next_below(b.len() as u64 + 1) as usize;
                let mut bytes = a.as_bytes()[..cut_a].to_vec();
                bytes.extend_from_slice(&b.as_bytes()[cut_b..]);
                check(&bytes);
            }
        }
    }
}

#[test]
fn stacked_random_edits_are_handled() {
    let mut rng = SplitMix64::new(0x4a_504e);
    for round in 0..20_000u64 {
        let line = VALID[(round % VALID.len() as u64) as usize];
        let mut bytes = line.as_bytes().to_vec();
        for _ in 0..1 + rng.next_below(4) {
            let at = rng.next_below(bytes.len() as u64 + 1) as usize;
            let byte = INSERTS[rng.next_below(INSERTS.len() as u64) as usize];
            match rng.next_below(3) {
                0 => bytes.insert(at, byte),
                1 if at < bytes.len() => bytes[at] = byte,
                _ if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => bytes.push(byte),
            }
        }
        check(&bytes);
    }
}
