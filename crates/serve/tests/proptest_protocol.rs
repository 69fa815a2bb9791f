//! Property tests for the JSON module and the `dew serve` line protocol:
//! no input makes `Json::parse` or `Request::parse` panic (arbitrary bytes,
//! token soup, nesting around `json::MAX_DEPTH`, protocol-shaped objects),
//! and every value with finite numbers survives both emitters.

use std::collections::BTreeMap;

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use dew_serve::json::{Json, MAX_DEPTH};
use dew_serve::Request;

/// Characters that exercise every escape path of the emitter and parser.
const CHARS: [char; 12] = [
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\u{1}', '\u{7f}', 'é', '😀',
];

fn below(rng: &mut TestRng, n: u64) -> u64 {
    rng.next_u64() % n
}

fn random_string(rng: &mut TestRng) -> String {
    (0..below(rng, 8))
        .map(|_| match below(rng, 3) {
            0 => char::from_u32(below(rng, 0x11_0000) as u32).unwrap_or('?'),
            _ => CHARS[below(rng, CHARS.len() as u64) as usize],
        })
        .collect()
}

fn random_number(rng: &mut TestRng) -> f64 {
    match below(rng, 4) {
        0 => (rng.next_u64() >> 11) as f64,
        1 => -((rng.next_u64() >> 40) as f64) / 1024.0,
        2 => {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                x
            } else {
                0.5
            }
        }
        _ => below(rng, 100) as f64,
    }
}

/// Arbitrary JSON values with finite numbers, nested at most `depth` deep.
struct JsonValue {
    depth: u32,
}

impl JsonValue {
    fn value(&self, rng: &mut TestRng, depth: u32) -> Json {
        let leaves = 4;
        let kinds = if depth < self.depth {
            leaves + 2
        } else {
            leaves
        };
        match below(rng, kinds) {
            0 => Json::Null,
            1 => Json::Bool(rng.next_u64() & 1 == 1),
            2 => Json::Num(random_number(rng)),
            3 => Json::Str(random_string(rng)),
            4 => Json::Arr(
                (0..below(rng, 5))
                    .map(|_| self.value(rng, depth + 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..below(rng, 5))
                    .map(|_| (random_string(rng), self.value(rng, depth + 1)))
                    .collect::<BTreeMap<_, _>>(),
            ),
        }
    }
}

impl Strategy for JsonValue {
    type Value = Json;
    fn sample(&self, rng: &mut TestRng) -> Json {
        self.value(rng, 0)
    }
}

/// Fragments of JSON and of the protocol's fields, glued at random.
const TOKENS: [&str; 28] = [
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    " ",
    "\"",
    "\\",
    "\"cmd\"",
    "\"submit\"",
    "\"wait\"",
    "\"id\"",
    "\"sets\"",
    "\"4..8\"",
    "\"9..2\"",
    "\"requests\"",
    "\"policy\"",
    "\"lfu\"",
    "-1",
    "0.5",
    "1e400",
    "18446744073709551616",
    "\"\\ud800\"",
    "\"\\u0000\"",
    "true",
    "null",
    "\"\\uZZZZ\"",
];

fn token_soup() -> impl Strategy<Value = String> {
    prop::collection::vec(0..TOKENS.len(), 0..40)
        .prop_map(|ix| ix.into_iter().map(|i| TOKENS[i]).collect())
}

/// Protocol-shaped requests: a known `cmd` plus a random subset of known
/// and unknown fields holding values of every type.
fn request_object() -> impl Strategy<Value = String> {
    const CMDS: [&str; 8] = [
        "submit", "status", "wait", "cancel", "stats", "health", "shutdown", "fly",
    ];
    const FIELDS: [&str; 14] = [
        "kind",
        "mix",
        "requests",
        "seed",
        "sets",
        "blocks",
        "assocs",
        "policy",
        "deadline_ms",
        "chaos",
        "id",
        "timeout_ms",
        "cmd",
        "extra",
    ];
    let value = prop_oneof![
        Just(Json::Null),
        Just(Json::Str("0..31".to_owned())),
        Just(Json::Str("3..1".to_owned())),
        Just(Json::Str("explore".to_owned())),
        Just(Json::Str("zipf".to_owned())),
        Just(Json::Str("slru".to_owned())),
        Just(Json::Bool(true)),
        Just(Json::Num(-1.0)),
        Just(Json::Num(0.5)),
        Just(Json::Num(1e300)),
        (0u64..100_000).prop_map(|n| Json::Num(n as f64)),
    ];
    (
        0..CMDS.len(),
        prop::collection::vec((0..FIELDS.len(), value), 0..6),
    )
        .prop_map(|(cmd, fields)| {
            let mut m: BTreeMap<String, Json> = fields
                .into_iter()
                .map(|(f, v)| (FIELDS[f].to_owned(), v))
                .collect();
            m.insert("cmd".to_owned(), Json::Str(CMDS[cmd].to_owned()));
            Json::Obj(m).emit()
        })
}

/// Runs of `[` and `{"k":` around `MAX_DEPTH`, optionally closed.
fn nesting() -> impl Strategy<Value = (String, usize, bool)> {
    (
        prop::collection::vec(any::<bool>(), MAX_DEPTH - 3..MAX_DEPTH + 4),
        any::<bool>(),
    )
        .prop_map(|(opens, close)| {
            let mut doc: String = opens
                .iter()
                .map(|&arr| if arr { "[" } else { "{\"k\":" })
                .collect();
            if close {
                doc.push('1');
                for &arr in opens.iter().rev() {
                    doc.push(if arr { ']' } else { '}' });
                }
            }
            (doc, opens.len(), close)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = Json::parse(&text);
        let _ = Request::parse(&text);
    }

    #[test]
    fn token_soup_never_panics(text in token_soup()) {
        if let Ok(v) = Json::parse(&text) {
            prop_assert_eq!(Json::parse(&v.emit()), Ok(v));
        }
        let _ = Request::parse(&text);
    }

    #[test]
    fn protocol_shaped_requests_never_panic(line in request_object()) {
        let _ = Request::parse(&line);
    }

    #[test]
    fn nesting_is_bounded_by_max_depth(case in nesting()) {
        let (doc, depth, closed) = case;
        let parsed = Json::parse(&doc);
        prop_assert_eq!(parsed.is_ok(), closed && depth <= MAX_DEPTH, "depth {}", depth);
        let _ = Request::parse(&doc);
    }

    #[test]
    fn finite_values_round_trip_through_both_emitters(v in JsonValue { depth: 4 }) {
        prop_assert_eq!(Json::parse(&v.emit()), Ok(v.clone()));
        prop_assert_eq!(Json::parse(&v.emit_pretty()), Ok(v));
    }
}
