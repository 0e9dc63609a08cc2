//! Deterministic fuzzing of the JSON codec: parsing arbitrary or damaged
//! input returns a value or a `JsonError`, never a panic, and every value
//! the serializers write parses back to itself.

use cem_obs::json::{Object, Value};
use proptest::prelude::*;

/// String material: ASCII, multi-byte UTF-8, the characters JSON must
/// escape, and characters it must not.
const CHARS: [char; 16] = [
    'a', 'Z', ' ', 'é', '⁺', 'テ', '😀', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1f}', '\u{7f}',
    '\u{2028}',
];

/// Numbers: both zeros, integers, fractions, extremes and subnormals.
const NUMBERS: [f64; 10] =
    [0.0, -0.0, 1.0, -42.0, 0.1, 2.5e-8, 9.007_199_254_740_993e15, 1e300, -1e-310, f64::MAX];

/// One splitmix64 step.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (*state ^ (*state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn text(r: u64) -> String {
    (0..r % 7).map(|i| CHARS[((r >> (4 * i + 3)) % 16) as usize]).collect()
}

/// A nested value drawn from `state`: the root is a container, containers
/// hold up to three members, and nesting stops at depth 6.
fn value(state: &mut u64, depth: usize) -> Value {
    let r = next(state);
    let finite = |x: f64| if x.is_finite() { x } else { 0.5 };
    match if depth == 0 { 5 + r % 2 } else { r % if depth < 6 { 7 } else { 5 } } {
        0 => Value::Null,
        1 => Value::Bool(r & 8 == 0),
        2 => Value::Num(NUMBERS[(r >> 8) as usize % NUMBERS.len()]),
        3 => Value::Num(finite(f64::from(f32::from_bits((r >> 8) as u32)))),
        4 => Value::Str(text(r >> 8)),
        5 => Value::Arr((0..(r >> 8) % 4).map(|_| value(state, depth + 1)).collect()),
        _ => Value::Obj(Object(
            (0..(r >> 8) % 4).map(|_| (text(next(state)), value(state, depth + 1))).collect(),
        )),
    }
}

/// JSON-ish bytes half the time, raw bytes otherwise.
fn fuzz_byte((sel, b): (u8, u8)) -> u8 {
    const ALPHABET: &[u8] = b"{}[]\":, \\u0123456789abcdefABCDEF.-+eEtrunlsd\n\t";
    if sel == 0 {
        ALPHABET[b as usize % ALPHABET.len()]
    } else {
        b
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn serialize_then_parse_is_the_identity(seed in 0u64..u64::MAX) {
        let value = value(&mut { seed }, 0);
        let compact = value.to_json();
        let (from_compact, from_pretty) = (Value::parse(&compact), Value::parse(&value.to_pretty()));
        prop_assert_eq!(from_compact.as_ref(), Ok(&value), "compact {}", compact);
        prop_assert_eq!(from_pretty.as_ref(), Ok(&value));
        // Compact output is canonical: a second round writes the same bytes.
        prop_assert_eq!(from_compact.map(|v| v.to_json()), Ok(compact.clone()));
    }

    #[test]
    fn arbitrary_bytes_never_panic(raw in prop::collection::vec((0u8..2, 0u8..=255), 0..80)) {
        let bytes: Vec<u8> = raw.into_iter().map(fuzz_byte).collect();
        let input = String::from_utf8_lossy(&bytes);
        if let Err(e) = Value::parse(&input) {
            prop_assert!(e.offset <= input.len(), "offset {} past {} bytes", e.offset, input.len());
        }
        let _ = Object::parse(&input);
    }

    #[test]
    fn single_byte_mutations_never_panic(seed in 0u64..u64::MAX, at in 0usize..10_000, byte in 0u8..=255) {
        let value = value(&mut { seed }, 0);
        let mut bytes = if seed % 2 == 0 { value.to_json() } else { value.to_pretty() }.into_bytes();
        let at = at % bytes.len();
        bytes[at] = byte;
        let input = String::from_utf8_lossy(&bytes);
        let _ = Value::parse(&input);
        let _ = Object::parse(&input);
    }
}
