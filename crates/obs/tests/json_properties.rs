//! Property tests for `predvfs_obs::json`, the one JSON module: what its
//! writers render its parser reads back unchanged, a trace event renders
//! one line that parses back to its fields, and no input makes the
//! parser panic.

use proptest::prelude::*;

use predvfs_obs::json::{self, Value};
use predvfs_obs::TraceEvent;

/// One character from a class JSON treats differently: printable ASCII,
/// the two characters a string must escape, C0 controls and DEL, other
/// BMP characters, and characters outside the BMP.
fn char_of_class(class: u32, bits: u32) -> char {
    let code = match class {
        0 => 0x20 + bits % 0x5f,
        1 => [u32::from(b'"'), u32::from(b'\\')][bits as usize % 2],
        2 => [bits % 0x20, 0x7f][bits as usize % 2],
        3 => 0x80 + bits % (0xD800 - 0x80),
        _ => 0x1_0000 + bits % (0x11_0000 - 0x1_0000),
    };
    char::from_u32(code).expect("no class reaches the surrogates")
}

fn any_text() -> impl Strategy<Value = String> {
    prop::collection::vec((0u32..5, any::<u32>()), 0..24).prop_map(|chars| {
        chars
            .into_iter()
            .map(|(class, bits)| char_of_class(class, bits))
            .collect()
    })
}

/// Floats a bit pattern rarely hits; a quarter of the draws take one.
const EDGES: [f64; 8] = [
    0.0,
    -0.0,
    f64::from_bits(1),
    f64::from_bits(0x000F_FFFF_FFFF_FFFF),
    f64::MIN_POSITIVE,
    f64::MAX,
    -f64::MAX,
    f64::EPSILON,
];

/// Fragments spliced into documents: structure, escapes (good, broken
/// and half a surrogate pair), number edges, literals, whitespace,
/// controls and non-ASCII.
const FRAGMENTS: [&str; 26] = [
    "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "\\ud83d", "\\udc00", "\\u00e9", "0", "-",
    "1e", ".5", "9e999", "true", "nul", " ", "\n", "\u{1}", "é", "😀", "\"k\":", "[[[[[[[[",
];

/// Valid documents the fragments are spliced into (ASCII, so every byte
/// offset is a char boundary).
const BASES: [&str; 3] = [
    "",
    r#"{"t_s":0.5,"scope":"cam\"1","event":"job_done","job":3,"missed":true,"x":null}"#,
    r#"{"schema": 1, "env": {"cores": 2}, "metrics": {"a_s": 1.5e-3}, "unasserted": ["u"]}"#,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn written_strings_parse_back_unchanged(s in any_text()) {
        let mut out = String::new();
        json::write_str(&mut out, &s);
        prop_assert_eq!(json::parse(&out), Ok(Value::Str(s)));
    }

    #[test]
    fn written_floats_parse_back_bit_for_bit(
        v in (0usize..32, any::<u64>())
            .prop_map(|(k, bits)| EDGES.get(k).copied().unwrap_or(f64::from_bits(bits))),
    ) {
        let mut out = String::new();
        json::write_f64(&mut out, v);
        if !v.is_finite() {
            prop_assert_eq!(out, "null");
            return Ok(());
        }
        let back = json::parse(&out).ok().and_then(|b| b.as_f64());
        prop_assert_eq!(back.map(f64::to_bits), Some(v.to_bits()), "{} from {}", v, out);
    }

    #[test]
    fn parse_never_panics_and_errors_point_into_the_input(
        base in 0usize..BASES.len(),
        at in any::<u32>(),
        fragments in prop::collection::vec(0usize..FRAGMENTS.len(), 0..32),
    ) {
        let base = BASES[base];
        let at = at as usize % (base.len() + 1);
        let spliced: String = fragments.iter().map(|&i| FRAGMENTS[i]).collect();
        let text = format!("{}{spliced}{}", &base[..at], &base[at..]);
        if let Err(e) = json::parse(&text) {
            prop_assert!(e.offset <= text.len(), "{} in {:?}", e, text);
        }
    }

    #[test]
    fn trace_event_renders_one_line_that_parses_back(
        scope in any_text(),
        note in any_text(),
        kind in any_text(),
        t_s in any::<f64>(),
        job in 0u64..(1 << 53),
        missed in any::<bool>(),
    ) {
        let event = TraceEvent::new(t_s, &scope, "job_done")
            .with_str("note", &note)
            .with_u64("job", job)
            .with_bool("missed", missed)
            .with_str("kind", &kind);
        let line = event.to_json();
        prop_assert!(!line.contains(['\n', '\r']), "{:?}", line);
        let v = json::parse(&line).map_err(|e| TestCaseError::fail(format!("{e}: {line}")))?;
        let fields = v.as_object().unwrap_or_default();
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        prop_assert_eq!(keys, ["t_s", "scope", "event", "note", "job", "missed", "kind"]);
        prop_assert_eq!(v.get("t_s").and_then(Value::as_f64), Some(t_s));
        prop_assert_eq!(v.get("scope").and_then(Value::as_str), Some(scope.as_str()));
        prop_assert_eq!(v.get("event").and_then(Value::as_str), Some("job_done"));
        prop_assert_eq!(v.get("note").and_then(Value::as_str), Some(note.as_str()));
        prop_assert_eq!(v.get("job").and_then(Value::as_u64), Some(job));
        prop_assert_eq!(v.get("missed").and_then(Value::as_bool), Some(missed));
        prop_assert_eq!(v.get("kind").and_then(Value::as_str), Some(kind.as_str()));
    }
}
