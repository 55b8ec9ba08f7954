//! Properties of the JSON parser against the writer: any string
//! round-trips, whether written as raw UTF-8 or as `\u` escapes with
//! surrogate pairs (Python's `json.dumps` default), a raw control
//! character inside a string is an `Err` (the writer escapes them all),
//! and a damaged document is an `Err`, never a panic.

use proptest::prelude::*;
use serde::{parse, write_json_string, Value};

/// A character from every class the writer or the parser treats apart:
/// control characters, the escaped punctuation, ASCII, and two-, three-
/// and four-byte UTF-8 (the last outside the BMP).
fn any_char() -> impl Strategy<Value = char> {
    prop_oneof![
        0u32..0x20,
        Just('"' as u32),
        Just('\\' as u32),
        Just('/' as u32),
        0x20u32..0x7f,
        0x80u32..0x800,
        0x800u32..0xd800,
        0xe000u32..0x10000,
        0x10000u32..0x110000,
    ]
    .prop_map(|c| char::from_u32(c).expect("the ranges skip the surrogates"))
}

fn any_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(any_char(), 0..24).prop_map(|cs| cs.into_iter().collect())
}

/// `s` as a JSON string literal in ASCII only: every other character as
/// a `\u` escape, split into a surrogate pair outside the BMP.
fn ascii_literal(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            ' '..='~' => out.push(c),
            _ => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    out.push_str(&format!("\\u{unit:04x}"));
                }
            }
        }
    }
    out.push('"');
    out
}

/// A document holding `s` beside numbers, nesting and literals. `s` is
/// the only key of its own object, so no `s` repeats a key.
fn document(s: &str, n: u64) -> String {
    let mut key = String::new();
    write_json_string(s, &mut key);
    format!(r#"{{"s":{{{key}:[{n},-{n}.5e-3,{key},{{"t":true,"f":false,"z":null}}]}},"n":{n}}}"#)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn written_strings_round_trip(s in any_string()) {
        let mut json = String::new();
        write_json_string(&s, &mut json);
        prop_assert_eq!(parse(&json).expect("written string parses"), Value::Str(s.clone()));
        let ascii = ascii_literal(&s);
        prop_assert!(ascii.is_ascii());
        prop_assert_eq!(parse(&ascii).expect("escaped string parses"), Value::Str(s));
    }

    #[test]
    fn raw_control_characters_are_errors_and_written_ones_round_trip(
        s in any_string(),
        c in 0u32..0x20,
        at in 0usize..64,
    ) {
        let c = char::from_u32(c).expect("ASCII");
        let mut with_c: Vec<char> = s.chars().filter(|&ch| ch >= ' ' && ch != '"' && ch != '\\').collect();
        with_c.insert(at % (with_c.len() + 1), c);
        let with_c: String = with_c.into_iter().collect();
        let raw = format!("\"{with_c}\"");
        let err = parse(&raw).expect_err("a raw control character is not JSON");
        prop_assert!(err.0.contains("control character"), "{}", err);
        let mut written = String::new();
        write_json_string(&with_c, &mut written);
        prop_assert!(!written.chars().any(|ch| ch < ' '), "the writer escapes {:?}", c);
        prop_assert_eq!(parse(&written).expect("written string parses"), Value::Str(with_c));
    }

    #[test]
    fn truncated_documents_are_errors(s in any_string(), n in 0u64..1_000_000) {
        let doc = document(&s, n);
        let value = parse(&doc).expect("whole document parses");
        let mut again = String::new();
        value.write(&mut again, None, 0);
        prop_assert_eq!(parse(&again).expect("rewritten document parses"), value);
        for cut in (0..doc.len()).filter(|&i| doc.is_char_boundary(i)) {
            prop_assert!(parse(&doc[..cut]).is_err(), "prefix of {} bytes parsed", cut);
        }
    }

    #[test]
    fn mutated_documents_never_panic(
        s in any_string(),
        at in 0usize..4096,
        byte in 0u8..0x80,
    ) {
        // Replace one character with an arbitrary ASCII byte, keeping
        // the document valid UTF-8. Whatever parses must read back the
        // same through the writer; the rest must be an `Err`.
        let doc = document(&s, 7);
        let (i, c) = doc.char_indices().nth(at % doc.chars().count()).expect("in range");
        let mut mutated = doc[..i].to_string();
        mutated.push(byte as char);
        mutated.push_str(&doc[i + c.len_utf8()..]);
        if let Ok(value) = parse(&mutated) {
            let mut again = String::new();
            value.write(&mut again, None, 0);
            prop_assert_eq!(parse(&again).expect("rewritten document parses"), value);
        }
    }
}

#[test]
fn every_single_byte_mutation_of_an_escaped_document_is_handled() {
    // A document dense in escapes, surrogate pairs and numbers: each
    // byte in turn replaced by each byte that keeps it UTF-8.
    let doc = r#"{"a\"\\\/\b\f\n\r\t\u0001\ud83d\ude00\u00e9":[0,-1.5e+3,1E-2,"x"],"b":null}"#;
    assert!(parse(doc).is_ok());
    for i in 0..doc.len() {
        for byte in 0u8..0x80 {
            let mut bytes = doc.as_bytes().to_vec();
            bytes[i] = byte;
            let mutated = String::from_utf8(bytes).expect("ASCII document stays UTF-8");
            let _ = parse(&mutated);
        }
    }
}
