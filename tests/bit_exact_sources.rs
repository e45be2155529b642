//! Source checks on the bit-exact modules, whose outputs replay bit for bit
//! (docs/SCALE.md). Each must carry `#![deny(clippy::disallowed_types)]`,
//! clippy's ban on hash-order collections there. And none may `+=` / `-=` a
//! top-level sum or difference, the one rule clippy has no lint for:
//! `acc += a + b` is `acc + (a + b)`, one ULP off the chain `acc + a + b`.

/// The bit-exact modules, relative to the workspace root.
const BIT_EXACT_MODULES: [&str; 12] = [
    "crates/fl/src/aggregate.rs",
    "crates/fl/src/cohort.rs",
    "crates/fl/src/simulation.rs",
    "crates/device/src/fault.rs",
    "crates/device/src/sensor.rs",
    "crates/device/src/spec.rs",
    "crates/data/src/lazy.rs",
    "crates/data/src/imagenet12.rs",
    "crates/isp/src/compress.rs",
    "crates/isp/src/demosaic.rs",
    "crates/isp/src/denoise.rs",
    "crates/isp/src/image.rs",
];

/// `(byte offset, token)` pairs: `None` for an operand (identifier, number,
/// literal, lifetime), the text of punctuation. Comments are dropped and
/// literals keep no text, so neither can fire the rule.
fn tokens(src: &str) -> Vec<(usize, Option<&str>)> {
    let b = src.as_bytes();
    // the offset just past the first `pat` at or after `from`
    let past = |from: usize, pat: &str| {
        src[from..]
            .find(pat)
            .map_or(b.len(), |k| from + k + pat.len())
    };
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let (start, rest) = (i, &src[i..]);
        let raw = rest.strip_prefix('b').unwrap_or(rest).strip_prefix('r');
        let hashes = raw.map_or(0, |r| r.len() - r.trim_start_matches('#').len());
        if b[i].is_ascii_whitespace() {
            i += 1;
            continue;
        } else if rest.starts_with("//") || rest.starts_with("/*") {
            i = past(i, if b[i + 1] == b'/' { "\n" } else { "*/" });
            continue;
        } else if raw.is_some_and(|r| r[hashes..].starts_with('"')) {
            i = past(past(i, "\""), &format!("\"{}", "#".repeat(hashes)));
        } else if b[i] == b'"' {
            i += 1;
            while i < b.len() && b[i] != b'"' {
                i += if b[i] == b'\\' { 2 } else { 1 };
            }
            i += 1;
        } else if b[i] == b'\'' {
            let mut chars = rest[1..].chars();
            i = match (chars.next(), chars.next()) {
                (Some('\\'), _) => past(i + 3, "'"),
                (Some(c), Some('\'')) => i + 2 + c.len_utf8(),
                _ => i + 1 + ident_len(&rest[1..]), // a lifetime
            };
        } else if b[i].is_ascii_alphanumeric() || b[i] == b'_' {
            i += ident_len(rest);
        } else {
            let two = ["+=", "-=", "->"].iter().any(|op| rest.starts_with(op));
            let one = rest.chars().next().unwrap().len_utf8();
            i += if two { 2 } else { one };
            out.push((start, Some(&src[start..i])));
            continue;
        }
        out.push((start, None));
    }
    out
}

/// Length of the identifier or number (`1.5e-3` whole) that starts `s`.
fn ident_len(s: &str) -> usize {
    let b = s.as_bytes();
    let number = b[0].is_ascii_digit() && !s.starts_with("0x");
    let fraction = |i: usize| b[i] == b'.' && b.get(i + 1).is_some_and(u8::is_ascii_digit);
    let exponent = |i: usize| matches!(b[i], b'+' | b'-') && matches!(b[i - 1], b'e' | b'E');
    let word = |i: usize| b[i].is_ascii_alphanumeric() || b[i] == b'_';
    (0..b.len())
        .find(|&i| !(word(i) || number && (fraction(i) || exponent(i))))
        .unwrap_or(b.len())
}

/// Lines of every `+=` / `-=` whose right-hand side has a binary `+` or
/// `-` outside any `()`, `[]` or `{}`, before the statement's `;` or `,`.
fn reassociating_accumulations(src: &str) -> Vec<usize> {
    let toks = tokens(src);
    let mut lines = Vec::new();
    for (i, &(at, tok)) in toks.iter().enumerate() {
        let Some("+=" | "-=") = tok else { continue };
        let mut depth = 0;
        for j in i + 1..toks.len() {
            match toks[j].1 {
                Some("(" | "[" | "{") => depth += 1,
                Some(")" | "]" | "}" | ";" | ",") if depth == 0 => break,
                Some(")" | "]" | "}") => depth -= 1,
                Some("+" | "-")
                    if depth == 0 && matches!(toks[j - 1].1, None | Some(")" | "]" | "?")) =>
                {
                    lines.push(1 + src[..at].matches('\n').count());
                    break;
                }
                _ => {}
            }
        }
    }
    lines
}

#[test]
fn bit_exact_modules_deny_hash_types_and_never_reassociate() {
    for module in BIT_EXACT_MODULES {
        let path = format!("{}/{module}", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(&path).expect("bit-exact module exists");
        let deny = "#![deny(clippy::disallowed_types)]";
        assert!(
            src.contains(&format!("\n{deny}\n")),
            "{module} must carry `{deny}`"
        );
        let lines = reassociating_accumulations(&src);
        assert!(
            lines.is_empty(),
            "{module}: `+=`/`-=` with a sum on the right at lines {lines:?}; write `a = a + b + c`"
        );
    }
}

#[test]
fn checker_fires_on_a_sum_or_difference_on_the_right() {
    let src = "acc += a + b;\nlet y = 1;\nx -= y - z;\nt += x[0] - 1e-3;";
    assert_eq!(reassociating_accumulations(src), [1, 3, 4]);
}

#[test]
fn checker_is_silent_on_near_misses() {
    for src in [
        "i += 1;",
        "*o += w * v;",
        "acc += (a + b);",
        "x[i + 1] += y;",
        "s += f(a + b);",
        "x -= -y;",
        "acc += 1e-5;",
        "// acc += a + b",
        "/* acc += a + b */",
        r#"let s = "acc += a + b";"#,
        r##"let s = r#"acc += a + b"#;"##,
        "let c = '+'; let d = '\\''; acc += c;",
        "g(|x: f32| -> f32 { x }); acc += b;",
    ] {
        assert!(reassociating_accumulations(src).is_empty(), "{src:?}");
    }
}
