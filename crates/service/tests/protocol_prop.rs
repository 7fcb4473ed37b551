//! Arbitrary-input property for the daemon's request parser: any line a
//! client can send — arbitrary Unicode, up to the server's 64 KiB line cap —
//! must come back as a [`Command`] or an error, never a panic; every error
//! must render through [`err_line`] as one response line; and every
//! `MSOLVE k=` range the parser accepts must stay within
//! [`MAX_MSOLVE_SWEEP`] values.
//!
//! Lines are assembled from protocol-shaped tokens (verbs, `key=value`
//! options, `k=<LO>..<HI>` ranges over edge-case integers) mixed with
//! Unicode noise, odd whitespace and long runs of one character, so the
//! generator reaches every verb arm instead of stopping at
//! `unknown command`.

use kdc_service::protocol::{err_line, parse_command, Command, MAX_MSOLVE_SWEEP};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// The server's per-request line cap in bytes.
const MAX_LINE_BYTES: usize = 64 * 1024;

const VERBS: [&str; 14] = [
    "LOAD",
    "SOLVE",
    "MSOLVE",
    "ENUMERATE",
    "COUNT",
    "STATS",
    "UNLOAD",
    "JOBS",
    "CANCEL",
    "METRICS",
    "TRACE",
    "FAULTS",
    "SHUTDOWN",
    "msolve",
];

const KEYS: [&str; 11] = [
    "k", "r", "preset", "limit", "nodes", "threads", "verbose", "top", "min", "mode", "AS",
];

/// Separators: ASCII and Unicode whitespace that `split_whitespace` splits
/// on, plus the empty string so neighbouring tokens fuse.
const SEPARATORS: [&str; 8] = [" ", "  ", "\t", "\r", "\u{3000}", "\u{85}", "\u{2028}", ""];

/// Integers at the edges the parser must survive: zero, the sweep cap and
/// its neighbours, and the `usize`/`u64` overflow boundaries.
fn edge_number(n: u64) -> String {
    match n % 9 {
        0 => "0".into(),
        1 => (MAX_MSOLVE_SWEEP - 1).to_string(),
        2 => MAX_MSOLVE_SWEEP.to_string(),
        3 => (MAX_MSOLVE_SWEEP + 1).to_string(),
        4 => usize::MAX.to_string(),
        5 => format!("{}0", u64::MAX),
        6 => format!("-{}", n % 100),
        7 => (n % 8).to_string(),
        _ => (n >> 8).to_string(),
    }
}

/// One character drawn from a class chosen by the low bits of `x`: ASCII,
/// protocol punctuation, whitespace, or any Unicode scalar value.
fn any_char(x: u32) -> char {
    let pick = x >> 2;
    match x & 3 {
        0 => char::from(b' ' + (pick % 95) as u8),
        1 => b"k=..0123456789-"[pick as usize % 15] as char,
        2 => [
            '\t', '\r', '\u{b}', '\u{c}', '\u{85}', '\u{a0}', '\u{2028}', '\u{3000}',
        ][pick as usize % 8],
        _ => char::from_u32(pick % 0x11_0000).unwrap_or('\u{fffd}'),
    }
}

fn noise(chars: &[u32]) -> String {
    chars.iter().map(|&x| any_char(x)).collect()
}

/// Builds one token from a kind selector and raw material.
fn token(kind: u8, n: u64, chars: &[u32]) -> String {
    let key = KEYS[n as usize % KEYS.len()];
    match kind {
        0 => VERBS[n as usize % VERBS.len()].into(),
        1 => format!("k={}..{}", edge_number(n), edge_number(n.rotate_left(17))),
        2 => format!("{key}={}", edge_number(n >> 4)),
        3 => format!("{key}={}", noise(chars)),
        4 => format!("k={}", edge_number(n)),
        5 => [
            "k=..",
            "k=1..",
            "k=..2",
            "k=...",
            "=",
            "a=b=c",
            "k==1",
            "k=1..2..3",
        ][n as usize % 8]
            .into(),
        // A long run of one character: the line-cap regime.
        6 => std::iter::repeat_n(any_char(n as u32), (n >> 32) as usize % MAX_LINE_BYTES).collect(),
        _ => noise(chars),
    }
}

/// Cuts `line` to at most [`MAX_LINE_BYTES`] bytes on a char boundary and
/// drops newlines: the server hands the parser one line without its
/// terminator.
fn as_request_line(mut line: String) -> String {
    line.retain(|c| c != '\n');
    let mut end = line.len().min(MAX_LINE_BYTES);
    while !line.is_char_boundary(end) {
        end -= 1;
    }
    line.truncate(end);
    line
}

fn arb_line() -> impl Strategy<Value = String> {
    let material = (
        0u8..8,
        any::<u64>(),
        proptest::collection::vec(any::<u32>(), 0..24),
    );
    (
        0usize..VERBS.len() + 1,
        proptest::collection::vec((material, 0usize..SEPARATORS.len()), 0..10),
    )
        .prop_map(|(verb, tokens)| {
            // One index past VERBS leaves the verb to the token stream.
            let mut line = VERBS.get(verb).copied().unwrap_or("").to_string();
            for ((kind, n, chars), sep) in tokens {
                line.push_str(SEPARATORS[sep]);
                line.push_str(&token(kind, n, &chars));
            }
            as_request_line(line)
        })
}

/// The three checks every request line must pass.
fn check_line(line: &str) -> Result<(), TestCaseError> {
    prop_assert!(line.len() <= MAX_LINE_BYTES);
    match parse_command(line) {
        Ok(Command::MSolve { k_lo, k_hi, .. }) => {
            prop_assert!(k_lo <= k_hi, "accepted empty range {k_lo}..{k_hi}");
            prop_assert!(
                k_hi - k_lo < MAX_MSOLVE_SWEEP,
                "accepted k={k_lo}..{k_hi} spans more than {MAX_MSOLVE_SWEEP} values"
            );
        }
        Ok(_) => {}
        Err(msg) => {
            let rendered = err_line(&msg);
            prop_assert!(rendered.starts_with("ERR "));
            prop_assert!(
                !rendered.contains('\n'),
                "multi-line ERR for {line:?}: {rendered:?}"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_lines_parse_or_fail_as_one_err_line(line in arb_line()) {
        check_line(&line)?;
    }

    #[test]
    fn accepted_msolve_ranges_stay_within_the_sweep_cap(
        lo in any::<u64>(),
        hi in any::<u64>(),
        sep in 0usize..SEPARATORS.len() - 1,
    ) {
        // Well-formed lines, so the range check itself decides.
        let (lo, hi) = (edge_number(lo), edge_number(hi));
        let s = SEPARATORS[sep];
        let line = format!("MSOLVE{s}g{s}k={lo}..{hi}");
        check_line(&line)?;
        let spans = match (lo.parse::<usize>(), hi.parse::<usize>()) {
            (Ok(a), Ok(b)) => b >= a && b - a < MAX_MSOLVE_SWEEP,
            _ => false,
        };
        prop_assert_eq!(parse_command(&line).is_ok(), spans, "{}", line);
    }
}
