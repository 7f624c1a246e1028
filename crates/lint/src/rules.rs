//! The rule implementations (L1–L6).

use crate::context::{allowed, in_regions, FnSpan};
use crate::scan::Token;
use crate::{Class, FileCx, Finding};
use std::collections::BTreeSet;

/// L1 rule name.
pub const UNORDERED_ITER: &str = "unordered-iter";
/// L2 rule name.
pub const CODEC_SYMMETRY: &str = "codec-symmetry";
/// L3 rule name.
pub const WALLCLOCK: &str = "wallclock";
/// L4 rule name.
pub const PANIC_HYGIENE: &str = "panic-hygiene";
/// L5 rule name.
pub const TRUNCATING_CAST: &str = "truncating-cast";
/// L6 rule name.
pub const FORBID_UNSAFE: &str = "forbid-unsafe";

fn push(cx: &FileCx, out: &mut Vec<Finding>, rule: &'static str, line: usize, message: String) {
    if !allowed(&cx.allows, rule, line) {
        out.push(Finding {
            rule,
            file: cx.rel.clone(),
            line,
            message,
        });
    }
}

// ---------------------------------------------------------------- L1 --

/// Adapter methods whose result observes `HashMap`/`HashSet` order.
const ITERATING: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// L1: iteration over a `HashMap`/`HashSet` must be wrapped in a
/// canonical sort (detected as a `sort*` call or a `BTreeMap`/`BTreeSet`
/// collect in the same or the next two statements) or carry an
/// `allow(unordered-iter)` annotation with a reason.
pub fn unordered_iter(cx: &FileCx, out: &mut Vec<Finding>) {
    let toks = &cx.toks;
    let declared = hash_container_names(toks);
    if declared.is_empty() {
        return;
    }
    let mut candidates: Vec<(usize, String)> = Vec::new(); // (tok idx, what)

    for i in 0..toks.len() {
        if in_regions(&cx.test_regions, i) {
            continue;
        }
        // recv.iterating_method(
        if let Some(m) = toks[i].word() {
            if ITERATING.contains(&m)
                && i >= 2
                && toks[i - 1].is_p('.')
                && toks.get(i + 1).is_some_and(|t| t.is_p('('))
            {
                if let Some(recv) = toks[i - 2].word() {
                    if declared.contains(recv) {
                        candidates.push((i, format!("`{recv}.{m}()`")));
                    }
                }
            }
        }
        // for-header: `for <pat> in <expr> {` where a declared map/set is
        // consumed without a method call on it (`&map`, `take(.. map)`).
        if toks[i].is_word("for") {
            let mut j = i + 1;
            while j < toks.len() && !toks[j].is_word("in") && !toks[j].is_p('{') {
                j += 1;
            }
            if j >= toks.len() || !toks[j].is_word("in") {
                continue;
            }
            let mut k = j + 1;
            while k < toks.len() && !toks[k].is_p('{') {
                if let Some(w) = toks[k].word() {
                    if declared.contains(w) && !toks.get(k + 1).is_some_and(|t| t.is_p('.')) {
                        candidates.push((k, format!("`for .. in .. {w}`")));
                    }
                }
                k += 1;
            }
        }
    }

    for (idx, what) in candidates {
        if sorted_nearby(toks, idx) {
            continue;
        }
        push(
            cx,
            out,
            UNORDERED_ITER,
            toks[idx].line,
            format!(
                "{what} iterates a HashMap/HashSet in arbitrary order; sort canonically \
                 before anything order-sensitive, or annotate why order cannot matter"
            ),
        );
    }
}

/// Names declared in this file with a `HashMap`/`HashSet` top-level type
/// (fields, params, and locals; `Vec<HashMap<..>>` etc. do not count).
fn hash_container_names(toks: &[Token]) -> BTreeSet<String> {
    let mut set = BTreeSet::new();
    for i in 0..toks.len() {
        let Some(name) = toks[i].word() else { continue };
        // `name: [&|&'a |mut ]Hash{Map,Set}<` and `name: std::collections::Hash..`
        if toks.get(i + 1).is_some_and(|t| t.is_p(':'))
            && !toks.get(i + 2).is_some_and(|t| t.is_p(':'))
        {
            let mut j = i + 2;
            let mut budget = 8usize;
            while budget > 0 {
                match toks.get(j) {
                    Some(t) if t.is_p('&') || t.is_p('\'') => j += 1,
                    Some(t) if t.is_word("mut") || t.is_word("std") || t.is_word("collections") => {
                        j += 1
                    }
                    Some(t) if t.is_p(':') => j += 1,
                    Some(t) if t.word() == Some("HashMap") || t.word() == Some("HashSet") => {
                        set.insert(name.to_string());
                        break;
                    }
                    _ => break,
                }
                budget -= 1;
            }
        }
        // `name = [std::collections::]Hash{Map,Set}::...`
        if toks.get(i + 1).is_some_and(|t| t.is_p('=')) {
            let mut j = i + 2;
            let mut budget = 8usize;
            while budget > 0 {
                match toks.get(j) {
                    Some(t) if t.is_word("std") || t.is_word("collections") || t.is_p(':') => {
                        j += 1
                    }
                    Some(t) if t.word() == Some("HashMap") || t.word() == Some("HashSet") => {
                        if toks.get(j + 1).is_some_and(|t| t.is_p(':')) {
                            set.insert(name.to_string());
                        }
                        break;
                    }
                    _ => break,
                }
                budget -= 1;
            }
        }
    }
    set
}

/// True iff order is canonicalized near `idx` (a `sort*` call or a
/// BTree collect): in the statement containing `idx`, one of the next
/// two statements, or — for the collect-sort-iterate idiom — a bounded
/// token window just *before* the iteration.
fn sorted_nearby(toks: &[Token], idx: usize) -> bool {
    // Look-behind: `let v: Vec<_> = map.iter().collect(); v.sort(); for .. in v`
    // puts the sort ahead of the flagged loop header.
    for t in &toks[idx.saturating_sub(120)..idx] {
        if let Some(w) = t.word() {
            if w.starts_with("sort") || w == "BTreeMap" || w == "BTreeSet" {
                return true;
            }
        }
    }
    let mut start = idx;
    while start > 0 {
        let t = &toks[start - 1];
        if t.is_p(';') || t.is_p('{') || t.is_p('}') {
            break;
        }
        start -= 1;
    }
    let mut semis = 0usize;
    let mut j = start;
    let end = (idx + 120).min(toks.len());
    while j < end && semis < 3 {
        if toks[j].is_p(';') {
            semis += 1;
        }
        if let Some(w) = toks[j].word() {
            if w.starts_with("sort") || w == "BTreeMap" || w == "BTreeSet" {
                return true;
            }
        }
        j += 1;
    }
    false
}

// ---------------------------------------------------------------- L2 --

/// Encode/decode fn-name pairs checked for positional codec symmetry.
const PAIRS: &[(&str, &str)] = &[
    ("encode", "decode"),
    ("to_bytes", "from_bytes"),
    ("container_header", "read_container_any"),
    ("write_delta_frame", "read_delta_frame"),
    ("write_engine_header", "read_engine_header"),
    // The one engine-record body (full = delta without removal lists)
    // and the two helpers it calls on both sides.
    ("encode_body", "decode_body"),
    ("encode_tail", "decode_tail"),
    ("encode_pending_slot", "decode_pending_slot"),
];

/// Positional class of one codec call. `Len` unifies `usize`/`seq_len`,
/// `Raw` unifies `raw`/`magic`, `Nested` unifies sub-struct
/// `encode`/`decode` calls (and the container / engine header helpers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Fixed(&'static str),
    Len,
    Raw,
    Opt,
    Nested,
}

impl Slot {
    fn name(self) -> &'static str {
        match self {
            Slot::Fixed(s) => s,
            Slot::Len => "usize/seq_len",
            Slot::Raw => "raw/magic",
            Slot::Opt => "some",
            Slot::Nested => "nested encode/decode",
        }
    }
}

fn codec_class(method: &str, decode_side: bool) -> Option<Slot> {
    Some(match method {
        "u8" => Slot::Fixed("u8"),
        "u16" => Slot::Fixed("u16"),
        "u32" => Slot::Fixed("u32"),
        "u64" => Slot::Fixed("u64"),
        "i64" => Slot::Fixed("i64"),
        "f64" => Slot::Fixed("f64"),
        "bool" => Slot::Fixed("bool"),
        "duration" => Slot::Fixed("duration"),
        "str" => Slot::Fixed("str"),
        "bytes" => Slot::Fixed("bytes"),
        // `bytes` with the blob written in place by a closure.
        "bytes_with" if !decode_side => Slot::Fixed("bytes"),
        "attr_value" => Slot::Fixed("attr_value"),
        "group_key" => Slot::Fixed("group_key"),
        "event" => Slot::Fixed("event"),
        "usize" => Slot::Len,
        "seq_len" if decode_side => Slot::Len,
        "raw" if !decode_side => Slot::Raw,
        "magic" if decode_side => Slot::Raw,
        "some" => Slot::Opt,
        _ => return None,
    })
}

/// L2: every encode path's codec-call sequence must positionally match
/// its paired decode path. Runs of `some` collapse to one slot (the
/// `Option` encode writes the tag in both match arms).
pub fn codec_symmetry(cx: &FileCx, out: &mut Vec<Finding>) {
    let fns = &cx.fn_spans;
    for &(ename, dname) in PAIRS {
        // Group by enclosing impl (or file level for free fns).
        let mut scopes: Vec<Option<usize>> = fns.iter().map(|f| f.impl_idx).collect();
        scopes.sort_unstable();
        scopes.dedup();
        for scope in scopes {
            let find = |n: &str| {
                fns.iter()
                    .find(|f| f.impl_idx == scope && f.name == n && f.body.1 > f.body.0)
            };
            let (Some(ef), Some(df)) = (find(ename), find(dname)) else {
                continue;
            };
            if in_regions(&cx.test_regions, ef.body.0) || in_regions(&cx.test_regions, df.body.0) {
                continue;
            }
            if allowed(&cx.allows, CODEC_SYMMETRY, ef.line)
                || allowed(&cx.allows, CODEC_SYMMETRY, df.line)
            {
                continue;
            }
            let enc = codec_calls(cx, ef, false);
            let dec = codec_calls(cx, df, true);
            compare_sequences(cx, out, ef, df, &enc, &dec);
        }
    }
}

/// Extracts the (collapsed) codec-call sequence of one fn body.
fn codec_calls(cx: &FileCx, f: &FnSpan, decode_side: bool) -> Vec<(Slot, usize)> {
    let toks = &cx.toks;
    let mut recvs: BTreeSet<String> = BTreeSet::new();
    let want = if decode_side { "Dec" } else { "Enc" };
    // Receivers from the parameter list: `name: &mut [crate::checkpoint::]Enc`.
    let (ps, pe) = f.params;
    for i in ps..pe {
        let Some(name) = toks[i].word() else { continue };
        if !toks.get(i + 1).is_some_and(|t| t.is_p(':')) {
            continue;
        }
        for t in &toks[(i + 2).min(pe)..(i + 12).min(pe)] {
            if t.is_p(',') {
                break;
            }
            if t.is_word(want) {
                recvs.insert(name.to_string());
                break;
            }
        }
    }
    // Receivers from locals: `let [mut] x = [..]Enc::new(..)` or
    // `let [mut] x = container_header(..)`.
    let (bs, be) = f.body;
    for i in bs..be {
        if !toks[i].is_word("let") {
            continue;
        }
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_word("mut")) {
            j += 1;
        }
        let Some(name) = toks.get(j).and_then(|t| t.word()) else {
            continue;
        };
        let name = name.to_string();
        for k in j + 1..(j + 14).min(be) {
            if toks[k].is_p(';') {
                break;
            }
            let hit = toks[k].is_word(want)
                && toks.get(k + 1).is_some_and(|t| t.is_p(':'))
                && toks.get(k + 3).is_some_and(|t| t.is_word("new"));
            let header = !decode_side && toks[k].is_word("container_header");
            if hit || header {
                recvs.insert(name.clone());
                break;
            }
        }
    }

    let mut seq: Vec<(Slot, usize)> = Vec::new();
    for i in bs..be {
        let Some(w) = toks[i].word() else { continue };
        let line = toks[i].line;
        // recv.method(
        if i >= 2 && toks[i - 1].is_p('.') && toks.get(i + 1).is_some_and(|t| t.is_p('(')) {
            if let Some(recv) = toks[i - 2].word() {
                if recvs.contains(recv) {
                    if let Some(c) = codec_class(w, decode_side) {
                        seq.push((c, line));
                        continue;
                    }
                }
            }
        }
        // Nested sub-struct calls: `x.encode(&mut e)` / `T::decode(&mut d, ..)`,
        // plus the shared container helpers.
        let nested = if decode_side {
            matches!(w, "decode" | "read_container_any" | "read_engine_header")
                && toks.get(i + 1).is_some_and(|t| t.is_p('('))
                && args_mention(toks, i + 1, &recvs)
        } else {
            (w == "encode" && i >= 1 && toks[i - 1].is_p('.')
                || w == "container_header"
                || w == "write_engine_header")
                && toks.get(i + 1).is_some_and(|t| t.is_p('('))
                && (w == "container_header" || args_mention(toks, i + 1, &recvs))
        };
        if nested {
            seq.push((Slot::Nested, line));
        }
    }
    // Collapse runs of `some`: the encode side writes the Option tag
    // once per match arm, the decode side reads it once.
    seq.dedup_by(|a, b| a.0 == Slot::Opt && b.0 == Slot::Opt);
    seq
}

fn args_mention(toks: &[Token], open: usize, recvs: &BTreeSet<String>) -> bool {
    let mut depth = 0i64;
    let mut j = open;
    while j < toks.len() {
        if toks[j].is_p('(') {
            depth += 1;
        } else if toks[j].is_p(')') {
            depth -= 1;
            if depth == 0 {
                return false;
            }
        } else if let Some(w) = toks[j].word() {
            if recvs.contains(w) {
                return true;
            }
        }
        j += 1;
    }
    false
}

fn compare_sequences(
    cx: &FileCx,
    out: &mut Vec<Finding>,
    ef: &FnSpan,
    df: &FnSpan,
    enc: &[(Slot, usize)],
    dec: &[(Slot, usize)],
) {
    let n = enc.len().min(dec.len());
    for k in 0..n {
        if enc[k].0 != dec[k].0 {
            push(
                cx,
                out,
                CODEC_SYMMETRY,
                df.line,
                format!(
                    "`{}` (line {}) and `{}` (line {}) diverge at codec position {}: \
                     encode writes `{}` (line {}) but decode reads `{}` (line {})",
                    ef.name,
                    ef.line,
                    df.name,
                    df.line,
                    k + 1,
                    enc[k].0.name(),
                    enc[k].1,
                    dec[k].0.name(),
                    dec[k].1,
                ),
            );
            return;
        }
    }
    if enc.len() != dec.len() {
        let (side, extra) = if enc.len() > dec.len() {
            ("encode", &enc[n..])
        } else {
            ("decode", &dec[n..])
        };
        push(
            cx,
            out,
            CODEC_SYMMETRY,
            df.line,
            format!(
                "`{}` (line {}) writes {} codec values but `{}` (line {}) reads {}: \
                 the {} side has {} unmatched call(s) starting with `{}` at line {}",
                ef.name,
                ef.line,
                enc.len(),
                df.name,
                df.line,
                dec.len(),
                side,
                extra.len(),
                extra[0].0.name(),
                extra[0].1,
            ),
        );
    }
}

/// L2b: every `*MAGIC*`/`*VERSION*` const must be reflected in
/// `docs/checkpoint-format.md` (the magic string literally, the version
/// as `v<n>`), so codec changes cannot silently skip the format doc.
pub fn codec_docs(cx: &FileCx, docs: Option<&str>, out: &mut Vec<Finding>) {
    let toks = &cx.toks;
    for i in 0..toks.len() {
        if !toks[i].is_word("const") || in_regions(&cx.test_regions, i) {
            continue;
        }
        let Some(name) = toks.get(i + 1).and_then(|t| t.word()) else {
            continue;
        };
        let line = toks[i].line;
        let is_magic = name.contains("MAGIC");
        let is_version = name.contains("VERSION");
        if !is_magic && !is_version {
            continue;
        }
        let Some(docs) = docs else {
            push(
                cx,
                out,
                CODEC_SYMMETRY,
                line,
                format!("`{name}` declared but docs/checkpoint-format.md is missing"),
            );
            continue;
        };
        if is_magic {
            let lit = cx
                .clean_strings
                .iter()
                .find(|(l, _)| *l == line)
                .map(|(_, s)| s.clone());
            if let Some(lit) = lit {
                if !lit.is_empty() && !docs.contains(&lit) {
                    push(
                        cx,
                        out,
                        CODEC_SYMMETRY,
                        line,
                        format!(
                            "magic `{name}` = \"{lit}\" is not documented in \
                             docs/checkpoint-format.md"
                        ),
                    );
                }
            }
        }
        if is_version {
            // First numeric token after `=`.
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_p('=') && !toks[j].is_p(';') {
                j += 1;
            }
            let mut ver = None;
            while j < toks.len() && !toks[j].is_p(';') {
                if let Some(w) = toks[j].word() {
                    if w.chars().all(|c| c.is_ascii_digit()) {
                        ver = Some(w.to_string());
                        break;
                    }
                }
                j += 1;
            }
            if let Some(v) = ver {
                // Accept either spelling: `v3` or `version 3`.
                if !docs.contains(&format!("v{v}")) && !docs.contains(&format!("version {v}")) {
                    push(
                        cx,
                        out,
                        CODEC_SYMMETRY,
                        line,
                        format!(
                            "`{name}` = {v} has no `v{v}` (or `version {v}`) entry in \
                             docs/checkpoint-format.md — document the format change \
                             (layout + version history)"
                        ),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------- L3 --

/// L3: wall-clock reads stay out of core logic. Only `metrics.rs`,
/// `stats.rs`, and bench code may touch the clock freely; anywhere else
/// needs an annotation explaining why the value never reaches output.
pub fn wallclock(cx: &FileCx, out: &mut Vec<Finding>) {
    let toks = &cx.toks;
    for i in 0..toks.len() {
        if in_regions(&cx.test_regions, i) {
            continue;
        }
        // Flag the *read* (`::now`), not mentions of the type: imports,
        // signatures, and stored stamps are not where time leaks in.
        let clock_read = |ty: &str| {
            toks[i].is_word(ty)
                && toks.get(i + 1).is_some_and(|t| t.is_p(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_p(':'))
                && toks.get(i + 3).is_some_and(|t| t.is_word("now"))
        };
        let hit = clock_read("Instant") || clock_read("SystemTime");
        if hit {
            push(
                cx,
                out,
                WALLCLOCK,
                toks[i].line,
                "wall-clock read outside metrics/stats/bench code; if the value can \
                 never influence emitted bytes, annotate with the reason"
                    .to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------- L4 --

/// L4: no `unwrap()`/`expect()` on worker/emission paths (the core
/// engine and the pipeline runtime). Propagate a `Result`, or annotate
/// with why the panic is unreachable or is deliberate poisoning.
pub fn panic_hygiene(cx: &FileCx, out: &mut Vec<Finding>) {
    let toks = &cx.toks;
    for i in 0..toks.len() {
        if in_regions(&cx.test_regions, i) {
            continue;
        }
        let Some(w) = toks[i].word() else { continue };
        if (w == "unwrap" || w == "expect")
            && i >= 1
            && toks[i - 1].is_p('.')
            && toks.get(i + 1).is_some_and(|t| t.is_p('('))
        {
            push(
                cx,
                out,
                PANIC_HYGIENE,
                toks[i].line,
                format!(
                    "`.{w}()` on a worker/emission path can take down a shard; return a \
                     Result (ChurnError-style) or annotate why it cannot fire"
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- L5 --

const NARROWING: &[&str] = &["u32", "u16", "u8", "i32", "usize"];
const TIME_MARKERS: &[&str] = &[
    "Ts",
    "ts",
    "window",
    "window_end",
    "window_start",
    "watermark",
    "lateness",
    "slide",
    "pane",
];

/// L5: a bare narrowing `as` cast in a statement doing timestamp/window
/// arithmetic silently truncates at scale; use checked/saturating
/// conversion or annotate why the domain fits.
pub fn truncating_cast(cx: &FileCx, out: &mut Vec<Finding>) {
    let toks = &cx.toks;
    let mut start = 0usize;
    for i in 0..=toks.len() {
        let boundary =
            i == toks.len() || toks[i].is_p(';') || toks[i].is_p('{') || toks[i].is_p('}');
        if !boundary {
            continue;
        }
        let seg_start = start;
        let seg = &toks[seg_start..i];
        start = i + 1;
        if seg.is_empty() || in_regions(&cx.test_regions, seg_start) {
            continue;
        }
        let has_marker = seg
            .iter()
            .any(|t| t.word().is_some_and(|w| TIME_MARKERS.contains(&w)));
        if !has_marker {
            continue;
        }
        for k in 0..seg.len().saturating_sub(1) {
            if seg[k].is_word("as") {
                if let Some(ty) = seg[k + 1].word() {
                    if NARROWING.contains(&ty) {
                        push(
                            cx,
                            out,
                            TRUNCATING_CAST,
                            seg[k].line,
                            format!(
                                "bare `as {ty}` in timestamp/window arithmetic can truncate; \
                                 use try_from/saturating conversion or annotate why it fits"
                            ),
                        );
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------- L6 --

/// L6: every non-compat library crate root must `#![forbid(unsafe_code)]`.
pub fn forbid_unsafe(cx: &FileCx, out: &mut Vec<Finding>) {
    let toks = &cx.toks;
    for i in 0..toks.len() {
        if toks[i].is_p('#')
            && toks.get(i + 1).is_some_and(|t| t.is_p('!'))
            && toks.get(i + 2).is_some_and(|t| t.is_p('['))
            && toks.get(i + 3).is_some_and(|t| t.is_word("forbid"))
            && toks.get(i + 4).is_some_and(|t| t.is_p('('))
            && toks.get(i + 5).is_some_and(|t| t.is_word("unsafe_code"))
        {
            return;
        }
    }
    out.push(Finding {
        rule: FORBID_UNSAFE,
        file: cx.rel.clone(),
        line: 1,
        message: "library crate root lacks `#![forbid(unsafe_code)]` (required for every \
                  non-compat crate; the only sanctioned unsafe is the test-only allocator \
                  in crates/core/tests/alloc_lean.rs)"
            .to_string(),
    });
}

/// Dispatches every rule enabled for this file.
pub fn check(cx: &FileCx, cls: &Class, docs: Option<&str>, out: &mut Vec<Finding>) {
    if cls.l1 {
        unordered_iter(cx, out);
    }
    if cls.l2 {
        codec_symmetry(cx, out);
        codec_docs(cx, docs, out);
    }
    if cls.l3 {
        wallclock(cx, out);
    }
    if cls.l4 {
        panic_hygiene(cx, out);
    }
    if cls.l5 {
        truncating_cast(cx, out);
    }
    if cls.forbid_required {
        forbid_unsafe(cx, out);
    }
}
