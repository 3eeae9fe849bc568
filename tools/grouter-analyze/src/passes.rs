//! The three interprocedural passes: panic-reachability,
//! wallclock-reachability, and determinism taint.
//!
//! * **panic-reachable** — every `panic!`-class macro, `.unwrap()`/
//!   `.expect()`, and non-literal indexing/slicing site inside a function
//!   transitively reachable from a data-plane entry point
//!   ([`crate::ENTRY_TYPES`]). Sites already justified by a
//!   `grouter-lint: allow(no-panic-in-dataplane)` pragma are considered
//!   documented invariants and are not re-reported.
//! * **wallclock-reachable** — `Instant::now`/`SystemTime` sites in the
//!   same closure; honors `allow(no-wallclock-in-sim)` pragmas.
//! * **determinism-taint** — sources are hash-container iteration, `{:p}`
//!   pointer formatting, thread-id reads, and `spawn`ed-thread joins;
//!   sinks are metric emission, obs trace emission, event scheduling, and
//!   cross-shard envelope construction. A source followed (in the same
//!   function, before any sort/canonicalization) by a direct sink or by a
//!   call into a sink-reaching function is a finding.

use crate::graph::{CallGraph, Resolution};
use crate::model::Workspace;
use crate::{Finding, ENTRY_TYPES};
use grouter_lint::common::{Pragma, Sp, Tok};

/// Sink categories, as bits so a fn's reachable-sink set is one byte.
pub const SINK_CATS: [(&str, u8); 4] =
    [("metrics", 1), ("obs", 2), ("schedule", 4), ("envelope", 8)];

const ITER_METHODS: [&str; 10] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

const SANITIZER_METHODS: [&str; 10] = [
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "min",
    "max",
    "sum",
    "len",
];

const METRIC_SINKS: [&str; 3] = ["record", "to_csv", "intern"];
const OBS_SINKS_ANY: [&str; 3] = ["instant", "instant_at", "sample"];
/// Obs methods whose names are too generic to trust without a recorder
/// receiver (`rec`/`obs`/`recorder`).
const OBS_SINKS_RECV: [&str; 3] = ["begin", "end", "count"];
const OBS_RECEIVERS: [&str; 3] = ["rec", "obs", "recorder"];
const SCHEDULE_SINKS: [&str; 4] = ["schedule", "schedule_at", "schedule_in", "schedule_now"];
const PANIC_MACROS: [&str; 7] = [
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

#[derive(Debug, Clone)]
pub struct Site {
    pub tok: usize,
    pub line: usize,
    pub col: usize,
    pub kind: &'static str,
    pub what: String,
}

/// Everything one body scan yields.
#[derive(Debug, Default)]
pub struct BodyScan {
    pub panics: Vec<Site>,
    pub wallclocks: Vec<Site>,
    pub sources: Vec<Site>,
    pub sanitizers: Vec<usize>,
    /// (token, category bit, description)
    pub sinks: Vec<(usize, u8, String)>,
}

fn ident_at(toks: &[Sp], i: usize) -> Option<&str> {
    match toks.get(i).map(|s| &s.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(toks: &[Sp], i: usize, c: char) -> bool {
    matches!(toks.get(i).map(|s| &s.tok), Some(Tok::Punct(p)) if *p == c)
}

fn is_numeric(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_digit() || c == '_')
}

/// Scan one function body for every site the passes care about. `hashy`
/// is the file's set of hash-container-typed identifiers.
pub fn scan_body(
    toks: &[Sp],
    body: (usize, usize),
    hashy: &std::collections::BTreeSet<String>,
) -> BodyScan {
    let (lo, hi) = body;
    let mut out = BodyScan::default();
    for i in lo..hi {
        let sp = &toks[i];
        match &sp.tok {
            Tok::Str(s) if s.contains("{:p}") => {
                out.sources.push(Site {
                    tok: i,
                    line: sp.line,
                    col: sp.col,
                    kind: "ptr-format",
                    what: "`{:p}` pointer formatting".into(),
                });
            }
            Tok::Punct('[') => {
                // Indexing/slicing: `recv[...]` where recv is an ident,
                // `)`, or `]`. Single-literal indexes (`arr[0]`) are
                // assumed bounded by construction.
                let prev_ok = i > lo
                    && (punct_at(toks, i - 1, ')')
                        || punct_at(toks, i - 1, ']')
                        || ident_at(toks, i - 1)
                            .is_some_and(|s| !crate::model::is_keyword(s) && !is_numeric(s)));
                if !prev_ok {
                    continue;
                }
                // Find the matching `]` and classify the content.
                let mut depth = 0i32;
                let mut j = i;
                while j < hi {
                    match toks[j].tok {
                        Tok::Punct('[') => depth += 1,
                        Tok::Punct(']') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                let inner = &toks[i + 1..j.min(hi)];
                let literal_only =
                    inner.len() == 1 && matches!(&inner[0].tok, Tok::Ident(s) if is_numeric(s));
                let full_range = inner.len() == 2
                    && matches!(inner[0].tok, Tok::Punct('.'))
                    && matches!(inner[1].tok, Tok::Punct('.'));
                let empty = inner.is_empty();
                if !literal_only && !full_range && !empty {
                    let recv = ident_at(toks, i - 1).unwrap_or("<expr>");
                    out.panics.push(Site {
                        tok: i,
                        line: sp.line,
                        col: sp.col,
                        kind: "index",
                        what: format!("indexing `{recv}[..]`"),
                    });
                }
            }
            Tok::Ident(name) => {
                let name = name.as_str();
                // Macro sites: `name!`.
                if PANIC_MACROS.contains(&name) && punct_at(toks, i + 1, '!') {
                    out.panics.push(Site {
                        tok: i,
                        line: sp.line,
                        col: sp.col,
                        kind: "panic-macro",
                        what: format!("`{name}!`"),
                    });
                    continue;
                }
                // Method-shaped sites: `.name(`.
                let is_method = i > lo && punct_at(toks, i - 1, '.') && punct_at(toks, i + 1, '(');
                let recv = if is_method && i >= 2 {
                    ident_at(toks, i - 2)
                } else {
                    None
                };
                if is_method {
                    if matches!(name, "unwrap" | "expect") {
                        out.panics.push(Site {
                            tok: i,
                            line: sp.line,
                            col: sp.col,
                            kind: "unwrap",
                            what: format!("`.{name}()`"),
                        });
                    }
                    if SANITIZER_METHODS.contains(&name) {
                        out.sanitizers.push(i);
                    }
                    if ITER_METHODS.contains(&name) && recv.is_some_and(|r| hashy.contains(r)) {
                        out.sources.push(Site {
                            tok: i,
                            line: sp.line,
                            col: sp.col,
                            kind: "hash-iter",
                            what: format!(
                                "unordered iteration `{}.{}()`",
                                recv.unwrap_or("?"),
                                name
                            ),
                        });
                    }
                    if METRIC_SINKS.contains(&name) {
                        out.sinks.push((i, 1, format!(".{name}(")));
                    }
                    if OBS_SINKS_ANY.contains(&name)
                        || (OBS_SINKS_RECV.contains(&name)
                            && recv.is_some_and(|r| OBS_RECEIVERS.contains(&r)))
                    {
                        out.sinks.push((i, 2, format!(".{name}(")));
                    }
                    if SCHEDULE_SINKS.contains(&name) {
                        out.sinks.push((i, 4, format!(".{name}(")));
                    }
                    // `handle.join()` after a spawn is covered by the
                    // spawn source below.
                }
                // `spawn(`, `thread::spawn(`, `s.spawn(`.
                if name == "spawn" && punct_at(toks, i + 1, '(') {
                    out.sources.push(Site {
                        tok: i,
                        line: sp.line,
                        col: sp.col,
                        kind: "spawn-join",
                        what: "spawned-thread join order".into(),
                    });
                }
                // `thread::current().id()` / stored ThreadId.
                if name == "current"
                    && punct_at(toks, i + 1, '(')
                    && punct_at(toks, i + 2, ')')
                    && punct_at(toks, i + 3, '.')
                    && ident_at(toks, i + 4) == Some("id")
                {
                    out.sources.push(Site {
                        tok: i,
                        line: sp.line,
                        col: sp.col,
                        kind: "thread-id",
                        what: "`thread::current().id()`".into(),
                    });
                }
                if name == "ThreadId" {
                    out.sources.push(Site {
                        tok: i,
                        line: sp.line,
                        col: sp.col,
                        kind: "thread-id",
                        what: "`ThreadId` value".into(),
                    });
                }
                // Wallclock reads.
                if name == "Instant"
                    && punct_at(toks, i + 1, ':')
                    && punct_at(toks, i + 2, ':')
                    && ident_at(toks, i + 3) == Some("now")
                {
                    out.wallclocks.push(Site {
                        tok: i,
                        line: sp.line,
                        col: sp.col,
                        kind: "instant-now",
                        what: "`Instant::now`".into(),
                    });
                }
                if name == "SystemTime" {
                    out.wallclocks.push(Site {
                        tok: i,
                        line: sp.line,
                        col: sp.col,
                        kind: "systemtime",
                        what: "`SystemTime`".into(),
                    });
                }
                // Sanitizing collections: collecting into an ordered map
                // anywhere downstream of the source canonicalizes it.
                if name == "BTreeMap" || name == "BTreeSet" {
                    out.sanitizers.push(i);
                }
                // Cross-shard envelope construction.
                if name == "Envelope" && punct_at(toks, i + 1, '{') {
                    out.sinks.push((i, 8, "Envelope { .. }".into()));
                }
                // `for pat in <expr over a hash container> {`.
                if name == "for" {
                    let mut j = i + 1;
                    let mut depth = 0i32;
                    while j < hi {
                        match &toks[j].tok {
                            Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                            Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                            Tok::Ident(s) if s == "in" && depth == 0 => break,
                            Tok::Punct('{') => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    if ident_at(toks, j) == Some("in") {
                        let mut k = j + 1;
                        while k < hi && !punct_at(toks, k, '{') {
                            if let Some(e) = ident_at(toks, k) {
                                if hashy.contains(e) {
                                    // Methods chained off the container
                                    // (e.g. `.len()`) are handled above;
                                    // a bare `&map` iterates it.
                                    let followed_by_call = punct_at(toks, k + 1, '.');
                                    if !followed_by_call {
                                        let sp = &toks[k];
                                        out.sources.push(Site {
                                            tok: k,
                                            line: sp.line,
                                            col: sp.col,
                                            kind: "hash-iter",
                                            what: format!("unordered iteration `for .. in {e}`"),
                                        });
                                    }
                                }
                            }
                            k += 1;
                        }
                    }
                }
            }
            _ => {}
        }
    }
    out
}

fn pragma_suppresses(pragmas: &[Pragma], rule: &str, lines: &[usize]) -> bool {
    pragmas.iter().any(|p| {
        p.justified
            && p.parse_error.is_none()
            && p.rules.iter().any(|r| r == rule)
            && lines.iter().any(|&l| p.line == l || p.line + 1 == l)
    })
}

fn cats_of(mask: u8) -> Vec<&'static str> {
    SINK_CATS
        .iter()
        .filter(|(_, b)| mask & b != 0)
        .map(|(n, _)| *n)
        .collect()
}

fn short_chain(chain: &[String]) -> String {
    let named: Vec<&str> = chain.iter().map(|s| s.as_str()).collect();
    if named.len() <= 4 {
        named.join(" → ")
    } else {
        format!(
            "{} → {} → … → {}",
            named[0],
            named[1],
            named[named.len() - 1]
        )
    }
}

/// Run all three passes. `scans` must be indexed like `ws.fns`.
pub fn run(ws: &Workspace, graph: &CallGraph, scans: &[BodyScan]) -> (Vec<Finding>, usize) {
    let mut findings = Vec::new();

    // Entry points: unmasked methods of the data-plane entry types.
    let entries: Vec<usize> = ws
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            !f.masked
                && f.type_name
                    .as_deref()
                    .is_some_and(|t| ENTRY_TYPES.contains(&t))
        })
        .map(|(i, _)| i)
        .collect();
    let (reached, parent) = graph.reach_forward(&entries);

    // Panic- and wallclock-reachability.
    for (idx, f) in ws.fns.iter().enumerate() {
        if !reached[idx] || f.masked {
            continue;
        }
        let ctx = &ws.files[f.file];
        let chain = short_chain(&graph.chain(ws, &parent, idx));
        for site in &scans[idx].panics {
            let lines = [site.line, f.line];
            if pragma_suppresses(&ctx.lint_pragmas, "no-panic-in-dataplane", &[site.line])
                || pragma_suppresses(&ctx.pragmas, "panic-reachable", &lines)
            {
                continue;
            }
            findings.push(Finding {
                pass: "panic-reachable",
                func: f.fqn.clone(),
                file: ctx.path.clone(),
                line: site.line,
                col: site.col,
                kind: site.kind.to_string(),
                message: format!(
                    "{} can panic and is reachable from a data-plane entry point ({})",
                    site.what, chain
                ),
            });
        }
        for site in &scans[idx].wallclocks {
            let lines = [site.line, f.line];
            if pragma_suppresses(&ctx.lint_pragmas, "no-wallclock-in-sim", &[site.line])
                || pragma_suppresses(&ctx.pragmas, "wallclock-reachable", &lines)
            {
                continue;
            }
            findings.push(Finding {
                pass: "wallclock-reachable",
                func: f.fqn.clone(),
                file: ctx.path.clone(),
                line: site.line,
                col: site.col,
                kind: site.kind.to_string(),
                message: format!(
                    "{} reads wall-clock time on a sim-driven path ({})",
                    site.what, chain
                ),
            });
        }
    }

    // Determinism taint: per-category sink-reaching closures.
    let mut sink_mask = vec![0u8; ws.fns.len()];
    for (_, bit) in SINK_CATS {
        let sinks: Vec<usize> = scans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.sinks.iter().any(|(_, b, _)| b & bit != 0))
            .map(|(i, _)| i)
            .collect();
        for (i, hit) in graph.reach_backward(&sinks).into_iter().enumerate() {
            if hit {
                sink_mask[i] |= bit;
            }
        }
    }

    for (idx, f) in ws.fns.iter().enumerate() {
        if f.masked {
            continue;
        }
        let ctx = &ws.files[f.file];
        let scan = &scans[idx];
        for src in &scan.sources {
            let san = scan
                .sanitizers
                .iter()
                .copied()
                .filter(|&s| s > src.tok)
                .min()
                .unwrap_or(usize::MAX);
            let mut mask = 0u8;
            let mut via: Option<String> = None;
            for (tok, bit, what) in &scan.sinks {
                if *tok > src.tok && *tok < san {
                    mask |= bit;
                    via.get_or_insert_with(|| format!("direct sink `{what}`"));
                }
            }
            for (site, res) in &graph.sites[idx] {
                if site.tok <= src.tok || site.tok >= san {
                    continue;
                }
                if let Resolution::Internal(targets) = res {
                    for &t in targets {
                        if sink_mask[t] != 0 {
                            mask |= sink_mask[t];
                            via.get_or_insert_with(|| {
                                format!("call into sink-reaching `{}`", ws.fns[t].fqn)
                            });
                        }
                    }
                }
            }
            if mask == 0 {
                continue;
            }
            let lines = [src.line, f.line];
            if pragma_suppresses(&ctx.pragmas, "determinism-taint", &lines) {
                continue;
            }
            let cats = cats_of(mask).join("+");
            findings.push(Finding {
                pass: "determinism-taint",
                func: f.fqn.clone(),
                file: ctx.path.clone(),
                line: src.line,
                col: src.col,
                kind: format!("{}->{}", src.kind, cats),
                message: format!(
                    "{} can reach {} emission without an intervening sort/canonicalization ({})",
                    src.what,
                    cats,
                    via.unwrap_or_else(|| "sink".into())
                ),
            });
        }
    }

    findings.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.pass, &a.kind).cmp(&(&b.file, b.line, b.col, b.pass, &b.kind))
    });
    (findings, entries.len())
}
