//! A hand-rolled item parser on top of the lexer: just enough Rust shape to
//! build a call graph — `fn`/`impl`/`trait`/`mod` items, call expressions,
//! `let` bindings, and the sink sites the semantic passes care about
//! (panics, clock/hash-collection reads, bare load arithmetic).
//!
//! This is deliberately *not* a Rust grammar. It tracks brace depth and an
//! item-context stack, recognizes item headers by keyword position, and
//! extracts per-function facts from body tokens. Macros other than the
//! panic family, generic method turbofish calls, and destructuring `let`
//! patterns are skipped; DESIGN.md §16 lists the resulting over- and
//! under-approximations.

use crate::lexer::TokKind;
use crate::scan::Scan;

/// Everything the graph builder needs from one source file.
pub struct FileFacts {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Owning crate in underscore form (`lrb_core`), or a synthetic name
    /// for root `src/` / `tests/` / `examples/` files.
    pub crate_name: String,
    /// `true` when the whole file is test/bench/example code.
    pub file_is_test: bool,
    /// Every function item in the file, in source order.
    pub fns: Vec<FnFact>,
    /// Workspace crate names (`lrb_*` identifiers) mentioned anywhere in
    /// the file; drives the crate-dependency filter during resolution.
    pub crate_mentions: Vec<String>,
}

/// One parsed function item.
pub struct FnFact {
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any.
    pub qualifier: Option<String>,
    /// Module path inside the crate (file path segments + inline `mod`s).
    pub modules: Vec<String>,
    /// `pub` with no visibility restriction.
    pub is_pub: bool,
    /// Declared inside `impl Trait for Type` or a `trait` block: part of a
    /// trait surface, hence public API even without `pub`.
    pub in_trait: bool,
    pub is_test: bool,
    pub line: u32,
    pub col: u32,
    /// Named (non-`self`, non-pattern) parameters, in order.
    pub params: Vec<String>,
    pub calls: Vec<CallFact>,
    pub lets: Vec<LetFact>,
    /// `unwrap()`/`expect()`/`panic!`-family sites.
    pub panics: Vec<SiteFact>,
    /// `Instant::now`/`SystemTime::now`/`HashMap`/`HashSet` sites.
    pub nondet: Vec<SiteFact>,
    /// Bare, non-widened `+`/`-`/`*` sites with their operand idents.
    pub arith: Vec<ArithFact>,
    /// Function has a body (trait method signatures don't).
    pub has_body: bool,
}

/// How a call site names its callee.
pub enum CallKind {
    /// `helper(x)`
    Bare,
    /// `recv.helper(x)`
    Method,
    /// `seg::seg::helper(x)` — segments left of the final `::`.
    Path(Vec<String>),
}

/// One call expression inside a function body.
pub struct CallFact {
    pub kind: CallKind,
    pub name: String,
    pub line: u32,
    pub col: u32,
    /// Per-argument-slot operand summary, for the arith dataflow pass.
    pub args: Vec<ArgFact>,
}

/// Identifiers and callee names appearing in one argument slot.
pub struct ArgFact {
    pub idents: Vec<String>,
    pub calls: Vec<String>,
}

/// `let [mut] name = rhs;` — identifiers and callee names in the rhs.
pub struct LetFact {
    pub name: String,
    pub idents: Vec<String>,
    pub calls: Vec<String>,
}

/// A flagged sink site with a display name like `unwrap()` or `panic!`.
pub struct SiteFact {
    pub what: String,
    pub line: u32,
    pub col: u32,
}

/// A bare arithmetic site: operator plus nearest operand idents.
pub struct ArithFact {
    pub op: String,
    pub operands: Vec<String>,
    pub line: u32,
    pub col: u32,
}

/// Keywords never treated as call or operand identifiers.
const KEYWORDS: &[&str] = &[
    "if", "else", "match", "as", "in", "for", "while", "loop", "move", "return", "unsafe", "ref",
    "mut", "dyn", "impl", "fn", "true", "false", "self", "Self", "crate", "super", "where",
    "break", "continue", "let", "const", "static", "pub", "use", "mod", "struct", "enum", "trait",
    "type", "async", "await", "box",
];

/// Crate name (underscore form) owning `path`.
pub fn crate_of(path: &str) -> String {
    let p = path.replace('\\', "/");
    if let Some(rest) = p.strip_prefix("crates/") {
        return rest.split('/').next().unwrap_or("").replace('-', "_");
    }
    if let Some(rest) = p.strip_prefix("vendor/") {
        return rest.split('/').next().unwrap_or("").replace('-', "_");
    }
    match p.split('/').next() {
        Some("src") => "workspace_root".to_string(),
        Some(top) => format!("workspace_{top}"),
        None => "workspace_misc".to_string(),
    }
}

/// Whole files that are test scaffolding: integration tests, examples,
/// benches. Their functions never act as roots, sinks, or call targets.
pub fn file_is_test(path: &str) -> bool {
    let p = path.replace('\\', "/");
    p.starts_with("tests/")
        || p.starts_with("examples/")
        || p.contains("/tests/")
        || p.contains("/examples/")
        || p.contains("/benches/")
}

/// Module path from the file location: path segments under `src/`, with
/// `lib`/`main`/`mod` stems contributing nothing.
fn file_modules(path: &str) -> Vec<String> {
    let p = path.replace('\\', "/");
    let rest = match p.find("/src/") {
        Some(at) => &p[at + "/src/".len()..],
        None => return Vec::new(),
    };
    let mut mods: Vec<String> = rest.split('/').map(|s| s.to_string()).collect();
    if let Some(last) = mods.pop() {
        let stem = last.trim_end_matches(".rs");
        if !matches!(stem, "lib" | "main" | "mod") {
            mods.push(stem.to_string());
        }
    }
    mods
}

/// What kind of block an entry on the context stack is.
enum Ctx {
    Mod {
        name: String,
        depth: usize,
    },
    Impl {
        qualifier: Option<String>,
        trait_like: bool,
        depth: usize,
    },
    Fn {
        idx: usize,
        depth: usize,
    },
}

/// Tokens that put a following `impl`/`fn` keyword in *type* position
/// (`-> impl Recorder`, `f: fn(u64) -> u64`), not item position.
const TYPE_POSITION: &[&str] = &[":", ",", "(", "&", "<", "->", "dyn", "|", "=", "+"];

/// Parse one file into call-graph facts. `scan` must come from the same
/// source the lexical rules saw, so both layers share one test mask.
pub(crate) fn parse_file(path: &str, scan: &Scan<'_>) -> FileFacts {
    let whole_file_test = file_is_test(path);
    let base_modules = file_modules(path);
    let mut facts = FileFacts {
        path: path.to_string(),
        crate_name: crate_of(path),
        file_is_test: whole_file_test,
        fns: Vec::new(),
        crate_mentions: Vec::new(),
    };

    let mut depth = 0usize;
    let mut ctx: Vec<Ctx> = Vec::new();
    let mut s = 0usize;
    let n = scan.sig.len();

    while s < n {
        let text = scan.sig_text(s).to_string();
        let kind = scan.sig_kind(s);

        if kind == Some(TokKind::Ident) && text.starts_with("lrb_") {
            facts.crate_mentions.push(text.clone());
        }

        match text.as_str() {
            "{" => {
                depth += 1;
                s += 1;
                continue;
            }
            "}" => {
                depth = depth.saturating_sub(1);
                while ctx.last().is_some_and(|c| ctx_depth(c) > depth) {
                    ctx.pop();
                }
                s += 1;
                continue;
            }
            "mod" if kind == Some(TokKind::Ident) => {
                let name = scan.sig_text(s + 1).to_string();
                if scan.sig_text(s + 2) == "{" {
                    depth += 1;
                    ctx.push(Ctx::Mod { name, depth });
                    s += 3;
                } else {
                    s += 2;
                }
                continue;
            }
            "trait" if kind == Some(TokKind::Ident) => {
                // `trait Name [<...>] [: Bounds] { ... }` — default methods
                // inside are part of the trait's public surface.
                let name = scan.sig_text(s + 1).to_string();
                let mut u = s + 2;
                while !matches!(scan.sig_text(u), "{" | ";" | "") {
                    u += 1;
                }
                if scan.sig_text(u) == "{" {
                    depth += 1;
                    ctx.push(Ctx::Impl {
                        qualifier: Some(name),
                        trait_like: true,
                        depth,
                    });
                }
                s = u + 1;
                continue;
            }
            "impl"
                if kind == Some(TokKind::Ident)
                    && (s == 0 || !TYPE_POSITION.contains(&scan.sig_text(s - 1))) =>
            {
                if let Some(adv) = parse_impl_header(scan, s, &mut depth, &mut ctx) {
                    s = adv;
                    continue;
                }
                s += 1;
                continue;
            }
            "fn" if kind == Some(TokKind::Ident)
                && (s == 0 || !TYPE_POSITION.contains(&scan.sig_text(s - 1))) =>
            {
                if let Some(adv) = parse_fn_header(
                    scan,
                    s,
                    whole_file_test,
                    &base_modules,
                    &mut depth,
                    &mut ctx,
                    &mut facts.fns,
                ) {
                    s = adv;
                    continue;
                }
                s += 1;
                continue;
            }
            _ => {}
        }

        // Body facts, attributed to the innermost live function.
        let fn_idx = ctx.iter().rev().find_map(|c| match c {
            Ctx::Fn { idx, .. } => Some(*idx),
            _ => None,
        });
        if let Some(idx) = fn_idx {
            if !facts.fns[idx].is_test && !scan.is_test(s) {
                extract_body_fact(scan, s, &mut facts.fns[idx]);
            }
        }
        s += 1;
    }

    facts.crate_mentions.sort();
    facts.crate_mentions.dedup();
    facts
}

fn ctx_depth(c: &Ctx) -> usize {
    match c {
        Ctx::Mod { depth, .. } | Ctx::Impl { depth, .. } | Ctx::Fn { depth, .. } => *depth,
    }
}

/// Parse `impl [<...>] [Trait for] Type [where ...] {`, push an impl
/// context, and return the index just past the opening brace.
fn parse_impl_header(
    scan: &Scan<'_>,
    s: usize,
    depth: &mut usize,
    ctx: &mut Vec<Ctx>,
) -> Option<usize> {
    let mut u = s + 1;
    let mut angle = 0i32;
    let mut qualifier: Option<String> = None;
    let mut trait_like = false;
    loop {
        let t = scan.sig_text(u);
        match t {
            "" => return None,
            "{" if angle <= 0 => break,
            ";" if angle <= 0 => return Some(u + 1), // e.g. inside macros; bail
            "<" => angle += 1,
            ">" => angle -= 1,
            "<<" => angle += 2,
            ">>" => angle -= 2,
            "for" if angle <= 0 => {
                trait_like = true;
                qualifier = None;
            }
            "where" if angle <= 0 => {
                while !matches!(scan.sig_text(u), "{" | "") {
                    u += 1;
                }
                continue;
            }
            _ => {
                if angle <= 0 && scan.sig_kind(u) == Some(TokKind::Ident) && !KEYWORDS.contains(&t)
                {
                    qualifier = Some(t.to_string());
                }
            }
        }
        u += 1;
    }
    *depth += 1;
    ctx.push(Ctx::Impl {
        qualifier,
        trait_like,
        depth: *depth,
    });
    Some(u + 1)
}

/// Parse a `fn` item header, record its [`FnFact`], push a fn context when
/// it has a body, and return the index just past the header.
fn parse_fn_header(
    scan: &Scan<'_>,
    s: usize,
    whole_file_test: bool,
    base_modules: &[String],
    depth: &mut usize,
    ctx: &mut Vec<Ctx>,
    fns: &mut Vec<FnFact>,
) -> Option<usize> {
    let name_tok = scan.sig_tok(s + 1)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let name = name_tok.text.trim_start_matches("r#").to_string();
    let (line, col) = (name_tok.line, name_tok.col);

    // Visibility: walk back over decoration tokens to an optional `pub`.
    let mut j = s;
    let mut is_pub = false;
    while j > 0 {
        j -= 1;
        let t = scan.sig_text(j);
        if matches!(
            t,
            "const" | "unsafe" | "async" | "extern" | ")" | "(" | "crate" | "super" | "in"
        ) || scan.sig_kind(j) == Some(TokKind::Str)
        {
            continue;
        }
        if t == "pub" {
            is_pub = scan.sig_text(j + 1) != "(";
        }
        break;
    }

    // Skip generics after the name.
    let mut u = s + 2;
    if scan.sig_text(u) == "<" {
        let mut angle = 0i32;
        loop {
            match scan.sig_text(u) {
                "" => return None,
                "<" => angle += 1,
                ">" => angle -= 1,
                "<<" => angle += 2,
                ">>" => angle -= 2,
                _ => {}
            }
            u += 1;
            if angle <= 0 {
                break;
            }
        }
    }

    // Parameter list.
    let mut params = Vec::new();
    if scan.sig_text(u) == "(" {
        let mut pd = 0usize;
        loop {
            let t = scan.sig_text(u);
            match t {
                "" => return None,
                "(" => pd += 1,
                ")" => {
                    pd -= 1;
                    if pd == 0 {
                        break;
                    }
                }
                _ => {
                    if pd == 1
                        && scan.sig_kind(u) == Some(TokKind::Ident)
                        && t != "self"
                        && t != "mut"
                        && scan.sig_text(u + 1) == ":"
                    {
                        params.push(t.to_string());
                    }
                }
            }
            u += 1;
        }
        u += 1;
    }

    // Return type / where clause up to the body or a `;` (trait signature).
    while !matches!(scan.sig_text(u), "{" | ";" | "") {
        u += 1;
    }
    let has_body = scan.sig_text(u) == "{";

    let (qualifier, in_trait) = ctx
        .iter()
        .rev()
        .find_map(|c| match c {
            Ctx::Impl {
                qualifier,
                trait_like,
                ..
            } => Some((qualifier.clone(), *trait_like)),
            Ctx::Fn { .. } => Some((None, false)), // nested fn: plain
            _ => None,
        })
        .unwrap_or((None, false));
    let mut modules = base_modules.to_vec();
    for c in ctx.iter() {
        if let Ctx::Mod { name, .. } = c {
            modules.push(name.clone());
        }
    }

    let idx = fns.len();
    fns.push(FnFact {
        name,
        qualifier,
        modules,
        is_pub,
        in_trait,
        is_test: whole_file_test || scan.is_test(s),
        line,
        col,
        params,
        calls: Vec::new(),
        lets: Vec::new(),
        panics: Vec::new(),
        nondet: Vec::new(),
        arith: Vec::new(),
        has_body,
    });

    if has_body {
        *depth += 1;
        ctx.push(Ctx::Fn { idx, depth: *depth });
        Some(u + 1)
    } else {
        Some(u + 1)
    }
}

/// Classify the token at `s` as a body fact for `f`, if it is one.
fn extract_body_fact(scan: &Scan<'_>, s: usize, f: &mut FnFact) {
    let Some(t) = scan.sig_tok(s) else { return };

    if t.kind == TokKind::Punct && matches!(t.text.as_str(), "+" | "-" | "*") {
        extract_arith(scan, s, f);
        return;
    }
    if t.kind != TokKind::Ident {
        return;
    }
    let name = t.text.as_str();

    if name == "let" {
        extract_let(scan, s, f);
        return;
    }

    // Panic sites.
    let is_panic_method = matches!(name, "unwrap" | "expect")
        && s > 0
        && scan.sig_text(s - 1) == "."
        && scan.sig_text(s + 1) == "(";
    let is_panic_macro = matches!(name, "panic" | "unreachable" | "todo" | "unimplemented")
        && scan.sig_text(s + 1) == "!";
    if is_panic_method || is_panic_macro {
        f.panics.push(SiteFact {
            what: format!("{name}{}", if is_panic_macro { "!" } else { "()" }),
            line: t.line,
            col: t.col,
        });
    }

    // Nondeterminism sources.
    match name {
        "HashMap" | "HashSet" => f.nondet.push(SiteFact {
            what: name.to_string(),
            line: t.line,
            col: t.col,
        }),
        "Instant" | "SystemTime"
            if scan.sig_text(s + 1) == "::" && scan.sig_text(s + 2) == "now" =>
        {
            f.nondet.push(SiteFact {
                what: format!("{name}::now()"),
                line: t.line,
                col: t.col,
            });
        }
        _ => {}
    }

    // Call expressions: `name(`, `.name(`, `path::name(`.
    if scan.sig_text(s + 1) == "(" && !KEYWORDS.contains(&name) {
        let kind = if s > 0 && scan.sig_text(s - 1) == "." {
            CallKind::Method
        } else if s > 0 && scan.sig_text(s - 1) == "::" {
            let mut segs = Vec::new();
            let mut j = s;
            while j >= 2
                && scan.sig_text(j - 1) == "::"
                && scan.sig_kind(j - 2) == Some(TokKind::Ident)
            {
                segs.push(scan.sig_text(j - 2).to_string());
                j -= 2;
            }
            segs.reverse();
            CallKind::Path(segs)
        } else {
            CallKind::Bare
        };
        f.calls.push(CallFact {
            kind,
            name: name.to_string(),
            line: t.line,
            col: t.col,
            args: extract_args(scan, s + 1),
        });
    }
}

/// Summarize the argument slots of a call whose `(` sits at `open`.
fn extract_args(scan: &Scan<'_>, open: usize) -> Vec<ArgFact> {
    let mut args = Vec::new();
    let mut cur = ArgFact {
        idents: Vec::new(),
        calls: Vec::new(),
    };
    let mut pd = 0usize;
    let mut saw_any = false;
    let mut u = open;
    // Bounded scan: argument lists longer than this are beyond what the
    // dataflow pass needs.
    let limit = open + 300;
    while u < limit {
        let t = scan.sig_text(u);
        match t {
            "" => break,
            "(" | "[" | "{" => pd += 1,
            ")" | "]" | "}" => {
                pd -= 1;
                if pd == 0 {
                    break;
                }
            }
            "," if pd == 1 => {
                args.push(cur);
                cur = ArgFact {
                    idents: Vec::new(),
                    calls: Vec::new(),
                };
                u += 1;
                continue;
            }
            _ => {
                if pd >= 1 && scan.sig_kind(u) == Some(TokKind::Ident) && !KEYWORDS.contains(&t) {
                    saw_any = true;
                    if scan.sig_text(u + 1) == "(" {
                        cur.calls.push(t.to_string());
                    } else {
                        cur.idents.push(t.to_string());
                    }
                }
            }
        }
        u += 1;
    }
    if saw_any || !args.is_empty() {
        args.push(cur);
    }
    args
}

/// Extract a simple `let [mut] name [: T] = rhs;` binding.
fn extract_let(scan: &Scan<'_>, s: usize, f: &mut FnFact) {
    let mut j = s + 1;
    if scan.sig_text(j) == "mut" {
        j += 1;
    }
    let Some(name_tok) = scan.sig_tok(j) else {
        return;
    };
    if name_tok.kind != TokKind::Ident || KEYWORDS.contains(&name_tok.text.as_str()) {
        return; // destructuring / ref patterns: skipped
    }
    let name = name_tok.text.clone();

    // Find the `=` at bracket depth zero (generic args carry no bare `=`).
    let mut k = j + 1;
    let mut d = 0i32;
    let eq = loop {
        let t = scan.sig_text(k);
        match t {
            "" | ";" => return, // `let x: T;` — no initializer
            "(" | "[" | "{" => d += 1,
            ")" | "]" | "}" => d -= 1,
            "=" if d == 0 => break k,
            _ => {}
        }
        if k > s + 80 {
            return;
        }
        k += 1;
    };

    // Rhs up to the statement's `;` at depth zero.
    let mut idents = Vec::new();
    let mut calls = Vec::new();
    let mut u = eq + 1;
    let mut rd = 0i32;
    while u < eq + 200 {
        let t = scan.sig_text(u);
        match t {
            "" => break,
            ";" if rd == 0 => break,
            "(" | "[" | "{" => rd += 1,
            ")" | "]" | "}" => {
                rd -= 1;
                if rd < 0 {
                    break;
                }
            }
            _ => {
                if scan.sig_kind(u) == Some(TokKind::Ident) && !KEYWORDS.contains(&t) {
                    if scan.sig_text(u + 1) == "(" {
                        calls.push(t.to_string());
                    } else {
                        idents.push(t.to_string());
                    }
                }
            }
        }
        u += 1;
    }
    f.lets.push(LetFact {
        name,
        idents,
        calls,
    });
}

/// Record a binary, non-widened `+`/`-`/`*` with its nearest operand idents.
fn extract_arith(scan: &Scan<'_>, s: usize, f: &mut FnFact) {
    let Some(t) = scan.sig_tok(s) else { return };
    let binary = s > 0
        && scan.sig_tok(s - 1).is_some_and(|p| {
            matches!(p.kind, TokKind::Ident | TokKind::Num) || matches!(p.text.as_str(), ")" | "]")
        });
    if !binary {
        return;
    }
    let widened = (s.saturating_sub(5)..s)
        .chain(s + 1..(s + 6).min(scan.sig.len()))
        .any(|k| matches!(scan.sig_text(k), "u128" | "i128" | "f64" | "f32"));
    if widened {
        return;
    }
    let mut operands = Vec::new();
    if let Some(p) = (s.saturating_sub(3)..s)
        .rev()
        .filter_map(|k| scan.sig_tok(k))
        .find(|t| t.kind == TokKind::Ident)
    {
        operands.push(p.text.clone());
    }
    if let Some(nx) = (s + 1..(s + 4).min(scan.sig.len()))
        .filter_map(|k| scan.sig_tok(k))
        .find(|t| t.kind == TokKind::Ident)
    {
        operands.push(nx.text.clone());
    }
    f.arith.push(ArithFact {
        op: t.text.clone(),
        operands,
        line: t.line,
        col: t.col,
    });
}
