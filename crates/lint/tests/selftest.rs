//! Selftests for the lint pass: every rule fires on a bad fixture and
//! stays silent on a good one, pragma semantics are exact, and the
//! lexer survives the corners of Rust's literal syntax. A final test
//! lints the real workspace and requires it clean — the same gate CI
//! runs through `repro --lint`.

use sno_check::prelude::*;
use sno_lint::lexer::{lex, TokenKind};
use sno_lint::manifest::lint_manifest;
use sno_lint::parse::{self, ItemKind};
use sno_lint::rules::{analyze, lint_source};
use sno_lint::{graph, pragma, Diagnostic};

/// Rules fired by `lint_source`, in report order.
fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

// ---------------------------------------------------------------------
// Lexer edge cases
// ---------------------------------------------------------------------

#[test]
fn lexer_raw_strings_with_hashes() {
    let lexed = lex(r####"let s = r##"quote "# inside"##;"####);
    let strs: Vec<_> = lexed
        .tokens
        .iter()
        .filter(|t| matches!(t.kind, TokenKind::Str(_)))
        .collect();
    assert_eq!(
        strs.len(),
        1,
        "one raw string token, got {:?}",
        lexed.tokens
    );
    // Nothing inside the raw string may surface as an identifier.
    assert!(!lexed.tokens.iter().any(|t| t.is_ident("quote")));
    assert!(!lexed.tokens.iter().any(|t| t.is_ident("inside")));
}

#[test]
fn lexer_byte_and_raw_byte_strings() {
    let lexed = lex(r###"let a = b"bytes"; let b = br#"raw bytes"#; let c = b'x';"###);
    let strs = lexed
        .tokens
        .iter()
        .filter(|t| matches!(t.kind, TokenKind::Str(_)))
        .count();
    let chars = lexed
        .tokens
        .iter()
        .filter(|t| matches!(t.kind, TokenKind::Char(_)))
        .count();
    assert_eq!(strs, 2);
    assert_eq!(chars, 1);
}

#[test]
fn lexer_nested_block_comments() {
    let lexed = lex("/* outer /* inner */ still comment */ fn after() {}");
    assert!(lexed.tokens.iter().any(|t| t.is_ident("after")));
    assert!(!lexed.tokens.iter().any(|t| t.is_ident("inner")));
    assert!(!lexed.tokens.iter().any(|t| t.is_ident("still")));
    assert_eq!(lexed.comments.len(), 1);
    assert!(lexed.comments[0].text.contains("inner"));
}

#[test]
fn lexer_lifetimes_vs_char_literals() {
    let lexed =
        lex(r"fn f<'a>(x: &'a u8) { let c = 'x'; let nl = '\n'; let s: &'static str = ...; }");
    let lifetimes: Vec<String> = lexed
        .tokens
        .iter()
        .filter_map(|t| match &t.kind {
            TokenKind::Lifetime(n) => Some(n.clone()),
            _ => None,
        })
        .collect();
    let chars = lexed
        .tokens
        .iter()
        .filter(|t| matches!(t.kind, TokenKind::Char(_)))
        .count();
    assert_eq!(lifetimes, ["a", "a", "static"]);
    assert_eq!(chars, 2, "'x' and '\\n' are chars, not lifetimes");
}

#[test]
fn lexer_numbers_and_method_calls_on_ints() {
    // `1.max(2)` must not lex `1.` as a float, and `0..n` must keep the
    // range dots out of the number.
    let lexed = lex("let a = 1.max(2); for i in 0..n {} let f = 1.5e3;");
    let ints: Vec<String> = lexed
        .tokens
        .iter()
        .filter_map(|t| match &t.kind {
            TokenKind::Int(s) => Some(s.clone()),
            _ => None,
        })
        .collect();
    let floats: Vec<String> = lexed
        .tokens
        .iter()
        .filter_map(|t| match &t.kind {
            TokenKind::Float(s) => Some(s.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(ints, ["1", "2", "0"]);
    assert_eq!(floats, ["1.5e3"]);
    assert!(lexed.tokens.iter().any(|t| t.is_ident("max")));
}

#[test]
fn lexer_tracks_lines_and_never_panics_on_unterminated() {
    let lexed = lex("fn a() {}\nfn b() {}\n");
    let b = lexed.tokens.iter().find(|t| t.is_ident("b")).unwrap();
    assert_eq!(b.line, 2);
    // Unterminated literals and comments swallow the rest of the file.
    for src in ["let s = \"open", "let c = '", "/* open", "let r = r#\"open"] {
        let lexed = lex(src);
        assert!(!lexed.tokens.iter().any(|t| t.is_ident("open")));
    }
}

#[test]
fn lexer_raw_identifiers_are_single_tokens() {
    // `r#type` is one identifier whose span covers the whole `r#type`
    // spelling; the `#` must never surface as punctuation between an
    // `r` ident and a keyword.
    let lexed = lex("struct r#type { r#fn: u8 } fn r#match() {}");
    for name in ["type", "fn", "match"] {
        // The bare `fn` keyword also lexes as an ident named "fn", so
        // pick out the raw spelling by its span: `r#name` is two bytes
        // longer than `name`.
        let raw: Vec<_> = lexed
            .tokens
            .iter()
            .filter(|t| t.is_ident(name) && t.hi - t.lo == name.len() + 2)
            .collect();
        assert_eq!(raw.len(), 1, "r#{name} should lex as one ident");
    }
    // No `#` survives as punctuation: both hashes belong to raw idents.
    assert!(!lexed.tokens.iter().any(|t| t.is_punct('#')));
    // `r#"…"#` with a quote after the hashes is still a raw string.
    let lexed = lex(r###"let s = r#"not an ident"#;"###);
    assert!(!lexed.tokens.iter().any(|t| t.is_ident("not")));
    assert_eq!(
        lexed
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::Str(_)))
            .count(),
        1
    );
}

#[test]
fn lexer_skips_leading_shebang_only() {
    let lexed = lex("#!/usr/bin/env sno\nfn main() {}\n");
    assert!(lexed.tokens.iter().any(|t| t.is_ident("main")));
    assert!(!lexed.tokens.iter().any(|t| t.is_ident("env")));
    assert_eq!(lexed.tokens[0].line, 2, "tokens start after the shebang");
    // An inner attribute `#![…]` is not a shebang and must still lex.
    let attr = lex("#![allow(dead_code)]\nfn f() {}\n");
    assert!(attr.tokens.iter().any(|t| t.is_ident("allow")));
    // Rules see code after a shebang as usual.
    let src = "#!/usr/bin/env sno\nfn f() { let t = Instant::now(); }\n";
    assert_eq!(rules_of(&lint_source("src/main.rs", src)), ["wall-clock"]);
}

#[test]
fn pragma_inside_string_is_not_a_pragma() {
    let src = r#"fn f() { let s = "// sno-lint: allow(wall-clock): nope"; }"#;
    let lexed = lex(src);
    assert!(lexed.comments.is_empty(), "string mistaken for a comment");
    let (pragmas, bad) = pragma::extract(&lexed.comments);
    assert!(pragmas.is_empty() && bad.is_empty());
}

#[test]
fn banned_idents_inside_strings_and_comments_do_not_fire() {
    let src = concat!(
        "// SystemTime::now() is what we ban\n",
        "/* thread_rng too */\n",
        "fn f() -> &'static str { \"Instant::now() HashMap thread_rng\" }\n",
    );
    assert_eq!(lint_source("crates/core/src/demo.rs", src), []);
}

// ---------------------------------------------------------------------
// Rule fixtures: each fires on bad, stays silent on good
// ---------------------------------------------------------------------

#[test]
fn rule_wall_clock_fires_and_scopes() {
    let bad = "fn f() { let t = std::time::Instant::now(); }";
    assert_eq!(
        rules_of(&lint_source("crates/core/src/x.rs", bad)),
        ["wall-clock"]
    );
    let bad2 = "fn f() { let t = SystemTime::now(); }";
    assert_eq!(rules_of(&lint_source("src/main.rs", bad2)), ["wall-clock"]);
    // Bench code times things by design; tests answer to the suites.
    assert_eq!(lint_source("crates/bench/src/x.rs", bad), []);
    assert_eq!(lint_source("crates/core/benches/x.rs", bad), []);
    assert_eq!(lint_source("crates/core/tests/x.rs", bad), []);
    // `Instant` without `::now` is fine (e.g. taking one as an argument).
    assert_eq!(
        lint_source("crates/core/src/x.rs", "fn f(t: Instant) {}"),
        []
    );
}

#[test]
fn rule_ambient_rng_fires_everywhere() {
    for src in [
        "fn f() { let mut r = thread_rng(); }",
        "fn f() { let r = Rng::from_entropy(); }",
        "fn f() { let r = OsRng; }",
    ] {
        assert_eq!(
            rules_of(&lint_source("crates/apps/src/x.rs", src)),
            ["ambient-rng"]
        );
        // Tests included: an unseeded test cannot be replayed.
        assert_eq!(
            rules_of(&lint_source("crates/apps/tests/x.rs", src)),
            ["ambient-rng"]
        );
    }
    let good = "fn f() { let mut r = Rng::new(42).substream_named(\"demo\"); }";
    assert_eq!(lint_source("crates/apps/src/x.rs", good), []);
}

#[test]
fn rule_unordered_iter_fires_in_deterministic_crates_only() {
    let bad = "use std::collections::HashMap; fn f() { let m: HashMap<u32, u32> = ...; }";
    let diags = lint_source("crates/core/src/x.rs", bad);
    assert!(rules_of(&diags).iter().all(|r| *r == "unordered-iter"));
    assert!(!diags.is_empty());
    // The online identifier and the statistics toolkit are covered too:
    // their state must merge deterministically.
    for path in [
        "crates/core/src/online.rs",
        "crates/stats/src/x.rs",
        "crates/bgp/src/x.rs",
    ] {
        let diags = lint_source(path, bad);
        assert!(!diags.is_empty(), "{path} must be covered");
        assert!(rules_of(&diags).iter().all(|r| *r == "unordered-iter"));
    }
    // Non-deterministic crates and the root package may use hashing.
    assert_eq!(lint_source("crates/check/src/x.rs", bad), []);
    assert_eq!(lint_source("src/lib.rs", bad), []);
    let good = "use std::collections::BTreeMap; fn f() { let m: BTreeMap<u32, u32> = ...; }";
    assert_eq!(lint_source("crates/core/src/x.rs", good), []);
}

#[test]
fn rule_unlabelled_substream_fires_on_magic_numbers() {
    let bad_named = "fn f(r: &Rng) { let s = r.substream_named(label); }";
    assert_eq!(
        rules_of(&lint_source("crates/synth/src/x.rs", bad_named)),
        ["unlabelled-substream"]
    );
    let bad_magic = "fn f(r: &Rng) { let s = r.substream(7); }";
    assert_eq!(
        rules_of(&lint_source("crates/synth/src/x.rs", bad_magic)),
        ["unlabelled-substream"]
    );
    let bad_chain = "fn f(r: &Rng) { let s = r.substream_chain(&[3, 1]); }";
    assert_eq!(
        rules_of(&lint_source("crates/synth/src/x.rs", bad_chain)),
        ["unlabelled-substream"]
    );
    // String-literal labels and data-derived indices are the two
    // sanctioned spellings.
    let good = concat!(
        "fn f(r: &Rng, id: ProbeId, i: u64) {\n",
        "    let a = r.substream_named(\"mlab\");\n",
        "    let b = r.substream(u64::from(id.0));\n",
        "    let c = r.substream_chain(&[u64::from(id.0), i]);\n",
        "}\n",
    );
    assert_eq!(lint_source("crates/synth/src/x.rs", good), []);
    // Tests may use ad-hoc numeric streams.
    assert_eq!(lint_source("crates/synth/tests/x.rs", bad_magic), []);
}

#[test]
fn rule_unwrap_in_lib_fires_and_exempts() {
    let bad = "fn f(v: &[u8]) -> u8 { *v.first().unwrap() }";
    assert_eq!(
        rules_of(&lint_source("crates/stats/src/x.rs", bad)),
        ["unwrap-in-lib"]
    );
    let bad2 = "fn f(v: &[u8]) -> u8 { *v.first().expect(\"nonempty\") }";
    assert_eq!(
        rules_of(&lint_source("crates/stats/src/x.rs", bad2)),
        ["unwrap-in-lib"]
    );
    // Tests, benches, and examples may unwrap.
    for path in [
        "crates/stats/tests/x.rs",
        "crates/stats/benches/x.rs",
        "crates/stats/examples/x.rs",
        "tests/integration.rs",
    ] {
        assert_eq!(lint_source(path, bad), [], "{path} should be exempt");
    }
    // Whole-ident matching: `unwrap_or_else` is not `unwrap`.
    let good = "fn f(v: &[u8]) -> u8 { v.first().copied().unwrap_or_else(|| 0) }";
    assert_eq!(lint_source("crates/stats/src/x.rs", good), []);
}

#[test]
fn cfg_test_regions_are_exempt_but_not_cfg_not_test() {
    let masked = concat!(
        "pub fn f() {}\n",
        "#[cfg(test)]\n",
        "mod tests {\n",
        "    #[test]\n",
        "    fn t() { let x = Some(1).unwrap(); let t = Instant::now(); }\n",
        "}\n",
    );
    assert_eq!(lint_source("crates/core/src/x.rs", masked), []);
    let not_masked = concat!(
        "#[cfg(not(test))]\n",
        "pub fn f() { let x = Some(1).unwrap(); }\n",
    );
    assert_eq!(
        rules_of(&lint_source("crates/core/src/x.rs", not_masked)),
        ["unwrap-in-lib"]
    );
}

#[test]
fn rule_hermetic_manifest_fires_on_non_path_deps() {
    let bad = concat!(
        "[package]\nname = \"demo\"\n",
        "[dependencies]\n",
        "serde = \"1.0\"\n",
        "rand = { version = \"0.8\" }\n",
        "left-pad = { git = \"https://example.com/left-pad\" }\n",
    );
    let diags = lint_manifest("crates/demo/Cargo.toml", bad);
    assert_eq!(rules_of(&diags), ["hermetic-manifest"; 3]);
    let good = concat!(
        "[package]\nname = \"demo\"\n",
        "[dependencies]\n",
        "sno-types = { path = \"../types\" }\n",
        "sno-stats.workspace = true\n",
        "sno-core = { workspace = true }\n",
        "[dev-dependencies]\n",
        "sno-check.workspace = true\n",
    );
    assert_eq!(lint_manifest("crates/demo/Cargo.toml", good), []);
    // Non-dependency sections are not the rule's business.
    let unrelated = "[package]\nname = \"demo\"\nversion = \"0.1.0\"\n";
    assert_eq!(lint_manifest("Cargo.toml", unrelated), []);
}

// ---------------------------------------------------------------------
// Pragma semantics
// ---------------------------------------------------------------------

#[test]
fn own_line_pragma_suppresses_next_line() {
    let src = concat!(
        "fn f(v: &[u8]) -> u8 {\n",
        "    // sno-lint: allow(unwrap-in-lib): caller guarantees nonempty\n",
        "    *v.first().unwrap()\n",
        "}\n",
    );
    assert_eq!(lint_source("crates/core/src/x.rs", src), []);
}

#[test]
fn trailing_pragma_suppresses_own_line() {
    let src = concat!(
        "fn f(v: &[u8]) -> u8 {\n",
        "    *v.first().unwrap() // sno-lint: allow(unwrap-in-lib): checked above\n",
        "}\n",
    );
    assert_eq!(lint_source("crates/core/src/x.rs", src), []);
}

#[test]
fn pragma_does_not_reach_past_its_target_line() {
    let src = concat!(
        "fn f(v: &[u8]) -> u8 {\n",
        "    // sno-lint: allow(unwrap-in-lib): only excuses line 3\n",
        "    let a = *v.first().unwrap();\n",
        "    a + *v.last().unwrap()\n",
        "}\n",
    );
    let diags = lint_source("crates/core/src/x.rs", src);
    assert_eq!(rules_of(&diags), ["unwrap-in-lib"]);
    assert_eq!(diags[0].line, 4);
}

#[test]
fn pragma_missing_justification_is_bad() {
    for pragma_line in [
        "// sno-lint: allow(unwrap-in-lib)\n",
        "// sno-lint: allow(unwrap-in-lib):\n",
        "// sno-lint: allow(unwrap-in-lib):   \n",
        "// sno-lint: allow(): no rule\n",
        "// sno-lint: deny(unwrap-in-lib): wrong verb\n",
    ] {
        let src =
            format!("fn f(v: &[u8]) -> u8 {{\n    {pragma_line}    *v.first().unwrap()\n}}\n");
        let diags = lint_source("crates/core/src/x.rs", &src);
        assert!(
            diags.iter().any(|d| d.rule == "bad-pragma"),
            "{pragma_line:?} produced {diags:?}"
        );
        // A malformed pragma suppresses nothing.
        assert!(diags.iter().any(|d| d.rule == "unwrap-in-lib"));
    }
}

#[test]
fn pragma_naming_unknown_rule_is_bad() {
    let src = concat!(
        "// sno-lint: allow(no-such-rule): justified at length\n",
        "fn f() {}\n",
    );
    let diags = lint_source("crates/core/src/x.rs", src);
    assert_eq!(rules_of(&diags), ["bad-pragma"]);
    assert!(diags[0].message.contains("no-such-rule"));
}

#[test]
fn unused_pragma_is_reported() {
    let src = concat!(
        "// sno-lint: allow(unwrap-in-lib): nothing to excuse here\n",
        "fn f() {}\n",
    );
    let diags = lint_source("crates/core/src/x.rs", src);
    assert_eq!(rules_of(&diags), ["unused-pragma"]);
}

#[test]
fn doc_comments_do_not_carry_pragmas() {
    // A pragma spelled in a doc comment would render into rustdoc, so
    // it is inert: it neither suppresses nor reports.
    let src = concat!(
        "/// sno-lint: allow(unwrap-in-lib): not a real pragma\n",
        "fn f(v: &[u8]) -> u8 { *v.first().unwrap() }\n",
    );
    assert_eq!(
        rules_of(&lint_source("crates/core/src/x.rs", src)),
        ["unwrap-in-lib"]
    );
}

#[test]
fn multi_rule_pragma_suppresses_each_listed_rule() {
    let src = concat!(
        "fn f(v: &[u8]) -> u8 {\n",
        "    // sno-lint: allow(unwrap-in-lib, wall-clock): fixture exercising both rules at once\n",
        "    let _t = Instant::now(); *v.first().unwrap()\n",
        "}\n",
    );
    assert_eq!(lint_source("crates/core/src/x.rs", src), []);
}

#[test]
fn multi_rule_pragma_tracks_unused_rules_independently() {
    // Only the unwrap fires: the wall-clock half of the pragma is dead
    // weight and must be reported as such, without disturbing the half
    // that did suppress something.
    let src = concat!(
        "fn f(v: &[u8]) -> u8 {\n",
        "    // sno-lint: allow(unwrap-in-lib, wall-clock): only the unwrap fires\n",
        "    *v.first().unwrap()\n",
        "}\n",
    );
    let diags = lint_source("crates/core/src/x.rs", src);
    assert_eq!(rules_of(&diags), ["unused-pragma"]);
    assert!(diags[0].message.contains("allow(wall-clock)"));
    assert!(!diags[0].message.contains("unwrap-in-lib"));
}

#[test]
fn multi_rule_pragma_with_unknown_member_still_suppresses_known() {
    let src = concat!(
        "fn f(v: &[u8]) -> u8 {\n",
        "    // sno-lint: allow(unwrap-in-lib, no-such-rule): half right\n",
        "    *v.first().unwrap()\n",
        "}\n",
    );
    let diags = lint_source("crates/core/src/x.rs", src);
    assert_eq!(rules_of(&diags), ["bad-pragma"]);
    assert!(diags[0].message.contains("no-such-rule"));
}

// ---------------------------------------------------------------------
// Item parser (PR 9)
// ---------------------------------------------------------------------

#[test]
fn parser_indexes_items_with_nesting_and_test_attribution() {
    let src = concat!(
        "pub fn top() {}\n",
        "mod inner {\n",
        "    struct Widget;\n",
        "    impl Widget {\n",
        "        pub(crate) fn method(&self) {}\n",
        "    }\n",
        "}\n",
        "#[cfg(test)]\n",
        "mod tests {\n",
        "    #[test]\n",
        "    fn t() {}\n",
        "}\n",
    );
    let lexed = lex(src);
    let tree = parse::parse(&lexed);
    let find = |name: &str| {
        tree.walk()
            .into_iter()
            .map(|id| &tree.items[id])
            .find(|it| it.name == name)
            .unwrap_or_else(|| panic!("item {name} not indexed"))
    };
    let top = find("top");
    assert_eq!(top.kind, ItemKind::Fn);
    assert!(top.is_pub && !top.is_test);
    assert_eq!(top.line, 1);
    let method = find("method");
    assert_eq!(method.kind, ItemKind::Fn);
    assert!(method.is_pub && !method.is_test, "pub(crate) counts as pub");
    assert_eq!(find("Widget").kind, ItemKind::Struct);
    assert!(find("tests").is_test, "#[cfg(test)] mod is a test region");
    assert!(find("t").is_test, "items inherit the enclosing test region");
}

/// Alphabet for parser property tests: enough to spell `fn`, `mod`,
/// `impl`, attributes, braces, and string/comment introducers, so
/// generated soup regularly forms partial items.
const PARSER_ALPHABET: &str = "fn modimpluse tcfg#[]{}();!\"'/*r\n";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parser is total and its spans partition the file: walking
    /// the item tree yields well-nested spans that tile `0..len` with
    /// no gap and no overlap, whatever soup comes in.
    #[test]
    fn parser_spans_partition_every_byte(src in prop::string::string(PARSER_ALPHABET, 0..120)) {
        let lexed = lex(&src);
        let tree = parse::parse(&lexed);
        let parts = parse::span_partition(&tree, src.len());
        let parts = parts.expect("item spans must be consistent");
        let mut at = 0usize;
        for &(lo, hi, _inside) in &parts {
            prop_assert_eq!(lo, at, "gap or overlap at byte {}", at);
            prop_assert!(hi >= lo);
            at = hi;
        }
        prop_assert_eq!(at, src.len(), "partition must reach the end");
    }

    /// Full-file analysis (lex + parse + every rule) is total on soup
    /// from the parser alphabet too, wherever the file sits.
    #[test]
    fn analyze_never_panics(
        src in prop::string::string(PARSER_ALPHABET, 0..120),
        pick in 0..3usize,
    ) {
        let path = ["crates/core/src/x.rs", "crates/bench/src/experiments.rs", "src/main.rs"][pick];
        let _ = lint_source(path, &src);
    }
}

// ---------------------------------------------------------------------
// Call graph (PR 9)
// ---------------------------------------------------------------------

/// Fixture files for graph tests, analysed in the order given.
fn graph_fixture(order: &[usize]) -> String {
    let files = [
        ("crates/core/src/a.rs", "pub fn alpha() { beta(); }\n"),
        (
            "crates/core/src/b.rs",
            "pub fn beta() { gamma(); }\npub fn gamma() {}\n",
        ),
        (
            "crates/synth/src/c.rs",
            "pub struct Gen;\nimpl Gen {\n    pub fn emit(&self) { beta(); }\n}\n",
        ),
    ];
    let analysed: Vec<_> = order
        .iter()
        .map(|&i| analyze(files[i].0, files[i].1))
        .collect();
    graph::render_json(&graph::build(&analysed))
}

#[test]
fn graph_json_is_deterministic_and_file_order_independent() {
    let canonical = graph_fixture(&[0, 1, 2]);
    assert_eq!(canonical, graph_fixture(&[0, 1, 2]), "two runs differ");
    assert_eq!(canonical, graph_fixture(&[2, 1, 0]), "reversal leaks in");
    assert_eq!(canonical, graph_fixture(&[1, 2, 0]), "rotation leaks in");
    assert!(canonical.contains("\"version\": \"sno-lint-graph-v1\""));
    assert!(canonical.contains("crates/core/src/a.rs::alpha"));
    // The method call resolves by name: Gen::emit -> beta.
    assert!(canonical.contains("Gen"));
}

#[test]
fn workspace_graph_json_is_byte_identical_across_runs() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let a = sno_lint::graph_workspace_json(&root).expect("graph scan");
    let b = sno_lint::graph_workspace_json(&root).expect("graph scan");
    assert_eq!(a, b);
    assert!(a.contains("\"version\": \"sno-lint-graph-v1\""));
    assert!(a.contains("Pipeline"), "service entry types must appear");
}

// ---------------------------------------------------------------------
// Flow-aware rules (PR 9): each fires on bad, stays silent on good
// ---------------------------------------------------------------------

#[test]
fn rule_panic_reachable_fires_at_the_root() {
    let bad = concat!(
        "pub struct Pipeline;\n",
        "impl Pipeline {\n",
        "    pub fn run(&self) { helper(); }\n",
        "}\n",
        "fn helper() { inner(); }\n",
        "fn inner() { panic!(\"boom\"); }\n",
    );
    let diags = lint_source("crates/core/src/probe.rs", bad);
    assert_eq!(rules_of(&diags), ["panic-reachable"]);
    assert_eq!(diags[0].line, 3, "anchored at the entry point's fn line");
    assert!(diags[0]
        .message
        .contains("Pipeline::run -> helper -> inner"));
    assert!(diags[0].message.contains("panic!"));
}

#[test]
fn rule_panic_reachable_ignores_unreachable_panics() {
    // The panic exists but no entry point can reach it; `helper` has no
    // callers among the roots.
    let good = concat!(
        "pub struct Pipeline;\n",
        "impl Pipeline {\n",
        "    pub fn run(&self) {}\n",
        "}\n",
        "fn orphan() { panic!(\"never reached from a root\"); }\n",
    );
    assert_eq!(lint_source("crates/core/src/probe.rs", good), []);
}

#[test]
fn rule_panic_reachable_justified_at_the_root() {
    let src = concat!(
        "pub struct Pipeline;\n",
        "impl Pipeline {\n",
        "    // sno-lint: allow(panic-reachable): fixture invariant is validated upstream\n",
        "    pub fn run(&self) { inner(); }\n",
        "}\n",
        "fn inner() { panic!(\"boom\"); }\n",
    );
    assert_eq!(lint_source("crates/core/src/probe.rs", src), []);
}

#[test]
fn rule_rng_escape_fires_on_shard_index_params() {
    let bad = "pub fn jitter(rng: &mut Rng, shard: usize) -> u64 { rng.next_u64() }";
    let diags = lint_source("crates/synth/src/x.rs", bad);
    assert_eq!(rules_of(&diags), ["rng-escape"]);
    assert!(diags[0].message.contains("substream_shard(shard)"));
    // Suffix form and reversed parameter order both count.
    let bad2 = "fn fill(mlab_shard: usize, r: Rng) {}";
    assert_eq!(
        rules_of(&lint_source("crates/synth/src/x.rs", bad2)),
        ["rng-escape"]
    );
    // A chunk *length* is a delivery knob, not an identity; and a shard
    // index without an Rng is the normal sharded-map shape.
    for good in [
        "pub fn gen(rng: &mut Rng, chunk_len: usize) {}",
        "pub fn slice(shard: usize, len: usize) {}",
        "pub fn derive(rng: &Rng) -> Rng { rng.substream_named(\"x\") }",
    ] {
        assert_eq!(lint_source("crates/synth/src/x.rs", good), [], "{good}");
    }
    // Tests may wire fixtures however they like.
    assert_eq!(lint_source("crates/synth/tests/x.rs", bad), []);
}

#[test]
fn rule_float_fold_order_fires_on_merge_callbacks() {
    let bad = concat!(
        "pub fn collect(stream: Stream, threads: usize) -> f64 {\n",
        "    par_fold_chunks(stream, threads, 0.0,\n",
        "        |chunk| chunk.len() as f64,\n",
        "        |mut acc, part| { acc += part; acc })\n",
        "}\n",
    );
    let diags = lint_source("crates/core/src/x.rs", bad);
    assert_eq!(rules_of(&diags), ["float-fold-order"]);
    assert_eq!(diags[0].line, 4, "anchored at the merge closure");
    // `.sum()` in the merge counts too.
    let bad_sum = concat!(
        "pub fn total(n: usize, t: usize) -> f64 {\n",
        "    shard_reduce(n, t, |i| i as f64, 0.0, |acc: f64, p| [acc, p].iter().sum())\n",
        "}\n",
    );
    assert_eq!(
        rules_of(&lint_source("crates/core/src/x.rs", bad_sum)),
        ["float-fold-order"]
    );
    // The blessed shape merges through an in-order accumulator.
    let good = concat!(
        "pub fn collect(stream: Stream, threads: usize) -> Stats {\n",
        "    par_fold_chunks(stream, threads, Stats::default(),\n",
        "        |chunk| Stats::of(chunk),\n",
        "        |mut acc, part| { acc.merge(part); acc })\n",
        "}\n",
    );
    assert_eq!(lint_source("crates/core/src/x.rs", good), []);
    // A single closure is a plain fold, not a map + merge pair.
    let single = "pub fn f(s: S, t: usize) -> f64 { par_fold_chunks(s, t, 0.0, |acc: f64| acc) }";
    assert_eq!(lint_source("crates/core/src/x.rs", single), []);
    // Dev-tool crates may fold floats however they like.
    assert_eq!(lint_source("crates/check/src/x.rs", bad), []);
}

// ---------------------------------------------------------------------
// Report plumbing
// ---------------------------------------------------------------------

#[test]
fn diagnostics_sort_stably_and_render_json() {
    let src = concat!(
        "fn f(v: &[u8]) -> u8 { let t = Instant::now(); *v.first().unwrap() }\n",
        "fn g() { let r = thread_rng(); }\n",
    );
    let diags = lint_source("crates/core/src/x.rs", src);
    // Same file: line-major, then rule name; line 1 has two rules.
    assert_eq!(
        rules_of(&diags),
        ["unwrap-in-lib", "wall-clock", "ambient-rng"]
    );
    assert_eq!(diags[0].line, 1);
    assert_eq!(diags[2].line, 2);
    let json = sno_lint::diag::render_json(&diags);
    assert!(json.contains("\"count\": 3"));
    assert!(json.contains("\"rule\": \"wall-clock\""));
    assert!(json.contains("\"file\": \"crates/core/src/x.rs\""));
}

#[test]
fn baseline_delta_ratchets_upward_only() {
    let base = concat!(
        "{\n",
        "  \"rule_counts\": {\"wall-clock\": 1, \"unwrap-in-lib\": 2},\n",
        "  \"suppressed\": {\"panic-reachable\": 3}\n",
        "}\n",
    );
    // Any count increase — diagnostics or justified suppressions — is a
    // regression; the ratchet only turns one way.
    let worse = concat!(
        "{\n",
        "  \"rule_counts\": {\"wall-clock\": 2, \"unwrap-in-lib\": 2},\n",
        "  \"suppressed\": {\"panic-reachable\": 3}\n",
        "}\n",
    );
    let (delta, regressed) = sno_lint::baseline_delta(worse, base);
    assert!(regressed);
    assert!(delta
        .iter()
        .any(|l| l.contains("wall-clock") && l.contains("+1")));
    let more_suppressed = concat!(
        "{\n",
        "  \"rule_counts\": {\"wall-clock\": 1, \"unwrap-in-lib\": 2},\n",
        "  \"suppressed\": {\"panic-reachable\": 4}\n",
        "}\n",
    );
    let (_, regressed) = sno_lint::baseline_delta(more_suppressed, base);
    assert!(
        regressed,
        "new justified suppressions also turn the ratchet"
    );
    // Shrinking a count prints the delta but passes.
    let better = concat!(
        "{\n",
        "  \"rule_counts\": {\"wall-clock\": 0, \"unwrap-in-lib\": 2},\n",
        "  \"suppressed\": {\"panic-reachable\": 3}\n",
        "}\n",
    );
    let (delta, regressed) = sno_lint::baseline_delta(better, base);
    assert!(!regressed);
    assert_eq!(delta.len(), 1);
    // Identical reports produce no delta at all.
    let (delta, regressed) = sno_lint::baseline_delta(base, base);
    assert!(delta.is_empty() && !regressed);
    // A rule unknown to the baseline counts from zero.
    let new_rule = concat!(
        "{\n",
        "  \"rule_counts\": {\"wall-clock\": 1, \"unwrap-in-lib\": 2, \"brand-new\": 1},\n",
        "  \"suppressed\": {\"panic-reachable\": 3}\n",
        "}\n",
    );
    let (_, regressed) = sno_lint::baseline_delta(new_rule, base);
    assert!(regressed);
}

#[test]
fn workspace_is_lint_clean() {
    // The same gate CI runs through `repro --lint`: the real tree must
    // carry zero unjustified diagnostics.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let report = sno_lint::lint_workspace(&root).expect("workspace scan");
    assert!(
        report.passed(),
        "workspace has lint diagnostics:\n{}",
        report.render_text()
    );
    assert!(report.sources_scanned > 50, "walk found too few sources");
    assert!(
        report.manifests_scanned > 10,
        "walk found too few manifests"
    );
}

// ---------------------------------------------------------------------
// Property tests (sno-check harness)
// ---------------------------------------------------------------------

/// Characters that exercise every lexer mode: quotes, escapes, raw
/// string hashes, comment introducers, braces, and newlines.
const LEXER_ALPHABET: &str = "ab r#\"'\\/*!.x0\n(){}[];:";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The lexer is total: any byte soup lexes without panicking, and
    /// every token line stays within the input's line count.
    #[test]
    fn lexer_never_panics(src in prop::string::string(LEXER_ALPHABET, 0..80)) {
        let lexed = lex(&src);
        let lines = src.lines().count().max(1) as u32;
        prop_assert!(lexed.tokens.iter().all(|t| t.line >= 1 && t.line <= lines));
        prop_assert!(lexed.comments.iter().all(|c| c.line >= 1 && c.line <= lines));
    }

    /// The whole per-file pass is total too, wherever the file sits.
    #[test]
    fn lint_source_never_panics(
        src in prop::string::string(LEXER_ALPHABET, 0..80),
        pick in 0..4usize,
    ) {
        let path = ["crates/core/src/x.rs", "crates/core/tests/x.rs", "src/main.rs", "crates/bench/src/x.rs"][pick];
        let _ = lint_source(path, &src);
    }

    /// Lexing is source-faithful for identifiers: an ident written as
    /// plain code always comes back as one token (flat-map builds the
    /// source from a generated name length).
    #[test]
    fn idents_round_trip(
        name in (1..12usize).prop_flat_map(|n| prop::string::string("abcdefgh_", n..n + 1)),
    ) {
        let src = format!("fn {} () {{}}", name.value);
        let lexed = lex(&src);
        prop_assert!(lexed.tokens.iter().any(|t| t.is_ident(&name.value)));
    }
}
