//! The invariant rules `nvc-lint` enforces, over the token stream from
//! [`crate::lexer`]:
//!
//! 1. **order-comment** — every *atomic* `Ordering::` use-site
//!    (`Relaxed`/`Acquire`/`Release`/`AcqRel`/`SeqCst`; `std::cmp`'s
//!    `Ordering::Equal` is not flagged) must carry a `// order:`
//!    justification on the same line or within the two lines above.
//! 2. **wallclock** — no `Instant`, `SystemTime` or `epoch_micros` in
//!    the deterministic crates, outside the config allowlist.
//! 3. **serve-ratchet** — panic-family call sites in
//!    `crates/serve/src` non-test code are counted and compared to the
//!    checked-in ceiling; the count may only go down.
//! 4. **lock-order** — within a function, a classified lock may not be
//!    acquired while a later-level lock is held (declared hierarchy:
//!    registry → broadcast → ring → conn).
//! 5. **no-unsafe** — the `unsafe` keyword is banned outright, and
//!    every crate-root file (`src/lib.rs`, `src/main.rs`, `src/bin/*`,
//!    `examples/*`) must carry `#![forbid(unsafe_code)]` so the ban is
//!    also compiler-enforced for every build target.

use crate::config::Config;
use crate::lexer::{self, Tok, TokKind};

/// The five memory orderings of `std::sync::atomic::Ordering`. Matching
/// these — and not `Equal`/`Less`/`Greater` — is what keeps
/// `std::cmp::Ordering` sites out of rule 1.
pub const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

const PANIC_BANGS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// One finding, formatted by the binary as `file:line: [rule] message`.
#[derive(Debug)]
pub struct Diag {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub msg: String,
}

/// Everything the linter learned about one file.
#[derive(Debug, Default)]
pub struct FileReport {
    pub diags: Vec<Diag>,
    /// Lines of panic-family sites (only populated for ratcheted files);
    /// the binary sums these against the ceiling.
    pub panic_sites: Vec<u32>,
    /// Atomic `Ordering::` sites seen (annotated or not), for the
    /// summary line.
    pub ordering_sites: usize,
}

/// Lints one file. `rel` is the workspace-relative path with `/`
/// separators — rule scoping (deterministic crates, the serve ratchet,
/// crate roots) is path-based.
pub fn lint_file(rel: &str, src: &str, cfg: &Config) -> FileReport {
    let toks = lexer::lex(src);
    let file = File {
        rel,
        src,
        code: lexer::code_indices(&toks),
        toks: &toks,
    };
    let mut report = FileReport::default();
    file.rule_order_comment(cfg, &mut report);
    file.rule_wallclock(cfg, &mut report);
    file.rule_lock_order(cfg, &mut report);
    file.rule_no_unsafe(&mut report);
    if rel.starts_with("crates/serve/src/") {
        report.panic_sites = file.panic_sites();
    }
    report
}

struct File<'a> {
    rel: &'a str,
    src: &'a str,
    toks: &'a [Tok],
    /// Indices into `toks` of non-trivia tokens; the rules walk this.
    code: Vec<usize>,
}

impl File<'_> {
    fn tok(&self, ci: usize) -> &Tok {
        &self.toks[self.code[ci]]
    }

    fn text(&self, ci: usize) -> &str {
        self.tok(ci).text(self.src)
    }

    fn is(&self, ci: usize, s: &str) -> bool {
        ci < self.code.len() && self.text(ci) == s
    }

    fn is_ident(&self, ci: usize) -> bool {
        ci < self.code.len() && self.tok(ci).kind == TokKind::Ident
    }

    fn diag(&self, report: &mut FileReport, line: u32, rule: &'static str, msg: String) {
        report.diags.push(Diag {
            file: self.rel.to_string(),
            line,
            rule,
            msg,
        });
    }

    /// Rule 1: atomic `Ordering::` sites need an adjacent `// order:`.
    fn rule_order_comment(&self, _cfg: &Config, report: &mut FileReport) {
        // Lines carrying a `// order:` comment (leading `//` stripped,
        // then whitespace; `/// order:` doc comments do not count). A
        // justification often wraps over several comment lines, so every
        // continuation line of a contiguous comment block counts too.
        let mut comment_lines: Vec<(u32, bool)> = Vec::new();
        for t in self.toks {
            if t.kind == TokKind::LineComment {
                let text = t.text(self.src);
                if text.starts_with("///") || text.starts_with("//!") {
                    continue;
                }
                let body = text.trim_start_matches('/');
                comment_lines.push((t.line, body.trim_start().starts_with("order:")));
            }
        }
        let mut effective: Vec<u32> = Vec::new();
        let mut prev: Option<u32> = None;
        for &(line, is_order) in &comment_lines {
            let counted = is_order || prev == Some(line.saturating_sub(1));
            if counted {
                effective.push(line);
                prev = Some(line);
            } else {
                prev = None;
            }
        }
        // Test code picks orderings casually (usually SeqCst) and that
        // is fine — the justification discipline is for shipped code.
        let tests = self.test_ranges();
        for ci in 0..self.code.len().saturating_sub(3) {
            if tests.iter().any(|&(a, b)| ci >= a && ci < b) {
                continue;
            }
            if self.is(ci, "Ordering")
                && self.is(ci + 1, ":")
                && self.is(ci + 2, ":")
                && ATOMIC_ORDERINGS.contains(&self.text(ci + 3))
            {
                report.ordering_sites += 1;
                let line = self.tok(ci + 3).line;
                // A rustfmt-split statement puts the `Ordering` token
                // lines below where a human writes the comment; anchor
                // the distance check at the statement's first line.
                let mut j = ci;
                while j > 0 && !matches!(self.text(j - 1), ";" | "{" | "}") {
                    j -= 1;
                }
                let anchor = self.tok(j).line;
                let covered = effective
                    .iter()
                    .any(|&c| c <= line && anchor.saturating_sub(c) <= 2);
                if !covered {
                    self.diag(
                        report,
                        line,
                        "order-comment",
                        format!(
                            "Ordering::{} without a `// order:` justification adjacent \
                             to the statement",
                            self.text(ci + 3)
                        ),
                    );
                }
            }
        }
    }

    /// Rule 2: wall-clock reads in deterministic crates.
    fn rule_wallclock(&self, cfg: &Config, report: &mut FileReport) {
        let in_scope = cfg.wallclock_crates.iter().any(|c| {
            self.rel
                .strip_prefix("crates/")
                .and_then(|r| r.strip_prefix(c.as_str()))
                .is_some_and(|r| r.starts_with('/'))
        });
        if !in_scope || cfg.wallclock_allow.iter().any(|a| a == self.rel) {
            return;
        }
        for ci in 0..self.code.len() {
            let t = self.text(ci);
            if self.is_ident(ci) && matches!(t, "Instant" | "SystemTime" | "epoch_micros") {
                self.diag(
                    report,
                    self.tok(ci).line,
                    "wallclock",
                    format!(
                        "`{t}` in a deterministic crate; outputs must not depend on \
                         the wall clock (add the file to [wallclock] allow to waive)"
                    ),
                );
            }
        }
    }

    /// Rule 4: in-function lock acquisitions that invert the declared
    /// hierarchy. A lock guard bound via `let` (or a `match`/`if let`
    /// scrutinee) is treated as held to the end of its block; a bare
    /// temporary as held to the end of its statement.
    fn rule_lock_order(&self, cfg: &Config, report: &mut FileReport) {
        let classify = |name: &str| -> Option<usize> {
            cfg.lock_levels
                .iter()
                .position(|l| l.receivers.iter().any(|r| r == name))
        };
        struct Held {
            level: usize,
            name: String,
            line: u32,
            depth: usize,
            scoped: bool,
        }
        let mut held: Vec<Held> = Vec::new();
        let mut depth = 0usize;
        for ci in 0..self.code.len() {
            match self.text(ci) {
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    held.retain(|h| h.depth <= depth);
                }
                ";" => held.retain(|h| h.scoped || h.depth != depth),
                "lock" | "lock_clean"
                    if ci >= 2
                        && self.is(ci - 1, ".")
                        && self.is_ident(ci - 2)
                        && self.is(ci + 1, "(") =>
                {
                    let name = self.text(ci - 2);
                    let Some(level) = classify(name) else {
                        continue;
                    };
                    let line = self.tok(ci).line;
                    for h in &held {
                        if h.level > level {
                            let order: Vec<&str> =
                                cfg.lock_levels.iter().map(|l| l.name.as_str()).collect();
                            self.diag(
                                report,
                                line,
                                "lock-order",
                                format!(
                                    "`{name}` ({}) acquired while `{}` ({}, line {}) is \
                                     held; declared order is {}",
                                    cfg.lock_levels[level].name,
                                    h.name,
                                    cfg.lock_levels[h.level].name,
                                    h.line,
                                    order.join(" → ")
                                ),
                            );
                        }
                    }
                    // Statement-temporary vs `let`-bound: scan back to
                    // the start of the statement.
                    let mut scoped = false;
                    let mut j = ci;
                    while j > 0 {
                        j -= 1;
                        let t = self.text(j);
                        if matches!(t, ";" | "{" | "}") {
                            break;
                        }
                        if matches!(t, "let" | "match") {
                            scoped = true;
                            break;
                        }
                    }
                    held.push(Held {
                        level,
                        name: name.to_string(),
                        line,
                        depth,
                        scoped,
                    });
                }
                _ => {}
            }
        }
    }

    /// Rule 5: the `unsafe` keyword is banned, and crate-root files
    /// must carry `#![forbid(unsafe_code)]`.
    fn rule_no_unsafe(&self, report: &mut FileReport) {
        for ci in 0..self.code.len() {
            if self.is_ident(ci) && self.is(ci, "unsafe") {
                self.diag(
                    report,
                    self.tok(ci).line,
                    "no-unsafe",
                    "`unsafe` is banned workspace-wide".to_string(),
                );
            }
        }
        if is_crate_root(self.rel) && !self.has_forbid_unsafe() {
            self.diag(
                report,
                1,
                "no-unsafe",
                "crate-root file missing `#![forbid(unsafe_code)]` (bin/example targets \
                 do not inherit the lib's attribute)"
                    .to_string(),
            );
        }
    }

    fn has_forbid_unsafe(&self) -> bool {
        const PAT: [&str; 8] = ["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"];
        (0..self.code.len().saturating_sub(PAT.len() - 1))
            .any(|ci| PAT.iter().enumerate().all(|(k, p)| self.is(ci + k, p)))
    }

    /// Rule 3 support: lines of panic-family call sites outside
    /// `#[cfg(test)] mod` blocks.
    fn panic_sites(&self) -> Vec<u32> {
        let tests = self.test_ranges();
        let mut sites = Vec::new();
        for ci in 0..self.code.len() {
            if tests.iter().any(|&(a, b)| ci >= a && ci < b) || !self.is_ident(ci) {
                continue;
            }
            let t = self.text(ci);
            let hit = (matches!(t, "unwrap" | "expect" | "unwrap_err" | "expect_err")
                && self.is(ci + 1, "("))
                || (PANIC_BANGS.contains(&t) && self.is(ci + 1, "!"));
            if hit {
                sites.push(self.tok(ci).line);
            }
        }
        sites
    }

    /// Code-index ranges covered by `#[cfg(test)] mod … { … }`.
    fn test_ranges(&self) -> Vec<(usize, usize)> {
        const ATTR: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];
        let mut ranges = Vec::new();
        for ci in 0..self.code.len().saturating_sub(ATTR.len()) {
            if !ATTR.iter().enumerate().all(|(k, p)| self.is(ci + k, p)) {
                continue;
            }
            let mut j = ci + ATTR.len();
            if !self.is(j, "mod") {
                continue;
            }
            // Skip to the module's opening brace, then match it.
            while j < self.code.len() && !self.is(j, "{") {
                j += 1;
            }
            let open = j;
            let mut d = 0usize;
            while j < self.code.len() {
                if self.is(j, "{") {
                    d += 1;
                } else if self.is(j, "}") {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                j += 1;
            }
            ranges.push((open, j + 1));
        }
        ranges
    }
}

/// Whether `rel` is a compilation-root file that must carry its own
/// `#![forbid(unsafe_code)]`.
pub fn is_crate_root(rel: &str) -> bool {
    let parts: Vec<&str> = rel.split('/').collect();
    match parts.as_slice() {
        [.., "src", "lib.rs"] | [.., "src", "main.rs"] => true,
        [.., "src", "bin", f] | [.., "examples", f] => f.ends_with(".rs"),
        _ => false,
    }
}
