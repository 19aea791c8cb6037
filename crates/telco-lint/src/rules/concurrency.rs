//! Concurrency rule pack.
//!
//! The workspace buys throughput with lock-free work cursors, scoped
//! worker threads and subprocess pools; each carries memory-ordering and
//! blocking-discipline claims that tests cannot exercise reliably. This
//! pack makes three of those claims machine-checked:
//!
//! - **ordering audit** — every atomic `Ordering::{Relaxed, Acquire,
//!   Release, AcqRel, SeqCst}` use in library `src/` must sit inside an
//!   `audited-atomics(begin)/(end)` region or carry a one-line
//!   `// ordering: <why>` note. The resolver distinguishes atomic
//!   orderings from `std::cmp::Ordering` in sort comparators, so
//!   comparator-heavy analytics code never false-positives;
//! - **unbounded channels** — `std::sync::mpsc::channel` (or a
//!   crossbeam-style `unbounded`) between threads lets a fast producer
//!   run the process out of memory; bounded queues (`sync_channel`)
//!   are the repo contract;
//! - **guard across subprocess wait** — holding a `Mutex` guard while
//!   blocking on `Child::wait`/`try_wait`/`wait_with_output` stalls
//!   every sibling worker on a lock whose hold time is another
//!   process's lifetime. The zero-argument call shape distinguishes the
//!   process-wait family from `Condvar::wait(guard)`, which takes the
//!   guard as an argument.
//!
//! `#[cfg(test)]` regions are exempt (tests may use whatever ordering
//! gets the job done), and `allow(concurrency)` waives one occurrence.

use crate::markers::{AllowWhat, FileMarkers};
use crate::report::Diagnostic;
use crate::rules::{find_word, word_hits};
use crate::scan::{is_ident_byte, SourceFile};

/// The atomic ordering variants; `cmp::Ordering` has none of these.
const ATOMIC_VARIANTS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Process-wait call shapes (zero-argument, unlike `Condvar::wait`).
const WAIT_CALLS: [&str; 3] = [".wait()", ".try_wait()", ".wait_with_output()"];

/// Run the pack over one library-src file.
pub fn check(file: &SourceFile, markers: &FileMarkers, out: &mut Vec<Diagnostic>) {
    check_ordering_audit(file, markers, out);
    check_unbounded_channels(file, markers, out);
    check_guard_across_wait(file, markers, out);
}

/// Does the path at `pos` name an atomic `Ordering`? Resolves through
/// the file's use-map; an unresolvable bare `Ordering` with an atomic
/// variant name is treated as atomic (conservative: flag it).
fn is_atomic_ordering(file: &SourceFile, pos: usize) -> bool {
    let path = file.resolved_path(pos, "Ordering");
    path.contains("sync::atomic::Ordering") || path == "Ordering"
}

fn check_ordering_audit(file: &SourceFile, markers: &FileMarkers, out: &mut Vec<Diagnostic>) {
    let bytes = file.masked.as_bytes();
    for pos in word_hits(&file.masked, "Ordering") {
        let after = pos + "Ordering".len();
        if bytes.get(after) != Some(&b':') || bytes.get(after + 1) != Some(&b':') {
            continue;
        }
        let variant_start = after + 2;
        let Some(variant) = ATOMIC_VARIANTS.iter().find(|v| {
            file.masked[variant_start..].starts_with(**v)
                && !bytes.get(variant_start + v.len()).copied().is_some_and(is_ident_byte)
        }) else {
            continue;
        };
        if !is_atomic_ordering(file, pos) {
            continue; // `cmp::Ordering` or a local enum, not an atomic
        }
        let line = file.line_of(pos);
        if file.is_test_line(line)
            || markers.atomics_audited(line)
            || markers.ordering_note(line).is_some()
            || markers.allowed(line, AllowWhat::Concurrency)
        {
            continue;
        }
        out.push(Diagnostic {
            rule: "concurrency",
            path: file.rel_path.clone(),
            line,
            message: format!(
                "atomic `Ordering::{variant}` outside an audited-atomics region and without an `// ordering:` note — justify the ordering choice"
            ),
            snippet: file.raw_line(line).trim().to_string(),
        });
    }
}

fn check_unbounded_channels(file: &SourceFile, markers: &FileMarkers, out: &mut Vec<Diagnostic>) {
    let bytes = file.masked.as_bytes();
    for (ident, needle) in [("channel", "std::sync::mpsc::channel"), ("unbounded", "unbounded")] {
        for pos in word_hits(&file.masked, ident) {
            // A call site: `ident(` with an optional `::<..>` turbofish.
            let mut after = pos + ident.len();
            if file.masked[after..].starts_with("::<") {
                match file.masked[after..].find('>') {
                    Some(gt) => after += gt + 1,
                    None => continue,
                }
            }
            if bytes.get(after) != Some(&b'(') {
                continue; // not a call
            }
            let path = file.resolved_path(pos, ident);
            let is_unbounded = match ident {
                "channel" => path == needle,
                _ => path.ends_with("::unbounded"),
            };
            if !is_unbounded {
                continue;
            }
            let line = file.line_of(pos);
            if file.is_test_line(line) || markers.allowed(line, AllowWhat::Concurrency) {
                continue;
            }
            out.push(Diagnostic {
                rule: "concurrency",
                path: file.rel_path.clone(),
                line,
                message: format!(
                    "unbounded channel `{path}` — a fast producer can exhaust memory; use a bounded queue such as `sync_channel`"
                ),
                snippet: file.raw_line(line).trim().to_string(),
            });
        }
    }
}

fn check_guard_across_wait(file: &SourceFile, markers: &FileMarkers, out: &mut Vec<Diagnostic>) {
    for pat in WAIT_CALLS {
        let mut from = 0usize;
        while let Some(pos) = find_word(&file.masked, pat, from) {
            from = pos + pat.len();
            let line = file.line_of(pos);
            if file.is_test_line(line) || markers.allowed(line, AllowWhat::Concurrency) {
                continue;
            }
            // A guard is (lexically) live across this wait if the same
            // brace scope takes a lock earlier in its span.
            let scope = file.scopes().innermost(pos);
            let (start, _) = file.scopes().span(scope);
            if find_word(&file.masked[start..pos], ".lock(", 0).is_none() {
                continue;
            }
            out.push(Diagnostic {
                rule: "concurrency",
                path: file.rel_path.clone(),
                line,
                message: format!(
                    "`{pat}` with a Mutex guard taken in the same scope — the lock is held for another process's lifetime; drop the guard before waiting"
                ),
                snippet: file.raw_line(line).trim().to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::markers;
    use std::path::Path;

    fn lint(src: &str) -> Vec<Diagnostic> {
        let file = SourceFile::parse(Path::new("t.rs"), src.to_string());
        let m = markers::analyze(&file);
        let mut out = Vec::new();
        check(&file, &m, &mut out);
        out
    }

    #[test]
    fn unjustified_atomic_ordering_flagged() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\npub fn f(c: &AtomicU64) {\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
        let d = lint(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 3);
        assert!(d[0].message.contains("Ordering::Relaxed"));
    }

    #[test]
    fn ordering_note_and_audited_region_clean() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\npub fn f(c: &AtomicU64) {\n    c.fetch_add(1, Ordering::Relaxed); // ordering: counter, no ordering needed\n}\n// telco-lint: audited-atomics(begin): release publishes, acquire observes\npub fn g(c: &AtomicU64) {\n    c.store(1, Ordering::Release);\n    c.load(Ordering::Acquire);\n}\n// telco-lint: audited-atomics(end)\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn cmp_ordering_comparator_not_flagged() {
        let src = "use std::cmp::Ordering;\npub fn cmp(a: u64, b: u64) -> Ordering {\n    if a < b { Ordering::Less } else { Ordering::Greater }\n}\n";
        assert!(lint(src).is_empty());
    }

    /// The regression the resolver exists for: atomic and comparator
    /// `Ordering` in one file — only the unjustified atomic use fires.
    #[test]
    fn atomic_and_cmp_ordering_coexist() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\npub fn hot(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\npub fn key(a: u64, b: u64) -> std::cmp::Ordering { a.cmp(&b) }\npub fn cold(a: u64, b: u64) -> u64 {\n    use std::cmp::Ordering;\n    match a.cmp(&b) { Ordering::Less => b, _ => a }\n}\n";
        let d = lint(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn test_lines_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::sync::atomic::{AtomicU64, Ordering};\n    #[test]\n    fn t() { AtomicU64::new(0).load(Ordering::SeqCst); }\n}\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn unbounded_mpsc_channel_flagged_sync_channel_clean() {
        let src = "use std::sync::mpsc;\npub fn f() {\n    let (tx, rx) = mpsc::channel::<u8>();\n    let (tx2, rx2) = mpsc::sync_channel::<u8>(8);\n}\n";
        let d = lint(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 3);
        assert!(d[0].message.contains("unbounded"));
    }

    #[test]
    fn guard_across_child_wait_flagged() {
        let src = "pub fn f(m: &std::sync::Mutex<u8>, child: &mut std::process::Child) {\n    let g = m.lock().unwrap();\n    let _st = child.wait();\n}\n";
        let d = lint(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 3);
        assert!(d[0].message.contains("guard"));
    }

    #[test]
    fn condvar_wait_and_guardless_wait_clean() {
        let src = "pub fn f(cv: &std::sync::Condvar, m: &std::sync::Mutex<u8>) {\n    let g = m.lock().unwrap();\n    let _g = cv.wait(g);\n}\npub fn g(child: &mut std::process::Child) {\n    let _st = child.wait();\n}\n";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn waiver_accepted() {
        let src = "use std::sync::atomic::{AtomicU64, Ordering};\npub fn f(c: &AtomicU64) {\n    c.load(Ordering::SeqCst); // telco-lint: allow(concurrency): strongest ordering is always sound\n}\n";
        assert!(lint(src).is_empty());
    }
}
