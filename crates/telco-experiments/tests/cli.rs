//! The `repro` argument grammar, through the built binary: a word it does
//! not print is refused before anything is simulated, and a known one
//! still prints its table.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("run repro")
}

#[test]
fn unknown_words_are_refused_before_simulating() {
    for args in [&["--tiny", "bench-study", "--iters", "1"][..], &["--tiny", "fig99"]] {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed on stdout");
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
        assert!(!stderr.contains("simulating"), "{args:?} simulated: {stderr}");
    }
}

#[test]
fn help_lists_the_experiments_and_no_bench_command() {
    let out = repro(&["--help"]);
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout);
    for name in ["all", "table2", "fig16", "pingpong", "headlines", "ablations"] {
        assert!(help.split_whitespace().any(|w| w == name), "--help lacks {name}: {help}");
    }
    assert!(!help.contains("bench-"), "{help}");
}

#[test]
fn table2_still_prints() {
    let out = repro(&["--tiny", "table2"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("== Table 2: Handover shares per type"), "{stdout}");
    assert!(!stdout.contains("Table 1"), "{stdout}");
}
