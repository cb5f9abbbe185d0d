//! `pbc repro` through the real binary: a reader that stops early ends
//! the run cleanly, a full stdout fails it with exit 1, and a missing or
//! unknown experiment is refused naming the known ones.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

fn pbc(args: &[&str], stdout: Stdio) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pbc"));
    cmd.args(args).stdout(stdout).stderr(Stdio::piped()).spawn().expect("pbc spawns")
}

#[test]
fn a_reader_that_stops_after_one_line_is_not_a_failure() {
    let mut child = pbc(&["repro", "fig8"], Stdio::piped());
    // fig8 prints more than a pipe and the reader's buffer hold, so
    // `pbc` is still writing when the reader goes away.
    let mut first = String::new();
    let stdout = child.stdout.take().expect("stdout piped");
    BufReader::new(stdout).read_line(&mut first).expect("read one line");
    assert!(first.starts_with("### fig8"), "{first}");
    let out = child.wait_with_output().expect("pbc exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit status {}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[cfg(target_os = "linux")]
#[test]
fn a_full_stdout_fails_the_run_with_exit_1() {
    let full = std::fs::File::options().write(true).open("/dev/full").expect("/dev/full opens");
    let out = pbc(&["repro", "fig1"], full.into()).wait_with_output().expect("pbc exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("failed printing to stdout"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn a_missing_or_unknown_experiment_is_refused_naming_the_known_ones() {
    for args in [&["repro"][..], &["repro", "nope"]] {
        let out = pbc(args, Stdio::piped()).wait_with_output().expect("pbc exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let known = "known: fig1, fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9, \
                     table1, table2, table3, ext1, ext2, ext3, ext4, ext5, ext6, ext7, ext8, ext9";
        assert!(stderr.contains(known), "{args:?}: {stderr}");
    }
}
