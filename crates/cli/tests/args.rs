//! The `pbc` argument-parsing contract, through the real binary: last
//! value wins, `-b` takes a comma list that single-budget commands accept
//! only with one value, numeric flags are checked as they are parsed, a
//! command refuses every flag it does not read, and an unknown command
//! is named before any flag error.

use std::process::Command;

fn pbc(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pbc"))
        .args(args)
        .output()
        .expect("pbc binary runs");
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    (out.status.success(), text(&out.stdout), text(&out.stderr))
}

#[test]
fn the_last_value_of_a_flag_wins() {
    let (ok, stdout, stderr) = pbc(&["probe", "-p", "ivybridge", "-w", "sra", "-w", "stream"]);
    assert!(ok, "{stderr}");
    assert!(stdout.starts_with("critical power values for stream on ivybridge"), "{stdout}");
}

#[test]
fn bad_command_lines_fail_naming_the_problem() {
    let cases: &[(&[&str], &str)] = &[
        (&["coord", "-p", "ivybridge", "-w", "stream", "-b", "208,240"], "missing -b WATTS"),
        (&["curve", "-p", "ivybridge", "-w", "sra", "-b", "176,,240"], "bad budget \"\""),
        (
            &["chaos", "-p", "ivybridge", "-w", "sra", "-b", "208", "--seed", "1.5"],
            "bad seed: invalid digit found in string",
        ),
        (&["chaos", "-p", "ivybridge", "-w", "stream", "-b", "208", "--epochs", "x"], "bad epoch count"),
        (&["chaos", "-p", "ivybridge", "-w", "stream", "-b", "208", "--epochs", "0"], "0 epochs"),
        (&["coord", "-p", "ivybridge", "-w", "stream", "--bogus", "3"], "unknown argument --bogus"),
        (&["coord", "-p"], "-p needs a value"),
        (&["nope", "-p"], "unknown command nope"),
        (&["cluster", "-p", "fleet.txt", "-b", "900", "--seed", "3"], "`pbc cluster-chaos`"),
    ];
    for (args, needle) in cases {
        let (ok, stdout, stderr) = pbc(args);
        assert!(!ok, "{args:?} should fail: {stdout}");
        assert!(stdout.is_empty(), "{args:?} printed {stdout:?}");
        assert!(stderr.contains(needle), "{args:?}: {stderr:?} lacks {needle:?}");
    }
}

#[test]
fn a_flag_the_command_does_not_read_is_refused() {
    let cases: &[(&[&str], &str)] = &[
        (
            &["probe", "-p", "ivybridge", "-w", "sra", "--plan", "everything", "--epochs", "5"],
            "pbc probe does not take --plan",
        ),
        (&["repro", "table2", "--seed", "3", "-p", "titan-v"], "pbc repro does not take --seed"),
        (&["coord", "-p", "ivybridge", "-w", "stream", "-b", "208", "--save", "x.csv"], "--save"),
    ];
    for (args, needle) in cases {
        let (ok, stdout, stderr) = pbc(args);
        assert!(!ok, "{args:?} should fail: {stdout}");
        assert!(stdout.is_empty(), "{args:?} printed {stdout:?}");
        assert!(stderr.contains(needle), "{args:?}: {stderr:?} lacks {needle:?}");
    }
}
