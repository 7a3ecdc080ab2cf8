//! The `experiments` binary's command line: a subcommand it does not
//! know is an error, never a silent no-op.

use std::process::Command;

#[test]
fn unknown_subcommand_lists_the_valid_ones_and_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("bogus")
        .output()
        .expect("experiments runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let err = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert!(err.contains("unknown subcommand `bogus`"), "{err}");
    for sub in [
        "all",
        "table2",
        "fig18",
        "ablations",
        "faults",
        "dse",
        "tensor",
        "serve",
    ] {
        assert!(
            err.split_whitespace().any(|w| w == sub),
            "`{sub}` missing from: {err}"
        );
    }
}
