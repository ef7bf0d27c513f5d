//! Pins every figure's text at quick size: `figures --quick --nodes 2`
//! renders all of them through one plan, and the files it writes,
//! concatenated in [`FIGURES`] order under `==> NAME.txt <==` lines, must
//! match `golden/figures_quick.txt` byte for byte.
//!
//! The simulator is deterministic, so any drift means a change moved a
//! simulated number or a figure's layout. If that is deliberate, re-bless
//! with `BLESS=1 cargo test -p slipstream-bench --test figures_golden`.

use std::path::Path;
use std::process::{Command, Stdio};

use slipstream_bench::FIGURES;

fn figures(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_figures"));
    cmd.args(args);
    cmd
}

#[test]
fn quick_figures_match_golden() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures_quick");
    let status = figures(&["--quick", "--nodes", "2", "--quiet", "--out"])
        .arg(&out)
        .status()
        .expect("figures runs");
    assert!(status.success(), "figures exited with {status}");
    let mut actual = String::new();
    for (name, _) in FIGURES {
        let file = out.join(format!("{name}.txt"));
        actual += &format!("==> {name}.txt <==\n");
        actual += &std::fs::read_to_string(&file).expect("figures writes every figure");
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/figures_quick.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &actual).expect("bless golden");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file (bless with BLESS=1)");
    assert_eq!(
        actual, golden,
        "figures drifted from the golden; if intended, re-bless with BLESS=1"
    );
}

/// An unknown figure and a missing `--out` are usage errors, caught
/// before anything is simulated; so is an output path that cannot be
/// written, on every binary that writes one.
#[test]
fn usage_errors_exit_2() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures_usage");
    let out = out.to_str().expect("UTF-8 temp dir");
    for args in [&["--quick", "--out", out, "fig2"][..], &["--quick", "fig1"]] {
        let status = figures(args).stderr(Stdio::null()).status().expect("figures runs");
        assert_eq!(status.code(), Some(2), "figures {args:?}");
    }
    let unwritable = [
        (env!("CARGO_BIN_EXE_trace"), &["SOR", "2", "slip", "--quick", "--out", "/dev/null/x"][..]),
        (
            env!("CARGO_BIN_EXE_inspect"),
            &["SOR", "2", "slip", "--quick", "--trace", "/nonexistent/dir/t.json"],
        ),
        (
            env!("CARGO_BIN_EXE_fuzz"),
            &["--count", "0", "--mutants", "0", "--json", "/nonexistent/dir/r.json"],
        ),
    ];
    for (bin, args) in unwritable {
        let run = Command::new(bin).args(args).stdout(Stdio::null()).stderr(Stdio::null()).status();
        assert_eq!(run.expect("binary runs").code(), Some(2), "{bin} {args:?}");
    }
}
