//! The `figures` binary's exit status and what it leaves on disk. The
//! committed `results/*.json` are checked by regenerating them and
//! diffing, so a run that silently skips an experiment or a write, or
//! overwrites a record with quick-sweep numbers, would defeat the check.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch_dir(root: &Path, name: &str) -> PathBuf {
    let dir = root.join(name);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn figures(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("figures runs")
}

#[test]
fn figures_exits_nonzero_on_any_failure_and_quick_writes_nothing() {
    let root = std::env::temp_dir().join(format!("nfc-figures-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // A mistyped experiment name is an error, not an empty run.
    let dir = scratch_dir(&root, "unknown");
    let out = figures(&dir, &["nosuch"]);
    assert!(!out.status.success(), "unknown experiment exited 0");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment: nosuch"));

    // A record that cannot be written is an error, not a warning: a
    // plain file where `results/` should be makes the save fail.
    let dir = scratch_dir(&root, "unwritable");
    std::fs::write(dir.join("results"), b"").expect("write blocker");
    let out = figures(&dir, &["table2"]);
    assert!(!out.status.success(), "failed save exited 0");

    // A quick sweep is a smoke run: it succeeds and writes no record.
    let dir = scratch_dir(&root, "quick");
    let out = figures(&dir, &["table2", "--quick"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(!dir.join("results").exists(), "--quick wrote results/");

    // The full run writes the record.
    let out = figures(&dir, &["table2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("results/table2.json").is_file());

    std::fs::remove_dir_all(&root).ok();
}
