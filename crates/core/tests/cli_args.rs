//! The `deepthermo` binary validates its command line instead of falling
//! back to defaults: an unknown flag, a flag without its value, an
//! unparsable value and an unknown kernel each end the process nonzero,
//! before any work, with one line naming the flag and the expected form.

use std::process::{Command, Output};

fn deepthermo(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_deepthermo"))
        .args(args)
        .output()
        .expect("launch the deepthermo binary")
}

/// Run `args`, expect a failure whose one-line error contains every
/// string of `expect`, and nothing on stdout (no work was done).
fn rejects(args: &[&str], expect: &[&str]) {
    let out = deepthermo(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} must fail:\n{stderr}");
    assert!(out.stdout.is_empty(), "{args:?} must do no work");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: one line:\n{stderr}");
    for e in expect {
        assert!(
            stderr.contains(e),
            "{args:?}: error must name {e:?}:\n{stderr}"
        );
    }
}

#[test]
fn an_unparsable_value_is_rejected() {
    rejects(
        &["info", "--windows", "x"],
        &["--windows", "expects N", "\"x\""],
    );
}

#[test]
fn an_unknown_flag_is_rejected() {
    rejects(&["info", "--windwos", "5"], &["unknown flag", "--windwos"]);
}

#[test]
fn an_unknown_kernel_is_rejected() {
    rejects(
        &["info", "--kernel", "nonsense"],
        &["--kernel", "deep|local|random", "nonsense"],
    );
}

#[test]
fn a_kernel_update_of_one_site_is_rejected() {
    for kernel in ["deep", "random"] {
        rejects(
            &["info", "--kernel", kernel, "--k", "1"],
            &["--k", "at least 2", "got 1"],
        );
    }
}

#[test]
fn a_dangling_checkpoint_flag_is_rejected() {
    let out = std::env::temp_dir().join(format!("dt-cli-args-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let args = ["run", "--l", "2", "--kernel", "local", "--out"];
    let mut args = args.to_vec();
    args.extend([out.to_str().unwrap(), "--checkpoint"]);
    rejects(&args, &["--checkpoint", "expects DIR"]);
    assert!(!out.exists(), "a rejected run must not create --out");
}

#[test]
fn help_is_rendered_from_the_flag_table() {
    let out = deepthermo(&["help"]);
    assert!(out.status.success());
    let help = String::from_utf8(out.stdout).unwrap();
    for row in [
        "  --k N ",
        "  --checkpoint DIR ",
        "  --serve-workers N      worker threads (default 4)",
        "  --serve-workers N      worker threads (default 2)",
    ] {
        assert!(help.contains(row), "help must list {row:?}:\n{help}");
    }
    // The flags a process re-executes itself with stay out of `help`.
    for hidden in ["--worker-rank", "--respawn-count", "--shard-rank"] {
        assert!(!help.contains(hidden), "{hidden} is internal:\n{help}");
    }
}
