//! Hostile configuration must end the `paracrash` CLI with exit 2 and a
//! one-line error, never a panic (exit 101): out-of-range values in a
//! `--config` file, and an unknown `PC_ENGINE`.

use std::path::Path;
use std::process::{Command, Output};

fn paracrash(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_paracrash"));
    cmd.args(args).env_remove("PC_ENGINE");
    cmd
}

fn assert_exit_2(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{what}: {stderr}");
}

#[test]
fn hostile_config_exits_2_with_one_line() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for (i, text) in ["k = 7", "meta_servers = 0", "storage_servers = 0"]
        .iter()
        .enumerate()
    {
        let path = tmp.join(format!("hostile-{i}.conf"));
        std::fs::write(&path, text).unwrap();
        let path = path.to_str().unwrap();
        let out = paracrash(&["--fs", "BeeGFS", "--program", "ARVR", "--config", path])
            .output()
            .unwrap();
        assert_exit_2(&out, text);
    }
    for args in [&["--fs", "BeeGFS", "--program", "ARVR"][..], &["fuzz"]] {
        let out = paracrash(args).env("PC_ENGINE", "bogus").output().unwrap();
        assert_exit_2(&out, &format!("PC_ENGINE=bogus {args:?}"));
    }
}
