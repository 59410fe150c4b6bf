//! The `repro` command line: an option value it cannot use exits 2 with
//! a message on stderr and prints nothing on stdout.

use std::process::Command;

#[test]
fn scale_must_be_finite_and_above_zero() {
    for value in ["nan", "-1", "0", "inf"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["table1", "--scale", value])
            .output()
            .expect("repro starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--scale {value}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "--scale {value}: stdout {}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(stderr.contains("--scale"), "--scale {value}: {stderr}");
    }
}
