//! `coma-cli` behind a reader that stops early (`coma-cli … | head -1`,
//! `| grep -q NAME`): once the pipe is closed, the CLI must stop quietly
//! with success instead of panicking on the failed write.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// A DDL schema whose Graphviz rendering is far larger than a pipe's
/// buffer, so the CLI is still writing when the reader goes away.
fn large_ddl() -> String {
    (0..300)
        .map(|t| {
            let columns: Vec<String> = (0..12).map(|c| format!("column{c} INT")).collect();
            format!("CREATE TABLE S.table{t} ({});\n", columns.join(", "))
        })
        .collect()
}

#[test]
fn a_closed_stdout_pipe_ends_the_cli_quietly() {
    let dir = std::env::temp_dir().join(format!("coma-cli-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let schema = dir.join("large.sql");
    std::fs::write(&schema, large_ddl()).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_coma-cli"))
        .arg(&schema)
        .arg(&schema)
        .arg("--dot")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    // The reader is dropped here: the pipe's read end is closed after
    // the first line.
    assert!(first.starts_with("digraph"), "{first:?}");
    let out = child.wait_with_output().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "the CLI panicked: {stderr}");
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
}
