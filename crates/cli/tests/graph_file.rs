//! End-to-end test of how the CLI treats a malformed graph file: the
//! command fails with the parser's message and line number, never a panic
//! or an oversized allocation.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_bcc");

#[test]
fn stats_rejects_out_of_range_vertex_ids() {
    let dir = std::env::temp_dir().join(format!("bcc-graph-file-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    for (tag, line, needle) in [
        (
            "u64max",
            "v 18446744073709551615 B",
            "vertex id is not an integer in 0..2^32",
        ),
        (
            "u32plus1",
            "v 4294967296 B",
            "vertex id is not an integer in 0..2^32",
        ),
        (
            "sparse",
            "v 3000000000 B",
            "vertex id 3000000000 out of range",
        ),
    ] {
        let path = dir.join(format!("{tag}.g"));
        std::fs::write(&path, format!("v 0 A\n{line}\n")).expect("write graph file");
        let output = Command::new(BIN)
            .arg("stats")
            .arg(&path)
            .output()
            .expect("run bcc stats");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{tag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{tag}: {stderr}");
        assert!(
            stderr.contains(&format!("malformed graph file at line 2: {needle}")),
            "{tag}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
