//! End-to-end test of `bcc serve` and `bcc batch`: spawn the real binary,
//! drive a scripted stdin session, and check the response lines. Also pins
//! that every command rejects a flag it does not know.

use std::io::Write;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_bcc");

/// Writes a small two-clique butterfly graph file and returns its path.
fn graph_file(dir: &std::path::Path) -> std::path::PathBuf {
    let mut b = bcc_graph::GraphBuilder::new();
    let l: Vec<_> = (0..4).map(|i| b.add_named_vertex(&format!("l{i}"), "L")).collect();
    let r: Vec<_> = (0..4).map(|i| b.add_named_vertex(&format!("r{i}"), "R")).collect();
    for grp in [&l, &r] {
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.add_edge(grp[i], grp[j]);
            }
        }
    }
    for &x in &l[..2] {
        for &y in &r[..2] {
            b.add_edge(x, y);
        }
    }
    let path = dir.join("butterfly.g");
    bcc_graph::io::write_graph_file(&b.build(), &path).expect("write graph file");
    path
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bcc-serve-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn scripted_serve_session_end_to_end() {
    let dir = temp_dir("serve");
    let graph = graph_file(&dir);

    let mut child = Command::new(BIN)
        .arg("serve")
        .arg(&graph)
        .args(["--workers", "2", "--name", "demo"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn bcc serve");

    let script = "# scripted session\n\
                  search ql=l0 qr=r0\n\
                  search ql=r0 qr=l0\n\
                  msearch q=l0,r0 k=3\n\
                  not a request\n\
                  search ql=nobody qr=r0\n\
                  stats\n\
                  quit\n\
                  search ql=l1 qr=r1\n";
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(script.as_bytes())
        .expect("write script");
    let output = child.wait_with_output().expect("session completes");
    assert!(output.status.success(), "serve exited with {:?}", output.status);

    let stdout = String::from_utf8(output.stdout).expect("utf8 stdout");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        lines.len(),
        6,
        "comment is silent, quit ends the session before the last query:\n{stdout}"
    );
    assert!(lines[0].contains("\"ok\":true"), "{}", lines[0]);
    assert!(lines[0].contains("\"graph\":\"demo\""), "{}", lines[0]);
    assert!(lines[0].contains("\"size\":8"), "{}", lines[0]);
    assert_eq!(
        lines[0].split("\"community\"").nth(1),
        lines[1].split("\"community\"").nth(1),
        "symmetric query serves the identical community"
    );
    assert!(lines[2].contains("\"ok\":true"), "msearch: {}", lines[2]);
    assert!(lines[3].contains("\"error\":\"parse\""), "{}", lines[3]);
    assert!(lines[4].contains("\"error\":\"resolve\""), "{}", lines[4]);
    assert!(lines[5].contains("\"cache_hits\":1"), "stats line: {}", lines[5]);

    let stderr = String::from_utf8(output.stderr).expect("utf8 stderr");
    assert!(
        stderr.contains("serving `demo` (8 vertices"),
        "banner goes to stderr: {stderr}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mutate_then_search_session_end_to_end() {
    let dir = temp_dir("mutate");
    let graph = graph_file(&dir);

    let mut child = Command::new(BIN)
        .arg("serve")
        .arg(&graph)
        .args(["--workers", "2", "--name", "live"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn bcc serve");

    // Warm the cache, grow the butterfly bridge to all 4x4 cross pairs,
    // commit, and search again: the answer must reflect the live graph.
    let script = "search ql=l0 qr=r0 method=l2p\n\
                  add_edge u=l2 v=r2\n\
                  add_edge u=l2 v=r3\n\
                  add_edge u=l3 v=r2\n\
                  add_edge u=l3 v=r3\n\
                  commit\n\
                  search ql=l2 qr=r2 method=l2p\n\
                  remove_edge u=l9 v=r0\n\
                  quit\n";
    child
        .stdin
        .as_mut()
        .expect("stdin piped")
        .write_all(script.as_bytes())
        .expect("write script");
    let output = child.wait_with_output().expect("session completes");
    assert!(output.status.success(), "serve exited with {:?}", output.status);

    let stdout = String::from_utf8(output.stdout).expect("utf8 stdout");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 8, "one response per request line:\n{stdout}");
    assert!(lines[0].contains("\"size\":8"), "warmup: {}", lines[0]);
    for staged in &lines[1..5] {
        assert!(staged.contains("\"op\":\"add_edge\""), "{staged}");
        assert!(staged.contains("\"ok\":true"), "{staged}");
    }
    assert!(lines[4].contains("\"staged\":4"), "{}", lines[4]);
    assert!(lines[5].contains("\"op\":\"commit\""), "{}", lines[5]);
    assert!(lines[5].contains("\"applied\":4"), "{}", lines[5]);
    assert!(lines[5].contains("\"edges\":20"), "{}", lines[5]);
    assert!(
        lines[5].contains("\"index_patched\":true"),
        "the l2p search built the index, so commit patches it: {}",
        lines[5]
    );
    // The new cross edges make {l2, r2} butterfly-connected: a search that
    // was infeasible on the old snapshot now returns the full community.
    assert!(lines[6].contains("\"ok\":true"), "{}", lines[6]);
    assert!(lines[6].contains("\"size\":8"), "{}", lines[6]);
    // Unknown vertex in a mutation: structured error, session continues.
    assert!(lines[7].contains("\"ok\":false"), "{}", lines[7]);
    assert!(lines[7].contains("\"error\":\"mutate\""), "{}", lines[7]);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_runs_a_query_file_in_order() {
    let dir = temp_dir("batch");
    let graph = graph_file(&dir);
    let queries = dir.join("queries.txt");
    std::fs::write(
        &queries,
        "search ql=l0 qr=r0\nsearch ql=l0 qr=r0 method=online\nbroken\n",
    )
    .expect("write queries");

    let run = |workers: &str| {
        let output = Command::new(BIN)
            .arg("batch")
            .arg(&graph)
            .arg(&queries)
            .args(["--workers", workers])
            .stderr(Stdio::piped())
            .output()
            .expect("run bcc batch");
        assert!(output.status.success());
        String::from_utf8(output.stdout).expect("utf8")
    };

    let single = run("1");
    let lines: Vec<&str> = single.lines().collect();
    assert_eq!(lines.len(), 3);
    assert!(lines[0].contains("\"method\":\"lp\""));
    assert!(lines[1].contains("\"method\":\"online\""));
    assert!(lines[2].contains("\"error\":\"parse\""));
    // Worker count never changes the bytes.
    assert_eq!(single, run("4"));

    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `bcc <args>` with stdin closed and returns its output, killing the
/// process if it has not exited within 30 s (a `listen` that wrongly
/// accepted its flags would otherwise serve forever).
fn run_to_exit(args: &[&str]) -> std::process::Output {
    let mut child = Command::new(BIN)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn bcc");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while child.try_wait().expect("poll bcc").is_none() {
        if std::time::Instant::now() >= deadline {
            let _ = child.kill();
            panic!("`bcc {args:?}` did not exit");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect output")
}

#[test]
fn serving_commands_reject_unknown_flags() {
    let dir = temp_dir("flags");
    let graph = graph_file(&dir);
    let graph = graph.to_str().expect("utf8 temp path");
    let queries = dir.join("queries.txt");
    std::fs::write(&queries, "search ql=l0 qr=r0\n").expect("write queries");
    let queries = queries.to_str().expect("utf8 temp path");

    // Removed flags and a typo of a known one: all are errors naming the
    // flag, never silently ignored.
    for positional in [
        vec!["serve", graph],
        vec!["batch", graph, queries],
        vec!["listen", graph, "127.0.0.1:0"],
    ] {
        for flag in ["--shards", "--query-threads", "--wokers"] {
            let mut args = positional.clone();
            args.extend(["--workers", "2", flag, "2"]);
            let output = run_to_exit(&args);
            assert_eq!(output.status.code(), Some(1), "`{args:?}` must fail");
            let stderr = String::from_utf8(output.stderr).expect("utf8 stderr");
            assert!(
                stderr.contains(&format!("unknown flag `{flag}`")),
                "`{args:?}` must name the flag: {stderr}"
            );
        }
    }

    // Known flags (bare and valued) and positionals are still accepted.
    let output = run_to_exit(&[
        "batch",
        graph,
        queries,
        "--no-metrics",
        "--workers",
        "1",
        "--fault",
        "worker_execute:delay1ms:1:1",
    ]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8(output.stdout).expect("utf8 stdout");
    assert!(stdout.contains("\"ok\":true"), "{stdout}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_shot_commands_reject_unknown_flags() {
    let dir = temp_dir("one-shot-flags");
    let graph = graph_file(&dir);
    let graph = graph.to_str().expect("utf8 temp path");
    let out = dir.join("out.g");
    let out = out.to_str().expect("utf8 temp path");

    // `--k` is msearch's flag and `--query-threads` is gone: a search given
    // either must fail naming it, not run with the flag dropped.
    for (args, flag) in [
        (vec!["search", graph, "--ql", "l0", "--qr", "r0", "--k", "3"], "--k"),
        (
            vec!["search", graph, "--ql", "l0", "--qr", "r0", "--query-threads", "2"],
            "--query-threads",
        ),
        (vec!["msearch", graph, "--q", "l0", "--q", "r0", "--k1", "3"], "--k1"),
        (vec!["stats", graph, "--bogus", "1"], "--bogus"),
        (vec!["generate", out, "--scale", "0.01", "--bogus", "1"], "--bogus"),
        (vec!["case", "flight", "--bogus", "1"], "--bogus"),
    ] {
        let output = run_to_exit(&args);
        assert_eq!(output.status.code(), Some(1), "`{args:?}` must fail");
        let stderr = String::from_utf8(output.stderr).expect("utf8 stderr");
        assert!(
            stderr.contains(&format!("unknown flag `{flag}` for `{}`", args[0])),
            "`{args:?}` must name the flag: {stderr}"
        );
    }
    assert!(!std::path::Path::new(out).exists(), "a rejected generate writes nothing");

    // A value flag with nothing after it is an error too.
    let output = run_to_exit(&["search", graph, "--ql", "l0", "--qr", "r0", "--b"]);
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8(output.stderr).expect("utf8 stderr");
    assert!(stderr.contains("--b expects a value"), "{stderr}");

    // Each command's own flags are still accepted.
    for args in [
        vec!["search", graph, "--ql", "l0", "--qr", "r0", "--k1", "3", "--method", "online"],
        vec!["msearch", graph, "--q", "l0", "--q", "r0", "--k", "3", "--b", "1"],
        vec!["stats", graph],
    ] {
        let output = run_to_exit(&args);
        assert!(output.status.success(), "`{args:?}`: {}", String::from_utf8_lossy(&output.stderr));
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_sites_the_command_never_reaches_are_rejected() {
    let dir = temp_dir("fault-sites");
    let graph = graph_file(&dir);
    let graph = graph.to_str().expect("utf8 temp path");
    let queries = dir.join("queries.txt");
    std::fs::write(&queries, "search ql=l0 qr=r0\n").expect("write queries");
    let queries = queries.to_str().expect("utf8 temp path");

    // `admission` is checked only by TCP sessions and `codec_decode` only by
    // sessions, which `batch` does not run: such a plan could never fire.
    for (positional, site, fires_under) in [
        (
            vec!["batch", graph, queries],
            "codec_decode",
            "serve and listen",
        ),
        (vec!["batch", graph, queries], "admission", "listen"),
        (vec!["serve", graph], "admission", "listen"),
    ] {
        let spec = format!("{site}:error");
        let mut args = positional.clone();
        args.extend(["--fault", spec.as_str()]);
        let output = run_to_exit(&args);
        assert_eq!(output.status.code(), Some(1), "`{args:?}` must fail");
        let stderr = String::from_utf8(output.stderr).expect("utf8 stderr");
        let message = format!(
            "--fault site `{site}` never fires under `{}` (only under {fires_under})",
            positional[0]
        );
        assert!(stderr.contains(&message), "`{args:?}`: {stderr}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}
