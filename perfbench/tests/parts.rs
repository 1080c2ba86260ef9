//! An untraced run measures in child processes of the benchmark binary and
//! still prints one result line with every end-to-end metric.

use std::process::Command;

use sapred_perfbench::metrics::END_TO_END;

fn bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sapred-perfbench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary starts")
}

#[test]
fn untraced_run_reports_the_median_of_its_parts() {
    let out =
        bench(&["--workload", "fleet_sweep", "--seed", "1", "--seconds", "0.001", "--trace", "0"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true, "), "{last}");
    // Per part, one sweep checked against its pin and for failed cells;
    // then the check that the parts agree.
    let parts = sapred_perfbench::parts::PARTS;
    assert!(last.contains(&format!("\"attempted\": {}, \"failed\": 0,", 2 * parts + 1)), "{last}");
    for (name, unit) in END_TO_END {
        assert!(last.contains(&format!("\"{name}\": {{\"value\": ")), "{name} missing: {last}");
        assert!(last.contains(&format!("\"unit\": \"{unit}\"")), "{unit} missing: {last}");
    }
}

#[test]
fn unknown_workload_fails_without_a_result_line() {
    let out = bench(&["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
