//! The real workspace must lint clean: every determinism, panic-policy,
//! exhaustiveness, config-hygiene, forbid-unsafe and dataflow (secret /
//! nondeterminism flow) invariant holds, and the `xlint.toml` allowlist
//! and `[secrets]` section carry no stale entries.

use std::path::Path;
use xlint::{lint_workspace, parse_config, LintConfig};

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crate lives two levels under the workspace root")
}

fn checked_in_config() -> LintConfig {
    let src = std::fs::read_to_string(workspace_root().join("xlint.toml"))
        .expect("xlint.toml at workspace root");
    parse_config(&src).expect("config parses")
}

#[test]
fn workspace_lints_clean_under_the_checked_in_config() {
    let config = checked_in_config();
    assert!(
        !config.allow.is_empty(),
        "allowlist should document the known legitimate sites"
    );
    assert!(
        !config.secrets.types.is_empty(),
        "[secrets] should name the key-material types"
    );
    let report = lint_workspace(workspace_root(), &config).expect("lint run succeeds");
    assert!(
        report.files_scanned > 50,
        "workspace discovery looks broken: only {} files",
        report.files_scanned
    );
    assert!(
        report.diagnostics.is_empty(),
        "workspace has lint findings:\n{}",
        report
            .diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn a_seeded_violation_is_caught_without_the_allowlist() {
    // Belt-and-braces for the CI negative smoke: with the allowlist
    // emptied (but [secrets] kept, so the flow rules run with their real
    // sources) the same tree must produce findings, proving the gate
    // actually bites.
    let config = LintConfig {
        allow: Vec::new(),
        secrets: checked_in_config().secrets,
    };
    let report = lint_workspace(workspace_root(), &config).expect("lint run succeeds");
    assert!(
        report.diagnostics.iter().any(|d| d.ident == "panic"),
        "expected the documented panic sites to surface without their allowlist entries"
    );
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == xlint::RuleId::Xl001 && d.ident == "Instant"),
        "expected the engine profiler's host clock to surface without its allowlist entry (XL001)"
    );
    // XL008 has no allowlisted site in the tree: the profiler's
    // declassify barriers are what keep its clock out of engine state.
    // Without them the flow rule must fire on the real tree.
    let mut secrets = config.secrets;
    secrets
        .declassify
        .retain(|f| !f.starts_with("lap_") && f != "time_host");
    let config = LintConfig {
        allow: Vec::new(),
        secrets,
    };
    let report = lint_workspace(workspace_root(), &config).expect("lint run succeeds");
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == xlint::RuleId::Xl008),
        "expected host-clock flows to surface without the profiler's barriers (XL008)"
    );
}
