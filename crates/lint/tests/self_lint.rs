//! Self-lint smoke: the linter holds its own workspace — including
//! this crate — to the contracts it enforces. The tree must be clean
//! modulo the committed `lint-baseline.json` ratchet, and the job
//! server's lock design must stay as small as DESIGN.md §15 states.

use gopim_testkit::workspace_root;

#[test]
fn workspace_is_clean_modulo_committed_baseline() {
    let outcome = gopim_lint::lint_workspace(&workspace_root()).expect("workspace lints");
    assert!(
        outcome.clean(),
        "lint findings beyond the committed baseline:\n{}",
        outcome.render_human()
    );
}

/// The server runs on one scheduler lock plus one writer lock per
/// connection, nested only as `writer → state`. A new serve lock, a
/// writer taken under `state`, or a cycle fails here.
#[test]
fn serve_locks_are_the_scheduler_state_and_the_connection_writers() {
    let analysis = gopim_lint::lock_graph(&workspace_root()).expect("workspace analyzes");
    let graph = &analysis.graph;
    let serve = |class: &str| class.starts_with("serve::");
    let classes: Vec<&str> = graph
        .nodes
        .keys()
        .map(String::as_str)
        .filter(|c| serve(c))
        .collect();
    assert_eq!(
        classes,
        ["serve::state", "serve::writer"],
        "{}",
        graph.render_human()
    );
    let nested: Vec<(&str, &str)> = graph
        .edges
        .keys()
        .filter(|(from, to)| serve(from) && serve(to))
        .map(|(from, to)| (from.as_str(), to.as_str()))
        .collect();
    assert_eq!(
        nested,
        [("serve::writer", "serve::state")],
        "{}",
        graph.render_human()
    );
    assert!(!graph.has_cycles(), "{}", graph.render_human());
}
