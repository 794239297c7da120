//! The three demonstration scenarios (§4) driven end-to-end through the
//! session command language — the scripted version of the EDBT demo.

use fairank::session::command::{execute, Command};
use fairank::session::Session;

fn run(session: &mut Session, line: &str) -> String {
    execute(
        session,
        Command::parse(line).unwrap_or_else(|e| panic!("parse {line:?}: {e}")),
    )
    .unwrap_or_else(|e| panic!("execute {line:?}: {e}"))
}

#[test]
fn demo_script_auditor() {
    let mut s = Session::new();
    let out = run(&mut s, "audit taskrabbit n=200 seed=42");
    assert!(out.contains("AUDITOR REPORT"));
    assert!(out.contains("rated-anything"));
    // Transparency variants of the same audit.
    let bb = run(&mut s, "audit taskrabbit n=200 seed=42 k=5 ranking-only");
    assert!(bb.contains("AUDITOR REPORT"));
}

#[test]
fn demo_script_job_owner() {
    let mut s = Session::new();
    let out = run(&mut s, "jobowner qapa code coding n=200 seed=42");
    assert!(out.contains("JOB OWNER SWEEP"));
    assert!(out.contains("← fairest"));
}

#[test]
fn demo_script_end_user() {
    let mut s = Session::new();
    let out = run(&mut s, r#"enduser qapa "origin=Maghreb" n=200 seed=42"#);
    assert!(out.contains("END-USER REPORT"));
    assert!(out.contains("origin=Maghreb"));
}

#[test]
fn demo_script_interactive_exploration() {
    // The Figure 3 flow: pick a dataset, a function, a criterion; compare
    // panels; inspect nodes; export.
    let mut s = Session::new();
    s.add_dataset("table1", fairank::data::paper::table1_dataset())
        .unwrap();
    s.add_function("paper-f", fairank::data::paper::table1_scoring())
        .unwrap();

    let p0 = run(&mut s, "quantify table1 paper-f");
    assert!(p0.contains("panel #0"));
    let p1 = run(&mut s, "quantify table1 paper-f objective=least");
    assert!(p1.contains("panel #1"));
    let cmp = run(&mut s, "compare 0 1");
    assert!(cmp.contains("Δ"));

    let tree = run(&mut s, "show 0");
    assert!(tree.contains("ALL"));
    let node = run(&mut s, "node 0 0");
    assert!(node.contains("individuals     10"));

    // Filter then re-quantify, as the interface allows.
    run(&mut s, r#"filter males table1 "gender=Male""#);
    let p2 = run(&mut s, "quantify males paper-f");
    assert!(p2.contains("panel #2"));
    assert_eq!(s.panel(2).unwrap().general_info().individuals, 6);

    // Anonymize then re-quantify (data transparency).
    run(&mut s, "anonymize anon table1 k=2");
    let p3 = run(&mut s, "quantify anon paper-f");
    assert!(p3.contains("panel #3"));

    // Function-opaque quantification (process transparency).
    let p4 = run(&mut s, "quantify table1 paper-f opaque");
    assert!(p4.contains("panel #4"));
}

#[test]
fn generated_presets_are_usable_end_to_end() {
    let mut s = Session::new();
    for (name, preset) in [
        ("a", "crowdsourcing"),
        ("b", "biased"),
        ("c", "taskrabbit"),
        ("d", "qapa"),
    ] {
        let out = run(&mut s, &format!("generate {name} {preset} n=80 seed=1"));
        assert!(out.contains("generated"));
    }
    run(&mut s, "define f rating*1.0");
    assert!(run(&mut s, "quantify b f").contains("panel #0"));
    // The qapa population has customer_rating instead of rating.
    run(&mut s, "define g customer_rating*1.0");
    assert!(run(&mut s, "quantify d g").contains("panel #1"));
}

#[test]
fn emd_aliases_render_exactly_what_1d_renders() {
    // `batched` and `kernel` are accepted aliases of `1d`: same panel,
    // byte for byte.
    let render = |emd: &str| {
        let mut s = Session::new();
        run(&mut s, "generate pop biased n=300 seed=4");
        run(&mut s, "define f rating*0.7+language_test*0.3");
        run(&mut s, &format!("quantify pop f emd={emd}"))
    };
    let one_d = render("1d");
    assert!(one_d.contains("panel #0"));
    for alias in ["batched", "kernel"] {
        assert_eq!(render(alias), one_d, "emd={alias}");
    }
}
