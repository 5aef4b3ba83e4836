//! Integration tests of the `transyt` CLI: the shipped `models/` files stay
//! in sync with the scenario builders, every printed trace replays
//! step-by-step to its reported end state, and two runs produce identical
//! output.

use std::path::PathBuf;
use std::process::Command;

use transyt_cli::commands::{cmd_task, CommandResult};
use transyt_cli::format::Model;
use transyt_cli::scenarios;
use transyt_session::{replay_rendered, trace_of_verdict, RunControl, TaskSpec};

fn models_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../models")
}

/// Runs a one-shot `transyt` command against `model`.
fn run(model: &Model, spec: TaskSpec) -> CommandResult {
    cmd_task(model, spec, RunControl::default()).unwrap()
}

fn load(file: &str) -> Model {
    let path = models_dir().join(file);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    Model::parse(&text).unwrap_or_else(|e| panic!("parsing {file}: {e}"))
}

#[test]
fn shipped_models_match_their_scenario_builders() {
    let scenarios = scenarios::all();
    assert!(scenarios.len() >= 6, "at least six shipped scenarios");
    for scenario in scenarios {
        let path = models_dir().join(scenario.file);
        let shipped = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        assert_eq!(
            shipped,
            scenario.model.to_text(),
            "models/{} is stale; regenerate with `transyt export --all --dir models`",
            scenario.file
        );
        // And the shipped text round-trips through the parser.
        let reparsed = Model::parse(&shipped).unwrap();
        assert_eq!(reparsed.to_text(), shipped);
    }
}

/// The headline check: `transyt verify models/ipcmos_1stage.stg
/// --trace` prints a timed witness trace that replays step-by-step to the
/// reported end state, identically on two runs.
#[test]
fn ipcmos_1stage_trace_replays_identically_across_runs() {
    let model = load("ipcmos_1stage.stg");
    let timed = model.timed_system().unwrap();
    let mut outputs = Vec::new();
    for _run in 0..2 {
        let result = run(&model, TaskSpec::verify("").with_trace(true));
        assert!(result.text.contains("VERIFIED"), "{}", result.text);
        assert!(result.text.contains("witness trace:"));
        assert!(result.text.contains("end state:"));
        assert!(result.text.contains("waveform"));

        // Replay the trace the CLI would print, step by step.
        let verdict = transyt::verify(
            &timed,
            &model.property(),
            &transyt::VerifyOptions::default(),
        );
        let trace = trace_of_verdict(&verdict, &timed);
        assert!(!trace.steps.is_empty());
        assert!(
            trace.steps.iter().all(|s| s.window.is_some()),
            "timed steps"
        );
        let end = replay_rendered(&trace, timed.underlying())
            .expect("witness trace replays step-by-step");
        assert_eq!(end, trace.end, "replay reaches the reported end state");
        outputs.push((result.text, trace));
    }
    assert_eq!(outputs[0], outputs[1], "two runs print different output");
}

#[test]
fn race_overlap_fails_with_a_replayable_timed_counterexample() {
    let model = load("race_overlap.tts");
    let timed = model.timed_system().unwrap();
    let result = run(&model, TaskSpec::verify("").with_trace(true));
    assert!(result.text.contains("FAILED"), "{}", result.text);
    assert!(result.text.contains("counterexample trace:"));
    let verdict = transyt::verify(
        &timed,
        &model.property(),
        &transyt::VerifyOptions::default(),
    );
    let trace = trace_of_verdict(&verdict, &timed);
    assert_eq!(trace.kind, "counterexample");
    assert_eq!(trace.end, "slow-first");
    let end = replay_rendered(&trace, timed.underlying()).unwrap();
    assert_eq!(end, "slow-first");
    // The counterexample carries its timed firing window.
    assert_eq!(trace.steps[0].window.unwrap().to_string(), "[2, 4]");
}

#[test]
fn every_shipped_model_verifies_to_its_documented_verdict() {
    for (file, expect_verified) in [
        ("ipcmos_1stage.stg", true),
        ("ipcmos_2stage.stg", true),
        ("c_element.stg", true),
        ("ring_pipeline.stg", true),
        ("intro_fig1.tts", true),
        ("race_overlap.tts", false),
    ] {
        let model = load(file);
        let result = run(&model, TaskSpec::verify(""));
        let verified = result.text.contains("VERIFIED");
        assert_eq!(verified, expect_verified, "{file}: {}", result.text);
    }
}

#[test]
fn intro_example_needs_a_refinement_and_reports_constraints() {
    let model = load("intro_fig1.tts");
    let result = run(&model, TaskSpec::verify(""));
    assert!(result.text.contains("VERIFIED (1 refinements"));
    assert!(result.text.contains("g < d"), "{}", result.text);
}

#[test]
fn reach_finds_marking_paths_and_zones_find_symbolic_traces() {
    let model = load("c_element.stg");
    let result = run(&model, TaskSpec::reach("").to("C+"));
    assert!(result.text.contains("path to first marking enabling `C+`"));
    assert!(result.text.contains("--A+-->"));
    assert!(result.text.contains("--B+-->"));

    let model = load("race_overlap.tts");
    let result = run(&model, TaskSpec::zones("").with_trace(true));
    assert!(result.text.contains("symbolic timed trace"));
    assert!(result.text.contains("end state: slow-first"));
    assert!(result.text.contains("clock of slow on entry"));
}

/// The `clock of X on entry` annotations read the stored zone of each
/// witness step. `tick` fires twice in a row, so its clock is re-enabled in
/// `one-tick` (restarted at zero) and disabled in `two-ticks`: by default
/// the widened entry zone of `one-tick` has no upper bound on it and the
/// disabled clock is pinned at zero, while the exact oracle keeps both its
/// bounds and its age.
#[test]
fn zone_witness_pins_the_entry_clock_annotations() {
    let model = Model::parse(
        "tts ticks\n\
         state s0 s0\nstate s1 one-tick\nstate s2 two-ticks\nstate s3 done\n\
         initial s0\nviolation s2 \"ticked twice before slow\"\n\
         trans s0 tick s1\ntrans s1 tick s2\n\
         trans s0 slow s3\ntrans s1 slow s3\ntrans s2 slow s3\n\
         delay tick [1,2]\ndelay slow [3,9]\nproperty forbid-marked\n",
    )
    .unwrap();
    let trace = |exact: bool| {
        let text = run(&model, TaskSpec::zones("").exact(exact).with_trace(true)).text;
        let start = text.find("symbolic timed trace").expect("a witness");
        text[start..].to_owned()
    };
    assert_eq!(
        trace(false),
        "symbolic timed trace to the first violating state:\n  s0\n\
         \x20   --tick @ [1, 2]--> one-tick  (clock of tick on entry: [0, inf))\n\
         \x20   --tick @ [2, 4]--> two-ticks  (clock of tick on entry: [0, 0])\n\
         \x20 end state: two-ticks\n"
    );
    assert_eq!(
        trace(true),
        "symbolic timed trace to the first violating state:\n  s0\n\
         \x20   --tick @ [1, 2]--> one-tick  (clock of tick on entry: [0, 2])\n\
         \x20   --tick @ [2, 4]--> two-ticks  (clock of tick on entry: [1, 8])\n\
         \x20 end state: two-ticks\n"
    );
}

#[test]
fn zone_trace_is_identical_across_runs_by_default_and_exact() {
    let model = load("ipcmos_1stage.stg");
    for exact in [false, true] {
        let texts: Vec<String> = (0..2)
            .map(|_run| {
                // The pipeline has no violating or deadlocked state, so the
                // trace search reports unreachability — but the exploration
                // counters must agree between runs.
                run(&model, TaskSpec::zones("").exact(exact).with_trace(true)).text
            })
            .collect();
        assert_eq!(texts[0], texts[1], "two runs differ (exact={exact})");
    }
}

#[test]
fn the_binary_runs_end_to_end() {
    let binary = env!("CARGO_BIN_EXE_transyt");
    let model = models_dir().join("ipcmos_1stage.stg");
    let output = Command::new(binary)
        .args(["verify", model.to_str().unwrap(), "--trace"])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("VERIFIED"), "{stdout}");
    assert!(stdout.contains("witness trace:"));
    assert!(stdout.contains("end state:"));

    // JSON output lands where --json points.
    let json_path = std::env::temp_dir().join("transyt_cli_test_verify.json");
    let output = Command::new(binary)
        .args([
            "verify",
            model.to_str().unwrap(),
            "--json",
            json_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    let json = std::fs::read_to_string(&json_path).unwrap();
    assert!(json.contains("\"verdict\":\"verified\""), "{json}");
    let _ = std::fs::remove_file(&json_path);

    // Usage errors are reported, not panicked.
    let output = Command::new(binary).args(["frobnicate"]).output().unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown subcommand"), "{stderr}");
    // The retired zone-abstraction flags, thread count, scheduling class,
    // result TTL and fsync switch are usage errors, and the usage text that
    // follows names what is accepted.
    let file = model.to_str().unwrap();
    let refused: [&[&str]; 11] = [
        &["zones", file, "--subsumption", "global"],
        &["zones", file, "--extrapolation", "global"],
        &["zones", file, "--bounds", "global"],
        &["verify", file, "--threads", "2"],
        &["reach", file, "--threads", "2"],
        &["zones", file, "--threads", "2"],
        &["table1", "--threads", "2"],
        &["submit", file, "--server", "127.0.0.1:9", "--threads", "2"],
        &[
            "submit",
            file,
            "--server",
            "127.0.0.1:9",
            "--priority",
            "interactive",
        ],
        &["serve", "--result-ttl", "60"],
        &["serve", "--fsync", "off"],
    ];
    for args in refused {
        let (command, flag) = (args[0], args[args.len() - 2]);
        let output = Command::new(binary).args(args).output().unwrap();
        assert!(!output.status.success(), "{args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("error: `{command}` does not accept `{flag}`")),
            "{stderr}"
        );
        assert!(stderr.contains("USAGE:"), "{stderr}");
    }
    // `serve --no-persist` is retired too; the refusal lists the flags.
    let output = Command::new(binary)
        .args(["serve", "--no-persist"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains(
            "error: `serve` does not accept `--no-persist` (allowed: --addr, --workers, \
             --queue-depth, --keep-results, --data-dir)"
        ),
        "{stderr}"
    );
    assert!(stderr.contains("USAGE:"), "{stderr}");
    // So is the offline `store gc`: a restart with `--keep-results` collects.
    let output = Command::new(binary)
        .args(["store", "gc", "--data-dir", "D"])
        .output()
        .unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("error: `store` does not accept `gc` (use `store ls --data-dir DIR`)"),
        "{stderr}"
    );
    assert!(stderr.contains("USAGE:"), "{stderr}");
}

/// The `--json` documents are a wire format (CI artifacts diff them, the
/// server serves them byte-identically): these goldens were captured before
/// the rendering moved into the shared `transyt_session::render` module and
/// pin the exact bytes.
#[test]
fn json_documents_are_unchanged_golden() {
    use transyt_session::render::render_document;

    let verify = |file: &str| {
        let model = load(file);
        render_document(&run(&model, TaskSpec::verify("").with_trace(true)).json)
    };
    assert_eq!(
        verify("race_overlap.tts"),
        "{\"verdict\":\"failed\",\"refinements\":0,\"explored_states\":4,\"constraints\":[],\
         \"model\":\"race_overlap\",\"trace\":{\"kind\":\"counterexample\",\"start\":\"s0\",\
         \"end\":\"slow-first\",\"steps\":[{\"event\":\"slow\",\"state\":\"slow-first\",\
         \"earliest\":2,\"latest\":4}]}}\n"
    );
    assert_eq!(
        verify("intro_fig1.tts"),
        "{\"verdict\":\"verified\",\"refinements\":1,\"explored_states\":7,\
         \"constraints\":[\"g < a (slack 1)\",\"b < c (slack 3)\",\"g < c (slack 6)\",\
         \"b < d (slack 3)\",\"g < d (slack 6)\",\"g < b (slack 1)\"],\
         \"model\":\"fig1-intro\",\"trace\":{\"kind\":\"witness\",\"start\":\"a0b0c0g0d0\",\
         \"end\":\"a1b1c1g1d1\",\"steps\":[\
         {\"event\":\"g\",\"state\":\"a0b0c0g1d0\",\"earliest\":1,\"latest\":1},\
         {\"event\":\"a\",\"state\":\"a1b0c0g1d0\",\"earliest\":2,\"latest\":2},\
         {\"event\":\"b\",\"state\":\"a1b1c0g1d0\",\"earliest\":2,\"latest\":2},\
         {\"event\":\"c\",\"state\":\"a1b1c1g1d0\",\"earliest\":7,\"latest\":7},\
         {\"event\":\"d\",\"state\":\"a1b1c1g1d1\",\"earliest\":7,\"latest\":7}]}}\n"
    );

    let reach = {
        let model = load("c_element.stg");
        render_document(&run(&model, TaskSpec::reach("").to("C+")).json)
    };
    assert_eq!(
        reach,
        "{\"model\":\"c_element\",\"markings\":8,\"firings\":10,\"deadlock_markings\":0,\
         \"states\":8,\"path_found\":true,\"path\":[\"A+\",\"B+\"]}\n"
    );

    let zones = {
        let model = load("race_overlap.tts");
        render_document(&run(&model, TaskSpec::zones("").with_trace(true)).json)
    };
    assert_eq!(
        zones,
        "{\"model\":\"race_overlap\",\"configurations\":4,\"subsumed\":0,\
         \"alu_subsumed\":0,\"reachable_states\":4,\"violating_states\":1,\"deadlock_states\":1,\
         \"extrapolated_zones\":3,\
         \"arena\":{\"allocated\":4,\"reused\":0,\"recycled\":1},\
         \"completed\":true,\"trace\":{\"kind\":\"witness\",\"start\":\"s0\",\
         \"end\":\"slow-first\",\"steps\":[{\"event\":\"slow\",\"state\":\"slow-first\",\
         \"earliest\":2,\"latest\":4}]}}\n"
    );
}

/// `--timeout SECS` cancels a run at the deadline and reports it as timed
/// out (with the partial exploration summary), instead of running to the
/// limit. The unabstracted (`--exact`) 2-stage zone graph never completes,
/// so the deadline fires whatever the build profile or the host speed.
#[test]
fn timeout_flag_reports_timed_out_with_partial_results() {
    let binary = env!("CARGO_BIN_EXE_transyt");
    let model = models_dir().join("ipcmos_2stage.stg");
    let start = std::time::Instant::now();
    let output = Command::new(binary)
        .args([
            "zones",
            model.to_str().unwrap(),
            "--exact",
            "--limit",
            "100000000",
            "--timeout",
            "1",
        ])
        .output()
        .expect("binary runs");
    assert!(output.status.success());
    // Far below the minutes the full exploration would take.
    assert!(start.elapsed() < std::time::Duration::from_secs(60));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("TIMED OUT: `zones` on `ipcmos_2stage`"),
        "{stdout}"
    );
    assert!(
        stdout.contains("partial results at the deadline:"),
        "{stdout}"
    );
    assert!(stdout.contains("cancelled after"), "{stdout}");
}

/// `--progress` streams exploration milestones to stderr without touching
/// stdout (whose bytes are pinned by the goldens).
#[test]
fn progress_flag_streams_milestones_to_stderr() {
    let binary = env!("CARGO_BIN_EXE_transyt");
    let model = models_dir().join("ipcmos_1stage.stg");
    let plain = Command::new(binary)
        .args(["verify", model.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let with_progress = Command::new(binary)
        .args(["verify", model.to_str().unwrap(), "--progress"])
        .output()
        .expect("binary runs");
    assert!(with_progress.status.success());
    let stderr = String::from_utf8_lossy(&with_progress.stderr);
    assert!(stderr.contains("progress: refinement pass 0"), "{stderr}");
    assert!(stderr.contains("progress: level"), "{stderr}");
    assert_eq!(plain.stdout, with_progress.stdout, "stdout must not change");
}

#[test]
fn export_list_covers_every_shipped_model() {
    let binary = env!("CARGO_BIN_EXE_transyt");
    let output = Command::new(binary)
        .args(["export", "--list"])
        .output()
        .unwrap();
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    for scenario in scenarios::all() {
        assert!(stdout.contains(scenario.file), "missing {}", scenario.file);
    }
}
