//! Golden documents: the `--json` bytes of every shipped model, captured
//! with the pre-`transyt-session` CLI and pinned here, must be reproduced
//! byte-identically by the redesigned stack — through the thin CLI layer
//! *and* through a live server (the session layer is the only
//! implementation, so a drift in either is a bug in it).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use transyt_cli::commands::cmd_task;
use transyt_cli::format::Model;
use transyt_server::{client, Server, ServerConfig};
use transyt_session::render::render_document;
use transyt_session::{render, RunControl, Session, TaskSpec};

fn repo_path(relative: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join(relative)
}

fn model_text(file: &str) -> String {
    let path = repo_path("models").join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

const MODELS: &[&str] = &[
    "c_element.stg",
    "intro_fig1.tts",
    "ipcmos_1stage.stg",
    "ipcmos_2stage.stg",
    "ipcmos_3stage.stg",
    "race_overlap.tts",
    "ring_pipeline.stg",
];

fn golden_name(prefix: &str, file: &str) -> String {
    format!("{prefix}_{}.json", file.replace('.', "_"))
}

/// The `--json` document of a one-shot `transyt` command.
fn one_shot(model: &Model, spec: TaskSpec) -> String {
    render_document(&cmd_task(model, spec, RunControl::default()).unwrap().json)
}

/// Every shipped model's `verify --trace --json` document through the thin
/// CLI command layer matches the pre-redesign bytes.
#[test]
fn cli_verify_documents_match_the_pre_redesign_goldens() {
    for file in MODELS {
        let model = Model::parse(&model_text(file)).expect("model parses");
        let document = one_shot(&model, TaskSpec::verify("").with_trace(true));
        assert_eq!(
            document,
            golden(&golden_name("verify", file)),
            "{file}: CLI verify document drifted from the pre-redesign golden"
        );
    }
}

/// The reach and zones document shapes match their goldens too.
#[test]
fn cli_reach_and_zones_documents_match_the_pre_redesign_goldens() {
    let model = Model::parse(&model_text("ipcmos_1stage.stg")).unwrap();
    let document = one_shot(&model, TaskSpec::zones(""));
    assert_eq!(document, golden("zones_ipcmos_1stage_stg.json"));

    let model = Model::parse(&model_text("race_overlap.tts")).unwrap();
    let document = one_shot(&model, TaskSpec::zones("").with_trace(true));
    assert_eq!(document, golden("zones_race_overlap_tts.json"));

    let model = Model::parse(&model_text("c_element.stg")).unwrap();
    let document = one_shot(&model, TaskSpec::reach("").to("C+"));
    assert_eq!(document, golden("reach_c_element_stg.json"));

    let model = Model::parse(&model_text("ring_pipeline.stg")).unwrap();
    let document = one_shot(&model, TaskSpec::reach(""));
    assert_eq!(document, golden("reach_ring_pipeline_stg.json"));
}

/// Every document in `tests/golden/` — the exact set
/// `scripts/regen-goldens.sh` writes — matches the current rendering: no
/// golden drifts silently, and no orphan file sits in the directory without
/// a test behind it.
#[test]
fn every_committed_golden_matches_current_rendering() {
    use std::collections::BTreeMap;

    let mut documents: BTreeMap<String, String> = BTreeMap::new();
    for file in MODELS {
        let model = Model::parse(&model_text(file)).expect("model parses");
        documents.insert(
            golden_name("verify", file),
            one_shot(&model, TaskSpec::verify("").with_trace(true)),
        );
    }
    let model = Model::parse(&model_text("ipcmos_1stage.stg")).unwrap();
    documents.insert(
        golden_name("zones", "ipcmos_1stage.stg"),
        one_shot(&model, TaskSpec::zones("")),
    );
    let model = Model::parse(&model_text("race_overlap.tts")).unwrap();
    documents.insert(
        golden_name("zones", "race_overlap.tts"),
        one_shot(&model, TaskSpec::zones("").with_trace(true)),
    );
    let model = Model::parse(&model_text("c_element.stg")).unwrap();
    documents.insert(
        golden_name("reach", "c_element.stg"),
        one_shot(&model, TaskSpec::reach("").to("C+")),
    );
    let model = Model::parse(&model_text("ring_pipeline.stg")).unwrap();
    documents.insert(
        golden_name("reach", "ring_pipeline.stg"),
        one_shot(&model, TaskSpec::reach("")),
    );

    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut committed: Vec<String> = std::fs::read_dir(&dir)
        .expect("golden directory exists")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    committed.sort();
    let expected: Vec<String> = documents.keys().cloned().collect();
    assert_eq!(
        committed, expected,
        "tests/golden/ and the regen script disagree on the golden set"
    );
    for (name, document) in &documents {
        assert_eq!(
            document,
            &golden(name),
            "{name} drifted from the committed golden; \
             review and run scripts/regen-goldens.sh"
        );
    }
}

/// The embedding API produces the same bytes directly, without the CLI.
#[test]
fn session_api_documents_match_the_pre_redesign_goldens() {
    let session = Session::new();
    for file in MODELS {
        let (cached, _) = session.add_model(&model_text(file)).expect("model parses");
        let spec = TaskSpec::verify(&cached.hash).with_trace(true);
        let outcome = session.run(&spec).expect("run succeeds");
        let document = render::render_document(&render::document(&outcome));
        assert_eq!(
            document,
            golden(&golden_name("verify", file)),
            "{file}: Session document drifted from the pre-redesign golden"
        );
    }
}

/// Every shipped model's document through a **live server** (real socket,
/// query-string options, worker pool, shared session) matches the goldens.
#[test]
fn server_documents_match_the_pre_redesign_goldens() {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let handle = server.spawn();
    let addr = handle.addr().to_string();

    let mut jobs = Vec::new();
    for file in MODELS {
        let text = model_text(file);
        let (status, body) =
            client::request(&addr, "POST", "/models", Some(text.as_bytes())).unwrap();
        assert_eq!(status, 200, "{body}");
        let hash = client::json_str_field(&body, "hash").unwrap();
        let (status, body) = client::request(
            &addr,
            "POST",
            &format!("/jobs?model={hash}&command=verify&trace=true"),
            None,
        )
        .unwrap();
        assert_eq!(status, 202, "{body}");
        jobs.push((client::json_uint_field(&body, "job").unwrap(), *file));
    }

    let deadline = Instant::now() + Duration::from_secs(300);
    for (job, file) in jobs {
        loop {
            let (_, body) = client::request(&addr, "GET", &format!("/jobs/{job}"), None).unwrap();
            match client::json_str_field(&body, "status").as_deref() {
                Some("done") => break,
                Some("queued" | "running") => {}
                other => panic!("{file}: unexpected status {other:?}"),
            }
            assert!(Instant::now() < deadline, "{file}: job {job} too slow");
            std::thread::sleep(Duration::from_millis(15));
        }
        let (status, document) =
            client::request(&addr, "GET", &format!("/jobs/{job}/result"), None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            document,
            golden(&golden_name("verify", file)),
            "{file}: server document drifted from the pre-redesign golden"
        );
    }
    handle.shutdown().expect("graceful shutdown");
}
