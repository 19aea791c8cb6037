//! Manifest schema stability: serialize → parse → re-serialize is the
//! identity, unknown fields are tolerated (forward compatibility), and
//! the canonical JSON form is pinned by a committed golden file.
//!
//! Refresh the golden after an intentional schema change with:
//! `UPDATE_GOLDENS=1 cargo test -p telco-orchestrator --test manifest_roundtrip`

use std::path::Path;

use telco_orchestrator::{Manifest, ManifestError, PlanOptions};
use telco_sim::SimConfig;

fn golden_manifest() -> Manifest {
    // Pinned literals, NOT SimConfig::tiny(): preset drift should fail
    // plan/coverage tests, not silently rewrite the schema golden.
    let mut cfg = SimConfig::tiny();
    cfg.seed = 0x7e1c0;
    cfg.n_ues = 10;
    cfg.n_days = 3;
    cfg.threads = 1;
    Manifest::plan(cfg, &PlanOptions { shards: 3, days_per_slice: 2, scenario: "golden".into() })
        .unwrap()
}

#[test]
fn serialize_parse_reserialize_is_identity() {
    let manifest = golden_manifest();
    let json = manifest.to_json();
    let parsed = Manifest::from_json(&json).unwrap();
    assert_eq!(parsed, manifest, "parse must reconstruct the exact manifest");
    assert_eq!(parsed.to_json(), json, "re-serialization must be byte-identical");
    assert_eq!(parsed.manifest_hash(), manifest.manifest_hash());
    for i in 0..manifest.entries.len() {
        assert_eq!(parsed.entry_hash(i), manifest.entry_hash(i));
    }
}

#[test]
fn unknown_fields_are_tolerated_unknown_format_is_not() {
    let manifest = golden_manifest();
    let json = manifest.to_json();

    // A future writer adds top-level and per-entry fields: this parser
    // must ignore them and recover the manifest it understands.
    let extended = json
        .replacen('{', "{\n  \"added_in_v9\": {\"worker_gpus\": 2},", 1)
        .replace("\"index\": 0,", "\"index\": 0,\n      \"entry_annotation\": \"x\",");
    assert_ne!(extended, json);
    let parsed = Manifest::from_json(&extended).expect("unknown fields must parse");
    assert_eq!(parsed, manifest);

    // An unknown format NUMBER is a hard error: field-level tolerance
    // never extends to a schema this build has no contract for.
    let future = json.replacen("\"format\": 1", "\"format\": 99", 1);
    match Manifest::from_json(&future) {
        Err(ManifestError::UnknownFormat(99)) => {}
        other => panic!("expected UnknownFormat(99), got {other:?}"),
    }

    // And garbage is a parse error, not a panic.
    assert!(matches!(Manifest::from_json("{]"), Err(ManifestError::Parse(_))));
    assert!(matches!(Manifest::from_json("{}"), Err(ManifestError::Parse(_))));
}

#[test]
fn retired_trace_version_is_refused_by_name() {
    // Version 3 stored durations as raw floats; 1 and 2 were row formats.
    let json = golden_manifest().to_json();
    for retired in [2, 3] {
        let old =
            json.replacen("\"trace_version\": 4", &format!("\"trace_version\": {retired}"), 1);
        assert_ne!(old, json);
        let err = Manifest::from_json(&old).unwrap_err();
        assert_eq!(err, ManifestError::UnsupportedTraceVersion(retired));
        assert_eq!(
            err.to_string(),
            format!("trace_version {retired} is no longer supported (only v4); re-plan the study")
        );
    }
}

#[test]
fn canonical_json_matches_committed_golden() {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/manifest-v1.json");
    let json = golden_manifest().to_json();
    if std::env::var("UPDATE_GOLDENS").is_ok() {
        std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        std::fs::write(&golden_path, &json).unwrap();
    }
    let committed = std::fs::read_to_string(&golden_path)
        .expect("golden missing — run with UPDATE_GOLDENS=1 to create it");
    assert_eq!(
        json, committed,
        "canonical manifest JSON drifted from tests/goldens/manifest-v1.json; \
         if the schema change is intentional, bump MANIFEST_FORMAT and refresh \
         with UPDATE_GOLDENS=1"
    );
}

#[test]
fn golden_file_itself_round_trips() {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/manifest-v1.json");
    let committed = std::fs::read_to_string(&golden_path)
        .expect("golden missing — run with UPDATE_GOLDENS=1 to create it");
    let parsed = Manifest::from_json(&committed).unwrap();
    assert_eq!(parsed.to_json(), committed);
    assert_eq!(parsed.planned_ue_days(), 30);
}
