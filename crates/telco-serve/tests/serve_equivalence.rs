//! Served-vs-batch equivalence: the incremental ingest must reproduce
//! the one-shot batch study **byte for byte**, including across a
//! snapshot/restore cycle in the middle of the stream, and its sliding
//! windows must account for exactly the days they claim.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use telco_analytics::{Study, StudyPasses, Sweep};
use telco_serve::{handle_request, query_line, IngestEngine, Published, QueryServer};
use telco_sim::{run_shard, SimConfig, StudyData, TraceSource, World};
use telco_store::DirStore;

fn test_config() -> SimConfig {
    let mut cfg = SimConfig::tiny();
    cfg.n_ues = 200;
    cfg.n_days = 3;
    cfg
}

fn batch_json(cfg: SimConfig) -> String {
    serde_json::to_string(Study::run(cfg).sweep()).expect("batch outputs serialize")
}

/// The batch sweep of exactly the records of `days`.
fn batch_days_json(world: &World, cfg: &SimConfig, days: std::ops::Range<u32>) -> String {
    let mut output = run_shard(world, cfg, days, 0..world.n_ues());
    let trace = TraceSource::in_memory(std::mem::take(&mut output.dataset));
    let data = StudyData { config: cfg.clone(), world: world.clone(), output, trace };
    let outputs = Sweep::new(&data).run(StudyPasses::default).expect("in-memory sweep");
    serde_json::to_string(&outputs).expect("batch outputs serialize")
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("telco_serve_equiv_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn ingest_matches_batch_byte_for_byte() {
    let cfg = test_config();
    let store = Box::new(DirStore::create(temp_dir("oneshot")).unwrap());
    let mut engine = IngestEngine::open(cfg.clone(), store, 7).unwrap();
    while engine.ingest_next_day().unwrap().is_some() {}
    let served = engine.build_view().unwrap().full.expect("full view after ingest");
    assert_eq!(served, batch_json(cfg), "served study drifted from the batch study");
}

#[test]
fn restore_midstream_then_continue_matches_batch() {
    let cfg = test_config();
    let dir = temp_dir("midstream");
    // Ingest one day, drop the engine entirely, reopen from the store
    // (baseline restore path), continue to the end.
    let mut first =
        IngestEngine::open(cfg.clone(), Box::new(DirStore::create(&dir).unwrap()), 7).unwrap();
    first.ingest_next_day().unwrap().unwrap();
    drop(first);
    let mut second =
        IngestEngine::open(cfg.clone(), Box::new(DirStore::open(&dir).unwrap()), 7).unwrap();
    assert_eq!(second.committed_days(), 1);
    while second.ingest_next_day().unwrap().is_some() {}
    let served = second.build_view().unwrap().full.expect("full view after ingest");
    assert_eq!(served, batch_json(cfg), "restored-and-continued study drifted from the batch");
}

#[test]
fn served_queries_answer_from_committed_views() {
    let cfg = test_config();
    let store = Box::new(DirStore::create(temp_dir("queries")).unwrap());
    let mut engine = IngestEngine::open(cfg, store, 7).unwrap();
    let published = Arc::new(Published::new(engine.build_view().unwrap()));
    let mut server = QueryServer::start(Arc::clone(&published), 0).unwrap();
    let addr = server.addr();

    // Before any commit: status works, data queries refuse politely.
    let status = query_line(addr, "{\"query\":\"status\"}").unwrap();
    assert!(status.contains("\"committed_days\":0"), "{status}");
    let outputs = query_line(addr, "{\"query\":\"outputs\"}").unwrap();
    assert!(outputs.contains("no day committed yet"), "{outputs}");

    // Ingest everything, publishing after each commit like `repro serve`.
    while engine.ingest_next_day().unwrap().is_some() {
        published.publish(engine.build_view().unwrap());
    }

    let status = query_line(addr, "{\"query\":\"status\"}").unwrap();
    assert!(status.contains("\"committed_days\":3"), "{status}");
    let section = query_line(addr, "{\"query\":\"table\",\"name\":\"ho_types\"}").unwrap();
    assert!(section.contains("\"section\":{"), "{section}");
    let window = query_line(addr, "{\"query\":\"window\",\"days\":1}").unwrap();
    assert!(window.contains("\"outputs\":{"), "{window}");
    let served = query_line(addr, "{\"query\":\"outputs\"}").unwrap();
    let expected = engine.build_view().unwrap().full.unwrap();
    assert!(served.contains(&expected), "served outputs differ from the engine view");

    let bye = query_line(addr, "{\"query\":\"shutdown\"}").unwrap();
    assert!(bye.contains("shutting_down"), "{bye}");
    server.stop();
    assert!(server.shutdown_requested());
}

#[test]
fn windows_over_a_stream_longer_than_the_window() {
    let mut cfg = SimConfig::tiny();
    cfg.n_ues = 120;
    cfg.n_days = 9;
    let world = World::build(&cfg);
    let store = Box::new(DirStore::create(temp_dir("long")).unwrap());
    let mut engine = IngestEngine::open(cfg.clone(), store, 7).unwrap();
    while let Some(report) = engine.ingest_next_day().unwrap() {
        let k = report.day + 1;
        let view = engine.build_view().unwrap();
        assert_eq!(view.retained_days, k.min(7), "after day {k}");
        assert_eq!(
            view.last_day.as_deref(),
            Some(batch_days_json(&world, &cfg, k - 1..k).as_str()),
            "last day after day {k}"
        );
        assert_eq!(
            view.last_week.as_deref(),
            Some(batch_days_json(&world, &cfg, k.saturating_sub(7)..k).as_str()),
            "last week after day {k}"
        );
        assert_eq!(
            view.full.as_deref(),
            Some(batch_days_json(&world, &cfg, 0..k).as_str()),
            "full view after day {k}"
        );
    }
    assert_eq!(engine.committed_days(), 9);
}

#[test]
fn window_longer_than_retention_is_refused() {
    let mut cfg = SimConfig::tiny();
    cfg.n_ues = 120;
    cfg.n_days = 4;
    let world = World::build(&cfg);
    let store = Box::new(DirStore::create(temp_dir("retention")).unwrap());
    let mut engine = IngestEngine::open(cfg.clone(), store, 2).unwrap();
    let week = "{\"query\":\"window\",\"days\":7}";
    while let Some(report) = engine.ingest_next_day().unwrap() {
        let k = report.day + 1;
        let view = engine.build_view().unwrap();
        assert_eq!(view.retained_days, k.min(2), "after day {k}");
        let (day, _) = handle_request("{\"query\":\"window\",\"days\":1}", &view);
        assert!(day.ends_with(&format!("{}}}", batch_days_json(&world, &cfg, k - 1..k))), "{k}");
        let (answer, _) = handle_request(week, &view);
        if k <= 2 {
            // Every committed day is retained: the window is all of them.
            let expected = batch_days_json(&world, &cfg, 0..k);
            assert_eq!(view.last_week.as_deref(), Some(expected.as_str()), "after day {k}");
            assert!(answer.ends_with(&format!("{expected}}}")), "after day {k}");
        } else {
            assert_eq!(view.last_week, None, "after day {k}");
            assert_eq!(
                answer,
                format!(
                    "{{\"ok\":false,\"error\":\"a 7-day window needs the last {k} days, but \
                     only 2 are retained\"}}"
                ),
            );
        }
    }
}

#[test]
fn socket_responses_equal_handle_request() {
    let cfg = test_config();
    let store = Box::new(DirStore::create(temp_dir("socket")).unwrap());
    let mut engine = IngestEngine::open(cfg, store, 7).unwrap();
    while engine.ingest_next_day().unwrap().is_some() {}
    let view = engine.build_view().unwrap();
    let published = Arc::new(Published::new(view.clone()));
    let mut server = QueryServer::start(published, 0).unwrap();

    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    for query in [
        "{\"query\":\"status\"}",
        "{\"query\":\"outputs\"}",
        "{\"query\":\"study\"}",
        "{\"query\":\"section\",\"name\":\"frame\"}",
        "{\"query\":\"table\",\"name\":\"ho_types\"}",
        "{\"query\":\"figure\",\"name\":\"durations\"}",
        "{\"query\":\"section\",\"name\":\"nope\"}",
        "{\"query\":\"section\"}",
        "{\"query\":\"window\",\"days\":1}",
        "{\"query\":\"window\",\"days\":7}",
        "{\"query\":\"window\",\"days\":3}",
        "{\"query\":\"nope\"}",
        "{\"name\":\"frame\"}",
        "not json",
        "{\"query\":\"shutdown\"}",
    ] {
        writer.write_all(format!("{query}\n").as_bytes()).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let (expected, _) = handle_request(query, &view);
        assert_eq!(line.strip_suffix('\n'), Some(expected.as_str()), "{query}");
    }
    server.stop();
    assert!(server.shutdown_requested());
}
