//! `serve_ingest`: the operator's day-arrives → queryable path. Each
//! round opens an `IngestEngine` over a fresh `DirStore` (behind a timing
//! wrapper) and ingests the small preset's 7-day stream; each operation is
//! one day: `ingest_next_day` + `build_view` + `Published::publish`.
//!
//! A `QueryServer` serves the published views meanwhile, under an
//! open-loop load of two streams, each with its own generator thread and
//! persistent connection: small queries (`status`, `section ho_types`) at
//! [`SMALL_RATE`] and bulk queries (`outputs`, `window 7`) at
//! [`BULK_RATE`]. Requests go out on a fixed schedule, each line in one
//! write with `TCP_NODELAY` set, and are timed from their scheduled send
//! time, so a stall also counts against the requests queued behind it.
//!
//! Gates: every day commits; every response is `"ok":true` with a
//! `committed_days` that never decreases; the final `full` view equals the
//! batch study's `SweepOutputs` JSON.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use telco_analytics::{restore_pass, AnalysisPass, StudyPasses, Sweep, SweepCtx};
use telco_serve::{handle_request, IngestEngine, Published, QueryServer, ServedView};
use telco_sim::{run_shard, SimConfig, World};
use telco_store::DirStore;
use telco_trace::SignalingDataset;

use crate::spans::{self, Tracer};
use crate::store::{StoreLog, TimingStore};
use crate::{
    digest, in_memory_study, outputs_digest, repeat_setup, stats, timed_phases, Bench, Report,
    Round, OP_SPAN,
};

/// Small queries per second (one generator thread, one connection).
const SMALL_RATE: f64 = 100.0;
/// Bulk queries per second (one generator thread, one connection).
const BULK_RATE: f64 = 2.0;
const SMALL: [&str; 2] =
    ["{\"query\":\"status\"}", "{\"query\":\"section\",\"name\":\"ho_types\"}"];
const BULK: [&str; 2] = ["{\"query\":\"outputs\"}", "{\"query\":\"window\",\"days\":7}"];
/// ROADMAP's latency limit on the `status`/`section` p99 under load.
const SMALL_P99_LIMIT_MS: f64 = 10.0;

/// One answered (or failed) request.
struct Sample {
    bulk: bool,
    /// From the scheduled send time to the end of the response, seconds.
    latency: f64,
    /// How late the generator sent it, seconds.
    lag: f64,
    ok: bool,
}

/// One ingested stream.
struct Stream {
    /// Day-to-queryable seconds of each day.
    days: Vec<f64>,
    /// Open to last publish, seconds.
    ingest_s: f64,
    records: u64,
    /// The store directory and what the timing wrapper saw (kept for probes).
    dir: std::path::PathBuf,
    log: Arc<StoreLog>,
    view: Arc<ServedView>,
}

pub fn run(b: &Bench, tracer: &Arc<Tracer>) -> (Report, Vec<f64>) {
    let config = b.config(false);
    let (reference, setup_s) = repeat_setup(|| batch_reference(&config, tracer));
    let mut report = Report::default();

    let mut op = 0u64;
    let mut samples: Vec<Sample> = Vec::new();
    let mut ingest: Vec<f64> = Vec::new();
    let mut last: Option<Stream> = None;
    let timed = timed_phases(b, tracer, |t| {
        if let Some(previous) = last.take() {
            let _ = std::fs::remove_dir_all(&previous.dir);
        }
        let stream = ingest_stream(b, &config, t, &mut op, &mut samples, &mut report);
        let full = stream.view.full.as_deref().map(digest);
        report.check(full == Some(reference), || {
            format!("stream {}: final view differs from the batch study", ingest.len())
        });
        ingest.push(stream.ingest_s);
        let round = Round {
            op_s: stream.days.clone(),
            records_per_s: stream.records as f64 / stream.ingest_s,
        };
        last = Some(stream);
        round
    });
    report.timed = timed;

    for s in &samples {
        report.check(s.ok, || "query answered not ok, late-committed, or failed".into());
    }
    let ms = |v: Vec<f64>| v.into_iter().map(|x| x * 1e3).collect::<Vec<_>>();
    let small = ms(samples.iter().filter(|s| !s.bulk).map(|s| s.latency).collect());
    let bulk = ms(samples.iter().filter(|s| s.bulk).map(|s| s.latency).collect());
    let lag = ms(samples.iter().map(|s| s.lag).collect());
    report.notes.push(format!("ingest_s per stream: {ingest:?}"));
    for (what, v) in [("query_small_ms", &small), ("query_bulk_ms", &bulk), ("send_lag_ms", &lag)] {
        if !v.is_empty() {
            report
                .notes
                .push(format!("{what}: {}", crate::describe(&stats::summarize(v), 1.0, "ms")));
        }
    }
    if !small.is_empty() {
        let p99 = stats::percentile(&small, 99.0);
        let verdict = if p99 <= SMALL_P99_LIMIT_MS { "met" } else { "missed" };
        report.notes.push(format!(
            "small-query p99 limit {SMALL_P99_LIMIT_MS} ms: {verdict} ({p99:.3} ms)"
        ));
    }

    if b.traced {
        let last = last.as_ref().expect("at least one stream ran");
        if !small.is_empty() {
            report.layer("telco-serve.query_small_p50_ms", stats::median(&small));
            report.layer("telco-serve.query_small_p99_ms", stats::percentile(&small, 99.0));
        }
        if !bulk.is_empty() {
            report.layer("telco-serve.query_bulk_p50_ms", stats::median(&bulk));
        }
        if !lag.is_empty() {
            report.layer("loadgen.send_lag_p99_ms", stats::percentile(&lag, 99.0));
        }
        report.layer("loadgen.queries_sent", samples.len() as f64);
        report.layer("loadgen.queries_failed", samples.iter().filter(|s| !s.ok).count() as f64);
        probe(&config, last, tracer, &mut report);
        report.span_layers(&tracer.spans());
    }
    (report, setup_s)
}

/// Set-up: the batch study's `SweepOutputs` JSON, which the final served
/// view must equal (this also warms the simulation and analysis code).
fn batch_reference(config: &SimConfig, t: &Tracer) -> (u64, usize) {
    let data = in_memory_study(config, t);
    outputs_digest(&Sweep::new(&data).run(StudyPasses::default).expect("batch sweep"))
}

/// Ingest one whole stream under query load.
fn ingest_stream(
    b: &Bench,
    config: &SimConfig,
    t: &Arc<Tracer>,
    op: &mut u64,
    samples: &mut Vec<Sample>,
    report: &mut Report,
) -> Stream {
    let dir = b.scratch(&format!("store-{}", *op));
    let log = Arc::new(StoreLog::default());
    let store = TimingStore::new(
        DirStore::create(&dir).expect("create store inside the checkout"),
        Arc::clone(t),
        Arc::clone(&log),
    );
    let opened = Instant::now();
    let mut engine = t
        .span("telco-serve.open", None, None, |_| {
            IngestEngine::open(config.clone(), Box::new(store), telco_serve::DEFAULT_WINDOW)
        })
        .expect("open ingest over a fresh store");
    let published = Arc::new(Published::new(ServedView::default()));
    let mut server = QueryServer::start(Arc::clone(&published), 0).expect("bind a loopback port");
    let stop = Arc::new(AtomicBool::new(false));
    let mut generators = Vec::new();

    let mut days = Vec::new();
    let mut records = 0;
    let mut ingest_s = 0.0;
    for day in 0..engine.total_days() {
        *op += 1;
        let id = Some(*op);
        let t0 = Instant::now();
        let result = t.span(OP_SPAN, None, id, |root| {
            let ingested = t.span("telco-serve.ingest_day", root, id, |span| {
                log.enter(span, id);
                engine.ingest_next_day()
            });
            let view = t.span("telco-serve.build_view", root, id, |_| engine.build_view());
            let (Ok(Some(ingested)), Ok(view)) = (ingested, view) else { return None };
            t.span("telco-serve.publish", root, id, |_| published.publish(view));
            Some(ingested.records)
        });
        let secs = t0.elapsed().as_secs_f64();
        report.check(result.is_some(), || format!("day {day} did not commit and publish"));
        let Some(day_records) = result else { break };
        days.push(secs);
        records += day_records;
        ingest_s = opened.elapsed().as_secs_f64();
        if generators.is_empty() {
            // Every query kind needs a committed day to answer ok.
            let addr = server.addr();
            for (queries, rate, bulk) in [(SMALL, SMALL_RATE, false), (BULK, BULK_RATE, true)] {
                let (stop, t) = (Arc::clone(&stop), Arc::clone(t));
                generators.push(std::thread::spawn(move || {
                    generate(addr, queries, rate, bulk, &stop, &t)
                }));
            }
        }
    }
    log.enter(None, None);
    // ordering: Relaxed — a stop flag; the samples come back through join.
    stop.store(true, Ordering::Relaxed);
    for g in generators {
        samples.extend(g.join().expect("query generator panicked"));
    }
    server.stop();
    Stream { days, ingest_s, records, dir, log, view: published.current() }
}

/// One open-loop generator: send `queries` alternately at `rate` per
/// second over one persistent connection until `stop`. Each request is a
/// `loadgen.request` span from its scheduled send time to its response.
fn generate(
    addr: SocketAddr,
    queries: [&str; 2],
    rate: f64,
    bulk: bool,
    stop: &AtomicBool,
    t: &Tracer,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let failed = |samples: &mut Vec<Sample>| {
        samples.push(Sample { bulk, latency: 0.0, lag: 0.0, ok: false })
    };
    let Ok(stream) = TcpStream::connect(addr) else {
        failed(&mut samples);
        return samples;
    };
    let (Ok(()), Ok(read_half)) = (stream.set_nodelay(true), stream.try_clone()) else {
        failed(&mut samples);
        return samples;
    };
    let mut writer = stream;
    let mut reader = BufReader::new(read_half);
    let lines: Vec<Vec<u8>> = queries.iter().map(|q| format!("{q}\n").into_bytes()).collect();
    let period = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now();
    let mut response = String::new();
    let mut committed = 0u32;
    for k in 0u32.. {
        let due = start + period * k;
        // Sleep in short slices so a stop is seen promptly.
        loop {
            // ordering: Relaxed — see `ingest_stream`.
            if stop.load(Ordering::Relaxed) {
                return samples;
            }
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(Duration::from_millis(20)));
        }
        let sent = Instant::now();
        response.clear();
        let answered = writer.write_all(&lines[k as usize % 2]).is_ok()
            && reader.read_line(&mut response).is_ok_and(|n| n > 0);
        let done = Instant::now();
        t.record("loadgen.request", None, None, due, done);
        let days = response
            .strip_prefix("{\"ok\":true,\"committed_days\":")
            .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|d| d.parse::<u32>().ok());
        let ok = answered && days.is_some_and(|d| d >= committed);
        committed = days.unwrap_or(committed).max(committed);
        samples.push(Sample {
            bulk,
            latency: (done - due).as_secs_f64(),
            lag: (sent - due).as_secs_f64(),
            ok,
        });
        if !answered {
            return samples;
        }
    }
    samples
}

/// Traced-run probes on the last stream: per-day simulation and v3 encode
/// of the same records (for self time and the snapshot-to-trace ratio),
/// the snapshot codec on the committed objects, and in-process request
/// handling on the final view.
fn probe(config: &SimConfig, last: &Stream, t: &Tracer, report: &mut Report) {
    let spans = t.spans();
    let world = t.span("telco-sim.world_build", None, None, |_| World::build(config));
    let committed = last.log.committed();
    let size_of =
        |name: &str| committed.iter().rev().find(|(n, _)| n == name).map_or(0, |(_, b)| *b);

    let (mut sim_s, mut encode_s, mut ratio) = (Vec::new(), Vec::new(), Vec::new());
    let (mut encoded, mut sim_records) = (0u64, 0u64);
    let encode_dir = last.dir.with_extension("encode");
    std::fs::create_dir_all(&encode_dir).expect("create probe directory inside the checkout");
    for day in 0..config.n_days {
        let t0 = Instant::now();
        let mut shard = t.span("telco-sim.run", None, None, |_| {
            run_shard(&world, config, day..day + 1, 0..world.n_ues())
        });
        sim_s.push(t0.elapsed().as_secs_f64());
        let dataset: SignalingDataset = std::mem::take(&mut shard.dataset);
        sim_records += dataset.len() as u64;
        let path = encode_dir.join(format!("day-{day}.tlho"));
        let t0 = Instant::now();
        t.span("telco-trace.encode", None, None, |_| {
            telco_trace::store::write_file_v3(&dataset, &path)
                .expect("encode v3 inside the checkout")
        });
        encode_s.push(t0.elapsed().as_secs_f64());
        let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        encoded += bytes;
        ratio.push(size_of(&format!("day-{day:05}.snap")) as f64 / bytes.max(1) as f64);
    }
    report.layer_median("telco-sim.run_s", &sim_s);
    report.layer("telco-sim.records", sim_records as f64);
    report.layer("telco-sim.ue_days", (world.n_ues() * config.n_days as usize) as f64);
    report.layer_median("telco-trace.encode_s", &encode_s);
    report.layer("telco-trace.encoded_bytes", encoded as f64);
    report.layer("telco-trace.bytes_per_record", encoded as f64 / sim_records.max(1) as f64);
    report.layer_median("telco-serve.snapshot_to_trace_ratio", &ratio);

    // Per-day engine and store figures of the traced stream, from spans.
    let traced_ops: Vec<u64> =
        spans.iter().filter(|s| s.name == OP_SPAN).filter_map(|s| s.op).collect();
    let per_op = |prefix: &str| -> Vec<f64> {
        traced_ops
            .iter()
            .map(|&op| {
                spans
                    .iter()
                    .filter(|s| s.op == Some(op) && s.name.starts_with(prefix))
                    .map(spans::Span::duration)
                    .sum()
            })
            .collect()
    };
    let ingest = per_op("telco-serve.ingest_day");
    let store = per_op("telco-store.");
    // Traced operations are the days of whole streams, in day order.
    let self_s: Vec<f64> = ingest
        .iter()
        .zip(&store)
        .enumerate()
        .map(|(i, (ingest, store))| ingest - store - sim_s[i % sim_s.len()])
        .collect();
    report.layer_median("telco-serve.ingest_self_s", &self_s);
    report.layer_median("telco-store.put_s", &per_op("telco-store.put"));
    report.layer_median("telco-store.commit_s", &per_op("telco-store.commit"));
    report.layer_median("telco-store.delete_s", &per_op("telco-store.delete"));
    for (metric, span) in [
        ("telco-sim.world_build_s", "telco-sim.world_build"),
        ("telco-serve.open_s", "telco-serve.open"),
        ("telco-serve.ingest_day_s", "telco-serve.ingest_day"),
        ("telco-serve.build_view_s", "telco-serve.build_view"),
        ("telco-serve.publish_s", "telco-serve.publish"),
    ] {
        report.layer_median(metric, &spans::durations(&spans, span));
    }
    report
        .layer("telco-store.bytes_written", last.log.bytes_written.load(Ordering::Relaxed) as f64);
    report.layer("telco-store.objects_committed", committed.len() as f64);
    let deltas: Vec<f64> =
        committed.iter().filter(|(n, _)| n.starts_with("day-")).map(|(_, b)| *b as f64).collect();
    report.layer_median("telco-serve.delta_snapshot_bytes", &deltas);
    let baseline = format!("baseline-{:05}.snap", config.n_days);
    report.layer("telco-serve.baseline_snapshot_bytes", size_of(&baseline) as f64);

    // The snapshot codec on the committed objects: restore the final
    // baseline, finish it and serialize; fold the retained day partials.
    let ctx = SweepCtx { world: &world, config };
    let read = |name: &str| std::fs::read(last.dir.join(name)).expect("read a committed object");
    let bytes = read(&baseline);
    let mut passes = StudyPasses::default();
    let t0 = Instant::now();
    let restored =
        t.span("telco-analytics.restore", None, None, |_| restore_pass(&mut passes, &bytes));
    report.layer("telco-analytics.restore_s", t0.elapsed().as_secs_f64());
    report.check(restored.is_ok(), || "final baseline snapshot does not restore".into());
    let t0 = Instant::now();
    let outputs = t.span("telco-analytics.end", None, None, |_| passes.end(&ctx));
    report.layer("telco-analytics.end_s", t0.elapsed().as_secs_f64());
    let t0 = Instant::now();
    let json = t.span("telco-analytics.outputs_json", None, None, |_| {
        serde_json::to_string(&outputs).expect("SweepOutputs serializes")
    });
    report.layer("telco-analytics.outputs_json_s", t0.elapsed().as_secs_f64());
    report.layer("telco-analytics.outputs_json_bytes", json.len() as f64);
    report.check(last.view.full.as_deref() == Some(json.as_str()), || {
        "restored baseline serializes differently from the served view".into()
    });
    drop((json, outputs));

    let mut base = StudyPasses::default();
    base.begin(&ctx);
    let mut merge_s = 0.0;
    for day in 0..config.n_days {
        let mut part = StudyPasses::default();
        if restore_pass(&mut part, &read(&format!("day-{day:05}.snap"))).is_err() {
            report.check(false, || format!("day {day} partial does not restore"));
            continue;
        }
        let t0 = Instant::now();
        t.span("telco-analytics.merge", None, None, |_| base.merge(part, &ctx));
        merge_s += t0.elapsed().as_secs_f64();
    }
    report.layer("telco-analytics.merge_s", merge_s);

    // In-process request handling on the final view.
    let view = &last.view;
    let view_bytes = [&view.full, &view.last_day, &view.last_week]
        .iter()
        .map(|v| v.as_ref().map_or(0, String::len))
        .sum::<usize>()
        + view.sections.iter().map(|(k, v)| k.len() + v.len()).sum::<usize>();
    report.layer("telco-serve.view_bytes", view_bytes as f64);
    for (metric, line, reps) in [
        ("telco-serve.handle_status_s", SMALL[0], 200),
        ("telco-serve.handle_section_s", SMALL[1], 200),
        ("telco-serve.handle_window_s", BULK[1], 5),
        ("telco-serve.handle_outputs_s", BULK[0], 5),
    ] {
        let mut times = Vec::with_capacity(reps);
        let mut bytes = 0;
        for _ in 0..reps {
            let t0 = Instant::now();
            let (response, _) =
                t.span("telco-serve.handle", None, None, |_| handle_request(line, view));
            times.push(t0.elapsed().as_secs_f64());
            bytes = response.len();
        }
        report.layer_median(metric, &times);
        if line == BULK[0] {
            report.layer("telco-serve.response_bytes_bulk", bytes as f64);
        }
    }
    let _ = std::fs::remove_dir_all(&encode_dir);
}
