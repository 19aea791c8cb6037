//! `repro bench-trace` — measure the trace codec: the slice-by-16 CRC-32
//! kernel on its own, write and streaming-read throughput of the chunked
//! columnar store, the one-pass out-of-core aggregation (the daily
//! `FramePass` swept from the spilled file at one thread), and the
//! compression ratio over fixed-width rows. Writes the numbers to
//! `BENCH_trace.json` at the repo root.

use std::time::Instant;

use telco_analytics::{FramePass, FrameWindow, Sweep};
use telco_sim::{run_study, SimConfig, StudyData, TraceSource};
use telco_trace::crc32::crc32;
use telco_trace::io::RECORD_BYTES;
use telco_trace::store::{write_file_v3, TraceReader};

struct Measurement {
    secs: f64,
    bytes: u64,
    records: u64,
}

impl Measurement {
    fn json(&self) -> String {
        format!(
            "{{\"secs\": {:.4}, \"mb_per_sec\": {:.1}, \"records_per_sec\": {:.0}}}",
            self.secs,
            self.bytes as f64 / self.secs / 1e6,
            self.records as f64 / self.secs
        )
    }
}

/// Best-of-three wall time of `f`, reported against `bytes`/`records`.
fn measure(what: &str, bytes: u64, records: u64, mut f: impl FnMut()) -> Measurement {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    eprintln!(
        "bench-trace: {what}: {best:.4}s ({:.1} MB/s, {:.0} records/s)",
        bytes as f64 / best / 1e6,
        records as f64 / best
    );
    Measurement { secs: best, bytes, records }
}

/// Run the benchmark and write `BENCH_trace.json`.
pub fn run(config: SimConfig, preset_name: &str) {
    eprintln!(
        "bench-trace: preset {preset_name}, simulating {} UEs × {} days...",
        config.n_ues, config.n_days
    );
    let data: StudyData = run_study(config);
    let dataset = data.trace.as_dataset().expect("in-memory study");
    let records = dataset.len() as u64;
    let payload_bytes = records * RECORD_BYTES as u64;
    eprintln!(
        "bench-trace: {records} records ({:.1} MB as fixed-width rows)",
        payload_bytes as f64 / 1e6
    );

    // The CRC kernel in isolation: every chunked write and read funnels
    // through it, so its ceiling bounds the store below.
    let crc_buf = vec![0xA5u8; 64 << 20];
    let crc_bytes = crc_buf.len() as u64;
    let crc = measure("crc32 slice-by-16 (64 MiB)", crc_bytes, 0, || {
        assert_ne!(crc32(&crc_buf), 0);
    });

    let dir = std::env::temp_dir().join("telco-bench-trace");
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let path = dir.join("bench.tlho");

    let write = measure("v3 write", payload_bytes, records, || {
        write_file_v3(dataset, &path).expect("v3 write");
    });
    let file_bytes = std::fs::metadata(&path).expect("v3 metadata").len();
    eprintln!(
        "bench-trace: file size {file_bytes} (compression {:.2}x over row bytes)",
        payload_bytes as f64 / file_bytes as f64
    );

    let read = measure("v3 streaming read", payload_bytes, records, || {
        let mut reader = TraceReader::open(&path).expect("v3 open");
        let d = reader.read_to_dataset_strict().expect("v3 read");
        assert_eq!(d.len() as u64, records);
    });
    // Sanity: the file round-trips to the same records.
    let mut reader = TraceReader::open(&path).expect("v3 open");
    let back = reader.read_to_dataset_strict().expect("v3 read");
    assert_eq!(&back, dataset, "v3 round-trip drifted");

    let mut config = data.config.clone();
    config.threads = 1;
    let spilled = StudyData {
        config,
        world: data.world.clone(),
        output: data.output.clone(),
        trace: TraceSource::spilled(&path, dataset.days, records),
    };
    let aggregate = measure("v3 stream → frame", payload_bytes, records, || {
        let frame =
            Sweep::new(&spilled).run(|| FramePass::new(FrameWindow::Daily)).expect("v3 aggregate");
        assert!(!frame.is_empty());
    });
    let _ = std::fs::remove_dir_all(&dir);

    // The vendored serde_json is a stand-in, so format by hand.
    let json = format!(
        "{{\n  \"preset\": \"{preset_name}\",\n  \"records\": {records},\n  \
         \"payload_bytes\": {payload_bytes},\n  \"v3_file_bytes\": {file_bytes},\n  \
         \"v3_compression_ratio\": {:.3},\n  \"crc32_slice16\": {},\n  \
         \"v3_write\": {},\n  \"v3_streaming_read\": {},\n  \
         \"v3_stream_aggregate\": {}\n}}\n",
        payload_bytes as f64 / file_bytes as f64,
        crc.json(),
        write.json(),
        read.json(),
        aggregate.json()
    );
    std::fs::write("BENCH_trace.json", &json).expect("write BENCH_trace.json");
    eprintln!("bench-trace: wrote BENCH_trace.json");
}
