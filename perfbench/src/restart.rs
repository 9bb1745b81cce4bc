//! `warm_restart`: set-up builds a sharded service and saves its
//! snapshot; each timed operation is one
//! `QueryService::try_restore_or_build` from that file.

use crate::oracle::{response_digest, StaticOracle};
use crate::report::{
    median, peak_rss_mb, secs, summarize, timed, Batches, Outcome, FEW_OPS_SLICE, FEW_OPS_TAIL,
    SETUP_REPS,
};
use crate::{phase, RunCfg};
use dp_service::{QueryService, QueryServiceConfig};
use dp_spatial::snapshot::SnapshotReader;
use dp_workloads::{request_stream, uniform_segments, RequestMix};
use scan_model::FaultPlan;
use std::sync::Arc;
use std::time::Instant;

/// Segments in the saved collection (uniform, world side 1024, extent
/// at most 16) and the shard grid side (16 shards).
const SEGMENTS: usize = 200_000;
const SHARD_GRID: u32 = 4;
/// Mixed read requests every restored service must answer exactly.
const SAMPLE: usize = 16;

pub fn run(cfg: &RunCfg, out: &mut Outcome) {
    let config = QueryServiceConfig {
        shard_grid: SHARD_GRID,
        ..QueryServiceConfig::default()
    };
    std::fs::create_dir_all(&cfg.scratch)
        .unwrap_or_else(|e| panic!("create {}: {e}", cfg.scratch.display()));
    let path = cfg.scratch.join("service.snap");
    let mut setup = Vec::new();
    let (mut generate, mut build, mut encode, mut save) = (vec![], vec![], vec![], vec![]);
    let mut set_up = || {
        phase("warm_restart set-up");
        let t = Instant::now();
        let (gen_s, data) = timed(|| uniform_segments(SEGMENTS, 1024, 16, cfg.seed));
        let (build_s, service) = timed(|| {
            QueryService::try_build(config, data.world, data.segs.clone())
                .unwrap_or_else(|e| panic!("warm_restart service build rejected: {e}"))
        });
        let (save_s, saved) = timed(|| service.save_snapshot(&path));
        saved.unwrap_or_else(|e| panic!("save {}: {e}", path.display()));
        setup.push(secs(t));
        let (encode_s, _) = timed(|| service.encode_snapshot().map(|b| b.len()));
        generate.push(gen_s);
        build.push(build_s);
        save.push(save_s);
        encode.push(encode_s);
        eprintln!(
            "set-up: {:.3} s (build {build_s:.3} s, save {save_s:.3} s)",
            setup.last().expect("just pushed")
        );
        data
    };
    let data = set_up();
    out.set("setup_peak_rss_mb", peak_rss_mb());
    let file_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    out.set("snapshot_mb", file_bytes as f64 / 1e6);

    let sample = request_stream(data.world, SAMPLE, RequestMix::DEFAULT, cfg.seed ^ 0x77);
    let oracle = StaticOracle::new(data.world, &data.segs);
    let expected: Vec<u64> = sample.iter().map(|r| oracle.answer(r).digest()).collect();

    phase("warm_restart timed restores");
    let plan = Arc::new(FaultPlan::disabled());
    let mut lat = Batches::new();
    let (mut read, mut parse) = (vec![], vec![]);
    let start = Instant::now();
    while secs(start) < cfg.seconds {
        let segs = data.segs.clone();
        let t = Instant::now();
        let restored = QueryService::try_restore_or_build(
            config,
            data.world,
            segs,
            Vec::new(),
            plan.clone(),
            &path,
        );
        let dt = secs(t);
        lat.push((dt, vec![dt]));
        out.attempted += 1;
        let (service, warm) = match restored {
            Ok(r) => r,
            Err(e) => {
                out.failed += 1;
                eprintln!("restore failed: {e}");
                continue;
            }
        };
        if !warm {
            // A cold fallback still serves, but the restore failed.
            out.failed += 1;
        }
        let answers = service.execute_batch(&sample);
        if answers
            .iter()
            .map(response_digest)
            .ne(expected.iter().copied())
        {
            out.wrong(format!(
                "restore {} answers the probe sample unlike the oracle",
                lat.len()
            ));
        }
        drop(service);
        if cfg.trace {
            let t = Instant::now();
            let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("read snapshot: {e}"));
            read.push(secs(t));
            let t = Instant::now();
            let parsed = SnapshotReader::parse(&bytes).map(|r| r.num_sections());
            parse.push(secs(t));
            if parsed.is_err() {
                out.wrong("the saved snapshot does not parse".into());
            }
        }
    }
    out.set("process.peak_rss_mb", peak_rss_mb());
    // The other set-up repetitions run after the timed phase, so the
    // peak resident set above covers one set-up.
    for _ in 1..SETUP_REPS {
        drop(set_up());
    }
    out.set("setup_s", median(&mut setup));
    out.set("workloads.generate_s", median(&mut generate));
    out.set("service.build_s", median(&mut build));
    out.set("snapshot.encode_ms", median(&mut encode) * 1e3);
    out.set("snapshot.save_ms", median(&mut save) * 1e3);
    let n = lat.len();
    let (throughput, p50, tail) = summarize(&lat, FEW_OPS_SLICE, FEW_OPS_TAIL);
    out.set("throughput", throughput);
    out.set("latency_p50_ms", p50 * 1e3);
    eprintln!(
        "{n} restores of {:.1} MB: {throughput:.2} /s, p50 {:.1} ms, p90 {:.1} ms",
        file_bytes as f64 / 1e6,
        p50 * 1e3,
        tail * 1e3
    );
    if cfg.trace {
        let (r, p) = (median(&mut read), median(&mut parse));
        out.set("snapshot.read_ms", r * 1e3);
        out.set("snapshot.parse_ms", p * 1e3);
        out.set("snapshot.decode_route_ms", (p50 - r - p) * 1e3);
        out.set("trace.throughput", throughput);
    }
}
