//! `serve_hot_reads` and `serve_mixed_writes`: a closed loop with one
//! client thread submitting fixed-size batches through
//! `ServicePipeline::submit_batch` against a sharded `QueryService`.

use crate::oracle::{brute_read, response_digest, LiveOracle, StaticOracle};
use crate::report::{median, peak_rss_mb, secs, summarize, timed, Batches, Outcome, SETUP_REPS};
use crate::{phase, RunCfg, SplitMix};
use dp_geom::{LineSeg, Rect};
use dp_service::{AdmissionPolicy, QueryService, QueryServiceConfig, ServicePipeline};
use dp_workloads::{
    request_stream_with_updates, skew_hot_windows, uniform_segments, Request, RequestMix,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The make-up of one serving workload.
pub struct Spec {
    pub name: &'static str,
    /// Segments in the initial collection (uniform, world side 1024,
    /// extent at most 16).
    pub segments: usize,
    /// Tiles per world side; the service runs `shard_grid²` shards.
    pub shard_grid: u32,
    /// Admission lanes of the pipeline.
    pub lanes: usize,
    /// Requests of each family in every closed-loop batch, in
    /// [`FAMILIES`] order; the batch size is their sum. Every batch holds
    /// the same counts in a seeded order, so a run is whole rounds of the
    /// same operations.
    pub per_batch: [usize; 7],
    /// `(share, count)`: this share of windows and points is remapped
    /// onto `count` hot windows and points.
    pub hot: Option<(f64, usize)>,
    /// Batches generated per second of run time (above the batch rate;
    /// the run ends early if the stream runs out).
    pub batches_per_second: usize,
    /// The latency percentile reported as `latency_tail_ms`.
    pub tail: f64,
}

impl Spec {
    fn batch(&self) -> usize {
        self.per_batch.iter().sum()
    }

    fn has_writes(&self) -> bool {
        self.per_batch[5] + self.per_batch[6] > 0
    }
}

pub const HOT_READS: Spec = Spec {
    name: "serve_hot_reads",
    segments: 200_000,
    shard_grid: 4,
    lanes: 2,
    per_batch: [38, 19, 7, 0, 0, 0, 0],
    hot: Some((0.9, 64)),
    batches_per_second: 120,
    tail: 0.99,
};

pub const MIXED_WRITES: Spec = Spec {
    name: "serve_mixed_writes",
    segments: 100_000,
    shard_grid: 4,
    lanes: 1,
    per_batch: [28, 14, 5, 2, 1, 9, 5],
    hot: None,
    batches_per_second: 12,
    // Background compactions slow about one batch in five, and p99 lands
    // where they meet a dominance request and host CPU steal: it read
    // 360-581 ms over three seeds where p90 read 294-307 ms.
    tail: 0.9,
};

/// Requests per slice of a run at least (see [`summarize`]), so a
/// slice's p99 has ten samples beyond it.
const SLICE_REQUESTS: usize = 1000;

const WORLD_SIDE: u32 = 1024;
const MAX_LEN: u32 = 16;

/// Request families, in the order of [`Spec::per_batch`].
const FAMILIES: [&str; 7] = [
    "window",
    "point",
    "knn",
    "skyline",
    "dominance",
    "insert",
    "delete",
];

fn family(r: &Request) -> usize {
    match r {
        Request::Window(_) => 0,
        Request::PointInWindow(_) => 1,
        Request::KNearest { .. } => 2,
        Request::Skyline(_) => 3,
        Request::DominanceAgg(_) => 4,
        Request::Insert(_) => 5,
        Request::Delete(_) => 6,
        Request::Join(_) => unreachable!("the benchmark streams carry no joins"),
    }
}

fn is_write(r: &Request) -> bool {
    matches!(r, Request::Insert(_) | Request::Delete(_))
}

fn config(spec: &Spec) -> QueryServiceConfig {
    QueryServiceConfig {
        shard_grid: spec.shard_grid,
        ..QueryServiceConfig::default()
    }
}

/// `len` requests of family `f` from the workload generator (not
/// deletes, whose ids depend on the stream around them).
fn family_pool(world: Rect, f: usize, len: usize, seed: u64) -> Vec<Request> {
    let one = |g: usize| u32::from(f == g);
    let mix = RequestMix {
        window: one(0),
        point: one(1),
        knearest: one(2),
        join: 0,
        skyline: one(3),
        dominance: one(4),
        insert: one(5),
        delete: 0,
    };
    request_stream_with_updates(world, len, mix, seed ^ f as u64, 0)
}

/// `batches` closed-loop batches: each holds `spec.per_batch` requests
/// of every family in a seeded order; deletes pick a live logical id.
fn stream(spec: &Spec, world: Rect, batches: usize, seed: u64) -> Vec<Request> {
    let mut pools: Vec<std::vec::IntoIter<Request>> = (0..6)
        .map(|f| family_pool(world, f, spec.per_batch[f] * batches, seed).into_iter())
        .collect();
    let mut rng = SplitMix(seed ^ 0x5e);
    let mut live = spec.segments as u64;
    let mut out = Vec::with_capacity(spec.batch() * batches);
    for _ in 0..batches {
        let mut slots: Vec<usize> = (0..7)
            .flat_map(|f| std::iter::repeat_n(f, spec.per_batch[f]))
            .collect();
        for i in (1..slots.len()).rev() {
            slots.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        for f in slots {
            out.push(if f == 6 {
                live -= 1;
                Request::Delete((rng.next_u64() % (live + 1)) as u32)
            } else {
                live += u64::from(f == 5);
                pools[f]
                    .next()
                    .expect("each pool holds its share of every batch")
            });
        }
    }
    if let Some((share, count)) = spec.hot {
        skew_hot_windows(&mut out, &world, share, count, seed ^ 1);
    }
    out
}

pub fn run(spec: &Spec, cfg: &RunCfg, out: &mut Outcome) {
    let mut setup = Vec::new();
    let mut generate = Vec::new();
    let mut build = Vec::new();
    let mut set_up = || {
        phase("serve set-up");
        let t = Instant::now();
        let (gen_s, (world, segs, reqs)) = timed(|| {
            let data = uniform_segments(spec.segments, WORLD_SIDE, MAX_LEN, cfg.seed);
            let batches = spec.batches_per_second * cfg.seconds as usize;
            let reqs = stream(spec, data.world, batches, cfg.seed);
            (data.world, data.segs, reqs)
        });
        let (build_s, service) = timed(|| {
            QueryService::try_build(config(spec), world, segs.clone())
                .unwrap_or_else(|e| panic!("{} service build rejected: {e}", spec.name))
        });
        setup.push(secs(t));
        generate.push(gen_s);
        build.push(build_s);
        eprintln!("set-up: {:.3} s (build {build_s:.3} s)", secs(t));
        (world, segs, reqs, Arc::new(service))
    };
    let (world, segs, reqs, service) = set_up();
    out.set("setup_peak_rss_mb", peak_rss_mb());
    let (encode_s, snap) = timed(|| service.encode_snapshot());
    let snap = snap.unwrap_or_else(|e| panic!("{} snapshot encode failed: {e}", spec.name));
    out.set("snapshot_mb", snap.len() as f64 / 1e6);
    out.set("snapshot.encode_ms", encode_s * 1e3);
    drop(snap);

    phase("serve timed loop");
    let pipeline = ServicePipeline::new(service.clone(), spec.lanes, AdmissionPolicy::Block)
        .unwrap_or_else(|e| panic!("pipeline rejected: {e}"));
    service.reset_stats();
    let cache0 = service.cache_stats();
    // Per batch: busy seconds and each reply's latency in seconds.
    let mut batches = Batches::new();
    let mut digests = Vec::new();
    // Queue-depth high-water mark, read after every batch when traced:
    // the service resets the gauge at each compaction's epoch swap.
    let mut depth = 0u64;
    let start = Instant::now();
    for batch in reqs.chunks_exact(spec.batch()) {
        if secs(start) >= cfg.seconds {
            break;
        }
        let t = Instant::now();
        let ticket = pipeline.submit_batch(batch);
        let submitted = ticket.submitted_at();
        let replies = ticket.wait_all_timed();
        let busy = secs(t);
        let lat = replies
            .iter()
            .map(|(_, done)| done.saturating_duration_since(submitted).as_secs_f64())
            .collect();
        batches.push((busy, lat));
        if cfg.trace {
            let shards = service.stats().shards;
            depth = shards
                .iter()
                .map(|s| s.max_queue_depth)
                .fold(depth, u64::max);
        }
        digests.extend(replies.iter().map(|(resp, _)| response_digest(resp)));
    }
    if secs(start) < cfg.seconds {
        eprintln!("warning: the request stream ran out before the run time");
    }
    drop(pipeline);
    out.set("process.peak_rss_mb", peak_rss_mb());
    let done = digests.len();
    out.attempted = done as u64;
    let (throughput, p50, tail) = summarize(&batches, SLICE_REQUESTS, spec.tail);
    out.set("throughput", throughput);
    out.set("latency_p50_ms", p50 * 1e3);
    eprintln!(
        "{done} requests: {throughput:.0} req/s, p50 {:.2} ms, p{} {:.2} ms",
        p50 * 1e3,
        spec.tail * 100.0,
        tail * 1e3
    );
    let stats = service.stats();
    let cache = service.cache_stats();
    // The other set-up repetitions run after the timed phase, so the
    // peak resident set above covers one set-up, not the freed remains
    // of several.
    for _ in 1..SETUP_REPS {
        drop(set_up());
    }
    out.set("setup_s", median(&mut setup));
    out.set("workloads.generate_s", median(&mut generate));
    out.set("service.build_s", median(&mut build));

    phase("serve output check");
    let served = &reqs[..done];
    let expected = if spec.has_writes() {
        replay_writes(&segs, served)
    } else {
        answer_reads(world, &segs, served)
    };
    for (i, (want, got)) in expected.iter().zip(&digests).enumerate() {
        if want != got {
            out.wrong(format!(
                "request {i} ({:?}) answered unlike the oracle",
                served[i]
            ));
        }
    }

    if cfg.trace {
        phase("serve per-layer timings");
        out.set("trace.throughput", throughput);
        let requests = stats.requests.max(1) as f64;
        let mean_probes = stats.total_probes() as f64 / stats.shards.len().max(1) as f64;
        out.set(
            "service.probes_per_request",
            stats.total_probes() as f64 / requests,
        );
        out.set(
            "service.shard_skew",
            stats.max_shard_probes() as f64 / mean_probes.max(1e-9),
        );
        let flush = |q| stats.flush_latency_quantile_micros(q).unwrap_or(0) as f64;
        out.set("service.flush_p50_us", flush(0.5));
        out.set("service.flush_p99_us", flush(0.99));
        out.set("service.compactions", stats.compactions as f64);
        out.set(
            "admission.queue_wait_us",
            stats.mean_queue_wait_micros().unwrap_or(0.0),
        );
        let flushes: u64 = stats.shards.iter().map(|s| s.coalesced_batches).sum();
        out.set(
            "admission.requests_per_flush",
            stats.total_admitted() as f64 / flushes.max(1) as f64,
        );
        out.set("admission.max_queue_depth", depth as f64);
        let (hits, misses) = (cache.hits - cache0.hits, cache.misses - cache0.misses);
        out.set(
            "cache.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        out.set(
            "cache.invalidations",
            (cache.invalidations - cache0.invalidations) as f64,
        );
        family_timings(spec, cfg, world, &service, served, out);
    }
}

/// Expected digests of a read-only stream over the static collection,
/// computed on two threads with answers memoized per distinct request.
fn answer_reads(world: Rect, segs: &[LineSeg], reqs: &[Request]) -> Vec<u64> {
    let oracle = StaticOracle::new(world, segs);
    let half = reqs.len().div_ceil(2).max(1);
    std::thread::scope(|s| {
        let parts: Vec<_> = reqs
            .chunks(half)
            .map(|part| {
                let oracle = &oracle;
                s.spawn(move || {
                    let mut memo: HashMap<[u64; 4], u64> = HashMap::new();
                    part.iter()
                        .map(|r| {
                            *memo
                                .entry(key(r))
                                .or_insert_with(|| oracle.answer(r).digest())
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    })
}

/// A hashable identity of a read request.
fn key(r: &Request) -> [u64; 4] {
    let tag = family(r) as u64;
    match r {
        Request::Window(q) | Request::Skyline(q) => [
            tag << 56 ^ q.min.x.to_bits(),
            q.min.y.to_bits(),
            q.max.x.to_bits(),
            q.max.y.to_bits(),
        ],
        Request::PointInWindow(p) | Request::DominanceAgg(p) => {
            [tag, p.x.to_bits(), p.y.to_bits(), 0]
        }
        Request::KNearest { p, k } => [tag, p.x.to_bits(), p.y.to_bits(), *k as u64],
        _ => unreachable!("reads only"),
    }
}

/// Expected digests of a stream with writes: the eager oracle replays it
/// in order; each run of reads between two writes is split over two
/// threads, since reads see the same collection.
fn replay_writes(segs: &[LineSeg], reqs: &[Request]) -> Vec<u64> {
    let mut oracle = LiveOracle {
        live: segs.to_vec(),
    };
    let mut out = Vec::with_capacity(reqs.len());
    let mut i = 0;
    while i < reqs.len() {
        if is_write(&reqs[i]) {
            out.push(oracle.apply(&reqs[i]).digest());
            i += 1;
            continue;
        }
        let end = reqs[i..]
            .iter()
            .position(is_write)
            .map_or(reqs.len(), |k| i + k);
        let run = &reqs[i..end];
        let mid = run.len() / 2;
        let live = &oracle.live;
        let read = |part: &[Request]| -> Vec<u64> {
            part.iter().map(|r| brute_read(live, r).digest()).collect()
        };
        let (a, b) = std::thread::scope(|s| {
            let h = s.spawn(|| read(&run[..mid]));
            let b = read(&run[mid..]);
            (h.join().expect("oracle thread panicked"), b)
        });
        out.extend(a);
        out.extend(b);
        i = end;
    }
    out
}

/// Per-family service time: single-family batches through
/// `QueryService::execute_batch` (which bypasses the admission lanes and
/// the cache), after the timed phase. Also prints each family's share of
/// the run's service time.
fn family_timings(
    spec: &Spec,
    cfg: &RunCfg,
    world: Rect,
    service: &QueryService,
    served: &[Request],
    out: &mut Outcome,
) {
    let live = service.segments().len();
    let mut us = [0.0f64; 7];
    for f in (0..FAMILIES.len()).filter(|&f| spec.per_batch[f] > 0) {
        let per_batch = if f == 3 || f == 4 { 8 } else { 64 };
        let reqs: Vec<Request> = if f == 6 {
            (0..3 * per_batch)
                .map(|i| Request::Delete((i * 7919 % (live - 256)) as u32))
                .collect()
        } else {
            family_pool(world, f, 3 * per_batch, cfg.seed ^ 0xfa)
        };
        let mut times: Vec<f64> = reqs
            .chunks(per_batch)
            .map(|chunk| {
                if f >= 5 {
                    let _ = service.compact_now();
                }
                let t = Instant::now();
                std::hint::black_box(service.execute_batch(chunk));
                secs(t) * 1e6 / chunk.len() as f64
            })
            .collect();
        us[f] = median(&mut times);
        out.set(
            [
                "service.window_us",
                "service.point_us",
                "service.knn_us",
                "service.skyline_us",
                "service.dominance_us",
                "service.insert_us",
                "service.delete_us",
            ][f],
            us[f],
        );
    }
    if spec.per_batch[4] > 0 {
        // How much of a dominance request is the probe of its dominated
        // quadrant: the same quadrants as plain window requests.
        let quadrants: Vec<Request> = family_pool(world, 4, 24, cfg.seed ^ 0xfa)
            .iter()
            .filter_map(|r| match r {
                Request::DominanceAgg(p) => Some(Request::Window(Rect::from_coords(
                    world.min.x,
                    world.min.y,
                    p.x,
                    p.y,
                ))),
                _ => None,
            })
            .collect();
        let mut times: Vec<f64> = quadrants
            .chunks(8)
            .map(|chunk| {
                let (s, _) = timed(|| service.execute_batch(chunk));
                s * 1e6 / chunk.len() as f64
            })
            .collect();
        eprintln!(
            "dominated-quadrant window probe: {:.1} us each (dominance request {:.1} us)",
            median(&mut times),
            us[4]
        );
    }
    let mut counts = [0usize; 7];
    served.iter().for_each(|r| counts[family(r)] += 1);
    let total: f64 = (0..7).map(|f| counts[f] as f64 * us[f]).sum();
    for (f, name) in FAMILIES.iter().enumerate() {
        if counts[f] > 0 {
            eprintln!(
                "family {name:>9}: {:>6} requests, {:>9.1} us each, {:>5.1}% of service time",
                counts[f],
                us[f],
                100.0 * counts[f] as f64 * us[f] / total.max(1e-9)
            );
        }
    }

    if spec.has_writes() {
        // Write pressure like the run's (inserts and deletes 9:5), kept
        // under the compaction threshold so only the timed call compacts.
        let inserts = family_pool(world, 5, 3 * 130, cfg.seed ^ 0xc0);
        let mut times = Vec::new();
        for chunk in inserts.chunks(130) {
            let _ = service.compact_now();
            let live = service.segments().len();
            let deletes = (0..70).map(|i| Request::Delete((i * 7919 % (live - 256)) as u32));
            let writes: Vec<Request> = chunk.iter().copied().chain(deletes).collect();
            service.execute_batch(&writes);
            let t = Instant::now();
            service
                .compact_now()
                .unwrap_or_else(|e| panic!("compaction failed: {e}"));
            times.push(secs(t));
        }
        out.set("service.compaction_s", median(&mut times));
    }
}
