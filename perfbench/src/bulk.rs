//! `bulk_build`: repeated rounds of the four scan-model builds — a PM₁
//! quadtree over a planar polygon map, a bucket PMR quadtree over uniform
//! segments, a frontier join of that tree with a second layer, and a
//! dominance aggregation over the segments' midpoints. No service runs.

use crate::oracle::{fold_dominated, grid_join, overfull_leaves, weight, Grid, StaticOracle};
use crate::report::{
    median, peak_rss_mb, secs, summarize, timed, Batches, Outcome, FEW_OPS_SLICE, FEW_OPS_TAIL,
    SETUP_REPS,
};
use crate::{phase, RunCfg, SplitMix};
use dp_geom::{LineSeg, Rect};
use dp_spatial::bucket_pmr::build_bucket_pmr;
use dp_spatial::dominance::{dominance_agg, DomAgg, DomPoint};
use dp_spatial::join::frontier_join;
use dp_spatial::pm1::build_pm1;
use dp_spatial::quadtree::DpQuadtree;
use dp_spatial::snapshot::{encode_tree_snapshot, SnapshotFamily};
use dp_workloads::{polygon_rings, uniform_segments};
use scan_model::{Machine, StatsSnapshot};
use std::time::Instant;

/// Polygon rings per side of the planar map (four segments per ring).
const RING_CELLS: u32 = 64;
/// Uniform segments in each of the two join layers.
const UNIFORM_N: usize = 16_000;
/// World side of the uniform layers, and their longest segment extent.
const UNIFORM_SIDE: u32 = 1024;
const UNIFORM_MAX_LEN: u32 = 16;
/// Bucket PMR capacity and depth limit.
const CAPACITY: usize = 8;
const MAX_DEPTH: usize = 12;
/// Dominance-aggregation query points per round.
const DOM_QUERIES: usize = 256;
/// Fixed window sample the built trees must answer exactly.
const SAMPLE_WINDOWS: usize = 16;

struct Inputs {
    planar: Vec<LineSeg>,
    planar_world: Rect,
    planar_depth: usize,
    layer_a: Vec<LineSeg>,
    layer_b: Vec<LineSeg>,
    uniform_world: Rect,
    points: Vec<DomPoint>,
    queries: Vec<(f64, f64)>,
}

impl Inputs {
    fn generate(seed: u64) -> Inputs {
        let planar = polygon_rings(RING_CELLS, RING_CELLS * 32, seed);
        let a = uniform_segments(UNIFORM_N, UNIFORM_SIDE, UNIFORM_MAX_LEN, seed ^ 0xa);
        let b = uniform_segments(UNIFORM_N, UNIFORM_SIDE, UNIFORM_MAX_LEN, seed ^ 0xb);
        let points = a
            .segs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let m = s.midpoint();
                DomPoint {
                    id: i as u32,
                    x: m.x,
                    y: m.y,
                    w: weight(s),
                }
            })
            .collect();
        let mut rng = SplitMix(seed ^ 0xd0);
        let side = f64::from(UNIFORM_SIDE);
        let queries = (0..DOM_QUERIES)
            .map(|_| (rng.unit() * side, rng.unit() * side))
            .collect();
        Inputs {
            planar_depth: (planar.world.width() as u64).ilog2() as usize,
            planar_world: planar.world,
            planar: planar.segs,
            uniform_world: a.world,
            layer_a: a.segs,
            layer_b: b.segs,
            points,
            queries,
        }
    }

    /// Segments one round builds into trees.
    fn segments_per_round(&self) -> usize {
        self.planar.len() + self.layer_a.len()
    }
}

/// What one round produced.
#[derive(PartialEq)]
struct Outputs {
    pm1: DpQuadtree,
    pmr: DpQuadtree,
    pairs: Vec<(u32, u32)>,
    aggs: Vec<DomAgg>,
}

/// Per-kernel wall times and counters of a traced round.
#[derive(Default)]
struct RoundTrace {
    kernel_s: [f64; 4],
    rounds: usize,
    slowest_round_s: f64,
    tests_per_match: f64,
    ops: StatsSnapshot,
}

/// One round: the four kernels back to back. With `trace`, each kernel is
/// timed on its own and the machine's counters and round traces are read
/// after it.
fn round(m: &Machine, inp: &Inputs, tree_b: &DpQuadtree, trace: bool) -> (Outputs, RoundTrace) {
    let mut t = RoundTrace::default();
    let before = if trace {
        m.stats()
    } else {
        StatsSnapshot::default()
    };
    let mut lap = Instant::now();
    let mut split = |k: usize, t: &mut RoundTrace| {
        if trace {
            t.kernel_s[k] = secs(lap);
            lap = Instant::now();
        }
    };
    let pm1 = build_pm1(m, inp.planar_world, &inp.planar, inp.planar_depth);
    split(0, &mut t);
    let builds = m.take_round_traces();
    let pmr = build_bucket_pmr(m, inp.uniform_world, &inp.layer_a, CAPACITY, MAX_DEPTH);
    split(1, &mut t);
    let builds: Vec<_> = builds.into_iter().chain(m.take_round_traces()).collect();
    let join = frontier_join(m, &pmr, &inp.layer_a, tree_b, &inp.layer_b)
        .expect("both layers share one world");
    split(2, &mut t);
    let aggs = dominance_agg(m, &inp.points, &inp.queries);
    split(3, &mut t);
    m.take_round_traces();
    if trace {
        t.rounds = builds.len();
        t.slowest_round_s = builds.iter().map(|r| r.wall_nanos).max().unwrap_or(0) as f64 / 1e9;
        t.tests_per_match = join.pairs_tested as f64 / join.pairs_matched.max(1) as f64;
        t.ops = m.stats().since(&before);
    }
    let out = Outputs {
        pm1,
        pmr,
        pairs: join.pairs,
        aggs,
    };
    (out, t)
}

/// Checks a round's outputs against answers computed apart from the
/// program; returns one message per wrong kernel output (four at most).
fn verify(inp: &Inputs, got: &Outputs, seed: u64) -> Vec<String> {
    let mut wrong = Vec::new();
    let planar = StaticOracle::new(inp.planar_world, &inp.planar);
    let uniform = StaticOracle::new(inp.uniform_world, &inp.layer_a);
    let mut rng = SplitMix(seed ^ 0x5a);
    let sample = |world: Rect, rng: &mut SplitMix| -> Rect {
        let (w, h) = (world.width(), world.height());
        let (x, y) = (rng.unit() * w * 0.9, rng.unit() * h * 0.9);
        Rect::from_coords(x, y, x + rng.unit() * w * 0.1, y + rng.unit() * h * 0.1)
    };
    let pm1_ok = (0..SAMPLE_WINDOWS).all(|_| {
        let q = sample(inp.planar_world, &mut rng);
        got.pm1.window_query(&q, &inp.planar) == planar.grid.window(&inp.planar, &q)
    });
    if !pm1_ok {
        wrong.push("pm1 tree answers a sample window unlike the grid oracle".into());
    }
    let pmr_ok = (0..SAMPLE_WINDOWS).all(|_| {
        let q = sample(inp.uniform_world, &mut rng);
        got.pmr.window_query(&q, &inp.layer_a) == uniform.grid.window(&inp.layer_a, &q)
    });
    let overfull = overfull_leaves(&got.pmr, CAPACITY, MAX_DEPTH);
    if !pmr_ok || overfull > 0 {
        wrong.push(format!(
            "bucket PMR: sample windows match {pmr_ok}, {overfull} leaves above depth {MAX_DEPTH} hold more than {CAPACITY}"
        ));
    }
    let grid_b = Grid::new(inp.uniform_world, 64, &inp.layer_b);
    if got.pairs != grid_join(&inp.layer_a, &inp.layer_b, &grid_b) {
        wrong.push("frontier join pairs differ from the grid-bucketed join".into());
    }
    let aggs_ok = inp.queries.iter().zip(&got.aggs).all(|(&(x, y), a)| {
        fold_dominated(&inp.layer_a, dp_geom::Point::new(x, y)) == (a.count, a.sum, a.max)
    });
    if !aggs_ok || got.aggs.len() != inp.queries.len() {
        wrong.push("dominance aggregates differ from a direct fold".into());
    }
    wrong
}

pub fn run(cfg: &RunCfg, out: &mut Outcome) {
    let m = Machine::parallel();
    let mut setup = Vec::new();
    let mut generate = Vec::new();
    let mut set_up = || {
        phase("bulk_build set-up");
        let t = Instant::now();
        let (gen_s, inp) = timed(|| Inputs::generate(cfg.seed));
        let tree_b = build_bucket_pmr(&m, inp.uniform_world, &inp.layer_b, CAPACITY, MAX_DEPTH);
        m.take_round_traces();
        // One warm-up round: fills the machine's arena and the pool.
        let (first, _) = round(&m, &inp, &tree_b, false);
        setup.push(secs(t));
        generate.push(gen_s);
        eprintln!("set-up: {:.3} s", secs(t));
        (inp, tree_b, first)
    };
    let (inp, tree_b, first) = set_up();
    out.set("setup_peak_rss_mb", peak_rss_mb());

    phase("bulk_build output check");
    for w in verify(&inp, &first, cfg.seed) {
        out.wrong(w);
    }
    let (encode_s, bytes) = timed(|| {
        encode_tree_snapshot(SnapshotFamily::Pm1Fused, &inp.planar, &first.pm1, None).len()
            + encode_tree_snapshot(SnapshotFamily::BucketPmr, &inp.layer_a, &first.pmr, None).len()
    });
    out.set("snapshot_mb", bytes as f64 / 1e6);
    out.set("snapshot.encode_ms", encode_s * 1e3);

    phase("bulk_build timed rounds");
    let per_round = inp.segments_per_round();
    let (takes0, hits0) = m.arena_stats();
    let mut lat = Batches::new();
    let mut traces = Vec::new();
    let start = Instant::now();
    while secs(start) < cfg.seconds {
        let t = Instant::now();
        let (got, trace) = round(&m, &inp, &tree_b, cfg.trace);
        let dt = secs(t);
        lat.push((dt, vec![dt]));
        out.attempted += 4;
        for (same, what) in [
            (got.pm1 == first.pm1, "pm1 tree"),
            (got.pmr == first.pmr, "bucket PMR tree"),
            (got.pairs == first.pairs, "join pairs"),
            (got.aggs == first.aggs, "dominance aggregates"),
        ] {
            if !same {
                out.wrong(format!("{what} differ from the verified first round"));
            }
        }
        traces.push(trace);
    }
    out.set("process.peak_rss_mb", peak_rss_mb());
    let (takes1, hits1) = m.arena_stats();
    let rounds = lat.len();
    let (rate, p50, tail) = summarize(&lat, FEW_OPS_SLICE, FEW_OPS_TAIL);
    let throughput = rate * per_round as f64;
    out.set("throughput", throughput);
    out.set("latency_p50_ms", p50 * 1e3);
    eprintln!(
        "{rounds} rounds of {per_round} segments: {throughput:.0} segments/s, p50 {:.1} ms, p90 {:.1} ms",
        p50 * 1e3,
        tail * 1e3
    );
    // The other set-up repetitions run after the timed phase, so the
    // peak resident set above covers one set-up.
    for _ in 1..SETUP_REPS {
        drop(set_up());
    }
    out.set("setup_s", median(&mut setup));
    out.set("workloads.generate_s", median(&mut generate));

    if cfg.trace {
        let med = |f: &dyn Fn(&RoundTrace) -> f64| {
            let mut v: Vec<f64> = traces.iter().map(f).collect();
            median(&mut v)
        };
        for (k, name) in [
            "core.pm1_build_s",
            "core.bucket_pmr_build_s",
            "core.join_s",
            "core.dominance_agg_s",
        ]
        .into_iter()
        .enumerate()
        {
            out.set(name, med(&|t| t.kernel_s[k]));
        }
        out.set("core.rounds", med(&|t| t.rounds as f64));
        out.set(
            "core.slowest_round_share",
            med(&|t| t.slowest_round_s / (t.kernel_s[0] + t.kernel_s[1])),
        );
        out.set("core.join_tests_per_match", med(&|t| t.tests_per_match));
        out.set("scanmodel.scan_passes", med(&|t| t.ops.scan_passes as f64));
        out.set(
            "scanmodel.blocked_passes",
            med(&|t| t.ops.blocked_passes as f64),
        );
        out.set(
            "scanmodel.bytes_moved_per_seg",
            med(&|t| t.ops.bytes_moved as f64 / per_round as f64),
        );
        out.set(
            "scanmodel.inplace_reuses",
            med(&|t| t.ops.inplace_reuses as f64),
        );
        out.set(
            "scanmodel.arena_peak_mb",
            m.arena_high_water_bytes() as f64 / 1e6,
        );
        out.set(
            "scanmodel.arena_hit_ratio",
            (hits1 - hits0) as f64 / (takes1 - takes0).max(1) as f64,
        );
        out.set("trace.throughput", throughput);
    }
}
