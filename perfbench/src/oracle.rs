//! Answers computed apart from the program: brute-force scans and a
//! uniform grid over plain segment vectors. Nothing here calls a tree, a
//! shard or a scan-model kernel; only the geometric predicates of
//! `dp-geom` are shared with the program, since they define what an
//! answer is.

use dp_geom::{clip_segment_closed, segments_intersect, LineSeg, Point, Rect};
use dp_service::Response;
use dp_spatial::quadtree::DpQuadtree;
use dp_workloads::Request;

/// A canonical answer of one request, as the checks compare it.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Sorted ids (window, point, skyline).
    Ids(Vec<u32>),
    /// `(id, distance)` pairs, nearest first, ties by ascending id.
    Knn(Vec<(u32, f64)>),
    /// `(count, sum, max)` of a dominated set.
    Agg(u64, u64, u64),
    /// Logical id an insert was given.
    Inserted(u32),
    /// Logical id a delete removed.
    Deleted(u32),
    /// The service refused the request.
    Rejected,
}

impl Answer {
    /// The answer a service response carries.
    pub fn of(resp: &Response) -> Answer {
        match resp {
            Response::Window(ids) | Response::PointInWindow(ids) | Response::Skyline(ids) => {
                Answer::Ids(ids.to_vec())
            }
            Response::KNearest(v) => Answer::Knn(v.clone()),
            Response::DominanceAgg { count, sum, max } => Answer::Agg(*count, *sum, *max),
            Response::Inserted(id) => Answer::Inserted(*id),
            Response::Deleted(id) => Answer::Deleted(*id),
            Response::Join(_) | Response::Rejected(_) => Answer::Rejected,
        }
    }

    /// A 64-bit digest of the answer (FNV-1a steps over whole words), so a run
    /// keeps one word per response instead of every id list.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        match self {
            Answer::Ids(ids) => return ids_digest(ids),
            Answer::Knn(v) => {
                h.word(2);
                v.iter().for_each(|&(id, d)| {
                    h.word(u64::from(id));
                    h.word(d.to_bits());
                });
            }
            Answer::Agg(c, s, m) => [3, *c, *s, *m].into_iter().for_each(|w| h.word(w)),
            Answer::Inserted(id) => [4, u64::from(*id)].into_iter().for_each(|w| h.word(w)),
            Answer::Deleted(id) => [5, u64::from(*id)].into_iter().for_each(|w| h.word(w)),
            Answer::Rejected => h.word(6),
        }
        h.0
    }
}

/// Digest of a response, equal to `Answer::of(resp).digest()` without
/// copying id lists (the serving loop's hot path).
pub fn response_digest(resp: &Response) -> u64 {
    match resp {
        Response::Window(ids) | Response::PointInWindow(ids) | Response::Skyline(ids) => {
            ids_digest(ids)
        }
        other => Answer::of(other).digest(),
    }
}

fn ids_digest(ids: &[u32]) -> u64 {
    let mut h = Fnv::new();
    h.word(1);
    ids.iter().for_each(|&id| h.word(u64::from(id)));
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0100_0000_01b3);
    }
}

/// Segments bucketed by a uniform `cells × cells` grid over the world;
/// every segment sits in each cell its bounding box touches (closed).
pub struct Grid {
    world: Rect,
    cells: usize,
    buckets: Vec<Vec<u32>>,
}

impl Grid {
    pub fn new(world: Rect, cells: usize, segs: &[LineSeg]) -> Grid {
        let mut grid = Grid {
            world,
            cells,
            buckets: vec![Vec::new(); cells * cells],
        };
        for (id, s) in segs.iter().enumerate() {
            let (x0, x1, y0, y1) = grid.cell_range(&s.bbox());
            for cy in y0..=y1 {
                for cx in x0..=x1 {
                    grid.buckets[cy * cells + cx].push(id as u32);
                }
            }
        }
        grid
    }

    fn cell_of(&self, v: f64, lo: f64, extent: f64) -> usize {
        let c = ((v - lo) / extent * self.cells as f64).floor();
        c.clamp(0.0, (self.cells - 1) as f64) as usize
    }

    /// Inclusive cell ranges `(x0, x1, y0, y1)` a closed rect touches.
    /// Floor is monotone, so any point two closed rects share lies in a
    /// cell both ranges hold.
    fn cell_range(&self, r: &Rect) -> (usize, usize, usize, usize) {
        let (w, h) = (self.world.width(), self.world.height());
        (
            self.cell_of(r.min.x, self.world.min.x, w),
            self.cell_of(r.max.x, self.world.min.x, w),
            self.cell_of(r.min.y, self.world.min.y, h),
            self.cell_of(r.max.y, self.world.min.y, h),
        )
    }

    /// Sorted, deduplicated ids of every segment whose bbox may touch `q`.
    pub fn candidates(&self, q: &Rect) -> Vec<u32> {
        let (x0, x1, y0, y1) = self.cell_range(q);
        let mut out = Vec::new();
        for cy in y0..=y1 {
            for cx in x0..=x1 {
                out.extend_from_slice(&self.buckets[cy * self.cells + cx]);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Ids of segments intersecting the closed window `q`.
    pub fn window(&self, segs: &[LineSeg], q: &Rect) -> Vec<u32> {
        let mut ids = self.candidates(q);
        ids.retain(|&id| clip_segment_closed(&segs[id as usize], q).is_some());
        ids
    }
}

/// Sorts `scored` by distance, ties by id, and keeps the first `k`.
fn nearest_k(mut scored: Vec<(u32, f64)>, k: usize) -> Vec<(u32, f64)> {
    let order = |a: &(u32, f64), b: &(u32, f64)| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0));
    if k < scored.len() {
        scored.select_nth_unstable_by(k, order);
        scored.truncate(k);
    }
    scored.sort_unstable_by(order);
    scored
}

impl Grid {
    /// The `k` nearest segments to `p`, ties by id. A segment at
    /// distance `d` touches the square of half-width `d` around `p`, so
    /// once the k-th best candidate of a square is no farther than its
    /// half-width, no segment outside the square can displace it; the
    /// square doubles until then.
    pub fn knn(&self, segs: &[LineSeg], p: Point, k: usize) -> Vec<(u32, f64)> {
        let mut h = self.world.width() / self.cells as f64;
        loop {
            let square = Rect::from_coords(p.x - h, p.y - h, p.x + h, p.y + h);
            let scored = self
                .candidates(&square)
                .into_iter()
                .map(|id| (id, segs[id as usize].dist2_to_point(p).sqrt()))
                .collect();
            let best = nearest_k(scored, k);
            let settled = best.len() == k && best[k - 1].1 <= h;
            if settled || square.contains_rect(&self.world) {
                return best;
            }
            h *= 2.0;
        }
    }
}

/// Ids of segments intersecting the closed window `q`, by a full scan.
pub fn brute_window(segs: &[LineSeg], q: &Rect) -> Vec<u32> {
    (0..segs.len() as u32)
        .filter(|&id| clip_segment_closed(&segs[id as usize], q).is_some())
        .collect()
}

/// The `k` nearest segments to `p` by true segment distance, ties by id.
pub fn brute_knn(segs: &[LineSeg], p: Point, k: usize) -> Vec<(u32, f64)> {
    let scored = segs
        .iter()
        .enumerate()
        .map(|(id, s)| (id as u32, s.dist2_to_point(p).sqrt()))
        .collect();
    nearest_k(scored, k)
}

/// Quantized length weight of a segment: its length in 1/1024 units.
pub fn weight(s: &LineSeg) -> u64 {
    (s.length() * 1024.0).round() as u64
}

/// `(count, sum, max)` of the weights of every segment whose midpoint
/// lies in the closed lower-left quadrant of `p`, by a direct fold.
pub fn fold_dominated(segs: &[LineSeg], p: Point) -> (u64, u64, u64) {
    segs.iter()
        .filter(|s| {
            let m = s.midpoint();
            m.x <= p.x && m.y <= p.y
        })
        .fold((0, 0, 0), |(c, s, m), seg| {
            let w = weight(seg);
            (c + 1, s + w, m.max(w))
        })
}

/// Closed max-dominance: `a` is at least `b` in both coordinates and
/// greater in one.
fn dominates(a: Point, b: Point) -> bool {
    a.x >= b.x && a.y >= b.y && (a.x > b.x || a.y > b.y)
}

/// Sorted ids among `candidates` whose midpoints no other candidate's
/// midpoint dominates, by a direct pairwise test.
pub fn skyline_of(segs: &[LineSeg], candidates: &[u32]) -> Vec<u32> {
    let mut pts: Vec<(u32, Point)> = candidates
        .iter()
        .map(|&id| (id, segs[id as usize].midpoint()))
        .collect();
    // Likely dominators first, so dominated points stop testing early.
    pts.sort_unstable_by(|a, b| (b.1.x + b.1.y).total_cmp(&(a.1.x + a.1.y)));
    let mut out: Vec<u32> = pts
        .iter()
        .filter(|(_, p)| !pts.iter().any(|(_, q)| dominates(*q, *p)))
        .map(|&(id, _)| id)
        .collect();
    out.sort_unstable();
    out
}

/// Sorted intersecting pairs `(ia, ib)` of two layers, by testing each
/// `a` against the `b` segments of the grid cells its bbox touches.
pub fn grid_join(a: &[LineSeg], b: &[LineSeg], grid_b: &Grid) -> Vec<(u32, u32)> {
    let mut pairs = Vec::new();
    for (ia, sa) in a.iter().enumerate() {
        for ib in grid_b.candidates(&sa.bbox()) {
            if segments_intersect(sa, &b[ib as usize]) {
                pairs.push((ia as u32, ib));
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

/// Leaves above `max_depth` that hold more than `capacity` segments.
pub fn overfull_leaves(tree: &DpQuadtree, capacity: usize, max_depth: usize) -> usize {
    let mut bad = 0;
    tree.for_each_leaf(|_, depth, lines| {
        if depth < max_depth && lines.len() > capacity {
            bad += 1;
        }
    });
    bad
}

/// Read answers over a fixed segment set: windows and points through a
/// grid, k-nearest by a full scan.
pub struct StaticOracle<'a> {
    pub segs: &'a [LineSeg],
    pub grid: Grid,
}

impl<'a> StaticOracle<'a> {
    pub fn new(world: Rect, segs: &'a [LineSeg]) -> Self {
        let cells = ((segs.len() as f64 / 16.0).sqrt().ceil() as usize).clamp(1, 512);
        StaticOracle {
            segs,
            grid: Grid::new(world, cells, segs),
        }
    }

    /// The expected answer of a read request: windows, points, nearest
    /// neighbours and skyline candidates through the grid, dominance
    /// aggregates by a full fold.
    pub fn answer(&self, r: &Request) -> Answer {
        match r {
            Request::Window(q) => Answer::Ids(self.grid.window(self.segs, q)),
            Request::PointInWindow(p) => Answer::Ids(self.grid.window(self.segs, &Rect::point(*p))),
            Request::KNearest { p, k } => Answer::Knn(self.grid.knn(self.segs, *p, *k)),
            Request::Skyline(q) => {
                Answer::Ids(skyline_of(self.segs, &self.grid.window(self.segs, q)))
            }
            other => brute_read(self.segs, other),
        }
    }
}

/// The eager write oracle: a live `Vec` edited in stream order. Logical
/// ids are positions in it, exactly as the service defines them.
pub struct LiveOracle {
    pub live: Vec<LineSeg>,
}

impl LiveOracle {
    /// Applies `r` in stream order and returns its expected answer.
    pub fn apply(&mut self, r: &Request) -> Answer {
        match r {
            Request::Insert(seg) => {
                self.live.push(*seg);
                Answer::Inserted(self.live.len() as u32 - 1)
            }
            Request::Delete(id) => {
                self.live.remove(*id as usize);
                Answer::Deleted(*id)
            }
            read => brute_read(&self.live, read),
        }
    }
}

/// The expected answer of a read request over `segs`, by full scans.
pub fn brute_read(segs: &[LineSeg], r: &Request) -> Answer {
    match r {
        Request::Window(q) => Answer::Ids(brute_window(segs, q)),
        Request::PointInWindow(p) => Answer::Ids(brute_window(segs, &Rect::point(*p))),
        Request::KNearest { p, k } => Answer::Knn(brute_knn(segs, *p, *k)),
        Request::Skyline(q) => Answer::Ids(skyline_of(segs, &brute_window(segs, q))),
        Request::DominanceAgg(p) => {
            let (c, s, m) = fold_dominated(segs, *p);
            Answer::Agg(c, s, m)
        }
        other => panic!("not a read request: {other:?}"),
    }
}

/// Shows the checks are not vacuous: on a small fixed input, each
/// checker accepts the true answer and rejects one with an id added, one
/// with an id removed and a wrong aggregate. Returns the failures.
pub fn self_test() -> Vec<String> {
    use std::sync::Arc;
    let world = Rect::from_coords(0.0, 0.0, 64.0, 64.0);
    let segs: Vec<LineSeg> = (0..200u32)
        .map(|i| {
            let (x, y) = ((i * 37 % 60) as f64, (i * 53 % 60) as f64);
            LineSeg::from_coords(x, y, x + (i % 4 + 1) as f64, y + (i % 3) as f64)
        })
        .collect();
    let oracle = StaticOracle::new(world, &segs);
    let mut fails = Vec::new();
    let mut expect = |what: &str, ok: bool| {
        if !ok {
            fails.push(what.to_string());
        }
    };
    let check = |r: &Request, resp: &Response| oracle.answer(r).digest() == response_digest(resp);

    let q = Rect::from_coords(10.0, 10.0, 40.0, 40.0);
    let win = Request::Window(q);
    let ids = brute_window(&segs, &q);
    expect(
        "grid window equals a full scan",
        oracle.grid.window(&segs, &q) == ids,
    );
    expect(
        "window: true answer accepted",
        check(&win, &Response::Window(Arc::new(ids.clone()))),
    );
    let mut added = ids.clone();
    added.push(199);
    expect(
        "window: added id rejected",
        !check(&win, &Response::Window(Arc::new(added))),
    );
    expect(
        "window: removed id rejected",
        !check(&win, &Response::Window(Arc::new(ids[1..].to_vec()))),
    );

    let p = segs[7].a;
    let pt = Request::PointInWindow(p);
    let hits = brute_window(&segs, &Rect::point(p));
    expect(
        "point: true answer accepted",
        check(&pt, &Response::PointInWindow(Arc::new(hits.clone()))),
    );
    expect(
        "point: removed id rejected",
        !check(&pt, &Response::PointInWindow(Arc::new(hits[1..].to_vec()))),
    );

    let knn = Request::KNearest {
        p: Point::new(20.0, 20.0),
        k: 4,
    };
    let near = brute_knn(&segs, Point::new(20.0, 20.0), 4);
    expect(
        "knn: true answer accepted",
        check(&knn, &Response::KNearest(near.clone())),
    );
    expect(
        "knn: removed id rejected",
        !check(&knn, &Response::KNearest(near[..3].to_vec())),
    );
    let mut extra = near.clone();
    extra.push((199, 1e9));
    expect(
        "knn: added id rejected",
        !check(&knn, &Response::KNearest(extra)),
    );

    let sky = Request::Skyline(q);
    let front = skyline_of(&segs, &ids);
    expect("skyline: non-empty on the test input", !front.is_empty());
    expect(
        "skyline: true answer accepted",
        check(&sky, &Response::Skyline(Arc::new(front.clone()))),
    );
    let dominated = *ids
        .iter()
        .find(|id| !front.contains(id))
        .expect("a dominated candidate");
    let mut with_dominated = front.clone();
    with_dominated.push(dominated);
    with_dominated.sort_unstable();
    expect(
        "skyline: added id rejected",
        !check(&sky, &Response::Skyline(Arc::new(with_dominated))),
    );
    expect(
        "skyline: removed id rejected",
        !check(&sky, &Response::Skyline(Arc::new(front[1..].to_vec()))),
    );

    let dq = Point::new(30.0, 30.0);
    let dom = Request::DominanceAgg(dq);
    let (count, sum, max) = fold_dominated(&segs, dq);
    expect("dominance: non-empty on the test input", count > 0);
    expect(
        "dominance: true answer accepted",
        check(&dom, &Response::DominanceAgg { count, sum, max }),
    );
    expect(
        "dominance: wrong count rejected",
        !check(
            &dom,
            &Response::DominanceAgg {
                count: count + 1,
                sum,
                max,
            },
        ),
    );
    expect(
        "dominance: wrong sum rejected",
        !check(
            &dom,
            &Response::DominanceAgg {
                count,
                sum: sum - 1,
                max,
            },
        ),
    );

    let mut live = LiveOracle { live: segs.clone() };
    let ins = Request::Insert(LineSeg::from_coords(1.0, 1.0, 2.0, 2.0));
    let got = live.apply(&ins);
    expect(
        "insert: next logical id expected",
        got == Answer::Inserted(200),
    );
    expect(
        "insert: wrong logical id rejected",
        got.digest() != response_digest(&Response::Inserted(199)),
    );
    let del = live.apply(&Request::Delete(3));
    expect("delete: echo expected", del == Answer::Deleted(3));
    expect("delete: ids after it shift down", live.live[3] == segs[4]);

    let grid_b = Grid::new(world, 8, &segs[100..]);
    let join = grid_join(&segs[..100], &segs[100..], &grid_b);
    let mut brute = Vec::new();
    for (ia, a) in segs[..100].iter().enumerate() {
        for (ib, b) in segs[100..].iter().enumerate() {
            if segments_intersect(a, b) {
                brute.push((ia as u32, ib as u32));
            }
        }
    }
    expect(
        "join: grid join equals all pairs",
        join == brute && !join.is_empty(),
    );
    fails
}
