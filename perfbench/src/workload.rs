//! The four named workloads: each one's graph, request streams, writer
//! batches and probes, all generated from the run's seed with
//! `bcc-datasets` (nothing is downloaded). The server receives only the
//! written graph file and the request lines.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use bcc_datasets::{queries, PlantedNetwork, QueryConstraints};
use bcc_graph::LabeledGraph;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// What the query connections send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Distinct default-method (LP) pair searches.
    Search,
    /// Distinct `search ... method=l2p`.
    L2p,
    /// Distinct m=3 `msearch ... method=l2p`, one query vertex per label.
    Msearch,
    /// A Zipf-skewed stream over a hot set of LP searches, with an open-loop
    /// writer committing edge flips during the reads.
    ReadWrite,
}

/// A named workload and the knobs that shape its traffic.
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Network scale factor of the planted DBLP (or DBLP-M) generator.
    pub scale: f64,
    /// Labels per community: 2 is planted DBLP, 3 is DBLP-M.
    pub labels: usize,
    /// Closed-loop query connections (never more than `nproc`).
    pub readers: usize,
    /// Pause between a reply and the connection's next request, spent
    /// spinning (see `load::think`). `rw-x2`'s reader pauses 0.15 ms, which
    /// bounds the samples a run keeps: without a pause it completes about
    /// 20,000 cache hits a second. Its throughput is reported net of the
    /// pause.
    pub think_ms: f64,
    /// Writer batches per second while reads run (`rw-x2` only; on the x8
    /// workloads a closed-loop commit phase follows the read window).
    pub commit_rate: f64,
    /// Requests per connection sent before the window opens (not timed).
    pub warmup: usize,
    /// Requests the traced run replays one at a time.
    pub replays: usize,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "search-x8",
        kind: Kind::Search,
        scale: 8.0,
        labels: 2,
        readers: 2,
        think_ms: 0.0,
        commit_rate: 0.0,
        warmup: 2,
        replays: 10,
    },
    Spec {
        name: "l2p-x8",
        kind: Kind::L2p,
        scale: 8.0,
        labels: 2,
        readers: 2,
        think_ms: 0.0,
        commit_rate: 0.0,
        warmup: 16,
        replays: 48,
    },
    Spec {
        name: "msearch-x8",
        kind: Kind::Msearch,
        scale: 8.0,
        labels: 3,
        // One connection: each msearch already fans out into four jobs on
        // the two-worker pool, each job with two AUTO stage threads. A
        // second connection's jobs queue behind them, and that queueing,
        // not scatter, set the tail.
        readers: 1,
        think_ms: 0.0,
        commit_rate: 0.0,
        warmup: 4,
        replays: 16,
    },
    Spec {
        name: "rw-x2",
        kind: Kind::ReadWrite,
        scale: 2.0,
        labels: 2,
        readers: 1,
        think_ms: 0.15,
        commit_rate: 10.0,
        warmup: 0,
        replays: 32,
    },
];

/// Stage lines per writer batch (each flips one intra-community edge).
pub const FLIPS_PER_BATCH: usize = 16;
/// Writer batches of the commit phase that follows the read window on the
/// x8 workloads: thirty samples beyond the p90, so one slow commit moves it
/// little.
pub const COMMIT_PHASE_BATCHES: usize = 300;
/// `rw-x2`'s hot set: small enough to sit in the 4,096-entry cache.
pub const HOT_SET: usize = 4;
/// Zipf exponent of the `rw-x2` read stream over the hot set.
pub const ZIPF_S: f64 = 1.1;
/// The hot set and the writer's batches are part of a workload's
/// definition, not of the seed: which hot entries a batch invalidates
/// decides how much of a run goes to misses, and with seeded flips that
/// share swung threefold between seeds. The seed draws the read streams
/// and the probes.
const FIXED_SEED: u64 = 0x0123_4567;
/// Probe requests sent after the load, never queried during it.
pub const PROBES: usize = 4;
pub const RW_PROBES: usize = 16;

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One edge flip: insert when the edge is absent, remove when present.
#[derive(Clone, Copy, Debug)]
pub struct Flip {
    pub u: u32,
    pub v: u32,
    pub insert: bool,
}

impl Flip {
    pub fn line(&self) -> String {
        let verb = if self.insert {
            "add_edge"
        } else {
            "remove_edge"
        };
        format!("{verb} u={} v={}", self.u, self.v)
    }
}

/// Every input of one run.
pub struct Workload {
    pub spec: &'static Spec,
    /// The graph as the server reads it back from `graph_path`.
    pub graph: LabeledGraph,
    pub graph_path: PathBuf,
    /// The registry key the server gives the graph (the file stem).
    pub graph_name: String,
    /// An L2P search: it needs the BCindex, which the server builds lazily.
    pub setup_line: String,
    /// Per connection: untimed requests before the window.
    pub warmup: Vec<Vec<String>>,
    /// Per connection: the timed closed-loop stream.
    pub streams: Vec<Vec<String>>,
    pub batches: Vec<Vec<Flip>>,
    pub probes: Vec<String>,
    /// FNV-1a over the graph file and every generated line, in send order.
    pub digest: u64,
}

pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn line(&mut self, line: &str) {
        self.bytes(line.as_bytes());
        self.bytes(b"\n");
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Requests generated per connection for a window of `seconds`. The rates
/// leave about tenfold headroom over what one connection completes on a
/// 2-core x86 box (LP ≈ 7/s, L2P ≈ 120/s, m=3 msearch ≈ 50/s); `rw-x2`'s
/// reader pauses 0.15 ms after every reply, so it can never pass 6,667/s.
/// A reader that still runs dry before the window closes fails the run
/// (see `e2e::run`) rather than under-report the throughput.
fn stream_capacity(kind: Kind, seconds: f64) -> usize {
    let per_second = match kind {
        Kind::Search => 70.0,
        Kind::L2p => 1200.0,
        Kind::Msearch => 500.0,
        Kind::ReadWrite => 7000.0,
    };
    (seconds * per_second).ceil() as usize + 64
}

fn pair_line(kind: Kind, a: u32, b: u32) -> String {
    match kind {
        Kind::L2p => format!("search ql={a} qr={b} method=l2p"),
        _ => format!("search ql={a} qr={b}"),
    }
}

/// Distinct pair queries drawn from inside planted communities.
fn distinct_pairs(net: &PlantedNetwork, count: usize, seed: u64) -> Vec<(u32, u32)> {
    let drawn = queries::random_community_queries(
        net,
        count * 2,
        QueryConstraints {
            degree_rank: 0,
            inter_distance: None,
        },
        seed,
    );
    let mut seen = HashSet::new();
    drawn
        .iter()
        .map(|q| (q.vertices[0].0, q.vertices[1].0))
        .filter(|&(a, b)| seen.insert((a.min(b), a.max(b))))
        .take(count)
        .collect()
}

/// Distinct m=3 queries with one vertex per label.
fn distinct_triples(net: &PlantedNetwork, count: usize, seed: u64) -> Vec<[u32; 3]> {
    let drawn = queries::mbcc_queries(net, 3, count * 2, seed);
    let mut seen = HashSet::new();
    drawn
        .iter()
        .map(|q| [q.vertices[0].0, q.vertices[1].0, q.vertices[2].0])
        .filter(|t| {
            let mut key = *t;
            key.sort_unstable();
            seen.insert(key)
        })
        .take(count)
        .collect()
}

/// Writer batches of intra-community edge flips. Each batch flips distinct
/// edges; the edge set carries across batches, so every flip is valid on
/// the graph the previous commits left.
fn flip_batches(net: &PlantedNetwork, count: usize, rng: &mut ChaCha8Rng) -> Vec<Vec<Flip>> {
    let mut edges: HashSet<(u32, u32)> = net
        .graph
        .edges()
        .map(|(u, v)| (u.0.min(v.0), u.0.max(v.0)))
        .collect();
    (0..count)
        .map(|_| {
            let mut batch: Vec<Flip> = Vec::with_capacity(FLIPS_PER_BATCH);
            while batch.len() < FLIPS_PER_BATCH {
                let members = &net.communities[rng.gen_range(0..net.communities.len())];
                let (u, v) = (
                    members[rng.gen_range(0..members.len())].0,
                    members[rng.gen_range(0..members.len())].0,
                );
                let key = (u.min(v), u.max(v));
                if u == v || batch.iter().any(|f| (f.u.min(f.v), f.u.max(f.v)) == key) {
                    continue;
                }
                let insert = !edges.remove(&key);
                if insert {
                    edges.insert(key);
                }
                batch.push(Flip { u, v, insert });
            }
            batch
        })
        .collect()
}

/// Draws `n` ranks from a Zipf distribution over `0..h`.
fn zipf_ranks(h: usize, n: usize, rng: &mut ChaCha8Rng) -> Vec<usize> {
    let weights: Vec<f64> = (0..h)
        .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(h);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0..1.0);
            cdf.iter().position(|&c| u < c).unwrap_or(h - 1)
        })
        .collect()
}

/// Builds every input of `spec` for this seed and writes the graph file
/// under `dir`.
pub fn generate(
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    dir: &Path,
) -> Result<Workload, String> {
    let network = if spec.labels == 2 {
        bcc_datasets::dblp(spec.scale)
    } else {
        bcc_datasets::dblp_m(spec.scale, spec.labels)
    };
    let net = network.build();
    let graph_name = spec.name.replace('-', "_");
    let graph_path = dir.join(format!("{graph_name}.g"));
    bcc_graph::io::write_graph_file(&net.graph, &graph_path)
        .map_err(|e| format!("write {}: {e}", graph_path.display()))?;
    let graph = bcc_graph::io::read_graph_file(&graph_path).map_err(|e| e.to_string())?;

    let per_conn = stream_capacity(spec.kind, seconds);
    let readers = spec.readers;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (setup_line, warmup, streams, probes) = match spec.kind {
        Kind::Search | Kind::L2p => {
            let need = 1 + PROBES + readers * (spec.warmup + per_conn);
            let pairs = distinct_pairs(&net, need, seed);
            if pairs.len() < need {
                return Err(format!(
                    "only {} distinct pairs for {need} requests",
                    pairs.len()
                ));
            }
            let lines: Vec<String> = pairs
                .iter()
                .map(|&(a, b)| pair_line(spec.kind, a, b))
                .collect();
            let setup = pair_line(Kind::L2p, pairs[0].0, pairs[0].1);
            let probes = lines[1..=PROBES].to_vec();
            let rest = &lines[1 + PROBES..];
            let (warm, timed) = rest.split_at(readers * spec.warmup);
            (setup, deal(warm, readers), deal(timed, readers), probes)
        }
        Kind::Msearch => {
            let need = 1 + PROBES + readers * (spec.warmup + per_conn);
            let triples = distinct_triples(&net, need, seed);
            if triples.len() < need {
                return Err(format!(
                    "only {} distinct triples for {need} requests",
                    triples.len()
                ));
            }
            let lines: Vec<String> = triples
                .iter()
                .map(|t| format!("msearch q={},{},{} method=l2p", t[0], t[1], t[2]))
                .collect();
            let setup = pair_line(Kind::L2p, triples[0][0], triples[0][1]);
            let probes = lines[1..=PROBES].to_vec();
            let rest = &lines[1 + PROBES..];
            let (warm, timed) = rest.split_at(readers * spec.warmup);
            (setup, deal(warm, readers), deal(timed, readers), probes)
        }
        Kind::ReadWrite => {
            let fixed = distinct_pairs(&net, 1 + HOT_SET, FIXED_SEED);
            let probes: Vec<String> = distinct_pairs(&net, 1 + HOT_SET + RW_PROBES, seed)
                .into_iter()
                .filter(|p| !fixed.contains(p) && !fixed.contains(&(p.1, p.0)))
                .take(RW_PROBES)
                .map(|(a, b)| pair_line(Kind::Search, a, b))
                .collect();
            if fixed.len() < 1 + HOT_SET || probes.len() < RW_PROBES {
                return Err("too few distinct pairs for the hot set and probes".into());
            }
            let setup = pair_line(Kind::L2p, fixed[0].0, fixed[0].1);
            let hot: Vec<String> = fixed[1..]
                .iter()
                .map(|&(a, b)| pair_line(Kind::Search, a, b))
                .collect();
            let stream: Vec<String> = zipf_ranks(HOT_SET, per_conn, &mut rng)
                .into_iter()
                .map(|r| hot[r].clone())
                .collect();
            // Warm-up reads every hot query once, so the window opens on a
            // filled cache.
            (setup, vec![hot], vec![stream], probes)
        }
    };
    let batch_count = match spec.kind {
        Kind::ReadWrite => (seconds * spec.commit_rate).ceil() as usize + 2,
        _ => COMMIT_PHASE_BATCHES,
    };
    let batches = flip_batches(
        &net,
        batch_count,
        &mut ChaCha8Rng::seed_from_u64(FIXED_SEED),
    );

    let mut fnv = Fnv::new();
    fnv.bytes(&std::fs::read(&graph_path).map_err(|e| e.to_string())?);
    fnv.line(&setup_line);
    for line in warmup.iter().chain(&streams).flatten().chain(&probes) {
        fnv.line(line);
    }
    for flip in batches.iter().flatten() {
        fnv.line(&flip.line());
    }
    Ok(Workload {
        spec,
        graph,
        graph_path,
        graph_name,
        setup_line,
        warmup,
        streams,
        batches,
        probes,
        digest: fnv.finish(),
    })
}

/// Deals `lines` round-robin onto `n` connections.
fn deal(lines: &[String], n: usize) -> Vec<Vec<String>> {
    let mut out = vec![Vec::new(); n];
    for (i, line) in lines.iter().enumerate() {
        out[i % n].push(line.clone());
    }
    out
}

/// The graph after the first `upto` writer batches, built with the same
/// label interning as `base` (the graph as read back from the file), so
/// vertex and label ids match the server's.
pub fn graph_after(base: &LabeledGraph, batches: &[Vec<Flip>], upto: usize) -> LabeledGraph {
    let mut edges: HashSet<(u32, u32)> = base
        .edges()
        .map(|(u, v)| (u.0.min(v.0), u.0.max(v.0)))
        .collect();
    for flip in batches[..upto].iter().flatten() {
        let key = (flip.u.min(flip.v), flip.u.max(flip.v));
        if flip.insert {
            edges.insert(key);
        } else {
            edges.remove(&key);
        }
    }

    let mut builder = bcc_graph::GraphBuilder::new();
    let labels: Vec<_> = base
        .interner()
        .iter()
        .map(|(_, name)| builder.intern_label(name))
        .collect();
    for v in base.vertices() {
        builder.add_vertex_with_label(labels[base.label(v).index()]);
    }
    for (u, v) in edges {
        builder.add_edge(bcc_graph::VertexId(u), bcc_graph::VertexId(v));
    }
    builder.build()
}
