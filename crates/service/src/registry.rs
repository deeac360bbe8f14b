//! The graph registry: named, immutable graph snapshots shared via `Arc`.
//!
//! This is the offline half of the paper's offline/online split: a graph is
//! loaded (or generated) once, its `BccIndex` (Section 6.3) is built at
//! most once — lazily, on the first request that needs coreness defaults or
//! runs L2P — and every worker thread then reads the same snapshot with no
//! locking on the query path.
//!
//! Snapshots stay immutable under mutation: `add_edge`/`remove_edge` lines
//! *stage* a validated [`GraphDelta`] against the current snapshot, and
//! [`GraphRegistry::commit`] turns it into a **new** snapshot — patching
//! the already-built BCindex in place with the Algorithm 4 cascades and
//! Algorithm 7 butterfly deltas (`bcc_core::patch_index_batch`, which runs
//! them against a mutable adjacency overlay: O(1) graph work per edge, and
//! exactly **one** CSR materialization per commit via the
//! [`GraphDelta::apply`] merge pass) — while in-flight requests keep their
//! `Arc` to the old one. The commit reports the *dirty vertex set*
//! (mutation neighborhoods plus every index entry the cascades moved) so
//! the serving layer can invalidate result-cache entries by community
//! membership instead of clearing wholesale.
//!
//! Publishing the committed snapshot re-checks, under the `graphs` write
//! lock, that the registered generation is still the one the batch was
//! staged and patched against: a concurrent [`GraphRegistry::insert`] of
//! the same name between the commit's read and its write would otherwise be
//! silently clobbered by the committed old-lineage snapshot. On mismatch
//! the commit fails with a structured error and the new registration wins.
//!
//! The staged batch is consumed at publish, not before: a commit reads
//! (clones) the batch, and only the publish removes it — and only if the
//! slot still holds exactly the committed changes. A commit that fails or
//! panics anywhere before the publish therefore leaves the old generation
//! live and the batch staged for the next commit. Locks are always taken
//! `pending` before `graphs`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

use bcc_core::BccIndex;
use bcc_graph::{GraphDelta, LabeledGraph, VertexId};
use rustc_hash::FxHashSet;

use crate::fault::lock_unpoisoned;

/// A `BccIndex` plus the wall time its one-off build took.
#[derive(Clone, Debug)]
pub struct BuiltIndex {
    /// The offline index (label coreness + butterfly degrees).
    pub index: BccIndex,
    /// How long `BccIndex::build` ran.
    pub build_time: Duration,
}

/// Process-wide snapshot id source: every `GraphEntry` gets a distinct
/// generation, so cached results can never outlive the snapshot that
/// produced them (re-registering a name yields a new generation and the
/// old entries simply stop matching, aging out of the LRU).
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(0);

/// One registered graph: the immutable `LabeledGraph` plus its lazily built
/// index. Cheap to share (`Arc<GraphEntry>`) across worker threads.
#[derive(Debug)]
pub struct GraphEntry {
    name: String,
    generation: u64,
    graph: LabeledGraph,
    index: OnceLock<BuiltIndex>,
    /// Worker threads for the lazy index build (0 ⇒ one per core) —
    /// stamped by the registry that created the entry.
    index_threads: usize,
}

impl GraphEntry {
    /// Wraps `graph` under `name` (index unbuilt, single-thread build).
    pub fn new(name: impl Into<String>, graph: LabeledGraph) -> Self {
        Self::with_index_threads(name, graph, 1)
    }

    /// Wraps `graph` under `name`, building the index with `threads`
    /// workers when it is first needed (0 ⇒ one per available core). Any
    /// thread count produces a bit-identical index.
    pub fn with_index_threads(
        name: impl Into<String>,
        graph: LabeledGraph,
        threads: usize,
    ) -> Self {
        GraphEntry {
            name: name.into(),
            generation: NEXT_GENERATION.fetch_add(1, Ordering::Relaxed),
            graph,
            index: OnceLock::new(),
            index_threads: threads,
        }
    }

    /// Wraps `graph` with an already-built (patched) index — the commit
    /// path: the new snapshot inherits the old snapshot's index, updated in
    /// place, so no request ever pays a rebuild.
    fn with_built(name: String, graph: LabeledGraph, built: BuiltIndex, threads: usize) -> Self {
        let entry = GraphEntry::with_index_threads(name, graph, threads);
        entry.index.set(built).expect("fresh OnceLock accepts exactly one value");
        entry
    }

    /// The registry key.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The process-unique snapshot id (part of every cache key).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The shared immutable graph.
    pub fn graph(&self) -> &LabeledGraph {
        &self.graph
    }

    /// The index, building it on first use. Concurrent first callers may
    /// race the build; `OnceLock` keeps exactly one winner and the losers'
    /// work is discarded (bounded by one redundant build per graph).
    pub fn index(&self) -> &BuiltIndex {
        self.index.get_or_init(|| {
            let started = Instant::now();
            let index = BccIndex::build_with_threads(&self.graph, self.index_threads);
            BuiltIndex { index, build_time: started.elapsed() }
        })
    }

    /// The index if some request already forced its build.
    pub fn index_if_built(&self) -> Option<&BuiltIndex> {
        self.index.get()
    }
}

/// Edge changes staged for one graph, pinned to the snapshot generation
/// they were validated against.
struct PendingDelta {
    generation: u64,
    delta: GraphDelta,
}

/// What [`GraphRegistry::commit`] produced.
#[derive(Debug)]
pub struct CommitOutcome {
    /// The new snapshot entry (already registered under the old name).
    pub entry: Arc<GraphEntry>,
    /// The replaced snapshot's generation (cache keys carrying it are the
    /// candidates for invalidation/rekeying).
    pub old_generation: u64,
    /// Edge changes applied.
    pub applied: usize,
    /// Vertices whose search-relevant state moved: the mutation endpoints,
    /// their pre/post neighborhoods, and every index entry the Algorithm 4
    /// cascades / Algorithm 7 deltas changed. `None` when the old snapshot's
    /// index was never built — no cascade information exists, so callers
    /// must treat every vertex of the graph as dirty.
    pub dirty: Option<FxHashSet<u32>>,
    /// Wall time of the one CSR merge pass splicing the staged delta onto
    /// the old snapshot (the `overlay_apply` commit stage).
    pub time_overlay_apply: Duration,
    /// Wall time of the Algorithm 4 coreness cascades across the batch.
    /// Zero on the lazy path (no index to patch ⇒ no cascades ran).
    pub time_cascade: Duration,
    /// Wall time of the Algorithm 7 butterfly-degree (χ) delta updates
    /// across the batch. Zero on the lazy path.
    pub time_chi_delta: Duration,
}

impl CommitOutcome {
    /// True when the BCindex was patched in place rather than left unbuilt.
    pub fn index_patched(&self) -> bool {
        self.dirty.is_some()
    }
}

/// A named collection of [`GraphEntry`]s behind a `RwLock` — writes happen
/// only at registration time and commit time, reads are a brief map lookup
/// per request — plus the per-graph staging area for edge mutations.
pub struct GraphRegistry {
    graphs: RwLock<HashMap<String, Arc<GraphEntry>>>,
    pending: Mutex<HashMap<String, PendingDelta>>,
    /// Build-thread count stamped onto every entry this registry creates
    /// (0 ⇒ one per core). Defaults to 1 — sequential, the seed behavior;
    /// the service layer passes its own knob through.
    index_threads: usize,
}

impl Default for GraphRegistry {
    fn default() -> Self {
        GraphRegistry::with_index_threads(1)
    }
}

impl GraphRegistry {
    /// An empty registry (single-thread index builds).
    pub fn new() -> Self {
        GraphRegistry::default()
    }

    /// An empty registry whose entries build their BCindex with `threads`
    /// workers (0 ⇒ one per available core). Parallelism only moves the
    /// build's wall time: the index bits are identical at any setting.
    pub fn with_index_threads(threads: usize) -> Self {
        GraphRegistry {
            graphs: RwLock::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            index_threads: threads,
        }
    }

    /// The build-thread count stamped onto new entries.
    pub fn index_threads(&self) -> usize {
        self.index_threads
    }

    /// Registers `graph` under `name`, replacing any previous entry with
    /// that name (in-flight requests keep their `Arc` to the old snapshot).
    pub fn insert(&self, name: impl Into<String>, graph: LabeledGraph) -> Arc<GraphEntry> {
        let name = name.into();
        let entry =
            Arc::new(GraphEntry::with_index_threads(name.clone(), graph, self.index_threads));
        self.graphs
            .write()
            .unwrap()
            .insert(name, Arc::clone(&entry));
        entry
    }

    /// Reads a graph file (`bcc-graph` text format) and registers it.
    pub fn load_file(
        &self,
        name: impl Into<String>,
        path: &str,
    ) -> Result<Arc<GraphEntry>, String> {
        let graph = bcc_graph::io::read_graph_file(path).map_err(|e| e.to_string())?;
        Ok(self.insert(name, graph))
    }

    /// Generates one of the named paper networks and registers it.
    pub fn generate(
        &self,
        name: impl Into<String>,
        network: &str,
        scale: f64,
    ) -> Result<Arc<GraphEntry>, String> {
        let spec = match network {
            "baidu1" => bcc_datasets::baidu1(scale),
            "baidu2" => bcc_datasets::baidu2(scale),
            "amazon" => bcc_datasets::amazon(scale),
            "dblp" => bcc_datasets::dblp(scale),
            "youtube" => bcc_datasets::youtube(scale),
            "livejournal" => bcc_datasets::livejournal(scale),
            "orkut" => bcc_datasets::orkut(scale),
            other => return Err(format!("unknown network `{other}`")),
        };
        Ok(self.insert(name, spec.build().graph))
    }

    /// The entry registered under `name`.
    pub fn get(&self, name: &str) -> Option<Arc<GraphEntry>> {
        self.graphs.read().unwrap().get(name).cloned()
    }

    /// Stages an edge insert (`insert = true`) or removal against the given
    /// snapshot `entry`, validating it against that snapshot plus everything
    /// already staged for it. Returns the number of changes now pending.
    ///
    /// The caller passes the exact `GraphEntry` it resolved the endpoints
    /// on: the staged batch is generation-pinned to *that* snapshot, so a
    /// concurrent re-registration can never smuggle ids resolved on one
    /// id space into a batch validated against another — [`Self::commit`]
    /// rejects the whole batch if the registered generation moved. Staging
    /// left over from a different generation is discarded on first touch.
    pub fn stage_edge(
        &self,
        entry: &GraphEntry,
        u: VertexId,
        v: VertexId,
        insert: bool,
    ) -> Result<usize, String> {
        let name = entry.name();
        let mut pending = lock_unpoisoned(&self.pending);
        let slot = pending
            .entry(name.to_owned())
            .or_insert_with(|| PendingDelta {
                generation: entry.generation(),
                delta: GraphDelta::new(),
            });
        if slot.generation != entry.generation() {
            *slot = PendingDelta { generation: entry.generation(), delta: GraphDelta::new() };
        }
        let staged = if insert {
            slot.delta.stage_insert(entry.graph(), u, v)
        } else {
            slot.delta.stage_remove(entry.graph(), u, v)
        };
        staged.map_err(|e| e.to_string())?;
        Ok(slot.delta.len())
    }

    /// Number of changes staged (and not yet committed) for `name`.
    pub fn pending_len(&self, name: &str) -> usize {
        self.pending
            .lock()
            .unwrap()
            .get(name)
            .map_or(0, |slot| slot.delta.len())
    }

    /// Applies every change staged for `name`: patches the BCindex in place
    /// over a mutable adjacency overlay (Algorithm 4 cascades for coreness,
    /// Algorithm 7 deltas for butterfly degrees; `bcc_core::patch_index_batch`)
    /// when it had been built, splices the final snapshot in **one** CSR
    /// merge pass, and registers it under a fresh generation. In-flight
    /// requests keep their `Arc` to the old snapshot; results they cache
    /// afterwards carry the dead generation and age out of the LRU.
    ///
    /// Only a successful publish consumes the staged batch: a commit that
    /// fails or panics before it leaves the batch staged for the next one.
    ///
    /// Fails — dropping the committed snapshot — if `name` was re-registered
    /// between the commit's read of the entry and the publish: the live
    /// generation is re-checked under the write lock (see module docs).
    pub fn commit(&self, name: &str) -> Result<CommitOutcome, String> {
        self.commit_with(name, || Ok(()))
    }

    /// [`Self::commit`] with a hook that runs after the patch and splice,
    /// just before the publish — the one point where a commit can still
    /// fail without tearing: an `Err` from the hook fails the commit and
    /// leaves the batch staged.
    pub(crate) fn commit_with(
        &self,
        name: &str,
        before_publish: impl FnOnce() -> Result<(), String>,
    ) -> Result<CommitOutcome, String> {
        let entry = self
            .get(name)
            .ok_or_else(|| format!("no graph registered as `{name}`"))?;
        self.commit_entry(entry, before_publish)
    }

    /// The commit body, parameterized for deterministic race tests: `entry`
    /// is the snapshot the caller read (tests pass a stale one to stand in
    /// a concurrent re-registration), and `before_publish` runs after
    /// patching but before the publish re-check — the other race window.
    fn commit_entry(
        &self,
        entry: Arc<GraphEntry>,
        before_publish: impl FnOnce() -> Result<(), String>,
    ) -> Result<CommitOutcome, String> {
        let name = entry.name();
        // The batch is read here and consumed only at publish, so a commit
        // that fails or panics in between leaves it staged.
        let staged = {
            let mut pending = lock_unpoisoned(&self.pending);
            let Some(slot) = pending.get(name) else {
                return Err(format!("nothing staged for graph `{name}`"));
            };
            if slot.generation != entry.generation() {
                // Two distinct mismatches. If the slot is pinned to the
                // *currently live* registration, this commit simply read a
                // snapshot that has since been replaced — the batch belongs
                // to the new lineage and must be left for it, not consumed.
                // Otherwise the slot is pinned to a dead generation —
                // staging is optimistic-concurrency: a batch is validated
                // against exactly one snapshot, so once that snapshot was
                // replaced (by a re-registration or a sibling commit) the
                // batch cannot soundly apply and is dropped, as
                // [`GraphRegistry::stage_edge`] would on next touch.
                let live = self.graphs.read().unwrap().get(name).map(|e| e.generation());
                if live == Some(slot.generation) {
                    return Err(format!(
                        "graph `{name}` was re-registered before commit; staged changes \
                         kept for the new snapshot"
                    ));
                }
                pending.remove(name);
                return Err(format!(
                    "graph `{name}` moved to a new snapshot after staging (re-registered \
                     or committed concurrently); staged changes dropped"
                ));
            }
            slot.delta.clone()
        };
        let applied = staged.len();
        let old_generation = entry.generation();
        let (new_entry, dirty, time_overlay_apply, time_cascade, time_chi_delta) =
            match entry.index_if_built() {
                Some(built) => {
                    let started = Instant::now();
                    let mut index = built.index.clone();
                    // O(1) graph work per staged edge: the cascades read the
                    // overlay, never an intermediate snapshot. The only CSR
                    // materialization of the whole commit is the one merge
                    // pass below — no clone of the base graph either (the
                    // batch API borrows it).
                    let report =
                        bcc_core::patch_index_batch(&mut index, entry.graph(), staged.changes());
                    let apply_started = Instant::now();
                    let graph = staged.apply(entry.graph());
                    let time_overlay_apply = apply_started.elapsed();
                    let built = BuiltIndex {
                        index,
                        // Cumulative offline investment: the original build
                        // plus every patch since.
                        build_time: built.build_time + started.elapsed(),
                    };
                    let entry =
                        GraphEntry::with_built(name.to_owned(), graph, built, entry.index_threads);
                    (
                        Arc::new(entry),
                        Some(report.dirty),
                        time_overlay_apply,
                        report.time_cascade,
                        report.time_chi_delta,
                    )
                }
                None => {
                    // No index yet: splice the whole batch in one pass and
                    // stay lazy. No cascade ran, so no scoped dirty set
                    // exists and the cascade/χ stage times are zero.
                    let apply_started = Instant::now();
                    let graph = staged.apply(entry.graph());
                    let time_overlay_apply = apply_started.elapsed();
                    let entry = GraphEntry::with_index_threads(
                        name.to_owned(),
                        graph,
                        entry.index_threads,
                    );
                    (Arc::new(entry), None, time_overlay_apply, Duration::ZERO, Duration::ZERO)
                }
            };
        before_publish()?;
        // Lock order: `pending` before `graphs`, as above.
        let mut pending = lock_unpoisoned(&self.pending);
        let mut graphs = self.graphs.write().unwrap();
        if graphs.get(name).map(|live| live.generation()) != Some(old_generation) {
            // The batch's snapshot is dead, so its slot can never apply:
            // drop it, as the next commit or stage would.
            if pending.get(name).is_some_and(|slot| slot.generation == old_generation) {
                pending.remove(name);
            }
            return Err(format!(
                "graph `{name}` moved to a new snapshot during commit (re-registered \
                 or committed concurrently); committed snapshot discarded"
            ));
        }
        graphs.insert(name.to_owned(), Arc::clone(&new_entry));
        // Consume the slot only if it still holds exactly this batch. One
        // that grew meanwhile stays, pinned to the generation just
        // replaced, and the next commit drops it.
        if pending.get(name).is_some_and(|slot| {
            slot.generation == old_generation && slot.delta.changes() == staged.changes()
        }) {
            pending.remove(name);
        }
        Ok(CommitOutcome {
            entry: new_entry,
            old_generation,
            applied,
            dirty,
            time_overlay_apply,
            time_cascade,
            time_chi_delta,
        })
    }

    /// All registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.graphs.read().unwrap().keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered graphs.
    pub fn len(&self) -> usize {
        self.graphs.read().unwrap().len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.graphs.read().unwrap().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_graph::GraphBuilder;

    fn tiny_graph() -> LabeledGraph {
        let mut b = GraphBuilder::new();
        let x = b.add_vertex("A");
        let y = b.add_vertex("B");
        b.add_edge(x, y);
        b.build()
    }

    #[test]
    fn insert_get_names() {
        let reg = GraphRegistry::new();
        assert!(reg.is_empty());
        reg.insert("g1", tiny_graph());
        reg.insert("g2", tiny_graph());
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.names(), vec!["g1".to_string(), "g2".to_string()]);
        assert_eq!(reg.get("g1").unwrap().graph().vertex_count(), 2);
        assert!(reg.get("missing").is_none());
    }

    #[test]
    fn index_is_lazy_and_cached() {
        let reg = GraphRegistry::new();
        let entry = reg.insert("g", tiny_graph());
        assert!(entry.index_if_built().is_none(), "index must not build eagerly");
        let first = entry.index() as *const BuiltIndex;
        let second = entry.index() as *const BuiltIndex;
        assert_eq!(first, second, "index built exactly once");
        assert!(entry.index_if_built().is_some());
    }

    #[test]
    fn generate_registers_planted_networks() {
        let reg = GraphRegistry::new();
        let entry = reg.generate("d", "dblp", 0.05).unwrap();
        assert!(entry.graph().vertex_count() > 0);
        assert!(reg.generate("bad", "nope", 1.0).is_err());
    }

    #[test]
    fn stage_and_commit_patch_a_built_index() {
        let reg = GraphRegistry::new();
        let mut b = GraphBuilder::new();
        let a: Vec<_> = (0..3).map(|_| b.add_vertex("A")).collect();
        let c: Vec<_> = (0..3).map(|_| b.add_vertex("B")).collect();
        for i in 0..3 {
            for j in (i + 1)..3 {
                b.add_edge(a[i], a[j]);
                b.add_edge(c[i], c[j]);
            }
        }
        b.add_edge(a[0], c[0]);
        let entry = reg.insert("g", b.build());
        entry.index(); // force the build so commit takes the patch path

        assert_eq!(reg.stage_edge(&entry, a[0], c[1], true).unwrap(), 1);
        assert_eq!(reg.stage_edge(&entry, a[1], c[0], true).unwrap(), 2);
        assert_eq!(reg.pending_len("g"), 2);
        // Invalid stagings are rejected without polluting the batch.
        assert!(reg.stage_edge(&entry, a[0], a[1], true).unwrap_err().contains("exists"));
        assert!(reg
            .stage_edge(&entry, a[0], c[2], false)
            .unwrap_err()
            .contains("does not exist"));

        let outcome = reg.commit("g").unwrap();
        assert_eq!(outcome.applied, 2);
        assert!(outcome.index_patched());
        assert_ne!(outcome.entry.generation(), outcome.old_generation);
        assert_eq!(reg.pending_len("g"), 0);
        // The registered entry is the new snapshot, and its patched index
        // is bit-identical to a from-scratch build.
        let current = reg.get("g").unwrap();
        assert_eq!(current.generation(), outcome.entry.generation());
        assert_eq!(current.graph().edge_count(), 9);
        let patched = &current.index_if_built().expect("index carried over").index;
        let rebuilt = BccIndex::build(current.graph());
        assert_eq!(patched.label_coreness, rebuilt.label_coreness);
        assert_eq!(patched.butterfly_degree, rebuilt.butterfly_degree);
        let dirty = outcome.dirty.as_ref().unwrap();
        assert!(dirty.contains(&a[0].0) && dirty.contains(&c[1].0));
    }

    #[test]
    fn commit_without_an_index_stays_lazy() {
        let reg = GraphRegistry::new();
        let entry = reg.insert("g", tiny_graph());
        assert!(entry.index_if_built().is_none());
        reg.stage_edge(&entry, bcc_graph::VertexId(0), bcc_graph::VertexId(1), false).unwrap();
        let outcome = reg.commit("g").unwrap();
        assert!(!outcome.index_patched());
        assert!(outcome.dirty.is_none());
        assert!(outcome.entry.index_if_built().is_none(), "still lazy");
        assert_eq!(outcome.entry.graph().edge_count(), 0);
    }

    #[test]
    fn commit_guards() {
        let reg = GraphRegistry::new();
        let entry = reg.insert("g", tiny_graph());
        assert!(reg.commit("g").unwrap_err().contains("nothing staged"));
        assert!(reg.commit("missing").unwrap_err().contains("no graph registered"));
        // Re-registration between staging and commit invalidates the batch.
        reg.stage_edge(&entry, bcc_graph::VertexId(0), bcc_graph::VertexId(1), false).unwrap();
        reg.insert("g", tiny_graph());
        assert!(reg.commit("g").unwrap_err().contains("re-registered"));
        assert_eq!(reg.pending_len("g"), 0, "the stale batch was dropped");
        // Staging pinned to a replaced snapshot also cannot commit: the pin
        // comes from the entry the endpoints were resolved on, never from a
        // racing re-registration's id space.
        let stale = reg.insert("g", tiny_graph());
        reg.insert("g", tiny_graph());
        reg.stage_edge(&stale, bcc_graph::VertexId(0), bcc_graph::VertexId(1), false).unwrap();
        assert!(reg.commit("g").unwrap_err().contains("re-registered"));
    }

    #[test]
    fn commit_loses_to_a_concurrent_reregistration() {
        // The race the publish re-check closes: a `register` of the same
        // name lands between commit's read of the entry and its write. The
        // hook makes the interleaving deterministic while keeping the
        // re-registration on its own thread, like a real client.
        let reg = Arc::new(GraphRegistry::new());
        let entry = reg.insert("g", tiny_graph());
        entry.index(); // patched path
        reg.stage_edge(&entry, bcc_graph::VertexId(0), bcc_graph::VertexId(1), false).unwrap();

        let racer = Arc::clone(&reg);
        let err = reg
            .commit_entry(Arc::clone(&entry), move || {
                std::thread::spawn(move || {
                    racer.insert("g", tiny_graph());
                })
                .join()
                .expect("re-registration thread");
                Ok(())
            })
            .unwrap_err();
        assert!(err.contains("moved to a new snapshot during commit"), "{err}");

        // The concurrent registration won: its snapshot is live (edge intact,
        // not the committed removal) and nothing is left staged.
        let live = reg.get("g").unwrap();
        assert_eq!(live.graph().edge_count(), 1, "committed old-lineage snapshot discarded");
        assert_ne!(live.generation(), entry.generation());
        assert_eq!(reg.pending_len("g"), 0);
        // The next stage/commit cycle against the new snapshot succeeds.
        reg.stage_edge(&live, bcc_graph::VertexId(0), bcc_graph::VertexId(1), false).unwrap();
        let outcome = reg.commit("g").unwrap();
        assert_eq!(outcome.entry.graph().edge_count(), 0);
    }

    #[test]
    fn stale_commit_never_consumes_a_newer_registrations_batch() {
        // The other half of the race: commit read its entry *before* a
        // re-registration, and a third client has already staged changes
        // against the new snapshot. The stale commit must fail without
        // eating that batch.
        let reg = GraphRegistry::new();
        let stale = reg.insert("g", tiny_graph());
        let fresh = reg.insert("g", tiny_graph());
        reg.stage_edge(&fresh, bcc_graph::VertexId(0), bcc_graph::VertexId(1), false).unwrap();

        let err = reg.commit_entry(Arc::clone(&stale), || Ok(())).unwrap_err();
        assert!(err.contains("re-registered before commit"), "{err}");
        assert_eq!(reg.pending_len("g"), 1, "the new lineage's batch survives");
        // The rightful owner commits it cleanly.
        let outcome = reg.commit("g").unwrap();
        assert_eq!(outcome.applied, 1);
        assert_eq!(outcome.entry.graph().edge_count(), 0);

        // A slot pinned to a *dead* generation is still dropped (the
        // pre-existing cleanup semantics).
        let stale2 = reg.insert("g", tiny_graph());
        reg.stage_edge(&stale2, bcc_graph::VertexId(0), bcc_graph::VertexId(1), false).unwrap();
        reg.insert("g", tiny_graph());
        let err = reg.commit("g").unwrap_err();
        assert!(err.contains("staged changes dropped"), "{err}");
        assert_eq!(reg.pending_len("g"), 0);
    }

    #[test]
    fn a_commit_that_panics_before_publish_leaves_the_batch_staged() {
        let reg = GraphRegistry::new();
        let entry = reg.insert("g", tiny_graph());
        entry.index(); // patched path
        reg.stage_edge(&entry, VertexId(0), VertexId(1), false).unwrap();
        let torn = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reg.commit_entry(Arc::clone(&entry), || panic!("fault before publish"))
        }));
        assert!(torn.is_err(), "the hook's panic unwinds out of the commit");
        let live = reg.get("g").unwrap();
        assert_eq!(live.generation(), entry.generation(), "the old generation stays live");
        assert_eq!(live.graph().edge_count(), 1);
        assert_eq!(reg.pending_len("g"), 1, "the batch stays staged");
        let outcome = reg.commit("g").unwrap();
        assert_eq!(outcome.applied, 1);
        assert_eq!(outcome.entry.graph().edge_count(), 0);
        assert_eq!(reg.pending_len("g"), 0, "a published commit consumes the batch");
    }

    #[test]
    fn a_batch_that_grew_during_the_commit_is_left_for_the_next_commit() {
        // Staging against the committing snapshot while the commit runs:
        // the commit publishes the batch it read, and the grown slot stays
        // pinned to the replaced generation, so the next commit drops it.
        let reg = GraphRegistry::new();
        let mut b = GraphBuilder::new();
        let x = b.add_vertex("A");
        let y = b.add_vertex("B");
        let z = b.add_vertex("B");
        b.add_edge(x, y);
        let entry = reg.insert("g", b.build());
        reg.stage_edge(&entry, x, y, false).unwrap();
        let outcome = reg
            .commit_entry(Arc::clone(&entry), || {
                reg.stage_edge(&entry, x, z, true).map(|_| ())
            })
            .unwrap();
        assert_eq!(outcome.applied, 1);
        assert_eq!(outcome.entry.graph().edge_count(), 0);
        assert_eq!(reg.pending_len("g"), 2, "the grown slot is not consumed");
        let err = reg.commit("g").unwrap_err();
        assert!(err.contains("staged changes dropped"), "{err}");
        assert_eq!(reg.pending_len("g"), 0);
    }

    #[test]
    fn batched_commit_patch_equals_rebuild() {
        // Several staged changes, one commit: the batch-patched index must
        // be bit-identical to a from-scratch build on the final snapshot,
        // with the dirty set covering all mutation neighborhoods.
        let reg = GraphRegistry::new();
        let mut b = GraphBuilder::new();
        let a: Vec<_> = (0..4).map(|_| b.add_vertex("A")).collect();
        let c: Vec<_> = (0..4).map(|_| b.add_vertex("B")).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                b.add_edge(a[i], a[j]);
                b.add_edge(c[i], c[j]);
            }
        }
        for &x in &a[..2] {
            for &y in &c[..2] {
                b.add_edge(x, y);
            }
        }
        let entry = reg.insert("g", b.build());
        entry.index();
        reg.stage_edge(&entry, a[0], a[1], false).unwrap();
        reg.stage_edge(&entry, a[2], c[2], true).unwrap();
        reg.stage_edge(&entry, a[0], c[0], false).unwrap();
        reg.stage_edge(&entry, a[0], a[1], true).unwrap();
        let outcome = reg.commit("g").unwrap();
        assert_eq!(outcome.applied, 4);
        let patched = &outcome.entry.index_if_built().unwrap().index;
        let rebuilt = BccIndex::build(outcome.entry.graph());
        assert_eq!(patched.label_coreness, rebuilt.label_coreness);
        assert_eq!(patched.butterfly_degree, rebuilt.butterfly_degree);
        assert_eq!(patched.delta_max, rebuilt.delta_max);
        assert_eq!(patched.chi_max, rebuilt.chi_max);
        let dirty = outcome.dirty.as_ref().unwrap();
        for v in [a[0], a[1], a[2], c[0], c[2]] {
            assert!(dirty.contains(&v.0), "endpoint {v} must be dirty");
        }
    }

    #[test]
    fn concurrent_index_builds_converge() {
        let entry = Arc::new(GraphEntry::new("g", tiny_graph()));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let entry = Arc::clone(&entry);
            handles.push(std::thread::spawn(move || {
                entry.index().index.delta_max
            }));
        }
        let values: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(values.windows(2).all(|w| w[0] == w[1]));
    }
}
