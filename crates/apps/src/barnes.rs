//! Barnes-Hut: gravitational N-body simulation (Fig. 3).
//!
//! The paper (§4.1): "Barnes is a gravitational N-body simulation adapted
//! from the C code distributed with the SPLASH-2 benchmark suite.  We used
//! 16K bodies and ran the simulation for 6 timesteps.  The communication
//! pattern in Barnes is irregular as bodies move during the simulation
//! (causing body-body interactions to change) and the program uses a
//! load-balancing algorithm that dynamically assigns bodies to threads for
//! processing."
//!
//! Structure of one timestep (as in the adapted SPLASH-2 code):
//!
//! 1. **Tree build** — one thread rebuilds the octree from the current body
//!    positions and publishes it in shared memory; everyone else waits at a
//!    barrier.
//! 2. **Force computation** — bodies are handed out in chunks through a
//!    monitor-protected counter (the dynamic load balancing the paper
//!    mentions); each thread walks the shared octree for its bodies and
//!    stores the resulting accelerations in a shared vector.
//! 3. **Update** — each thread advances the velocities and positions of the
//!    block of bodies it owns (leapfrog integration), then everyone meets at
//!    the barrier again.
//!
//! Because the octree and the acceleration vector are shared objects that
//! every node re-caches after each monitor acquisition, the program's
//! communication grows quickly with the node count — the behaviour behind
//! the flattening curves of the paper's Fig. 3.

use hyperion::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{benchmark, block_owner, block_range, Benchmark, BenchmarkName};

/// Opening criterion of the Barnes-Hut approximation.
pub const THETA: f64 = 0.6;
/// Gravitational softening (avoids singular forces at tiny distances).
pub const SOFTENING: f64 = 1e-3;
/// Integration timestep.
pub const DT: f64 = 0.025;

/// Parameters of the Barnes-Hut benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BarnesParams {
    /// Number of bodies.
    pub bodies: usize,
    /// Number of timesteps.
    pub steps: usize,
    /// Random seed for the initial distribution.
    pub seed: u64,
}

impl BarnesParams {
    /// The paper's problem size: 16 K bodies, 6 timesteps.
    pub fn paper() -> Self {
        BarnesParams {
            bodies: 16 * 1024,
            steps: 6,
            seed: 1999,
        }
    }

    /// Default harness scale.
    pub fn harness() -> Self {
        BarnesParams {
            bodies: 1024,
            steps: 3,
            seed: 1999,
        }
    }

    /// A tiny instance for unit tests.
    pub fn quick() -> Self {
        BarnesParams {
            bodies: 96,
            steps: 2,
            seed: 3,
        }
    }
}

/// Result of a Barnes-Hut run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BarnesResult {
    /// Sum of the absolute values of all position coordinates (digest).
    pub position_digest: f64,
    /// Total kinetic energy after the last step.
    pub kinetic_energy: f64,
}

/// A body's state (used by the generator and the sequential reference).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Body {
    /// Mass.
    pub mass: f64,
    /// Position.
    pub pos: [f64; 3],
    /// Velocity.
    pub vel: [f64; 3],
}

/// Generate the initial body distribution (uniform cube with small random
/// velocities; deterministic for a given seed).
pub fn generate_bodies(params: &BarnesParams) -> Vec<Body> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    (0..params.bodies)
        .map(|_| Body {
            mass: 1.0 / params.bodies as f64,
            pos: [
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
                rng.gen_range(-1.0..1.0),
            ],
            vel: [
                rng.gen_range(-0.1..0.1),
                rng.gen_range(-0.1..0.1),
                rng.gen_range(-0.1..0.1),
            ],
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Octree construction.  The tree is always built locally by one thread (plain
// data structures) and then, in the distributed version, serialised into
// shared arrays for the other nodes to traverse.
// ---------------------------------------------------------------------------

/// `f64` slots per serialised tree node: mass, com xyz, centre xyz, half.
const NODE_F_SLOTS: usize = 8;
/// `i64` slots per serialised tree node: 8 children + leaf body index.
const NODE_I_SLOTS: usize = 9;

#[derive(Clone, Debug)]
struct TreeNode {
    center: [f64; 3],
    half: f64,
    mass: f64,
    com: [f64; 3],
    children: [i64; 8],
    body: i64,
}

impl TreeNode {
    fn new(center: [f64; 3], half: f64) -> Self {
        TreeNode {
            center,
            half,
            mass: 0.0,
            com: [0.0; 3],
            children: [-1; 8],
            body: -1,
        }
    }

    fn is_leaf(&self) -> bool {
        self.children.iter().all(|&c| c < 0)
    }
}

fn octant(center: &[f64; 3], p: &[f64; 3]) -> usize {
    let mut o = 0;
    for d in 0..3 {
        if p[d] >= center[d] {
            o |= 1 << d;
        }
    }
    o
}

fn child_center(center: &[f64; 3], half: f64, o: usize) -> [f64; 3] {
    let q = half / 2.0;
    [
        center[0] + if o & 1 != 0 { q } else { -q },
        center[1] + if o & 2 != 0 { q } else { -q },
        center[2] + if o & 4 != 0 { q } else { -q },
    ]
}

fn insert(nodes: &mut Vec<TreeNode>, positions: &[[f64; 3]], node: usize, body: usize) {
    if nodes[node].is_leaf() {
        if nodes[node].body < 0 {
            nodes[node].body = body as i64;
            return;
        }
        // Occupied leaf: split it by pushing the resident body down first.
        let resident = nodes[node].body as usize;
        nodes[node].body = -1;
        push_down(nodes, positions, node, resident);
    }
    push_down(nodes, positions, node, body);
}

fn push_down(nodes: &mut Vec<TreeNode>, positions: &[[f64; 3]], node: usize, body: usize) {
    let o = octant(&nodes[node].center, &positions[body]);
    let child = nodes[node].children[o];
    if child < 0 {
        let cc = child_center(&nodes[node].center, nodes[node].half, o);
        let ch = nodes[node].half / 2.0;
        nodes.push(TreeNode::new(cc, ch));
        let idx = nodes.len() - 1;
        nodes[node].children[o] = idx as i64;
        insert(nodes, positions, idx, body);
    } else {
        insert(nodes, positions, child as usize, body);
    }
}

#[allow(clippy::needless_range_loop)]
fn compute_mass(nodes: &mut [TreeNode], node: usize, positions: &[[f64; 3]], masses: &[f64]) {
    if nodes[node].is_leaf() {
        let b = nodes[node].body;
        if b >= 0 {
            let b = b as usize;
            nodes[node].mass = masses[b];
            nodes[node].com = positions[b];
        }
        return;
    }
    let children = nodes[node].children;
    let mut mass = 0.0;
    let mut weighted = [0.0; 3];
    for &c in &children {
        if c >= 0 {
            compute_mass(nodes, c as usize, positions, masses);
            let child = &nodes[c as usize];
            mass += child.mass;
            for d in 0..3 {
                weighted[d] += child.mass * child.com[d];
            }
        }
    }
    if mass > 0.0 {
        for w in &mut weighted {
            *w /= mass;
        }
    }
    nodes[node].mass = mass;
    nodes[node].com = weighted;
}

/// Build the octree over the given positions; node 0 is the root.
fn build_tree(positions: &[[f64; 3]], masses: &[f64]) -> Vec<TreeNode> {
    assert!(!positions.is_empty());
    let mut lo = [f64::INFINITY; 3];
    let mut hi = [f64::NEG_INFINITY; 3];
    for p in positions {
        for d in 0..3 {
            lo[d] = lo[d].min(p[d]);
            hi[d] = hi[d].max(p[d]);
        }
    }
    let center = [
        (lo[0] + hi[0]) / 2.0,
        (lo[1] + hi[1]) / 2.0,
        (lo[2] + hi[2]) / 2.0,
    ];
    let half = (0..3)
        .map(|d| (hi[d] - lo[d]) / 2.0)
        .fold(1e-9f64, f64::max)
        * 1.0001;

    let mut nodes = vec![TreeNode::new(center, half)];
    for b in 0..positions.len() {
        insert(&mut nodes, positions, 0, b);
    }
    compute_mass(&mut nodes, 0, positions, masses);
    nodes
}

/// Flatten the tree into the serialised layout shared between the sequential
/// reference and the distributed version (same bits → same physics).
fn serialise_tree(nodes: &[TreeNode]) -> (Vec<f64>, Vec<i64>) {
    let mut f = vec![0.0; nodes.len() * NODE_F_SLOTS];
    let mut i = vec![-1i64; nodes.len() * NODE_I_SLOTS];
    for (n, node) in nodes.iter().enumerate() {
        let fo = n * NODE_F_SLOTS;
        f[fo] = node.mass;
        f[fo + 1] = node.com[0];
        f[fo + 2] = node.com[1];
        f[fo + 3] = node.com[2];
        f[fo + 4] = node.center[0];
        f[fo + 5] = node.center[1];
        f[fo + 6] = node.center[2];
        f[fo + 7] = node.half;
        let io = n * NODE_I_SLOTS;
        i[io..io + 8].copy_from_slice(&node.children);
        i[io + 8] = node.body;
    }
    (f, i)
}

/// Read access to a serialised octree plus visit accounting.
///
/// Both executions use the same walker ([`accel_from_tree`]): the sequential
/// reference reads plain vectors, the distributed version reads the shared
/// arrays through a thread context (paying the protocol's access-detection
/// costs as it goes).  Same walker, same bits, same physics.
trait TreeReader {
    /// Read the `idx`-th `f64` slot of the serialised tree.
    fn f(&mut self, idx: usize) -> f64;
    /// Read the `idx`-th `i64` slot of the serialised tree.
    fn i(&mut self, idx: usize) -> i64;
    /// Called once per visited node; `interacted` tells whether the node
    /// contributed a body-cell interaction.
    fn visited(&mut self, interacted: bool);
}

/// Tree reader over local vectors (sequential reference and unit tests).
struct LocalTreeReader<'a> {
    f: &'a [f64],
    i: &'a [i64],
}

impl TreeReader for LocalTreeReader<'_> {
    fn f(&mut self, idx: usize) -> f64 {
        self.f[idx]
    }
    fn i(&mut self, idx: usize) -> i64 {
        self.i[idx]
    }
    fn visited(&mut self, _interacted: bool) {}
}

/// Acceleration on the body at `pos` (index `self_idx`), computed by walking
/// a serialised tree through a [`TreeReader`].
fn accel_from_tree(pos: [f64; 3], self_idx: i64, reader: &mut impl TreeReader) -> [f64; 3] {
    let mut acc = [0.0f64; 3];
    let mut stack = vec![0usize];
    while let Some(n) = stack.pop() {
        let fo = n * NODE_F_SLOTS;
        let mass = reader.f(fo);
        if mass <= 0.0 {
            reader.visited(false);
            continue;
        }
        let com = [reader.f(fo + 1), reader.f(fo + 2), reader.f(fo + 3)];
        let body = reader.i(n * NODE_I_SLOTS + 8);
        let dx = [com[0] - pos[0], com[1] - pos[1], com[2] - pos[2]];
        let r2 = dx[0] * dx[0] + dx[1] * dx[1] + dx[2] * dx[2];

        let interact = if body >= 0 {
            // Leaf: direct interaction unless it is the body itself.
            body != self_idx
        } else {
            // Internal node: use the centre of mass if the cell looks small
            // enough from here, otherwise open it.
            let half = reader.f(fo + 7);
            let size = 2.0 * half;
            if size * size < THETA * THETA * r2 {
                true
            } else {
                let io = n * NODE_I_SLOTS;
                for k in 0..8 {
                    let c = reader.i(io + k);
                    if c >= 0 {
                        stack.push(c as usize);
                    }
                }
                false
            }
        };
        reader.visited(interact);
        if interact {
            let dist2 = r2 + SOFTENING * SOFTENING;
            let inv = 1.0 / dist2.sqrt();
            let inv3 = inv * inv * inv;
            for d in 0..3 {
                acc[d] += mass * inv3 * dx[d];
            }
        }
    }
    acc
}

/// Digest of a set of bodies: (Σ|position coords|, kinetic energy).
pub fn digest(bodies: &[Body]) -> (f64, f64) {
    let mut pos_sum = 0.0;
    let mut ke = 0.0;
    for b in bodies {
        pos_sum += b.pos[0].abs() + b.pos[1].abs() + b.pos[2].abs();
        ke += 0.5 * b.mass * (b.vel[0] * b.vel[0] + b.vel[1] * b.vel[1] + b.vel[2] * b.vel[2]);
    }
    (pos_sum, ke)
}

/// Sequential reference implementation (identical phases and arithmetic).
#[allow(clippy::needless_range_loop)]
pub fn sequential(params: &BarnesParams) -> BarnesResult {
    let mut bodies = generate_bodies(params);
    let n = bodies.len();
    for _ in 0..params.steps {
        let positions: Vec<[f64; 3]> = bodies.iter().map(|b| b.pos).collect();
        let masses: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
        let tree = build_tree(&positions, &masses);
        let (tf, ti) = serialise_tree(&tree);

        let mut acc = vec![[0.0f64; 3]; n];
        for (b, a) in acc.iter_mut().enumerate() {
            let mut reader = LocalTreeReader { f: &tf, i: &ti };
            *a = accel_from_tree(positions[b], b as i64, &mut reader);
        }
        for (b, body) in bodies.iter_mut().enumerate() {
            for d in 0..3 {
                body.vel[d] += acc[b][d] * DT;
                body.pos[d] += body.vel[d] * DT;
            }
        }
    }
    let (position_digest, kinetic_energy) = digest(&bodies);
    BarnesResult {
        position_digest,
        kinetic_energy,
    }
}

/// Per-node visit cost of the tree walk (distance/opening test).
fn visit_mix() -> OpCounts {
    OpCounts::new()
        .with(Op::FpAdd, 5.0)
        .with(Op::FpMul, 4.0)
        .with(Op::Load, 6.0)
        .with(Op::IntAlu, 4.0)
        .with(Op::Branch, 3.0)
}

/// Additional cost of one accepted body-cell interaction.
fn interact_mix() -> OpCounts {
    OpCounts::new()
        .with(Op::FpAdd, 4.0)
        .with(Op::FpMul, 7.0)
        .with(Op::FpDiv, 1.0)
        .with(Op::Load, 2.0)
        .with(Op::Store, 3.0)
        .with(Op::IntAlu, 2.0)
        .with(Op::Branch, 1.0)
}

/// Cost of inserting one body into the octree (amortised per level).
fn insert_mix() -> OpCounts {
    OpCounts::new()
        .with(Op::FpAdd, 3.0)
        .with(Op::Load, 6.0)
        .with(Op::Store, 2.0)
        .with(Op::IntAlu, 8.0)
        .with(Op::Branch, 5.0)
}

/// Per-body leapfrog update cost.
fn update_mix() -> OpCounts {
    OpCounts::new()
        .with(Op::FpAdd, 6.0)
        .with(Op::FpMul, 6.0)
        .with(Op::Load, 9.0)
        .with(Op::Store, 6.0)
        .with(Op::IntAlu, 3.0)
        .with(Op::Branch, 1.0)
}

/// Slots per body object: mass, pos xyz, vel xyz, acc xyz, 2 pad.
const BODY_SLOTS: usize = 12;
/// Field offsets within a body object.
const B_MASS: usize = 0;
const B_POS: usize = 1;
const B_VEL: usize = 4;
const B_ACC: usize = 7;

/// Tree reader over the shared arrays: every slot read is a DSM access on the
/// calling thread's node, and the walk's compute cost is charged per visited
/// node / interaction.
struct DsmTreeReader<'a, 'b> {
    worker: &'a mut ThreadCtx,
    tree_f: &'b HArray<f64>,
    tree_i: &'b HArray<i64>,
    per_visit: WorkEstimate,
    per_interact: WorkEstimate,
}

impl TreeReader for DsmTreeReader<'_, '_> {
    fn f(&mut self, idx: usize) -> f64 {
        self.tree_f.get(self.worker, idx)
    }
    fn i(&mut self, idx: usize) -> i64 {
        self.tree_i.get(self.worker, idx)
    }
    fn visited(&mut self, interacted: bool) {
        self.worker.charge_work(&self.per_visit);
        if interacted {
            self.worker.charge_work(&self.per_interact);
        }
    }
}

/// Run the Barnes-Hut benchmark under `config`.
#[allow(clippy::needless_range_loop)]
pub fn run(config: HyperionConfig, params: &BarnesParams) -> RunOutcome<BarnesResult> {
    let runtime = HyperionRuntime::new(config).expect("invalid Hyperion configuration");
    let threads = runtime.nodes();
    let n = params.bodies;
    let steps = params.steps;
    let initial = generate_bodies(params);
    // Upper bound on octree nodes for distinct positions: every internal node
    // has ≥ 2 descendants holding bodies, but splits can chain; 4N + 64 is a
    // comfortable bound for the uniform distributions used here.
    let max_tree_nodes = 4 * n + 64;
    let chunk = (n / (threads * 8)).max(1) as u64;

    runtime.run(move |ctx| {
        // Each body is an object (one row of a Java-style 2-D array) homed on
        // the node of the thread that owns its block — the SPLASH-2 style
        // body distribution.
        let owner_of_body = block_owner(n, threads);
        let bodies_m: HMatrix<f64> = ctx.alloc_matrix(n, BODY_SLOTS, owner_of_body);

        // The shared octree (rebuilt every step by thread 0, homed on node 0).
        let tree_f: HArray<f64> = ctx.alloc_array(max_tree_nodes * NODE_F_SLOTS, NodeId(0));
        let tree_i: HArray<i64> = ctx.alloc_array(max_tree_nodes * NODE_I_SLOTS, NodeId(0));
        // The number of serialised tree nodes currently valid in them.
        let tree_size = ctx.alloc_array::<u64>(1, NodeId(0));

        // Work distribution and synchronisation.
        let barrier = JBarrier::new(ctx, threads, NodeId(0));
        let chunk_counters: Vec<SharedCounter> = (0..steps)
            .map(|_| SharedCounter::new(ctx, NodeId(0), 0))
            .collect();

        // Initial conditions are written by main, one bulk write per body
        // row; writes to remote body objects are flushed when the worker
        // threads are started.
        let init_rows = bodies_m.rows_view(ctx);
        for (b, body) in initial.iter().enumerate() {
            let mut state = [0.0f64; B_ACC + 3];
            state[B_MASS] = body.mass;
            state[B_POS..B_POS + 3].copy_from_slice(&body.pos);
            state[B_VEL..B_VEL + 3].copy_from_slice(&body.vel);
            init_rows.row(b).write_slice(ctx, 0, &state);
        }

        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            let barrier = barrier.clone();
            let chunk_counters = chunk_counters.clone();
            handles.push(ctx.spawn_on(NodeId(t as u32), move |worker| {
                let per_visit = worker.estimate(&visit_mix());
                let per_interact = worker.estimate(&interact_mix());
                let per_insert = worker.estimate(&insert_mix());
                let per_update = worker.estimate(&update_mix());
                let (my_start, my_end) = block_range(n, threads, t);

                // Row handles are fetched once per thread; the references
                // never change, so the cache survives every barrier.
                let body_rows = bodies_m.rows_view(worker);

                for counter in chunk_counters.iter().take(steps) {
                    // ---- Phase 1: tree build (thread 0 only). ----
                    if t == 0 {
                        let mut positions = vec![[0.0f64; 3]; n];
                        let mut masses = vec![0.0f64; n];
                        for (b, p) in positions.iter_mut().enumerate() {
                            // One bulk read covers mass and position.
                            let head = body_rows.row(b).read_slice(worker, B_MASS..B_POS + 3);
                            masses[b] = head[B_MASS];
                            p.copy_from_slice(&head[B_POS..B_POS + 3]);
                        }
                        let tree = build_tree(&positions, &masses);
                        // Tree construction cost: one insertion path per body
                        // (≈ tree depth) plus the mass recursion.
                        let depth = (n as f64).log2().ceil().max(1.0) as u64 / 3 + 2;
                        worker.charge_iters(&per_insert, n as u64 * depth);
                        worker.charge_iters(&per_insert, tree.len() as u64);

                        assert!(
                            tree.len() <= max_tree_nodes,
                            "octree overflowed its shared arrays"
                        );
                        let (tf, ti) = serialise_tree(&tree);
                        // Publish the serialised tree with two bulk writes:
                        // the runtime ships whole pages either way, but the
                        // writer now pays detection per page, not per slot.
                        tree_f.write_slice(worker, 0, &tf);
                        tree_i.write_slice(worker, 0, &ti);
                        tree_size.put(worker, 0, tree.len() as u64);
                    }
                    barrier.arrive(worker);

                    // ---- Phase 2: force computation, dynamic chunks. ----
                    loop {
                        let start = counter.next_chunk(worker, chunk) as usize;
                        if start >= n {
                            break;
                        }
                        let end = (start + chunk as usize).min(n);
                        for b in start..end {
                            let row = body_rows.row(b);
                            let pos = [
                                row.get(worker, B_POS),
                                row.get(worker, B_POS + 1),
                                row.get(worker, B_POS + 2),
                            ];
                            // The tree walk reads the shared tree arrays and
                            // charges its compute as it goes.
                            let a = {
                                let mut reader = DsmTreeReader {
                                    worker: &mut *worker,
                                    tree_f: &tree_f,
                                    tree_i: &tree_i,
                                    per_visit,
                                    per_interact,
                                };
                                accel_from_tree(pos, b as i64, &mut reader)
                            };
                            for d in 0..3 {
                                row.put(worker, B_ACC + d, a[d]);
                            }
                        }
                    }
                    barrier.arrive(worker);

                    // ---- Phase 3: integrate the bodies this thread owns. ----
                    for b in my_start..my_end {
                        let row = body_rows.row(b);
                        for d in 0..3 {
                            let a = row.get(worker, B_ACC + d);
                            let v = row.get(worker, B_VEL + d) + a * DT;
                            row.put(worker, B_VEL + d, v);
                            let x = row.get(worker, B_POS + d) + v * DT;
                            row.put(worker, B_POS + d, x);
                        }
                        worker.charge_iters(&per_update, 1);
                    }
                    barrier.arrive(worker);
                }
            }));
        }
        for h in handles {
            ctx.join(h);
        }

        // Digest the final state (one bulk read per body row).
        let digest_rows = bodies_m.rows_view(ctx);
        let mut final_bodies = Vec::with_capacity(n);
        for b in 0..n {
            let row = digest_rows.row_view(ctx, b);
            final_bodies.push(Body {
                mass: row.get(B_MASS),
                pos: [row.get(B_POS), row.get(B_POS + 1), row.get(B_POS + 2)],
                vel: [row.get(B_VEL), row.get(B_VEL + 1), row.get(B_VEL + 2)],
            });
        }
        let (position_digest, kinetic_energy) = digest(&final_bodies);
        BarnesResult {
            position_digest,
            kinetic_energy,
        }
    })
}

benchmark!(BarnesParams, Barnes, |result| result.position_digest);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::config;

    #[test]
    fn generated_bodies_are_deterministic_and_bounded() {
        let params = BarnesParams::quick();
        let a = generate_bodies(&params);
        let b = generate_bodies(&params);
        assert_eq!(a, b);
        assert_eq!(a.len(), params.bodies);
        for body in &a {
            assert!(body.mass > 0.0);
            for d in 0..3 {
                assert!(body.pos[d].abs() <= 1.0);
                assert!(body.vel[d].abs() <= 0.1);
            }
        }
    }

    #[test]
    fn tree_holds_every_body_exactly_once() {
        let params = BarnesParams::quick();
        let bodies = generate_bodies(&params);
        let positions: Vec<[f64; 3]> = bodies.iter().map(|b| b.pos).collect();
        let masses: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
        let tree = build_tree(&positions, &masses);

        let mut found = vec![false; bodies.len()];
        for node in &tree {
            if node.body >= 0 {
                assert!(node.is_leaf());
                assert!(!found[node.body as usize], "body stored twice");
                found[node.body as usize] = true;
            }
        }
        assert!(found.iter().all(|&f| f), "every body must be in the tree");

        // Total mass at the root equals the sum of body masses.
        let total: f64 = masses.iter().sum();
        assert!((tree[0].mass - total).abs() < 1e-12);
        assert!(tree.len() <= 4 * bodies.len() + 64);
    }

    #[test]
    fn serialised_tree_round_trips_through_the_walker() {
        // Two bodies on a diagonal: the acceleration on each must point
        // towards the other with equal magnitude (equal masses).
        let positions = vec![[-0.5, 0.0, 0.0], [0.5, 0.0, 0.0]];
        let masses = vec![0.5, 0.5];
        let tree = build_tree(&positions, &masses);
        let (tf, ti) = serialise_tree(&tree);
        let a0 = accel_from_tree(positions[0], 0, &mut LocalTreeReader { f: &tf, i: &ti });
        let a1 = accel_from_tree(positions[1], 1, &mut LocalTreeReader { f: &tf, i: &ti });
        assert!(a0[0] > 0.0 && a1[0] < 0.0);
        assert!((a0[0] + a1[0]).abs() < 1e-12);
        assert!(a0[1].abs() < 1e-12 && a0[2].abs() < 1e-12);
    }

    #[test]
    fn sequential_run_conserves_plausibility() {
        let result = sequential(&BarnesParams::quick());
        assert!(result.position_digest.is_finite());
        assert!(result.kinetic_energy.is_finite());
        assert!(result.kinetic_energy > 0.0);
    }

    #[test]
    fn parallel_matches_sequential_for_both_protocols() {
        let params = BarnesParams::quick();
        let expected = sequential(&params);
        for protocol in ProtocolKind::all() {
            for nodes in [1, 3] {
                let out = run(config(nodes, protocol), &params);
                let rel = (out.result.position_digest - expected.position_digest).abs()
                    / expected.position_digest;
                assert!(
                    rel < 1e-9,
                    "{protocol:?}/{nodes}: digest {} vs {}",
                    out.result.position_digest,
                    expected.position_digest
                );
                let rel_ke = (out.result.kinetic_energy - expected.kinetic_energy).abs()
                    / expected.kinetic_energy;
                assert!(rel_ke < 1e-9);
            }
        }
    }

    #[test]
    fn dynamic_assignment_uses_the_shared_counter() {
        let params = BarnesParams::quick();
        let out = run(config(3, ProtocolKind::JavaPf), &params);
        let total = out.report.total_stats();
        // Chunk hand-out and barrier traffic imply plenty of monitor activity
        // and remote acquisitions from nodes 1 and 2.
        assert!(total.monitor_enters > (params.steps * 3) as u64);
        assert!(total.remote_monitor_acquires > 0);
        assert!(total.page_loads > 0);
        // Three barriers per step per thread.
        assert_eq!(total.barrier_waits, (3 * params.steps * 3) as u64);
    }

    #[test]
    fn java_pf_beats_java_ic_on_barnes() {
        // Enough bodies that the force computation dominates the chunk
        // hand-out and tree re-fetch costs (as with the paper's 16 K bodies).
        let params = BarnesParams {
            bodies: 1024,
            steps: 2,
            seed: 3,
        };
        let ic = run(config(2, ProtocolKind::JavaIc), &params)
            .report
            .execution_time
            .as_secs_f64();
        let pf = run(config(2, ProtocolKind::JavaPf), &params)
            .report
            .execution_time
            .as_secs_f64();
        assert!(pf < ic, "pf={pf:.4}s should beat ic={ic:.4}s");
    }

    #[test]
    fn benchmark_trait_reports_figure_three() {
        let params = BarnesParams::quick();
        assert_eq!(params.name().figure(), 3);
        // One node under `java_pf`.
        let (digest_value, report) = params.execute(config(1, ProtocolKind::JavaPf));
        assert!(digest_value.is_finite());
        assert_eq!(report.nodes, 1);
    }
}
