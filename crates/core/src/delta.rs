//! Incremental Δ-cost evaluation for swap-based local search.
//!
//! Every swap-based mapper in this workspace (MPIPP's best-swap rounds,
//! the Geo-distributed hill-climb polish, Monte-Carlo polish) repeatedly
//! asks the same question: *how much does the Eq. 3 cost change if I
//! swap processes `a` and `b` (or move `i` to site `s`)?* Answering it
//! by re-walking the pattern is `O(E)` per candidate; even the seed's
//! `cost::swap_delta` shortcut re-derives both endpoints' incident costs
//! from scratch, paying two binary searches per partner edge.
//!
//! [`CostEvaluator`] answers it in `O(deg(a) + deg(b))` flat array
//! reads: [`CostTables`] stores the pattern as a directed-split CSR and
//! the network as flat row-major `LT`/`1/BT` matrices, and the evaluator
//! caches each process's incident cost so a candidate only re-evaluates
//! the *post-swap* side. Applied moves update the caches in `O(deg)` and
//! push an undo frame; [`CostEval::revert`] restores the exact pre-apply
//! state bitwise (frames save the touched cache entries, not recomputed
//! values).
//!
//! The seed's ground truth stays available behind the same trait:
//! [`FullRecomputeEval`] evaluates every candidate by a full `O(E)`
//! re-walk. [`Evaluation`] selects between the two at mapper-config
//! level, and the equivalence harness in `tests/delta_equivalence.rs`
//! plus the oracle regression tests pin the two implementations to
//! identical mapper decisions.
//!
//! One swap search runs on top, through three entry points that each take
//! the full parameter list:
//!
//! * [`best_improving_swap`] — steepest descent's scan: the best swap
//!   among a movable set, with the number of candidates it evaluated
//!   (MPIPP's exchange rounds, multilevel refinement of small classes);
//! * [`sweep_hill_climb`] — first-improvement sweeps over an evaluator,
//!   all pairs below `FULL_PAIR_LIMIT` processes and partner edges
//!   above it, returning [`SearchStats`];
//! * [`polish`] — [`sweep_hill_climb`] on a fresh evaluator over prebuilt
//!   [`CostTables`], writing the result back into a [`Mapping`].
//!
//! The sweeps record `pass` spans and `swap` instants on a
//! [`TraceScope`]; callers that trace nothing pass [`TraceScope::off`].

use crate::cost::{model_components, CostModel};
use crate::mapping::Mapping;
use crate::metrics::Metrics;
use crate::problem::MappingProblem;
use crate::trace::TraceScope;
use geonet::SiteId;
use std::sync::atomic::{AtomicU64, Ordering};

/// Aggregate statistics of one swap-search run — the per-mapper numbers
/// the observability layer reports (generalizing [`CostEval::terms`]).
/// Plain integers, accumulated locally by the search loops and emitted
/// once per phase, so the hot path carries no sink calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Sweeps / exchange rounds run (including the final one that found
    /// no improvement).
    pub passes: u64,
    /// Candidate swaps whose Δ was computed.
    pub swaps_evaluated: u64,
    /// Swaps actually applied.
    pub swaps_accepted: u64,
    /// Random restarts taken (0 for single-start searches).
    pub restarts: u64,
    /// α–β terms the evaluator computed ([`CostEval::terms`] at the end
    /// of the search, including evaluator construction).
    pub terms: u64,
}

impl SearchStats {
    /// Field-wise accumulate `other` into `self` (merging restarts or
    /// refinement candidates).
    pub fn absorb(&mut self, other: SearchStats) {
        self.passes += other.passes;
        self.swaps_evaluated += other.swaps_evaluated;
        self.swaps_accepted += other.swaps_accepted;
        self.restarts += other.restarts;
        self.terms += other.terms;
    }

    /// Emit the standard `search.*` counters to `metrics` (no-op when
    /// the handle is off).
    pub fn emit(&self, metrics: &Metrics) {
        if !metrics.enabled() {
            return;
        }
        metrics.counter("search.passes", self.passes);
        metrics.counter("search.swaps_evaluated", self.swaps_evaluated);
        metrics.counter("search.swaps_accepted", self.swaps_accepted);
        metrics.counter("search.restarts", self.restarts);
        metrics.counter("search.terms", self.terms);
    }
}

/// Which Δ-cost implementation a mapper's local search uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Evaluation {
    /// Cached incremental deltas (`O(deg)` per candidate) — the default.
    #[default]
    Incremental,
    /// Full `O(E)` recomputation per candidate — the ground-truth oracle
    /// the incremental engine is verified against. Orders of magnitude
    /// slower; useful for tests and debugging only.
    FullRecompute,
}

impl Evaluation {
    /// Construct the chosen evaluator over `tables`, starting from the
    /// assignment in `sites`.
    pub fn evaluator<'t>(
        self,
        tables: &'t CostTables,
        sites: Vec<SiteId>,
    ) -> Box<dyn CostEval + 't> {
        match self {
            Evaluation::Incremental => Box::new(CostEvaluator::new(tables, sites)),
            Evaluation::FullRecompute => Box::new(FullRecomputeEval::new(tables, sites)),
        }
    }
}

/// Why [`CostTables::try_build`] rejected a problem. Every variant is a
/// condition the search kernels cannot survive: non-finite components
/// would poison `total_cmp` orderings, and an overflowing index space
/// would silently truncate the `u32` CSR layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CostTablesError {
    /// The process count or the directed CSR entry count does not fit
    /// the `u32` index space of the flat tables.
    IndexOverflow {
        /// Number of processes in the problem.
        processes: usize,
        /// Number of directed CSR entries the partner lists expand to.
        entries: usize,
    },
    /// A folded communication component on an edge is NaN or infinite.
    NonFiniteEdge {
        /// Source process of the offending undirected edge.
        from: usize,
        /// Peer process of the offending undirected edge.
        to: usize,
        /// The folded component values, for the error message.
        detail: String,
    },
    /// A network `LT` or `1/BT` entry is NaN or infinite.
    NonFiniteNetwork {
        /// Row site index.
        from: usize,
        /// Column site index.
        to: usize,
        /// Which entry and its value, for the error message.
        detail: String,
    },
}

impl core::fmt::Display for CostTablesError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CostTablesError::IndexOverflow { processes, entries } => write!(
                f,
                "CostTables: graph exceeds the u32 CSR index space \
                 ({processes} processes, {entries} directed entries)"
            ),
            CostTablesError::NonFiniteEdge { from, to, detail } => write!(
                f,
                "CostTables: non-finite communication component on edge \
                 {from}↔{to} ({detail}); reject bad profiles before mapping"
            ),
            CostTablesError::NonFiniteNetwork {
                from: _,
                to: _,
                detail,
            } => {
                write!(f, "CostTables: non-finite {detail}")
            }
        }
    }
}

impl std::error::Error for CostTablesError {}

/// Pure index-space check for the flat CSR layout: `row_ptr` stores
/// entry offsets and `peer` stores process ids, both as `u32`. Checked
/// up front — with huge synthetic counts this is testable without
/// allocating anything.
fn csr_fits(processes: usize, entries: usize) -> Result<(), CostTablesError> {
    if processes > u32::MAX as usize || entries > u32::MAX as usize {
        return Err(CostTablesError::IndexOverflow { processes, entries });
    }
    Ok(())
}

/// Flatten a network into row-major `LT` and `1/BT` matrices, rejecting
/// non-finite entries (shared by both table constructors).
fn net_matrices(
    net: &geonet::SiteNetwork,
    m: usize,
) -> Result<(Vec<f64>, Vec<f64>), CostTablesError> {
    let mut lt = Vec::with_capacity(m * m);
    let mut inv_bt = Vec::with_capacity(m * m);
    for k in 0..m {
        for l in 0..m {
            let l_kl = net.latency(SiteId(k), SiteId(l));
            let b_kl = net.bandwidth(SiteId(k), SiteId(l));
            let inv = 1.0 / b_kl;
            if !l_kl.is_finite() {
                return Err(CostTablesError::NonFiniteNetwork {
                    from: k,
                    to: l,
                    detail: format!("latency LT({k},{l}) = {l_kl}"),
                });
            }
            if !inv.is_finite() {
                return Err(CostTablesError::NonFiniteNetwork {
                    from: k,
                    to: l,
                    detail: format!("1/BT({k},{l}) non-finite (BT = {b_kl})"),
                });
            }
            lt.push(l_kl);
            inv_bt.push(inv);
        }
    }
    Ok((lt, inv_bt))
}

/// Immutable, model-folded flat tables for one `(problem, cost model)`
/// pair: the communication pattern as a directed-split CSR over
/// undirected partner edges, and the network as row-major `LT` and
/// `1/BT` matrices. Build once per `map()` call, share freely across
/// threads.
#[derive(Debug, Clone)]
pub struct CostTables {
    n: usize,
    m: usize,
    /// CSR row offsets into the four parallel component arrays.
    row_ptr: Vec<u32>,
    /// Partner process of each CSR entry.
    peer: Vec<u32>,
    /// `AG(i, peer)` — messages `i` sends to the partner.
    out_m: Vec<f64>,
    /// `CG(i, peer)` — bytes `i` sends to the partner.
    out_b: Vec<f64>,
    /// `AG(peer, i)` — messages the partner sends to `i`.
    in_m: Vec<f64>,
    /// `CG(peer, i)` — bytes the partner sends to `i`.
    in_b: Vec<f64>,
    /// Row-major `LT(k, l)`.
    lt: Vec<f64>,
    /// Row-major `1 / BT(k, l)` (division folded into a multiply).
    inv_bt: Vec<f64>,
}

impl CostTables {
    /// Flatten `problem` under `model`. The model is folded into the
    /// stored `CG`/`AG` components (latency-only zeroes the bytes,
    /// bandwidth-only the messages), so every downstream evaluation is
    /// the same two-term α–β kernel.
    ///
    /// # Panics
    /// Panics if any folded communication component or network entry is
    /// non-finite, or the graph exceeds the `u32` CSR index space.
    /// Rejecting here — once per `map()` — is what lets the downstream
    /// comparators use plain `total_cmp` orderings without NaN ever
    /// reaching a search decision. [`CostTables::try_build`] is the
    /// non-panicking form for callers fed untrusted problems.
    pub fn build(problem: &MappingProblem, model: CostModel) -> Self {
        match Self::try_build(problem, model) {
            Ok(tables) => tables,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`CostTables::build`] with every rejection as a typed error
    /// instead of a panic: non-finite communication components or
    /// network entries, and graphs whose process count or directed
    /// CSR entry count would silently truncate the `u32` index space.
    /// Degenerate problems — a single vertex, every rank pinned, or
    /// zero-weight edges — build fine and evaluate to well-defined
    /// (possibly zero) costs.
    pub fn try_build(problem: &MappingProblem, model: CostModel) -> Result<Self, CostTablesError> {
        let n = problem.num_processes();
        let m = problem.num_sites();
        let pattern = problem.pattern();
        let partners = problem.partners();

        let entries: usize = partners.iter().map(Vec::len).sum();
        csr_fits(n, entries)?;
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut peer = Vec::with_capacity(entries);
        let mut out_m = Vec::with_capacity(entries);
        let mut out_b = Vec::with_capacity(entries);
        let mut in_m = Vec::with_capacity(entries);
        let mut in_b = Vec::with_capacity(entries);
        row_ptr.push(0u32);
        for (i, ps) in partners.iter().enumerate() {
            for p in ps {
                let ob = pattern.bytes(i, p.peer);
                let om = pattern.msgs(i, p.peer);
                let (fom, fob) = model_components(model, om, ob);
                let (fim, fib) = model_components(model, p.msgs - om, p.bytes - ob);
                if !(fom.is_finite() && fob.is_finite() && fim.is_finite() && fib.is_finite()) {
                    return Err(CostTablesError::NonFiniteEdge {
                        from: i,
                        to: p.peer,
                        detail: format!(
                            "out msgs {fom}, out bytes {fob}, in msgs {fim}, in bytes {fib}"
                        ),
                    });
                }
                peer.push(p.peer as u32);
                out_m.push(fom);
                out_b.push(fob);
                in_m.push(fim);
                in_b.push(fib);
            }
            row_ptr.push(peer.len() as u32);
        }

        let (lt, inv_bt) = net_matrices(problem.network(), m)?;

        Ok(Self {
            n,
            m,
            row_ptr,
            peer,
            out_m,
            out_b,
            in_m,
            in_b,
            lt,
            inv_bt,
        })
    }

    /// [`CostTables::try_build_from_pattern`] with the standard
    /// panic-on-rejection contract of [`CostTables::build`].
    ///
    /// # Panics
    /// Panics under the same conditions as [`CostTables::build`].
    pub fn build_from_pattern(
        pattern: &commgraph::CommPattern,
        net: &geonet::SiteNetwork,
        model: CostModel,
    ) -> Self {
        match Self::try_build_from_pattern(pattern, net, model) {
            Ok(tables) => tables,
            Err(e) => panic!("{e}"),
        }
    }

    /// Build tables directly from a pattern/network pair — the
    /// multilevel refiner's fast path, which visits a freshly contracted
    /// pattern at every level. Semantically equivalent to wrapping the
    /// pair in a [`MappingProblem`] and calling
    /// [`CostTables::try_build`] (up to float rounding in the folded
    /// components), but the undirected partner rows come from one O(E)
    /// sorted merge of the out- and in-adjacency instead of the
    /// problem's BTreeMap partner cache plus per-entry binary searches.
    pub fn try_build_from_pattern(
        pattern: &commgraph::CommPattern,
        net: &geonet::SiteNetwork,
        model: CostModel,
    ) -> Result<Self, CostTablesError> {
        let n = pattern.n();
        let m = net.num_sites();

        // In-adjacency, with each row sorted by source because sources
        // are visited in order.
        let mut in_rows: Vec<Vec<commgraph::pattern::Edge>> = vec![Vec::new(); n];
        for src in 0..n {
            for e in pattern.out_edges(src) {
                in_rows[e.dst].push(commgraph::pattern::Edge {
                    dst: src,
                    bytes: e.bytes,
                    msgs: e.msgs,
                });
            }
        }
        let entries: usize = (0..n)
            .map(|i| {
                let (out, inr) = (pattern.out_edges(i), &in_rows[i]);
                let (mut a, mut b, mut len) = (0usize, 0usize, 0usize);
                while a < out.len() || b < inr.len() {
                    if b >= inr.len() || (a < out.len() && out[a].dst <= inr[b].dst) {
                        if b < inr.len() && out[a].dst == inr[b].dst {
                            b += 1;
                        }
                        a += 1;
                    } else {
                        b += 1;
                    }
                    len += 1;
                }
                len
            })
            .sum();
        csr_fits(n, entries)?;

        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut peer = Vec::with_capacity(entries);
        let mut out_m = Vec::with_capacity(entries);
        let mut out_b = Vec::with_capacity(entries);
        let mut in_m = Vec::with_capacity(entries);
        let mut in_b = Vec::with_capacity(entries);
        row_ptr.push(0u32);
        for (i, inr) in in_rows.iter().enumerate() {
            let out = pattern.out_edges(i);
            let (mut a, mut b) = (0usize, 0usize);
            while a < out.len() || b < inr.len() {
                // Merge the two sorted runs into one partner entry per
                // peer: out components from i→peer, in from peer→i.
                let (p, om, ob, im, ib) =
                    if b >= inr.len() || (a < out.len() && out[a].dst < inr[b].dst) {
                        let e = &out[a];
                        a += 1;
                        (e.dst, e.msgs, e.bytes, 0.0, 0.0)
                    } else if a >= out.len() || inr[b].dst < out[a].dst {
                        let e = &inr[b];
                        b += 1;
                        (e.dst, 0.0, 0.0, e.msgs, e.bytes)
                    } else {
                        let (eo, ei) = (&out[a], &inr[b]);
                        a += 1;
                        b += 1;
                        (eo.dst, eo.msgs, eo.bytes, ei.msgs, ei.bytes)
                    };
                let (fom, fob) = model_components(model, om, ob);
                let (fim, fib) = model_components(model, im, ib);
                if !(fom.is_finite() && fob.is_finite() && fim.is_finite() && fib.is_finite()) {
                    return Err(CostTablesError::NonFiniteEdge {
                        from: i,
                        to: p,
                        detail: format!(
                            "out msgs {fom}, out bytes {fob}, in msgs {fim}, in bytes {fib}"
                        ),
                    });
                }
                peer.push(p as u32);
                out_m.push(fom);
                out_b.push(fob);
                in_m.push(fim);
                in_b.push(fib);
            }
            row_ptr.push(peer.len() as u32);
        }

        let (lt, inv_bt) = net_matrices(net, m)?;
        Ok(Self {
            n,
            m,
            row_ptr,
            peer,
            out_m,
            out_b,
            in_m,
            in_b,
            lt,
            inv_bt,
        })
    }

    /// Number of processes.
    #[inline]
    pub fn num_processes(&self) -> usize {
        self.n
    }

    /// Number of sites.
    #[inline]
    pub fn num_sites(&self) -> usize {
        self.m
    }

    /// Number of directed CSR entries (twice the undirected edge count).
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.peer.len()
    }

    /// CSR entry range of process `i`.
    #[inline]
    fn row(&self, i: usize) -> core::ops::Range<usize> {
        self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize
    }

    /// One α–β term: `msgs·LT(from,to) + bytes/BT(from,to)`.
    #[inline]
    fn term(&self, msgs: f64, bytes: f64, from: SiteId, to: SiteId) -> f64 {
        let at = from.index() * self.m + to.index();
        msgs * self.lt[at] + bytes * self.inv_bt[at]
    }

    /// Total Eq. 3 cost of `sites` — `O(E)` over the out components only
    /// (each directed edge is stored twice, once per endpoint).
    pub fn total(&self, sites: &[SiteId]) -> f64 {
        debug_assert_eq!(sites.len(), self.n);
        let mut sum = 0.0;
        for i in 0..self.n {
            let si = sites[i];
            for k in self.row(i) {
                sum += self.term(
                    self.out_m[k],
                    self.out_b[k],
                    si,
                    sites[self.peer[k] as usize],
                );
            }
        }
        sum
    }

    /// Incident cost of process `i` (both directions of every partner
    /// edge) under `sites`.
    fn incident(&self, sites: &[SiteId], i: usize) -> f64 {
        let si = sites[i];
        let mut sum = 0.0;
        for k in self.row(i) {
            let sp = sites[self.peer[k] as usize];
            sum += self.term(self.out_m[k], self.out_b[k], si, sp)
                + self.term(self.in_m[k], self.in_b[k], sp, si);
        }
        sum
    }

    /// Eq. 3 cost of attaching unplaced process `i` at `site` to its
    /// already-placed partners — the greedy mappers' tie-break score.
    /// Unplaced partners contribute nothing. `O(deg(i))`.
    pub fn placement_cost(&self, placed: &[Option<SiteId>], i: usize, site: SiteId) -> f64 {
        let mut sum = 0.0;
        for k in self.row(i) {
            if let Some(sp) = placed[self.peer[k] as usize] {
                sum += self.term(self.out_m[k], self.out_b[k], site, sp)
                    + self.term(self.in_m[k], self.in_b[k], sp, site);
            }
        }
        sum
    }
}

/// Δ-cost evaluation over a mutable assignment: candidate queries,
/// applied moves with cache maintenance, and bitwise-exact undo.
///
/// `swap_delta`/`move_delta` are `&self` and thread-safe, so a sweep can
/// fan candidate evaluation out with rayon; `apply_*`/`revert` mutate.
pub trait CostEval: Sync {
    /// Current total Eq. 3 cost (maintained incrementally; see
    /// `tests/delta_equivalence.rs` for the drift bound).
    fn total(&self) -> f64;

    /// The current assignment.
    fn sites(&self) -> &[SiteId];

    /// Exact cost change of swapping the sites of `a` and `b`; `0.0`
    /// when `a == b` or they share a site.
    fn swap_delta(&self, a: usize, b: usize) -> f64;

    /// Exact cost change of moving `i` to `to`; `0.0` when already there.
    /// (Capacity bookkeeping is the caller's job.)
    fn move_delta(&self, i: usize, to: SiteId) -> f64;

    /// Apply the swap, update caches, push an undo frame; returns the
    /// applied delta.
    fn apply_swap(&mut self, a: usize, b: usize) -> f64;

    /// Apply the move, update caches, push an undo frame; returns the
    /// applied delta.
    fn apply_move(&mut self, i: usize, to: SiteId) -> f64;

    /// Undo the most recent un-reverted `apply_*`, restoring the exact
    /// prior state (bitwise). Returns `false` when nothing is left.
    fn revert(&mut self) -> bool;

    /// α–β terms evaluated so far (one `pair_cost` = one term) — the
    /// work metric behind the Fig. 4 FLOP comparisons.
    fn terms(&self) -> u64;

    /// Partner ids of `i` in CSR order (the communicating pairs a
    /// partner-edge sweep considers).
    fn peers(&self, i: usize) -> &[u32];
}

/// An applied operation, for the undo log.
#[derive(Debug, Clone, Copy)]
enum Op {
    Swap(u32, u32),
    /// Process and the site it came *from*.
    Move(u32, SiteId),
}

/// Undo frame: the operation, the pre-apply total, and every cache entry
/// the apply touched with its pre-apply value.
#[derive(Debug)]
struct Frame {
    op: Op,
    total: f64,
    saved: Vec<(u32, f64)>,
}

/// The incremental engine: cached per-process incident costs over
/// [`CostTables`].
pub struct CostEvaluator<'t> {
    tables: &'t CostTables,
    sites: Vec<SiteId>,
    /// `incident[i]` = both-direction cost of all edges at `i`.
    incident: Vec<f64>,
    total: f64,
    frames: Vec<Frame>,
    terms: AtomicU64,
}

impl<'t> CostEvaluator<'t> {
    /// Build the caches for `sites` (`O(E)` once).
    pub fn new(tables: &'t CostTables, sites: Vec<SiteId>) -> Self {
        assert_eq!(sites.len(), tables.n, "assignment length mismatch");
        let incident: Vec<f64> = (0..tables.n).map(|i| tables.incident(&sites, i)).collect();
        let total = tables.total(&sites);
        Self {
            tables,
            sites,
            incident,
            total,
            frames: Vec::new(),
            terms: AtomicU64::new((3 * tables.num_entries()) as u64),
        }
    }

    /// Post-move incident cost of `i` sitting at `si_new`, seeing one
    /// peer (`other`) at `other_new`. Also returns the a↔b edge cost
    /// after and before (0 if `other` is not a partner), which
    /// `swap_delta` needs to un-double-count.
    fn row_after(
        &self,
        i: usize,
        si_new: SiteId,
        other: usize,
        other_new: SiteId,
    ) -> (f64, f64, f64) {
        let t = self.tables;
        let (mut after, mut ab_after, mut ab_before) = (0.0, 0.0, 0.0);
        for k in t.row(i) {
            let p = t.peer[k] as usize;
            let sp = if p == other { other_new } else { self.sites[p] };
            let term = t.term(t.out_m[k], t.out_b[k], si_new, sp)
                + t.term(t.in_m[k], t.in_b[k], sp, si_new);
            after += term;
            if p == other {
                ab_after = term;
                let (si, so) = (self.sites[i], self.sites[p]);
                ab_before =
                    t.term(t.out_m[k], t.out_b[k], si, so) + t.term(t.in_m[k], t.in_b[k], so, si);
            }
        }
        (after, after - ab_after + ab_before, ab_after - ab_before)
    }

    /// Adjust the incident caches of `i`'s peers for `i` moving
    /// `from → to` (skipping `skip`, whose cache is rebuilt wholesale).
    fn shift_peer_caches(&mut self, i: usize, from: SiteId, to: SiteId, skip: usize) {
        let t = self.tables;
        for k in t.row(i) {
            let p = t.peer[k] as usize;
            if p == skip {
                continue;
            }
            let sp = self.sites[p];
            let old =
                t.term(t.out_m[k], t.out_b[k], from, sp) + t.term(t.in_m[k], t.in_b[k], sp, from);
            let new = t.term(t.out_m[k], t.out_b[k], to, sp) + t.term(t.in_m[k], t.in_b[k], sp, to);
            self.incident[p] += new - old;
        }
    }

    /// Snapshot the cache entries an apply on `who` will touch.
    fn save_rows(&self, who: &[usize], saved: &mut Vec<(u32, f64)>) {
        for &i in who {
            saved.push((i as u32, self.incident[i]));
            for k in self.tables.row(i) {
                let p = self.tables.peer[k];
                saved.push((p, self.incident[p as usize]));
            }
        }
    }

    #[inline]
    fn count_terms(&self, n: u64) {
        self.terms.fetch_add(n, Ordering::Relaxed);
    }

    /// Degree of process `i` (CSR row length).
    fn deg(&self, i: usize) -> u64 {
        (self.tables.row_ptr[i + 1] - self.tables.row_ptr[i]) as u64
    }
}

impl CostEval for CostEvaluator<'_> {
    fn total(&self) -> f64 {
        self.total
    }

    fn sites(&self) -> &[SiteId] {
        &self.sites
    }

    fn swap_delta(&self, a: usize, b: usize) -> f64 {
        if a == b {
            return 0.0;
        }
        let (sa, sb) = (self.sites[a], self.sites[b]);
        if sa == sb {
            return 0.0;
        }
        // Each row_after evaluates 2 terms per entry (+2 for the a↔b
        // "before" correction when present).
        self.count_terms(2 * (self.deg(a) + self.deg(b)) + 2);
        let (after_a, _, ab_change) = self.row_after(a, sb, b, sa);
        let (after_b, _, _) = self.row_after(b, sa, a, sb);
        // The a↔b edge (both directions) appears in both rows: counted
        // twice in the afters and twice in the cached befores, so its
        // change is double-counted exactly once — subtract it.
        (after_a - self.incident[a]) + (after_b - self.incident[b]) - ab_change
    }

    fn move_delta(&self, i: usize, to: SiteId) -> f64 {
        if self.sites[i] == to {
            return 0.0;
        }
        self.count_terms(2 * self.deg(i));
        let (after, _, _) = self.row_after(i, to, usize::MAX, to);
        after - self.incident[i]
    }

    fn apply_swap(&mut self, a: usize, b: usize) -> f64 {
        let delta = self.swap_delta(a, b);
        let mut saved = Vec::with_capacity(2 * (self.deg(a) + self.deg(b)) as usize + 2);
        self.save_rows(&[a, b], &mut saved);
        self.frames.push(Frame {
            op: Op::Swap(a as u32, b as u32),
            total: self.total,
            saved,
        });
        if a != b && self.sites[a] != self.sites[b] {
            let (sa, sb) = (self.sites[a], self.sites[b]);
            self.shift_peer_caches(a, sa, sb, b);
            self.shift_peer_caches(b, sb, sa, a);
            self.sites.swap(a, b);
            self.incident[a] = self.tables.incident(&self.sites, a);
            self.incident[b] = self.tables.incident(&self.sites, b);
            self.count_terms(4 * (self.deg(a) + self.deg(b)));
            self.total += delta;
        }
        delta
    }

    fn apply_move(&mut self, i: usize, to: SiteId) -> f64 {
        let delta = self.move_delta(i, to);
        let from = self.sites[i];
        let mut saved = Vec::with_capacity(self.deg(i) as usize + 1);
        self.save_rows(&[i], &mut saved);
        self.frames.push(Frame {
            op: Op::Move(i as u32, from),
            total: self.total,
            saved,
        });
        if self.sites[i] != to {
            self.shift_peer_caches(i, from, to, usize::MAX);
            self.sites[i] = to;
            self.incident[i] = self.tables.incident(&self.sites, i);
            self.count_terms(4 * self.deg(i));
            self.total += delta;
        }
        delta
    }

    fn revert(&mut self) -> bool {
        let Some(frame) = self.frames.pop() else {
            return false;
        };
        match frame.op {
            Op::Swap(a, b) => self.sites.swap(a as usize, b as usize),
            Op::Move(i, from) => self.sites[i as usize] = from,
        }
        self.total = frame.total;
        // Entries were snapshotted before any mutation, so restoring in
        // any order (duplicates included) reproduces the exact state.
        for (idx, v) in frame.saved {
            self.incident[idx as usize] = v;
        }
        true
    }

    fn terms(&self) -> u64 {
        self.terms.load(Ordering::Relaxed)
    }

    fn peers(&self, i: usize) -> &[u32] {
        &self.tables.peer[self.tables.row(i)]
    }
}

/// The ground-truth oracle: answers every query with a full `O(E)`
/// re-walk of the pattern under the hypothetical assignment. Behind the
/// same trait so any mapper can be flipped to it wholesale.
pub struct FullRecomputeEval<'t> {
    tables: &'t CostTables,
    sites: Vec<SiteId>,
    total: f64,
    frames: Vec<(Op, f64)>,
    terms: AtomicU64,
}

impl<'t> FullRecomputeEval<'t> {
    /// Build the oracle for `sites`.
    pub fn new(tables: &'t CostTables, sites: Vec<SiteId>) -> Self {
        assert_eq!(sites.len(), tables.n, "assignment length mismatch");
        let total = tables.total(&sites);
        Self {
            tables,
            sites,
            total,
            frames: Vec::new(),
            terms: AtomicU64::new(tables.num_entries() as u64),
        }
    }

    /// Full total under a hypothetical process→site view.
    fn total_with(&self, view: &dyn Fn(usize) -> SiteId) -> f64 {
        let t = self.tables;
        self.terms
            .fetch_add(t.num_entries() as u64, Ordering::Relaxed);
        let mut sum = 0.0;
        for i in 0..t.n {
            let si = view(i);
            for k in t.row(i) {
                sum += t.term(t.out_m[k], t.out_b[k], si, view(t.peer[k] as usize));
            }
        }
        sum
    }
}

impl CostEval for FullRecomputeEval<'_> {
    fn total(&self) -> f64 {
        self.total
    }

    fn sites(&self) -> &[SiteId] {
        &self.sites
    }

    fn swap_delta(&self, a: usize, b: usize) -> f64 {
        if a == b || self.sites[a] == self.sites[b] {
            return 0.0;
        }
        let (sa, sb) = (self.sites[a], self.sites[b]);
        let view = |p: usize| {
            if p == a {
                sb
            } else if p == b {
                sa
            } else {
                self.sites[p]
            }
        };
        self.total_with(&view) - self.total
    }

    fn move_delta(&self, i: usize, to: SiteId) -> f64 {
        if self.sites[i] == to {
            return 0.0;
        }
        let view = |p: usize| if p == i { to } else { self.sites[p] };
        self.total_with(&view) - self.total
    }

    fn apply_swap(&mut self, a: usize, b: usize) -> f64 {
        self.frames.push((Op::Swap(a as u32, b as u32), self.total));
        let before = self.total;
        self.sites.swap(a, b);
        self.total = self.total_with(&|p| self.sites[p]);
        self.total - before
    }

    fn apply_move(&mut self, i: usize, to: SiteId) -> f64 {
        self.frames
            .push((Op::Move(i as u32, self.sites[i]), self.total));
        let before = self.total;
        self.sites[i] = to;
        self.total = self.total_with(&|p| self.sites[p]);
        self.total - before
    }

    fn revert(&mut self) -> bool {
        let Some((op, total)) = self.frames.pop() else {
            return false;
        };
        match op {
            Op::Swap(a, b) => self.sites.swap(a as usize, b as usize),
            Op::Move(i, from) => self.sites[i as usize] = from,
        }
        self.total = total;
        true
    }

    fn terms(&self) -> u64 {
        self.terms.load(Ordering::Relaxed)
    }

    fn peers(&self, i: usize) -> &[u32] {
        &self.tables.peer[self.tables.row(i)]
    }
}

/// Below this process count a polish sweep considers every pair; above
/// it, only communicating pairs (partner edges).
pub(crate) const FULL_PAIR_LIMIT: usize = 256;

/// First-improvement acceptance threshold shared by the polish sweeps.
const IMPROVEMENT_EPS: f64 = -1e-12;

/// Relative tie band of [`best_improving_swap`]: deltas within this
/// fraction of the scan scale count as equal. Far above the ~1e-15
/// cross-engine rounding noise of a Δ computation, far below any
/// meaningful cost difference.
const TIE_BAND_REL: f64 = 1e-12;

/// Best improving swap among `movable` processes, strictly below
/// `threshold`: the lexicographically first pair whose Δ lies within a
/// noise band of the minimum Δ, plus the number of candidate Δ
/// evaluations the scan performed (min scan + tie-band re-scan) — the
/// `swaps_evaluated` feed of [`SearchStats`].
///
/// The band makes the selection invariant to which [`CostEval`]
/// implementation computed the deltas — incremental and full-recompute
/// evaluation round differently at the last few bits, and on symmetric
/// patterns (SP/BT stencils) many candidate swaps are exact cost ties,
/// so a strict argmin would flip between engines on `1e-16`-level noise.
/// The min scan is batched over first-index rows and fanned out with
/// rayon when the row count is worth it; the reduction is
/// schedule-independent, so the result is deterministic either way.
pub fn best_improving_swap(
    eval: &dyn CostEval,
    movable: &[usize],
    threshold: f64,
) -> (Option<(usize, usize, f64)>, u64) {
    let row_best = |ai: usize| -> Option<(usize, usize, f64)> {
        let a = movable[ai];
        let mut best: Option<(usize, usize, f64)> = None;
        for &b in &movable[ai + 1..] {
            let d = eval.swap_delta(a, b);
            if d < threshold && best.is_none_or(|(_, _, bd)| d < bd) {
                best = Some((a, b, d));
            }
        }
        best
    };
    let per_row: Vec<Option<(usize, usize, f64)>> = if movable.len() >= 64 {
        use rayon::prelude::*;
        (0..movable.len()).into_par_iter().map(row_best).collect()
    } else {
        (0..movable.len()).map(row_best).collect()
    };
    // The min scan evaluates every unordered movable pair exactly once.
    let len = movable.len() as u64;
    let mut evaluated = len * len.saturating_sub(1) / 2;
    let min = per_row
        .iter()
        .flatten()
        .map(|&(_, _, d)| d)
        .fold(f64::INFINITY, f64::min);
    if min == f64::INFINITY {
        return (None, evaluated);
    }
    // Second pass: earliest pair inside the tie band. A row whose own
    // minimum lies above the band cannot contain one; the rest are
    // re-scanned in order, short-circuiting at the first hit.
    let band = min + TIE_BAND_REL * eval.total().abs().max(1.0);
    for (ai, row) in per_row.iter().enumerate() {
        let Some((_, _, rd)) = row else { continue };
        if *rd > band {
            continue;
        }
        let a = movable[ai];
        for &b in &movable[ai + 1..] {
            evaluated += 1;
            let d = eval.swap_delta(a, b);
            if d < threshold && d <= band {
                return (Some((a, b, d)), evaluated);
            }
        }
    }
    unreachable!("the row containing the minimum is inside the band")
}

/// First-improvement swap hill-climb over an evaluator: up to `passes`
/// sweeps. Below `FULL_PAIR_LIMIT` (256) processes a sweep tries every pair;
/// above it, only communicating pairs (partner edges). `movable(i)` gates
/// which processes may move and `permits(i, s)` whether `i` may sit on
/// site `s` (multi-site constraints). Returns the climb's
/// [`SearchStats`]; `terms` is left for the caller, who owns the
/// evaluator.
///
/// An enabled `scope` records one `pass` span per sweep and one `swap`
/// instant per accepted swap, timestamped with wall-clock time — the
/// search trajectory a Perfetto view of the run shows. With
/// [`TraceScope::off`] every trace call is a `None` check and no clock
/// is read.
pub fn sweep_hill_climb(
    eval: &mut dyn CostEval,
    passes: usize,
    movable: &dyn Fn(usize) -> bool,
    permits: &dyn Fn(usize, SiteId) -> bool,
    scope: TraceScope<'_>,
) -> SearchStats {
    let n = eval.sites().len();
    let mut stats = SearchStats::default();
    for _ in 0..passes {
        stats.passes += 1;
        scope.span_begin("pass");
        let mut improved = false;
        for i in 0..n {
            if !movable(i) {
                continue;
            }
            if n <= FULL_PAIR_LIMIT {
                for j in (i + 1)..n {
                    if movable(j) && try_swap(eval, i, j, permits, &mut stats, scope) {
                        improved = true;
                    }
                }
            } else {
                // Partner-edge sweep: only communicating pairs.
                let peers: Vec<usize> = eval.peers(i).iter().map(|&p| p as usize).collect();
                for j in peers {
                    if j > i && movable(j) && try_swap(eval, i, j, permits, &mut stats, scope) {
                        improved = true;
                    }
                }
            }
        }
        scope.span_end("pass");
        if !improved {
            break;
        }
    }
    stats
}

/// One candidate: gate on `permits`, accept on Δ below the shared
/// threshold.
fn try_swap(
    eval: &mut dyn CostEval,
    i: usize,
    j: usize,
    permits: &dyn Fn(usize, SiteId) -> bool,
    stats: &mut SearchStats,
    scope: TraceScope<'_>,
) -> bool {
    let (si, sj) = (eval.sites()[i], eval.sites()[j]);
    if si == sj || !permits(i, sj) || !permits(j, si) {
        return false;
    }
    stats.swaps_evaluated += 1;
    if eval.swap_delta(i, j) < IMPROVEMENT_EPS {
        eval.apply_swap(i, j);
        stats.swaps_accepted += 1;
        scope.instant("swap");
        return true;
    }
    false
}

/// Polish `mapping` in place with [`sweep_hill_climb`] over prebuilt
/// `tables` (the geo mappers build tables once per `map()` and share
/// them across all candidate orders). `stats.terms` is
/// [`CostEval::terms`] of the evaluator after the climb (construction
/// included), so it is exactly the work metric Fig. 4 compares.
pub fn polish(
    tables: &CostTables,
    evaluation: Evaluation,
    mapping: &mut Mapping,
    passes: usize,
    movable: &dyn Fn(usize) -> bool,
    permits: &dyn Fn(usize, SiteId) -> bool,
    scope: TraceScope<'_>,
) -> SearchStats {
    let mut eval = evaluation.evaluator(tables, mapping.as_slice().to_vec());
    let mut stats = sweep_hill_climb(eval.as_mut(), passes, movable, permits, scope);
    stats.terms = eval.terms();
    if stats.swaps_accepted > 0 {
        *mapping = Mapping::new(eval.sites().to_vec());
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{cost, cost_with_model};
    use commgraph::apps::{RandomGraph, Workload};
    use geonet::{presets, InstanceType};

    fn problem(n: usize, seed: u64) -> MappingProblem {
        let net = presets::paper_ec2_network(n / 4, InstanceType::M4Xlarge, seed);
        let pat = RandomGraph {
            n,
            degree: 4,
            max_bytes: 400_000,
            seed,
        }
        .pattern();
        MappingProblem::unconstrained(pat, net)
    }

    fn round_robin(n: usize, m: usize) -> Vec<SiteId> {
        (0..n).map(|i| SiteId(i % m)).collect()
    }

    #[test]
    fn csr_fits_rejects_u32_overflow_without_allocating() {
        assert!(csr_fits(0, 0).is_ok());
        assert!(csr_fits(u32::MAX as usize, u32::MAX as usize).is_ok());
        let huge = u32::MAX as usize + 1;
        assert_eq!(
            csr_fits(huge, 8),
            Err(CostTablesError::IndexOverflow {
                processes: huge,
                entries: 8
            })
        );
        assert_eq!(
            csr_fits(8, huge),
            Err(CostTablesError::IndexOverflow {
                processes: 8,
                entries: huge
            })
        );
        let msg = csr_fits(huge, 8).unwrap_err().to_string();
        assert!(msg.contains("u32 CSR index space"), "{msg}");
    }

    #[test]
    fn try_build_rejects_non_finite_network() {
        use geonet::{GeoCoord, Site, SiteNetwork, SquareMatrix};
        let pat = {
            let mut b = commgraph::pattern::PatternBuilder::new(2);
            b.record_many(0, 1, 1000, 1);
            b.build()
        };
        let sites = vec![
            Site::new("a", GeoCoord::new(0.0, 0.0), 2),
            Site::new("b", GeoCoord::new(1.0, 0.0), 2),
        ];
        // A denormal bandwidth passes the network's own `> 0 && finite`
        // gate but overflows the folded `1/BT` — exactly the class of
        // poison the tables must reject with a typed error, not feed
        // into `total_cmp` orderings.
        let lt = SquareMatrix::from_fn(2, |_, _| 0.1);
        let bt = SquareMatrix::from_fn(2, |k, l| if k == 0 && l == 1 { 5e-324 } else { 1e9 });
        let p = MappingProblem::unconstrained(pat, SiteNetwork::new(sites, lt, bt));
        match CostTables::try_build(&p, CostModel::Full) {
            Err(CostTablesError::NonFiniteNetwork { from: 0, to: 1, .. }) => {}
            other => panic!("expected NonFiniteNetwork, got {other:?}"),
        }
    }

    /// Degenerate problems build fine and evaluate to well-defined
    /// costs: a single vertex (no edges at all), every rank pinned, and
    /// zero-weight edges pruned by the builder.
    #[test]
    fn try_build_accepts_degenerate_problems() {
        use crate::constraint::ConstraintVector;

        // Single-vertex graph: empty CSR, zero cost, no panics in the
        // search entry points.
        let single = {
            let pat = commgraph::pattern::PatternBuilder::new(1).build();
            let net = presets::paper_ec2_network(1, InstanceType::M4Xlarge, 1);
            MappingProblem::unconstrained(pat, net)
        };
        let t = CostTables::try_build(&single, CostModel::Full).expect("single vertex builds");
        let sites = vec![SiteId(0)];
        assert_eq!(t.total(&sites), 0.0);
        let eval = Evaluation::Incremental.evaluator(&t, sites);
        assert_eq!(best_improving_swap(eval.as_ref(), &[0], -1e-12).0, None);

        // All ranks pinned: nothing movable, polish is a no-op.
        let p = problem(8, 11);
        let pins =
            ConstraintVector::from_pins((0..8).map(|i| Some(SiteId(i % p.num_sites()))).collect());
        let pinned = p.with_constraints(pins);
        let t = CostTables::try_build(&pinned, CostModel::Full).expect("all-pinned builds");
        let start: Vec<SiteId> = (0..8).map(|i| SiteId(i % pinned.num_sites())).collect();
        let mut mapping = Mapping::new(start.clone());
        let pins_of = pinned.constraints().clone();
        polish(
            &t,
            Evaluation::Incremental,
            &mut mapping,
            4,
            &|i| pins_of.pin_of(i).is_none(),
            &|_, _| true,
            TraceScope::off(),
        );
        assert_eq!(mapping.as_slice(), start.as_slice());

        // Zero-weight edges: record_many with count 0 is pruned by the
        // builder, so the tables see a well-formed (possibly empty)
        // graph rather than 0/0 components.
        let zero = {
            let mut b = commgraph::pattern::PatternBuilder::new(4);
            b.record_many(0, 1, 0, 1); // zero bytes, one message — kept
            b.record_many(2, 3, 5_000, 0); // zero count — dropped
            let net = presets::paper_ec2_network(1, InstanceType::M4Xlarge, 2);
            MappingProblem::unconstrained(b.build(), net)
        };
        let t = CostTables::try_build(&zero, CostModel::Full).expect("zero-weight builds");
        assert_eq!(t.num_entries(), 2);
        let sites = round_robin(4, zero.num_sites());
        assert!(t.total(&sites).is_finite());
    }

    #[test]
    fn build_from_pattern_matches_problem_build() {
        let p = problem(48, 41);
        let sites = round_robin(48, p.num_sites());
        for model in [
            CostModel::Full,
            CostModel::LatencyOnly,
            CostModel::BandwidthOnly,
        ] {
            let via_problem = CostTables::build(&p, model);
            let direct = CostTables::build_from_pattern(p.pattern(), p.network(), model);
            assert_eq!(direct.num_processes(), via_problem.num_processes());
            assert_eq!(direct.num_entries(), via_problem.num_entries());
            let (a, b) = (direct.total(&sites), via_problem.total(&sites));
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "{model:?}: direct {a} vs via-problem {b}"
            );
            // Same partner structure, so the delta engines agree too.
            let ed = CostEvaluator::new(&direct, sites.clone());
            let ep = CostEvaluator::new(&via_problem, sites.clone());
            for i in 0..48 {
                let (da, db) = (
                    ed.swap_delta(i, (i + 7) % 48),
                    ep.swap_delta(i, (i + 7) % 48),
                );
                assert!(
                    (da - db).abs() <= 1e-9 * db.abs().max(1.0),
                    "{model:?} swap_delta({i}): {da} vs {db}"
                );
            }
        }
    }

    #[test]
    fn build_from_pattern_rejects_non_finite_network() {
        use geonet::{GeoCoord, Site, SiteNetwork, SquareMatrix};
        let pat = {
            let mut b = commgraph::pattern::PatternBuilder::new(2);
            b.record_many(0, 1, 1000, 1);
            b.build()
        };
        let sites = vec![
            Site::new("a", GeoCoord::new(0.0, 0.0), 2),
            Site::new("b", GeoCoord::new(1.0, 0.0), 2),
        ];
        // Same denormal-bandwidth poison as the try_build test: passes
        // the network's own gate, overflows the folded 1/BT.
        let lt = SquareMatrix::from_fn(2, |_, _| 0.1);
        let bt = SquareMatrix::from_fn(2, |k, l| if k == 0 && l == 1 { 5e-324 } else { 1e9 });
        let net = SiteNetwork::new(sites, lt, bt);
        match CostTables::try_build_from_pattern(&pat, &net, CostModel::Full) {
            Err(CostTablesError::NonFiniteNetwork { .. }) => {}
            other => panic!("expected NonFiniteNetwork, got {other:?}"),
        }
    }

    #[test]
    fn tables_total_matches_cost_with_model() {
        let p = problem(24, 3);
        let sites = round_robin(24, p.num_sites());
        let mapping = Mapping::new(sites.clone());
        for model in [
            CostModel::Full,
            CostModel::LatencyOnly,
            CostModel::BandwidthOnly,
        ] {
            let t = CostTables::build(&p, model);
            let reference = cost_with_model(&p, &mapping, model);
            let flat = t.total(&sites);
            assert!(
                (flat - reference).abs() <= 1e-9 * reference.max(1.0),
                "{model:?}: flat {flat} vs reference {reference}"
            );
        }
    }

    #[test]
    fn swap_delta_matches_brute_force_for_both_engines() {
        let p = problem(16, 5);
        let t = CostTables::build(&p, CostModel::Full);
        let sites = round_robin(16, p.num_sites());
        for evaluation in [Evaluation::Incremental, Evaluation::FullRecompute] {
            let eval = evaluation.evaluator(&t, sites.clone());
            for a in 0..16 {
                for b in a..16 {
                    let d = eval.swap_delta(a, b);
                    let mut swapped = sites.clone();
                    swapped.swap(a, b);
                    let brute = t.total(&swapped) - t.total(&sites);
                    assert!(
                        (d - brute).abs() <= 1e-9 * t.total(&sites).max(1.0),
                        "{evaluation:?} swap ({a},{b}): {d} vs {brute}"
                    );
                }
            }
        }
    }

    #[test]
    fn move_delta_matches_brute_force_for_both_engines() {
        let p = problem(16, 7);
        let t = CostTables::build(&p, CostModel::Full);
        let sites = round_robin(16, p.num_sites());
        for evaluation in [Evaluation::Incremental, Evaluation::FullRecompute] {
            let eval = evaluation.evaluator(&t, sites.clone());
            for i in 0..16 {
                for s in 0..p.num_sites() {
                    let d = eval.move_delta(i, SiteId(s));
                    let mut moved = sites.clone();
                    moved[i] = SiteId(s);
                    let brute = t.total(&moved) - t.total(&sites);
                    assert!(
                        (d - brute).abs() <= 1e-9 * t.total(&sites).max(1.0),
                        "{evaluation:?} move ({i}→{s}): {d} vs {brute}"
                    );
                }
            }
        }
    }

    #[test]
    fn apply_updates_total_and_revert_restores_bitwise() {
        let p = problem(16, 9);
        let t = CostTables::build(&p, CostModel::Full);
        let sites = round_robin(16, p.num_sites());
        let mut eval = CostEvaluator::new(&t, sites.clone());
        let (t0, inc0) = (eval.total, eval.incident.clone());
        eval.apply_swap(0, 5);
        eval.apply_move(3, SiteId(2));
        eval.apply_swap(7, 12);
        // Totals track the applied deltas against brute force.
        let brute = t.total(eval.sites());
        assert!((eval.total() - brute).abs() <= 1e-9 * brute.max(1.0));
        assert!(eval.revert());
        assert!(eval.revert());
        assert!(eval.revert());
        assert!(!eval.revert());
        assert_eq!(eval.sites(), &sites[..]);
        assert!(
            eval.total().to_bits() == t0.to_bits(),
            "total not restored bitwise"
        );
        for (i, (a, b)) in eval.incident.iter().zip(&inc0).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "incident[{i}] not restored bitwise"
            );
        }
    }

    #[test]
    fn incident_caches_stay_exact_after_many_applies() {
        let p = problem(20, 11);
        let t = CostTables::build(&p, CostModel::Full);
        let mut eval = CostEvaluator::new(&t, round_robin(20, p.num_sites()));
        let ops = [(0usize, 7usize), (3, 12), (1, 19), (5, 9), (0, 3), (14, 2)];
        for &(a, b) in &ops {
            eval.apply_swap(a, b);
            for i in 0..20 {
                let fresh = t.incident(eval.sites(), i);
                assert!(
                    (eval.incident[i] - fresh).abs() <= 1e-9 * fresh.abs().max(1.0),
                    "incident[{i}] drifted after swap ({a},{b})"
                );
            }
        }
    }

    #[test]
    fn polish_never_increases_cost_and_reaches_local_optimum() {
        let p = problem(32, 13);
        let mut m = Mapping::new(round_robin(32, p.num_sites()));
        let before = cost(&p, &m);
        let t = CostTables::build(&p, CostModel::Full);
        let stats = polish(
            &t,
            Evaluation::Incremental,
            &mut m,
            50,
            &|_| true,
            &|_, _| true,
            TraceScope::off(),
        );
        let after = cost(&p, &m);
        assert!(stats.swaps_accepted > 0, "round-robin should be improvable");
        assert!(after < before);
        // No improving swap may remain at the shared threshold.
        let eval = CostEvaluator::new(&t, m.as_slice().to_vec());
        for a in 0..32 {
            for b in (a + 1)..32 {
                assert!(
                    eval.swap_delta(a, b) >= -1e-9,
                    "improving swap ({a},{b}) remains"
                );
            }
        }
    }

    #[test]
    fn best_improving_swap_is_deterministic_and_lexicographic() {
        let p = problem(24, 17);
        let t = CostTables::build(&p, CostModel::Full);
        let movable: Vec<usize> = (0..24).collect();
        let eval = CostEvaluator::new(&t, round_robin(24, p.num_sites()));
        let expected = {
            // Sequential reference scan of the tie-band rule: find the
            // minimum Δ, then the lexicographically first pair within
            // the band of it.
            let mut min = f64::INFINITY;
            for a in 0..24usize {
                for b in (a + 1)..24 {
                    let d = eval.swap_delta(a, b);
                    if d < -1e-15 {
                        min = min.min(d);
                    }
                }
            }
            let band = min + 1e-12 * eval.total().abs().max(1.0);
            let mut first: Option<(usize, usize)> = None;
            'outer: for a in 0..24usize {
                for b in (a + 1)..24 {
                    let d = eval.swap_delta(a, b);
                    if d < -1e-15 && d <= band {
                        first = Some((a, b));
                        break 'outer;
                    }
                }
            }
            first
        };
        assert!(
            expected.is_some(),
            "round-robin start should have an improving swap"
        );
        let (got, evaluated) = best_improving_swap(&eval, &movable, -1e-15);
        assert_eq!(got.map(|(a, b, _)| (a, b)), expected);
        // One full scan visits all C(24,2) pairs; the tie-band re-scan
        // can only add.
        assert!(evaluated >= 24 * 23 / 2, "evaluated {evaluated}");
    }

    #[test]
    fn term_counters_reflect_work_asymmetry() {
        let p = problem(64, 19);
        let t = CostTables::build(&p, CostModel::Full);
        let sites = round_robin(64, p.num_sites());
        let inc = CostEvaluator::new(&t, sites.clone());
        let full = FullRecomputeEval::new(&t, sites);
        let (i0, f0) = (inc.terms(), full.terms());
        for a in 0..64 {
            for b in (a + 1)..64 {
                inc.swap_delta(a, b);
                full.swap_delta(a, b);
            }
        }
        let (di, df) = (inc.terms() - i0, full.terms() - f0);
        assert!(
            df >= 10 * di,
            "full recompute should cost ≥10× more terms: incremental {di}, full {df}"
        );
    }

    #[test]
    fn search_stats_are_internally_consistent() {
        let p = problem(32, 23);
        let mut m = Mapping::new(round_robin(32, p.num_sites()));
        let t = CostTables::build(&p, CostModel::Full);
        let stats = polish(
            &t,
            Evaluation::Incremental,
            &mut m,
            50,
            &|_| true,
            &|_, _| true,
            TraceScope::off(),
        );
        assert!(stats.passes >= 1);
        assert!(stats.swaps_accepted > 0, "round-robin should improve");
        assert!(
            stats.swaps_accepted <= stats.swaps_evaluated,
            "accepted {} > evaluated {}",
            stats.swaps_accepted,
            stats.swaps_evaluated
        );
        // The last pass finds nothing, so at least two passes ran.
        assert!(stats.passes >= 2);
        assert!(stats.terms > 0, "evaluator term count must be captured");
    }

    #[test]
    fn stats_terms_match_an_independent_evaluator_run() {
        // Replay the exact climb on a hand-held evaluator: the stats'
        // term counter must equal CostEval::terms of that evaluator.
        let p = problem(24, 29);
        let t = CostTables::build(&p, CostModel::Full);
        let start = round_robin(24, p.num_sites());
        let mut m = Mapping::new(start.clone());
        let stats = polish(
            &t,
            Evaluation::Incremental,
            &mut m,
            50,
            &|_| true,
            &|_, _| true,
            TraceScope::off(),
        );
        let mut replay = CostEvaluator::new(&t, start);
        let replay_stats =
            sweep_hill_climb(&mut replay, 50, &|_| true, &|_, _| true, TraceScope::off());
        assert_eq!(stats.swaps_accepted, replay_stats.swaps_accepted);
        assert_eq!(stats.swaps_evaluated, replay_stats.swaps_evaluated);
        assert_eq!(stats.terms, replay.terms());
    }

    #[test]
    fn search_stats_absorb_adds_fieldwise() {
        let mut a = SearchStats {
            passes: 1,
            swaps_evaluated: 10,
            swaps_accepted: 2,
            restarts: 1,
            terms: 100,
        };
        let b = SearchStats {
            passes: 2,
            swaps_evaluated: 5,
            swaps_accepted: 1,
            restarts: 0,
            terms: 50,
        };
        a.absorb(b);
        assert_eq!(
            a,
            SearchStats {
                passes: 3,
                swaps_evaluated: 15,
                swaps_accepted: 3,
                restarts: 1,
                terms: 150,
            }
        );
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_communication_rejected_at_table_build() {
        // An infinite byte volume passes CommPattern's `v >= 0` check but
        // must be rejected once, at CostTables build time, with a
        // descriptive error instead of poisoning every comparator
        // downstream.
        let n = 4;
        let mut cg = geonet::SquareMatrix::zeros(n);
        let mut ag = geonet::SquareMatrix::zeros(n);
        cg.set(0, 1, f64::INFINITY);
        ag.set(0, 1, 1.0);
        cg.set(1, 0, 10.0);
        ag.set(1, 0, 1.0);
        let pat = commgraph::CommPattern::from_dense(&cg, &ag);
        let net = presets::paper_ec2_network(2, InstanceType::M4Xlarge, 1);
        let p = MappingProblem::unconstrained(pat, net);
        CostTables::build(&p, CostModel::Full);
    }
}
