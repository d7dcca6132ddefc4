//! Joins the client's request records with the probes' batch and write
//! records, replays recorded batches through the index's public stages, and
//! writes the span file.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use rayon::prelude::*;
use usp_index::{PartitionIndex, Partitioner, SearchResult};
use usp_linalg::Matrix;
use usp_serve::{QueryEngine, QueryOptions, ShardedEngine};

use crate::client::{Op, Phase, Req, Status};
use crate::probe::{BatchRec, WriteRec};

/// Nearest-rank percentile of unsorted samples (`q` in 0..=1); 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[((s.len() - 1) as f64 * q).round() as usize]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Answered requests of one kind, in send order, with their due-to-reply
/// latency in milliseconds.
pub fn latencies_ms(phase: &Phase, writes: bool) -> Vec<f64> {
    phase
        .reqs
        .iter()
        .filter(|r| r.status == Status::Answered && r.op.is_write() == writes)
        .map(Req::latency_ms)
        .collect()
}

/// For each admitted query request of `phase` (send order), the batch that
/// served it. A query-set index is never in flight twice (the set is larger
/// than the ingress queue), so the k-th batch row naming query `q` belongs to
/// the k-th admitted request for `q`.
pub fn match_batches(phase: &Phase, batches: &[BatchRec]) -> Result<Vec<(usize, usize)>, String> {
    let mut by_query: HashMap<u32, Vec<usize>> = HashMap::new();
    for (bi, b) in batches.iter().enumerate() {
        for &q in &b.rows {
            by_query.entry(q).or_default().push(bi);
        }
    }
    let mut cursor: HashMap<u32, usize> = HashMap::new();
    let mut out = Vec::new();
    for (ri, r) in phase.reqs.iter().enumerate() {
        let Op::Query(q) = r.op else { continue };
        if r.status != Status::Answered {
            continue;
        }
        let k = cursor.entry(q).or_insert(0);
        let bi = *by_query
            .get(&q)
            .and_then(|v| v.get(*k))
            .ok_or_else(|| format!("request {ri} (query {q}) matches no served batch"))?;
        *k += 1;
        let b = &batches[bi];
        if !(r.sent <= b.start && b.end <= r.done) {
            return Err(format!("request {ri} does not enclose its batch {bi}"));
        }
        out.push((ri, bi));
    }
    Ok(out)
}

/// For each answered write of `phase` (send order), its engine call. Writes
/// run inline on the ingress thread in arrival order and are never shed.
pub fn match_writes(phase: &Phase, writes: &[WriteRec]) -> Result<Vec<(usize, usize)>, String> {
    let sent: Vec<usize> = (0..phase.reqs.len())
        .filter(|&i| phase.reqs[i].op.is_write())
        .collect();
    if sent.len() != writes.len() {
        return Err(format!(
            "{} writes sent but {} engine write calls recorded",
            sent.len(),
            writes.len()
        ));
    }
    let mut out = Vec::new();
    for (wi, &ri) in sent.iter().enumerate() {
        let (r, w) = (&phase.reqs[ri], &writes[wi]);
        if r.status == Status::Answered {
            if !(r.sent <= w.start && w.end <= r.done) {
                return Err(format!(
                    "write request {ri} does not enclose its engine call"
                ));
            }
            out.push((ri, wi));
        }
    }
    Ok(out)
}

/// One recorded batch replayed through the public stages `serve_batch` runs.
pub struct Replay {
    /// When the replay began, ns since the run's epoch; the stages follow
    /// back to back.
    pub start: u64,
    pub route_ns: u64,
    pub tables_ns: u64,
    /// Wall time of the pooled scan fan-out.
    pub scan_ns: u64,
    /// Sum of the per-query scan times (CPU per query).
    pub scan_cpu_ns: u64,
    pub results: Vec<SearchResult>,
}

pub fn batch_matrix(queries: &Matrix, rows: &[u32]) -> Matrix {
    queries.select_rows(&rows.iter().map(|&q| q as usize).collect::<Vec<_>>())
}

/// Replays one batch as `QueryEngine::serve_batch` runs it: one routed
/// forward, one ADC-table build, then the per-query scans on the pool.
pub fn replay<P: Partitioner>(
    index: &PartitionIndex<P>,
    batch: &Matrix,
    opts: &QueryOptions,
    epoch: Instant,
) -> Replay {
    let start = epoch.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let ranked = index.partitioner().rank_bins_batch(batch, opts.probes);
    let route_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let tables = index.adc_tables_batch(batch);
    let tables_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let scanned: Vec<(SearchResult, u64)> = (0..batch.rows())
        .into_par_iter()
        .map(|qi| {
            let t = Instant::now();
            let r = index.scan_bins_with_table(
                batch.row(qi),
                &ranked[qi],
                opts.k,
                opts.rerank_budget,
                tables.as_ref().map(|t| &t[qi]),
            );
            (r, t.elapsed().as_nanos() as u64)
        })
        .collect();
    let scan_ns = t.elapsed().as_nanos() as u64;
    Replay {
        start,
        route_ns,
        tables_ns,
        scan_ns,
        scan_cpu_ns: scanned.iter().map(|s| s.1).sum(),
        results: scanned.into_iter().map(|s| s.0).collect(),
    }
}

/// Monolithic vs sharded `serve_batch` on the same batches, alternating which
/// runs first. Returns per-batch microseconds for each and whether every
/// sharded answer equals the monolithic one.
pub fn shard_replay<P: Partitioner>(
    index: &Arc<PartitionIndex<P>>,
    shards: usize,
    batches: &[Matrix],
    opts: &QueryOptions,
) -> (Vec<f64>, Vec<f64>, Vec<SearchResult>, bool) {
    let mono = QueryEngine::new(Arc::clone(index));
    let sharded = ShardedEngine::with_shards(Arc::clone(index), shards);
    mono.warm_up();
    sharded.warm_up();
    let mut mono_us = Vec::new();
    let mut shard_us = Vec::new();
    let mut mono_results = Vec::new();
    let mut identical = true;
    for (i, b) in batches.iter().enumerate() {
        let time = |f: &dyn Fn() -> Vec<SearchResult>| {
            let t = Instant::now();
            let r = f();
            (r, t.elapsed().as_secs_f64() * 1e6)
        };
        let run_mono = || mono.serve_batch(b, opts);
        let run_shard = || sharded.serve_batch(b, opts);
        let ((m, mt), (s, st)) = if i % 2 == 0 {
            let m = time(&run_mono);
            (m, time(&run_shard))
        } else {
            let s = time(&run_shard);
            (time(&run_mono), s)
        };
        identical &= m == s;
        mono_us.push(mt);
        shard_us.push(st);
        mono_results.extend(m);
    }
    (mono_us, shard_us, mono_results, identical)
}

/// Span file: one line per span — id, parent (0 = root), name, start and end
/// (ns since the run's epoch), and the request (or batch) it belongs to.
#[derive(Default)]
pub struct Spans {
    text: String,
    next: u64,
}

impl Spans {
    pub fn new() -> Self {
        let mut s = Self::default();
        s.text
            .push_str("span\tparent\tname\tstart_ns\tend_ns\trequest\n");
        s
    }

    pub fn add(&mut self, parent: u64, name: &str, start: u64, end: u64, request: usize) -> u64 {
        self.next += 1;
        let _ = writeln!(
            self.text,
            "{}\t{parent}\t{name}\t{start}\t{end}\t{request}",
            self.next
        );
        self.next
    }

    pub fn len(&self) -> u64 {
        self.next
    }

    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, &self.text)
    }
}
