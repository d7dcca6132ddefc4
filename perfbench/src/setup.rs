//! Workload definitions and the timed set-up that turns a seed into a serving
//! stack: data, k′-NN matrix, trained MLP router, index (plus PQ codes), WAL,
//! ingress, warm-up.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use usp_core::{train_partitioner, PartitionModel, TrainedPartitioner, UspConfig};
use usp_data::synthetic::MixtureSpec;
use usp_data::KnnMatrix;
use usp_index::{FileStorage, PartitionIndex, Partitioner, Scoring, SyncPolicy, Wal};
use usp_linalg::{Distance, Matrix};
use usp_quant::{ProductQuantizer, ProductQuantizerConfig};
use usp_serve::{IngressConfig, IngressHandle, QueryEngine, QueryOptions};

use crate::client::{Client, Pace, ReadMix, Rows};
use crate::probe::{TimedEngine, TimedStorage, Tracer};

pub const DIST: Distance = Distance::SquaredEuclidean;
/// Neighbours per answer (recall@10).
pub const K: usize = 10;
/// Query-set size: larger than the ingress queue cap (8 × 32), so a batch row
/// names exactly one in-flight request.
pub const N_QUERIES: usize = 2048;
/// Rows the inserts cycle through.
pub const INSERT_POOL: usize = 4096;
/// Ingress micro-batch bound (the ingress default).
pub const MAX_BATCH: usize = 32;
/// Router training epochs.
pub const EPOCHS: usize = 3;
/// Rows the router (and PQ) train on: a prefix of the shuffled base.
const TRAIN_N: usize = 10_000;
/// Closed-loop outstanding requests.
pub const WINDOW: usize = 64;
/// Closed-loop warm-up through the wire at the end of set-up.
const WARM_UP: Duration = Duration::from_millis(200);

/// One workload: its data, index and load.
pub struct Spec {
    pub name: &'static str,
    pub n: usize,
    pub dim: usize,
    pub bins: usize,
    pub probes: usize,
    /// PQ with `m` subspaces and this re-rank budget; `None` = exact scoring.
    pub pq: Option<(usize, usize)>,
    /// Open-loop rate, operations per second.
    pub open_rate: f64,
    /// Share of open-loop operations that are writes (closed loops only read).
    pub write_frac: f64,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "fine_lookup",
        n: 10_000,
        dim: 32,
        bins: 128,
        probes: 2,
        pq: None,
        open_rate: 1_000.0,
        write_frac: 0.0,
    },
    Spec {
        name: "wide_scan_pq",
        n: 100_000,
        dim: 64,
        bins: 16,
        probes: 4,
        pq: Some((8, 200)),
        open_rate: 300.0,
        write_frac: 0.0,
    },
    Spec {
        name: "durable_mix",
        n: 10_000,
        dim: 32,
        bins: 64,
        probes: 2,
        pq: None,
        open_rate: 1_000.0,
        write_frac: 0.2,
    },
];

/// The paper's MLP router (one hidden layer of 128, k′ = 10), trained for a
/// few epochs on small mini-batches so set-up stays short; a larger η than the
/// 16-bin default keeps 64–128 bins balanced in that budget.
pub fn router_config(spec: &Spec, seed: u64) -> UspConfig {
    UspConfig {
        epochs: EPOCHS,
        batch_size: 256,
        learning_rate: 5e-3,
        ..UspConfig::paper_default(spec.bins)
            .with_seed(seed)
            .with_eta(30.0)
    }
}

/// Base points, queries and insert rows drawn from one seeded mixture.
pub struct Data {
    pub base: Matrix,
    pub queries: Matrix,
    pub inserts: Matrix,
}

impl Data {
    pub fn generate(spec: &Spec, seed: u64) -> Self {
        let total = spec.n + N_QUERIES + INSERT_POOL;
        // Cluster centres close together (spread 3 rather than sift_like's 6),
        // so a query's neighbours straddle bins and recall can move.
        let all = MixtureSpec {
            n: total,
            dim: spec.dim,
            n_clusters: (spec.n / 500).clamp(16, 256),
            center_spread: 3.0,
            cluster_std: 1.6,
            anisotropy: 1.2,
            seed,
        }
        .generate(spec.name);
        let rows =
            |from: usize, to: usize| all.points().select_rows(&(from..to).collect::<Vec<_>>());
        Self {
            base: rows(0, spec.n),
            queries: rows(spec.n, spec.n + N_QUERIES),
            inserts: rows(spec.n + N_QUERIES, total),
        }
    }

    pub fn train_rows(&self) -> Matrix {
        self.base
            .select_rows(&(0..TRAIN_N.min(self.base.rows())).collect::<Vec<_>>())
    }
}

/// A [`Partitioner`] over a clone of the trained model, calling the same
/// forward as [`TrainedPartitioner`] (which is not `Clone`). Used for the
/// recovery base, which must be a second index over the same router.
pub struct ModelRouter(pub PartitionModel);

impl Partitioner for ModelRouter {
    fn num_bins(&self) -> usize {
        self.0.bins()
    }

    fn bin_scores(&self, query: &[f32]) -> Vec<f32> {
        self.0.probabilities(query)
    }

    fn bin_scores_batch(&self, queries: &Matrix) -> Matrix {
        self.0.probabilities_batch(queries)
    }

    fn num_parameters(&self) -> usize {
        self.0.num_params()
    }

    fn name(&self) -> String {
        format!("usp-clone({} bins)", self.0.bins())
    }
}

/// Seconds spent in each set-up step.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    pub data_s: f64,
    pub knn_s: f64,
    pub train_s: f64,
    pub build_s: f64,
    pub spawn_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.data_s + self.knn_s + self.train_s + self.build_s + self.spawn_s
    }
}

pub type Router = TrainedPartitioner;

/// A running serving stack.
pub struct World {
    pub data: Data,
    pub index: Arc<PartitionIndex<Router>>,
    pub engine: Arc<TimedEngine<Router>>,
    pub ingress: Option<IngressHandle>,
    pub tracer: Arc<Tracer>,
    pub wal_path: PathBuf,
    pub times: SetupTimes,
    pub params: usize,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Builds the whole stack from the seed and returns it serving, timing each step.
pub fn build(spec: &Spec, seed: u64, epoch: Instant, out_dir: &Path) -> std::io::Result<World> {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let data = Data::generate(spec, seed);
    times.data_s = secs(t);

    let t = Instant::now();
    let train = data.train_rows();
    let knn = KnnMatrix::build(&train, router_config(spec, seed).knn_k, DIST);
    times.knn_s = secs(t);

    let t = Instant::now();
    let router = train_partitioner(&train, &knn, &router_config(spec, seed), None);
    times.train_s = secs(t);
    let params = router.num_parameters();

    let t = Instant::now();
    let mut index = router.build_index(&data.base, DIST);
    if let Some((m, budget)) = spec.pq {
        // 10 Lloyd iterations per codebook instead of 25: set-up time, not
        // recall, is what this workload's PQ fit should cost.
        let cfg = ProductQuantizerConfig {
            max_iters: 10,
            seed,
            ..ProductQuantizerConfig::standard(m, 256)
        };
        let pq = ProductQuantizer::fit(&train, &cfg);
        index = index.with_scoring(Scoring::compressed(Arc::new(pq), budget));
    }
    let tracer = Arc::new(Tracer::new(epoch, &data.queries));
    let wal_path = out_dir.join(format!("wal-{}-{}.log", spec.name, std::process::id()));
    if wal_path.exists() {
        std::fs::remove_file(&wal_path)?;
    }
    let storage = FileStorage::open(&wal_path).map_err(std::io::Error::other)?;
    let wal = Wal::new(
        Box::new(TimedStorage::new(storage, Arc::clone(&tracer))),
        SyncPolicy::EveryRecord,
    );
    let index = Arc::new(index.with_wal(wal));
    times.build_s = secs(t);

    let t = Instant::now();
    let engine = Arc::new(TimedEngine::new(
        QueryEngine::new(Arc::clone(&index)),
        Arc::clone(&tracer),
    ));
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let ingress = IngressHandle::spawn(
        Arc::clone(&engine),
        listener,
        IngressConfig::new(QueryOptions::new(K, spec.probes)),
    )?;
    // Warm-up: one pass over the query set through the wire, so the pool, the
    // batcher and the socket buffers are hot before anything is timed.
    let mut client = Client::connect(ingress.local_addr(), epoch)?;
    let rows = Rows {
        queries: &data.queries,
        inserts: &data.inserts,
    };
    let mut warm = ReadMix::new(N_QUERIES, None);
    let phase = client.run(
        &mut warm,
        Pace::Closed(WINDOW),
        WARM_UP.as_secs_f64(),
        &rows,
    )?;
    if phase.failed() > 0 || !phase.check_failures.is_empty() {
        return Err(std::io::Error::other("warm-up requests failed"));
    }
    engine.inner().reset_stats();
    times.spawn_s = secs(t);

    Ok(World {
        data,
        index,
        engine,
        ingress: Some(ingress),
        tracer,
        wal_path,
        times,
        params,
    })
}

impl World {
    pub fn addr(&self) -> std::net::SocketAddr {
        self.ingress
            .as_ref()
            .expect("ingress is running")
            .local_addr()
    }

    /// Stops the ingress (joining its loop and batcher threads).
    pub fn stop_ingress(&mut self) {
        if let Some(handle) = self.ingress.take() {
            handle.shutdown();
        }
    }
}

impl Drop for World {
    fn drop(&mut self) {
        self.stop_ingress();
        let _ = std::fs::remove_file(&self.wal_path);
    }
}
