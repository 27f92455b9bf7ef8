//! A runtime that runs job after job returns to the same state after each
//! one: a driver's one-shot jobs leave no dataset, no stored file, no
//! source frame and no output behind, and the trace events the master
//! holds stay within its bound however many jobs it has seen.

use mrs::apps::wordcount::{lines_to_records, WordCount};
use mrs::prelude::*;
use mrs_core::FuncId;
use mrs_fs::{MemFs, Store};
use mrs_pso::mapreduce::{PsoProgram, FUNC_ISLAND};
use mrs_pso::{Objective, PsoConfig, Topology};
use mrs_rpc::HttpClient;
use mrs_trace::{DEFAULT_CAPACITY, MASTER_PID};
use std::sync::Arc;

const JOBS: usize = 200;

/// Records of the larger job input: 40 WordCount lines (a PSO chain
/// starts from 8 islands).
const INPUT_RECORDS: usize = 40;

/// WordCount on function 0 and PSO's island stage on [`FUNC_ISLAND`], so
/// one runtime runs both kinds of job. Keys go to partitions by PSO's rule
/// (their last eight bytes), which serves WordCount's as well as any.
struct Mixed {
    wc: Simple<WordCount>,
    pso: PsoProgram,
}

impl Program for Mixed {
    fn map_bytes(
        &self,
        func: FuncId,
        key: &[u8],
        value: &[u8],
        emit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<()> {
        match func {
            FUNC_ISLAND => self.pso.map_bytes(func, key, value, emit),
            _ => self.wc.map_bytes(func, key, value, emit),
        }
    }

    fn reduce_bytes(
        &self,
        func: FuncId,
        key: &[u8],
        values: &mut dyn Iterator<Item = &[u8]>,
        emit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<()> {
        match func {
            FUNC_ISLAND => self.pso.reduce_bytes(func, key, values, emit),
            _ => self.wc.reduce_bytes(func, key, values, emit),
        }
    }

    fn combine_bytes(
        &self,
        func: FuncId,
        key: &[u8],
        values: &mut dyn Iterator<Item = &[u8]>,
        emit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<()> {
        self.wc.combine_bytes(func, key, values, emit)
    }

    fn has_combiner(&self, func: FuncId) -> bool {
        func != FUNC_ISLAND && self.wc.has_combiner(func)
    }

    fn partition(&self, key: &[u8], n: usize) -> usize {
        self.pso.partition(key, n)
    }
}

fn mixed() -> Arc<Mixed> {
    let config = PsoConfig {
        objective: Objective::Sphere,
        dim: 4,
        n_particles: 16,
        topology: Topology::Subswarms { size: 2 },
        seed: 7,
    };
    Arc::new(Mixed { wc: Simple(WordCount), pso: PsoProgram::new(config, 1) })
}

/// Run [`JOBS`] jobs on `rt`, alternating a WordCount and a 25-round
/// fused PSO chain over 8 islands, each answer equal to the first of its kind; `check`
/// sees the runtime after each job.
fn run_jobs<T: JobApi>(program: &Mixed, rt: &mut T, check: impl Fn(&T, usize)) {
    let lines: Vec<String> =
        (0..INPUT_RECORDS).map(|i| format!("w{} w{} common", i % 7, i % 3)).collect();
    let records = || lines_to_records(lines.iter().map(String::as_str));
    let mut answers: [Option<Vec<Record>>; 2] = [None, None];
    for n in 0..JOBS {
        let mut job = Job::new(rt);
        let answer = match n % 2 {
            0 => job.map_reduce(records(), 4, 3, true),
            _ => program.pso.run_islands(&mut job, 25, true),
        };
        let answer = answer.unwrap_or_else(|e| panic!("job {n}: {e}"));
        assert_eq!(answers[n % 2].get_or_insert_with(|| answer.clone()), &answer, "job {n}");
        check(rt, n);
    }
}

/// The master's trace holds at most [`DEFAULT_CAPACITY`] events of its
/// own and as many of each slave's, though the slaves recorded more.
fn assert_trace_bounded(cluster: &LocalCluster) {
    let trace = cluster.take_trace().expect("tracing is always on");
    for pid in [MASTER_PID, 1, 2] {
        let held = trace.count(|e| e.pid == pid);
        assert!(held <= DEFAULT_CAPACITY, "pid {pid} holds {held} events");
    }
    // The slaves' events of the run overflow their rings: the bound was
    // reached, and what it overwrote was counted.
    assert!(trace.dropped > 0, "no event was dropped: the bound went untested");
}

/// The master's `/status` page: every dataset it holds, each with its
/// op, tasks done of total, and whether it is pinned or an orphan.
fn status(cluster: &LocalCluster) -> String {
    let (_, status) = HttpClient::get(&cluster.http_authority(), "/status").unwrap();
    String::from_utf8(status).unwrap()
}

/// After every one of 200 jobs — WordCounts and fused PSO chains — on a
/// pool, a 2-slave direct-plane cluster and a 2-slave shared-FS cluster,
/// no dataset is live; the shared store holds no file and the direct
/// master's `/status` lists no dataset; the records the runtime keeps to
/// write the next answer into are at most one job's input; and the
/// master's trace stays within its bound.
#[test]
fn every_job_leaves_the_runtime_as_it_found_it() {
    let program = mixed();
    let mut pool = LocalRuntime::pool(program.clone(), 2);
    run_jobs(&program, &mut pool, |pool, n| {
        assert_eq!(pool.metrics().live_datasets(), 0, "pool, job {n}");
        assert!(pool.stock_records() <= INPUT_RECORDS, "pool, job {n}");
    });

    let cfg = MasterConfig::default();
    let mut direct = LocalCluster::start(program.clone(), 2, DataPlane::Direct, cfg).unwrap();
    run_jobs(&program, &mut direct, |cluster, n| {
        let live = cluster.metrics().live_datasets();
        assert_eq!(live, 0, "direct, job {n}: {}", status(cluster));
        let status = status(cluster);
        assert!(status.contains("\ndatasets: 0 live,"), "direct, job {n}: {status}");
        assert!(cluster.stock_records() <= INPUT_RECORDS, "direct, job {n}");
    });
    assert_trace_bounded(&direct);

    let store = MemFs::new();
    let plane = DataPlane::SharedFs(Arc::new(store.clone()));
    let mut shared =
        LocalCluster::start(program.clone(), 2, plane, MasterConfig::default()).unwrap();
    run_jobs(&program, &mut shared, |cluster, n| {
        let live = cluster.metrics().live_datasets();
        assert_eq!(live, 0, "shared, job {n}: {}", status(cluster));
        assert_eq!(store.list("").unwrap(), Vec::<String>::new(), "shared, job {n}");
        assert!(cluster.stock_records() <= INPUT_RECORDS, "shared, job {n}");
    });
    assert_trace_bounded(&shared);
}
