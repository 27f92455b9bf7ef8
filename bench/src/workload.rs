//! The four benchmark workloads: input generation from the seed, the
//! program, and how one job is driven. The program only ever sees the
//! generated inputs, never the seed's meaning.

use corpus::{Corpus, CorpusConfig};
use mrs::apps::sort::RangeSort;
use mrs::apps::wordcount::{lines_to_records, WordCount};
use mrs_core::kv::encode_record;
use mrs_core::{Bucket, FuncId, Program, Record, Result, Simple};
use mrs_pso::mapreduce::{PsoProgram, FUNC_ISLAND};
use mrs_pso::PsoConfig;
use mrs_rng::SplitMix64;
use mrs_runtime::data::split_evenly;
use mrs_runtime::{Job, JobApi};
use std::sync::Arc;

/// Name and one-line reason of every workload, in report order.
pub const WORKLOADS: [(&str, &str); 4] = [
    ("wc_shuffle", "WordCount without combiner: every token crosses the data plane"),
    (
        "wc_combine",
        "same corpus with the combiner: map and hash combiner dominate, shuffle is tiny",
    ),
    (
        "sort_range",
        "range sort of random records: incompressible, unique keys, output equals input",
    ),
    ("pso_iter", "25 fused PSO rounds of tiny tasks: per-iteration control-plane overhead"),
];

/// Input sizes. The full sizes keep an untraced pass (10 set-ups and 100
/// rounds of a cluster, a pool and a serial job) between 13 and 38 s on
/// the 2-core box; the quick sizes only have to reach every code path.
pub struct Sizes {
    pub wc_tokens: u64,
    pub sort_records: usize,
    pub sort_sample: usize,
    pub pso_outer_iters: u64,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            wc_tokens: 160_000,
            sort_records: 100_000,
            sort_sample: 32_768,
            pso_outer_iters: 25,
        }
    }

    pub fn quick() -> Sizes {
        Sizes { wc_tokens: 8_000, sort_records: 4_000, sort_sample: 256, pso_outer_iters: 5 }
    }
}

const PSO_PARTICLES: u64 = 20;
/// Inner iterations per island map task: keeps a task near 100 µs.
const PSO_INNER_ITERS: u64 = 3;

/// Function id of the identity map and reduce that null rounds run.
const NULL_FUNC: FuncId = FuncId::MAX;

/// The workload's program plus an identity function pair under
/// [`NULL_FUNC`], so a null round can run on the workload's own warm
/// cluster and cost the same on every workload. Everything else
/// delegates.
struct WithNull(Arc<dyn Program>);

impl Program for WithNull {
    fn map_bytes(
        &self,
        func: FuncId,
        key: &[u8],
        value: &[u8],
        emit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<()> {
        if func == NULL_FUNC {
            emit(key, value);
            return Ok(());
        }
        self.0.map_bytes(func, key, value, emit)
    }

    fn reduce_bytes(
        &self,
        func: FuncId,
        key: &[u8],
        values: &mut dyn Iterator<Item = &[u8]>,
        emit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<()> {
        if func == NULL_FUNC {
            values.for_each(|v| emit(key, v));
            return Ok(());
        }
        self.0.reduce_bytes(func, key, values, emit)
    }

    fn combine_bytes(
        &self,
        func: FuncId,
        key: &[u8],
        values: &mut dyn Iterator<Item = &[u8]>,
        emit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<()> {
        self.0.combine_bytes(func, key, values, emit)
    }

    fn has_combiner(&self, func: FuncId) -> bool {
        func != NULL_FUNC && self.0.has_combiner(func)
    }

    fn partition(&self, key: &[u8], n: usize) -> usize {
        self.0.partition(key, n)
    }
}

enum Driver {
    /// `Job::map_reduce` over `input`.
    MapReduce { input: Vec<Record> },
    /// `PsoProgram::run_islands(.., fused = true)`.
    Pso { program: Arc<PsoProgram>, outer_iters: u64 },
}

pub struct Workload {
    pub name: &'static str,
    pub program: Arc<dyn Program>,
    /// Map function id (the reduce function has the same id in all four).
    pub func: FuncId,
    pub maps: usize,
    pub reduces: usize,
    pub combine: bool,
    /// What `records_per_s` counts per job: map-input records, or
    /// particle-iterations for PSO.
    pub records_per_job: u64,
    /// Map+reduce rounds per job (the `rounds` term of the cost model).
    pub rounds: u64,
    driver: Driver,
}

impl Workload {
    /// Build workload `name` from `seed`. `None` for an unknown name.
    pub fn generate(name: &str, seed: u64, sizes: &Sizes) -> Option<Workload> {
        match name {
            "wc_shuffle" => Some(wordcount("wc_shuffle", seed, sizes, false)),
            "wc_combine" => Some(wordcount("wc_combine", seed, sizes, true)),
            "sort_range" => Some(sort_range(seed, sizes)),
            "pso_iter" => Some(pso_iter(seed, sizes)),
            _ => None,
        }
    }

    /// The owned input of one job, cloned outside the timed interval.
    pub fn job_input(&self) -> Vec<Record> {
        match &self.driver {
            Driver::MapReduce { input, .. } => input.clone(),
            // `run_islands` builds its initial islands itself.
            Driver::Pso { .. } => Vec::new(),
        }
    }

    /// Run one job on any runtime: submit, wait, fetch the output.
    pub fn run_job(&self, api: &mut dyn JobApi, input: Vec<Record>) -> Result<Vec<Record>> {
        let mut job = Job::new(api);
        match &self.driver {
            Driver::MapReduce { .. } => {
                job.map_reduce(input, self.maps, self.reduces, self.combine)
            }
            Driver::Pso { program, outer_iters } => {
                program.run_islands(&mut job, *outer_iters, true)
            }
        }
    }

    /// Every map task's input, as the runtimes split it.
    pub fn map_splits(&self) -> Vec<Bucket> {
        let records = match &self.driver {
            Driver::MapReduce { input, .. } => input.clone(),
            Driver::Pso { program, .. } => program.initial_islands(),
        };
        split_evenly(records, self.maps).into_iter().map(Bucket::from_records).collect()
    }

    /// The smallest job there is: one record through one identity map
    /// task and one identity reduce task.
    pub fn null_job(&self, api: &mut dyn JobApi) -> Result<Vec<Record>> {
        let mut job = Job::new(api);
        let src = job.local_data(vec![encode_record(&0u64, &0u64)], 1)?;
        let mapped = job.map_data(src, NULL_FUNC, 1, false)?;
        let reduced = job.reduce_data(mapped, NULL_FUNC)?;
        job.fetch_all(reduced)
    }
}

fn wordcount(name: &'static str, seed: u64, sizes: &Sizes, combine: bool) -> Workload {
    const DOCS: u64 = 16;
    let corpus = Corpus::new(CorpusConfig {
        n_files: DOCS,
        seed,
        // Document lengths vary by half around the mean with the seed:
        // generate twice the tokens and cut, so every seed gives exactly
        // `wc_tokens` tokens and only the words differ.
        mean_tokens: (2 * sizes.wc_tokens / DOCS).max(1),
        // A 10 000-token split then repeats each word about ten times,
        // which is what lets the combiner shrink the shuffle tenfold; at
        // the default 50 000 words it shrinks it by less than three.
        vocab: 1_000,
        ..CorpusConfig::default()
    });
    let docs: Vec<String> = (0..DOCS).map(|i| corpus.document(i)).collect();
    let mut tokens_left = sizes.wc_tokens as usize;
    let mut lines = Vec::new();
    for line in docs.iter().flat_map(|d| d.lines()) {
        if tokens_left == 0 {
            break;
        }
        let words: Vec<&str> = line.split(' ').take(tokens_left).collect();
        tokens_left -= words.len();
        lines.push(words.join(" "));
    }
    assert_eq!(tokens_left, 0, "corpus shorter than {} tokens", sizes.wc_tokens);
    let input = lines_to_records(lines.iter().map(String::as_str));
    Workload {
        name,
        program: Arc::new(WithNull(Arc::new(Simple(WordCount)))),
        func: 0,
        maps: 16,
        reduces: 8,
        combine,
        records_per_job: input.len() as u64,
        rounds: 1,
        driver: Driver::MapReduce { input },
    }
}

fn sort_range(seed: u64, sizes: &Sizes) -> Workload {
    let mut rng = SplitMix64::new(seed);
    let input: Vec<Record> =
        (0..sizes.sort_records).map(|_| encode_record(&rng.next_u64(), &rng.next_u64())).collect();
    let reduces = 8;
    let sample = RangeSort::sample(&input, sizes.sort_sample, seed);
    let program = RangeSort::plan(&sample, reduces).expect("at least one partition");
    Workload {
        name: "sort_range",
        program: Arc::new(WithNull(Arc::new(Simple(program)))),
        func: 0,
        maps: 8,
        reduces,
        combine: false,
        records_per_job: input.len() as u64,
        rounds: 1,
        driver: Driver::MapReduce { input },
    }
}

fn pso_iter(seed: u64, sizes: &Sizes) -> Workload {
    let program =
        Arc::new(PsoProgram::new(PsoConfig::rosenbrock_250(PSO_PARTICLES, seed), PSO_INNER_ITERS));
    let islands = program.n_islands() as usize;
    Workload {
        name: "pso_iter",
        program: Arc::new(WithNull(program.clone())),
        func: FUNC_ISLAND,
        maps: islands,
        reduces: islands,
        combine: false,
        records_per_job: PSO_PARTICLES * PSO_INNER_ITERS * sizes.pso_outer_iters,
        rounds: sizes.pso_outer_iters,
        driver: Driver::Pso { program, outer_iters: sizes.pso_outer_iters },
    }
}
