//! PSO as a MapReduce program, at both granularities the paper discusses.
//!
//! * **Per-particle** ([`FUNC_PARTICLE`]): "the map function performing
//!   motion simulation and evaluation of the objective function and the
//!   reduce function calculating the neighborhood best by combining the
//!   updated particle with messages from its neighbors" [5].
//! * **Per-island** ([`FUNC_ISLAND`]): each map task advances a whole
//!   subswarm for `inner_iters` iterations (Apiary granularity), and the
//!   reduce folds in the best exported by the ring-predecessor island.
//!
//! Keys are dense integers partitioned with the modulo partitioner, so the
//! scheduler's task→slave affinity keeps each particle/island on the same
//! slave across iterations — the paper's inter-iteration locality
//! optimization (§IV-A).

use crate::motion::{init_particle, step_particle};
use crate::particle::{Particle, PsoMessage};
use crate::serial::{IterRecord, PsoConfig};
use crate::subswarm::{advance_island, Island};
use crate::topology::Topology;
use mrs_core::kv::encode_record;
use mrs_core::partition::Partition;
use mrs_core::{Datum, Error, FuncId, Program, Record, Result};
use mrs_rng::StreamFactory;
use mrs_runtime::Job;

/// Function id: per-particle map/reduce.
pub const FUNC_PARTICLE: FuncId = 0;
/// Function id: per-island (subswarm-batched) map/reduce.
pub const FUNC_ISLAND: FuncId = 1;

/// Messages of the island-granularity stage.
#[derive(Clone, Debug, PartialEq)]
pub enum IslandMsg {
    /// A whole subswarm, keyed by its island id.
    Island(Island),
    /// A neighbor island's best, sent along the ring.
    Best {
        /// Best position.
        pos: Vec<f64>,
        /// Best value.
        val: f64,
    },
}

impl Datum for IslandMsg {
    mrs_core::datum_owned_view!();
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            IslandMsg::Island(i) => {
                buf.push(0);
                i.encode(buf);
            }
            IslandMsg::Best { pos, val } => {
                buf.push(1);
                pos.encode(buf);
                val.encode(buf);
            }
        }
    }

    fn decode_from(b: &[u8]) -> Result<(Self, &[u8])> {
        let (&tag, rest) = b.split_first().ok_or_else(|| Error::Codec("empty IslandMsg".into()))?;
        match tag {
            0 => {
                let (i, rest) = Island::decode_from(rest)?;
                Ok((IslandMsg::Island(i), rest))
            }
            1 => {
                let (pos, rest) = Vec::<f64>::decode_from(rest)?;
                let (val, rest) = f64::decode_from(rest)?;
                Ok((IslandMsg::Best { pos, val }, rest))
            }
            other => Err(Error::Codec(format!("bad IslandMsg tag {other}"))),
        }
    }
}

/// The PSO MapReduce program.
pub struct PsoProgram {
    /// Run parameters.
    pub config: PsoConfig,
    /// Inner iterations per island map task.
    pub inner_iters: u64,
    streams: StreamFactory,
}

impl PsoProgram {
    /// Build a program; `inner_iters` only affects the island functions.
    pub fn new(config: PsoConfig, inner_iters: u64) -> PsoProgram {
        assert!(inner_iters > 0, "need at least one inner iteration");
        let streams = StreamFactory::new(config.seed);
        PsoProgram { config, inner_iters, streams }
    }

    /// Number of islands under the configured topology.
    pub fn n_islands(&self) -> u64 {
        self.config.topology.islands(self.config.n_particles)
    }

    /// Initial records for the per-particle granularity.
    pub fn initial_particles(&self) -> Vec<Record> {
        (0..self.config.n_particles)
            .map(|i| {
                let p = init_particle(self.config.objective, self.config.dim, i, &self.streams);
                encode_record(&i, &PsoMessage::Particle(p))
            })
            .collect()
    }

    /// Initial records for the island granularity.
    pub fn initial_islands(&self) -> Vec<Record> {
        let Topology::Subswarms { size } = self.config.topology else {
            panic!("island granularity requires a Subswarms topology");
        };
        let n = self.config.n_particles;
        (0..self.n_islands())
            .map(|island| {
                let start = island * size as u64;
                let end = (start + size as u64).min(n);
                let members: Vec<Particle> = (start..end)
                    .map(|i| {
                        init_particle(self.config.objective, self.config.dim, i, &self.streams)
                    })
                    .collect();
                encode_record(&island, &IslandMsg::Island(Island(members)))
            })
            .collect()
    }

    fn map_particle(
        &self,
        key: &[u8],
        value: &[u8],
        emit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<()> {
        let id = u64::from_bytes(key)?;
        let PsoMessage::Particle(mut p) = PsoMessage::from_bytes(value)? else {
            return Err(Error::Invalid("map input must be a particle".into()));
        };
        step_particle(&mut p, self.config.objective, &self.streams);
        for nb in self.config.topology.neighbors(id, self.config.n_particles) {
            let msg = PsoMessage::Best { pos: p.pbest_pos.clone(), val: p.pbest_val };
            emit(&nb.to_bytes(), &msg.to_bytes());
        }
        emit(key, &PsoMessage::Particle(p).to_bytes());
        Ok(())
    }

    fn reduce_particle(
        &self,
        values: &mut dyn Iterator<Item = &[u8]>,
        emit: &mut dyn FnMut(&[u8], &[u8]),
        key: &[u8],
    ) -> Result<()> {
        let mut particle: Option<Particle> = None;
        let mut bests: Vec<(Vec<f64>, f64)> = Vec::new();
        for raw in values {
            match PsoMessage::from_bytes(raw)? {
                PsoMessage::Particle(p) => particle = Some(p),
                PsoMessage::Best { pos, val } => bests.push((pos, val)),
            }
        }
        let mut p =
            particle.ok_or_else(|| Error::Invalid("reduce group without its particle".into()))?;
        for (pos, val) in bests {
            p.offer_nbest(&pos, val);
        }
        emit(key, &PsoMessage::Particle(p).to_bytes());
        Ok(())
    }

    fn map_island(
        &self,
        key: &[u8],
        value: &[u8],
        emit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<()> {
        let id = u64::from_bytes(key)?;
        let IslandMsg::Island(mut island) = IslandMsg::from_bytes(value)? else {
            return Err(Error::Invalid("island map input must be an island".into()));
        };
        advance_island(&mut island, self.config.objective, &self.streams, self.inner_iters);
        let (pos, val) = island.best();
        let next = (id + 1) % self.n_islands();
        if next != id {
            let msg = IslandMsg::Best { pos: pos.to_vec(), val };
            emit(&next.to_bytes(), &msg.to_bytes());
        }
        emit(key, &IslandMsg::Island(island).to_bytes());
        Ok(())
    }

    fn reduce_island(
        &self,
        values: &mut dyn Iterator<Item = &[u8]>,
        emit: &mut dyn FnMut(&[u8], &[u8]),
        key: &[u8],
    ) -> Result<()> {
        let mut island: Option<Island> = None;
        let mut bests: Vec<(Vec<f64>, f64)> = Vec::new();
        for raw in values {
            match IslandMsg::from_bytes(raw)? {
                IslandMsg::Island(i) => island = Some(i),
                IslandMsg::Best { pos, val } => bests.push((pos, val)),
            }
        }
        let mut island =
            island.ok_or_else(|| Error::Invalid("reduce group without its island".into()))?;
        for (pos, val) in bests {
            island.offer(&pos, val);
        }
        emit(key, &IslandMsg::Island(island).to_bytes());
        Ok(())
    }

    /// Extract the best value from fetched per-particle records.
    pub fn best_of_particles(records: &[Record]) -> Result<f64> {
        let mut best = f64::INFINITY;
        for (_, v) in records {
            if let PsoMessage::Particle(p) = PsoMessage::from_bytes(v)? {
                best = best.min(p.pbest_val);
            }
        }
        Ok(best)
    }

    /// Extract the best value from fetched island records.
    pub fn best_of_islands(records: &[Record]) -> Result<f64> {
        let mut best = f64::INFINITY;
        for (_, v) in records {
            if let IslandMsg::Island(i) = IslandMsg::from_bytes(v)? {
                best = best.min(i.best().1);
            }
        }
        Ok(best)
    }

    /// Drive `outer_iters` island-granularity MapReduce iterations on any
    /// runtime, queueing the next iteration before fetching the previous
    /// one's result (the paper's operation pipelining: the convergence
    /// check overlaps the next iteration's computation). It leaves no
    /// dataset behind.
    pub fn drive_islands(&self, job: &mut Job, outer_iters: u64) -> Result<Vec<IterRecord>> {
        let n_islands = self.n_islands() as usize;
        let n = self.config.n_particles;
        let mut history = Vec::with_capacity(outer_iters as usize + 1);
        history.push(IterRecord {
            iteration: 0,
            best_val: Self::best_of_islands(&self.initial_islands())?,
            func_evals: n,
        });
        let src = job.local_data(self.initial_islands(), n_islands)?;
        let mut ds = src;
        // Iteration t+1's ops are queued *before* iteration t's result is
        // fetched. Each r_t is pinned (`keep`): the convergence check
        // fetches it after iteration t+1's map, its only reader, may have
        // completed. Each m_t is discarded once its reduce is queued and
        // r_t once it is fetched; the runtime frees each once its reader
        // completes.
        let mut pending: Option<(u64, mrs_runtime::DataId)> = None;
        let record = |job: &mut Job,
                      history: &mut Vec<IterRecord>,
                      iter: u64,
                      r: mrs_runtime::DataId|
         -> Result<()> {
            let records = job.fetch_all(r)?;
            history.push(IterRecord {
                iteration: iter * self.inner_iters,
                best_val: Self::best_of_islands(&records)?,
                func_evals: n + iter * self.inner_iters * n,
            });
            Ok(())
        };
        for t in 1..=outer_iters {
            let m = job.map_data(ds, FUNC_ISLAND, n_islands, false)?;
            let r = job.reduce_data(m, FUNC_ISLAND)?;
            job.discard(m);
            job.keep(r);
            if let Some((iter, r_prev)) = pending.take() {
                record(job, &mut history, iter, r_prev)?;
                job.discard(r_prev);
            }
            ds = r;
            pending = Some((t, r));
        }
        if let Some((iter, r_last)) = pending {
            record(job, &mut history, iter, r_last)?;
            job.discard(r_last);
        }
        job.discard(src);
        Ok(history)
    }

    /// Run `iters` per-particle iterations as one op chain and fetch the
    /// final swarm records. With `fused`, interior rounds are fused
    /// ReduceMap ops (one task per iteration instead of two); the output
    /// is byte-identical either way.
    pub fn run_particles(&self, job: &mut Job, iters: u64, fused: bool) -> Result<Vec<Record>> {
        let parts = self.config.n_particles as usize;
        self.run_chain(job, FUNC_PARTICLE, self.initial_particles(), parts, iters, fused)
    }

    /// Run `outer_iters` island-granularity iterations as one op chain and
    /// fetch the final island records. See [`Self::run_particles`].
    pub fn run_islands(&self, job: &mut Job, outer_iters: u64, fused: bool) -> Result<Vec<Record>> {
        let parts = self.n_islands() as usize;
        self.run_chain(job, FUNC_ISLAND, self.initial_islands(), parts, outer_iters, fused)
    }

    /// The iterative chain both granularities share: map₀, then
    /// `iters - 1` interior rounds, then a final reduce. Interior rounds
    /// are either a materialized reduce followed by a map (unfused) or a
    /// single ReduceMap op (fused) — the shapes the iteration bench
    /// compares. No intermediate is fetched, so each is discarded as soon
    /// as its consumer is queued and the chain holds O(1) live datasets
    /// regardless of `iters`: a runtime frees such a dataset once its
    /// consumer completes, and the serial runtime, which runs each op as it
    /// is queued, at once. The source and the result go once the result is
    /// fetched.
    fn run_chain(
        &self,
        job: &mut Job,
        func: FuncId,
        initial: Vec<Record>,
        parts: usize,
        iters: u64,
        fused: bool,
    ) -> Result<Vec<Record>> {
        assert!(iters > 0, "need at least one iteration");
        let ds = job.local_data(initial, parts)?;
        let mut m = job.map_data(ds, func, parts, false)?;
        for _ in 1..iters {
            let next = if fused {
                job.reduce_map_data(m, func, func, parts, false)?
            } else {
                let r = job.reduce_data(m, func)?;
                let next = job.map_data(r, func, parts, false)?;
                job.discard(r);
                next
            };
            job.discard(m);
            m = next;
        }
        let r = job.reduce_data(m, func)?;
        job.discard(m);
        let out = job.fetch_all(r)?;
        job.discard(ds);
        job.discard(r);
        Ok(out)
    }

    /// Drive `iters` per-particle MapReduce iterations. It leaves no
    /// dataset behind.
    pub fn drive_particles(&self, job: &mut Job, iters: u64) -> Result<Vec<IterRecord>> {
        let n = self.config.n_particles;
        let parts = n as usize;
        let mut history = Vec::with_capacity(iters as usize + 1);
        history.push(IterRecord {
            iteration: 0,
            best_val: Self::best_of_particles(&self.initial_particles())?,
            func_evals: n,
        });
        let mut ds = job.local_data(self.initial_particles(), parts)?;
        for t in 1..=iters {
            let m = job.map_data(ds, FUNC_PARTICLE, parts, false)?;
            let r = job.reduce_data(m, FUNC_PARTICLE)?;
            let records = job.fetch_all(r)?;
            history.push(IterRecord {
                iteration: t,
                best_val: Self::best_of_particles(&records)?,
                func_evals: n + t * n,
            });
            job.discard(ds);
            job.discard(m);
            ds = r;
        }
        job.discard(ds);
        Ok(history)
    }

    /// Fetch the final swarm of a per-particle run (for equivalence tests).
    pub fn particles_of(records: &[Record]) -> Result<Vec<Particle>> {
        let mut out = Vec::with_capacity(records.len());
        for (_, v) in records {
            if let PsoMessage::Particle(p) = PsoMessage::from_bytes(v)? {
                out.push(p);
            }
        }
        out.sort_by_key(|p| p.id);
        Ok(out)
    }
}

impl Program for PsoProgram {
    fn map_bytes(
        &self,
        func: FuncId,
        key: &[u8],
        value: &[u8],
        emit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<()> {
        match func {
            FUNC_PARTICLE => self.map_particle(key, value, emit),
            FUNC_ISLAND => self.map_island(key, value, emit),
            other => Err(Error::UnknownFunc(other)),
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
            FUNC_PARTICLE => self.reduce_particle(values, emit, key),
            FUNC_ISLAND => self.reduce_island(values, emit, key),
            other => Err(Error::UnknownFunc(other)),
        }
    }

    fn partition(&self, key: &[u8], n: usize) -> usize {
        Partition::Mod.index(key, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::Objective;
    use crate::serial::SerialPso;
    use mrs_runtime::{DataId, JobApi, LocalRuntime, SerialRuntime};
    use std::collections::HashSet;
    use std::sync::Arc;

    fn config(topology: Topology) -> PsoConfig {
        PsoConfig { objective: Objective::Sphere, dim: 6, n_particles: 12, topology, seed: 99 }
    }

    #[test]
    fn island_msg_roundtrip() {
        let streams = StreamFactory::new(1);
        let island = Island(vec![init_particle(Objective::Sphere, 4, 0, &streams)]);
        for m in [IslandMsg::Island(island), IslandMsg::Best { pos: vec![1.0, 2.0], val: 0.5 }] {
            assert_eq!(IslandMsg::from_bytes(&m.to_bytes()).unwrap(), m);
        }
    }

    #[test]
    fn per_particle_mapreduce_matches_serial_exactly() {
        let cfg = config(Topology::Ring { k: 1 });
        let iters = 10u64;

        // Serial reference.
        let mut serial = SerialPso::new(cfg.clone());
        serial.run(iters);
        let expected: Vec<Particle> = serial.swarm().to_vec();

        // MapReduce on the serial runtime.
        let program = Arc::new(PsoProgram::new(cfg, 1));
        let mut rt = SerialRuntime::new(program.clone());
        let mut job = Job::new(&mut rt);
        let mut ds = job.local_data(program.initial_particles(), 1).unwrap();
        for _ in 0..iters {
            let m = job.map_data(ds, FUNC_PARTICLE, 3, false).unwrap();
            ds = job.reduce_data(m, FUNC_PARTICLE).unwrap();
        }
        let got = PsoProgram::particles_of(&job.fetch_all(ds).unwrap()).unwrap();
        assert_eq!(got, expected, "MapReduce swarm diverged from serial");
    }

    #[test]
    fn pool_and_serial_runtimes_agree_on_pso() {
        let cfg = config(Topology::Ring { k: 2 });
        let run = |job: &mut Job| -> Vec<Particle> {
            let program = PsoProgram::new(cfg.clone(), 1);
            let mut ds = job.local_data(program.initial_particles(), 4).unwrap();
            for _ in 0..8 {
                let m = job.map_data(ds, FUNC_PARTICLE, 4, false).unwrap();
                ds = job.reduce_data(m, FUNC_PARTICLE).unwrap();
            }
            PsoProgram::particles_of(&job.fetch_all(ds).unwrap()).unwrap()
        };
        let a = {
            let mut rt = SerialRuntime::new(Arc::new(PsoProgram::new(cfg.clone(), 1)));
            run(&mut Job::new(&mut rt))
        };
        let b = {
            let mut rt = LocalRuntime::pool(Arc::new(PsoProgram::new(cfg.clone(), 1)), 4);
            run(&mut Job::new(&mut rt))
        };
        assert_eq!(a, b);
    }

    #[test]
    fn island_drive_converges_and_counts_evals() {
        let cfg = config(Topology::Subswarms { size: 4 });
        let program = Arc::new(PsoProgram::new(cfg.clone(), 10));
        let mut rt = LocalRuntime::pool(program.clone(), 3);
        let mut job = Job::new(&mut rt);
        let history = program.drive_islands(&mut job, 20).unwrap();
        assert_eq!(history.len(), 21);
        let first = history.first().unwrap();
        let last = history.last().unwrap();
        assert_eq!(last.iteration, 200);
        assert_eq!(last.func_evals, 12 + 200 * 12);
        assert!(last.best_val < first.best_val / 100.0, "{first:?} -> {last:?}");
        // History is monotone non-increasing.
        for w in history.windows(2) {
            assert!(w[1].best_val <= w[0].best_val);
        }
    }

    #[test]
    fn island_drive_deterministic_across_runtimes() {
        let cfg = config(Topology::Subswarms { size: 3 });
        let drive = |mut job: Job| {
            let program = PsoProgram::new(cfg.clone(), 5);
            program.drive_islands(&mut job, 6).unwrap()
        };
        let a = {
            let mut rt = SerialRuntime::new(Arc::new(PsoProgram::new(cfg.clone(), 5)));
            drive(Job::new(&mut rt))
        };
        let b = {
            let mut rt = LocalRuntime::pool(Arc::new(PsoProgram::new(cfg.clone(), 5)), 4);
            drive(Job::new(&mut rt))
        };
        assert_eq!(a, b);
    }

    #[test]
    fn fused_chain_matches_unfused_byte_identically() {
        let cfg = config(Topology::Subswarms { size: 4 });
        let runs: Vec<Vec<Record>> = [false, true]
            .iter()
            .flat_map(|&fused| {
                let serial = {
                    let mut rt = SerialRuntime::new(Arc::new(PsoProgram::new(cfg.clone(), 3)));
                    let program = PsoProgram::new(cfg.clone(), 3);
                    program.run_islands(&mut Job::new(&mut rt), 5, fused).unwrap()
                };
                let pool = {
                    let mut rt = LocalRuntime::pool(Arc::new(PsoProgram::new(cfg.clone(), 3)), 4);
                    let program = PsoProgram::new(cfg.clone(), 3);
                    program.run_islands(&mut Job::new(&mut rt), 5, fused).unwrap()
                };
                [serial, pool]
            })
            .collect();
        for r in &runs[1..] {
            assert_eq!(&runs[0], r, "fused/unfused island chains must agree byte-for-byte");
        }
        assert!(PsoProgram::best_of_islands(&runs[0]).unwrap().is_finite());
    }

    /// A job interface over the serial runtime that counts the datasets
    /// created and not yet discarded, and the most ever held at once.
    struct Held<'a> {
        inner: &'a mut dyn JobApi,
        live: HashSet<DataId>,
        peak: usize,
    }

    impl Held<'_> {
        fn add(&mut self, id: Result<DataId>) -> Result<DataId> {
            let id = id?;
            self.live.insert(id);
            self.peak = self.peak.max(self.live.len());
            Ok(id)
        }
    }

    impl JobApi for Held<'_> {
        fn local_data(&mut self, records: Vec<Record>, splits: usize) -> Result<DataId> {
            let id = self.inner.local_data(records, splits);
            self.add(id)
        }
        fn map_data(&mut self, d: DataId, f: FuncId, parts: usize, c: bool) -> Result<DataId> {
            let id = self.inner.map_data(d, f, parts, c);
            self.add(id)
        }
        fn reduce_data(&mut self, d: DataId, f: FuncId) -> Result<DataId> {
            let id = self.inner.reduce_data(d, f);
            self.add(id)
        }
        fn reduce_map_data(
            &mut self,
            d: DataId,
            rf: FuncId,
            mf: FuncId,
            parts: usize,
            c: bool,
        ) -> Result<DataId> {
            let id = self.inner.reduce_map_data(d, rf, mf, parts, c);
            self.add(id)
        }
        fn wait(&mut self, d: DataId) -> Result<()> {
            self.inner.wait(d)
        }
        fn fetch_all(&mut self, d: DataId) -> Result<Vec<Record>> {
            self.inner.fetch_all(d)
        }
        fn discard(&mut self, d: DataId) {
            self.live.remove(&d);
            self.inner.discard(d)
        }
    }

    /// On the serial runtime, which has no lifetime GC, an op chain frees
    /// each round once its consumer has run: it holds the source and at
    /// most three rounds at any time, however many rounds it runs, and
    /// its output is the pool's.
    #[test]
    fn serial_chain_holds_a_bounded_number_of_datasets() {
        let cfg = config(Topology::Subswarms { size: 4 });
        for fused in [false, true] {
            let program = Arc::new(PsoProgram::new(cfg.clone(), 2));
            let mut rt = SerialRuntime::new(program.clone());
            let mut held = Held { inner: &mut rt, live: HashSet::new(), peak: 0 };
            let got = program.run_islands(&mut Job::new(&mut held), 12, fused).unwrap();
            // Nothing is left.
            assert!(held.live.is_empty(), "fused={fused}: {:?}", held.live);
            assert!(held.peak <= if fused { 3 } else { 4 }, "fused={fused}: {}", held.peak);
            let mut pool = LocalRuntime::pool(program.clone(), 3);
            assert_eq!(got, program.run_islands(&mut Job::new(&mut pool), 12, fused).unwrap());
        }
    }

    /// The paper's iterative drivers free every dataset they made by the
    /// time they return.
    #[test]
    fn drivers_leave_no_dataset_behind() {
        let program = Arc::new(PsoProgram::new(config(Topology::Subswarms { size: 4 }), 2));
        let mut rt = SerialRuntime::new(program.clone());
        let mut held = Held { inner: &mut rt, live: HashSet::new(), peak: 0 };
        program.drive_islands(&mut Job::new(&mut held), 5).unwrap();
        assert!(held.live.is_empty(), "drive_islands: {:?}", held.live);
        program.drive_particles(&mut Job::new(&mut held), 3).unwrap();
        assert!(held.live.is_empty(), "drive_particles: {:?}", held.live);
    }

    #[test]
    fn fused_particle_chain_matches_unfused() {
        let cfg = config(Topology::Ring { k: 1 });
        let run = |fused: bool| {
            let mut rt = LocalRuntime::pool(Arc::new(PsoProgram::new(cfg.clone(), 1)), 3);
            let program = PsoProgram::new(cfg.clone(), 1);
            program.run_particles(&mut Job::new(&mut rt), 6, fused).unwrap()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn particle_drive_records_history() {
        let cfg = config(Topology::Complete);
        let program = Arc::new(PsoProgram::new(cfg, 1));
        let mut rt = SerialRuntime::new(program.clone());
        let mut job = Job::new(&mut rt);
        let history = program.drive_particles(&mut job, 5).unwrap();
        assert_eq!(history.len(), 6);
        assert_eq!(history[5].func_evals, 12 * 6);
    }

    #[test]
    fn unknown_func_rejected() {
        let cfg = config(Topology::Complete);
        let program = PsoProgram::new(cfg, 1);
        let r = program.map_bytes(9, &0u64.to_bytes(), &[], &mut |_, _| {});
        assert!(matches!(r, Err(Error::UnknownFunc(9))));
    }
}
