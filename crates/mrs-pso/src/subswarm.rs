//! Subswarm (island) batching — the Apiary-style granularity fix.
//!
//! "For computationally trivial objective functions, task granularity can
//! be too fine if each map task operates on a single particle. In this
//! case, a swarm can be divided into several subswarms or islands, and
//! each map task operates on several iterations of a subswarm of
//! particles" (§V-B, citing [10]–[12]). An island runs complete-topology
//! PSO internally for `inner_iters` iterations per task; islands exchange
//! bests along a ring between tasks.

use crate::functions::Objective;
use crate::motion::step_particle;
use crate::particle::Particle;
use mrs_core::{Datum, Result};
use mrs_rng::StreamFactory;

/// A subswarm: the unit of work of one island map task.
#[derive(Clone, Debug, PartialEq)]
pub struct Island(pub Vec<Particle>);

impl Datum for Island {
    mrs_core::datum_owned_view!();
    fn encode(&self, buf: &mut Vec<u8>) {
        mrs_core::kv::write_varint(self.0.len() as u64, buf);
        for p in &self.0 {
            p.encode(buf);
        }
    }

    fn decode_from(b: &[u8]) -> Result<(Self, &[u8])> {
        let (len, mut rest) = mrs_core::kv::read_varint(b)?;
        // Particles are ≥ 40 bytes each; bound preallocation by the input.
        let mut out = Vec::with_capacity((len as usize).min(rest.len() / 40 + 1));
        for _ in 0..len {
            let (p, r) = Particle::decode_from(rest)?;
            out.push(p);
            rest = r;
        }
        Ok((Island(out), rest))
    }
}

impl Island {
    /// Best (position, value) in the island.
    pub fn best(&self) -> (&[f64], f64) {
        let p = self
            .0
            .iter()
            .min_by(|a, b| a.pbest_val.total_cmp(&b.pbest_val))
            .expect("island must not be empty");
        (&p.pbest_pos, p.pbest_val)
    }

    /// Offer a foreign best to every member.
    pub fn offer(&mut self, pos: &[f64], val: f64) {
        for p in &mut self.0 {
            p.offer_nbest(pos, val);
        }
    }
}

/// Advance an island `inner_iters` iterations with complete-topology
/// exchange inside the island after every move phase. Returns the number
/// of function evaluations performed.
pub fn advance_island(
    island: &mut Island,
    objective: Objective,
    streams: &StreamFactory,
    inner_iters: u64,
) -> u64 {
    let mut evals = 0;
    for _ in 0..inner_iters {
        for p in &mut island.0 {
            step_particle(p, objective, streams);
            evals += 1;
        }
        // Complete exchange within the island (post-move, like the serial
        // driver's reduce step).
        let offers: Vec<(Vec<f64>, f64)> =
            island.0.iter().map(|p| (p.pbest_pos.clone(), p.pbest_val)).collect();
        for (pos, val) in offers {
            island.offer(&pos, val);
        }
    }
    evals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::motion::init_particle;

    fn island(n: u64, seed: u64) -> Island {
        let streams = StreamFactory::new(seed);
        Island((0..n).map(|i| init_particle(Objective::Sphere, 8, i, &streams)).collect())
    }

    #[test]
    fn island_roundtrips_as_datum() {
        let isl = island(5, 3);
        assert_eq!(Island::from_bytes(&isl.to_bytes()).unwrap(), isl);
    }

    #[test]
    fn empty_island_roundtrips() {
        let isl = Island(vec![]);
        assert_eq!(Island::from_bytes(&isl.to_bytes()).unwrap(), isl);
    }

    #[test]
    fn advance_counts_evals_and_improves() {
        let mut isl = island(5, 9);
        let streams = StreamFactory::new(9);
        let before = isl.best().1;
        let evals = advance_island(&mut isl, Objective::Sphere, &streams, 100);
        assert_eq!(evals, 500);
        assert!(isl.best().1 < before);
    }

    #[test]
    fn advance_is_deterministic() {
        let streams = StreamFactory::new(4);
        let mut a = island(5, 4);
        let mut b = island(5, 4);
        advance_island(&mut a, Objective::Sphere, &streams, 20);
        advance_island(&mut b, Objective::Sphere, &streams, 20);
        assert_eq!(a, b);
    }

    #[test]
    fn offer_improves_all_members() {
        let mut isl = island(4, 2);
        isl.offer(&[0.0; 8], -5.0);
        assert!(isl.0.iter().all(|p| p.nbest_val == -5.0));
    }

    #[test]
    fn best_picks_minimum() {
        let mut isl = island(4, 6);
        isl.0[2].pbest_val = -100.0;
        isl.0[2].pbest_pos = vec![1.0; 8];
        assert_eq!(isl.best().1, -100.0);
    }
}
