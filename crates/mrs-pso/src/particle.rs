//! Particle state and its wire encoding.

use mrs_core::{Datum, Error, Result};

/// One particle of the swarm.
#[derive(Clone, Debug, PartialEq)]
pub struct Particle {
    /// Stable particle id (also its MapReduce key).
    pub id: u64,
    /// Current position.
    pub pos: Vec<f64>,
    /// Current velocity.
    pub vel: Vec<f64>,
    /// Personal best position.
    pub pbest_pos: Vec<f64>,
    /// Personal best value.
    pub pbest_val: f64,
    /// Best position seen in the neighborhood.
    pub nbest_pos: Vec<f64>,
    /// Best value seen in the neighborhood.
    pub nbest_val: f64,
    /// Iterations this particle has performed.
    pub iteration: u64,
}

impl Particle {
    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.pos.len()
    }

    /// Offer a (position, value) pair as a neighborhood-best candidate.
    /// Returns true if it improved the particle's `nbest`.
    pub fn offer_nbest(&mut self, pos: &[f64], val: f64) -> bool {
        if val < self.nbest_val {
            self.nbest_pos = pos.to_vec();
            self.nbest_val = val;
            true
        } else {
            false
        }
    }
}

/// A message flowing through the PSO reduce: either the particle itself or
/// a neighbor's personal best.
#[derive(Clone, Debug, PartialEq)]
pub enum PsoMessage {
    /// The moved particle, keyed by its own id.
    Particle(Particle),
    /// A neighbor's best, sent to another particle's key.
    Best {
        /// Position of the sender's personal best.
        pos: Vec<f64>,
        /// Value of the sender's personal best.
        val: f64,
    },
}

impl Datum for Particle {
    mrs_core::datum_owned_view!();
    fn encode(&self, buf: &mut Vec<u8>) {
        self.id.encode(buf);
        self.iteration.encode(buf);
        self.pos.encode(buf);
        self.vel.encode(buf);
        self.pbest_pos.encode(buf);
        self.pbest_val.encode(buf);
        self.nbest_pos.encode(buf);
        self.nbest_val.encode(buf);
    }

    fn decode_from(b: &[u8]) -> Result<(Self, &[u8])> {
        let (id, b) = u64::decode_from(b)?;
        let (iteration, b) = u64::decode_from(b)?;
        let (pos, b) = Vec::<f64>::decode_from(b)?;
        let (vel, b) = Vec::<f64>::decode_from(b)?;
        let (pbest_pos, b) = Vec::<f64>::decode_from(b)?;
        let (pbest_val, b) = f64::decode_from(b)?;
        let (nbest_pos, b) = Vec::<f64>::decode_from(b)?;
        let (nbest_val, b) = f64::decode_from(b)?;
        Ok((Particle { id, pos, vel, pbest_pos, pbest_val, nbest_pos, nbest_val, iteration }, b))
    }
}

impl Datum for PsoMessage {
    mrs_core::datum_owned_view!();
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            PsoMessage::Particle(p) => {
                buf.push(0);
                p.encode(buf);
            }
            PsoMessage::Best { pos, val } => {
                buf.push(1);
                pos.encode(buf);
                val.encode(buf);
            }
        }
    }

    fn decode_from(b: &[u8]) -> Result<(Self, &[u8])> {
        let (&tag, rest) =
            b.split_first().ok_or_else(|| Error::Codec("empty PsoMessage".into()))?;
        match tag {
            0 => {
                let (p, rest) = Particle::decode_from(rest)?;
                Ok((PsoMessage::Particle(p), rest))
            }
            1 => {
                let (pos, rest) = Vec::<f64>::decode_from(rest)?;
                let (val, rest) = f64::decode_from(rest)?;
                Ok((PsoMessage::Best { pos, val }, rest))
            }
            other => Err(Error::Codec(format!("bad PsoMessage tag {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn particle() -> Particle {
        Particle {
            id: 7,
            pos: vec![1.0, -2.5],
            vel: vec![0.1, 0.2],
            pbest_pos: vec![0.5, 0.5],
            pbest_val: 3.25,
            nbest_pos: vec![0.0, 0.0],
            nbest_val: 2.0,
            iteration: 42,
        }
    }

    #[test]
    fn particle_roundtrip() {
        let p = particle();
        assert_eq!(Particle::from_bytes(&p.to_bytes()).unwrap(), p);
    }

    #[test]
    fn message_roundtrips() {
        for m in [PsoMessage::Particle(particle()), PsoMessage::Best { pos: vec![9.0], val: -1.5 }]
        {
            assert_eq!(PsoMessage::from_bytes(&m.to_bytes()).unwrap(), m);
        }
    }

    #[test]
    fn bad_tag_rejected() {
        assert!(PsoMessage::from_bytes(&[9, 0, 0]).is_err());
        assert!(PsoMessage::from_bytes(&[]).is_err());
    }

    #[test]
    fn offer_nbest_improves_only_on_better() {
        let mut p = particle();
        assert!(!p.offer_nbest(&[1.0, 1.0], 5.0));
        assert_eq!(p.nbest_val, 2.0);
        assert!(p.offer_nbest(&[1.0, 1.0], 0.5));
        assert_eq!(p.nbest_val, 0.5);
        assert_eq!(p.nbest_pos, vec![1.0, 1.0]);
    }
}
