//! A straggler for the speculation races: shared by the integration tests
//! that force one.

use mrs::apps::wordcount::WordCount;
use mrs::prelude::*;
use mrs_core::FuncId;
use std::cell::Cell;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

thread_local! {
    /// This worker is in the first run of map task 0.
    static STRAGGLING: Cell<bool> = const { Cell::new(false) };
}

/// WordCount over `lines_to_records` input whose first run of map task 0
/// (the split of the lines below `split`) pauses before each of its
/// records: a straggler whose backup runs at full speed. Pausing record
/// by record, a cancelled run stops at its next record. That run's start
/// is signalled, so a race adds its clean slave only once the straggler
/// holds the task.
pub struct Straggler {
    split: u64,
    pause: Duration,
    started: (Mutex<bool>, Condvar),
}

impl Straggler {
    pub fn new(split: u64, pause: Duration) -> Arc<Straggler> {
        Arc::new(Straggler { split, pause, started: Default::default() })
    }

    /// Block until the first run of map task 0 has started.
    pub fn await_start(&self) {
        let started = self.started.0.lock().unwrap();
        drop(self.started.1.wait_while(started, |started| !*started).unwrap());
    }
}

impl Program for Straggler {
    fn map_bytes(
        &self,
        func: FuncId,
        key: &[u8],
        value: &[u8],
        emit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<()> {
        let line = u64::from_bytes(key)?;
        if line == 0 {
            let mut started = self.started.0.lock().unwrap();
            STRAGGLING.set(!*started);
            *started = true;
            self.started.1.notify_all();
        }
        if line < self.split && STRAGGLING.get() {
            std::thread::sleep(self.pause);
        }
        Simple(WordCount).map_bytes(func, key, value, emit)
    }

    fn reduce_bytes(
        &self,
        func: FuncId,
        key: &[u8],
        values: &mut dyn Iterator<Item = &[u8]>,
        emit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<()> {
        Simple(WordCount).reduce_bytes(func, key, values, emit)
    }

    fn combine_bytes(
        &self,
        func: FuncId,
        key: &[u8],
        values: &mut dyn Iterator<Item = &[u8]>,
        emit: &mut dyn FnMut(&[u8], &[u8]),
    ) -> Result<()> {
        Simple(WordCount).combine_bytes(func, key, values, emit)
    }

    fn has_combiner(&self, func: FuncId) -> bool {
        Simple(WordCount).has_combiner(func)
    }
}
