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
/// (the split of the lines below `split`) waits before each of its
/// records until the test releases it: a straggler that cannot finish
/// before the test has seen its backup win, whatever the load. Released,
/// a cancelled run stops at its next record. That run's start is
/// signalled, so a race adds its clean slave only once the straggler
/// holds the task.
pub struct Straggler {
    split: u64,
    /// (the straggling run has started, the straggler is released)
    state: Mutex<(bool, bool)>,
    cv: Condvar,
}

/// How long an unreleased straggler waits in all before it runs on
/// regardless, so a race that never comes fails its test's assertions
/// instead of hanging it.
const PATIENCE: Duration = Duration::from_secs(30);

impl Straggler {
    pub fn new(split: u64) -> Arc<Straggler> {
        Arc::new(Straggler { split, state: Mutex::default(), cv: Condvar::new() })
    }

    /// Block until the first run of map task 0 has started.
    pub fn await_start(&self) {
        drop(self.cv.wait_while(self.state.lock().unwrap(), |s| !s.0).unwrap());
    }

    /// Let the straggling run go on.
    pub fn release(&self) {
        self.state.lock().unwrap().1 = true;
        self.cv.notify_all();
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
            let mut state = self.state.lock().unwrap();
            STRAGGLING.set(!state.0);
            state.0 = true;
            self.cv.notify_all();
        }
        if line < self.split && STRAGGLING.get() {
            let state = self.state.lock().unwrap();
            let (mut state, waited) =
                self.cv.wait_timeout_while(state, PATIENCE, |s| !s.1).unwrap();
            state.1 |= waited.timed_out();
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
