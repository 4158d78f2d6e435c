//! Fixture: locks acquired against the declared order, nested in one body
//! (a path of zero calls) or only across functions (further down).
//! Checked under the virtual path of the serving layer, whose declared
//! order is `writer` before `plans` before `inflight` before `current`.

impl Service {
    pub fn backwards(&self) {
        // A poison-tolerant guard is a named guard like any other.
        let plans = self.plans.lock().unwrap_or_else(PoisonError::into_inner);
        let writer = self.writer.lock(); //~ lock-order-graph
        drop(writer);
        drop(plans);
    }

    pub fn reentrant(&self) {
        let first = self.inflight.lock();
        let second = self.inflight.lock(); //~ lock-order-graph
        drop(second);
        drop(first);
    }

    // Inversions that only exist *across* functions: each body below is
    // locally clean, and only the call graph connects the guard to the
    // acquisition. The two-lock deadlock cycle: `forward_path` holds
    // `writer` while its callee takes `plans` (legal, forward through the
    // order), and `backward_path` holds `plans` while its callee takes
    // `writer` (flagged — two threads running these concurrently deadlock).

    pub fn forward_path(&self) {
        let writer = self.writer.lock();
        self.take_plans();
        drop(writer);
    }

    pub fn backward_path(&self) {
        let plans = self.plans.lock();
        self.take_writer(); //~ lock-order-graph
        drop(plans);
    }

    pub fn reentrant_path(&self) {
        let inflight = self.inflight.lock();
        self.take_inflight_again(); //~ lock-order-graph
        drop(inflight);
    }

    pub fn take_plans(&self) {
        let plans = self.plans.lock();
        drop(plans);
    }

    pub fn take_writer(&self) {
        let writer = self.writer.lock();
        drop(writer);
    }

    pub fn take_inflight_again(&self) {
        let inflight = self.inflight.lock();
        drop(inflight);
    }
}
