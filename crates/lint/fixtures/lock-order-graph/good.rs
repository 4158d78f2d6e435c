//! Fixture: lock usage — nested in one body and across functions — that
//! respects the serving layer's declared order (`writer` before `plans`
//! before `inflight` before `current`), never nests, or drops the outer
//! guard before calling down.

impl Service {
    pub fn in_order(&self) {
        let writer = self.writer.lock();
        let plans = self.plans.lock();
        drop(plans);
        drop(writer);
    }

    pub fn disjoint(&self) {
        {
            let writer = self.writer.lock();
            drop(writer);
        }
        {
            let plans = self.plans.lock();
            drop(plans);
        }
    }

    pub fn forward_path(&self) {
        let writer = self.writer.lock();
        self.take_plans();
        drop(writer);
    }

    pub fn drop_before_call(&self) {
        {
            let plans = self.plans.lock();
            drop(plans);
        }
        self.take_writer();
    }

    pub fn sequential_not_nested(&self) {
        self.take_plans();
        self.take_writer();
    }

    pub fn take_plans(&self) {
        let plans = self.plans.lock();
        drop(plans);
    }

    pub fn take_writer(&self) {
        let writer = self.writer.lock();
        drop(writer);
    }
}
