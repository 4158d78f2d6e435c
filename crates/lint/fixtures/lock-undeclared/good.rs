//! Fixture: only declared locks are acquired.

impl Service {
    pub fn declared(&self) {
        let writer = self.writer.lock();
        drop(writer);
        let inflight = self.inflight.lock();
        drop(inflight);
    }
}
