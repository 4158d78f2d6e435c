//! Fixture: a mutex acquired that the file's declared order never lists.

impl Service {
    pub fn surprise(&self) {
        let stats = self.stats.lock(); //~ lock-undeclared
        drop(stats);
    }
}
