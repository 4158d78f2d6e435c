//! Fixture: locks acquired against the declared order, nested in one body
//! (a path of zero calls) or only across functions (further down).
//! Checked under the virtual path of the scheduler, whose declared order
//! is `queues` before `arena` before `root` before `error`.

impl Shared {
    pub fn backwards(&self) {
        let arena = self.arena.lock();
        let queues = self.queues.lock(); //~ lock-order-graph
        drop(queues);
        drop(arena);
    }

    pub fn reentrant(&self) {
        let first = self.root.lock();
        let second = self.root.lock(); //~ lock-order-graph
        drop(second);
        drop(first);
    }

    // Inversions that only exist *across* functions: each body below is
    // locally clean, and only the call graph connects the guard to the
    // acquisition. The two-lock deadlock cycle: `forward_path` holds
    // `queues` while its callee takes `arena` (legal, forward through the
    // order), and `backward_path` holds `arena` while its callee takes
    // `queues` (flagged — two threads running these concurrently deadlock).

    pub fn forward_path(&self) {
        let queues = self.queues.lock();
        self.take_arena();
        drop(queues);
    }

    pub fn backward_path(&self) {
        let arena = self.arena.lock();
        self.take_queues(); //~ lock-order-graph
        drop(arena);
    }

    pub fn reentrant_path(&self) {
        let root = self.root.lock();
        self.take_root_again(); //~ lock-order-graph
        drop(root);
    }

    pub fn take_arena(&self) {
        let arena = self.arena.lock();
        drop(arena);
    }

    pub fn take_queues(&self) {
        let queues = self.queues.lock();
        drop(queues);
    }

    pub fn take_root_again(&self) {
        let root = self.root.lock();
        drop(root);
    }
}
