//! Fixture: lock usage — nested in one body and across functions — that
//! respects the declared order `queues` before `arena` before `root`
//! before `error`, never nests, or drops the outer guard before calling
//! down.

impl Shared {
    pub fn in_order(&self) {
        let queues = self.queues.lock();
        let arena = self.arena.lock();
        drop(arena);
        drop(queues);
    }

    pub fn disjoint(&self) {
        {
            let queues = self.queues.lock();
            drop(queues);
        }
        {
            let arena = self.arena.lock();
            drop(arena);
        }
    }

    pub fn forward_path(&self) {
        let queues = self.queues.lock();
        self.take_arena();
        drop(queues);
    }

    pub fn drop_before_call(&self) {
        {
            let arena = self.arena.lock();
            drop(arena);
        }
        self.take_queues();
    }

    pub fn sequential_not_nested(&self) {
        self.take_arena();
        self.take_queues();
    }

    pub fn take_arena(&self) {
        let arena = self.arena.lock();
        drop(arena);
    }

    pub fn take_queues(&self) {
        let queues = self.queues.lock();
        drop(queues);
    }
}
