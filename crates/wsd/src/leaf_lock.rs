//! A poison-tolerant mutex whose guard lives for one closure.

#[cfg(debug_assertions)]
use std::cell::Cell;
use std::sync::{Mutex, PoisonError};

/// A mutex for *leaf* critical sections: one short update of the guarded
/// data, during which no other lock is taken.
///
/// The guard exists only inside [`with`](LeafLock::with). The closure gets
/// `&mut T` and can return neither it nor anything borrowed from it, so no
/// guard is ever held across a return, stored, or still live when the
/// caller takes its next lock. Debug builds also refuse to start one leaf
/// section inside another on the same thread, so a lock nested under a
/// leaf fails the test suite. This fails to compile:
///
/// ```compile_fail
/// let leaf: uprob_wsd::LeafLock<Vec<u32>> = uprob_wsd::LeafLock::default();
/// let escaped = leaf.with(|m| m);
/// ```
///
/// The lock is **poison-tolerant**: after a closure panics, the next `with`
/// recovers the guard instead of propagating the panic. That is sound only
/// when every closure leaves `T` valid at every step, which is what a leaf
/// section is for: each caller's closure is a single map operation that
/// either completes or leaves the map untouched.
#[derive(Debug, Default)]
pub struct LeafLock<T>(Mutex<T>);

impl<T> LeafLock<T> {
    /// Runs `section` on the guarded value under the lock.
    pub fn with<R>(&self, section: impl FnOnce(&mut T) -> R) -> R {
        #[cfg(debug_assertions)]
        let _section = LeafSection::enter();
        #[expect(
            clippy::disallowed_methods,
            reason = "the sanctioned Mutex::lock of leaf sections: the guard cannot escape `section`"
        )]
        let mut guard = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        section(&mut guard)
    }
}

#[cfg(debug_assertions)]
thread_local! {
    /// Whether this thread is inside a [`LeafLock::with`] section.
    static IN_SECTION: Cell<bool> = const { Cell::new(false) };
}

/// Marks this thread as inside a leaf section until dropped, unwinding
/// included.
#[cfg(debug_assertions)]
struct LeafSection;

#[cfg(debug_assertions)]
impl LeafSection {
    fn enter() -> Self {
        let nested = IN_SECTION.with(|inside| inside.replace(true));
        assert!(
            !nested,
            "leaf locks do not nest: a LeafLock section started inside another"
        );
        LeafSection
    }
}

#[cfg(debug_assertions)]
impl Drop for LeafSection {
    fn drop(&mut self) {
        IN_SECTION.with(|inside| inside.set(false));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_section_poisons_and_the_next_one_recovers() {
        let leaf: LeafLock<Vec<u32>> = LeafLock::default();
        leaf.with(|v| v.push(1));
        let panicked = std::panic::catch_unwind(|| leaf.with(|_| panic!("inside the section")));
        assert!(panicked.is_err());
        assert!(leaf.0.is_poisoned());
        assert_eq!(leaf.with(|v| v.clone()), vec![1]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "leaf locks do not nest")]
    fn a_section_inside_another_is_refused() {
        let outer: LeafLock<u32> = LeafLock::default();
        let inner: LeafLock<u32> = LeafLock::default();
        outer.with(|_| inner.with(|_| ()));
    }
}
