//! Content stamps by construction.
//!
//! Memo caches across the workspace rest on one invariant: **equal stamps
//! imply identical contents**. A decomposition cache bound to a world
//! table's stamp, or a violation memo keyed on relation stamps, may only
//! be reused while that stamp still names the same contents. [`Stamped`]
//! carries that invariant in its type: the value and its stamp are private
//! fields of this module, reads go through [`Deref`], and the only way to
//! reach the value mutably is [`Stamped::get_mut`], which refreshes the
//! stamp first.
//!
//! ```compile_fail,E0596
//! use uprob_wsd::Stamped;
//!
//! let mut rows = Stamped::new(vec![1, 2, 3]);
//! rows.push(4); // no `DerefMut`: a write must go through `get_mut`
//! ```

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of fresh stamps for every stamped value (0 is reserved for
/// "unbound").
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

fn fresh_stamp() -> u64 {
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// A value with a content stamp: refreshed on every mutable access and
/// shared by clones, so equal stamps imply identical contents.
///
/// A mutator that can fail should validate before it calls
/// [`get_mut`](Stamped::get_mut): a failed mutation then keeps the stamp,
/// and caches bound to it stay valid.
///
/// ```
/// use uprob_wsd::Stamped;
///
/// let mut rows = Stamped::new(vec![1, 2, 3]);
/// let copy = rows.clone();
/// assert_eq!(copy.stamp(), rows.stamp());
/// rows.get_mut().push(4);
/// assert_ne!(copy.stamp(), rows.stamp());
/// assert_eq!(rows.len(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct Stamped<T> {
    value: T,
    stamp: u64,
}

impl<T> Stamped<T> {
    /// Wraps `value` under a fresh stamp.
    pub fn new(value: T) -> Self {
        Stamped {
            value,
            stamp: fresh_stamp(),
        }
    }

    /// The content stamp: unique to these contents, shared only with
    /// unmutated clones.
    #[inline]
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Mutable access to the value. Refreshes the stamp whether or not the
    /// caller writes, since the old stamp can no longer witness the
    /// contents.
    pub fn get_mut(&mut self) -> &mut T {
        self.stamp = fresh_stamp();
        &mut self.value
    }
}

impl<T> Deref for Stamped<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_mut_refreshes_the_stamp() {
        let mut value = Stamped::new(vec![1u32]);
        let before = value.stamp();
        value.get_mut().push(2);
        assert_ne!(value.stamp(), before);
        assert_eq!(*value, vec![1, 2]);
        // Mutable access refreshes even without a write.
        let touched = value.stamp();
        let _ = value.get_mut();
        assert_ne!(value.stamp(), touched);
    }

    #[test]
    fn a_clone_shares_the_stamp_until_it_is_mutated() {
        let original = Stamped::new(String::from("w"));
        let mut clone = original.clone();
        assert_eq!(clone.stamp(), original.stamp());
        clone.get_mut().push('\'');
        assert_ne!(clone.stamp(), original.stamp());
        assert_eq!(original.as_str(), "w");
    }

    #[test]
    fn two_new_values_never_share_a_stamp() {
        let a = Stamped::new(0u8);
        let b = Stamped::new(0u8);
        assert_ne!(a.stamp(), b.stamp());
        assert_ne!(a.stamp(), 0, "0 stays reserved for unbound");
    }
}
