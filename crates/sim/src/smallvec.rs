//! A small vector for the per-message hot path.
//!
//! [`SmallVec<T, N>`] keeps up to `N` elements inline and moves all of
//! them to the heap only when an `N + 1`-th arrives. The datapath's
//! per-PDU lists — a message's segments, a delivered PDU's receive
//! descriptors — hold one to four entries in every measured
//! configuration, so building, moving and cloning them touches no
//! allocator. Longer lists stay correct and simply spill.
//!
//! Elements are `Copy + Default`, which keeps the type free of `unsafe`:
//! the inline array is always fully initialised and unused slots hold
//! `T::default()`.

use std::ops::{Deref, DerefMut};

/// Up to `N` elements inline, spilling to a `Vec` beyond that.
#[derive(Clone)]
pub struct SmallVec<T: Copy + Default, const N: usize> {
    /// Live elements while not spilled: `inline[..len]`.
    inline: [T; N],
    len: usize,
    /// Every element once the list outgrew `N` (then `len` is unused).
    heap: Option<Vec<T>>,
}

impl<T: Copy + Default, const N: usize> SmallVec<T, N> {
    /// The empty list.
    pub fn new() -> Self {
        SmallVec {
            inline: [T::default(); N],
            len: 0,
            heap: None,
        }
    }

    /// The elements, in order.
    pub fn as_slice(&self) -> &[T] {
        match &self.heap {
            Some(v) => v,
            None => &self.inline[..self.len],
        }
    }

    /// The elements, in order, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.heap {
            Some(v) => v,
            None => &mut self.inline[..self.len],
        }
    }

    /// Appends `x`.
    pub fn push(&mut self, x: T) {
        match &mut self.heap {
            Some(v) => v.push(x),
            None if self.len < N => {
                self.inline[self.len] = x;
                self.len += 1;
            }
            None => {
                let mut v = Vec::with_capacity(2 * N + 1);
                v.extend_from_slice(&self.inline[..self.len]);
                v.push(x);
                self.heap = Some(v);
            }
        }
    }

    /// Inserts `x` at `index`, shifting later elements back.
    ///
    /// # Panics
    /// Panics if `index > len`.
    pub fn insert(&mut self, index: usize, x: T) {
        assert!(index <= self.len(), "insert index out of bounds");
        self.push(x);
        self.as_mut_slice()[index..].rotate_right(1);
    }

    /// Removes and returns the element at `index`, shifting later
    /// elements forward.
    ///
    /// # Panics
    /// Panics if `index >= len`.
    pub fn remove(&mut self, index: usize) -> T {
        match &mut self.heap {
            Some(v) => v.remove(index),
            None => {
                assert!(index < self.len, "remove index out of bounds");
                let x = self.inline[index];
                self.inline[index..self.len].rotate_left(1);
                self.len -= 1;
                x
            }
        }
    }

    /// Appends every element of `xs`.
    pub fn extend_from_slice(&mut self, xs: &[T]) {
        for &x in xs {
            self.push(x);
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for SmallVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for SmallVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for SmallVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for SmallVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for SmallVec<T, N> {}

impl<T: Copy + Default + std::fmt::Debug, const N: usize> std::fmt::Debug for SmallVec<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: Copy + Default, const N: usize> From<&[T]> for SmallVec<T, N> {
    fn from(xs: &[T]) -> Self {
        let mut v = SmallVec::new();
        v.extend_from_slice(xs);
        v
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for SmallVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = SmallVec::new();
        for x in iter {
            v.push(x);
        }
        v
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a SmallVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_up_to_n_then_spills_in_order() {
        let mut v: SmallVec<u32, 4> = SmallVec::new();
        for i in 0..4 {
            v.push(i);
        }
        assert!(v.heap.is_none());
        assert_eq!(&v[..], &[0, 1, 2, 3]);
        v.push(4);
        assert!(v.heap.is_some());
        assert_eq!(&v[..], &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn insert_and_remove_match_vec_inline_and_spilled() {
        let mut v: SmallVec<u32, 3> = SmallVec::new();
        let mut want = Vec::new();
        for (i, at) in [0usize, 0, 1, 3, 2, 0, 6].into_iter().enumerate() {
            v.insert(at, i as u32);
            want.insert(at, i as u32);
            assert_eq!(&v[..], &want[..]);
        }
        for at in [0usize, 3, 1, 0] {
            assert_eq!(v.remove(at), want.remove(at));
            assert_eq!(&v[..], &want[..]);
        }
        let mut w: SmallVec<u32, 3> = [5, 6, 7].into_iter().collect();
        assert_eq!(w.remove(1), 6);
        w.insert(0, 4);
        assert_eq!(&w[..], &[4, 5, 7]);
        assert!(w.heap.is_none());
    }

    #[test]
    fn equality_and_clone_compare_elements_only() {
        let a: SmallVec<u8, 2> = SmallVec::from(&[1u8, 2, 3][..]);
        let b: SmallVec<u8, 2> = [1u8, 2, 3].into_iter().collect();
        assert_eq!(a, b);
        assert_eq!(a.clone(), a);
        assert_ne!(a, SmallVec::from(&[1u8, 2][..]));
        assert_eq!(format!("{a:?}"), "[1, 2, 3]");
    }
}
