//! Collection strategies: `proptest::collection::vec`.

use crate::strategy::{Strategy, ValueTree};
use crate::test_runner::TestRunner;
use std::ops::{Range, RangeInclusive};

/// A length constraint for [`vec()`].
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    /// Inclusive upper bound.
    max: usize,
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty vec size range");
        SizeRange { min: r.start, max: r.end - 1 }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty vec size range");
        SizeRange { min: *r.start(), max: *r.end() }
    }
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { min: n, max: n }
    }
}

/// Generates `Vec`s whose length lies in `size` with elements from
/// `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy { element, size: size.into() }
}

/// The strategy returned by [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S> Strategy for VecStrategy<S>
where
    S: Strategy,
    S::Value: 'static,
{
    type Value = Vec<S::Value>;
    fn new_tree(&self, runner: &mut TestRunner) -> Box<dyn ValueTree<Value = Self::Value>> {
        let span = (self.size.max - self.size.min) as u64 + 1;
        let len = self.size.min + runner.below(span) as usize;
        let children = (0..len).map(|_| self.element.new_tree(runner)).collect();
        Box::new(VecTree {
            children,
            removed: Vec::new(),
            min: self.size.min,
            len_done: false,
            cursor: 0,
            last: Last::None,
        })
    }
}

enum Last {
    None,
    PoppedLen,
    Element(usize),
}

struct VecTree<V> {
    children: Vec<Box<dyn ValueTree<Value = V>>>,
    removed: Vec<Box<dyn ValueTree<Value = V>>>,
    min: usize,
    len_done: bool,
    cursor: usize,
    last: Last,
}

impl<V> ValueTree for VecTree<V> {
    type Value = Vec<V>;

    fn current(&self) -> Vec<V> {
        self.children.iter().map(|c| c.current()).collect()
    }

    fn simplify(&mut self) -> bool {
        // Phase 1: drop elements from the tail down to the minimum
        // length; phase 2: shrink surviving elements left to right.
        if !self.len_done && self.children.len() > self.min {
            self.removed.push(self.children.pop().expect("len > min >= 0"));
            self.last = Last::PoppedLen;
            return true;
        }
        self.len_done = true;
        while self.cursor < self.children.len() {
            if self.children[self.cursor].simplify() {
                self.last = Last::Element(self.cursor);
                return true;
            }
            self.cursor += 1;
        }
        false
    }

    fn complicate(&mut self) -> bool {
        match std::mem::replace(&mut self.last, Last::None) {
            Last::PoppedLen => {
                let c = self.removed.pop().expect("popped element must exist");
                self.children.push(c);
                // The dropped tail element was load-bearing; stop
                // shrinking the length and move on to elements.
                self.len_done = true;
                true
            }
            Last::Element(i) => self.children[i].complicate(),
            Last::None => false,
        }
    }
}
