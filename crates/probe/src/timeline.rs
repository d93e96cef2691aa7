//! Span/event timeline storage.
//!
//! Spans use `&'static str` names/categories so recording a span is two
//! pointer copies and four integers — no allocation on the hot path. The
//! timeline is capped (default 1M spans) with an explicit dropped-event
//! counter so a pathological probed run degrades gracefully instead of
//! eating all memory; exporters report the drop count rather than silently
//! truncating.

use std::cell::{Cell, RefCell};

use crate::SimTime;

/// Default cap on stored spans + instants (each).
pub const TIMELINE_CAP: usize = 1 << 20;

/// One completed duration span (`ph:"X"` in Chrome trace terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Process id in the trace — by convention the *home node* of the
    /// activity (where the contended resource lives).
    pub pid: u32,
    /// Thread id — by convention the acting node / rank.
    pub tid: u32,
    /// Static span name, e.g. `"lock_acquire"`.
    pub name: &'static str,
    /// Static category, e.g. `"lock"`.
    pub cat: &'static str,
    /// Start, simulated ns.
    pub ts: SimTime,
    /// Duration, simulated ns.
    pub dur: SimTime,
}

/// One instantaneous event (`ph:"i"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instant {
    pub pid: u32,
    pub tid: u32,
    pub name: &'static str,
    pub cat: &'static str,
    pub ts: SimTime,
}

/// Capped span/instant store.
#[derive(Debug)]
pub struct Timeline {
    spans: RefCell<Vec<Span>>,
    instants: RefCell<Vec<Instant>>,
    cap: usize,
    dropped: Cell<u64>,
}

impl Timeline {
    pub fn new(cap: usize) -> Self {
        Timeline {
            spans: RefCell::new(Vec::new()),
            instants: RefCell::new(Vec::new()),
            cap,
            dropped: Cell::new(0),
        }
    }

    pub fn span(&self, s: Span) {
        let mut v = self.spans.borrow_mut();
        if v.len() < self.cap {
            v.push(s);
        } else {
            self.dropped.set(self.dropped.get() + 1);
        }
    }

    pub fn instant(&self, i: Instant) {
        let mut v = self.instants.borrow_mut();
        if v.len() < self.cap {
            v.push(i);
        } else {
            self.dropped.set(self.dropped.get() + 1);
        }
    }

    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    pub fn instant_count(&self) -> usize {
        self.instants.borrow().len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    pub fn instants(&self) -> Vec<Instant> {
        self.instants.borrow().clone()
    }
}

impl Default for Timeline {
    fn default() -> Self {
        Self::new(TIMELINE_CAP)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_caps_and_counts_drops() {
        let t = Timeline::new(2);
        for i in 0..5 {
            t.span(Span {
                pid: 0,
                tid: 0,
                name: "s",
                cat: "c",
                ts: i,
                dur: 1,
            });
        }
        assert_eq!(t.span_count(), 2);
        assert_eq!(t.dropped(), 3);
    }
}
