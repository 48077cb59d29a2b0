//! The one representation of page history: a chain of stamped reverse
//! diffs hanging off a page's current image.
//!
//! "Page P as of version V" is asked by a slave's tagged readers whose
//! page was upgraded past their tag (stamps are table versions), and
//! answered here: whoever moves a page from stamp `to` up to stamp
//! `from` pushes the reverse diff that undoes the move,
//! [`VersionChain::image_at`] walks those steps back from the current
//! image, and [`VersionChain::prune`] drops the steps no reader can
//! still need. A step's payload is proportional to the bytes the move
//! changed, so no history structure stores a full page image.
//!
//! The chain has one owner, the replication layer's applier
//! (`dmv-core`): a master keeps one image per page and no history. It
//! is plain data with no lock of its own: its owner keeps it under the
//! same lock that orders the page's moves.

use crate::diff::PageDiff;
use crate::page::Image;
use std::collections::VecDeque;
use std::sync::Arc;

/// Applying `rev` to the page's image at stamp `from` yields its image
/// at stamp `to` (`to < from`).
struct Step {
    from: u64,
    to: u64,
    rev: PageDiff,
}

/// A page's retained reverse steps, oldest first.
#[derive(Default)]
pub struct VersionChain {
    steps: VecDeque<Step>,
}

impl VersionChain {
    /// Records that the page moved from stamp `to` up to stamp `from`
    /// and that `rev` undoes the move. Keeps at most `cap` steps,
    /// dropping the oldest.
    pub fn push(&mut self, from: u64, to: u64, rev: PageDiff, cap: usize) {
        debug_assert!(to < from, "a step must move the page forward ({to} -> {from})");
        if self.steps.len() >= cap {
            self.steps.pop_front();
        }
        self.steps.push_back(Step { from, to, rev });
    }

    /// The image the page had at stamp `want`, walked back from its
    /// `current` image at stamp `current_stamp`. A page is unchanged
    /// between two recorded moves, so landing *at or below* `want` is
    /// exact. `None` when the retained steps do not reach `want`: capped
    /// or pruned away, or the page moved without a recorded step (a
    /// migration image), which shows as a break in the `from`/`to` links.
    /// A walk that applies no step returns `current` itself; one that
    /// does copies it once, at the first step.
    pub fn image_at(&self, current: &Image, current_stamp: u64, want: u64) -> Option<Image> {
        let mut stamp = current_stamp;
        let mut image = Arc::clone(current);
        for step in self.steps.iter().rev() {
            if stamp <= want {
                break;
            }
            if step.from != stamp {
                return None;
            }
            step.rev.apply(&mut Arc::make_mut(&mut image)[..]);
            stamp = step.to;
        }
        (stamp <= want).then_some(image)
    }

    /// Drops every step whose `from` is at or below `keep` — a walk for
    /// any `want >= keep` stops before it would apply one — and returns
    /// how many went. Stamps rise along the chain, so these are its
    /// oldest steps.
    pub fn prune(&mut self, keep: u64) -> usize {
        let dead = self.steps.iter().take_while(|s| s.from <= keep).count();
        self.steps.drain(..dead);
        dead
    }

    /// Retained steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when no step is retained.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{image_of, PAGE_SIZE};
    use proptest::prelude::*;

    fn page(byte0: u8) -> Image {
        let mut p = Arc::new([0u8; PAGE_SIZE]);
        Arc::make_mut(&mut p)[0] = byte0;
        p
    }

    /// Chain over images `1, 2, .. n` at stamps `10, 20, .. 10n` above a
    /// zero page at stamp 0; returns it with the current image.
    fn chain_of(n: u8, cap: usize) -> (VersionChain, Image) {
        let mut chain = VersionChain::default();
        let mut cur = page(0);
        for v in 1..=n {
            let next = page(v);
            let rev = PageDiff::compute(&next[..], &cur[..]);
            chain.push(v as u64 * 10, (v as u64 - 1) * 10, rev, cap);
            cur = next;
        }
        (chain, cur)
    }

    #[test]
    fn a_walk_that_applies_no_step_returns_the_current_image_itself() {
        let (chain, cur) = chain_of(3, usize::MAX);
        assert!(Arc::ptr_eq(&chain.image_at(&cur, 30, 30).unwrap(), &cur));
        assert!(Arc::ptr_eq(&chain.image_at(&cur, 30, 99).unwrap(), &cur));
        assert!(Arc::ptr_eq(&VersionChain::default().image_at(&cur, 30, 30).unwrap(), &cur));
        let rewound = chain.image_at(&cur, 30, 10).unwrap();
        assert!(!Arc::ptr_eq(&rewound, &cur));
        assert_eq!(cur[0], 3, "a rewind leaves the current image alone");
    }

    #[test]
    fn walk_lands_on_the_image_at_or_below_want() {
        let (chain, cur) = chain_of(3, usize::MAX);
        assert_eq!(chain.image_at(&cur, 30, 30).unwrap()[0], 3);
        assert_eq!(chain.image_at(&cur, 30, 99).unwrap()[0], 3);
        assert_eq!(chain.image_at(&cur, 30, 29).unwrap()[0], 2, "nothing moved in (20, 30)");
        assert_eq!(chain.image_at(&cur, 30, 10).unwrap()[0], 1);
        assert_eq!(chain.image_at(&cur, 30, 0).unwrap()[0], 0, "the pre-creation image");
    }

    #[test]
    fn cap_and_prune_shorten_the_reachable_window() {
        let (mut chain, cur) = chain_of(5, 3);
        assert_eq!(chain.len(), 3);
        assert_eq!(chain.image_at(&cur, 50, 20).unwrap()[0], 2);
        assert!(chain.image_at(&cur, 50, 19).is_none(), "fell off the cap");
        assert_eq!(chain.prune(40), 2);
        assert_eq!(chain.image_at(&cur, 50, 40).unwrap()[0], 4);
        assert!(chain.image_at(&cur, 50, 39).is_none(), "pruned");
        assert_eq!(chain.prune(u64::MAX), 1);
        assert!(chain.is_empty());
        assert_eq!(chain.image_at(&cur, 50, 50).unwrap()[0], 5);
    }

    #[test]
    fn an_unrecorded_move_breaks_the_walk() {
        let (mut chain, _) = chain_of(2, usize::MAX);
        // The page jumps 20 -> 35 with no step (a migration image), then
        // moves 35 -> 40 normally.
        let (at35, at40) = (page(35), page(40));
        chain.push(40, 35, PageDiff::compute(&at40[..], &at35[..]), usize::MAX);
        assert_eq!(chain.image_at(&at40, 40, 35).unwrap()[0], 35);
        assert!(chain.image_at(&at40, 40, 34).is_none(), "20 -> 35 was never recorded");
    }

    /// One page move in the property below.
    #[derive(Debug, Clone)]
    enum Op {
        /// The page moves `gap` stamps up to a new image; `recorded`
        /// moves push their reverse step, the others model a migration
        /// image installed over the page.
        Move { gap: u64, edits: Vec<(usize, u8)>, recorded: bool },
        /// `prune` at the current stamp minus `lag`.
        Prune { lag: u64 },
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let edits = proptest::collection::vec((0usize..PAGE_SIZE, any::<u8>()), 0..12);
        prop_oneof![
            (1u64..5, edits, 0u8..8).prop_map(|(gap, edits, r)| Op::Move {
                gap,
                edits,
                recorded: r != 0
            }),
            (0u64..12).prop_map(|lag| Op::Prune { lag }),
        ]
    }

    proptest! {
        /// The chain against the representation it replaced — a list of
        /// full page images, each with the stamp it became current at:
        /// `image_at` equals the newest listed image at or below `want`
        /// for every `want` the list still covers, and is `None` exactly
        /// below it.
        #[test]
        fn matches_a_full_image_oracle(
            cap in 1usize..6,
            ops in proptest::collection::vec(arb_op(), 1..24),
        ) {
            let mut chain = VersionChain::default();
            let mut oracle: Vec<(u64, Vec<u8>)> = vec![(0, vec![0u8; PAGE_SIZE])];
            for op in ops {
                let (stamp, current) = oracle.last().cloned().expect("never empty");
                match op {
                    Op::Move { gap, edits, recorded } => {
                        let mut next = current.clone();
                        for (i, b) in edits {
                            next[i] = b;
                        }
                        if recorded {
                            let rev = PageDiff::compute(&next, &current);
                            chain.push(stamp + gap, stamp, rev, cap);
                            if oracle.len() > cap {
                                oracle.remove(0);
                            }
                        } else {
                            oracle.clear();
                        }
                        oracle.push((stamp + gap, next));
                    }
                    Op::Prune { lag } => {
                        let keep = stamp.saturating_sub(lag);
                        chain.prune(keep);
                        // An image goes once its successor is at or
                        // below the floor.
                        while oracle.len() > 1 && oracle[1].0 <= keep {
                            oracle.remove(0);
                        }
                    }
                }
                let (stamp, current) = oracle.last().expect("never empty");
                let current = image_of(current);
                prop_assert!(chain.len() <= cap);
                for want in 0..=stamp + 1 {
                    let expect =
                        oracle.iter().rev().find(|(s, _)| *s <= want).map(|(_, i)| &i[..]);
                    let got = chain.image_at(&current, *stamp, want);
                    let got = got.as_ref().map(|i| &i[..]);
                    prop_assert_eq!(got, expect, "want {} at stamp {}", want, stamp);
                }
            }
        }
    }
}
