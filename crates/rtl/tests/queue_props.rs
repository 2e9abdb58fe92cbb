//! Property tests for the bisynchronous queue in isolation.
//!
//! The fabric-level differential suite exercises queues only through
//! whole kernels; these properties pin the queue's own contract across
//! arbitrary rational producer/consumer clock pairs: tokens are never
//! lost, duplicated, or reordered; the occupancy flags always agree
//! with `len`; and the eager-fork take discipline delivers the front
//! token exactly once to every configured user before popping. The
//! ring that stores the tokens is checked against a `VecDeque` model
//! over runs long enough to wrap it many times.

use std::collections::VecDeque;
use uecgra_clock::{ClockSet, VfMode};
use uecgra_rtl::queue::{BisyncQueue, TakeError, Token};
use uecgra_util::{check::forall, SplitMix64};

/// A random valid clock plan (rest/nominal multiples of sprint), the
/// same family the clock crate's own property tests draw from.
fn arb_clockset(rng: &mut SplitMix64) -> ClockSet {
    let sprint = 1 + rng.range(5) as u32;
    let nominal = sprint * (1 + rng.range(4) as u32);
    let rest = nominal * (1 + rng.range(4) as u32);
    ClockSet::new([rest, nominal, sprint]).expect("ordered")
}

fn arb_mode(rng: &mut SplitMix64) -> VfMode {
    VfMode::ALL[rng.range(3)]
}

#[test]
fn no_loss_duplication_or_reorder_across_rational_pairs() {
    forall(192, |rng| {
        let clocks = arb_clockset(rng);
        let src = arb_mode(rng);
        let dst = arb_mode(rng);
        let dst_period = clocks.period(dst);
        let mut q = BisyncQueue::new(1 + rng.range(3));
        let total = 16 + rng.range(48) as u32;

        let mut sent = 0u32;
        let mut received = Vec::new();
        // Walk every PLL tick: the producer pushes a fresh sequence
        // number on its rising edges whenever the queue has room, the
        // consumer pops on its rising edges whenever the suppressor
        // aging rule makes the front token visible.
        let deadline = 64 * clocks.hyperperiod() * u64::from(total);
        let mut t = 0u64;
        while (received.len() as u32) < total {
            assert!(
                t <= deadline,
                "{src}->{dst}: queue stopped making progress ({}/{total} after {t} ticks)",
                received.len()
            );
            if clocks.is_rising(dst, t) {
                if let Some(v) = q.front_visible(t, dst_period) {
                    assert_eq!(q.pop().value, v);
                    received.push(v);
                }
            }
            if clocks.is_rising(src, t) && sent < total && q.can_push() {
                q.push(sent, t);
                sent += 1;
            }
            t += 1;
        }
        // Conservation: exactly the pushed sequence, in order.
        let expect: Vec<u32> = (0..total).collect();
        assert_eq!(received, expect, "{src}->{dst}: stream corrupted");
        assert!(q.is_empty(), "{src}->{dst}: stragglers left behind");
    });
}

#[test]
fn occupancy_flags_always_agree_with_len() {
    forall(192, |rng| {
        let cap = 1 + rng.range(4);
        let mut q = BisyncQueue::new(cap);
        let mut expected_len = 0usize;
        for step in 0..200u64 {
            // Interleave pushes and pops at random, checking the flag
            // contract after every operation.
            if q.can_push() && (q.is_empty() || rng.range(2) == 0) {
                q.push(step as u32, step);
                expected_len += 1;
            } else {
                q.pop();
                expected_len -= 1;
            }
            assert_eq!(q.len(), expected_len);
            assert_eq!(q.capacity(), cap);
            assert_eq!(q.is_empty(), expected_len == 0);
            assert_eq!(q.can_push(), expected_len < cap, "full flag out of sync");
            assert!(q.len() <= q.capacity(), "overflowed its capacity");
        }
    });
}

#[test]
fn eager_fork_delivers_once_per_user_and_pops_after_the_last() {
    forall(192, |rng| {
        // A random non-empty user set out of {compute, bypass0, bypass1}.
        let mut required = [false; 3];
        while required.iter().all(|&u| !u) {
            for r in &mut required {
                *r = rng.range(2) == 0;
            }
        }
        let users: Vec<usize> = (0..3).filter(|&u| required[u]).collect();
        let mut q = BisyncQueue::new(2);
        let total = 8 + rng.range(16) as u32;
        let mut sent = 0u32;
        let mut received: Vec<Vec<u32>> = vec![Vec::new(); 3];
        while received[users[0]].len() < total as usize {
            if q.can_push() && sent < total {
                q.push(sent, 0);
                sent += 1;
            }
            // Let each pending user take the front in a random order;
            // only the last configured taker may pop.
            let mut order = users.clone();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.range(i + 1));
            }
            let before = q.len();
            for (k, &u) in order.iter().enumerate() {
                let v = q
                    .front_visible_for(u64::MAX, 1, u)
                    .expect("front pending for this user");
                assert!(q.front_pending_for(u));
                let popped = q.take(u, required);
                received[u].push(v);
                assert_eq!(
                    popped,
                    k + 1 == order.len(),
                    "popped early or failed to pop on the last taker"
                );
            }
            assert_eq!(q.len(), before - 1);
        }
        // Every configured user saw the exact stream; nobody saw a
        // token twice or out of order.
        let expect: Vec<u32> = (0..total).collect();
        for &u in &users {
            assert_eq!(received[u], expect, "user {u} stream corrupted");
        }
        for u in 0..3 {
            if !required[u] {
                assert!(received[u].is_empty());
            }
        }
    });
}

#[test]
fn visibility_is_monotonic_once_aged() {
    forall(192, |rng| {
        let clocks = arb_clockset(rng);
        let dst = arb_mode(rng);
        let p = clocks.period(dst);
        let written = rng.range_u64(0, 4 * clocks.hyperperiod());
        let mut q = BisyncQueue::new(2);
        q.push(7, written);
        // Invisible strictly before one receiver period has elapsed,
        // visible from then on, forever.
        for t in written..written + 3 * p {
            let vis = q.front_visible(t, p).is_some();
            assert_eq!(
                vis,
                t >= written + p,
                "at t={t} (written {written}, period {p})"
            );
        }
    });
}

/// A random non-empty set of eager-fork users out of {compute,
/// bypass0, bypass1}.
fn arb_users(rng: &mut SplitMix64) -> [bool; 3] {
    let mut required = [false; 3];
    while required.iter().all(|&u| !u) {
        for r in &mut required {
            *r = rng.bool();
        }
    }
    required
}

/// The queue's contract over a plain deque: tokens in arrival order,
/// plus which users have taken the front one.
struct Model {
    tokens: VecDeque<Token>,
    taken: [bool; 3],
    capacity: usize,
}

impl Model {
    fn try_push(&mut self, value: u32, t: u64) -> bool {
        let room = self.tokens.len() < self.capacity;
        if room {
            self.tokens.push_back(Token { value, written: t });
        }
        room
    }

    fn try_take(&mut self, user: usize, required: [bool; 3]) -> Result<bool, TakeError> {
        if self.tokens.is_empty() {
            return Err(TakeError::Empty);
        }
        if self.taken[user] {
            return Err(TakeError::DoubleTake { user });
        }
        self.taken[user] = true;
        let done = (0..3).all(|u| !required[u] || self.taken[u]);
        if done {
            self.try_pop();
        }
        Ok(done)
    }

    fn try_pop(&mut self) -> Option<Token> {
        self.taken = [false; 3];
        self.tokens.pop_front()
    }
}

#[test]
fn ring_matches_a_deque_model() {
    forall(192, |rng| {
        let capacity = 1 + rng.range(4);
        let required = arb_users(rng);
        let mut q = BisyncQueue::new(capacity);
        let mut model = Model {
            tokens: VecDeque::new(),
            taken: [false; 3],
            capacity,
        };
        let mut pops = 0usize;
        for t in 0..600u64 {
            match rng.range(3) {
                0 => {
                    let value = rng.next_u32();
                    assert_eq!(
                        q.try_push(value, t),
                        model.try_push(value, t),
                        "push at {t}"
                    );
                }
                1 => {
                    let user = rng.range(3);
                    let took = q.try_take(user, required);
                    assert_eq!(took, model.try_take(user, required), "take at {t}");
                    pops += usize::from(took == Ok(true));
                }
                _ => {
                    let popped = q.try_pop();
                    assert_eq!(popped, model.try_pop(), "pop at {t}");
                    pops += usize::from(popped.is_some());
                }
            }
            assert_eq!(q.len(), model.tokens.len());
            assert_eq!(q.is_empty(), model.tokens.is_empty());
            assert_eq!(q.can_push(), model.tokens.len() < capacity);
            assert_eq!(q.front(), model.tokens.front().copied());
            for user in 0..3 {
                let pending = !model.tokens.is_empty() && !model.taken[user];
                assert_eq!(q.front_pending_for(user), pending);
                let visible = model
                    .tokens
                    .front()
                    .filter(|tok| pending && t >= tok.written + 2)
                    .map(|tok| tok.value);
                assert_eq!(
                    q.front_visible_for(t, 2, user),
                    visible,
                    "user {user} at {t}"
                );
            }
        }
        assert!(
            pops >= 20 * capacity,
            "only {pops} pops: the ring of {capacity} did not wrap many times"
        );
    });
}

#[test]
fn equal_tokens_compare_equal_whatever_the_history() {
    forall(192, |rng| {
        let capacity = 1 + rng.range(4);
        let held: Vec<(u32, u64)> = (1..=rng.range(capacity + 1))
            .map(|i| (rng.next_u32(), i as u64))
            .collect();
        let mut fresh = BisyncQueue::new(capacity);
        for &(value, t) in &held {
            fresh.push(value, t);
        }
        // The same tokens after a random churn that moves the ring's
        // front and leaves stale tokens in its slots.
        let mut churned = BisyncQueue::new(capacity);
        let required = arb_users(rng);
        for _ in 0..rng.range(4 * capacity) {
            churned.push(rng.next_u32(), 99);
            if rng.bool() {
                churned.pop();
            } else {
                for user in (0..3).filter(|&u| required[u]) {
                    churned.take(user, required);
                }
            }
        }
        for &(value, t) in &held {
            churned.push(value, t);
        }
        assert_eq!(fresh, churned);
        // A token or an eager-fork mark more on one side breaks it.
        if churned.can_push() {
            let mut longer = churned.clone();
            longer.push(7, 7);
            assert_ne!(fresh, longer);
        }
        if !churned.is_empty() {
            churned.take(0, [true, true, true]);
            assert_ne!(fresh, churned);
        }
    });
}
