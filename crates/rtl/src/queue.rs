//! Bisynchronous input queues.
//!
//! Every PE input is a two-entry elastic queue that correctly bridges
//! clock domains with known rational phase relationships (paper
//! Sections IV-A and V). Writes are source-synchronous (the producer
//! pushes on its own rising edge and the write time is recorded with
//! the data); reads happen on the consumer's rising edges and are
//! gated by the elasticity-aware suppressor invariant: a token is
//! readable once it has aged at least one receiver clock period, which
//! is exactly "safe edge, or unsafe edge with data enqueued longer
//! than one local cycle" (see `uecgra_clock::checker`).
//!
//! A queue is a fixed ring: a boxed slice of `capacity` tokens plus
//! the index of the front token and the occupancy. Pushes and pops
//! move an index and never allocate or grow; the slice is allocated
//! once, when the queue is built.

/// Why a non-panicking take failed (see [`BisyncQueue::try_take`]).
/// Either case is a scheduling bug — the protocol checker converts it
/// into a fatal `ProtocolViolation` instead of aborting the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TakeError {
    /// The queue holds no token.
    Empty,
    /// `user` already consumed the current front token.
    DoubleTake {
        /// The offending local user (0 = compute, 1/2 = bypass).
        user: usize,
    },
}

/// A timestamped token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Token {
    /// Payload.
    pub value: u32,
    /// PLL tick at which the producer enqueued it.
    pub written: u64,
}

/// A two-entry (configurable) bisynchronous queue.
///
/// # Examples
///
/// ```
/// use uecgra_rtl::queue::BisyncQueue;
///
/// let mut q = BisyncQueue::new(2);
/// q.push(7, 0);
/// // A nominal consumer (period 3) cannot read a fresh token...
/// assert_eq!(q.front_visible(2, 3), None);
/// // ...but can once it has aged one receiver period.
/// assert_eq!(q.front_visible(3, 3), Some(7));
/// ```
///
/// Two queues compare equal when they hold the same tokens in the same
/// order, with the same capacity and eager-fork marks, wherever in the
/// ring those tokens sit.
#[derive(Debug, Clone)]
pub struct BisyncQueue {
    /// The ring; its length is the capacity. Slots outside the
    /// `len` tokens from `head` (wrapping) hold stale tokens.
    ring: Box<[Token]>,
    /// Ring index of the front token.
    head: usize,
    /// Occupancy.
    len: usize,
    /// Eager-fork bookkeeping: which local users (compute, bypass 0,
    /// bypass 1) have already consumed the front token. The token pops
    /// once every configured user has taken it, so consumers proceed
    /// independently — the elastic "eager fork" that prevents circular
    /// waits between a PE's operand and its bypass of the same net.
    front_taken: [bool; 3],
}

impl BisyncQueue {
    /// Create a queue with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> BisyncQueue {
        assert!(capacity > 0, "queues need at least one entry");
        BisyncQueue {
            ring: vec![Token::default(); capacity].into_boxed_slice(),
            head: 0,
            len: 0,
            front_taken: [false; 3],
        }
    }

    /// The queued tokens, front first.
    fn tokens(&self) -> impl Iterator<Item = &Token> {
        self.ring.iter().cycle().skip(self.head).take(self.len)
    }

    /// Occupancy.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when a producer may push this cycle (registered ready:
    /// capacity check against the state at the start of the tick).
    pub fn can_push(&self) -> bool {
        self.len < self.ring.len()
    }

    /// Enqueue a token written at tick `t`.
    ///
    /// # Panics
    ///
    /// Panics on overflow — producers must check [`BisyncQueue::can_push`].
    pub fn push(&mut self, value: u32, t: u64) {
        assert!(self.try_push(value, t), "queue overflow");
    }

    /// Enqueue a token written at tick `t`, returning `false` (and
    /// leaving the queue untouched) on overflow. The engine-facing
    /// path: a credit-less push becomes a fatal `Overflow` protocol
    /// violation instead of a panic.
    pub fn try_push(&mut self, value: u32, t: u64) -> bool {
        if !self.can_push() {
            return false;
        }
        let mut tail = self.head + self.len;
        if tail >= self.ring.len() {
            tail -= self.ring.len();
        }
        self.ring[tail] = Token { value, written: t };
        self.len += 1;
        true
    }

    /// The front token, if any (not suppressor-gated — callers wanting
    /// visibility semantics use [`BisyncQueue::front_visible`]).
    pub fn front(&self) -> Option<Token> {
        (self.len > 0).then(|| self.ring[self.head])
    }

    /// The front token's value if it is visible to a consumer whose
    /// clock period is `receiver_period`, at tick `t`.
    pub fn front_visible(&self, t: u64, receiver_period: u64) -> Option<u32> {
        self.front()
            .filter(|tok| t >= tok.written + receiver_period)
            .map(|tok| tok.value)
    }

    /// Like [`BisyncQueue::front_visible`], but `None` once `user` has
    /// already taken the front token (eager-fork semantics).
    pub fn front_visible_for(&self, t: u64, receiver_period: u64, user: usize) -> Option<u32> {
        if self.front_taken[user] {
            return None;
        }
        self.front_visible(t, receiver_period)
    }

    /// True when a front token exists that `user` has not yet taken —
    /// i.e. the consumer is waiting on *visibility* (suppressor aging
    /// or an unsafe edge), not on data arrival. Used by the stall
    /// classifier to tell suppressed edges from operand starvation.
    pub fn front_pending_for(&self, user: usize) -> bool {
        self.len > 0 && !self.front_taken[user]
    }

    /// Record that `user` consumed the front token, then pop it once
    /// every user in `required` has taken it.
    ///
    /// Returns `true` when this take actually popped the front token —
    /// the queue's wakeup edge: a pop frees a slot, so the producer
    /// feeding this queue may become unblocked. The event-driven
    /// engine uses the return value to re-arm that producer; the dense
    /// reference stepper ignores it.
    ///
    /// # Panics
    ///
    /// Panics when empty or on double-take.
    pub fn take(&mut self, user: usize, required: [bool; 3]) -> bool {
        match self.try_take(user, required) {
            Ok(popped) => popped,
            Err(TakeError::Empty) => panic!("take from empty queue"),
            Err(TakeError::DoubleTake { user }) => panic!("double take by user {user}"),
        }
    }

    /// Like [`BisyncQueue::take`], but a mis-scheduled take returns a
    /// [`TakeError`] instead of panicking. The engine-facing path: the
    /// protocol checker converts the error into a fatal
    /// `ProtocolViolation` and the run stops with a structured
    /// `Error::Protocol`.
    pub fn try_take(&mut self, user: usize, required: [bool; 3]) -> Result<bool, TakeError> {
        if self.len == 0 {
            return Err(TakeError::Empty);
        }
        if self.front_taken[user] {
            return Err(TakeError::DoubleTake { user });
        }
        self.front_taken[user] = true;
        let done = (0..3).all(|u| !required[u] || self.front_taken[u]);
        if done {
            self.pop_front();
        }
        Ok(done)
    }

    /// Remove and return the front token (single-user queues).
    ///
    /// # Panics
    ///
    /// Panics when empty.
    pub fn pop(&mut self) -> Token {
        self.try_pop().expect("pop from empty queue")
    }

    /// Remove and return the front token, or `None` when empty
    /// (single-user queues; resets eager-fork bookkeeping either way).
    pub fn try_pop(&mut self) -> Option<Token> {
        let front = self.front();
        if front.is_some() {
            self.pop_front();
        } else {
            self.front_taken = [false; 3];
        }
        front
    }

    /// Drop the front token of a non-empty queue and clear the
    /// eager-fork marks.
    fn pop_front(&mut self) {
        self.head += 1;
        if self.head == self.ring.len() {
            self.head = 0;
        }
        self.len -= 1;
        self.front_taken = [false; 3];
    }

    /// Queue capacity.
    pub fn capacity(&self) -> usize {
        self.ring.len()
    }
}

impl PartialEq for BisyncQueue {
    fn eq(&self, other: &BisyncQueue) -> bool {
        self.capacity() == other.capacity()
            && self.front_taken == other.front_taken
            && self.tokens().eq(other.tokens())
    }
}

impl Eq for BisyncQueue {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = BisyncQueue::new(2);
        q.push(1, 0);
        q.push(2, 0);
        assert_eq!(q.pop().value, 1);
        assert_eq!(q.pop().value, 2);
    }

    #[test]
    fn capacity_enforced() {
        let mut q = BisyncQueue::new(2);
        q.push(1, 0);
        q.push(2, 0);
        assert!(!q.can_push());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut q = BisyncQueue::new(1);
        q.push(1, 0);
        q.push(2, 0);
    }

    #[test]
    fn visibility_requires_one_receiver_period() {
        let mut q = BisyncQueue::new(2);
        q.push(42, 6);
        // Sprint consumer (period 2): visible from tick 8.
        assert_eq!(q.front_visible(7, 2), None);
        assert_eq!(q.front_visible(8, 2), Some(42));
        // Rest consumer (period 9): only from tick 15.
        assert_eq!(q.front_visible(14, 9), None);
        assert_eq!(q.front_visible(15, 9), Some(42));
    }

    #[test]
    fn eager_fork_pops_after_all_users() {
        let mut q = BisyncQueue::new(2);
        q.push(5, 0);
        q.push(6, 0);
        let required = [true, true, false];
        assert_eq!(q.front_visible_for(10, 3, 0), Some(5));
        assert!(!q.take(0, required), "first user does not pop");
        // User 0 no longer sees the front; user 1 still does.
        assert_eq!(q.front_visible_for(10, 3, 0), None);
        assert_eq!(q.front_visible_for(10, 3, 1), Some(5));
        assert_eq!(q.len(), 2, "token stays until all users take");
        assert!(q.take(1, required), "last user pops");
        assert_eq!(q.len(), 1, "popped after the last user");
        assert_eq!(q.front_visible_for(10, 3, 0), Some(6));
    }

    #[test]
    #[should_panic(expected = "double take")]
    fn double_take_panics() {
        let mut q = BisyncQueue::new(2);
        q.push(5, 0);
        q.take(0, [true, true, false]);
        q.take(0, [true, true, false]);
    }

    #[test]
    fn try_variants_report_instead_of_panicking() {
        let mut q = BisyncQueue::new(1);
        assert_eq!(q.try_pop(), None);
        assert_eq!(q.try_take(0, [true, false, false]), Err(TakeError::Empty));
        assert!(q.try_push(9, 2));
        assert!(!q.try_push(10, 2), "overflow rejected, not panicked");
        assert_eq!(
            q.front(),
            Some(Token {
                value: 9,
                written: 2
            })
        );
        assert_eq!(q.try_take(1, [false, true, true]), Ok(false));
        assert_eq!(
            q.try_take(1, [false, true, true]),
            Err(TakeError::DoubleTake { user: 1 })
        );
        assert_eq!(q.try_take(2, [false, true, true]), Ok(true));
        assert!(q.is_empty());
    }

    #[test]
    fn only_front_matters() {
        let mut q = BisyncQueue::new(2);
        q.push(1, 0);
        q.push(2, 100);
        assert_eq!(q.front_visible(3, 3), Some(1));
        q.pop();
        assert_eq!(q.front_visible(3, 3), None, "second token still fresh");
    }
}
