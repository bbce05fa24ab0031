//! The shared-memory communication fabric connecting simulated devices.
//!
//! Real DGCL moves bytes over NVLink/PCIe/IB with the decentralized
//! ready/done flag protocol of §6.1: a sender waits for the receiver's
//! *ready* flag before it writes into the receiver's buffer, then sets
//! the *done* flag. Here devices are threads and a message is a
//! `Vec<f32>` dropped into a per-(sender, receiver) mailbox under a key
//! that names its op, stage, substage and chunk ([`MsgKey`]):
//!
//! * *ready* has nothing to guard. No two messages share a buffer, so a
//!   sender posts at once, even before the receiver has entered the op,
//!   and the message waits under its key until it is received.
//! * *done* is the post itself (posting the payload and setting the done
//!   flag are one atomic insert).
//!
//! What bounds how much can sit in a mailbox is the program, not the
//! fabric: every training step ends in a gradient allreduce, which no
//! rank leaves before every rank has entered it.
//!
//! There is no master in the data path: the only shared state is the
//! peer-to-peer mailboxes. Every operation, the model-gradient allreduce
//! and the sampled row exchange included, is a program of sends and
//! receives over them run by one executor ([`crate::pipeline`]), so a
//! device blocks in exactly one way, a mailbox [`Fabric::recv`], and only
//! inside that executor — or inside the uncompiled reference walkers of
//! [`crate::runtime`] it is tested against.
//!
//! # Abortability
//!
//! The paper's protocol has no failure story: a dead peer leaves every
//! wait on it blocked forever. This fabric therefore adds exactly what
//! production collective stacks (NCCL's abort/timeout semantics) add on
//! top:
//!
//! * a **poison state** — the first failing device records its rank and
//!   cause via [`Fabric::poison`]; every blocked receive wakes and
//!   unwinds with [`RuntimeError::Poisoned`];
//! * a **collective deadline** — a receive that outlives
//!   [`FabricConfig::collective_deadline`] returns
//!   [`RuntimeError::Timeout`] instead of blocking eternally;
//! * a **fault-injection boundary** — a [`FaultPlan`] can delay,
//!   duplicate or reorder messages (which the keyed protocol must absorb
//!   bitwise-identically) or crash ranks (which must poison, not hang).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::collectives::AllreducePolicy;
use crate::error::{ClusterFailure, RuntimeError};
use crate::fault::FaultPlan;

/// Identifies one batched message: `(operation, stage, substage, chunk)`.
/// Unchunked messages (the reference walkers', and every one-stage
/// exchange's at key `(op, 0, 0, 0)`) use chunk `0`; the pipelined
/// executor keys each fixed-size row chunk separately so a relay can
/// forward chunk `k` while chunk `k + 1` is still in flight.
pub type MsgKey = (u64, u32, u32, u32);

/// Flags a payload whose length disagrees with the schedule — a protocol
/// bug, never a user error. Shared by the compiled, reference and
/// pipelined executors so the check cannot drift between paths.
///
/// # Errors
///
/// [`RuntimeError::Protocol`] when `got != want`.
pub fn expect_payload(
    rank: usize,
    got: usize,
    want: usize,
    key: MsgKey,
) -> Result<(), RuntimeError> {
    if got == want {
        Ok(())
    } else {
        Err(RuntimeError::Protocol {
            rank,
            detail: format!("payload for {key:?} has {got} floats, schedule expects {want}"),
        })
    }
}

/// Locks `mutex`, recovering the guard if a thread panicked while
/// holding it. A rank that dies inside the fabric must not turn its
/// peers' lock calls into panics: they unwind through the fabric's own
/// poison state instead, with a typed error. Every critical section
/// leaves its map whole at each point that can panic.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How long a blocked receive sleeps between poison and deadline
/// checks. A send or a poison wakes it sooner.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

/// Maximum number of retired buffers the recycle pool retains.
const MAX_POOLED_BUFFERS: usize = 256;

/// Maximum total bytes (summed capacity) the recycle pool retains.
const MAX_POOLED_BYTES: usize = 256 << 20;

/// Messages held back by reorder faults, keyed by `(src, dst)` link.
type HeldMessages = HashMap<(usize, usize), Vec<(MsgKey, Vec<f32>)>>;

/// Runtime configuration of one cluster run's fabric.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Upper bound on any single mailbox receive. A peer that makes no
    /// progress for this long produces [`RuntimeError::Timeout`] on the
    /// waiter instead of an eternal block.
    pub collective_deadline: Duration,
    /// Which allreduce algorithm [`DeviceHandle::allreduce`] dispatches
    /// to, either fixed or picked per message size by a tuned selector.
    /// The default is the flat allreduce (gather into rank 0, broadcast
    /// back).
    ///
    /// [`DeviceHandle::allreduce`]: crate::runtime::DeviceHandle::allreduce
    pub allreduce: AllreducePolicy,
    /// Elements per pipeline chunk for the zoo collectives (ring,
    /// halving/doubling, broadcast). Chunking never changes bits —
    /// only how finely chunks stream through the dependency pipeline.
    pub collective_chunk: usize,
    /// Faults to inject at the fabric boundary.
    pub faults: FaultPlan,
}

impl Default for FabricConfig {
    fn default() -> Self {
        Self {
            collective_deadline: Duration::from_secs(30),
            allreduce: AllreducePolicy::default(),
            collective_chunk: 4096,
            faults: FaultPlan::none(),
        }
    }
}

#[derive(Default)]
struct Mailbox {
    slots: Mutex<HashMap<MsgKey, Vec<f32>>>,
    signal: Condvar,
}

/// First-failure record: the rank that poisoned the fabric and why.
struct PoisonInfo {
    rank: usize,
    cause: ClusterFailure,
}

/// Retired payload buffers awaiting reuse, capped by count and bytes.
#[derive(Default)]
struct BufferPool {
    bufs: Vec<Vec<f32>>,
    total_bytes: usize,
}

/// The fabric shared by all device threads of one cluster run.
pub struct Fabric {
    num_devices: usize,
    config: FabricConfig,
    /// `mailboxes[src * n + dst]`.
    mailboxes: Vec<Mailbox>,
    /// Fast-path flag mirroring `poison.is_some()`; checked by every
    /// receive without taking the lock.
    poison_flag: AtomicBool,
    poison: Mutex<Option<PoisonInfo>>,
    /// Messages held back by reorder faults, per `(src, dst)` link.
    held: Mutex<HeldMessages>,
    /// Retired payload buffers awaiting reuse; in steady state every
    /// payload and scratch buffer of the collectives is drawn from here
    /// instead of the allocator.
    buffers: Mutex<BufferPool>,
}

impl Fabric {
    /// Creates a fabric for `num_devices` devices with default limits.
    pub fn new(num_devices: usize) -> Self {
        Self::with_config(num_devices, FabricConfig::default())
    }

    /// Creates a fabric with explicit deadline, collective and fault
    /// settings.
    pub fn with_config(num_devices: usize, config: FabricConfig) -> Self {
        Self {
            num_devices,
            config,
            mailboxes: (0..num_devices * num_devices)
                .map(|_| Mailbox::default())
                .collect(),
            poison_flag: AtomicBool::new(false),
            poison: Mutex::new(None),
            held: Mutex::new(HashMap::new()),
            buffers: Mutex::new(BufferPool::default()),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// Takes an empty buffer with at least `capacity` floats of room from
    /// the recycle pool, growing one only when the pool cannot satisfy
    /// the request. Picks the *best fit* (smallest sufficient capacity)
    /// so small requests do not consume the pool's large buffers. Pair
    /// with [`Fabric::recycle`].
    pub fn checkout(&self, capacity: usize) -> Vec<f32> {
        // A zero-capacity request must not steal a pooled buffer (every
        // buffer would "fit" and best-fit would hand out the smallest).
        // Empty payloads stay off the pool entirely, mirroring
        // `recycle`'s zero-capacity early return.
        if capacity == 0 {
            return Vec::new();
        }
        let mut pool = lock(&self.buffers);
        let fit = pool
            .bufs
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= capacity)
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i);
        let mut buf = match fit {
            Some(i) => pool.bufs.swap_remove(i),
            // Nothing fits: grow the largest pooled buffer (it is the
            // cheapest to extend) rather than allocating from scratch.
            None => {
                let largest = pool
                    .bufs
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, b)| b.capacity())
                    .map(|(i, _)| i);
                match largest {
                    Some(i) => pool.bufs.swap_remove(i),
                    None => Vec::new(),
                }
            }
        };
        pool.total_bytes = pool.total_bytes.saturating_sub(4 * buf.capacity());
        drop(pool);
        buf.clear();
        buf.reserve(capacity);
        buf
    }

    /// Returns a buffer to the recycle pool. Buffers beyond the
    /// configured count or byte caps are dropped instead of retained, so
    /// mixed payload sizes cannot grow the pool monotonically.
    pub fn recycle(&self, buf: Vec<f32>) {
        let bytes = 4 * buf.capacity();
        if bytes == 0 {
            return;
        }
        let mut pool = lock(&self.buffers);
        if pool.bufs.len() >= MAX_POOLED_BUFFERS || pool.total_bytes + bytes > MAX_POOLED_BYTES {
            return;
        }
        pool.total_bytes += bytes;
        pool.bufs.push(buf);
    }

    /// Current recycle-pool occupancy: `(buffer count, total bytes)`.
    pub fn pool_stats(&self) -> (usize, usize) {
        let pool = lock(&self.buffers);
        (pool.bufs.len(), pool.total_bytes)
    }

    /// Poisons the fabric: records `(rank, cause)` if it is the first
    /// failure and wakes every blocked wait so the cluster unwinds
    /// instead of hanging. Later poisons keep the first record.
    pub fn poison(&self, rank: usize, cause: ClusterFailure) {
        {
            let mut p = lock(&self.poison);
            if p.is_none() {
                *p = Some(PoisonInfo { rank, cause });
            }
        }
        self.poison_flag.store(true, Ordering::Release);
        for mb in &self.mailboxes {
            mb.signal.notify_all();
        }
    }

    /// Whether any device has failed.
    pub fn is_poisoned(&self) -> bool {
        self.poison_flag.load(Ordering::Acquire)
    }

    /// The first failure as `(rank, cause)`, if any.
    pub fn poison_info(&self) -> Option<(usize, ClusterFailure)> {
        lock(&self.poison)
            .as_ref()
            .map(|p| (p.rank, p.cause.clone()))
    }

    /// The error a *waiting* device should unwind with once the fabric is
    /// poisoned.
    fn poison_error(&self) -> RuntimeError {
        match self.poison_info() {
            Some((rank, cause)) => RuntimeError::Poisoned {
                origin: rank,
                reason: cause.to_string(),
            },
            // Raced with the flag: the record is being written.
            None => RuntimeError::Poisoned {
                origin: usize::MAX,
                reason: "fabric poisoned".to_string(),
            },
        }
    }

    /// Fails fast if the fabric is poisoned.
    pub fn check_poison(&self) -> Result<(), RuntimeError> {
        if self.is_poisoned() {
            Err(self.poison_error())
        } else {
            Ok(())
        }
    }

    /// Applies benign message faults and posts a payload from `src` to
    /// `dst` under `key` (the done flag).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Protocol`] if the same key is posted twice (a
    /// protocol bug — injected duplicates are absorbed internally and do
    /// not trip this).
    pub fn send(
        &self,
        src: usize,
        dst: usize,
        key: MsgKey,
        payload: Vec<f32>,
    ) -> Result<(), RuntimeError> {
        if !self.config.faults.is_empty() {
            return self.send_faulted(src, dst, key, payload);
        }
        self.deliver(src, dst, key, payload, false)
    }

    /// The faulted send path: sleeps for injected link delay, holds
    /// reordered messages, flushes previously held ones after the current
    /// message (so the pair arrives swapped), and posts duplicates.
    fn send_faulted(
        &self,
        src: usize,
        dst: usize,
        key: MsgKey,
        payload: Vec<f32>,
    ) -> Result<(), RuntimeError> {
        let faults = &self.config.faults;
        let delay = faults.delay_for(src, dst, key.1);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        let duplicate = faults.duplicates(src, dst, key.1);
        if faults.reorders(src, dst, key.1) {
            let mut held = lock(&self.held);
            let q = held.entry((src, dst)).or_default();
            if q.is_empty() {
                // Hold the message; the link's next send (or the
                // receiver's demand) releases it out of order.
                q.push((key, payload));
                if duplicate {
                    let clone = q[0].1.clone();
                    q.push((key, clone));
                }
                return Ok(());
            }
        }
        if duplicate {
            self.deliver(src, dst, key, payload.clone(), false)?;
            self.deliver(src, dst, key, payload, true)?;
        } else {
            self.deliver(src, dst, key, payload, false)?;
        }
        self.release_held(src, dst)
    }

    /// Delivers every held message on `(src, dst)` — called after a later
    /// message of the link has been posted (reordering the pair) and by
    /// blocked receivers (so a hold can never become a hang).
    fn release_held(&self, src: usize, dst: usize) -> Result<(), RuntimeError> {
        let drained = match lock(&self.held).get_mut(&(src, dst)) {
            Some(q) => std::mem::take(q),
            None => return Ok(()),
        };
        for (key, payload) in drained {
            // Held duplicates hit an occupied or already-consumed slot;
            // both are absorbed.
            self.deliver(src, dst, key, payload, true)?;
        }
        Ok(())
    }

    /// Inserts into the mailbox. `tolerate_duplicate` absorbs an occupied
    /// slot (injected duplicate) instead of flagging a protocol bug.
    fn deliver(
        &self,
        src: usize,
        dst: usize,
        key: MsgKey,
        payload: Vec<f32>,
        tolerate_duplicate: bool,
    ) -> Result<(), RuntimeError> {
        let mb = &self.mailboxes[src * self.num_devices + dst];
        let mut slots = lock(&mb.slots);
        if let Some(prev) = slots.insert(key, payload) {
            if !tolerate_duplicate {
                return Err(RuntimeError::Protocol {
                    rank: src,
                    detail: format!("duplicate message {key:?} from {src} to {dst}"),
                });
            }
            // Keep the first arrival; payloads of duplicates are
            // identical so either choice is bitwise-equivalent.
            slots.insert(key, prev);
        }
        mb.signal.notify_all();
        Ok(())
    }

    /// Blocks until the payload for `key` from `src` arrives at `dst`,
    /// then removes and returns it: the fabric's one blocking wait.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Poisoned`] once the fabric is poisoned, and
    /// [`RuntimeError::Timeout`] (`op: "recv"`) once the wait outlives
    /// [`FabricConfig::collective_deadline`].
    pub fn recv(&self, src: usize, dst: usize, key: MsgKey) -> Result<Vec<f32>, RuntimeError> {
        let mb = &self.mailboxes[src * self.num_devices + dst];
        let start = Instant::now();
        loop {
            // A reorder fault may be holding the message; the receiver's
            // demand forces delivery so a hold can never hang the run.
            if !self.config.faults.is_empty() {
                self.release_held(src, dst)?;
            }
            let mut slots = lock(&mb.slots);
            if let Some(payload) = slots.remove(&key) {
                return Ok(payload);
            }
            self.check_poison()?;
            if start.elapsed() > self.config.collective_deadline {
                return Err(RuntimeError::Timeout {
                    rank: dst,
                    op: "recv",
                    stage: format!("message {key:?} from {src} never arrived"),
                });
            }
            // The loop re-locks at its top, so the woken guard goes.
            drop(
                mb.signal
                    .wait_timeout(slots, POLL_INTERVAL)
                    .unwrap_or_else(PoisonError::into_inner),
            );
        }
    }

    /// Non-blocking [`Fabric::recv`]: removes and returns the payload for
    /// `key` if it has arrived, `None` otherwise. The pipelined executor
    /// polls with this between dependency-ready entries so it never
    /// blocks on one chunk while another is already deliverable.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Poisoned`] when the fabric is poisoned and the
    /// message is absent (a present message is still handed out so a
    /// receiver can drain completed work before unwinding).
    pub fn try_recv(
        &self,
        src: usize,
        dst: usize,
        key: MsgKey,
    ) -> Result<Option<Vec<f32>>, RuntimeError> {
        // A reorder fault may be holding the message; demand delivery.
        if !self.config.faults.is_empty() {
            self.release_held(src, dst)?;
        }
        let mb = &self.mailboxes[src * self.num_devices + dst];
        if let Some(payload) = lock(&mb.slots).remove(&key) {
            return Ok(Some(payload));
        }
        self.check_poison()?;
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_recv_round_trip() {
        let f = Fabric::new(2);
        f.send(0, 1, (1, 0, 0, 0), vec![1.0, 2.0]).expect("send");
        assert_eq!(f.recv(0, 1, (1, 0, 0, 0)).expect("recv"), vec![1.0, 2.0]);
    }

    #[test]
    fn recv_blocks_until_send() {
        let f = std::sync::Arc::new(Fabric::new(2));
        let f2 = f.clone();
        let t = std::thread::spawn(move || f2.recv(0, 1, (7, 1, 0, 0)));
        std::thread::sleep(std::time::Duration::from_millis(10));
        f.send(0, 1, (7, 1, 0, 0), vec![3.5]).expect("send");
        assert_eq!(t.join().expect("no panic").expect("recv"), vec![3.5]);
    }

    #[test]
    fn duplicate_key_is_a_protocol_error() {
        let f = Fabric::new(2);
        f.send(0, 1, (1, 0, 0, 0), vec![]).expect("first send");
        let err = f.send(0, 1, (1, 0, 0, 0), vec![]).expect_err("duplicate");
        assert!(
            matches!(err, RuntimeError::Protocol { rank: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn recv_times_out_instead_of_hanging() {
        let f = Fabric::with_config(
            2,
            FabricConfig {
                collective_deadline: Duration::from_millis(50),
                ..FabricConfig::default()
            },
        );
        let err = f.recv(0, 1, (1, 0, 0, 0)).expect_err("nothing sent");
        assert!(
            matches!(err, RuntimeError::Timeout { op: "recv", .. }),
            "{err}"
        );
    }

    #[test]
    fn poison_wakes_blocked_receivers() {
        let f = std::sync::Arc::new(Fabric::new(2));
        let f2 = f.clone();
        let t = std::thread::spawn(move || f2.recv(0, 1, (9, 0, 0, 0)));
        std::thread::sleep(Duration::from_millis(10));
        f.poison(0, ClusterFailure::Panic("dead device".to_string()));
        let err = t.join().expect("no panic").expect_err("poisoned");
        match err {
            RuntimeError::Poisoned { origin, reason } => {
                assert_eq!(origin, 0);
                assert!(reason.contains("dead device"), "{reason}");
            }
            other => panic!("expected poison, got {other}"),
        }
    }

    #[test]
    fn first_poison_wins() {
        let f = Fabric::new(4);
        f.poison(3, ClusterFailure::Panic("first".to_string()));
        f.poison(1, ClusterFailure::Panic("second".to_string()));
        let (rank, cause) = f.poison_info().expect("poisoned");
        assert_eq!(rank, 3);
        assert_eq!(cause, ClusterFailure::Panic("first".to_string()));
    }

    #[test]
    fn checkout_reuses_recycled_capacity() {
        let f = Fabric::new(1);
        let mut buf = f.checkout(16);
        buf.extend_from_slice(&[1.0; 16]);
        let ptr = buf.as_ptr();
        let cap = buf.capacity();
        f.recycle(buf);
        let again = f.checkout(16);
        assert!(again.is_empty(), "checked-out buffers arrive cleared");
        assert_eq!(again.as_ptr(), ptr, "capacity is recycled, not reallocated");
        assert_eq!(again.capacity(), cap);
        // A larger request than any pooled buffer still succeeds.
        f.recycle(again);
        assert!(f.checkout(1024).capacity() >= 1024);
    }

    #[test]
    fn checkout_prefers_best_fit() {
        let f = Fabric::new(1);
        for cap in [1024usize, 64, 256] {
            let mut b = Vec::with_capacity(cap);
            b.push(0.0f32);
            f.recycle(b);
        }
        let got = f.checkout(60);
        assert_eq!(got.capacity(), 64, "smallest sufficient buffer wins");
        let got2 = f.checkout(100);
        assert_eq!(got2.capacity(), 256);
    }

    #[test]
    fn zero_capacity_checkout_leaves_the_pool_alone() {
        let f = Fabric::new(1);
        let mut b = Vec::with_capacity(64);
        b.push(0.0f32);
        f.recycle(b);
        let before = f.pool_stats();
        // Used to steal the smallest pooled buffer: every buffer has
        // capacity >= 0, so best-fit handed one out for free.
        let empty = f.checkout(0);
        assert_eq!(empty.capacity(), 0, "no pooled buffer is stolen");
        assert_eq!(f.pool_stats(), before);
        f.recycle(empty); // Zero-capacity recycle is a no-op too.
        assert_eq!(f.pool_stats(), before);
    }

    #[test]
    fn pool_stays_bounded_over_varying_sizes() {
        let f = Fabric::new(1);
        // Retiring many distinct payload sizes used to grow the pool
        // monotonically (recycle never dropped).
        for round in 0..2 * MAX_POOLED_BUFFERS {
            let size = 16 + (round * 97) % 3000;
            f.recycle(Vec::with_capacity(size));
            let (count, _) = f.pool_stats();
            assert!(
                count <= MAX_POOLED_BUFFERS,
                "pool count {count} exceeds cap at round {round}"
            );
        }
        assert_eq!(f.pool_stats().0, MAX_POOLED_BUFFERS);
        // The byte cap: a buffer that would push the summed capacity past
        // it is dropped. Its pages are never touched, so it costs no
        // resident memory.
        let f = Fabric::new(1);
        f.recycle(Vec::with_capacity(MAX_POOLED_BYTES / 4 - 16));
        let before = f.pool_stats();
        f.recycle(Vec::with_capacity(64));
        assert_eq!(
            f.pool_stats(),
            before,
            "a buffer past the byte cap is dropped"
        );
        assert!(before.1 <= MAX_POOLED_BYTES);
    }

    #[test]
    fn a_rank_dying_inside_a_lock_leaves_the_fabric_usable() {
        // A reorder fault routes the send through the `held` map.
        let cfg = FabricConfig {
            faults: crate::fault::FaultPlan {
                events: vec![crate::fault::FaultEvent::Reorder {
                    src: 0,
                    dst: 1,
                    stage: 0,
                }],
            },
            ..FabricConfig::default()
        };
        let f = Fabric::with_config(2, cfg);
        let link = &f.mailboxes[1]; // (src 0, dst 1)
        std::thread::scope(|s| {
            let died = s.spawn(|| {
                let _slots = lock(&link.slots);
                let _held = lock(&f.held);
                let _buffers = lock(&f.buffers);
                let _poison = lock(&f.poison);
                panic!("rank dies holding the fabric's locks");
            });
            assert!(died.join().is_err());
        });
        assert!(link.slots.is_poisoned() && f.held.is_poisoned());
        assert!(f.buffers.is_poisoned() && f.poison.is_poisoned());
        // Held on send, released by the receiver's demand.
        f.send(0, 1, (1, 0, 0, 0), vec![7.0]).expect("send");
        assert_eq!(f.recv(0, 1, (1, 0, 0, 0)).expect("recv"), vec![7.0]);
        // A receiver that waits on the condvar of a poisoned lock.
        std::thread::scope(|s| {
            let waiter = s.spawn(|| f.recv(0, 1, (2, 1, 0, 0)));
            std::thread::sleep(Duration::from_millis(10));
            f.send(0, 1, (2, 1, 0, 0), vec![3.5]).expect("send");
            assert_eq!(waiter.join().expect("no panic").expect("recv"), vec![3.5]);
        });
        f.recycle(f.checkout(16));
        assert_eq!(f.pool_stats().0, 1);
        f.poison(1, ClusterFailure::Panic("dead device".to_string()));
        let err = f.recv(0, 1, (3, 0, 0, 0)).expect_err("poisoned");
        assert!(
            matches!(err, RuntimeError::Poisoned { origin: 1, .. }),
            "{err}"
        );
        assert_eq!(f.poison_info().map(|(rank, _)| rank), Some(1));
    }

    #[test]
    fn injected_duplicate_is_absorbed() {
        let cfg = FabricConfig {
            faults: crate::fault::FaultPlan {
                events: vec![crate::fault::FaultEvent::Duplicate {
                    src: 0,
                    dst: 1,
                    stage: 0,
                }],
            },
            ..FabricConfig::default()
        };
        let f = Fabric::with_config(2, cfg);
        f.send(0, 1, (1, 0, 0, 0), vec![2.5]).expect("send");
        assert_eq!(f.recv(0, 1, (1, 0, 0, 0)).expect("recv"), vec![2.5]);
    }

    #[test]
    fn reordered_message_still_arrives() {
        let cfg = FabricConfig {
            collective_deadline: Duration::from_secs(5),
            faults: crate::fault::FaultPlan {
                events: vec![crate::fault::FaultEvent::Reorder {
                    src: 0,
                    dst: 1,
                    stage: 0,
                }],
            },
            ..FabricConfig::default()
        };
        let f = Fabric::with_config(2, cfg);
        // Held on send...
        f.send(0, 1, (1, 0, 0, 0), vec![7.0]).expect("send");
        // ...but the receiver's demand releases it.
        assert_eq!(f.recv(0, 1, (1, 0, 0, 0)).expect("recv"), vec![7.0]);
        // A later message on the link releases an earlier held one.
        f.send(0, 1, (2, 0, 0, 0), vec![1.0]).expect("send held");
        f.send(0, 1, (2, 1, 0, 0), vec![2.0]).expect("send release");
        assert_eq!(f.recv(0, 1, (2, 1, 0, 0)).expect("recv"), vec![2.0]);
        assert_eq!(f.recv(0, 1, (2, 0, 0, 0)).expect("recv"), vec![1.0]);
    }
}
