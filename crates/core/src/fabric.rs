//! The shared-memory communication fabric connecting simulated devices.
//!
//! Real DGCL moves bytes over NVLink/PCIe/IB with the decentralized
//! ready/done flag protocol of §6.1; here devices are threads and a
//! message is a `Vec<f32>` dropped into a per-(sender, receiver) mailbox.
//! The flags map onto this as:
//!
//! * *ready* — an atomic per-device operation counter; a sender spins
//!   until the receiver has entered the same collective before posting,
//!   exactly like waiting for the peer's ready flag before writing into
//!   its buffer.
//! * *done* — message availability in the mailbox (posting the payload
//!   and setting the done flag are one atomic insert here).
//!
//! There is no master in the data path: the only shared state is
//! peer-to-peer mailboxes and the allreduce rendezvous used for model
//! (not embedding) synchronisation, mirroring the paper's use of
//! Horovod/DDP for the small model weights.
//!
//! # Abortability
//!
//! The paper's protocol has no failure story: a dead peer leaves every
//! ready/done wait spinning forever. This fabric therefore adds exactly
//! what production collective stacks (NCCL's abort/timeout semantics)
//! add on top:
//!
//! * a **poison state** — the first failing device records its rank and
//!   cause via [`Fabric::poison`]; every blocked wait wakes and unwinds
//!   with [`RuntimeError::Poisoned`];
//! * a **collective deadline** — waits that outlive
//!   [`FabricConfig::collective_deadline`] return
//!   [`RuntimeError::Timeout`] instead of blocking eternally;
//! * a **fault-injection boundary** — a [`FaultPlan`] can delay,
//!   duplicate or reorder messages (which the keyed protocol must absorb
//!   bitwise-identically) or crash ranks (which must poison, not hang).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dgcl_tensor::Matrix;
use parking_lot::{Condvar, Mutex};

use crate::collectives::AllreducePolicy;
use crate::error::{ClusterFailure, RuntimeError};
use crate::fault::FaultPlan;

/// Identifies one batched message: `(operation, stage, substage, chunk)`.
/// Unchunked paths (the reference walkers, the sampled row exchange,
/// CAGNET's chain hops) always use chunk `0`; the pipelined executor keys
/// each fixed-size row chunk separately so a relay can forward chunk `k`
/// while chunk `k + 1` is still in flight.
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

/// Messages held back by reorder faults, keyed by `(src, dst)` link.
type HeldMessages = HashMap<(usize, usize), Vec<(MsgKey, Vec<f32>)>>;

/// Runtime configuration of one cluster run's fabric.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Upper bound on any single ready/done/allreduce wait. A peer that
    /// makes no progress for this long produces [`RuntimeError::Timeout`]
    /// on the waiter instead of an eternal block.
    pub collective_deadline: Duration,
    /// How long a blocked wait sleeps between poison/deadline checks.
    /// Chaos tests and latency sweeps can tighten it; the default keeps
    /// the historical 5 ms tick.
    pub poll_interval: Duration,
    /// Which allreduce algorithm [`DeviceHandle::allreduce`] dispatches
    /// to, either fixed or picked per message size by a tuned selector.
    /// The default keeps the rendezvous reference.
    ///
    /// [`DeviceHandle::allreduce`]: crate::runtime::DeviceHandle::allreduce
    pub allreduce: AllreducePolicy,
    /// Elements per pipeline chunk for the zoo collectives (ring,
    /// halving/doubling, tree broadcast). Chunking never changes bits —
    /// only how finely chunks stream through the dependency pipeline.
    pub collective_chunk: usize,
    /// Maximum number of retired buffers the recycle pool retains.
    pub max_pooled_buffers: usize,
    /// Maximum total bytes (summed capacity) the recycle pool retains.
    pub max_pooled_bytes: usize,
    /// Faults to inject at the fabric boundary.
    pub faults: FaultPlan,
}

impl Default for FabricConfig {
    fn default() -> Self {
        Self {
            collective_deadline: Duration::from_secs(30),
            poll_interval: Duration::from_millis(5),
            allreduce: AllreducePolicy::default(),
            collective_chunk: 4096,
            max_pooled_buffers: 256,
            max_pooled_bytes: 256 << 20,
            faults: FaultPlan::none(),
        }
    }
}

#[derive(Default)]
struct Mailbox {
    slots: Mutex<HashMap<MsgKey, Vec<f32>>>,
    signal: Condvar,
}

enum ReducePhase {
    Filling,
    Draining,
}

struct ReduceState {
    phase: ReducePhase,
    slots: Vec<Option<Vec<Matrix>>>,
    filled: usize,
    departed: usize,
    result: Option<Vec<Matrix>>,
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
    /// Per-device operation counter (the ready flag).
    ready: Vec<AtomicU64>,
    reduce: Mutex<ReduceState>,
    reduce_signal: Condvar,
    /// Fast-path flag mirroring `poison.is_some()`; checked from spin
    /// loops without taking the lock.
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

    /// Creates a fabric with explicit deadline, pool and fault settings.
    pub fn with_config(num_devices: usize, config: FabricConfig) -> Self {
        Self {
            num_devices,
            config,
            mailboxes: (0..num_devices * num_devices)
                .map(|_| Mailbox::default())
                .collect(),
            ready: (0..num_devices).map(|_| AtomicU64::new(0)).collect(),
            reduce: Mutex::new(ReduceState {
                phase: ReducePhase::Filling,
                slots: (0..num_devices).map(|_| None).collect(),
                filled: 0,
                departed: 0,
                result: None,
            }),
            reduce_signal: Condvar::new(),
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
        let mut pool = self.buffers.lock();
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
        let mut pool = self.buffers.lock();
        if pool.bufs.len() >= self.config.max_pooled_buffers
            || pool.total_bytes + bytes > self.config.max_pooled_bytes
        {
            return;
        }
        pool.total_bytes += bytes;
        pool.bufs.push(buf);
    }

    /// Current recycle-pool occupancy: `(buffer count, total bytes)`.
    pub fn pool_stats(&self) -> (usize, usize) {
        let pool = self.buffers.lock();
        (pool.bufs.len(), pool.total_bytes)
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.num_devices
    }

    /// Poisons the fabric: records `(rank, cause)` if it is the first
    /// failure and wakes every blocked wait so the cluster unwinds
    /// instead of hanging. Later poisons keep the first record.
    pub fn poison(&self, rank: usize, cause: ClusterFailure) {
        {
            let mut p = self.poison.lock();
            if p.is_none() {
                *p = Some(PoisonInfo { rank, cause });
            }
        }
        self.poison_flag.store(true, Ordering::Release);
        for mb in &self.mailboxes {
            mb.signal.notify_all();
        }
        self.reduce_signal.notify_all();
    }

    /// Whether any device has failed.
    pub fn is_poisoned(&self) -> bool {
        self.poison_flag.load(Ordering::Acquire)
    }

    /// The first failure as `(rank, cause)`, if any.
    pub fn poison_info(&self) -> Option<(usize, ClusterFailure)> {
        self.poison
            .lock()
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

    /// One bounded-wait bookkeeping step, shared by every blocking poll
    /// loop (ready flags, mailbox receives, the allreduce rendezvous):
    /// fails if the fabric is poisoned or `start` has outlived the
    /// collective deadline, otherwise the caller polls again after
    /// [`FabricConfig::poll_interval`].
    fn wait_tick(
        &self,
        start: Instant,
        waiter: usize,
        op: &'static str,
        stage: impl FnOnce() -> String,
    ) -> Result<(), RuntimeError> {
        if self.is_poisoned() {
            return Err(self.poison_error());
        }
        if start.elapsed() > self.config.collective_deadline {
            return Err(RuntimeError::Timeout {
                rank: waiter,
                op,
                stage: stage(),
            });
        }
        Ok(())
    }

    /// Marks `device` as having entered operation `op` (its ready flag).
    pub fn set_ready(&self, device: usize, op: u64) {
        self.ready[device].fetch_max(op, Ordering::Release);
    }

    /// Spins until `device`'s ready flag reaches `op`, unwinding with an
    /// error if the fabric is poisoned or the deadline passes first.
    /// `waiter` names the calling rank in the error.
    pub fn wait_ready(&self, device: usize, op: u64, waiter: usize) -> Result<(), RuntimeError> {
        if self.ready[device].load(Ordering::Acquire) >= op {
            return Ok(());
        }
        let start = Instant::now();
        loop {
            if self.ready[device].load(Ordering::Acquire) >= op {
                return Ok(());
            }
            self.wait_tick(start, waiter, "wait_ready", || {
                format!("peer {device} never reached op {op}")
            })?;
            std::thread::yield_now();
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
            let mut held = self.held.lock();
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
        let drained = match self.held.lock().get_mut(&(src, dst)) {
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
        let mut slots = mb.slots.lock();
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
    /// then removes and returns it. Unwinds with an error on poison or
    /// deadline.
    pub fn recv(&self, src: usize, dst: usize, key: MsgKey) -> Result<Vec<f32>, RuntimeError> {
        let mb = &self.mailboxes[src * self.num_devices + dst];
        {
            let mut slots = mb.slots.lock();
            if let Some(payload) = slots.remove(&key) {
                return Ok(payload);
            }
        }
        let start = Instant::now();
        loop {
            // A reorder fault may be holding the message; the receiver's
            // demand forces delivery so a hold can never hang the run.
            if !self.config.faults.is_empty() {
                self.release_held(src, dst)?;
            }
            let mut slots = mb.slots.lock();
            if let Some(payload) = slots.remove(&key) {
                return Ok(payload);
            }
            self.wait_tick(start, dst, "recv", || {
                format!("message {key:?} from {src} never arrived")
            })?;
            mb.signal.wait_for(&mut slots, self.config.poll_interval);
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
        if let Some(payload) = mb.slots.lock().remove(&key) {
            return Ok(Some(payload));
        }
        self.check_poison()?;
        Ok(None)
    }

    /// Sums the per-device contributions element-wise (in rank order, so
    /// every device observes the identical result) and returns the total
    /// to each caller. All devices must call with equally-shaped inputs.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Protocol`] if contributions disagree in arity,
    /// [`RuntimeError::Poisoned`]/[`RuntimeError::Timeout`] if the
    /// rendezvous cannot complete.
    pub fn allreduce(&self, rank: usize, mats: Vec<Matrix>) -> Result<Vec<Matrix>, RuntimeError> {
        // A rank whose previous round was aborted by poison still has its
        // contribution in the slot; its next call (nothing stops a caller
        // retrying after an error) must not deposit on top of it and
        // complete a round that a dead rank never joined.
        self.check_poison()?;
        let start = Instant::now();
        let rendezvous = || "rendezvous never completed".to_string();
        let mut st = self.reduce.lock();
        while !matches!(st.phase, ReducePhase::Filling) {
            self.wait_tick(start, rank, "allreduce", rendezvous)?;
            self.reduce_signal
                .wait_for(&mut st, self.config.poll_interval);
        }
        st.slots[rank] = Some(mats);
        st.filled += 1;
        if st.filled == self.num_devices {
            let mut acc: Option<Vec<Matrix>> = None;
            for (d, slot) in st.slots.iter_mut().enumerate() {
                let mats = slot.take().expect("all slots filled");
                match &mut acc {
                    None => acc = Some(mats),
                    Some(total) => {
                        if total.len() != mats.len() {
                            let err = RuntimeError::Protocol {
                                rank: d,
                                detail: format!(
                                    "allreduce arity mismatch: rank {d} contributed {} matrices, expected {}",
                                    mats.len(),
                                    total.len()
                                ),
                            };
                            return Err(err);
                        }
                        for (t, m) in total.iter_mut().zip(&mats) {
                            t.add_assign(m);
                        }
                        // The contribution has been folded in; its
                        // storage goes back to the pool instead of the
                        // allocator.
                        for m in mats {
                            self.recycle(m.into_vec());
                        }
                    }
                }
            }
            st.result = Some(acc.expect("at least one device"));
            st.phase = ReducePhase::Draining;
            st.departed = 0;
            self.reduce_signal.notify_all();
        } else {
            while !matches!(st.phase, ReducePhase::Draining) {
                self.wait_tick(start, rank, "allreduce", rendezvous)?;
                self.reduce_signal
                    .wait_for(&mut st, self.config.poll_interval);
            }
        }
        st.departed += 1;
        let out = if st.departed == self.num_devices {
            // Last reader: move the result out instead of cloning it.
            let out = st.result.take().expect("result present");
            st.phase = ReducePhase::Filling;
            st.filled = 0;
            self.reduce_signal.notify_all();
            out
        } else {
            // Earlier readers copy into pool-backed buffers so even the
            // fan-out of the result allocates nothing in steady state.
            let total = st.result.as_ref().expect("result present");
            total
                .iter()
                .map(|m| {
                    let mut buf = self.checkout(m.len());
                    buf.extend_from_slice(m.as_slice());
                    Matrix::from_vec(m.rows(), m.cols(), buf)
                })
                .collect()
        };
        Ok(out)
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
    fn ready_flags_are_monotonic() {
        let f = Fabric::new(1);
        f.set_ready(0, 5);
        f.set_ready(0, 3);
        // Returns immediately: flag stayed at 5.
        f.wait_ready(0, 5, 0).expect("already ready");
    }

    #[test]
    fn wait_ready_times_out_instead_of_hanging() {
        let f = Fabric::with_config(
            2,
            FabricConfig {
                collective_deadline: Duration::from_millis(50),
                ..FabricConfig::default()
            },
        );
        let start = Instant::now();
        let err = f.wait_ready(1, 1, 0).expect_err("peer never arrives");
        assert!(start.elapsed() < Duration::from_secs(5), "bounded wait");
        match err {
            RuntimeError::Timeout { rank, op, .. } => {
                assert_eq!(rank, 0);
                assert_eq!(op, "wait_ready");
            }
            other => panic!("expected timeout, got {other}"),
        }
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
    fn poison_wakes_blocked_allreduce() {
        let f = std::sync::Arc::new(Fabric::new(3));
        let t = {
            let f = f.clone();
            std::thread::spawn(move || f.allreduce(0, vec![Matrix::full(1, 1, 1.0)]))
        };
        std::thread::sleep(Duration::from_millis(10));
        f.poison(
            2,
            ClusterFailure::Error(RuntimeError::InjectedCrash { rank: 2, at_op: 1 }),
        );
        let err = t.join().expect("no panic").expect_err("poisoned");
        assert!(
            matches!(err, RuntimeError::Poisoned { origin: 2, .. }),
            "{err}"
        );
    }

    #[test]
    fn allreduce_after_poison_contributes_nothing() {
        // A survivor calls again after a peer died: every call must
        // fail, none may fill the rendezvous.
        let f = Fabric::new(2);
        f.poison(
            1,
            ClusterFailure::Error(RuntimeError::InjectedCrash { rank: 1, at_op: 1 }),
        );
        for _ in 0..2 {
            let err = f
                .allreduce(0, vec![Matrix::full(1, 1, 1.0)])
                .expect_err("poisoned");
            assert!(
                matches!(err, RuntimeError::Poisoned { origin: 1, .. }),
                "{err}"
            );
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
    fn allreduce_sums_across_threads() {
        let f = std::sync::Arc::new(Fabric::new(3));
        let handles: Vec<_> = (0..3)
            .map(|rank| {
                let f = f.clone();
                std::thread::spawn(move || {
                    let m = Matrix::full(2, 2, (rank + 1) as f32);
                    f.allreduce(rank, vec![m])
                })
            })
            .collect();
        for h in handles {
            let out = h.join().expect("no panic").expect("allreduce");
            assert_eq!(out[0], Matrix::full(2, 2, 6.0));
        }
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
        let f = Fabric::with_config(
            1,
            FabricConfig {
                max_pooled_buffers: 8,
                max_pooled_bytes: 16 << 10,
                ..FabricConfig::default()
            },
        );
        // A workload cycling through many distinct payload sizes used to
        // grow the pool monotonically (recycle never dropped).
        for round in 0..200usize {
            let size = 16 + (round * 97) % 3000;
            let mut buf = f.checkout(size);
            buf.resize(size, 1.0);
            f.recycle(buf);
            let (count, bytes) = f.pool_stats();
            assert!(
                count <= 8,
                "pool count {count} exceeds cap at round {round}"
            );
            assert!(
                bytes <= 16 << 10,
                "pool bytes {bytes} exceed cap at round {round}"
            );
        }
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

    #[test]
    fn allreduce_is_reusable() {
        let f = std::sync::Arc::new(Fabric::new(2));
        for round in 1..4 {
            let handles: Vec<_> = (0..2)
                .map(|rank| {
                    let f = f.clone();
                    std::thread::spawn(move || {
                        f.allreduce(rank, vec![Matrix::full(1, 1, round as f32)])
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(
                    h.join().expect("no panic").expect("allreduce")[0],
                    Matrix::full(1, 1, 2.0 * round as f32)
                );
            }
        }
    }
}
