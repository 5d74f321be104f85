//! The protocol-facing interface: [`Application`] and [`Context`].
//!
//! A protocol implements [`Application`] once per *node*; the simulator
//! owns one instance per deployed node and invokes the callbacks as frames
//! arrive and timers fire. All side effects (sending, timers) go through
//! the [`Context`], which buffers them as commands the engine executes
//! after the callback returns — this keeps callbacks free of re-entrancy
//! and makes the event order deterministic.

use crate::frame::{Destination, Frame, WireSize};
use crate::ids::NodeId;
use crate::metrics::Metrics;
use crate::time::{SimDuration, SimTime};
use icpda_obs::{Obs, ObsLevel, SpanSnapshot};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt;
use std::sync::Arc;

/// Token passed back to [`Application::on_timer`]; protocols encode which
/// logical timer fired (e.g. "cluster-formation deadline").
pub type TimerToken = u64;

/// Handle to a scheduled timer, usable with [`Context::cancel_timer`].
/// Opaque: it packs the timer's slab slot and its generation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TimerId(u64);

impl TimerId {
    fn new(slot: u32, generation: u32) -> Self {
        TimerId(u64::from(generation) << 32 | u64::from(slot))
    }

    fn slot(self) -> usize {
        (self.0 & u64::from(u32::MAX)) as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// A slot word holding a timer: this bit, the live bit, and the timer's
/// generation in the low 30 bits. A free slot's word is instead the
/// index of the next free slot, or [`NO_FREE`].
const OCCUPIED: u32 = 1 << 31;
/// Set while the slot's timer will still fire (cleared by a cancel).
const LIVE: u32 = 1 << 30;
const GENERATION: u32 = LIVE - 1;
/// End of the free list.
const NO_FREE: u32 = OCCUPIED - 1;

/// Pending timers, one 4-byte slot each. Setting a timer takes a free
/// slot, stamps it with the next generation and marks it live;
/// cancelling clears the live bit only when the handle's generation
/// still matches; popping the timer's event frees the slot, fired or
/// not. Every set draws a new generation, so a stale handle (its timer
/// fired, or its slot now holds a newer timer) never touches a newer
/// timer until the 30-bit counter wraps, a billion sets later. Free
/// slots form a list threaded through the slot words themselves, so the
/// slab holds at most as many slots as timers were ever pending at once.
#[derive(Debug)]
pub(crate) struct TimerSlab {
    slots: Vec<u32>,
    free: u32,
    generation: u32,
}

impl Default for TimerSlab {
    fn default() -> Self {
        TimerSlab {
            slots: Vec::new(),
            free: NO_FREE,
            generation: 0,
        }
    }
}

impl TimerSlab {
    /// Takes a free slot for a new timer and marks it live.
    pub(crate) fn set(&mut self) -> TimerId {
        self.generation = (self.generation + 1) & GENERATION;
        let word = OCCUPIED | LIVE | self.generation;
        let slot = if self.free == NO_FREE {
            self.slots.push(word);
            debug_assert!(self.slots.len() <= NO_FREE as usize, "timer slab full");
            (self.slots.len() - 1) as u32
        } else {
            let slot = self.free;
            self.free = self.slots[slot as usize];
            self.slots[slot as usize] = word;
            slot
        };
        TimerId::new(slot, self.generation)
    }

    /// Stops the timer `id` from firing. A no-op for a handle whose timer
    /// already fired or whose slot now holds a newer timer.
    pub(crate) fn cancel(&mut self, id: TimerId) {
        if let Some(word) = self.slots.get_mut(id.slot()) {
            if *word == OCCUPIED | LIVE | id.generation() {
                *word &= !LIVE;
            }
        }
    }

    /// Frees the slot of the timer whose event just popped and returns
    /// whether that timer was still live (not cancelled).
    pub(crate) fn fire(&mut self, id: TimerId) -> bool {
        let word = &mut self.slots[id.slot()];
        debug_assert_eq!(
            *word & !LIVE,
            OCCUPIED | id.generation(),
            "timer popped twice"
        );
        let live = *word & LIVE != 0;
        *word = self.free;
        self.free = id.slot() as u32;
        live
    }

    /// Slots allocated so far: the peak number of pending timers.
    pub(crate) fn slots(&self) -> usize {
        self.slots.len()
    }
}

/// Derives node `i`'s RNG stream from the run seed. Every stream is
/// materialised through here, on its first draw, so the sequence does
/// not depend on when (or whether) other streams are materialised.
pub(crate) fn node_rng(seed: u64, i: usize) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64 + 1))
}

/// A node-local protocol state machine.
///
/// One value of the implementing type exists per node. Callbacks must not
/// block; they interact with the network exclusively through the
/// [`Context`].
pub trait Application {
    /// The protocol's message type. Its [`WireSize`] drives airtime,
    /// collisions, byte counters and energy.
    type Message: Clone + fmt::Debug + WireSize;

    /// Invoked once for every node at simulation start (time zero),
    /// in ascending node-id order.
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Message>) {
        let _ = ctx;
    }

    /// A frame addressed to this node (unicast to it, or broadcast)
    /// was received successfully.
    fn on_message(
        &mut self,
        ctx: &mut Context<'_, Self::Message>,
        from: NodeId,
        msg: &Self::Message,
    );

    /// A frame addressed to *another* node was overheard (promiscuous
    /// mode). The integrity layer's peer monitoring lives here. Called
    /// only for messages [`Application::overhears`] accepts.
    fn on_overhear(&mut self, ctx: &mut Context<'_, Self::Message>, frame: &Frame<Self::Message>) {
        let _ = (ctx, frame);
    }

    /// Whether this node wants [`Application::on_overhear`] for an
    /// overheard `msg`. Declining skips only the callback: the reception
    /// is still counted, charged receive energy and traced as delivered.
    ///
    /// It must return true for every message whose `on_overhear` has any
    /// effect, including effects that do not depend on the message kind.
    /// A protocol that treats every overheard frame as a liveness signal
    /// of its sender, for example, must accept every message while that
    /// tracking is on. The default accepts everything.
    fn overhears(&self, msg: &Self::Message) -> bool {
        let _ = msg;
        true
    }

    /// A timer set via [`Context::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Message>, token: TimerToken) {
        let _ = (ctx, token);
    }
}

/// A message prepared for (repeated) transmission: the payload behind a
/// shared allocation plus its wire size, computed **once** at
/// construction. Retransmission paths (duplicate upstream reports,
/// flood repeats, roster echoes) hold one of these and re-send it with
/// [`Context::send_shared`] / [`Context::broadcast_shared`] — each
/// repeat costs a reference-count bump instead of a deep clone and a
/// fresh `wire_size()` walk over the message.
#[derive(Debug, Clone)]
pub struct SharedPayload<M> {
    payload: Arc<M>,
    size_bytes: usize,
}

impl<M: WireSize> SharedPayload<M> {
    /// Wraps `payload`, caching its wire size.
    #[must_use]
    pub fn new(payload: M) -> Self {
        let size_bytes = payload.wire_size();
        SharedPayload {
            payload: Arc::new(payload),
            size_bytes,
        }
    }
}

impl<M> SharedPayload<M> {
    /// The wrapped message.
    #[must_use]
    pub fn payload(&self) -> &M {
        &self.payload
    }

    /// The cached wire size, as computed at construction.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.size_bytes
    }
}

/// Buffered side effect produced by an application callback.
#[derive(Debug)]
pub(crate) enum Command<M> {
    Send {
        dest: Destination,
        payload: Arc<M>,
        size_bytes: usize,
    },
    SetTimer {
        at: SimTime,
        token: TimerToken,
        id: TimerId,
    },
    /// Record an adversary-action trace note (see
    /// [`crate::trace::TraceKind::AdversaryAction`]). Buffered like every
    /// other side effect so the callback stays re-entrancy-free; the
    /// engine drops it unless the trace sink wants `Metrics`-level
    /// events.
    TraceNote { code: u8 },
}

/// The environment handed to every [`Application`] callback.
///
/// Provides the node's identity, virtual clock, one-hop neighborhood,
/// a deterministic per-node RNG, protocol counters, and the send/timer
/// primitives.
pub struct Context<'a, M> {
    pub(crate) now: SimTime,
    pub(crate) node: NodeId,
    pub(crate) neighbors: &'a [NodeId],
    /// The node's RNG slot, materialised by [`Context::rng`] on first use
    /// so callbacks that never draw never derive the stream.
    pub(crate) rng: &'a mut Option<ChaCha8Rng>,
    pub(crate) seed: u64,
    pub(crate) metrics: &'a mut Metrics,
    pub(crate) obs: &'a mut Obs,
    pub(crate) commands: &'a mut Vec<Command<M>>,
    pub(crate) timers: &'a mut TimerSlab,
}

impl<'a, M: WireSize> Context<'a, M> {
    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// One-hop neighbors (sorted by id). The paper family assumes nodes
    /// know their one-hop neighborhood (learned from HELLO traffic); the
    /// simulator exposes it directly as an oracle with identical content.
    #[must_use]
    pub fn neighbors(&self) -> &[NodeId] {
        self.neighbors
    }

    /// Deterministic per-node random source.
    pub fn rng(&mut self) -> &mut ChaCha8Rng {
        let (seed, i) = (self.seed, self.node.index());
        self.rng.get_or_insert_with(|| node_rng(seed, i))
    }

    /// Protocol-level named counters (see [`Metrics::bump`]).
    pub fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }

    /// The run's observability registry (see [`icpda_obs::Obs`];
    /// disabled unless `SimConfig::obs_level` is raised). Guard
    /// recording with [`Obs::wants`] before computing arguments.
    pub fn obs(&mut self) -> &mut Obs {
        self.obs
    }

    /// A point-in-time [`SpanSnapshot`] of this node's traffic/energy
    /// accounting, for span start/end bookkeeping. Call only under an
    /// [`Obs::wants`] guard.
    #[must_use]
    pub fn obs_snapshot(&self) -> SpanSnapshot {
        let nm = self.metrics.node(self.node);
        SpanSnapshot {
            messages: nm.frames_sent + nm.frames_received + nm.frames_overheard,
            bytes: nm.bytes_sent + nm.bytes_received,
            energy_nj: nm.energy_total_nj() as u64,
        }
    }

    /// Queues a unicast to `to`. Neighbors other than `to` will overhear
    /// the frame. Sending to a node out of radio range is legal but the
    /// frame will never be delivered.
    pub fn send(&mut self, to: NodeId, payload: M) {
        let size_bytes = payload.wire_size();
        self.commands.push(Command::Send {
            dest: Destination::Unicast(to),
            payload: Arc::new(payload),
            size_bytes,
        });
    }

    /// Queues a local broadcast to all nodes in radio range.
    pub fn broadcast(&mut self, payload: M) {
        let size_bytes = payload.wire_size();
        self.commands.push(Command::Send {
            dest: Destination::Broadcast,
            payload: Arc::new(payload),
            size_bytes,
        });
    }

    /// Queues a unicast of a prepared [`SharedPayload`]: no payload
    /// clone, no wire-size recomputation — the repeat path for large
    /// composite messages.
    pub fn send_shared(&mut self, to: NodeId, payload: &SharedPayload<M>) {
        self.commands.push(Command::Send {
            dest: Destination::Unicast(to),
            payload: Arc::clone(&payload.payload),
            size_bytes: payload.size_bytes,
        });
    }

    /// Queues a broadcast of a prepared [`SharedPayload`].
    pub fn broadcast_shared(&mut self, payload: &SharedPayload<M>) {
        self.commands.push(Command::Send {
            dest: Destination::Broadcast,
            payload: Arc::clone(&payload.payload),
            size_bytes: payload.size_bytes,
        });
    }

    /// Schedules `on_timer(token)` to fire after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: TimerToken) -> TimerId {
        let id = self.timers.set();
        self.commands.push(Command::SetTimer {
            at: self.now + delay,
            token,
            id,
        });
        id
    }

    /// Cancels a previously scheduled timer. Cancelling an already-fired
    /// or unknown timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        if self.obs.wants(ObsLevel::Full) {
            self.obs.inc("engine.timers_cancelled");
        }
        self.timers.cancel(id);
    }

    /// Records that this node exercised a malicious behaviour (an
    /// `AdversaryAction` trace entry with application-defined `code`).
    /// A no-op unless the trace sink records `Metrics`-level events, so
    /// honest runs never see it and adversarial runs pay one branch.
    pub fn trace_adversary(&mut self, code: u8) {
        self.commands.push(Command::TraceNote { code });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Owns everything a [`Context`] borrows, so tests can inspect it
    /// after the context is dropped.
    struct Harness<M> {
        cmds: Vec<Command<M>>,
        rng: Option<ChaCha8Rng>,
        metrics: Metrics,
        obs: Obs,
        timers: TimerSlab,
    }

    impl<M: WireSize> Harness<M> {
        fn new() -> Self {
            Harness {
                cmds: Vec::new(),
                rng: None,
                metrics: Metrics::new(4),
                obs: Obs::off(),
                timers: TimerSlab::default(),
            }
        }

        fn ctx(&mut self) -> Context<'_, M> {
            Context {
                now: SimTime::from_millis(5),
                node: NodeId::new(2),
                neighbors: &[],
                rng: &mut self.rng,
                seed: 11,
                metrics: &mut self.metrics,
                obs: &mut self.obs,
                commands: &mut self.cmds,
                timers: &mut self.timers,
            }
        }
    }

    #[test]
    fn send_records_wire_size() {
        let mut h = Harness::<Vec<u8>>::new();
        let mut ctx = h.ctx();
        ctx.send(NodeId::new(1), vec![0; 9]);
        ctx.broadcast(vec![0; 3]);
        match &h.cmds[0] {
            Command::Send {
                dest, size_bytes, ..
            } => {
                assert_eq!(*dest, Destination::Unicast(NodeId::new(1)));
                assert_eq!(*size_bytes, 9);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &h.cmds[1] {
            Command::Send {
                dest, size_bytes, ..
            } => {
                assert_eq!(*dest, Destination::Broadcast);
                assert_eq!(*size_bytes, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn shared_payload_caches_wire_size_and_allocation() {
        let mut h = Harness::<Vec<u8>>::new();
        let shared = SharedPayload::new(vec![0u8; 13]);
        assert_eq!(shared.size_bytes(), 13);
        let mut ctx = h.ctx();
        ctx.send_shared(NodeId::new(1), &shared);
        ctx.broadcast_shared(&shared);
        for cmd in &h.cmds {
            match cmd {
                Command::Send {
                    payload,
                    size_bytes,
                    ..
                } => {
                    assert_eq!(*size_bytes, 13);
                    // Same allocation: the repeat path never deep-clones.
                    assert!(Arc::ptr_eq(payload, &shared.payload));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn timers_get_unique_ids_and_absolute_times() {
        let mut h = Harness::<()>::new();
        let mut ctx = h.ctx();
        let a = ctx.set_timer(SimDuration::from_millis(10), 7);
        let b = ctx.set_timer(SimDuration::from_millis(20), 8);
        assert_ne!(a, b);
        ctx.cancel_timer(a);
        // Cancelling acts on the slab directly; only the sets are queued.
        assert_eq!(h.cmds.len(), 2);
        match &h.cmds[0] {
            Command::SetTimer { at, token, id } => {
                assert_eq!(*at, SimTime::from_millis(15));
                assert_eq!(*token, 7);
                assert_eq!(*id, a);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(!h.timers.fire(a), "cancelled timer must not fire");
        assert!(h.timers.fire(b));
    }

    #[test]
    fn rng_materialises_on_first_draw_only() {
        let mut h = Harness::<()>::new();
        let mut ctx = h.ctx();
        ctx.broadcast(());
        let _ = ctx.set_timer(SimDuration::from_millis(1), 0);
        assert!(
            h.rng.is_none(),
            "a callback that never draws leaves the slot empty"
        );

        let mut ctx = h.ctx();
        let drawn: Vec<u64> = (0..4).map(|_| ctx.rng().gen()).collect();
        let mut reference = node_rng(11, 2);
        let expected: Vec<u64> = (0..4).map(|_| reference.gen()).collect();
        assert_eq!(drawn, expected, "lazy stream equals node_rng(seed, i)");
        assert!(h.rng.is_some());
    }
}
