//! The threaded dataflow runtime.
//!
//! Every source and operator node becomes `parallelism` *instances* ("task
//! slots"), each running on its own OS thread; every edge between them
//! becomes one bounded channel per destination instance. Bounded channels
//! give genuine backpressure: when a stateful operator cannot keep up, its
//! senders block, the stall cascades to the sources, and measured
//! throughput is the *maximum sustainable throughput* in the sense of
//! Karimov et al. — the paper's primary metric.
//!
//! Sinks are not tasks. A sink is a delivery target of each producing
//! instance's collector: when the producer emits, it adds the rows to the
//! sink's shared count, stamps every `latency_stride`-th row (counted over
//! all producers) with its detection latency and, in [`SinkMode::Collect`],
//! materializes the rows — all on the producer's thread, with no channel
//! hop and no wait for a partial batch to flush.
//!
//! ## Watermark protocol
//!
//! Sources emit punctuated watermarks (their streams are in ts order).
//! Each instance harness tracks the last watermark per (input port,
//! upstream channel) and advances its operator's event-time clock to the
//! minimum across all channels — so operators downstream of a union or a
//! join see one monotone clock regardless of thread interleaving, which is
//! what makes results run-to-run deterministic (modulo output order).
//! Operator emissions triggered by a watermark are sent *before* the
//! watermark itself is forwarded, preserving the "no late data" invariant
//! down the pipeline.
//!
//! Watermarks are released by a *soft flush*: destinations whose batch
//! buffer is empty receive the watermark immediately as a standalone
//! message, while a destination with a partially filled buffer has the
//! watermark recorded as *owed at the current buffered position*. When the
//! buffer flushes, its owed watermarks travel *in band*, as `(row offset,
//! watermark)` marks on the one batch message, and the receiver applies
//! each mark right before the row at its offset. A flush is therefore one
//! message however many punctuations it spans, and punctuation never
//! truncates a per-destination micro-batch — under hash fan-out, batches
//! stay near `batch_size`. Deferring a watermark is always safe (it is a
//! lower-bound promise). Because marks are positional, a channel's
//! tuple/watermark interleaving is a pure function of emission order:
//! wall-clock flush timing changes message granularity, never relative
//! order, so per-channel late-drop decisions are run-to-run deterministic.
//! A *hard flush* (idle timeout, end of stream, or the `idle_flush`
//! deadline under sustained load) sends every partial buffer with its
//! marks, then the coalesced pending watermark, bounding how long either
//! can sit.
//!
//! Closed-loop (unpaced) sources read the clock once per staged batch, not
//! per event: an event's wall stamp — the origin of sink latency — is the
//! time its batch started staging, at most `batch_size` events early.
//! Paced sources stamp every event at its emission time.
//!
//! ## Data plane
//!
//! Every tuple batch travels as one message: an `Arc` of struct-of-arrays
//! [`ColumnarBatch`] columns plus the batch's in-band watermark marks. A
//! point-to-point send wraps its batch in a fresh `Arc`; a fan-out to
//! several pre-resolved destinations sends clones of one `Arc`. Sources push events straight
//! into typed columns (no per-event heap allocation). Operators declaring
//! [`BatchSupport::Columnar`] take the batch with `Arc::try_unwrap` (a
//! copy only while a sibling consumer still holds it) and are driven
//! batch-at-a-time through [`Operator::process_columnar`]; row-only
//! operators read the batch in place and materialize row-format
//! [`Tuple`]s one at a time (`tuple_at`), as collecting sinks do with the
//! batches delivered to them. Batches on the wire
//! are always dense — selection vectors produced by vectorized filters are
//! compacted at route flush.

mod chain;
mod metrics;
pub(crate) mod shard;

pub use crate::graph::SinkMode;
pub use crate::obs::{BoundViolation, EventLog, Level, LogEvent, StaticBounds};
pub use chain::{chain_factories, ChainedOperator};
pub use metrics::{LatencyStats, NodeStats, ResourceSample};

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use serde::{Serialize, Value};

use crate::columnar::ColumnarBatch;
use crate::error::{OpError, PipelineError};
use crate::event::Event;
use crate::graph::{Exchange, GraphBuilder, NodeId, NodeKind, SinkId, SourceConfig};
use crate::obs::LatencyHistogram;
use crate::operator::{BatchSupport, Collector, Operator};
use crate::time::Timestamp;
use crate::tuple::Tuple;

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Per-inbox channel capacity (backpressure buffer).
    pub channel_capacity: usize,
    /// If set, sample aggregate operator state + process CPU at this
    /// interval (drives the Figure 5 resource series).
    pub sample_interval: Option<StdDuration>,
    /// Keep only every `latency_stride`-th latency observation.
    pub latency_stride: usize,
    /// Fuse linear non-repartitioning stretches of the graph into single
    /// tasks (Flink-style operator chaining). On by default; disable to
    /// measure the unfused pipeline.
    pub operator_chaining: bool,
    /// Drop tuples that arrive behind their input channel's watermark
    /// (late data). With correctly configured source watermark lag nothing
    /// is ever late; this is the Flink-style safety net that keeps
    /// event-time operators from observing time regressions. The decision
    /// is per arriving channel rather than against the merged minimum, so
    /// it is deterministic under union/join thread interleaving (a channel
    /// watermark is always ≥ the merged one, so nothing the merged clock
    /// would drop survives). Dropped tuples are counted in
    /// [`NodeStats::late_dropped`].
    pub drop_late: bool,
    /// Maximum tuples accumulated per (edge, destination instance) before
    /// the pending micro-batch is sent as one channel message. `1` sends
    /// one-row batches (each still pays the column set and its `Arc`);
    /// larger values amortize channel synchronization and batch bookkeeping
    /// over `batch_size` tuples on every hop. Must be ≥ 1 (0 is rejected as
    /// diagnostic `G015` before any thread is spawned).
    pub batch_size: usize,
    /// Upper bound on how long a partially filled batch may sit in a task's
    /// output buffer while the task is idle. Idle operators flush on this
    /// cadence, and rate-limited sources flush at least this often, so
    /// low-rate streams keep low latency regardless of `batch_size`.
    pub idle_flush: StdDuration,
    /// Record the wall time of every `proc_latency_every`-th
    /// `Operator::process` call into the node's lock-free latency
    /// histogram ([`NodeStats::proc_latency`]). `0` disables processing-
    /// latency sampling entirely (no clock reads on the tuple path).
    pub proc_latency_every: usize,
    /// If set, a background reporter thread emits an aggregate progress
    /// event (records in/out, state bytes, inbox depth) into the run's
    /// [`EventLog`] at this interval. `None` (the default) disables the
    /// reporter.
    pub progress_interval: Option<StdDuration>,
    /// Ring capacity of the structured [`EventLog`] exported in
    /// [`RunReport::events`]. When full, the oldest events are displaced;
    /// `0` disables event retention.
    pub event_log_capacity: usize,
    /// Ignored: the runtime has one data plane (columnar batches), so this
    /// flag selects nothing. It remains only so existing struct literals
    /// that set it keep compiling, and goes when the benchmark harness
    /// drops its `columnar: true` line.
    #[deprecated(note = "the runtime has one data plane; this flag is ignored")]
    pub columnar: bool,
    /// Shard count for keyed operators marked [`GraphBuilder::shard_node`]:
    /// each such node fans out into this many shared-nothing workers, each
    /// owning a hash range of keys. `None` (the default) keeps sharded
    /// nodes single-instance. Settable via the `ASP_SHARDS` environment
    /// variable (an integer ≥ 1; anything else is refused as `G017`).
    pub shards: Option<usize>,
    /// Adaptive shard rebalancing cadence: a background thread samples the
    /// per-slot traffic gauges of every sharded node at this interval and
    /// migrates the hottest slot off any shard carrying more than 1.5× the
    /// mean load (drain → handoff → redirect, preserving per-key order and
    /// watermark correctness — see the `shard` module docs). `None`
    /// disables migration entirely: sharded nodes keep their initial
    /// round-robin slot placement for the whole run (static sharding).
    /// Operators without live-handoff support are never migrated
    /// regardless.
    pub rebalance_interval: Option<StdDuration>,
    /// Parse failures from the `ASP_SHARDS` environment override captured
    /// at [`Default::default`] time — `Default`
    /// cannot return `Result`, so [`Executor::run`] refuses the run with
    /// diagnostic `G017` if any are present rather than silently running
    /// with a misread knob. Always empty for explicitly built configs.
    pub env_errors: Vec<String>,
}

impl Default for ExecutorConfig {
    // Builds the deprecated `columnar` field; nothing reads it.
    #[allow(deprecated)]
    fn default() -> Self {
        // The environment override parses strictly: an unrecognized value
        // is captured here and surfaced as diagnostic `G017` when the
        // executor runs.
        let mut env_errors = Vec::new();
        let shards = match std::env::var("ASP_SHARDS") {
            Err(_) => None,
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n >= 1 => Some(n),
                _ => {
                    env_errors.push(format!(
                        "ASP_SHARDS=`{v}` is not a shard count; expected an integer ≥ 1"
                    ));
                    None
                }
            },
        };
        ExecutorConfig {
            channel_capacity: 1024,
            sample_interval: None,
            latency_stride: 16,
            operator_chaining: true,
            drop_late: true,
            batch_size: 64,
            idle_flush: StdDuration::from_millis(5),
            proc_latency_every: 32,
            progress_interval: None,
            event_log_capacity: 256,
            columnar: true,
            shards,
            rebalance_interval: Some(StdDuration::from_millis(50)),
            env_errors,
        }
    }
}

enum Message {
    /// A micro-batch: consecutive tuples for one destination in emission
    /// order, always dense on the wire (receivers never see a selection
    /// vector). A point-to-point send wraps its batch in a fresh `Arc`; a
    /// fan-out to several destinations (shared subplans, where one
    /// operator's output feeds many consumer pipelines) sends clones of one
    /// `Arc` instead of copying the payload per route. Columnar operators
    /// take ownership on receipt (`Arc::try_unwrap`, cloning only while the
    /// batch is still referenced elsewhere); row-only operators read it in
    /// place.
    Batch {
        rows: Arc<ColumnarBatch>,
        /// In-band watermarks owed on this channel, in emission order:
        /// `(p, wm)` takes effect after `rows[..p]` and before `rows[p..]`
        /// (`p == rows.len()` trails the last row). Offsets strictly
        /// increase; watermarks never decrease. Receivers apply each mark
        /// exactly like a standalone [`Message::Watermark`].
        marks: Vec<(usize, Timestamp)>,
    },
    /// A watermark with no row to ride on: sent when the destination's
    /// batch buffer is empty at soft-flush time, and by the hard flush
    /// after every buffer (with its marks) has gone out.
    Watermark(Timestamp),
    /// Shard-migration cut-over marker: everything before it on this
    /// channel was routed under the previous slot table, everything after
    /// under the new one. Broadcast by each sender to *every* destination
    /// instance of the sharded node when it observes a new plan version.
    ShardMarker {
        /// The plan version the sender cut over to.
        version: u64,
    },
    /// A migrated slot's extracted operator state, sent from the source
    /// shard instance directly to the target instance's inbox.
    ShardHandoff(Box<shard::HandoffPayload>),
    End,
}

/// Envelopes drained from the inbox per blocking receive before the
/// collector is flushed — bounds how long a coalesced watermark can be
/// deferred under sustained load.
const DRAIN_LIMIT: usize = 128;

struct Envelope {
    port: u16,
    chan: u16,
    msg: Message,
}

/// Deterministic key → instance mapping shared by every hash exchange
/// (co-partitioning guarantee).
#[inline]
pub fn key_partition(key: u64, parallelism: usize) -> usize {
    if parallelism <= 1 {
        return 0;
    }
    let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((h >> 17) % parallelism as u64) as usize
}

/// One outgoing edge of one instance, with a pending micro-batch per
/// destination instance.
struct Route {
    exchange: Exchange,
    port: u16,
    chan: u16,
    senders: Vec<Sender<Envelope>>,
    rr: usize,
    /// Pre-resolved destination for exchanges whose target never varies
    /// (`Forward`, or any exchange with a single destination instance) —
    /// the dispatch match is decided once at wiring time, not per tuple.
    fixed: Option<usize>,
    /// Pending rows per destination instance, flushed at `batch_size`.
    /// Built by column pushes, so always dense.
    bufs: Vec<ColumnarBatch>,
    /// Watermarks promised to a destination but deferred because its batch
    /// buffer was non-empty at soft-flush time, queued with the number of
    /// buffered rows each must ride *behind*. [`Route::flush_buf`] sends
    /// them as the batch's in-band marks, so the channel-relative order of
    /// tuples and watermarks is a pure function of emission order, never
    /// of wall-clock flush timing. Positions are strictly increasing
    /// within the queue; watermarks landing at the same position coalesce
    /// to their maximum. Non-empty only while the buffer is.
    wm_owed: Vec<Vec<(usize, Timestamp)>>,
    /// First operator-grade failure hit while building a pending columnar
    /// batch (composite side-table overflow from a checked `u32` index
    /// conversion). The harness harvests it via
    /// [`ChannelCollector::take_op_error`] and reports it as `G016` instead
    /// of silently truncating indices.
    op_error: Option<OpError>,
    /// Sharded destination: routing goes through the cached slot table
    /// instead of [`key_partition`]. `None` for ordinary routes.
    shard: Option<RouteShard>,
    /// Channel messages sent (batches count once), for [`NodeStats`].
    batches: u64,
    ctx: RouteCtx,
}

/// What every route of one instance shares.
#[derive(Clone)]
struct RouteCtx {
    /// A destination's pending batch is sent when it reaches this size.
    batch_size: usize,
    /// Set when the run fails: a send blocked on a full inbox gives up.
    abort: Arc<AtomicBool>,
    /// The owning instance's counters; time blocked on a full inbox
    /// (backpressure) is charged to [`InstanceStats::backpressure_ns`].
    istats: Arc<InstanceStats>,
}

/// Sender-side state of a route into a sharded node.
struct RouteShard {
    plan: Arc<shard::ShardPlan>,
    /// Local copy of the slot → shard table, refreshed only when a new
    /// plan version is observed — the steady-state tuple path reads a
    /// plain array, never a shared atomic.
    cached_slots: Vec<u32>,
    /// Plan version `cached_slots` corresponds to.
    seen_version: u64,
    /// While a migration this sender has cut over to is still in flight,
    /// watermark emission on this route is frozen (stashed here, released
    /// on completion) so source and target shard observe identical
    /// per-channel clocks when they align on the markers.
    frozen_wm: Option<Timestamp>,
    frozen: bool,
    /// Tuples routed per slot since the last publish to the plan's shared
    /// traffic gauges (published on hard flush).
    traffic: Box<[u64; shard::SHARD_SLOTS]>,
}

impl Route {
    fn new(
        exchange: Exchange,
        port: u16,
        instance: usize,
        senders: Vec<Sender<Envelope>>,
        plan: Option<Arc<shard::ShardPlan>>,
        ctx: RouteCtx,
    ) -> Self {
        let fixed = match exchange {
            Exchange::Forward => Some(instance % senders.len()),
            Exchange::Hash | Exchange::Rebalance if senders.len() == 1 => Some(0),
            Exchange::Hash | Exchange::Rebalance => None,
        };
        // A single-instance "sharded" node routes like any other
        // single-destination edge; the plan only matters with ≥ 2 shards.
        let shard = match plan {
            Some(plan) if senders.len() > 1 => Some(RouteShard {
                cached_slots: plan.snapshot_slots(),
                seen_version: plan.version(),
                plan,
                frozen_wm: None,
                frozen: false,
                traffic: Box::new([0; shard::SHARD_SLOTS]),
            }),
            _ => None,
        };
        let bufs = senders.iter().map(|_| ColumnarBatch::default()).collect();
        let wm_owed = senders.iter().map(|_| Vec::new()).collect();
        Route {
            exchange,
            port,
            chan: instance as u16,
            senders,
            rr: instance,
            fixed,
            bufs,
            wm_owed,
            op_error: None,
            shard,
            batches: 0,
            ctx,
        }
    }

    /// Resolve the destination instance for a record with partition `key`.
    #[inline]
    fn pick_dest(&mut self, key: u64) -> usize {
        if let Some(rs) = &mut self.shard {
            let slot = shard::slot_of(key);
            rs.traffic[slot] += 1;
            return rs.cached_slots[slot] as usize;
        }
        match self.fixed {
            Some(i) => i,
            None => match self.exchange {
                Exchange::Hash => key_partition(key, self.senders.len()),
                Exchange::Rebalance => {
                    self.rr = (self.rr + 1) % self.senders.len();
                    self.rr
                }
                // Forward always resolves to `fixed`.
                Exchange::Forward => unreachable!("forward routes are pre-resolved"),
            },
        }
    }

    /// Sharded-route version check, called on every buffering/flush entry
    /// point. On observing a new plan version: flush everything routed
    /// under the old table, broadcast the cut-over marker to every
    /// destination, refresh the cached table, and freeze watermark
    /// emission until the migration completes (channel FIFO then gives
    /// every receiver the identical pre-marker watermark prefix). Also
    /// thaws: once the plan reports the observed version completed, the
    /// stashed watermark is released through the normal soft path.
    #[inline]
    fn observe_shard(&mut self) -> Result<(), ()> {
        let Some(rs) = &self.shard else {
            return Ok(());
        };
        let (frozen, seen, version) = (rs.frozen, rs.seen_version, rs.plan.version());
        if !frozen && version == seen {
            return Ok(());
        }
        self.observe_shard_cold()
    }

    #[cold]
    fn observe_shard_cold(&mut self) -> Result<(), ()> {
        // Thaw first: a completed migration releases the stashed watermark
        // before any new version is cut over to.
        let thawed = {
            let rs = self.shard.as_mut().expect("cold path requires shard");
            if rs.frozen && rs.plan.completed() >= rs.seen_version {
                rs.frozen = false;
                rs.frozen_wm.take()
            } else {
                None
            }
        };
        if let Some(wm) = thawed {
            self.soft_watermark_raw(wm)?;
        }
        let rs = self.shard.as_ref().expect("cold path requires shard");
        let version = rs.plan.version();
        if version == rs.seen_version || rs.frozen {
            // Nothing new, or still frozen on the in-flight version (a new
            // version cannot be published until the current completes).
            return Ok(());
        }
        // Everything buffered so far was routed under the old table: it
        // must precede the marker on every channel.
        self.flush_all()?;
        for idx in 0..self.senders.len() {
            self.send(idx, Message::ShardMarker { version })?;
        }
        let rs = self.shard.as_mut().expect("cold path requires shard");
        rs.cached_slots = rs.plan.snapshot_slots();
        rs.seen_version = version;
        rs.frozen = true;
        Ok(())
    }

    /// Publish locally accumulated per-slot traffic to the shared plan
    /// gauges (piggybacks on the hard-flush cadence).
    fn publish_traffic(&mut self) {
        if let Some(rs) = &mut self.shard {
            if rs.traffic.iter().any(|&n| n > 0) {
                rs.plan.add_traffic(&rs.traffic);
                *rs.traffic = [0; shard::SHARD_SLOTS];
            }
        }
    }

    fn send(&self, idx: usize, msg: Message) -> Result<(), ()> {
        let mut env = Envelope {
            port: self.port,
            chan: self.chan,
            msg,
        };
        // Fast path: an uncontended send pays no clock read. Only a full
        // inbox (genuine backpressure) falls through to the timed loop.
        match self.senders[idx].send_timeout(env, StdDuration::ZERO) {
            Ok(()) => return Ok(()),
            Err(crossbeam::channel::SendTimeoutError::Disconnected(_)) => return Err(()),
            Err(crossbeam::channel::SendTimeoutError::Timeout(e)) => env = e,
        }
        let blocked_since = Instant::now();
        let result = loop {
            match self.senders[idx].send_timeout(env, StdDuration::from_millis(20)) {
                Ok(()) => break Ok(()),
                Err(crossbeam::channel::SendTimeoutError::Timeout(e)) => {
                    if self.ctx.abort.load(Ordering::Relaxed) {
                        break Err(());
                    }
                    env = e;
                }
                Err(crossbeam::channel::SendTimeoutError::Disconnected(_)) => break Err(()),
            }
        };
        self.ctx
            .istats
            .backpressure_ns
            .fetch_add(blocked_since.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }

    /// Decompose `t` into the destination's pending batch, flushing it
    /// when it reaches `batch_size`.
    fn buffer_tuple(&mut self, t: Tuple) -> Result<(), ()> {
        self.observe_shard()?;
        let idx = self.pick_dest(t.key);
        if let Err(e) = self.bufs[idx].push_tuple(t) {
            self.op_error.get_or_insert(e);
            return Err(());
        }
        if self.bufs[idx].len() >= self.ctx.batch_size {
            self.flush_buf(idx)
        } else {
            Ok(())
        }
    }

    /// Append a primitive event straight into the destination's pending
    /// columnar batch — the zero-allocation source fast path.
    fn buffer_event(&mut self, e: Event, wall: u64) -> Result<(), ()> {
        self.observe_shard()?;
        // Primitive events partition by sensor id, as `Tuple::from_event`
        // assigns `key = id`.
        let idx = self.pick_dest(e.id as u64);
        self.bufs[idx].push_event(e, wall);
        if self.bufs[idx].len() >= self.ctx.batch_size {
            self.flush_buf(idx)
        } else {
            Ok(())
        }
    }

    /// Gather-append every selected row of `src` into the destinations'
    /// pending columnar batches (reads `src` by reference: multi-route
    /// fan-out needs no clone; composites transfer by refcount bump).
    fn append_batch(&mut self, src: &ColumnarBatch) -> Result<(), ()> {
        self.observe_shard()?;
        if self.shard.is_some() {
            return self.append_batch_sharded(src);
        }
        let one = |this: &mut Self, i: usize| -> Result<(), ()> {
            let idx = this.pick_dest(src.key[i]);
            if let Err(e) = this.bufs[idx].push_row_from(src, i) {
                this.op_error.get_or_insert(e);
                return Err(());
            }
            if this.bufs[idx].len() >= this.ctx.batch_size {
                this.flush_buf(idx)
            } else {
                Ok(())
            }
        };
        match &src.sel {
            None => {
                for i in 0..src.len() {
                    one(self, i)?;
                }
            }
            Some(sel) => {
                for &i in sel {
                    one(self, i as usize)?;
                }
            }
        }
        Ok(())
    }

    /// Columnar fan-out into a sharded node: split the batch into one
    /// selection vector per destination shard (slot-table routing) and
    /// gather-append each column-wise — the batch is never re-materialized
    /// row by row.
    fn append_batch_sharded(&mut self, src: &ColumnarBatch) -> Result<(), ()> {
        let mut sels: Vec<Vec<u32>> = vec![Vec::new(); self.senders.len()];
        {
            let rs = self.shard.as_mut().expect("sharded append requires shard");
            let mut route_one = |i: usize| {
                let slot = shard::slot_of(src.key[i]);
                rs.traffic[slot] += 1;
                sels[rs.cached_slots[slot] as usize].push(i as u32);
            };
            match &src.sel {
                None => {
                    for i in 0..src.len() {
                        route_one(i);
                    }
                }
                Some(sel) => {
                    for &i in sel {
                        route_one(i as usize);
                    }
                }
            }
        }
        for (idx, sel) in sels.iter().enumerate() {
            if sel.is_empty() {
                continue;
            }
            if let Err(e) = self.bufs[idx].extend_gather(src, sel) {
                self.op_error.get_or_insert(e);
                return Err(());
            }
            if self.bufs[idx].len() >= self.ctx.batch_size {
                self.flush_buf(idx)?;
            }
        }
        Ok(())
    }

    /// Soft-deliver a watermark: destinations with an empty batch buffer
    /// get it immediately; the rest record it as owed *at the current
    /// buffered position* so it rides out as an in-band mark between the
    /// rows emitted before and after it, instead of truncating the batch.
    /// Either way
    /// the watermark lands at the same point of the channel's
    /// tuple/watermark sequence — wall-clock flush timing can change
    /// message granularity, never relative order.
    fn soft_watermark(&mut self, wm: Timestamp) -> Result<(), ()> {
        self.observe_shard()?;
        if self.stash_if_frozen(wm) {
            return Ok(());
        }
        self.soft_watermark_raw(wm)
    }

    /// While a shard migration this route has cut over to is in flight,
    /// watermarks are stashed (coalescing to their max) instead of sent —
    /// released by [`Route::observe_shard`] once the migration completes.
    /// Returns whether the watermark was stashed.
    fn stash_if_frozen(&mut self, wm: Timestamp) -> bool {
        match &mut self.shard {
            Some(rs) if rs.frozen => {
                rs.frozen_wm = Some(rs.frozen_wm.map_or(wm, |p| p.max(wm)));
                true
            }
            _ => false,
        }
    }

    fn soft_watermark_raw(&mut self, wm: Timestamp) -> Result<(), ()> {
        let mut ok = Ok(());
        for idx in 0..self.senders.len() {
            let pos = self.bufs[idx].len();
            if pos == 0 {
                if self.send(idx, Message::Watermark(wm)).is_err() {
                    ok = Err(());
                }
            } else {
                // Watermarks owed at the same position coalesce to their
                // max (they are monotone per task, so this keeps the last).
                match self.wm_owed[idx].last_mut() {
                    Some((p, w)) if *p == pos => *w = (*w).max(wm),
                    _ => self.wm_owed[idx].push((pos, wm)),
                }
            }
        }
        ok
    }

    /// Send the destination's pending rows as one message carrying its
    /// owed watermarks as in-band marks, so a flush reproduces the
    /// emission-order interleaving of tuples and watermarks exactly.
    fn flush_buf(&mut self, idx: usize) -> Result<(), ()> {
        let buf = &mut self.bufs[idx];
        if buf.is_empty() {
            debug_assert!(self.wm_owed[idx].is_empty(), "marks ride on buffered rows");
            return Ok(());
        }
        debug_assert!(buf.is_dense(), "route buffers are built dense");
        let rows = Arc::new(std::mem::replace(
            buf,
            ColumnarBatch::with_capacity(self.ctx.batch_size),
        ));
        let marks = std::mem::take(&mut self.wm_owed[idx]);
        self.send_batch(idx, rows, marks)
    }

    /// Send one tuple-carrying message, counted in [`Route::batches`].
    fn send_batch(
        &mut self,
        idx: usize,
        rows: Arc<ColumnarBatch>,
        marks: Vec<(usize, Timestamp)>,
    ) -> Result<(), ()> {
        self.batches += 1;
        self.send(idx, Message::Batch { rows, marks })
    }

    fn flush_all(&mut self) -> Result<(), ()> {
        let mut ok = Ok(());
        for idx in 0..self.bufs.len() {
            if self.flush_buf(idx).is_err() {
                ok = Err(());
            }
        }
        ok
    }

    fn broadcast(&self, msg_of: impl Fn() -> Message) -> Result<(), ()> {
        for idx in 0..self.senders.len() {
            self.send(idx, msg_of())?;
        }
        Ok(())
    }
}

/// Routes an operator's emissions to all outgoing edges, micro-batching
/// tuples per destination and coalescing watermarks between flushes, and
/// delivers them to directly attached sinks on the spot.
struct ChannelCollector {
    routes: Vec<Route>,
    /// Sinks fed by this instance. Delivery is immediate and needs no
    /// watermarks: a sink's merged-watermark check is implied by the
    /// emission floor, which every emission passes before delivery.
    sinks: Vec<Arc<SinkShared>>,
    batch_size: usize,
    out_count: u64,
    failed: bool,
    /// Highest watermark accepted for broadcast but not yet sent. Deferring
    /// a watermark is always safe — it is a *lower bound* promise, and
    /// delaying it only delays downstream firing — whereas sending it ahead
    /// of buffered tuples would not be. [`ChannelCollector::flush`] sends
    /// every pending batch first, then this coalesced watermark, so the
    /// tuples a watermark covers always precede it on every channel.
    pending_wm: Option<Timestamp>,
    /// The watermark contract floor: the highest watermark this task has
    /// broadcast downstream. Every later emission must carry `ts ≥ floor`.
    #[cfg(feature = "invariant-checks")]
    wm_floor: Timestamp,
    /// Sources are exempt from the emission-floor check: with an
    /// under-estimated `watermark_lag` they legitimately emit late tuples,
    /// and downstream `drop_late` is the documented degradation path.
    #[cfg(feature = "invariant-checks")]
    enforce_emit_floor: bool,
}

impl ChannelCollector {
    /// Record `wm` for broadcast at the next [`flush`](Self::flush). Repeated
    /// calls between flushes coalesce into one watermark message per channel.
    fn broadcast_watermark(&mut self, wm: Timestamp) {
        #[cfg(feature = "invariant-checks")]
        {
            assert!(
                wm >= self.wm_floor,
                "invariant violation: task broadcast watermark {wm:?} behind its own previous watermark {:?}",
                self.wm_floor
            );
            self.wm_floor = wm;
        }
        self.pending_wm = Some(self.pending_wm.map_or(wm, |p| p.max(wm)));
    }

    /// Soft flush: release the coalesced pending watermark without
    /// truncating partially filled batch buffers. Destinations with an
    /// empty buffer get the watermark immediately; for the rest it is
    /// recorded as *owed* and rides that destination's next batch as an
    /// in-band mark, so micro-batches keep forming across punctuation.
    /// Owed watermarks are bounded by the callers' periodic
    /// [`flush_hard`](Self::flush_hard).
    fn flush(&mut self) {
        if let Some(wm) = self.pending_wm.take() {
            for r in &mut self.routes {
                if r.soft_watermark(wm).is_err() {
                    self.failed = true;
                }
            }
        }
    }

    /// Hard flush: send every pending batch (its owed watermarks riding as
    /// marks), then broadcast the coalesced pending watermark.
    fn flush_hard(&mut self) {
        for r in &mut self.routes {
            // The hard flush doubles as the idle-path shard observation
            // point: even a task with nothing to send cuts over to a new
            // slot table (and broadcasts its marker) within `idle_flush`.
            if r.observe_shard().is_err() {
                self.failed = true;
            }
            if r.flush_all().is_err() {
                self.failed = true;
            }
            r.publish_traffic();
        }
        if let Some(wm) = self.pending_wm.take() {
            for r in &mut self.routes {
                // Watermarks stay frozen on routes with an in-flight
                // migration (released at completion); everywhere else the
                // hard flush broadcasts them directly.
                if !r.stash_if_frozen(wm) && r.broadcast(|| Message::Watermark(wm)).is_err() {
                    self.failed = true;
                }
            }
        }
    }

    /// Flush everything, then tell every downstream channel the stream is
    /// over.
    fn broadcast_end(&mut self) {
        self.flush_hard();
        for r in &self.routes {
            if r.broadcast(|| Message::End).is_err() {
                self.failed = true;
            }
        }
    }

    /// Source fast path: append a primitive event to every route's pending
    /// batch without materializing a row tuple (no heap traffic).
    fn emit_event(&mut self, e: Event, wall: u64) {
        self.out_count += 1;
        for s in &self.sinks {
            s.deliver_one(wall, || Tuple::from_event_wall(e, wall));
        }
        for r in &mut self.routes {
            if r.buffer_event(e, wall).is_err() {
                self.failed = true;
            }
        }
    }

    /// Route a processed batch downstream. A dense, full batch bound for a
    /// single pre-resolved destination with an empty pending buffer moves
    /// onto the wire without copying a row; everything else gather-appends
    /// the selected rows into the destinations' pending batches.
    fn forward_batch(&mut self, mut batch: ColumnarBatch) {
        #[cfg(feature = "invariant-checks")]
        if self.enforce_emit_floor {
            if let Some(min) = batch.min_ts() {
                assert!(
                    min >= self.wm_floor,
                    "invariant violation: task emitted batch with min ts {min:?} behind its own broadcast watermark {:?}",
                    self.wm_floor
                );
            }
        }
        let selected = batch.selected_len();
        if selected == 0 {
            return;
        }
        self.out_count += selected as u64;
        for s in &self.sinks {
            s.deliver_batch(&batch);
        }
        let routes = &mut self.routes;
        let n = routes.len();
        if n == 0 {
            return;
        }
        // Shared fan-out: a full batch bound for ≥ 2 pre-resolved,
        // unsharded destinations goes out once as an `Arc` instead of
        // being gather-copied into every route's pending buffer — the
        // multi-consumer analogue of the single-route zero-copy path
        // below. Each route first settles its pending rows and owed
        // watermarks via `flush_buf`, so the channel-relative order of
        // tuples and watermarks stays a pure function of emission order.
        if n >= 2
            && selected >= self.batch_size
            && routes
                .iter()
                .all(|r| r.fixed.is_some() && r.shard.is_none())
        {
            if let Err(e) = batch.compact() {
                routes[0].op_error.get_or_insert(e);
                self.failed = true;
                return;
            }
            let shared = Arc::new(batch);
            for r in routes.iter_mut() {
                let idx = r.fixed.expect("eligibility checked above");
                if r.flush_buf(idx).is_err()
                    || r.send_batch(idx, shared.clone(), Vec::new()).is_err()
                {
                    self.failed = true;
                }
            }
            return;
        }
        for r in routes.iter_mut().take(n - 1) {
            if r.append_batch(&batch).is_err() {
                self.failed = true;
            }
        }
        let last = &mut routes[n - 1];
        if let Some(idx) = last.fixed {
            // The zero-copy path requires an empty pending buffer (and so
            // no owed marks, which only ride on buffered rows).
            if last.bufs[idx].is_empty() {
                if let Err(e) = batch.compact() {
                    last.op_error.get_or_insert(e);
                    self.failed = true;
                } else if batch.len() >= self.batch_size {
                    if last.send_batch(idx, Arc::new(batch), Vec::new()).is_err() {
                        self.failed = true;
                    }
                } else {
                    // Short batch: it *becomes* the pending buffer.
                    last.bufs[idx] = batch;
                }
                return;
            }
        }
        if last.append_batch(&batch).is_err() {
            self.failed = true;
        }
    }

    /// Channel messages carrying tuples sent so far (a batch counts once).
    fn messages_sent(&self) -> u64 {
        self.routes.iter().map(|r| r.batches).sum()
    }

    /// First operator-grade failure recorded by any route (composite
    /// side-table overflow); the harness reports it via `record_op_error`.
    fn take_op_error(&mut self) -> Option<OpError> {
        self.routes.iter_mut().find_map(|r| r.op_error.take())
    }
}

impl Collector for ChannelCollector {
    fn emit(&mut self, tuple: Tuple) {
        // Watermark contract: once a task has told downstream "no tuples
        // below W", it must never emit one (operators hold watermarks back
        // by their window size to guarantee this — see WindowJoinOp).
        #[cfg(feature = "invariant-checks")]
        assert!(
            !self.enforce_emit_floor || tuple.ts >= self.wm_floor,
            "invariant violation: task emitted tuple at {:?} behind its own broadcast watermark {:?}",
            tuple.ts,
            self.wm_floor
        );
        self.out_count += 1;
        for s in &self.sinks {
            s.deliver_one(tuple.wall, || tuple.clone());
        }
        // Clone for all but the last route; move into the last. The tuple
        // is decomposed into each route's pending column batch.
        let Some((last, rest)) = self.routes.split_last_mut() else {
            return;
        };
        for r in rest {
            if r.buffer_tuple(tuple.clone()).is_err() {
                self.failed = true;
            }
        }
        if last.buffer_tuple(tuple).is_err() {
            self.failed = true;
        }
    }
}

/// Per-instance shared counters and gauges the report (and the sampler /
/// progress threads) aggregate. All fields use relaxed atomics: counters
/// are independent and the final report is assembled only after the worker
/// threads are joined, which is the synchronization edge; mid-run samples
/// tolerate approximation.
struct InstanceStats {
    records_in: AtomicU64,
    records_out: AtomicU64,
    batches_out: AtomicU64,
    late_dropped: AtomicU64,
    state_bytes: AtomicUsize,
    peak_state: AtomicUsize,
    /// Keyed-state high-water marks reported by the instance's operator
    /// ([`Operator::keyed_state`]): peak resident keys per side and the
    /// longest per-key run. 0 for operators without keyed state.
    keyed_left_keys: AtomicUsize,
    keyed_right_keys: AtomicUsize,
    keyed_max_run: AtomicUsize,
    /// Nanoseconds spent blocked sending into full downstream inboxes.
    backpressure_ns: AtomicU64,
    /// Last sampled inbox depth (queued channel messages), and its peak.
    queue_depth: AtomicUsize,
    queue_depth_peak: AtomicUsize,
    /// Gauge: newest event ts seen minus merged watermark, ms, and peak.
    watermark_lag_ms: AtomicI64,
    watermark_lag_peak_ms: AtomicI64,
    /// Strided `Operator::process` wall-time observations.
    proc_hist: LatencyHistogram,
}

impl InstanceStats {
    fn new() -> Arc<Self> {
        Arc::new(InstanceStats {
            records_in: AtomicU64::new(0),
            records_out: AtomicU64::new(0),
            batches_out: AtomicU64::new(0),
            late_dropped: AtomicU64::new(0),
            state_bytes: AtomicUsize::new(0),
            peak_state: AtomicUsize::new(0),
            keyed_left_keys: AtomicUsize::new(0),
            keyed_right_keys: AtomicUsize::new(0),
            keyed_max_run: AtomicUsize::new(0),
            backpressure_ns: AtomicU64::new(0),
            queue_depth: AtomicUsize::new(0),
            queue_depth_peak: AtomicUsize::new(0),
            watermark_lag_ms: AtomicI64::new(0),
            watermark_lag_peak_ms: AtomicI64::new(0),
            proc_hist: LatencyHistogram::default(),
        })
    }

    fn set_state(&self, bytes: usize) {
        self.state_bytes.store(bytes, Ordering::Relaxed);
        self.peak_state.fetch_max(bytes, Ordering::Relaxed);
    }

    /// Record an operator's keyed-state high-water marks. The values are
    /// lifetime peaks, so a single observation at teardown is exact;
    /// `fetch_max` keeps earlier observations monotone regardless.
    fn set_keyed(&self, keyed: Option<crate::operator::KeyedStateStats>) {
        if let Some(ks) = keyed {
            self.keyed_left_keys
                .fetch_max(ks.left_keys, Ordering::Relaxed);
            self.keyed_right_keys
                .fetch_max(ks.right_keys, Ordering::Relaxed);
            self.keyed_max_run
                .fetch_max(ks.max_run_len, Ordering::Relaxed);
        }
    }

    /// Record the inbox depth gauge (and its peak).
    fn note_queue_depth(&self, depth: usize) {
        self.queue_depth.store(depth, Ordering::Relaxed);
        self.queue_depth_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Record how far the merged event-time clock trails the newest event
    /// timestamp this instance has seen. Skipped until both ends of the
    /// interval are meaningful (at least one tuple, a finite watermark).
    fn note_watermark_lag(&self, max_ts_seen: Timestamp, wm: Timestamp) {
        if max_ts_seen > Timestamp::MIN && wm < Timestamp::MAX {
            let lag = max_ts_seen.millis().saturating_sub(wm.millis()).max(0);
            self.watermark_lag_ms.store(lag, Ordering::Relaxed);
            self.watermark_lag_peak_ms.fetch_max(lag, Ordering::Relaxed);
        }
    }
}

/// One sink's results, written by every instance that feeds it, each on
/// its own thread at emission time.
struct SinkShared {
    mode: SinkMode,
    tuples: Mutex<Vec<Tuple>>,
    count: AtomicU64,
    latencies_ns: Mutex<Vec<u64>>,
    /// Every `stride`-th delivered row, counted over `count` and so across
    /// producer instances, is stamped with its detection latency.
    stride: u64,
    epoch: Instant,
}

impl SinkShared {
    /// Count `n` delivered rows and return the offsets among them whose
    /// running index falls on the latency stride.
    fn reserve(&self, n: u64) -> impl Iterator<Item = usize> {
        let base = self.count.fetch_add(n, Ordering::Relaxed);
        let first = self.stride - 1 - base % self.stride;
        (first..n).step_by(self.stride as usize).map(|k| k as usize)
    }

    /// Record `now − wall` for each sampled row that carries a wall stamp:
    /// one clock read and one lock per delivery.
    fn record_latency(&self, walls: impl Iterator<Item = u64>) {
        let mut walls = walls.filter(|&w| w > 0).peekable();
        if walls.peek().is_some() {
            let now = self.epoch.elapsed().as_nanos() as u64;
            self.latencies_ns
                .lock()
                .extend(walls.map(|w| now.saturating_sub(w)));
        }
    }

    /// Deliver one row; `tuple` materializes it only in `Collect` mode.
    fn deliver_one(&self, wall: u64, tuple: impl FnOnce() -> Tuple) {
        self.record_latency(self.reserve(1).map(|_| wall));
        if self.mode == SinkMode::Collect {
            self.tuples.lock().push(tuple());
        }
    }

    /// Deliver the selected rows of `b`, read in place.
    fn deliver_batch(&self, b: &ColumnarBatch) {
        let row = |k: usize| b.sel.as_ref().map_or(k, |s| s[k] as usize);
        let n = b.selected_len();
        self.record_latency(self.reserve(n as u64).map(|k| b.wall[row(k)]));
        if self.mode == SinkMode::Collect {
            self.tuples
                .lock()
                .extend((0..n).map(|k| b.tuple_at(row(k))));
        }
    }
}

/// Collected results of one pipeline run.
#[derive(Debug)]
pub struct RunReport {
    /// Wall-clock duration of the whole run.
    pub duration: StdDuration,
    /// Total events emitted by all sources.
    pub source_events: u64,
    /// Per-node statistics in graph order.
    pub nodes: Vec<NodeStats>,
    /// Resource samples (if sampling was enabled).
    pub samples: Vec<ResourceSample>,
    /// Structured events retained by the run's [`EventLog`], oldest first.
    pub events: Vec<LogEvent>,
    /// Events displaced from the ring (emitted but not retained).
    pub events_displaced: u64,
    sinks: Vec<SinkResult>,
}

#[derive(Debug)]
struct SinkResult {
    tuples: Vec<Tuple>,
    count: u64,
    latencies_ns: Vec<u64>,
}

impl RunReport {
    /// Tuples collected by a sink (empty in [`SinkMode::CountOnly`]).
    pub fn sink(&self, id: SinkId) -> &[Tuple] {
        &self.sinks[id.0].tuples
    }

    /// Move a sink's tuples out of the report.
    pub fn take_sink(&mut self, id: SinkId) -> Vec<Tuple> {
        std::mem::take(&mut self.sinks[id.0].tuples)
    }

    /// Number of tuples that reached the sink (works in both modes).
    pub fn sink_count(&self, id: SinkId) -> u64 {
        self.sinks[id.0].count
    }

    /// Source-side throughput in events/second — the sustainable-throughput
    /// metric (sources are backpressured by the pipeline).
    pub fn throughput(&self) -> f64 {
        self.source_events as f64 / self.duration.as_secs_f64().max(1e-9)
    }

    /// Detection latency statistics at a sink.
    pub fn latency(&self, id: SinkId) -> LatencyStats {
        LatencyStats::from_ns(&self.sinks[id.0].latencies_ns)
    }

    /// Peak total operator state across the run (max over samples, or max
    /// of per-node peaks when sampling is off).
    pub fn peak_state_bytes(&self) -> usize {
        let from_samples = self
            .samples
            .iter()
            .map(|s| s.state_bytes)
            .max()
            .unwrap_or(0);
        let from_nodes: usize = self.nodes.iter().map(|n| n.peak_state_bytes).sum();
        from_samples.max(from_nodes)
    }

    /// Check the run's observed telemetry against statically derived
    /// [`StaticBounds`] and return every violated limit.
    ///
    /// Sink tuples are the summed delivered counts across all sinks; state
    /// is the summed per-node peak (each node's peak is individually below
    /// its static bound, so the sums compare soundly without mapping plan
    /// nodes to physical operators). An empty result means the cost model
    /// survived contact with this run.
    pub fn check_bounds(&self, bounds: &StaticBounds) -> Vec<BoundViolation> {
        let mut violations = Vec::new();
        if let Some(limit) = bounds.max_sink_tuples {
            let actual: u64 = self.sinks.iter().map(|s| s.count).sum();
            if actual > limit {
                violations.push(BoundViolation {
                    quantity: "sink_tuples",
                    actual,
                    bound: limit,
                    origin: bounds.origin.clone(),
                });
            }
        }
        if let Some(limit) = bounds.max_total_state_bytes {
            let actual: u64 = self.nodes.iter().map(|n| n.peak_state_bytes as u64).sum();
            if actual > limit {
                violations.push(BoundViolation {
                    quantity: "state_bytes",
                    actual,
                    bound: limit,
                    origin: bounds.origin.clone(),
                });
            }
        }
        if let Some(limit) = bounds.max_keyed_run {
            // Runs are per key per instance, so the max over nodes is the
            // right observable (never summed).
            let actual: u64 = self
                .nodes
                .iter()
                .map(|n| n.keyed_max_run as u64)
                .max()
                .unwrap_or(0);
            if actual > limit {
                violations.push(BoundViolation {
                    quantity: "keyed_run_len",
                    actual,
                    bound: limit,
                    origin: bounds.origin.clone(),
                });
            }
        }
        violations
    }

    /// Export the full telemetry of the run as a pretty-printed JSON
    /// document: per-node counters and latency histograms, watermark-lag /
    /// queue-depth / backpressure gauges, the resource-sample series, sink
    /// latency summaries, and the structured event log.
    ///
    /// Per-node derived quantities (`avg_batch`, histogram quantile bucket
    /// bounds) are materialized alongside the raw fields so consumers need
    /// no histogram arithmetic.
    pub fn to_json(&self) -> String {
        let nodes: Vec<Value> = self
            .nodes
            .iter()
            .map(|n| {
                let mut v = n.to_value();
                if let Value::Object(pairs) = &mut v {
                    pairs.push(("avg_batch".into(), Value::Float(n.avg_batch())));
                    pairs.push((
                        "proc_latency_mean_us".into(),
                        Value::Float(n.proc_latency.mean_us()),
                    ));
                    for (name, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
                        pairs.push((
                            format!("proc_latency_{name}_le_ns"),
                            Value::UInt(n.proc_latency.quantile_le_ns(q)),
                        ));
                    }
                }
                v
            })
            .collect();
        let sinks: Vec<Value> = self
            .sinks
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("count".into(), Value::UInt(s.count)),
                    (
                        "latency".into(),
                        LatencyStats::from_ns(&s.latencies_ns).to_value(),
                    ),
                ])
            })
            .collect();
        let root = Value::Object(vec![
            ("schema_version".into(), Value::UInt(1)),
            (
                "duration_ms".into(),
                Value::Float(self.duration.as_secs_f64() * 1e3),
            ),
            ("source_events".into(), Value::UInt(self.source_events)),
            ("throughput_eps".into(), Value::Float(self.throughput())),
            (
                "peak_state_bytes".into(),
                Value::UInt(self.peak_state_bytes() as u64),
            ),
            ("nodes".into(), Value::Array(nodes)),
            ("samples".into(), self.samples.to_value()),
            ("sinks".into(), Value::Array(sinks)),
            ("events".into(), self.events.to_value()),
            (
                "events_displaced".into(),
                Value::UInt(self.events_displaced),
            ),
        ]);
        // The vendored writer is infallible for trees built from finite
        // numbers; fall back to an empty document rather than unwrap.
        serde_json::to_string_pretty(&root).unwrap_or_else(|_| String::from("{}"))
    }
}

/// Executes a [`GraphBuilder`] graph to completion.
pub struct Executor {
    cfg: ExecutorConfig,
}

impl Executor {
    /// An executor with the given runtime knobs.
    pub fn new(cfg: ExecutorConfig) -> Self {
        Executor { cfg }
    }

    /// Run the graph to end-of-stream and aggregate a [`RunReport`].
    ///
    /// The graph is statically validated first ([`crate::validate`]); a
    /// malformed graph is refused with [`PipelineError::Validation`] listing
    /// every defect before any thread is spawned.
    pub fn run(&self, graph: GraphBuilder) -> Result<RunReport, PipelineError> {
        if !self.cfg.env_errors.is_empty() {
            return Err(PipelineError::Validation(
                self.cfg
                    .env_errors
                    .iter()
                    .map(|msg| {
                        crate::validate::Diagnostic::error(
                            crate::validate::Code::InvalidEnvConfig,
                            None,
                            msg.clone(),
                        )
                    })
                    .collect(),
            ));
        }
        // Apply the shard-count override to sharded nodes *before* static
        // validation, so a mismatch introduced by the override (e.g. a
        // Forward edge into a re-parallelized node, G005) is refused with
        // the same diagnostics as a hand-built graph.
        let mut graph = graph;
        if let Some(shards) = self.cfg.shards {
            for node in graph.nodes.iter_mut() {
                if node.sharded {
                    node.parallelism = shards;
                }
            }
        }
        crate::validate::validate(&graph).map_err(PipelineError::Validation)?;
        if self.cfg.batch_size == 0 {
            return Err(PipelineError::Validation(vec![
                crate::validate::Diagnostic::error(
                    crate::validate::Code::InvalidBatchSize,
                    None,
                    "ExecutorConfig::batch_size must be ≥ 1 (a zero-sized batch would never flush)",
                ),
            ]));
        }
        let graph = if self.cfg.operator_chaining {
            chain::fuse_chains(graph)
        } else {
            graph
        };
        let n_nodes = graph.nodes.len();
        // One task per source or operator instance; sinks run none.
        let tasks: Vec<usize> = graph
            .nodes
            .iter()
            .map(|n| match n.kind {
                NodeKind::Sink(_) => 0,
                _ => n.parallelism,
            })
            .collect();
        let n_tasks: usize = tasks.iter().sum();
        let abort = Arc::new(AtomicBool::new(false));
        let first_error: Arc<Mutex<Option<PipelineError>>> = Arc::new(Mutex::new(None));
        let epoch = Instant::now();
        let log = Arc::new(EventLog::new(self.cfg.event_log_capacity));
        log.emit(
            Level::Info,
            "executor",
            format!(
                "run started: {n_nodes} nodes, {n_tasks} task threads, batch_size={}, chaining={}",
                self.cfg.batch_size, self.cfg.operator_chaining,
            ),
        );

        // Inboxes: one bounded channel per task.
        let mut inbox_tx: Vec<Vec<Sender<Envelope>>> = Vec::with_capacity(n_nodes);
        let mut inbox_rx: Vec<Vec<Option<Receiver<Envelope>>>> = Vec::with_capacity(n_nodes);
        for &n in &tasks {
            let (txs, rxs) = (0..n)
                .map(|_| {
                    let (tx, rx) = bounded(self.cfg.channel_capacity);
                    (tx, Some(rx))
                })
                .unzip();
            inbox_tx.push(txs);
            inbox_rx.push(rxs);
        }

        // Sinks, by id: each producer instance delivers into them directly.
        let sink_shared: Vec<Arc<SinkShared>> = graph
            .sink_modes
            .iter()
            .map(|&mode| {
                Arc::new(SinkShared {
                    mode,
                    tuples: Mutex::new(Vec::new()),
                    count: AtomicU64::new(0),
                    latencies_ns: Mutex::new(Vec::new()),
                    stride: self.cfg.latency_stride.max(1) as u64,
                    epoch,
                })
            })
            .collect();

        // Per node, the template of its outgoing edges: channel routes
        // `(dst, port, exchange)`, and the sinks it delivers into.
        let mut route_templates: Vec<Vec<(NodeId, usize, Exchange)>> = vec![Vec::new(); n_nodes];
        let mut sink_targets: Vec<Vec<Arc<SinkShared>>> = vec![Vec::new(); n_nodes];
        for e in &graph.edges {
            match graph.nodes[e.dst.0].kind {
                NodeKind::Sink(sid) => sink_targets[e.src.0].push(sink_shared[sid.0].clone()),
                _ => route_templates[e.src.0].push((e.dst, e.port, e.exchange)),
            }
        }

        // Input channel layout per node: upstream parallelism per port.
        let input_layout: Vec<Vec<usize>> = (0..n_nodes)
            .map(|i| graph.input_channels(NodeId(i)))
            .collect();

        // One shard plan per sharded node with ≥ 2 instances: the shared
        // slot table its upstream routes consult and the rebalancer flips.
        let shard_plans: Vec<Option<Arc<shard::ShardPlan>>> = graph
            .nodes
            .iter()
            .map(|n| (n.sharded && n.parallelism > 1).then(|| shard::ShardPlan::new(n.parallelism)))
            .collect();

        // Shared stats.
        let stats: Vec<Vec<Arc<InstanceStats>>> = graph
            .nodes
            .iter()
            .map(|n| (0..n.parallelism).map(|_| InstanceStats::new()).collect())
            .collect();

        let source_events = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicBool::new(false));

        // Sampler thread.
        let sampler_handle = self.cfg.sample_interval.map(|interval| {
            let flat_stats: Vec<Arc<InstanceStats>> = stats.iter().flatten().cloned().collect();
            let done = done.clone();
            std::thread::spawn(move || metrics::sample_loop(interval, flat_stats, done))
        });

        // Progress reporter thread (emits into the event log).
        let progress_handle = self.cfg.progress_interval.map(|interval| {
            let flat_stats: Vec<Arc<InstanceStats>> = stats.iter().flatten().cloned().collect();
            let done = done.clone();
            let log = log.clone();
            let sources = source_events.clone();
            std::thread::spawn(move || {
                metrics::progress_loop(interval, flat_stats, sources, log, done)
            })
        });

        // Adaptive rebalancer: one thread watching every shard plan's
        // traffic histogram, publishing at most one migration per plan at
        // a time. `rebalance_interval: None` keeps placement static.
        let active_plans: Vec<Arc<shard::ShardPlan>> =
            shard_plans.iter().flatten().cloned().collect();
        let rebalancer_handle = match (self.cfg.rebalance_interval, active_plans.is_empty()) {
            (Some(interval), false) => {
                let done = done.clone();
                let log = log.clone();
                Some(std::thread::spawn(move || {
                    shard::rebalance_loop(active_plans, interval, done, log)
                }))
            }
            _ => None,
        };

        let mut handles = Vec::new();
        let mut graph = graph;
        for (nid, node) in graph.nodes.iter_mut().enumerate() {
            let parallelism = node.parallelism;
            for instance in 0..parallelism {
                // Build this instance's routes.
                let istats = stats[nid][instance].clone();
                let ctx = RouteCtx {
                    batch_size: self.cfg.batch_size,
                    abort: abort.clone(),
                    istats: istats.clone(),
                };
                let routes: Vec<Route> = route_templates[nid]
                    .iter()
                    .map(|(dst, port, exchange)| {
                        Route::new(
                            *exchange,
                            *port as u16,
                            instance,
                            inbox_tx[dst.0].clone(),
                            shard_plans[dst.0].clone(),
                            ctx.clone(),
                        )
                    })
                    .collect();
                let collector = ChannelCollector {
                    routes,
                    sinks: sink_targets[nid].clone(),
                    batch_size: self.cfg.batch_size,
                    out_count: 0,
                    failed: false,
                    pending_wm: None,
                    #[cfg(feature = "invariant-checks")]
                    wm_floor: Timestamp::MIN,
                    #[cfg(feature = "invariant-checks")]
                    enforce_emit_floor: !matches!(node.kind, NodeKind::Source { .. }),
                };
                let abort = abort.clone();
                let first_error = first_error.clone();
                let log = log.clone();
                let proc_every = self.cfg.proc_latency_every as u64;
                let name = node.name.clone();

                let handle = match &mut node.kind {
                    NodeKind::Source { cfg, chain } => {
                        let cfg = cfg.clone();
                        let chained: Option<Box<dyn Operator>> = if chain.is_empty() {
                            None
                        } else {
                            Some(Box::new(chain::ChainedOperator::new(
                                chain.iter().map(|f| f(instance)).collect(),
                            )))
                        };
                        let counter = source_events.clone();
                        let first_error = first_error.clone();
                        let idle_flush = self.cfg.idle_flush;
                        std::thread::Builder::new()
                            .name(format!("{name}#{instance}"))
                            .spawn(move || {
                                run_source(
                                    cfg,
                                    chained,
                                    instance,
                                    parallelism,
                                    collector,
                                    counter,
                                    istats,
                                    abort,
                                    first_error,
                                    epoch,
                                    idle_flush,
                                    proc_every,
                                    log,
                                )
                            })
                            .expect("spawn source")
                    }
                    NodeKind::Operator(factory) => {
                        let op = factory(instance);
                        let rx = inbox_rx[nid][instance].take().expect("rx unused");
                        let layout = input_layout[nid].clone();
                        let drop_late = self.cfg.drop_late;
                        let idle_flush = self.cfg.idle_flush;
                        let shard_ctx = shard_plans[nid].as_ref().map(|plan| {
                            if instance == 0 {
                                // Migrations move keyed state through the row
                                // shim's per-tuple stash hook, which an
                                // operator on the vectorized path never
                                // reaches, so keep its placement static.
                                plan.set_migratable(
                                    op.shard_handoff_supported()
                                        && op.batch_support() == BatchSupport::Row,
                                );
                            }
                            ShardCtx::new(plan.clone(), instance, inbox_tx[nid].clone())
                        });
                        std::thread::Builder::new()
                            .name(format!("{name}#{instance}"))
                            .spawn(move || {
                                run_operator(
                                    op,
                                    rx,
                                    layout,
                                    collector,
                                    istats,
                                    abort,
                                    first_error,
                                    drop_late,
                                    idle_flush,
                                    proc_every,
                                    shard_ctx,
                                    log,
                                )
                            })
                            .expect("spawn operator")
                    }
                    // A sink runs no task: its producers deliver into it.
                    NodeKind::Sink(_) => continue,
                };
                handles.push(handle);
            }
        }

        // Drop our copies of the senders so disconnects propagate, and of
        // the sink handles so each sink's result is uniquely held once the
        // tasks are joined.
        drop(inbox_tx);
        drop(sink_targets);

        let mut panic_msg = None;
        for h in handles {
            if let Err(p) = h.join() {
                abort.store(true, Ordering::Relaxed);
                let msg = p
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".to_string());
                panic_msg.get_or_insert(msg);
            }
        }
        done.store(true, Ordering::Relaxed);
        if let Some(h) = rebalancer_handle {
            let _ = h.join();
        }
        let samples = sampler_handle
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default();
        if let Some(h) = progress_handle {
            let _ = h.join();
        }
        let duration = epoch.elapsed();

        if let Some(err) = first_error.lock().take() {
            log.emit(Level::Error, "executor", format!("run aborted: {err}"));
            return Err(err);
        }
        if let Some(msg) = panic_msg {
            log.emit(Level::Error, "executor", format!("worker panicked: {msg}"));
            return Err(PipelineError::WorkerPanic(msg));
        }
        log.emit(
            Level::Info,
            "executor",
            format!(
                "run finished: {} source events in {:.1} ms",
                source_events.load(Ordering::Relaxed),
                duration.as_secs_f64() * 1e3
            ),
        );

        // Aggregate per-node stats.
        let nodes = graph
            .nodes
            .iter()
            .enumerate()
            .map(|(nid, node)| NodeStats {
                name: node.name.clone(),
                parallelism: node.parallelism,
                records_in: match node.kind {
                    // A sink's input is what its producers delivered.
                    NodeKind::Sink(sid) => sink_shared[sid.0].count.load(Ordering::Relaxed),
                    _ => stats[nid]
                        .iter()
                        .map(|s| s.records_in.load(Ordering::Relaxed))
                        .sum(),
                },
                records_out: stats[nid]
                    .iter()
                    .map(|s| s.records_out.load(Ordering::Relaxed))
                    .sum(),
                batches_out: stats[nid]
                    .iter()
                    .map(|s| s.batches_out.load(Ordering::Relaxed))
                    .sum(),
                late_dropped: stats[nid]
                    .iter()
                    .map(|s| s.late_dropped.load(Ordering::Relaxed))
                    .sum(),
                peak_state_bytes: stats[nid]
                    .iter()
                    .map(|s| s.peak_state.load(Ordering::Relaxed))
                    .sum(),
                keyed_left_keys: stats[nid]
                    .iter()
                    .map(|s| s.keyed_left_keys.load(Ordering::Relaxed))
                    .sum(),
                keyed_right_keys: stats[nid]
                    .iter()
                    .map(|s| s.keyed_right_keys.load(Ordering::Relaxed))
                    .sum(),
                keyed_max_run: stats[nid]
                    .iter()
                    .map(|s| s.keyed_max_run.load(Ordering::Relaxed))
                    .max()
                    .unwrap_or(0),
                shard_migrations: shard_plans[nid].as_ref().map_or(0, |p| p.migrations_done()),
                proc_latency: stats[nid].iter().fold(
                    crate::obs::HistogramSummary::default(),
                    |mut acc, s| {
                        acc.merge(&s.proc_hist.summary());
                        acc
                    },
                ),
                watermark_lag_ms: stats[nid]
                    .iter()
                    .map(|s| s.watermark_lag_ms.load(Ordering::Relaxed))
                    .max()
                    .unwrap_or(0),
                watermark_lag_peak_ms: stats[nid]
                    .iter()
                    .map(|s| s.watermark_lag_peak_ms.load(Ordering::Relaxed))
                    .max()
                    .unwrap_or(0),
                queue_depth: stats[nid]
                    .iter()
                    .map(|s| s.queue_depth.load(Ordering::Relaxed))
                    .sum(),
                queue_depth_peak: stats[nid]
                    .iter()
                    .map(|s| s.queue_depth_peak.load(Ordering::Relaxed))
                    .max()
                    .unwrap_or(0),
                backpressure_ns: stats[nid]
                    .iter()
                    .map(|s| s.backpressure_ns.load(Ordering::Relaxed))
                    .sum(),
            })
            .collect();

        // All workers are joined, so each sink's Arc should be uniquely
        // held here. If one is not, the run's bookkeeping is broken —
        // report it as an error instead of panicking out of the embedder.
        let mut sinks = Vec::with_capacity(sink_shared.len());
        for (i, s) in sink_shared.into_iter().enumerate() {
            let count = s.count.load(Ordering::Relaxed);
            match Arc::try_unwrap(s) {
                Ok(s) => sinks.push(SinkResult {
                    tuples: s.tuples.into_inner(),
                    count,
                    latencies_ns: s.latencies_ns.into_inner(),
                }),
                Err(_) => {
                    let msg = format!("sink {i} result still shared after all workers joined");
                    log.emit(Level::Error, "executor", &msg);
                    return Err(PipelineError::Internal(msg));
                }
            }
        }

        Ok(RunReport {
            duration,
            source_events: source_events.load(Ordering::Relaxed),
            nodes,
            samples,
            events: log.snapshot(),
            events_displaced: log.displaced(),
            sinks,
        })
    }
}

#[allow(clippy::too_many_arguments)]
fn run_source(
    cfg: SourceConfig,
    mut chained: Option<Box<dyn Operator>>,
    instance: usize,
    parallelism: usize,
    mut collector: ChannelCollector,
    counter: Arc<AtomicU64>,
    istats: Arc<InstanceStats>,
    abort: Arc<AtomicBool>,
    first_error: Arc<Mutex<Option<PipelineError>>>,
    epoch: Instant,
    idle_flush: StdDuration,
    proc_every: u64,
    log: Arc<EventLog>,
) {
    let mut last_ts = Timestamp::MIN;
    let mut forwarded_wm = Timestamp::MIN;
    let mut emitted: u64 = 0;
    let lag = cfg.watermark_lag;
    let pace = cfg
        .rate
        .map(|r| StdDuration::from_secs_f64(1.0 / r.max(1e-9)));
    let start = Instant::now();
    // Rate-limited sources check the idle-flush deadline per event so a
    // partial batch never outlives `idle_flush`; saturating sources fill
    // batches in microseconds and flush at every punctuation instead.
    let mut last_flush = start;
    // Events stream straight into column batches. With a columnar-capable
    // chained operator they are staged per `batch_size` and driven through
    // `process_columnar`; without a chain they go directly into the routes'
    // pending batches (`emit_event`). A row-only chain keeps the per-tuple
    // path (its emissions are re-batched by the collector).
    let columnar_chain = chained
        .as_ref()
        .is_some_and(|op| op.batch_support() == BatchSupport::Columnar);
    let bs = collector.batch_size;
    let mut staging = if columnar_chain {
        ColumnarBatch::with_capacity(bs)
    } else {
        ColumnarBatch::default()
    };
    // Wall stamp (the origin of sink latency). A paced source stamps every
    // event at its emission time; a closed-loop source reads the clock once
    // per staged batch (once per `batch_size` events without a columnar
    // chain), so an event's stamp is when its batch started staging, at
    // most `batch_size` events early.
    let mut wall = 0u64;
    'ingest: for (i, ev) in cfg.events.iter().enumerate() {
        if parallelism > 1 && i % parallelism != instance {
            continue;
        }
        if abort.load(Ordering::Relaxed) {
            break;
        }
        if let Some(p) = pace {
            let target = start + p.mul_f64(emitted as f64);
            let now = Instant::now();
            if target > now {
                std::thread::sleep(target - now);
            }
        }
        let restamp = pace.is_some()
            || if columnar_chain {
                staging.is_empty()
            } else {
                emitted % bs as u64 == 0
            };
        if restamp {
            wall = epoch.elapsed().as_nanos() as u64;
        }
        last_ts = last_ts.max(ev.ts);
        match &mut chained {
            Some(op) if columnar_chain => {
                staging.push_event(*ev, wall);
                if staging.len() >= bs {
                    // One strided observation per batch call: the cost of
                    // two clock reads amortizes over `bs` events.
                    let t0 = (proc_every != 0).then(Instant::now);
                    if let Err(e) = op.process_columnar(0, &mut staging) {
                        record_op_error(op.name(), e, &abort, &first_error, &log);
                        break 'ingest;
                    }
                    if let Some(t0) = t0 {
                        istats.proc_hist.record(t0.elapsed().as_nanos() as u64);
                    }
                    collector.forward_batch(std::mem::replace(
                        &mut staging,
                        ColumnarBatch::with_capacity(bs),
                    ));
                }
            }
            // Chained operators run inline on the source task; their
            // processing latency is attributed to the source node.
            Some(op) => {
                let t = Tuple::from_event_wall(*ev, wall);
                let t0 = (proc_every != 0 && emitted % proc_every == 0).then(Instant::now);
                if let Err(e) = op.process(0, t, &mut collector) {
                    record_op_error(op.name(), e, &abort, &first_error, &log);
                    break 'ingest;
                }
                if let Some(t0) = t0 {
                    istats.proc_hist.record(t0.elapsed().as_nanos() as u64);
                }
            }
            None => collector.emit_event(*ev, wall),
        }
        emitted += 1;
        if emitted as usize % cfg.watermark_every == 0 {
            // Stage boundary: rows covered by the upcoming watermark must
            // reach the routes' buffers before the watermark is recorded.
            if !staging.is_empty() {
                if let Some(op) = &mut chained {
                    if let Err(e) = op.process_columnar(0, &mut staging) {
                        record_op_error(op.name(), e, &abort, &first_error, &log);
                        break 'ingest;
                    }
                }
                collector.forward_batch(std::mem::replace(
                    &mut staging,
                    ColumnarBatch::with_capacity(bs),
                ));
            }
            let wm = last_ts.saturating_sub(lag);
            match &mut chained {
                Some(op) => match op.on_watermark(wm, &mut collector) {
                    Ok(fwd) => {
                        let fwd = fwd.min(wm);
                        if fwd > forwarded_wm {
                            forwarded_wm = fwd;
                            collector.broadcast_watermark(fwd);
                        }
                    }
                    Err(e) => {
                        record_op_error(op.name(), e, &abort, &first_error, &log);
                        break 'ingest;
                    }
                },
                None => {
                    if wm > forwarded_wm {
                        forwarded_wm = wm;
                        collector.broadcast_watermark(wm);
                    }
                }
            }
            // Punctuation releases the watermark softly (it rides behind
            // full batches); the idle_flush deadline bounds how long an
            // owed watermark or partial batch can sit under sustained load.
            collector.flush();
            if last_flush.elapsed() >= idle_flush {
                collector.flush_hard();
                last_flush = Instant::now();
            }
            istats.set_state(chained.as_ref().map_or(0, |op| op.state_bytes()));
        } else if pace.is_some() && last_flush.elapsed() >= idle_flush {
            collector.flush_hard();
            last_flush = Instant::now();
        }
        if collector.failed {
            break;
        }
    }
    // Drain staged rows through the chain before the final watermark.
    if !staging.is_empty() && !abort.load(Ordering::Relaxed) {
        if let Some(op) = &mut chained {
            match op.process_columnar(0, &mut staging) {
                Ok(()) => collector.forward_batch(staging),
                Err(e) => record_op_error(op.name(), e, &abort, &first_error, &log),
            }
        }
    }
    match &mut chained {
        Some(op) => {
            if last_ts > Timestamp::MIN {
                if let Ok(fwd) = op.on_watermark(last_ts, &mut collector) {
                    let fwd = fwd.min(last_ts);
                    if fwd > forwarded_wm {
                        collector.broadcast_watermark(fwd);
                    }
                }
            }
            if let Err(e) = op.on_finish(&mut collector) {
                record_op_error(op.name(), e, &abort, &first_error, &log);
            }
            istats.set_state(op.state_bytes());
            istats.set_keyed(op.keyed_state());
        }
        None => {
            if last_ts > Timestamp::MIN {
                collector.broadcast_watermark(last_ts);
            }
        }
    }
    if let Some(e) = collector.take_op_error() {
        let name = chained.as_ref().map_or("source", |op| op.name());
        record_op_error(name, e, &abort, &first_error, &log);
    }
    collector.broadcast_end();
    counter.fetch_add(emitted, Ordering::Relaxed);
    istats.records_out.fetch_add(emitted, Ordering::Relaxed);
    istats
        .batches_out
        .fetch_add(collector.messages_sent(), Ordering::Relaxed);
    log.emit(
        Level::Debug,
        std::thread::current().name().unwrap_or("source"),
        format!("end of stream: {emitted} events ingested"),
    );
}

/// Per-(port, channel) watermark table used to merge watermarks.
struct WatermarkTable {
    /// wm[port][chan]
    wm: Vec<Vec<Timestamp>>,
    ended: Vec<Vec<bool>>,
    live: usize,
}

impl WatermarkTable {
    fn new(layout: &[usize]) -> Self {
        let mut wm = Vec::new();
        let mut ended = Vec::new();
        let mut live = 0;
        for chans in layout {
            wm.push(vec![Timestamp::MIN; *chans]);
            ended.push(vec![false; *chans]);
            live += *chans;
        }
        WatermarkTable { wm, ended, live }
    }

    /// Record watermark `ts` on one input channel and return the merged
    /// minimum across channels.
    fn advance(&mut self, port: usize, chan: usize, ts: Timestamp) -> Timestamp {
        // Punctuated watermarks are strictly increasing per sender, and
        // each (port, chan) cell has exactly one sender instance — so a
        // regression or a post-End watermark means a runtime bug upstream.
        #[cfg(feature = "invariant-checks")]
        {
            assert!(
                !self.ended[port][chan],
                "invariant violation: watermark {ts:?} on (port {port}, chan {chan}) after End"
            );
            assert!(
                ts >= self.wm[port][chan],
                "invariant violation: watermark regressed on (port {port}, chan {chan}): {ts:?} < {:?}",
                self.wm[port][chan]
            );
        }
        let cell = &mut self.wm[port][chan];
        if ts > *cell {
            *cell = ts;
        }
        self.min()
    }

    fn end(&mut self, port: usize, chan: usize) {
        if !self.ended[port][chan] {
            self.ended[port][chan] = true;
            self.wm[port][chan] = Timestamp::MAX;
            self.live -= 1;
        }
    }

    fn all_ended(&self) -> bool {
        self.live == 0
    }

    /// Last watermark seen on one specific input channel (used for the
    /// deterministic per-channel late-drop decision).
    fn channel_wm(&self, port: usize, chan: usize) -> Timestamp {
        self.wm[port][chan]
    }

    fn min(&self) -> Timestamp {
        self.wm
            .iter()
            .flat_map(|v| v.iter())
            .copied()
            .min()
            .unwrap_or(Timestamp::MAX)
    }
}

/// One operator instance's event-time clock: the per-channel watermark
/// table, the merged watermark the operator last fired at, the watermark it
/// last forwarded downstream, and the newest event timestamp seen (whose
/// distance to the merged watermark is the watermark-lag gauge).
struct OpClock {
    table: WatermarkTable,
    current: Timestamp,
    forwarded: Timestamp,
    max_ts: Timestamp,
}

impl OpClock {
    fn new(layout: &[usize]) -> Self {
        OpClock {
            table: WatermarkTable::new(layout),
            current: Timestamp::MIN,
            forwarded: Timestamp::MIN,
            max_ts: Timestamp::MIN,
        }
    }

    /// Fire the operator at merged watermark `m` if it advances the clock,
    /// and queue the operator's output watermark for broadcast.
    fn fire(
        &mut self,
        m: Timestamp,
        op: &mut dyn Operator,
        collector: &mut ChannelCollector,
        istats: &InstanceStats,
    ) -> Result<(), OpError> {
        if m <= self.current {
            return Ok(());
        }
        self.current = m;
        istats.note_watermark_lag(self.max_ts, m);
        let f = op.on_watermark(m, collector)?.min(m);
        if f > self.forwarded {
            self.forwarded = f;
            collector.broadcast_watermark(f);
        }
        istats.set_state(op.state_bytes());
        Ok(())
    }

    /// Apply a watermark arriving on `(port, chan)` — a standalone
    /// [`Message::Watermark`] or an in-band batch mark — and fire at the
    /// new merged minimum.
    fn advance(
        &mut self,
        (port, chan): (usize, usize),
        ts: Timestamp,
        op: &mut dyn Operator,
        collector: &mut ChannelCollector,
        istats: &InstanceStats,
    ) -> Result<(), OpError> {
        let m = self.table.advance(port, chan, ts);
        self.fire(m, op, collector, istats)
    }
}

/// After input channels end (an ended channel no longer holds the clock
/// back), fire at the new merged minimum; once every channel has ended,
/// finish the operator instead.
fn settle_ends(
    clock: &mut OpClock,
    op: &mut dyn Operator,
    collector: &mut ChannelCollector,
    istats: &InstanceStats,
    abort: &AtomicBool,
    first_error: &Mutex<Option<PipelineError>>,
    log: &EventLog,
) -> Step {
    if clock.table.all_ended() {
        if let Err(e) = op.on_finish(collector) {
            record_op_error(op.name(), e, abort, first_error, log);
        }
        return Step::Finished;
    }
    let m = clock.table.min();
    if m < Timestamp::MAX {
        if let Err(e) = clock.fire(m, op, collector, istats) {
            record_op_error(op.name(), e, abort, first_error, log);
            return Step::Error;
        }
    }
    Step::Continue
}

/// Receiver-side shard-migration state of one sharded-node instance.
///
/// Tracks the in-flight migration's cut-over markers across input
/// channels, stashes post-marker tuples for a slot migrating *to* this
/// instance, parks an early-arriving handoff, and defers End-driven clock
/// promotions while a migration is tracked (see [`shard`] module docs for
/// why the deferral keeps the extract/absorb clocks identical).
struct ShardCtx {
    plan: Arc<shard::ShardPlan>,
    /// This instance's shard index.
    me: usize,
    /// Sibling instances' inboxes, for sending the handoff payload.
    siblings: Vec<Sender<Envelope>>,
    /// The migration being tracked, with the input channels whose marker
    /// (or End) is still outstanding.
    pending: Option<PendingMigration>,
    /// Post-marker tuples for the inbound slot, in arrival order (their
    /// late-drop verdicts were already decided at arrival).
    stash: Vec<(usize, Tuple)>,
    /// Handoff that arrived before this instance's markers completed.
    parked: Option<Box<shard::HandoffPayload>>,
    /// `End`s received while tracking; their watermark-table promotion is
    /// applied when the migration resolves, so the merged clock at
    /// extract/absorb is the same pure function of pre-marker watermarks
    /// on every instance.
    deferred_ends: Vec<(usize, usize)>,
}

struct PendingMigration {
    mig: shard::Migration,
    need: std::collections::HashSet<(usize, usize)>,
}

impl ShardCtx {
    fn new(plan: Arc<shard::ShardPlan>, me: usize, siblings: Vec<Sender<Envelope>>) -> Self {
        ShardCtx {
            plan,
            me,
            siblings,
            pending: None,
            stash: Vec::new(),
            parked: None,
            deferred_ends: Vec::new(),
        }
    }

    /// Start tracking migration `version` at its first evidence (marker or
    /// handoff). The need-set is every input channel still live — each
    /// must deliver the marker (or its `End`) before the migration can
    /// act on this instance.
    fn begin_tracking(&mut self, version: u64, table: &WatermarkTable) {
        if self.pending.is_some() || version <= self.plan.completed() {
            return;
        }
        let Some(mig) = self.plan.migration() else {
            return;
        };
        if mig.version != version {
            return;
        }
        let mut need = std::collections::HashSet::new();
        for (port, chans) in table.ended.iter().enumerate() {
            for (chan, ended) in chans.iter().enumerate() {
                if !ended {
                    need.insert((port, chan));
                }
            }
        }
        self.pending = Some(PendingMigration { mig, need });
    }

    /// A marker (version `Some`) or `End` (version `None`) arrived on
    /// (port, chan): the channel can contribute nothing more to the
    /// pre-cut-over prefix.
    fn note_channel(&mut self, version: Option<u64>, port: usize, chan: usize) {
        if let Some(p) = &mut self.pending {
            if version.map_or(true, |v| v == p.mig.version) {
                p.need.remove(&(port, chan));
            }
        }
    }

    fn markers_complete(&self) -> bool {
        self.pending.as_ref().is_some_and(|p| p.need.is_empty())
    }

    /// Whether a post-cut-over tuple with this key belongs to a slot still
    /// in flight *to* this instance (stash until the handoff is absorbed).
    fn should_stash(&self, key: u64) -> bool {
        self.pending
            .as_ref()
            .is_some_and(|p| p.mig.to == self.me && shard::slot_of(key) == p.mig.slot)
    }
}

/// Blocking send of a shard handoff to a sibling instance's inbox, with
/// the same abort-aware backpressure loop as [`Route::send`].
fn send_handoff(tx: &Sender<Envelope>, mut env: Envelope, abort: &AtomicBool) -> Result<(), ()> {
    loop {
        match tx.send_timeout(env, StdDuration::from_millis(20)) {
            Ok(()) => return Ok(()),
            Err(crossbeam::channel::SendTimeoutError::Timeout(e)) => {
                if abort.load(Ordering::Relaxed) {
                    return Err(());
                }
                env = e;
            }
            Err(crossbeam::channel::SendTimeoutError::Disconnected(_)) => return Err(()),
        }
    }
}

/// Drive the tracked migration forward after a marker/`End`/handoff event.
///
/// When this instance's markers are complete: the migration *source*
/// extracts the slot's operator state and sends it to the target's inbox;
/// the *target* absorbs a parked handoff (or keeps waiting for it),
/// replays its stash in arrival order, and acknowledges completion;
/// bystanders just stop tracking. On resolution the deferred `End`s are
/// promoted and the operator fires at the recomputed merged clock.
#[allow(clippy::too_many_arguments)]
fn shard_progress(
    ctx: &mut ShardCtx,
    op: &mut dyn Operator,
    clock: &mut OpClock,
    collector: &mut ChannelCollector,
    istats: &InstanceStats,
    abort: &AtomicBool,
    first_error: &Mutex<Option<PipelineError>>,
    log: &EventLog,
) -> Step {
    if !ctx.markers_complete() {
        return Step::Continue;
    }
    let Some(p) = ctx.pending.take() else {
        return Step::Continue;
    };
    let mig = p.mig;
    if mig.from == ctx.me {
        let slot = mig.slot;
        let Some(state) = op.extract_shard(&move |key| shard::slot_of(key) == slot) else {
            // Unreachable when `set_migratable` gating is correct: the
            // rebalancer only migrates operators that declared support.
            let e = OpError::Failed {
                operator: op.name().to_string(),
                reason: "operator was migrated but does not implement extract_shard".to_string(),
            };
            record_op_error(op.name(), e, abort, first_error, log);
            return Step::Error;
        };
        let payload = Box::new(shard::HandoffPayload {
            version: mig.version,
            slot,
            state,
        });
        let env = Envelope {
            port: 0,
            chan: 0,
            msg: Message::ShardHandoff(payload),
        };
        if send_handoff(&ctx.siblings[mig.to], env, abort).is_err() {
            return Step::Error;
        }
        log.emit(
            Level::Debug,
            std::thread::current().name().unwrap_or("operator"),
            format!("handed slot {} off to shard {}", mig.slot, mig.to),
        );
    } else if mig.to == ctx.me {
        let Some(h) = ctx.parked.take() else {
            // Markers are complete but the state is still in flight: keep
            // draining (and keep deferring Ends) until it arrives.
            ctx.pending = Some(p);
            return Step::Continue;
        };
        debug_assert_eq!(h.version, mig.version, "handoff/migration version mismatch");
        debug_assert_eq!(h.slot, mig.slot, "handoff/migration slot mismatch");
        if let Err(e) = op.absorb_shard(h.state) {
            record_op_error(op.name(), e, abort, first_error, log);
            return Step::Error;
        }
        let stash = std::mem::take(&mut ctx.stash);
        for (port, t) in stash {
            if let Err(e) = op.process(port, t, collector) {
                record_op_error(op.name(), e, abort, first_error, log);
                return Step::Error;
            }
        }
        ctx.plan.complete(mig.version);
        log.emit(
            Level::Debug,
            std::thread::current().name().unwrap_or("operator"),
            format!("absorbed slot {} from shard {}", mig.slot, mig.from),
        );
    }
    // Resolution (all roles): promote the Ends deferred during tracking,
    // then fire at whatever the merged clock becomes.
    for (port, chan) in ctx.deferred_ends.drain(..) {
        clock.table.end(port, chan);
    }
    settle_ends(clock, op, collector, istats, abort, first_error, log)
}

fn record_op_error(
    name: &str,
    e: OpError,
    abort: &AtomicBool,
    first_error: &Mutex<Option<PipelineError>>,
    log: &EventLog,
) {
    log.emit(Level::Error, name, format!("operator error: {e}"));
    abort.store(true, Ordering::Relaxed);
    // An operator that declared columnar support but rejected its payload
    // is a contract violation, not a data error: surface it as diagnostic
    // G016 so it reads like the other plan/config defects.
    let err = match e {
        OpError::ColumnarUnsupported { .. } => {
            PipelineError::Validation(vec![crate::validate::Diagnostic::error(
                crate::validate::Code::ColumnarPayloadMismatch,
                None,
                format!("{e}"),
            )])
        }
        e => PipelineError::Operator(e),
    };
    first_error.lock().get_or_insert(err);
}

/// Outcome of handling one envelope in an instance harness.
enum Step {
    /// Keep draining the inbox.
    Continue,
    /// Every input channel ended and `on_finish` ran — exit cleanly.
    Finished,
    /// The operator errored (already recorded) — abort the run.
    Error,
}

#[allow(clippy::too_many_arguments)]
fn run_operator(
    mut op: Box<dyn Operator>,
    rx: Receiver<Envelope>,
    layout: Vec<usize>,
    mut collector: ChannelCollector,
    istats: Arc<InstanceStats>,
    abort: Arc<AtomicBool>,
    first_error: Arc<Mutex<Option<PipelineError>>>,
    drop_late: bool,
    idle_flush: StdDuration,
    proc_every: u64,
    shard: Option<ShardCtx>,
    log: Arc<EventLog>,
) {
    let mut shard = shard;
    let mut clock = OpClock::new(&layout);
    let mut records_in: u64 = 0;
    let mut late: u64 = 0;
    let fail = |name: &str, e: OpError| {
        record_op_error(name, e, &abort, &first_error, &log);
        Step::Error
    };
    // Handle one envelope; tuple batches are processed back-to-back
    // without touching the channel again.
    let mut handle = |env: Envelope, collector: &mut ChannelCollector| -> Step {
        let port = env.port as usize;
        let chan = env.chan as usize;
        // Late tuples are judged against the *arriving channel's* watermark,
        // not the merged minimum: the merged clock's momentary value depends
        // on cross-channel thread interleaving at unions/joins, while the
        // per-channel clock is a pure function of that channel's contents —
        // so which tuples drop is run-to-run deterministic. The channel
        // watermark is ≥ the merged watermark, so everything the merged
        // clock would have dropped still drops, and survivors still satisfy
        // the emission-floor contract (they are ≥ channel wm ≥ merged wm).
        // A batch's in-band marks advance the channel clock at their row
        // offsets, so each row is judged against the clock in force at it.
        // Shard protocol traffic falls through to `shard_progress`.
        let ctx = match env.msg {
            Message::Batch { rows: b, marks } => {
                debug_assert!(b.is_dense(), "wire batches are dense");
                if op.batch_support() == BatchSupport::Columnar {
                    // Vectorized path: take ownership (free when this
                    // consumer holds the last reference, one clone while a
                    // sibling consumer still reads it), then account,
                    // late-drop, and process the whole batch without
                    // materializing a row; the marks apply afterwards.
                    let mut b = Arc::try_unwrap(b).unwrap_or_else(|b| (*b).clone());
                    records_in += b.len() as u64;
                    if let Some(m) = b.max_ts() {
                        clock.max_ts = clock.max_ts.max(m);
                    }
                    if drop_late {
                        late += b.drop_late(clock.table.channel_wm(port, chan), &marks);
                    }
                    if b.selected_len() > 0 {
                        // One strided observation per batch call; the two
                        // clock reads amortize over the batch.
                        let t0 = (proc_every != 0).then(Instant::now);
                        if let Err(e) = op.process_columnar(port, &mut b) {
                            return fail(op.name(), e);
                        }
                        if let Some(t0) = t0 {
                            istats.proc_hist.record(t0.elapsed().as_nanos() as u64);
                        }
                        collector.forward_batch(b);
                    }
                    istats.set_state(op.state_bytes());
                    for (_, ts) in marks {
                        if let Err(e) =
                            clock.advance((port, chan), ts, &mut *op, collector, &istats)
                        {
                            return fail(op.name(), e);
                        }
                    }
                } else {
                    // Row shim: materialize each row at the input boundary
                    // of a row-only (stateful) operator, reading the batch
                    // in place. Each mark applies right before the row at
                    // its offset (trailing marks after the last row).
                    let mut marks = marks.into_iter().peekable();
                    let mut wm_now = clock.table.channel_wm(port, chan);
                    for i in 0..=b.len() {
                        while let Some((_, ts)) = marks.next_if(|&(p, _)| p <= i) {
                            if let Err(e) =
                                clock.advance((port, chan), ts, &mut *op, collector, &istats)
                            {
                                return fail(op.name(), e);
                            }
                            wm_now = clock.table.channel_wm(port, chan);
                        }
                        if i == b.len() {
                            break;
                        }
                        let t = b.tuple_at(i);
                        records_in += 1;
                        clock.max_ts = clock.max_ts.max(t.ts);
                        if drop_late && t.ts < wm_now {
                            late += 1;
                            continue;
                        }
                        // A post-cut-over tuple for a slot whose state is
                        // still in flight to this instance: hold it (in
                        // arrival order) until the handoff is absorbed. The
                        // late-drop verdict above was final — stashed
                        // tuples are replayed without re-judging.
                        if let Some(ctx) = shard.as_mut() {
                            if ctx.should_stash(t.key) {
                                ctx.stash.push((port, t));
                                continue;
                            }
                        }
                        // Strided processing-latency sampling: every
                        // `proc_every`-th tuple pays two clock reads; the
                        // rest pay nothing.
                        let t0 =
                            (proc_every != 0 && records_in % proc_every == 0).then(Instant::now);
                        if let Err(e) = op.process(port, t, collector) {
                            return fail(op.name(), e);
                        }
                        if let Some(t0) = t0 {
                            istats.proc_hist.record(t0.elapsed().as_nanos() as u64);
                        }
                        if records_in % 64 == 0 {
                            istats.set_state(op.state_bytes());
                        }
                    }
                }
                return Step::Continue;
            }
            Message::Watermark(ts) => {
                if let Err(e) = clock.advance((port, chan), ts, &mut *op, collector, &istats) {
                    return fail(op.name(), e);
                }
                return Step::Continue;
            }
            Message::ShardMarker { version } => {
                let Some(ctx) = shard.as_mut() else {
                    debug_assert!(false, "shard marker delivered to an unsharded node");
                    return Step::Continue;
                };
                ctx.begin_tracking(version, &clock.table);
                ctx.note_channel(Some(version), port, chan);
                ctx
            }
            Message::ShardHandoff(payload) => {
                let Some(ctx) = shard.as_mut() else {
                    debug_assert!(false, "shard handoff delivered to an unsharded node");
                    return Step::Continue;
                };
                ctx.begin_tracking(payload.version, &clock.table);
                ctx.parked = Some(payload);
                ctx
            }
            Message::End => match shard.as_mut() {
                // Defer the clock promotion while a migration is tracked
                // (it still satisfies an outstanding marker); the table is
                // promoted at resolution so the extract/absorb clocks stay
                // aligned.
                Some(ctx) if ctx.pending.is_some() => {
                    ctx.deferred_ends.push((port, chan));
                    ctx.note_channel(None, port, chan);
                    ctx
                }
                _ => {
                    clock.table.end(port, chan);
                    return settle_ends(
                        &mut clock,
                        &mut *op,
                        collector,
                        &istats,
                        &abort,
                        &first_error,
                        &log,
                    );
                }
            },
        };
        shard_progress(
            ctx,
            &mut *op,
            &mut clock,
            collector,
            &istats,
            &abort,
            &first_error,
            &log,
        )
    };
    let mut last_hard = Instant::now();
    loop {
        if abort.load(Ordering::Relaxed) {
            break;
        }
        let env = match rx.recv_timeout(idle_flush) {
            Ok(env) => env,
            Err(RecvTimeoutError::Timeout) => {
                // Idle: release any partial batches + pending/owed
                // watermarks so low-rate streams keep low latency.
                collector.flush_hard();
                last_hard = Instant::now();
                if collector.failed {
                    break;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let mut step = handle(env, &mut collector);
        // Drain whatever else is already queued (bounded, so a coalesced
        // watermark is never deferred for long under sustained load), then
        // flush once for the whole round.
        let mut drained = 1usize;
        while matches!(step, Step::Continue) && drained < DRAIN_LIMIT {
            match rx.try_recv() {
                Ok(env) => {
                    drained += 1;
                    step = handle(env, &mut collector);
                }
                Err(_) => break,
            }
        }
        // Soft flush per round keeps watermarks moving on empty channels;
        // the idle_flush deadline bounds owed watermarks and partial
        // batches when the task is busy but its output trickles.
        collector.flush();
        if last_hard.elapsed() >= idle_flush {
            collector.flush_hard();
            last_hard = Instant::now();
        }
        // One inbox-depth observation per scheduling round (up to
        // DRAIN_LIMIT envelopes), so the gauge costs one channel-lock
        // acquisition per round, not per message.
        istats.note_queue_depth(rx.len());
        if !matches!(step, Step::Continue) || collector.failed {
            break;
        }
    }
    if let Some(e) = collector.take_op_error() {
        record_op_error(op.name(), e, &abort, &first_error, &log);
    }
    collector.broadcast_end();
    istats.note_queue_depth(rx.len());
    istats.records_in.fetch_add(records_in, Ordering::Relaxed);
    istats.late_dropped.fetch_add(late, Ordering::Relaxed);
    istats
        .records_out
        .fetch_add(collector.out_count, Ordering::Relaxed);
    istats
        .batches_out
        .fetch_add(collector.messages_sent(), Ordering::Relaxed);
    istats.set_state(op.state_bytes());
    istats.set_keyed(op.keyed_state());
    log.emit(
        Level::Debug,
        std::thread::current().name().unwrap_or("operator"),
        format!(
            "finished: {records_in} in, {} out, {late} late-dropped",
            collector.out_count
        ),
    );
}
