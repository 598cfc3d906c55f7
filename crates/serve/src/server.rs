//! The threaded open-loop frontend: an MPSC submission channel, a
//! group-commit batcher thread, and per-request reply tickets.
//!
//! ```text
//!   clients ──submit()──▶ [frontend] ──mpsc──▶ [batcher] ──▶ [executor]
//!                             │                    │              │
//!                   front-door shed         window/size cut   shedder +
//!                   at queue_max            + locality order  index query
//! ```
//!
//! No async runtime: the "async" surface is a [`Ticket`] (a oneshot-style
//! channel receiver) per submitted request, which the caller awaits with
//! [`Ticket::wait`] whenever it likes — submission never blocks on
//! execution, which is what lets the open-loop traffic harness offer load
//! faster than the service drains it.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use emsim::sync::Counter;
use emsim::trace::phase;
use topk_core::{BatchKey, Element, TopKIndex};

use crate::service::{QueryRequest, ServeReply, ServeReport, TopKService};

/// One submitted request in flight inside the server.
struct Envelope<E, Q> {
    req: QueryRequest<Q>,
    reply_tx: mpsc::Sender<(ServeReply<E>, Instant)>,
}

/// The caller's handle on one in-flight request: await the reply with
/// [`Ticket::wait`]. The service always replies (shed requests get an
/// immediate empty `Degraded`), so `wait` never blocks forever while the
/// server lives.
pub struct Ticket<E> {
    rx: mpsc::Receiver<(ServeReply<E>, Instant)>,
    submitted: Instant,
}

impl<E> Ticket<E> {
    /// Block until the reply arrives; returns it with the submit-to-reply
    /// latency (the open-loop harness's response-time sample).
    pub fn wait(self) -> (ServeReply<E>, Duration) {
        let (reply, done) = self
            .rx
            .recv()
            .expect("server dropped a request without replying");
        (reply, done.saturating_duration_since(self.submitted))
    }
}

/// A cloneable submission handle to a running [`Server`].
pub struct ServerHandle<E, Q, I> {
    tx: mpsc::Sender<Envelope<E, Q>>,
    depth: Arc<Counter>,
    service: Arc<TopKService<E, Q, I>>,
}

impl<E, Q, I> Clone for ServerHandle<E, Q, I> {
    fn clone(&self) -> Self {
        ServerHandle {
            tx: self.tx.clone(),
            depth: Arc::clone(&self.depth),
            service: Arc::clone(&self.service),
        }
    }
}

impl<E, Q, I> ServerHandle<E, Q, I>
where
    E: Element + Send,
    Q: BatchKey + Sync,
    I: TopKIndex<E, Q> + Sync,
{
    /// Submit a request; returns immediately with a [`Ticket`].
    ///
    /// If the queue already holds [`queue_max`](crate::ServeConfig::queue_max)
    /// requests (or the batcher has shut down), the request is shed at the
    /// front door: the ticket resolves at once to an empty
    /// [`Degraded`](topk_core::TopKAnswer::Degraded) reply and nothing is
    /// enqueued — the queue is bounded by construction, the service never
    /// buffers load it has already decided not to serve.
    pub fn submit(&self, req: QueryRequest<Q>) -> Ticket<E> {
        let submitted = Instant::now();
        let (reply_tx, rx) = mpsc::channel();
        // The depth gauge is an advisory shedding threshold, not a
        // synchronization edge — replies synchronize via the channels.
        if self.depth.get() >= self.service.config().queue_max as u64 {
            let tenant = req.tenant;
            self.service.note_front_shed(tenant);
            let _ = reply_tx.send((crate::service::front_shed_reply(tenant), Instant::now()));
            return Ticket { rx, submitted };
        }
        self.depth.add(1);
        if let Err(mpsc::SendError(env)) = self.tx.send(Envelope { req, reply_tx }) {
            // Batcher gone: undo the depth claim and shed.
            self.depth.sub(1);
            let tenant = env.req.tenant;
            self.service.note_front_shed(tenant);
            let _ = env
                .reply_tx
                .send((crate::service::front_shed_reply(tenant), Instant::now()));
        }
        Ticket { rx, submitted }
    }

    /// Requests currently enqueued (advisory — racy by nature).
    pub fn depth(&self) -> usize {
        self.depth.get() as usize
    }

    /// The service behind this handle (for [`report`](TopKService::report)
    /// snapshots while the server runs).
    pub fn service(&self) -> &Arc<TopKService<E, Q, I>> {
        &self.service
    }
}

/// A running server: a batcher thread draining the submission channel into
/// group-commit batches. Dropping every [`ServerHandle`] *and* calling
/// [`Server::shutdown`] drains the queue and joins the thread.
pub struct Server<E, Q, I> {
    handle: ServerHandle<E, Q, I>,
    join: std::thread::JoinHandle<()>,
}

impl<E, Q, I> Server<E, Q, I>
where
    E: Element + Send + 'static,
    Q: BatchKey + Send + Sync + 'static,
    I: TopKIndex<E, Q> + Send + Sync + 'static,
{
    /// Spawn the batcher thread over a service.
    ///
    /// The batcher blocks for the first request, then keeps collecting
    /// until [`window`](crate::ServeConfig::window) elapses or
    /// [`batch_max`](crate::ServeConfig::batch_max) requests are in hand
    /// (group commit), snapshots the queue depth, and hands the batch to
    /// [`TopKService::execute_batch`].
    pub fn spawn(service: Arc<TopKService<E, Q, I>>) -> Self {
        let (tx, rx) = mpsc::channel::<Envelope<E, Q>>();
        let depth = Arc::new(Counter::new(0));
        let handle = ServerHandle {
            tx,
            depth: Arc::clone(&depth),
            service: Arc::clone(&service),
        };
        let join = std::thread::spawn(move || batcher_loop(&service, &rx, &depth));
        Server { handle, join }
    }

    /// A fresh submission handle.
    pub fn handle(&self) -> ServerHandle<E, Q, I> {
        self.handle.clone()
    }

    /// Close the frontend, drain every queued request, join the batcher,
    /// and return the final counters. Outstanding tickets all resolve
    /// before this returns.
    pub fn shutdown(self) -> ServeReport {
        let service = Arc::clone(&self.handle.service);
        drop(self.handle); // disconnects the channel once clients drop too
        self.join.join().expect("serve batcher panicked");
        service.report()
    }
}

/// The batcher: group-commit collection, then batch execution.
fn batcher_loop<E, Q, I>(
    service: &TopKService<E, Q, I>,
    rx: &mpsc::Receiver<Envelope<E, Q>>,
    depth: &Counter,
) where
    E: Element + Send,
    Q: BatchKey + Sync,
    I: TopKIndex<E, Q> + Sync,
{
    let cfg = service.config();
    loop {
        // Block for the batch's first request (queue span covers the
        // whole collection window).
        let first = match rx.recv() {
            Ok(env) => env,
            Err(mpsc::RecvError) => return, // all handles dropped, queue empty
        };
        let mut envelopes = vec![first];
        {
            let _queue = service.model().span(phase::QUEUE);
            let deadline = Instant::now() + cfg.window;
            while envelopes.len() < cfg.batch_max {
                let left = deadline.saturating_duration_since(Instant::now());
                match rx.recv_timeout(left) {
                    Ok(env) => envelopes.push(env),
                    Err(mpsc::RecvTimeoutError::Timeout | mpsc::RecvTimeoutError::Disconnected) => {
                        break;
                    }
                }
            }
        }
        let queue_depth = depth.get() as usize;
        let (batch, reply_txs): (Vec<QueryRequest<Q>>, Vec<_>) =
            envelopes.into_iter().map(|e| (e.req, e.reply_tx)).unzip();
        let replies = service.execute_batch(batch, queue_depth);
        for (reply_tx, reply) in reply_txs.into_iter().zip(replies) {
            // Receivers may have given up (dropped ticket) — not an error.
            let _ = reply_tx.send((reply, Instant::now()));
            depth.sub(1);
        }
    }
}
