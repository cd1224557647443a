//! The closed-loop load generator: the request plan, the oracle every
//! sampled body is checked against, and the `lat` and `sat` phases.

use std::collections::HashMap;
use std::sync::{Barrier, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use dpc_appserver::apps::paper_site;
use dpc_http::Request;
use dpc_proxy::testbed::Testbed;
use dpc_workload::{AccessPlan, Population, SiteKind, ZipfStream};

use crate::cpu::SpeedGauge;
use crate::spec::{Workload, ORACLE_EVERY, SAT_CONNECTIONS, SAT_PIPELINE};
use crate::world::{Class, Conn, Reply, World};

/// One distinct request of the plan: its wire bytes, built once.
pub struct PlannedRequest {
    pub page: usize,
    pub target: String,
    pub cookie: Option<String>,
    pub wire: Vec<u8>,
}

impl PlannedRequest {
    /// The same request as the program's own type, for direct calls.
    pub fn to_request(&self) -> Request {
        let req = Request::get(self.target.as_str()).with_header("Host", "dpc");
        match &self.cookie {
            Some(cookie) => req.with_header("Cookie", cookie.as_str()),
            None => req,
        }
    }
}

/// The seeded request stream, as indices into the distinct requests.
pub struct Stream {
    ids: Vec<u32>,
    cursor: usize,
}

/// Unroll `len` requests of the workload's plan: the distinct requests
/// with their wire bytes, and the order they are sent in.
pub fn generate_plan(w: &Workload, seed: u64, len: usize) -> (Vec<PlannedRequest>, Stream) {
    let (users, registered) = w.population.unwrap_or((1, 0.0));
    let plan = AccessPlan::new(
        SiteKind::Paper { pages: w.pages },
        w.zipf_alpha,
        Population::new(users, registered),
        seed,
    );
    let mut index: HashMap<(String, Option<String>), u32> = HashMap::new();
    let mut requests = Vec::new();
    let mut ids = Vec::with_capacity(len);
    plan.for_each(len, |_, planned| {
        let user = planned.user.cookie().map(str::to_owned);
        let id = *index
            .entry((planned.target, user))
            .or_insert_with_key(|(target, user)| {
                let page = target
                    .rsplit_once("p=")
                    .and_then(|(_, p)| p.parse().ok())
                    .expect("paper-site target ends in p=<page>");
                let cookie = user.as_ref().map(|u| format!("session={u}"));
                let mut wire = format!("GET {target} HTTP/1.1\r\nHost: dpc\r\n");
                if let Some(cookie) = &cookie {
                    wire.push_str(&format!("Cookie: {cookie}\r\n"));
                }
                wire.push_str("\r\n");
                requests.push(PlannedRequest {
                    page,
                    target: target.clone(),
                    cookie,
                    wire: wire.into_bytes(),
                });
                requests.len() as u32 - 1
            });
        ids.push(id);
    });
    (requests, Stream { ids, cursor: 0 })
}

impl Stream {
    /// The next `n` requests.
    pub fn take(&mut self, n: usize) -> Vec<u32> {
        let ids = self.ids[self.cursor..self.cursor + n].to_vec();
        self.cursor += n;
        ids
    }
}

/// Uncached renders of every page at the repository's current version,
/// and the updates that change them.
///
/// The renders sit behind a read-write lock that doubles as the gate
/// between reads and writes: a connection holds it for reading while it
/// has requests in flight, an update takes it for writing. So an update
/// runs with nothing in flight, the order of updates and requests is exact
/// on every connection, and exactly one render of a page is right at any
/// time. (Letting updates race the other connection's in-flight requests —
/// accepting the render before or after, the admissible set of
/// *Determination Provenance* — was tried first and found about one wrong
/// page per 500 000 requests on `churn`: see README, "Correctness".)
pub struct Oracle {
    tb: Testbed,
    renders: RwLock<Vec<Vec<u8>>>,
}

impl Oracle {
    pub fn build(w: &Workload) -> Oracle {
        let tb = World::build_oracle(w);
        let renders = (0..w.pages).map(|page| render(&tb, page)).collect();
        Oracle {
            tb,
            renders: RwLock::new(renders),
        }
    }

    /// Hold while requests are in flight; gives the renders to check the
    /// replies against.
    fn in_flight(&self) -> RwLockReadGuard<'_, Vec<Vec<u8>>> {
        self.renders.read().expect("oracle lock")
    }

    /// Wait until nothing is in flight and keep it so while the guard
    /// lives.
    fn quiesce(&self) -> RwLockWriteGuard<'_, Vec<Vec<u8>>> {
        self.renders.write().expect("oracle lock")
    }

    /// Bump fragment `(page, slot)` in the world's repository and in the
    /// oracle's and render the page anew.
    fn update(&self, renders: &mut [Vec<u8>], world: &World, page: usize, slot: usize) {
        paper_site::invalidate_fragment(world.repo(), page, slot);
        paper_site::invalidate_fragment(self.tb.engine().repo(), page, slot);
        renders[page] = render(&self.tb, page);
    }
}

fn render(tb: &Testbed, page: usize) -> Vec<u8> {
    let resp = tb
        .engine()
        .serve(&Request::get(format!("/paper/page.jsp?p={page}")));
    assert_eq!(resp.status.0, 200, "oracle render of page {page}");
    resp.body.to_vec()
}

/// Requests attempted and failed, and which path served each.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// 503s from a request that raced a membership change, sent again.
    pub retried: u64,
    pub classes: [u64; 6],
}

impl Tally {
    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.retried += other.retried;
        for (a, b) in self.classes.iter_mut().zip(other.classes) {
            *a += b;
        }
    }

    pub fn class(&self, class: Class) -> u64 {
        self.classes[class as usize]
    }
}

/// Membership and gossip calls the driver timed, in microseconds.
#[derive(Debug, Default, Clone)]
pub struct ClusterTimes {
    pub gossip_us: Vec<f64>,
    pub join_us: Vec<f64>,
    pub leave_us: Vec<f64>,
}

impl ClusterTimes {
    pub fn add(&mut self, other: ClusterTimes) {
        self.gossip_us.extend(other.gossip_us);
        self.join_us.extend(other.join_us);
        self.leave_us.extend(other.leave_us);
    }
}

/// Picks which fragment each update invalidates.
struct UpdatePicker {
    pages: ZipfStream,
    slots: usize,
    count: usize,
}

impl UpdatePicker {
    fn next(&mut self) -> (usize, usize) {
        self.count += 1;
        (self.pages.next_rank(), self.count % self.slots)
    }
}

/// At which requests of a phase the ring gains its fourth node and loses
/// it again. A repetition makes one join (late in `lat`) and one leave
/// (early in `sat`), so both phases see a membership change and a stretch
/// with four nodes; the traced pass makes both.
#[derive(Debug, Clone, Copy, Default)]
pub struct Membership {
    pub join_at: Option<usize>,
    pub leave_at: Option<usize>,
}

/// What one connection's thread carries through the phases: the checks,
/// and the writes the workload makes beside its reads.
pub struct Lane<'a> {
    pub world: &'a World,
    oracle: &'a Oracle,
    pub plan: &'a [PlannedRequest],
    workload: &'a Workload,
    picker: UpdatePicker,
    /// The node this lane joined and has yet to take out again.
    joined: Option<u32>,
    pub tally: Tally,
    pub times: ClusterTimes,
    pub gauge: SpeedGauge,
    sent: usize,
    checked: usize,
}

impl<'a> Lane<'a> {
    pub fn new(
        world: &'a World,
        oracle: &'a Oracle,
        plan: &'a [PlannedRequest],
        workload: &'a Workload,
        picker_seed: u64,
    ) -> Lane<'a> {
        Lane {
            world,
            oracle,
            plan,
            workload,
            picker: UpdatePicker {
                pages: ZipfStream::new(workload.pages, workload.zipf_alpha, picker_seed),
                slots: workload.cacheable_slots(),
                count: 0,
            },
            joined: None,
            tally: Tally::default(),
            times: ClusterTimes::default(),
            gauge: SpeedGauge::new(world.placement().shares_cpu()),
            sent: 0,
            checked: 0,
        }
    }

    /// Called before request `i` of a phase is sent, with none of this
    /// lane's requests in flight; makes the writes the workload puts
    /// beside its reads. Every `update_every`-th request the lane sends
    /// invalidates a fragment (and, on the ring, gossips it); `membership`
    /// says where the ring's join and leave fall. Returns the latency and
    /// class of the request an update sends itself.
    pub fn before_request(
        &mut self,
        conn: &mut Conn,
        i: usize,
        membership: Membership,
    ) -> Option<(f64, Class)> {
        self.gauge.tick();
        self.sent += 1;
        let update = self
            .workload
            .update_every
            .is_some_and(|every| self.sent.is_multiple_of(every))
            .then(|| self.update(conn))
            .flatten();
        if let Some(cluster) = self.world.cluster() {
            if membership.join_at == Some(i) {
                let t0 = Instant::now();
                // The node's threads belong to the serving stack.
                self.joined = Some(self.world.placement().on_server(|| cluster.join()));
                self.times.join_us.push(micros(t0));
            }
            if membership.leave_at == Some(i) {
                if let Some(id) = self.joined.take() {
                    let t0 = Instant::now();
                    cluster.leave(id);
                    self.times.leave_us.push(micros(t0));
                }
            }
        }
        update
    }

    /// Invalidate one fragment with nothing in flight and, before anything
    /// else is in flight again, see that no slot store still holds the
    /// fragment's previous bytes under a key the BEM may now reuse. A ring
    /// does that itself once the invalidation is gossiped (every node
    /// scrubs the freed slots), so there the update is followed by one
    /// `gossip_round`. A lone proxy never scrubs; there the update's own
    /// thread asks for the page once, so the regenerated fragment's `SET`
    /// overwrites the slot before any other connection can be handed a
    /// `GET` for it. Without that first read, two connections asking for
    /// the page at once after an update can be served the slot's previous
    /// bytes (README, "Correctness"). Returns the first read's latency and
    /// class, if one was made.
    fn update(&mut self, conn: &mut Conn) -> Option<(f64, Class)> {
        let (page, slot) = self.picker.next();
        let mut renders = self.oracle.quiesce();
        self.oracle.update(&mut renders, self.world, page, slot);
        if let Some(cluster) = self.world.cluster() {
            let t0 = Instant::now();
            cluster.gossip_round();
            self.times.gossip_us.push(micros(t0));
            return None;
        }
        let wire = format!("GET /paper/page.jsp?p={page} HTTP/1.1\r\nHost: dpc\r\n\r\n");
        let t0 = Instant::now();
        let reply = self.exchange_checked(conn, wire.as_bytes(), page, &renders);
        Some((micros(t0), reply.class))
    }

    /// Judge one reply to a request for `page` against `renders`. Returns
    /// false for a 503, which the caller sends again: the ring answers so
    /// when the owner left between routing and dispatch, and says the
    /// caller retries.
    fn check(&mut self, page: usize, reply: Reply, body: &[u8], renders: &[Vec<u8>]) -> bool {
        if reply.status == 503 {
            self.tally.retried += 1;
            return false;
        }
        self.tally.attempted += 1;
        self.tally.classes[reply.class as usize] += 1;
        self.checked += 1;
        let render = &renders[page];
        let ok = reply.status == 200
            && reply.content_length == render.len()
            && (!self.checked.is_multiple_of(ORACLE_EVERY) || body == render.as_slice());
        if !ok {
            self.tally.failed += 1;
        }
        true
    }

    /// One request for `page`, one reply, checked; a 503 is sent again up
    /// to three times before it counts as failed.
    fn exchange_checked(
        &mut self,
        conn: &mut Conn,
        wire: &[u8],
        page: usize,
        renders: &[Vec<u8>],
    ) -> Reply {
        let mut reply = None;
        for _ in 0..4 {
            conn.send(wire);
            let r = conn.read_reply();
            reply = Some(r);
            if self.check(page, r, conn.body(), renders) {
                return r;
            }
        }
        self.tally.attempted += 1;
        self.tally.failed += 1;
        reply.expect("at least one attempt")
    }

    /// Planned request `id`, sent alone.
    pub fn exchange(&mut self, conn: &mut Conn, id: u32) -> Reply {
        let plan = self.plan;
        let planned = &plan[id as usize];
        let renders = self.oracle.in_flight();
        self.exchange_checked(conn, &planned.wire, planned.page, &renders)
    }
}

fn micros(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64 / 1e3
}

/// `lat`: one connection, one request outstanding. Returns each request's
/// latency in microseconds and the class that served it.
pub fn lat_phase(
    lane: &mut Lane,
    conn: &mut Conn,
    ids: &[u32],
    membership: Membership,
) -> Vec<(f64, Class)> {
    let mut samples = Vec::with_capacity(ids.len());
    for (i, &id) in ids.iter().enumerate() {
        samples.extend(lane.before_request(conn, i, membership));
        let t0 = Instant::now();
        let reply = lane.exchange(conn, id);
        samples.push((micros(t0), reply.class));
    }
    samples
}

/// Warm-up: `lat` without the writes or the timing.
pub fn warm_up(lane: &mut Lane, conn: &mut Conn, ids: &[u32]) {
    for &id in ids {
        lane.exchange(conn, id);
    }
}

/// `sat`: every connection writes `SAT_PIPELINE` requests, then reads
/// their replies, so the serving threads never wait for the client. The
/// first lane makes the membership change. Returns the phase's wall time
/// in seconds.
pub fn sat_phase(
    lanes: &mut [Lane],
    conns: &mut [Conn],
    ids: &[u32],
    membership: Membership,
) -> f64 {
    assert_eq!(lanes.len(), SAT_CONNECTIONS);
    let share = ids.len() / SAT_CONNECTIONS;
    let barrier = Barrier::new(SAT_CONNECTIONS + 1);
    std::thread::scope(|scope| {
        let threads: Vec<_> = lanes
            .iter_mut()
            .zip(conns.iter_mut())
            .zip(ids.chunks(share))
            .enumerate()
            .map(|(t, ((lane, conn), ids))| {
                let barrier = &barrier;
                let membership = if t == 0 {
                    membership
                } else {
                    Membership::default()
                };
                scope.spawn(move || {
                    barrier.wait();
                    sat_connection(lane, conn, ids, membership);
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        for thread in threads {
            thread.join().expect("sat connection thread");
        }
        t0.elapsed().as_secs_f64()
    })
}

fn sat_connection(lane: &mut Lane, conn: &mut Conn, ids: &[u32], membership: Membership) {
    let mut batch = Vec::with_capacity(SAT_PIPELINE * 96);
    let mut refused = Vec::new();
    for (b, chunk) in ids.chunks(SAT_PIPELINE).enumerate() {
        batch.clear();
        for (j, &id) in chunk.iter().enumerate() {
            lane.before_request(conn, b * SAT_PIPELINE + j, membership);
            batch.extend_from_slice(&lane.plan[id as usize].wire);
        }
        {
            let renders = lane.oracle.in_flight();
            conn.send(&batch);
            for &id in chunk {
                let reply = conn.read_reply();
                if !lane.check(lane.plan[id as usize].page, reply, conn.body(), &renders) {
                    refused.push(id);
                }
            }
        }
        for id in refused.drain(..) {
            lane.exchange(conn, id);
        }
    }
}
