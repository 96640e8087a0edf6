//! `serve_mixed`: a closed loop of `POST /v1/runs` requests against an
//! in-process [`Server`], from two clients that send in rounds: both
//! wait at a barrier, send one request each, and start the next round
//! once both replies are in. A run sends a fixed number of blocks of ten
//! rounds, each block with the same mix of cache tiers:
//!
//! | per 20 requests | tier | spec |
//! |---|---|---|
//! | 9 | hit | a repeat of one of the last 64 completed specs |
//! | 2 | miss + join | one fresh spec sent by both clients at once |
//! | 4 | warm fork | a family among the last 16 with a new `period_s` |
//! | 3 | cold | a fresh family |
//! | 2 | traced | a fresh family with `telemetry: full` |
//!
//! A family is the set of specs that share the setup-feeding fields, so
//! the server forks them from one cached time-zero snapshot. The pools
//! stay inside `RESULTS_CAP` and `WARM_CAP`, so an intended hit or warm
//! fork is always served as one. Hits are under half of the requests,
//! so the median latency falls among the requests that run a
//! simulation.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc;
use std::sync::Barrier;
use std::time::Instant;

use cocoa_core::executor::manifest::encode_metrics;
use cocoa_core::runner;
use cocoa_core::serve::client::{self, ClientResponse};
use cocoa_core::serve::{parse_spec, request_fingerprint, ServeConfig, Server};
use cocoa_core::tracefile::parse_flat_object;

use super::{capped, end_to_end, Setups};
use crate::stats::{median, percentile};
use crate::{layers, seed_base, Config, Outcome, Size, SplitMix, Tally};

/// What the generator meant a request to exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Intent {
    Hit,
    Warm,
    Cold,
    Traced,
}

/// The single requests of one block; with one duplicate pair they make
/// ten rounds of two requests.
const SINGLES: [Intent; 18] = {
    use Intent::{Cold, Hit, Traced, Warm};
    [
        Hit, Hit, Hit, Hit, Hit, Hit, Hit, Hit, Hit, Warm, Warm, Warm, Warm, Cold, Cold, Cold,
        Traced, Traced,
    ]
};
const HIT_POOL: usize = 64;
const FAMILY_POOL: usize = 16;
const BASE_PERIOD_S: u64 = 100;
const MIB: f64 = 1024.0 * 1024.0;

/// Blocks in the measured loop: about 9 s on the 2-vCPU reference host.
fn blocks(size: Size) -> usize {
    match size {
        Size::Paper => 14,
        Size::Tiny => 2,
    }
}

/// The `k`-th period a family's warm forks take: 20, 25, … 195 s,
/// skipping the base period, so every fork is a new spec.
fn warm_period_s(k: usize) -> u64 {
    let p = 20 + 5 * k as u64;
    if p >= BASE_PERIOD_S {
        p + 5
    } else {
        p
    }
}

/// A request spec: `family` is the scenario seed.
fn spec(size: Size, family: u64, period_s: u64, traced: bool) -> String {
    let (robots, equipped, duration_s) = match size {
        Size::Paper => (8, 4, 200),
        Size::Tiny => (4, 2, 100),
    };
    let telemetry = if traced {
        ",\"telemetry\":\"full\""
    } else {
        ""
    };
    format!(
        "{{\"seed\":{family},\"robots\":{robots},\"equipped\":{equipped},\
         \"duration_s\":{duration_s},\"period_s\":{period_s}{telemetry}}}"
    )
}

/// One request as generated.
struct Request {
    intent: Intent,
    text: String,
    /// The family an untraced cold request founds: once it completes,
    /// the server holds that family's warm artifacts.
    founds: Option<u64>,
}

/// One round: two singles, or one cold request both clients send.
enum Round {
    Singles([Request; 2]),
    Pair(Request),
}

impl Round {
    fn texts(&self) -> (&str, &str) {
        match self {
            Round::Singles([a, b]) => (&a.text, &b.text),
            Round::Pair(r) => (&r.text, &r.text),
        }
    }
}

/// A reply and its latency in seconds.
type Timed = (Result<ClientResponse, String>, f64);

fn submit_timed(addr: &str, spec: &str) -> Timed {
    let t0 = Instant::now();
    let reply = client::submit(addr, spec);
    (reply, t0.elapsed().as_secs_f64())
}

/// Latencies in seconds, by tier.
#[derive(Default)]
struct Latencies {
    all: Vec<f64>,
    hit: Vec<f64>,
    join: Vec<f64>,
    warm: Vec<f64>,
    cold: Vec<f64>,
    traced: Vec<f64>,
}

/// The generator: its seeded stream, the pools repeats draw from, and
/// what the server has answered.
struct Mix {
    size: Size,
    rng: SplitMix,
    next_family: u64,
    /// Completed untraced specs, oldest first, with their bodies.
    hits: VecDeque<String>,
    bodies: HashMap<String, Vec<u8>>,
    /// Families with cached warm artifacts and the forks taken from each.
    families: VecDeque<(u64, usize)>,
    sent: u64,
    sent_warm: u64,
    /// Requests meant to start cold: cold, traced and pair leaders.
    sent_cold: u64,
    seen_hits: u64,
    seen_joins: u64,
    /// The first cold and the first traced spec with their served
    /// metrics, for the observer-effect check.
    served: [Option<(String, Vec<u8>)>; 2],
    latencies: Latencies,
    traced_bytes: Vec<f64>,
}

impl Mix {
    /// A generator whose pools hold the warm-up request of `family`.
    fn new(size: Size, seed: u64, family: u64, body: Vec<u8>) -> Mix {
        let warm_up = spec(size, family, BASE_PERIOD_S, false);
        Mix {
            size,
            rng: SplitMix::new(seed),
            next_family: family + 1,
            hits: VecDeque::from([warm_up.clone()]),
            bodies: HashMap::from([(warm_up, body)]),
            families: VecDeque::from([(family, 0)]),
            sent: 0,
            sent_warm: 0,
            sent_cold: 0,
            seen_hits: 0,
            seen_joins: 0,
            served: [None, None],
            latencies: Latencies::default(),
            traced_bytes: Vec::new(),
        }
    }

    /// One block's rounds, shuffled: `None` marks the pair round.
    fn block(&mut self) -> Vec<Option<[Intent; 2]>> {
        let mut singles = SINGLES;
        for i in (1..singles.len()).rev() {
            singles.swap(i, self.rng.below(i + 1));
        }
        let mut rounds: Vec<Option<[Intent; 2]>> =
            singles.chunks(2).map(|c| Some([c[0], c[1]])).collect();
        let at = self.rng.below(rounds.len() + 1);
        rounds.insert(at, None);
        rounds
    }

    fn cold(&mut self, intent: Intent) -> Request {
        let family = self.next_family;
        self.next_family += 1;
        let traced = intent == Intent::Traced;
        Request {
            intent,
            text: spec(self.size, family, BASE_PERIOD_S, traced),
            founds: (!traced).then_some(family),
        }
    }

    /// The request an intent sends, given the pools as they are now.
    fn request(&mut self, intent: Intent) -> Request {
        let text = match intent {
            Intent::Hit => self.hits[self.rng.below(self.hits.len())].clone(),
            Intent::Warm => {
                let (family, forks) = self
                    .families
                    .iter_mut()
                    .min_by_key(|(_, forks)| *forks)
                    .expect("the warm-up family is always pooled");
                *forks += 1;
                spec(self.size, *family, warm_period_s(*forks - 1), false)
            }
            Intent::Cold | Intent::Traced => return self.cold(intent),
        };
        Request {
            intent,
            text,
            founds: None,
        }
    }

    fn round(&mut self, shape: Option<[Intent; 2]>) -> Round {
        match shape {
            Some([a, b]) => Round::Singles([self.request(a), self.request(b)]),
            None => Round::Pair(self.cold(Intent::Cold)),
        }
    }

    /// Pools a completed untraced request for later hits and, if it
    /// founded a family, for later warm forks.
    fn completed(&mut self, request: &Request, body: &[u8]) {
        self.hits.push_back(request.text.clone());
        self.bodies.insert(request.text.clone(), body.to_vec());
        if self.hits.len() > HIT_POOL {
            let old = self.hits.pop_front().expect("pool is over capacity");
            self.bodies.remove(&old);
        }
        if let Some(family) = request.founds {
            self.families.push_back((family, 0));
            if self.families.len() > FAMILY_POOL {
                self.families.pop_front();
            }
        }
    }

    /// Checks a round's replies and updates pools and latencies.
    fn settle(&mut self, round: Round, a: Timed, b: Timed, tally: &mut Tally) {
        self.sent += 2;
        self.latencies.all.extend([a.1, b.1]);
        match round {
            Round::Singles(requests) => {
                // Hits are checked first: a completion settled before
                // them could evict the body they are checked against.
                let mut replies: Vec<(Request, Timed)> = requests.into_iter().zip([a, b]).collect();
                replies.sort_by_key(|(r, _)| r.intent != Intent::Hit);
                for (request, reply) in replies {
                    self.single(&request, reply, tally);
                }
            }
            Round::Pair(request) => self.pair(&request, a, b, tally),
        }
    }

    fn single(&mut self, request: &Request, (reply, latency): Timed, tally: &mut Tally) {
        let (intent, text) = (request.intent, &request.text);
        match intent {
            Intent::Warm => self.sent_warm += 1,
            Intent::Cold | Intent::Traced => self.sent_cold += 1,
            Intent::Hit => {}
        }
        let expected = if intent == Intent::Hit { "hit" } else { "miss" };
        let reply = match reply {
            Ok(r) if r.status == 200 && r.cache_status() == Some(expected) => r,
            Ok(r) => {
                let (status, cache) = (r.status, r.cache_status().map(str::to_string));
                return tally.record(false, || {
                    format!("{intent:?} {text}: status {status}, cache {cache:?}")
                });
            }
            Err(e) => return tally.record(false, || format!("{intent:?} {text}: {e}")),
        };
        let ok = match intent {
            Intent::Hit => self.bodies.get(text) == Some(&reply.body),
            _ => reply
                .metrics()
                .is_ok_and(|m| m.mean_error_over_time().is_finite()),
        };
        tally.record(ok, || {
            format!("{intent:?} {text}: body differs from its leader's, or metrics do not decode")
        });
        match intent {
            Intent::Hit => {
                self.seen_hits += 1;
                self.latencies.hit.push(latency);
            }
            Intent::Warm => {
                self.latencies.warm.push(latency);
                self.completed(request, &reply.body);
            }
            Intent::Cold => {
                self.latencies.cold.push(latency);
                self.note_served(request, &reply);
                self.completed(request, &reply.body);
            }
            Intent::Traced => {
                self.latencies.traced.push(latency);
                self.traced_bytes.push(reply.body.len() as f64);
                self.note_served(request, &reply);
            }
        }
    }

    /// Keeps the first served metrics of a cold and of a traced run.
    fn note_served(&mut self, request: &Request, reply: &ClientResponse) {
        let slot = &mut self.served[usize::from(request.intent == Intent::Traced)];
        if slot.is_none() {
            *slot = reply
                .metrics()
                .ok()
                .map(|m| (request.text.clone(), encode_metrics(&m)));
        }
    }

    /// A duplicate pair: one reply leads (`miss`), the other joins it or,
    /// if it arrived after the leader finished, hits the cache; both
    /// bodies are identical.
    fn pair(&mut self, request: &Request, a: Timed, b: Timed, tally: &mut Tally) {
        self.sent_cold += 1;
        let text = &request.text;
        let (Ok(ra), Ok(rb)) = (&a.0, &b.0) else {
            for _ in 0..2 {
                tally.record(false, || format!("pair {text}: request failed"));
            }
            return;
        };
        let ((leader, lead_latency), (follower, follow_latency)) =
            if ra.cache_status() == Some("miss") {
                ((ra, a.1), (rb, b.1))
            } else {
                ((rb, b.1), (ra, a.1))
            };
        let tiers = (leader.cache_status(), follower.cache_status());
        let ok = ra.status == 200
            && rb.status == 200
            && matches!(tiers, (Some("miss"), Some("join" | "hit")))
            && ra.body == rb.body
            && leader.metrics().is_ok();
        for _ in 0..2 {
            tally.record(ok, || format!("pair {text}: tiers {tiers:?}"));
        }
        if !ok {
            return;
        }
        self.latencies.cold.push(lead_latency);
        if tiers.1 == Some("join") {
            self.seen_joins += 1;
            self.latencies.join.push(follow_latency);
        } else {
            self.seen_hits += 1;
            self.latencies.hit.push(follow_latency);
        }
        let body = leader.body.clone();
        self.completed(request, &body);
    }
}

/// Starts a server and sends it the warm-up request; returns both with
/// the warm-up reply's body.
fn start(size: Size, family: u64) -> (Server, Vec<u8>) {
    let server = Server::start(ServeConfig {
        quiet: true,
        ..ServeConfig::default()
    })
    .expect("start the server");
    let addr = server.local_addr().to_string();
    let body = client::submit(&addr, &spec(size, family, BASE_PERIOD_S, false))
        .ok()
        .filter(|r| r.status == 200)
        .map(|r| r.body)
        .unwrap_or_default();
    (server, body)
}

pub(crate) fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let base = seed_base(cfg.seed);
    let n = blocks(cfg.size);
    let start_time = Instant::now();
    let mut setups = Setups::new(n);
    let (server, warm_body) = setups.time(|| start(cfg.size, base));
    out.tally
        .record(!warm_body.is_empty(), || "warm-up request failed".into());
    let addr = server.local_addr().to_string();
    let mut mix = Mix::new(cfg.size, cfg.seed, base, warm_body);

    // The generator is this thread plus one client thread, each with one
    // connection at a time. Dropping `to_helper` when the loop ends
    // stops the client thread before the scope joins it. A later
    // set-up's server lives only while it is timed and answers only its
    // own warm-up request.
    let barrier = Barrier::new(2);
    let (barrier_ref, addr_ref) = (&barrier, addr.as_str());
    let batches = std::thread::scope(|scope| {
        let (to_helper, inbox) = mpsc::channel::<String>();
        let (outbox, from_helper) = mpsc::channel::<Timed>();
        scope.spawn(move || {
            for spec in inbox {
                barrier_ref.wait();
                if outbox.send(submit_timed(addr_ref, &spec)).is_err() {
                    break;
                }
            }
        });
        let mut batches = Vec::with_capacity(n);
        for i in 0..n {
            if capped(i, start_time, cfg, &mut out) {
                break;
            }
            setups.before(i, || start(cfg.size, base));
            let block_start = Instant::now();
            let shapes = mix.block();
            let requests = 2 * shapes.len();
            for shape in shapes {
                let round = mix.round(shape);
                let (a, b) = round.texts();
                to_helper.send(b.to_string()).expect("client thread alive");
                barrier.wait();
                let reply_a = submit_timed(addr_ref, a);
                let reply_b = from_helper.recv().expect("client thread alive");
                mix.settle(round, reply_a, reply_b, &mut out.tally);
            }
            batches.push((requests, block_start.elapsed().as_secs_f64()));
        }
        batches
    });

    let stats = client::get(&addr, "/v1/stats")
        .map_err(|e| e.to_string())
        .and_then(|r| parse_flat_object(&r.body_str()));
    server.shutdown();
    let counter = |name: &str| {
        stats
            .as_ref()
            .ok()
            .and_then(|s| s.get(name))
            .and_then(|v| v.as_u64())
            .unwrap_or(u64::MAX)
    };
    let requests = mix.sent + 1;
    let expected = [
        ("serve.requests", requests),
        ("serve.cache_hits", mix.seen_hits),
        ("serve.joined", mix.seen_joins),
        ("serve.warm_forks", mix.sent_warm),
        ("serve.cold_starts", mix.sent_cold + 1),
        ("serve.rejected", 0),
        ("serve.failed", 0),
    ];
    let mismatched: Vec<String> = expected
        .iter()
        .filter(|(name, want)| counter(name) != *want)
        .map(|(name, want)| format!("{name} {} (sent {want})", counter(name)))
        .collect();
    let accounted = counter("serve.cache_hits")
        .saturating_add(counter("serve.joined"))
        .saturating_add(counter("serve.executed"));
    out.tally.record(mismatched.is_empty() && accounted == requests, || {
        format!(
            "server counters disagree with the generator: {}; hits + joins + executed = {accounted} of {requests}",
            mismatched.join(", ")
        )
    });
    for (spec, served) in mix.served.iter().flatten() {
        let local = parse_spec(spec).map(|r| encode_metrics(&runner::run(&r.scenario)));
        out.tally.record(local.as_ref() == Ok(served), || {
            format!("served metrics of {spec} differ from a local run")
        });
    }

    let l = &mix.latencies;
    end_to_end(&mut out.values, setups.median_s(), &batches, &l.all);
    let ms = |v: &[f64]| median(v).map_or(0.0, |s| s * 1e3);
    let v = &mut out.values;
    v.insert("serve.hit.latency_p50_ms", ms(&l.hit));
    v.insert("serve.join.latency_p50_ms", ms(&l.join));
    v.insert("serve.warm.latency_p50_ms", ms(&l.warm));
    v.insert("serve.cold.latency_p50_ms", ms(&l.cold));
    v.insert("serve.traced.latency_p50_ms", ms(&l.traced));
    v.insert(
        "serve.latency_p90_ms",
        percentile(&l.all, 90.0).map_or(0.0, |s| s * 1e3),
    );
    let requests = requests as f64;
    v.insert(
        "serve.hit_ratio",
        counter("serve.cache_hits") as f64 / requests,
    );
    v.insert(
        "serve.join_ratio",
        counter("serve.joined") as f64 / requests,
    );
    v.insert(
        "serve.warm_fork_ratio",
        counter("serve.warm_forks") as f64 / counter("serve.executed") as f64,
    );
    v.insert(
        "serve.traced.body_mb",
        median(&mix.traced_bytes).unwrap_or(0.0) / MIB,
    );
    v.insert("serve.spec_parse_us", spec_parse_us(cfg.size, base));

    if cfg.trace {
        let traced = spec(cfg.size, base, BASE_PERIOD_S, true);
        let request = parse_spec(&traced).expect("the generator's specs parse");
        layers::probe(&request.scenario, &cfg.scratch, &mut out);
    }
    out
}

/// Median time to parse and fingerprint one spec, as the server does
/// for every request, timed from outside.
fn spec_parse_us(size: Size, family: u64) -> f64 {
    let text = spec(size, family, BASE_PERIOD_S, false);
    let times: Vec<f64> = (0..500)
        .map(|_| {
            let t0 = Instant::now();
            let fingerprint = parse_spec(&text).map(|r| request_fingerprint(&r));
            std::hint::black_box(fingerprint.ok());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times).unwrap_or(f64::NAN)
}
