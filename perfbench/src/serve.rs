//! `serve`: an in-process `gcr_serve::Server` (2 workers, default queue)
//! on a unix socket, driven by 2 closed-loop clients.
//!
//! Every pass sends one batch of 100 requests in an order the seed
//! shuffles:
//! - 60 warm `measure` of the evaluation apps, keys filled during set-up;
//! - 2 cold `measure` at bounded sizes, each key used once per run;
//! - 12 `predict` of 1-D kernels at N = 10⁹;
//! - 10 `predict` with a `hierarchy` header on gallery kernels;
//! - 16 `optimize` of gallery sources.
//!
//! The same layers as elsewhere, used differently: every request
//! re-optimizes and re-fits, and `MeasureCache` serves hits to two
//! clients at once. One operation is one request round trip.

use crate::span::Spans;
use crate::{fnv64, median, repeat_for, set_up, Config, Outcome, Rng};
use gcr_apps::AppSpec;
use gcr_bench::fig10_strategies;
use gcr_bench::gallery::GALLERY_HIERARCHY;
use gcr_bench::sweep::{measurement_key, MeasureCache};
use gcr_cli::report::Json;
use gcr_core::checked::{apply_strategy_checked_traced, SafetyOptions};
use gcr_core::pipeline::{apply_strategy, Strategy};
use gcr_core::Tracer;
use gcr_exec::ExecEngine;
use gcr_serve::chaos::Client;
use gcr_serve::server::PREDICT_CAPACITIES;
use gcr_serve::{Request, Response, Server, ServerConfig};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Closed-loop clients.
const CLIENTS: usize = 2;
/// Requests of each kind in every batch (one batch per pass); the seed shuffles
/// their order and picks the keys and kernels.
const MIX: [(Kind, usize); 5] = [
    (Kind::Measure, 60),
    (Kind::Predict, 12),
    (Kind::HierPredict, 10),
    (Kind::Optimize, 16),
    (Kind::ColdMeasure, 2),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Measure,
    ColdMeasure,
    Predict,
    HierPredict,
    Optimize,
}

impl Kind {
    fn p50_name(self) -> &'static str {
        match self {
            Kind::Measure => "measure_p50_ms",
            Kind::ColdMeasure => "cold_measure_p50_ms",
            Kind::Predict => "predict_p50_ms",
            Kind::HierPredict => "hier_predict_p50_ms",
            Kind::Optimize => "optimize_p50_ms",
        }
    }

    fn metric(self) -> &'static str {
        match self {
            Kind::Measure => "serve.handle_measure_ms",
            Kind::ColdMeasure => "serve.handle_cold_measure_ms",
            Kind::Predict => "serve.handle_predict_ms",
            Kind::HierPredict => "serve.handle_hier_predict_ms",
            Kind::Optimize => "serve.handle_optimize_ms",
        }
    }
}

/// A measure key: app index, strategy name, size. Every measure runs one
/// time step.
type Key = (usize, &'static str, i64);

struct Item {
    kind: Kind,
    req: Request,
    key: Option<Key>,
}

fn strategy_name(s: Strategy) -> &'static str {
    ["original", "sgi", "fuse", "fuse1", "fuse+group", "group"]
        .into_iter()
        .find(|n| Strategy::from_name(n) == Some(s))
        .expect("fig10 strategies have protocol names")
}

fn measure_req(apps: &[AppSpec], (a, s, size): Key) -> Request {
    Request::new("measure").with("app", apps[a].name).with("strategy", s).with("size", size)
}

/// Everything a run needs before its first timed request.
struct Inputs {
    apps: Vec<AppSpec>,
    warm: Vec<Key>,
    cold: Vec<Key>,
    predict: Vec<(&'static str, String)>,
    gallery: Vec<gcr_apps::GalleryKernel>,
}

fn inputs(cfg: &Config) -> Inputs {
    let apps = gcr_apps::evaluation_apps();
    let mut warm = Vec::new();
    let mut cold = Vec::new();
    for (a, app) in apps.iter().enumerate() {
        // SP's checked optimization alone takes 0.1-0.5 s per request and
        // its peak memory is several times the others': a few SP requests
        // would set the tail and the peak RSS, so serve leaves SP to the
        // sweep workload.
        if app.name == "SP" {
            continue;
        }
        for s in fig10_strategies(app.name) {
            let name = strategy_name(s);
            warm.extend([24, 32].map(|n| (a, name, n)));
            if !cfg.smoke {
                cold.extend((33..=48).map(|n| (a, name, n)));
            }
        }
    }
    if cfg.smoke {
        warm.truncate(2);
        cold.push((0, "original", 9));
    }
    let mut rng = Rng::new(cfg.seed);
    rng.shuffle(&mut cold);
    let mut predict = vec![("stream", crate::statics::STREAM.to_string())];
    for name in ["histogram", "relax"] {
        predict.push((name, gcr_apps::gallery_kernel(name).expect("kernel").source.to_string()));
    }
    let gallery = gcr_apps::gallery().into_iter().filter(|k| k.name != "nbody").collect();
    Inputs { apps, warm, cold, predict, gallery }
}

/// Draws one batch from `rng`. Cold keys are taken in order, so no key
/// repeats within a run.
fn batch(inp: &Inputs, rng: &mut Rng, next_cold: &mut usize) -> Vec<Item> {
    let mut kinds: Vec<Kind> = MIX.iter().flat_map(|&(k, n)| std::iter::repeat_n(k, n)).collect();
    rng.shuffle(&mut kinds);
    let mut items = Vec::with_capacity(kinds.len());
    for mut kind in kinds {
        if kind == Kind::ColdMeasure && *next_cold >= inp.cold.len() {
            kind = Kind::Measure;
        }
        let item = match kind {
            Kind::Measure => {
                let key = inp.warm[rng.below(inp.warm.len() as u64) as usize];
                Item { kind, req: measure_req(&inp.apps, key), key: Some(key) }
            }
            Kind::ColdMeasure => {
                let key = inp.cold[*next_cold];
                *next_cold += 1;
                Item { kind, req: measure_req(&inp.apps, key), key: Some(key) }
            }
            Kind::Predict => {
                let (_, src) = &inp.predict[rng.below(inp.predict.len() as u64) as usize];
                let req =
                    Request::new("predict").with("size", 1_000_000_000).with_body(src.as_str());
                Item { kind, req, key: None }
            }
            Kind::HierPredict => {
                let k = inp.gallery[rng.below(inp.gallery.len() as u64) as usize];
                let req = Request::new("predict")
                    .with("size", k.default_size)
                    .with("hierarchy", GALLERY_HIERARCHY)
                    .with_body(k.source);
                Item { kind, req, key: None }
            }
            Kind::Optimize => {
                let k = inp.gallery[rng.below(inp.gallery.len() as u64) as usize];
                Item { kind, req: Request::new("optimize").with_body(k.source), key: None }
            }
        };
        items.push(item);
    }
    items
}

/// A server with its warm keys filled.
fn start(inp: &Inputs) -> Server {
    let server = Server::new(ServerConfig::default(), MeasureCache::new());
    for &key in &inp.warm {
        let resp = server.handle(&measure_req(&inp.apps, key).encode());
        assert!(resp.is_ok(), "prefill measure failed: {}", resp.body);
    }
    server
}

/// The fields of a `measure` body that a direct measurement determines.
const MEASURE_FIELDS: [&str; 7] =
    ["strategy", "cycles", "flops", "l1", "l2", "tlb", "memory_traffic"];

/// Reference bodies: a direct `try_measure_strategy_report` per key.
fn reference(apps: &[AppSpec], (a, s, size): Key) -> Result<Vec<String>, String> {
    let strategy = Strategy::from_name(s).expect("known strategy");
    let (m, _, _) =
        gcr_bench::try_measure_strategy_report("gcr-serve", &apps[a], strategy, size, 1)
            .map_err(|e| e.to_string())?;
    Ok(vec![
        Json::S(m.label.clone()).render(),
        Json::F(m.cycles).render(),
        Json::U(m.stats.flops).render(),
        Json::U(m.misses.l1).render(),
        Json::U(m.misses.l2).render(),
        Json::U(m.misses.tlb).render(),
        Json::U(m.misses.memory_traffic).render(),
    ])
}

fn body_fields(resp: &Response) -> Option<Vec<String>> {
    let body = Json::parse(&resp.body).ok()?;
    MEASURE_FIELDS.iter().map(|f| body.get(f).map(Json::render)).collect()
}

/// A measure key's reference: the fields a direct measurement gives, and
/// the first response body found to match them.
struct Reference {
    fields: Result<Vec<String>, String>,
    body: Option<String>,
}

impl Reference {
    fn new(apps: &[AppSpec], key: Key) -> Reference {
        Reference { fields: reference(apps, key), body: None }
    }
}

/// Checks every response: `ok`, and `measure` bodies equal to the
/// reference (cold keys get theirs computed here, after the timed pass).
/// A body byte-equal to one already checked is not parsed again:
/// `Json::parse` leaks its object keys, so parsing every response made the
/// peak resident set grow with the number of requests.
fn verify(
    o: &mut Outcome,
    inp: &Inputs,
    refs: &mut BTreeMap<Key, Reference>,
    done: &[(Kind, Option<Key>, Result<Response, String>)],
) {
    for (kind, key, resp) in done {
        let ok = match resp {
            Ok(r) if r.is_ok() => match key {
                Some(key) => {
                    let want = refs.entry(*key).or_insert_with(|| Reference::new(&inp.apps, *key));
                    let ok = want.body.as_deref() == Some(r.body.as_str())
                        || matches!(&want.fields, Ok(w) if body_fields(r).as_ref() == Some(w));
                    if ok && want.body.is_none() {
                        want.body = Some(r.body.clone());
                    }
                    ok
                }
                None => true,
            },
            _ => false,
        };
        o.check(ok, || match resp {
            Ok(r) => format!("serve {kind:?}: {}", r.body.chars().take(200).collect::<String>()),
            Err(e) => format!("serve {kind:?}: transport: {e}"),
        });
    }
}

type Done = Vec<(Kind, Option<Key>, Result<Response, String>)>;
/// One request's answer (or transport error) and latency in ms.
type Slot = Mutex<Option<(Result<Response, String>, f64)>>;

/// Sends one batch over `clients` concurrent connections; returns each
/// request's outcome and latency in batch order.
fn send(clients: &mut [Client], items: &[Item]) -> (Done, Vec<f64>) {
    let next = AtomicUsize::new(0);
    let slots: Vec<Slot> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for client in clients.iter_mut() {
            let (next, slots) = (&next, &slots);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let t = Instant::now();
                let r = client.call(&item.req).map_err(|e| e.to_string());
                let ms = t.elapsed().as_secs_f64() * 1e3;
                *slots[i].lock().expect("slot lock") = Some((r, ms));
            });
        }
    });
    let mut done = Vec::with_capacity(items.len());
    let mut ms = Vec::with_capacity(items.len());
    for (item, slot) in items.iter().zip(slots) {
        let (r, t) = slot.into_inner().expect("slot lock").expect("every request answered");
        done.push((item.kind, item.key, r));
        ms.push(t);
    }
    (done, ms)
}

/// The server's `report` counters, checked for conservation:
/// requests = ok + Σ errors, and cache hits + misses = lookups.
pub(crate) fn conservation(o: &mut Outcome, server: &Server, lookups: u64) -> Json {
    let report = server.handle(&Request::new("report").encode());
    let body = Json::parse(&report.body).unwrap_or(Json::Null);
    let num = |v: Option<&Json>| match v {
        Some(Json::U(n)) => *n,
        _ => 0,
    };
    let requests = num(body.get("requests"));
    let ok = num(body.get("ok"));
    let errors: u64 = match body.get("errors") {
        Some(Json::O(fields)) => fields.iter().map(|(_, v)| num(Some(v))).sum(),
        _ => 0,
    };
    let cache = body.get("cache");
    let (hits, misses) =
        (num(cache.and_then(|c| c.get("hits"))), num(cache.and_then(|c| c.get("misses"))));
    // The report request itself is counted in `requests` but not yet in `ok`.
    o.require(report.is_ok() && requests == ok + errors + 1, || {
        format!("serve conservation: requests {requests} != ok {ok} + errors {errors} + 1")
    });
    o.require(hits + misses == lookups, || {
        format!("serve conservation: hits {hits} + misses {misses} != lookups {lookups}")
    });
    body
}

fn socket_path(cfg: &Config) -> String {
    // Relative, so the path stays under the unix socket length limit
    // whatever the checkout's location.
    let _ = std::fs::create_dir_all(".perfbench");
    format!(".perfbench/serve-{}-{}.sock", std::process::id(), cfg.seed)
}

pub fn run(cfg: &Config) -> Outcome {
    let mut o = Outcome::default();
    let (inp, server) = set_up(&mut o, || {
        let inp = inputs(cfg);
        let server = start(&inp);
        (inp, server)
    });
    o.inputs =
        inp.predict.iter().map(|(n, s)| (format!("serve/{n}"), fnv64(s.as_bytes()))).collect();
    o.inputs.extend(
        inp.gallery
            .iter()
            .map(|k| (format!("gallery/{}.loop", k.name), fnv64(k.source.as_bytes()))),
    );
    // Warm references, outside any timed region.
    let mut refs: BTreeMap<Key, Reference> =
        inp.warm.iter().map(|&k| (k, Reference::new(&inp.apps, k))).collect();
    let mut lookups = inp.warm.len() as u64;
    let mut rng = Rng::new(cfg.seed.wrapping_add(1));
    let mut next_cold = 0;
    let path = socket_path(cfg);
    let mut handle_spans = None;
    let mut kind_ms: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
    std::thread::scope(|s| {
        let listener = s.spawn(|| server.serve_unix(&path));
        let mut clients: Vec<Client> = (0..CLIENTS)
            .map(|_| {
                let mut c =
                    Client::connect_with_retry(&path, Duration::from_secs(10)).expect("connect");
                c.set_deadline(Duration::from_secs(60)).expect("deadline");
                c
            })
            .collect();
        let mut pass = |o: &mut Outcome, rng: &mut Rng| {
            let items = batch(&inp, rng, &mut next_cold);
            lookups += items.iter().filter(|i| i.key.is_some()).count() as u64;
            let t = Instant::now();
            let (done, ms) = send(&mut clients, &items);
            let wall = t.elapsed().as_secs_f64();
            for (item, &ms) in items.iter().zip(&ms) {
                kind_ms.entry(item.kind).or_default().push(ms);
                o.ops_ms.push((o.ops_ms.len() as u64, ms));
            }
            verify(o, &inp, &mut refs, &done);
            wall
        };
        if cfg.trace {
            let untraced = pass(&mut o, &mut rng);
            let items = batch(&inp, &mut rng, &mut next_cold);
            let (sp, npasses, wall, made) =
                traced(cfg, &server, &mut clients[0], &inp, &items, &mut o);
            lookups += made;
            handle_spans = Some(((sp, npasses, wall), untraced));
        } else {
            let mut passes = Vec::new();
            repeat_for(cfg.budget(), 3, || passes.push(pass(&mut o, &mut rng)));
            o.passes_s = passes;
        }
        drop(clients);
        let counters = conservation(&mut o, &server, lookups);
        if cfg.trace {
            let count = |v: Option<&Json>| match v {
                Some(Json::U(n)) => *n as f64,
                _ => 0.0,
            };
            let errors = counters.get("errors");
            let total = match errors {
                Some(Json::O(fields)) => fields.iter().map(|(_, v)| count(Some(v))).sum(),
                _ => 0.0,
            };
            o.layer("serve.ok", count(counters.get("ok")));
            o.layer("serve.errors", total);
            o.layer("serve.shed", count(errors.and_then(|e| e.get("overloaded"))));
            let c = server.cache().counters();
            o.layer("serve.cache_hit_ratio", c.hits as f64 / (c.hits + c.misses).max(1) as f64);
        }
        let down = server.handle(&Request::new("shutdown").encode());
        o.require(down.is_ok(), || "serve: shutdown refused".into());
        match listener.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => o.require(false, || format!("serve: listener failed: {e}")),
            Err(_) => o.require(false, || "serve: listener panicked".into()),
        }
    });
    if let Err(e) = server.finish() {
        o.require(false, || format!("serve: finish failed: {e}"));
    }
    let _ = std::fs::remove_file(&path);
    if let Some(((sp, npasses, wall), untraced)) = handle_spans {
        o.layer("trace.overhead_s", wall - untraced);
        o.layers_from_spans(&sp, npasses, wall);
        o.spans = Some(sp);
    }
    if !cfg.trace {
        let ops = o.ops_ms.len() as f64;
        o.detail.insert("serve_rps", ops / o.passes_s.iter().sum::<f64>().max(1e-9));
        for (kind, ms) in &kind_ms {
            o.detail.insert(kind.p50_name(), median(ms));
        }
    }
    o
}

/// The traced pass over one batch, at concurrency 1:
/// 1. each request through `Server::handle` in process (`serve.handle`);
/// 2. the same requests over the socket (`serve.roundtrip`), so
///    round trip minus handle is the transport;
/// 3. each request's work replayed through the layer calls the server
///    makes, so `core`, `static`, `sweep` and `cache` get their spans.
fn traced(
    cfg: &Config,
    server: &Server,
    client: &mut Client,
    inp: &Inputs,
    items: &[Item],
    o: &mut Outcome,
) -> (Spans, usize, f64, u64) {
    let mut sp = Spans::default();
    let mut by_kind: BTreeMap<Kind, Vec<f64>> = BTreeMap::new();
    let mut transport = Vec::new();
    let (mut calls, mut passes, mut probe_sims, mut max_base, mut hits, mut lookups) =
        (0u64, 0u64, 0u64, 0i64, 0u64, 0u64);
    let start = Instant::now();
    let npasses = repeat_for(cfg.budget(), 1, || {
        let mut handle_ms = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let payload = item.req.encode();
            let id = sp.enter("serve.handle", i as u64);
            let resp = server.handle(&payload);
            sp.exit(id);
            let ms = sp.all()[id].dur_ns() as f64 / 1e6;
            handle_ms.push(ms);
            by_kind.entry(item.kind).or_default().push(ms);
            o.check(resp.is_ok(), || format!("serve {:?} (in process): {}", item.kind, resp.body));
        }
        for (i, item) in items.iter().enumerate() {
            let id = sp.enter("serve.roundtrip", i as u64);
            let resp = client.call(&item.req);
            sp.exit(id);
            if item.kind != Kind::ColdMeasure {
                transport.push(sp.all()[id].dur_ns() as f64 / 1e6 - handle_ms[i]);
            }
            o.check(resp.as_ref().is_ok_and(Response::is_ok), || {
                format!("serve {:?} (socket) failed", item.kind)
            });
        }
        for (i, item) in items.iter().enumerate() {
            let op = i as u64;
            let root = sp.enter("bench.replay", op);
            let strategy = Strategy::from_name(item.req.header("strategy").unwrap_or("fuse+group"))
                .expect("known strategy");
            let (prog, bind) = match item.key {
                Some((a, _, size)) => sp.time("frontend.parse", op, || (inp.apps[a].build)(size)),
                None => {
                    let prog =
                        sp.time("frontend.parse", op, || gcr_frontend::parse(&item.req.body));
                    let prog = prog.expect("request sources parse");
                    let n: i64 = item.req.header("size").and_then(|v| v.parse().ok()).unwrap_or(64);
                    let bind = gcr_ir::ParamBinding::new(vec![n.min(512); prog.params.len()]);
                    (prog, bind)
                }
            };
            let mut tracer = Tracer::enabled();
            let opt = sp.time("core.checked", op, || {
                apply_strategy_checked_traced(
                    &prog,
                    strategy,
                    &SafetyOptions::default(),
                    &mut tracer,
                )
            });
            sp.time("core.optimize", op, || apply_strategy(&prog, strategy));
            let Ok(opt) = opt else {
                o.check(false, || format!("serve {:?}: optimizer failed in replay", item.kind));
                sp.exit(root);
                continue;
            };
            calls += 1;
            passes += tracer.events().len() as u64;
            match item.kind {
                Kind::Measure | Kind::ColdMeasure => {
                    let (a, _, _) = item.key.expect("measure has a key");
                    let app = &inp.apps[a];
                    let layout = opt.layout(&bind);
                    let key = sp.time("sweep.key", op, || {
                        let text = gcr_ir::print::print_program(&opt.program);
                        measurement_key(&text, &layout, &bind, 1, app.l1_scale, app.l2_scale)
                    });
                    lookups += 1;
                    hits += u64::from(
                        sp.time("sweep.lookup", op, || server.cache().lookup(key)).is_some(),
                    );
                }
                Kind::Predict => {
                    let spec = gcr_static::SweepSpec::new(32, PREDICT_CAPACITIES.to_vec(), 1);
                    let fit = sp.time("static.fit_1d", op, || {
                        gcr_static::Analyzer::analyze_with(
                            &opt.program,
                            spec,
                            ExecEngine::default(),
                            gcr_static::DEFAULT_PROBE_FUEL,
                            |b| opt.layout(b),
                        )
                    });
                    match fit {
                        Ok(a) => {
                            probe_sims += u64::from(a.model().probe_sims);
                            max_base = max_base.max(a.model().base);
                            let p = sp.time("static.eval", op, || a.predict(1_000_000_000));
                            o.check(p.is_ok(), || "serve predict replay: prediction failed".into());
                        }
                        Err(e) => o.check(false, || format!("serve predict replay: {e}")),
                    }
                }
                Kind::HierPredict => {
                    let spec = gcr_cache::HierarchySpec::parse(GALLERY_HIERARCHY).expect("parses");
                    let layout = opt.layout(&bind);
                    let run = sp.time("cache.multilevel", op, || {
                        gcr_cache::measure_hierarchy(
                            &opt.program,
                            bind.clone(),
                            layout,
                            ExecEngine::default(),
                            1,
                            gcr_static::DEFAULT_PROBE_FUEL,
                            &spec,
                        )
                    });
                    o.check(run.is_ok(), || "serve hierarchy replay failed".into());
                }
                Kind::Optimize => {
                    sp.time("cli.report", op, || gcr_ir::print::print_program(&opt.program));
                }
            }
            sp.exit(root);
        }
    });
    let per = npasses as f64;
    let wall = start.elapsed().as_secs_f64() / per;
    for (kind, ms) in &by_kind {
        o.layer(kind.metric(), median(ms));
    }
    o.layer("serve.transport_ms", median(&transport));
    o.layer("core.calls", calls as f64 / per);
    o.layer("core.passes", passes as f64 / per);
    o.layer("frontend.calls", calls as f64 / per);
    o.layer("static.probe_sims", probe_sims as f64 / per);
    o.layer("static.max_base", max_base as f64);
    o.layer("sweep.memo_hits", hits as f64 / per);
    o.layer("sweep.memo_misses", (lookups - hits) as f64 / per);
    o.layer("sweep.hit_ratio", hits as f64 / lookups.max(1) as f64);
    // Each keyed item is looked up by `handle`, by the round trip and by
    // the replay.
    let keyed = items.iter().filter(|i| i.key.is_some()).count() as u64;
    (sp, npasses, wall, 3 * keyed * npasses as u64)
}
