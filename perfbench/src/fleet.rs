//! `fleet`: an open loop in simulated time. Poisson-like arrivals go to a
//! `Cluster` of 4 gateways × 4 cores on `TimingBackend`, routed
//! weight-cache-aware with elastic scaling and work stealing on.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use inca_accel::{AccelConfig, CoreId, CorePool, Engine, InterruptStrategy, TimingBackend};
use inca_bench::workload::Gaps;
use inca_cluster::{Cluster, ElasticConfig, GatewayId, RoutePolicy};
use inca_compiler::Compiler;
use inca_isa::{Program, TaskSlot};
use inca_model::{zoo, Shape3};
use inca_obs::{HostComponent, HostProf};
use inca_serve::{DropPolicy, Gateway, PlacePolicy, SchedPolicy, TenantId, TenantSpec};

use crate::report::{failed_ratio, median, mix, peak_rss_mb, percentile, Cpu, Digest, Outcome};

const GATEWAYS: usize = 4;
const CORES: usize = 4;
/// Independent streams per unit, each on a fresh fleet with its own
/// derived seed. Early routing and placement decisions shape a stream's
/// reloads and hard-lane latency for its whole length, so a unit averages
/// many streams rather than running one long one, and the `sim_*` figures
/// hardly depend on the seed.
const STREAMS: u64 = 128;
/// Requests per stream.
const REQUESTS: usize = 2_500;
/// Units per untraced run (more while `--seconds` has not passed); every
/// unit replays the same streams.
const MIN_UNITS: usize = 3;
/// Mean arrival gap as a fraction of the largest tenant's makespan: busy
/// enough that requests batch, get stolen, preempt and reload, and that
/// gateways resize, yet below the load at which a gateway first refuses
/// (from a divisor of about 8 on, some seeds see refusals), so no request
/// fails on any seed.
const GAP_DIVISOR: u64 = 6;

fn cfg() -> AccelConfig {
    AccelConfig::paper_big()
}

/// The fleet and what its set-up cost.
struct Fleet {
    cluster: Cluster<TimingBackend>,
    tenants: Vec<TenantId>,
    hard: TenantId,
    macs: Vec<u64>,
    mean_gap: u64,
    compile_s: f64,
    instrs: u64,
}

/// Uninterrupted makespan of `program` on a dedicated timing engine.
fn makespan(program: &Arc<Program>) -> u64 {
    let slot = TaskSlot::new(3).expect("slot 3");
    let mut e = Engine::new(cfg(), InterruptStrategy::VirtualInstruction, TimingBackend::new());
    e.load(slot, Arc::clone(program)).expect("idle slot");
    e.request_at(0, slot).expect("loaded slot");
    e.run().expect("timing run").completed_jobs[0].finish
}

/// Eight distinct tiny networks plus the `estop` hard tenant: the
/// `fig_cluster` tenant set.
fn build() -> Fleet {
    let compiler = Compiler::new(cfg().arch);
    let nets: Vec<_> = (0..8u32)
        .map(|i| zoo::tiny(Shape3::new(3, 16 + 4 * i, 16 + 4 * i)).expect("tiny net"))
        .collect();
    let t0 = Cpu::now();
    let programs: Vec<Arc<Program>> =
        nets.iter().map(|n| Arc::new(compiler.compile_vi(n).expect("tiny compiles"))).collect();
    let compile_s = t0.elapsed_s();
    let gateways = (0..GATEWAYS)
        .map(|_| {
            let pool = CorePool::new(
                CORES,
                cfg(),
                InterruptStrategy::VirtualInstruction,
                TimingBackend::new,
            );
            Gateway::new(pool, SchedPolicy::FixedPriority, PlacePolicy::TenantAffinity)
        })
        .collect();
    let mut cluster = Cluster::new(gateways, RoutePolicy::WeightCacheAware);
    let mean_gap = makespan(&programs[7]);
    cluster.set_elastic(Some(ElasticConfig::default()));
    cluster.set_steal_batch(2);
    // A quarter of the largest makespan: at this arrival rate, long enough
    // for same-network requests to share a batch now and then.
    cluster.set_batch_window(mean_gap / 4);
    let mut macs: Vec<u64> = nets.iter().map(|n| n.total_macs()).collect();
    let tenants = programs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            cluster.register(
                TenantSpec::new(format!("t{i}"), Arc::clone(p))
                    .weight(1 + (i % 3) as u8)
                    .queue(6, DropPolicy::Reject),
            )
        })
        .collect();
    let hard = cluster.register(
        TenantSpec::new("estop", Arc::clone(&programs[0]))
            .hard(mean_gap * 256)
            .queue(4, DropPolicy::Reject),
    );
    // `estop` runs program 0.
    macs.push(macs[0]);
    let instrs = programs.iter().map(|p| p.instrs.len() as u64).sum();
    Fleet { cluster, tenants, hard, macs, mean_gap, compile_s, instrs }
}

/// What the streams of one unit observed, summed over their fleets.
#[derive(Debug, Default)]
struct Tally {
    setup_s: f64,
    /// CPU time of the streams' send loops and drains: the cluster's calls
    /// plus the client's few vector and hash-map updates per request.
    run_s: f64,
    /// Wall time in `Cluster::submit`.
    submit_s: f64,
    /// Wall time in `Cluster::run_until`/`run_to_idle`.
    cluster_run_s: f64,
    sent: u64,
    refused: u64,
    unanswered: u64,
    hard_missed: u64,
    answered: u64,
    macs: u64,
    errors: Vec<String>,
    /// Host milliseconds from submit to the step that returned the
    /// response, per class (hard, best-effort).
    host_ms: [Vec<f64>; 2],
    hard_latency: Vec<u64>,
    preempt: Vec<u64>,
    /// p50 and p90 of `host_ms`, per class, once the unit is finished.
    host_pct: [[f64; 2]; 2],
    sim: Sim,
    layers: Layers,
}

impl Tally {
    /// Wall time inside the cluster's calls.
    fn cluster_s(&self) -> f64 {
        self.submit_s + self.cluster_run_s
    }

    /// Reduces the per-request samples to percentiles and frees them, so
    /// memory does not grow with the number of units a run makes.
    fn finish(&mut self) {
        for (class, ms) in self.host_ms.iter_mut().enumerate() {
            self.host_pct[class] = [median(ms), percentile(ms, 90)];
            *ms = Vec::new();
        }
        self.sim.hard_p99 = percentile(&self.hard_latency, 99);
        self.sim.preempt_p99 = percentile(&self.preempt, 99);
        (self.hard_latency, self.preempt) = (Vec::new(), Vec::new());
    }
}

/// Simulated-time results: identical on every replay of the same streams.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Sim {
    digest: u64,
    /// Sum over streams of the last response's finish cycle.
    makespan: u64,
    reload_cycles: u64,
    hard_p99: u64,
    preempt_p99: u64,
}

/// Per-layer counters read from the fleets after their streams.
#[derive(Debug, Default, Clone, Copy)]
struct Layers {
    compile_s: f64,
    instrs: u64,
    retired: u64,
    interrupts: u64,
    vis: u64,
    barriers: u64,
    wakes: u64,
    skips: u64,
    batches: u64,
    batched: u64,
    reloads: u64,
    cascades: u64,
    stolen: u64,
    resizes: u64,
    hits: u64,
    misses: u64,
    miss_cycles: u64,
    cluster_wakes: u64,
    cluster_skips: u64,
}

fn elapsed_s(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Replays one seeded stream on `f`, checking every response on the
/// client side, and adds what it saw to `t`.
fn stream(f: &mut Fleet, seed: u64, t: &mut Tally) {
    let mut gaps = Gaps::new(seed);
    // Per request: submit cycle, host time right after the step's
    // `run_until` (when it was submitted), tenant.
    let mut sent: Vec<(u64, f64, TenantId)> = Vec::with_capacity(REQUESTS);
    let mut accepted: HashMap<(usize, u64), usize> = HashMap::with_capacity(REQUESTS);
    let mut refused = 0u64;
    let cpu = Cpu::now();
    let t0 = Instant::now();
    let mut now = 0u64;
    for i in 0..REQUESTS {
        now += gaps.next(f.mean_gap / GAP_DIVISOR);
        let step = Instant::now();
        f.cluster.run_until(now).expect("fleet advances");
        t.cluster_run_s += elapsed_s(step);
        let tenant = if i % 16 == 15 {
            f.hard
        } else {
            f.tenants[gaps.pick(f.tenants.len() as u64) as usize]
        };
        let submit = Instant::now();
        let result = f.cluster.submit(now, tenant);
        t.submit_s += elapsed_s(submit);
        sent.push((now, submit.duration_since(t0).as_secs_f64(), tenant));
        match result {
            Ok((g, acc)) => {
                accepted.insert((g.index(), acc.request.raw()), i);
            }
            Err(_) => refused += 1,
        }
    }
    let drain = Instant::now();
    f.cluster.run_to_idle(u64::MAX).expect("fleet drains");
    t.cluster_run_s += elapsed_s(drain);
    t.run_s += cpu.elapsed_s();
    let end_host = elapsed_s(t0);

    let mut d = Digest(t.sim.digest);
    let (mut answered, mut extra, mut makespan) = (0u64, 0u64, 0u64);
    let arrivals: Vec<u64> = sent.iter().map(|s| s.0).collect();
    for (g, r) in f.cluster.drain_responses() {
        for w in [g.index() as u64, r.request.raw(), r.tenant.index() as u64, r.start, r.finish] {
            d.word(w);
        }
        answered += 1;
        t.macs += f.macs[r.tenant.index()];
        makespan = makespan.max(r.finish);
        if r.finish < r.start || r.start < r.arrival {
            t.errors.push(format!("response {:?} has inverted times", r.request));
        }
        let hard = r.tenant == f.hard;
        if hard {
            t.hard_latency.push(r.latency());
            t.hard_missed += u64::from(!r.met());
        }
        match accepted.remove(&(g.index(), r.request.raw())) {
            Some(i) => {
                let (cycle, submit_host, tenant) = sent[i];
                // A gateway's clock never runs backwards, so a request can
                // be stamped later than the cycle it was sent at.
                if r.arrival < cycle || tenant != r.tenant {
                    t.errors.push(format!("response to request {i} does not match it"));
                }
                let step = arrivals.partition_point(|&a| a < r.finish);
                let done_host = sent.get(step).map_or(end_host, |s| s.1);
                t.host_ms[usize::from(!hard)].push((done_host - submit_host) * 1e3);
            }
            // A recalled request re-submitted by the thief gateway.
            None => extra += 1,
        }
    }
    // Every request sent is answered or counted as failed. An accepted
    // request without a response of its own was either stolen and
    // answered by the thief (one response matching no request each) or
    // is unanswered.
    let c = &f.cluster;
    let unmatched = accepted.len() as u64;
    if extra > c.stolen() || extra > unmatched {
        t.errors.push(format!(
            "{extra} responses match no request ({} stolen, {unmatched} unmatched)",
            c.stolen()
        ));
    }
    if c.totals().completed != answered {
        t.errors.push(format!("{answered} responses but {} completions", c.totals().completed));
    }
    t.sent += REQUESTS as u64;
    t.refused += refused;
    t.unanswered += unmatched.saturating_sub(extra);
    t.answered += answered;
    d.word(makespan);
    t.sim.digest = d.0;
    t.sim.makespan += makespan;
    t.sim.reload_cycles += c.reload_cycles();
    tally_layers(f, t);
}

fn tally_layers(f: &Fleet, t: &mut Tally) {
    let (c, l) = (&f.cluster, &mut t.layers);
    l.compile_s += f.compile_s;
    l.instrs += f.instrs;
    for g in 0..GATEWAYS {
        let gw = c.gateway(GatewayId(g));
        let a = gw.advance_stats();
        (l.barriers, l.wakes, l.skips) =
            (l.barriers + a.barriers, l.wakes + a.wakes, l.skips + a.skips);
        let m = gw.metrics();
        l.batches += m.counter("serve.batches.dispatched");
        l.batched += m.counter("serve.batches.requests");
        for core in 0..gw.pool().cores() {
            let engine = gw.pool().core(CoreId(core));
            let m = engine.metrics();
            l.retired += m.counter("engine.instrs.retired");
            l.interrupts += m.counter("engine.interrupts.probed");
            l.vis += m.counter("engine.instrs.vi_materialized");
            t.preempt.extend(engine.report().interrupts.iter().map(|i| i.latency()));
        }
    }
    let (cs, route) = (c.advance_stats(), c.route_stats());
    l.reloads += c.reloads();
    l.cascades += c.cascades();
    l.stolen += c.stolen();
    l.resizes += c.resizes();
    l.hits += route.hits;
    l.misses += route.misses;
    l.miss_cycles += route.miss_cycles;
    l.cluster_wakes += cs.wakes;
    l.cluster_skips += cs.skips;
}

/// Builds a fresh fleet per stream and replays every stream of `seed`.
/// With `prof`, HostProf is on in every gateway.
fn unit(seed: u64, prof: Option<&HostProf>) -> Tally {
    let mut t = Tally::default();
    // Sized once for every request a unit can send, so peak memory does
    // not jump with where a growing vector happens to double.
    let requests = STREAMS as usize * REQUESTS;
    t.host_ms.iter_mut().for_each(|v| v.reserve_exact(requests));
    t.hard_latency.reserve_exact(requests / 16);
    for j in 0..STREAMS {
        let t0 = Cpu::now();
        let mut f = build();
        t.setup_s += t0.elapsed_s();
        if let Some(p) = prof {
            for g in 0..GATEWAYS {
                f.cluster.gateway_mut(GatewayId(g)).set_host_prof(Some(p.clone()));
            }
        }
        stream(&mut f, mix(seed, j), &mut t);
    }
    t.finish();
    t
}

fn check(out: &mut Outcome, t: &Tally) {
    for e in &t.errors {
        out.fail_check(e.clone());
    }
    out.attempted += t.sent;
    out.failed += t.refused + t.unanswered + t.hard_missed;
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome { correct: true, ..Outcome::default() };
    if trace {
        run_traced(seed, &mut out);
        return out;
    }
    let t0 = Instant::now();
    let mut units = Vec::new();
    while units.len() < MIN_UNITS || elapsed_s(t0) < seconds {
        units.push(unit(seed, None));
    }
    let first = &units[0];
    for (i, u) in units.iter().enumerate() {
        check(&mut out, u);
        if u.sim != first.sim {
            out.fail_check(format!("unit {i} differs from unit 0 in simulated time"));
        }
    }
    let run = median(&units.iter().map(|u| u.run_s).collect::<Vec<_>>());
    let wall = median(&units.iter().map(Tally::cluster_s).collect::<Vec<_>>());
    let pct = |class: usize, p: usize| -> f64 {
        median(&units.iter().map(|u| u.host_pct[class][p]).collect::<Vec<_>>())
    };
    let failed = first.refused + first.unanswered + first.hard_missed;
    out.set("setup_s", median(&units.iter().map(|u| u.setup_s).collect::<Vec<_>>()));
    out.set("sim_cycles_per_s", first.sim.makespan as f64 / run);
    out.set("gmacs_per_s", first.macs as f64 / run / 1e9);
    out.set("requests_per_s", first.answered as f64 / run);
    out.set("resnet18.frame_ms_p50", pct(0, 0));
    out.set("resnet18.frame_ms_p90", pct(0, 1));
    out.set("mobilenet.frame_ms_p50", pct(1, 0));
    out.set("mobilenet.frame_ms_p90", pct(1, 1));
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("failed_ratio", failed_ratio(failed, first.sent));
    out.set("sim_hard_p99_cycles", first.sim.hard_p99 as f64);
    out.set("sim_preempt_p99_cycles", first.sim.preempt_p99 as f64);
    out.set("sim_reload_cycles", first.sim.reload_cycles as f64);
    out.notes.push(format!(
        "fleet: {} units of {STREAMS} streams x {REQUESTS} requests; per unit {} refused, \
         {} unanswered, {} hard misses, {} preemptions; median unit {run:.3} CPU s, \
         {wall:.3} s wall inside the cluster's calls",
        units.len(),
        first.refused,
        first.unanswered,
        first.hard_missed,
        first.layers.interrupts,
    ));
    out
}

/// One untraced unit, then one with HostProf on every gateway; the
/// per-layer figures come from the traced unit.
fn run_traced(seed: u64, out: &mut Outcome) {
    let plain = unit(seed, None);
    check(out, &plain);
    let prof = HostProf::new();
    let t = unit(seed, Some(&prof));
    check(out, &t);
    if t.sim != plain.sim {
        out.fail_check("traced unit differs from the untraced one in simulated time".into());
    }

    let report = prof.report();
    let stat = |c: HostComponent| report.stats(c);
    let l = &t.layers;
    let step_s = stat(HostComponent::EngineStep).host_seconds();
    out.set("compiler.compile_s", l.compile_s);
    out.set("compiler.instrs", l.instrs as f64);
    out.set("engine.instrs_retired", l.retired as f64);
    out.set("engine.instrs_per_s", l.retired as f64 / step_s);
    out.set("engine.step_s", step_s);
    out.set("engine.interrupts", l.interrupts as f64);
    out.set("engine.vi_materialized", l.vis as f64);
    out.set("engine.advance.barriers", l.barriers as f64);
    out.set("engine.advance.wakes", l.wakes as f64);
    out.set("engine.advance.skips", l.skips as f64);
    out.set("sched.s", stat(HostComponent::Sched).host_seconds());
    out.set("sched.pump_calls", stat(HostComponent::Sched).calls as f64);
    out.set("sched.reloads", l.reloads as f64);
    out.set("serve.gateway_s", stat(HostComponent::Gateway).host_seconds());
    out.set("serve.advance_calls", stat(HostComponent::Gateway).calls as f64);
    out.set("serve.batch_mean", l.batched as f64 / l.batches.max(1) as f64);
    out.set("cluster.submit_s", t.submit_s);
    out.set("cluster.self_s", t.cluster_run_s - report.total_host_seconds());
    let visits = (l.cluster_skips + l.cluster_wakes).max(1);
    out.set("cluster.skip_ratio", l.cluster_skips as f64 / visits as f64);
    out.set("cluster.cascades", l.cascades as f64);
    out.set("cluster.stolen", l.stolen as f64);
    out.set("cluster.resizes", l.resizes as f64);
    out.set("cluster.warm_ratio", l.hits as f64 / (l.hits + l.misses).max(1) as f64);
    out.set("cluster.model_miss_cycles", l.miss_cycles as f64);
    let drift = t.sim.reload_cycles as f64 / l.miss_cycles.max(1) as f64;
    out.set("cluster.residency_drift", drift);
    out.set("trace.overhead_ratio", t.run_s / plain.run_s);
    out.notes.push(format!(
        "fleet traced: untraced unit {:.3} CPU s, traced unit {:.3} CPU s; router modelled {} \
         miss cycles, schedulers charged {} reload cycles",
        plain.run_s, t.run_s, l.miss_cycles, t.sim.reload_cycles
    ));
}
