//! `dslam`: the paper's two-agent mission (FE SuperPoint with a hard
//! per-frame deadline, PR GeM-ResNet101 preemptible) on `TimingBackend`.

use std::time::Instant;

use inca_compiler::Compiler;
use inca_dslam::mission::{Mission, MissionConfig, MissionOutcome};
use inca_isa::TaskSlot;
use inca_model::zoo;
use inca_runtime::reload_penalty;

use crate::report::{failed_ratio, median, peak_rss_mb, percentile, Cpu, Digest, Outcome};

/// Missions per untraced run; `setup_s` is the median of their set-ups.
const MIN_UNITS: usize = 3;

fn config(seed: u64) -> MissionConfig {
    MissionConfig { seed, ..MissionConfig::default() }
}

/// The classic mission pins FE to slot 1 and PR to slot 3.
fn fe_slot() -> TaskSlot {
    TaskSlot::new(1).expect("slot 1")
}

/// Everything the mission decided, in simulated time, as one digest.
fn digest(o: &MissionOutcome) -> u64 {
    let mut d = Digest::default();
    for a in &o.agents {
        for w in [a.frames, a.fe_completed, a.fe_dropped, a.pr_completed, a.vo_failures] {
            d.word(u64::from(w));
        }
        d.word(a.deadline_misses as u64);
        d.word(a.map.ate().to_bits());
        for j in &a.jobs {
            for w in [j.slot.index() as u64, j.release, j.start, j.finish, j.busy_cycles] {
                d.word(w);
            }
        }
        for i in &a.interrupts {
            for w in [i.request_cycle, i.t1, i.t2, i.t4] {
                d.word(w);
            }
        }
    }
    d.word(u64::from(o.merge.is_some()));
    d.0
}

struct Unit {
    setup_s: f64,
    run_s: f64,
    digest: u64,
    /// (camera frames, failed frames, FE jobs, PR jobs).
    counts: (u64, u64, u64, u64),
}

fn unit(seed: u64) -> (Mission, MissionOutcome, Unit) {
    let t0 = Cpu::now();
    let mission = Mission::new(config(seed)).expect("default mission builds");
    let setup_s = t0.elapsed_s();
    let t0 = Cpu::now();
    let outcome = mission.run().expect("mission runs");
    let run_s = t0.elapsed_s();
    let u = Unit { setup_s, run_s, digest: digest(&outcome), counts: counts(&outcome) };
    (mission, outcome, u)
}

/// Per-mission totals: (camera frames, failed frames, FE jobs, PR jobs).
fn counts(o: &MissionOutcome) -> (u64, u64, u64, u64) {
    let sum = |f: &dyn Fn(&inca_dslam::mission::AgentOutcome) -> u64| -> u64 {
        o.agents.iter().map(f).sum()
    };
    (
        sum(&|a| u64::from(a.frames)),
        sum(&|a| a.deadline_misses as u64 + u64::from(a.fe_dropped)),
        sum(&|a| u64::from(a.fe_completed)),
        sum(&|a| u64::from(a.pr_completed)),
    )
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome { correct: true, ..Outcome::default() };
    if trace {
        run_traced(seed, &mut out);
        return out;
    }
    let t0 = Instant::now();
    let (mission, o, first) = unit(seed);
    let cfg = config(seed);
    let reload = reload_penalty(&cfg.accel, mission.fe_program())
        + reload_penalty(&cfg.accel, mission.pr_program());
    drop(mission);
    let mut units = vec![first];
    while units.len() < MIN_UNITS || t0.elapsed().as_secs_f64() < seconds {
        units.push(unit(seed).2);
    }
    for (i, u) in units.iter().enumerate() {
        if u.digest != units[0].digest {
            out.fail_check(format!("mission {i} differs from mission 0 in simulated time"));
        }
        out.attempted += u.counts.0;
        out.failed += u.counts.1;
    }
    let (frames, failed, fe, pr) = units[0].counts;
    let sim_cycles = 2 * cfg.accel.us_to_cycles(cfg.duration_s * 1e6);
    let fe_macs = zoo::superpoint(cfg.fe_input).expect("FE net").total_macs();
    let pr_macs = zoo::gem_resnet101(cfg.pr_input).expect("PR net").total_macs();
    let run_s: Vec<f64> = units.iter().map(|u| u.run_s).collect();
    let run = median(&run_s);
    let fe_ms: Vec<f64> = run_s.iter().map(|s| s * 1e3 / fe as f64).collect();
    let pr_ms: Vec<f64> = run_s.iter().map(|s| s * 1e3 / pr as f64).collect();
    let fe_resp: Vec<u64> = o
        .agents
        .iter()
        .flat_map(|a| a.jobs.iter())
        .filter(|j| j.slot == fe_slot())
        .map(|j| j.response())
        .collect();
    let preempt: Vec<u64> =
        o.agents.iter().flat_map(|a| a.interrupts.iter()).map(|i| i.latency()).collect();

    out.set("setup_s", median(&units.iter().map(|u| u.setup_s).collect::<Vec<_>>()));
    out.set("sim_cycles_per_s", sim_cycles as f64 / run);
    out.set("gmacs_per_s", (fe * fe_macs + pr * pr_macs) as f64 / run / 1e9);
    out.set("requests_per_s", (fe + pr) as f64 / run);
    out.set("resnet18.frame_ms_p50", median(&fe_ms));
    out.set("resnet18.frame_ms_p90", percentile(&fe_ms, 90));
    out.set("mobilenet.frame_ms_p50", median(&pr_ms));
    out.set("mobilenet.frame_ms_p90", percentile(&pr_ms, 90));
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("failed_ratio", failed_ratio(failed, frames));
    out.set("sim_hard_p99_cycles", percentile(&fe_resp, 99) as f64);
    out.set("sim_preempt_p99_cycles", percentile(&preempt, 99) as f64);
    out.set("sim_reload_cycles", reload as f64);
    out.notes.push(format!(
        "dslam: {} missions, {frames} camera frames, {fe} FE / {pr} PR jobs, {} preemptions, \
         {failed} failed frames per mission",
        units.len(),
        preempt.len()
    ));
    out
}

/// One untraced mission, then one with the benchmark's timers and the
/// mission's own metrics on. From outside, engine and VO time inside
/// `Mission::run` cannot be split; `dslam.run_s` holds both.
fn run_traced(seed: u64, out: &mut Outcome) {
    let (_, _, plain) = unit(seed);

    let cfg = config(seed);
    let compiler = Compiler::new(cfg.accel.arch);
    let fe_net = zoo::superpoint(cfg.fe_input).expect("FE net");
    let pr_net = zoo::gem_resnet101(cfg.pr_input).expect("PR net");
    let t0 = Cpu::now();
    let fe = compiler.compile_vi(&fe_net).expect("FE compiles");
    let pr = compiler.compile_vi(&pr_net).expect("PR compiles");
    let compile_s = t0.elapsed_s();

    let mission = Mission::new(cfg).expect("default mission builds");
    let t0 = Cpu::now();
    let (outcome, trace) = mission.run_traced(0).expect("mission runs");
    let run_s = t0.elapsed_s();
    if digest(&outcome) != plain.digest {
        out.fail_check("traced mission differs from the untraced one".into());
    }
    let (frames, failed, _, _) = counts(&outcome);
    out.attempted = 2 * frames;
    out.failed = failed + plain.counts.1;

    let m = trace.metrics();
    let sum =
        |key: &str| -> f64 { (0..2).map(|i| m.counter(&format!("agent{i}.{key}")) as f64).sum() };
    let instrs = sum("engine.instrs.retired");
    out.set("compiler.compile_s", compile_s);
    out.set("compiler.instrs", (fe.instrs.len() + pr.instrs.len()) as f64);
    out.set("engine.instrs_retired", instrs);
    out.set("engine.instrs_per_s", instrs / run_s);
    out.set("engine.interrupts", sum("engine.interrupts.probed"));
    out.set("engine.vi_materialized", sum("engine.instrs.vi_materialized"));
    out.set("dslam.run_s", run_s);
    out.set("runtime.messages_delivered", sum("runtime.messages.delivered"));
    let fpr: f64 = outcome.agents.iter().map(|a| a.frames_per_pr()).sum::<f64>() / 2.0;
    out.set("dslam.frames_per_pr", fpr);
    out.set("trace.overhead_ratio", run_s / plain.run_s);
    out.notes.push(format!(
        "dslam traced: untraced run {:.2} s, traced run {run_s:.2} s, compile {compile_s:.2} s",
        plain.run_s
    ));
}
