//! `infer`: a closed loop with one caller, alternating ResNet-18 and
//! MobileNetV1 frames through `Engine<FuncBackend>` on Tier-1, one thread.

use std::sync::Arc;
use std::time::Instant;

use inca_accel::analysis::t2_worst;
use inca_accel::{
    AccelConfig, Backend, DdrImage, Engine, ExecTier, FuncBackend, InterruptStrategy, Program,
    TaskSlot,
};
use inca_compiler::Compiler;
use inca_model::{zoo, Shape3};
use inca_obs::{HostComponent, HostProf};
use inca_runtime::reload_penalty;

use crate::report::{failed_ratio, median, mix, peak_rss_mb, percentile, Cpu, Digest, Outcome};
use crate::timed::{Func, Kernel, Timed};

const STRATEGY: InterruptStrategy = InterruptStrategy::VirtualInstruction;
/// Distinct seeded inputs per net; frames cycle through them.
const INPUTS_PER_NET: usize = 3;
/// Frames of each net per untraced run: 110 leaves 11 beyond p90.
const MIN_FRAMES: usize = 110;
/// Frames of each net per half of a traced run.
const MIN_TRACE_FRAMES: usize = 20;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

fn cfg() -> AccelConfig {
    AccelConfig::paper_small()
}

/// The measured backend: Tier-1 on one thread. On a small shared host the
/// default fork-join over every core waits whenever the host deschedules
/// one of them: with 2 threads on 2 vCPUs, frame times swung 2.5x between
/// runs while single-threaded workloads moved about 10 %.
fn tier1() -> FuncBackend {
    let mut backend = FuncBackend::with_tier(ExecTier::Tier1);
    backend.set_threads(1);
    backend
}

struct Net {
    program: Arc<Program>,
    macs: u64,
    slot: TaskSlot,
    inputs: Vec<Vec<u8>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Frame {
    cycles: u64,
    digest: u64,
}

/// Compiles both nets; returns them with the compile time in seconds.
fn compile(seed: u64) -> (Vec<Net>, f64) {
    let compiler = Compiler::new(cfg().arch);
    let specs = [
        (zoo::resnet18(Shape3::new(3, 64, 64)), TaskSlot::new(2)),
        (zoo::mobilenet_v1(Shape3::new(3, 96, 96)), TaskSlot::new(3)),
    ];
    let t0 = Cpu::now();
    let mut nets = Vec::new();
    for (i, (net, slot)) in specs.into_iter().enumerate() {
        let net = net.expect("zoo network builds");
        let program = Arc::new(compiler.compile_vi(&net).expect("zoo network compiles"));
        let inputs = (0..INPUTS_PER_NET)
            .map(|k| {
                let s = mix(seed, 100 + 16 * i as u64 + k as u64);
                (0..program.memory.input_bytes).map(|a| mix(s, a) as u8).collect()
            })
            .collect();
        nets.push(Net { macs: net.total_macs(), program, slot: slot.expect("valid slot"), inputs });
    }
    (nets, t0.elapsed_s())
}

fn engine<B: Func>(seed: u64, nets: &[Net], backend: B) -> Engine<B> {
    let mut engine = Engine::new(cfg(), STRATEGY, backend);
    for net in nets {
        engine.load(net.slot, Arc::clone(&net.program)).expect("slot is idle");
        let image = DdrImage::for_program(&net.program, mix(seed, 1));
        engine.backend_mut().func_mut().install_image(net.slot, image);
    }
    engine
}

/// Runs one frame of `net` on input `k`; returns it with its host time.
fn frame<B: Func>(engine: &mut Engine<B>, net: &Net, k: usize) -> (Frame, f64) {
    let mem = &net.program.memory;
    let image = engine.backend_mut().func_mut().image_mut(net.slot).expect("image installed");
    image.write(mem.input_base, &net.inputs[k]);
    let t0 = Cpu::now();
    engine.request_at(engine.now(), net.slot).expect("slot has a program");
    let done = engine.run_until_complete(u64::MAX).expect("frame runs");
    let host_s = t0.elapsed_s();
    assert!(done, "a requested frame completes");
    let rec = *engine.completed_jobs().last().expect("one job completed");
    assert_eq!(rec.slot, net.slot, "the completed job is the requested frame");
    let mut d = Digest::default();
    let image = engine.backend().func().image(net.slot).expect("image installed");
    d.bytes(image.read(mem.output_base, mem.output_bytes));
    (Frame { cycles: rec.response(), digest: d.0 }, host_s)
}

/// The Tier-0 interpreter's frame for every (net, input), outside any
/// timed phase.
fn oracle(seed: u64, nets: &[Net]) -> Vec<Vec<Frame>> {
    let mut backend = FuncBackend::with_tier(ExecTier::Tier0);
    backend.set_threads(1);
    let mut e = engine(seed, nets, backend);
    nets.iter().map(|n| (0..INPUTS_PER_NET).map(|k| frame(&mut e, n, k).0).collect()).collect()
}

struct Setup<B: Backend> {
    nets: Vec<Net>,
    engine: Engine<B>,
    compile_s: f64,
    total_s: f64,
    warmup: Vec<Frame>,
}

/// Compile, build the engine, and run one warm-up frame of each net (the
/// Tier-1 plans are compiled on first sight).
fn setup<B: Func>(seed: u64, backend: B) -> Setup<B> {
    let t0 = Cpu::now();
    let (nets, compile_s) = compile(seed);
    let mut engine = engine(seed, &nets, backend);
    let warmup = nets.iter().map(|n| frame(&mut engine, n, 0).0).collect();
    Setup { nets, engine, compile_s, total_s: t0.elapsed_s(), warmup }
}

/// Alternates frames until `done(frames so far, seconds elapsed)`.
/// Returns (net index, input, frame, host seconds) per frame.
fn frames<B: Func>(
    s: &mut Setup<B>,
    done: impl Fn(usize, f64) -> bool,
) -> Vec<(usize, usize, Frame, f64)> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while !done(out.len(), t0.elapsed().as_secs_f64()) {
        let (n, k) = (out.len() % 2, (out.len() / 2) % INPUTS_PER_NET);
        let (f, host) = frame(&mut s.engine, &s.nets[n], k);
        out.push((n, k, f, host));
    }
    out
}

/// Counts frames that differ from the oracle.
fn check(out: &mut Outcome, oracle: &[Vec<Frame>], frames: &[(usize, usize, Frame, f64)]) {
    for (i, &(n, k, f, _)) in frames.iter().enumerate() {
        out.attempted += 1;
        if f != oracle[n][k] {
            out.failed += 1;
            out.fail_check(format!(
                "frame {i} (net {n}, input {k}): {f:?} differs from the Tier-0 oracle {:?}",
                oracle[n][k]
            ));
        }
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome { correct: true, ..Outcome::default() };
    if trace {
        run_traced(seed, seconds, &mut out);
        return out;
    }
    // Each set-up replaces the previous one, so only one engine is alive.
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let s = setup(seed, tier1());
        times.push(s.total_s);
        last = Some(s);
    }
    let setup_s = median(&times);
    let mut s = last.expect("at least one set-up");
    let measured = frames(&mut s, |n, t| n >= 2 * MIN_FRAMES && t >= seconds);

    let oracle = oracle(seed, &s.nets);
    let warm: Vec<_> = s.warmup.iter().enumerate().map(|(n, &f)| (n, 0, f, 0.0)).collect();
    check(&mut out, &oracle, &warm);
    check(&mut out, &oracle, &measured);

    let host: f64 = measured.iter().map(|m| m.3).sum();
    let cycles: u64 = measured.iter().map(|m| m.2.cycles).sum();
    let macs: u64 = measured.iter().map(|m| s.nets[m.0].macs).sum();
    let ms = |n: usize| -> Vec<f64> {
        measured.iter().filter(|m| m.0 == n).map(|m| m.3 * 1e3).collect()
    };
    let (resnet, mobilenet) = (ms(0), ms(1));
    let all_cycles: Vec<u64> = measured.iter().map(|m| m.2.cycles).collect();
    out.set("setup_s", setup_s);
    out.set("sim_cycles_per_s", cycles as f64 / host);
    out.set("gmacs_per_s", macs as f64 / host / 1e9);
    out.set("requests_per_s", measured.len() as f64 / host);
    out.set("resnet18.frame_ms_p50", median(&resnet));
    out.set("resnet18.frame_ms_p90", percentile(&resnet, 90));
    out.set("mobilenet.frame_ms_p50", median(&mobilenet));
    out.set("mobilenet.frame_ms_p90", percentile(&mobilenet, 90));
    out.set("peak_rss_mb", peak_rss_mb());
    out.set("failed_ratio", failed_ratio(out.failed, out.attempted));
    out.set("sim_hard_p99_cycles", percentile(&all_cycles, 99) as f64);
    let worst_t2 = s.nets.iter().map(|n| t2_worst(&cfg(), STRATEGY, &n.program)).max();
    out.set("sim_preempt_p99_cycles", worst_t2.unwrap_or(0) as f64);
    let reload: u64 = s.nets.iter().map(|n| reload_penalty(&cfg(), &n.program)).sum();
    out.set("sim_reload_cycles", reload as f64);
    out.notes.push(format!(
        "infer: {} frames ({} resnet18, {} mobilenet) in {host:.2} s of frame time",
        measured.len(),
        resnet.len(),
        mobilenet.len()
    ));
    out
}

/// Untraced frames, then the same frames with the backend wrapper and
/// HostProf on; per-layer figures come from the traced half.
fn run_traced(seed: u64, seconds: f64, out: &mut Outcome) {
    let mut plain = setup(seed, tier1());
    let untraced = frames(&mut plain, |n, t| n >= 2 * MIN_TRACE_FRAMES && t >= seconds / 2.0);
    drop(plain);

    let mut s = setup(seed, Timed { inner: tier1(), ..Timed::default() });
    let warm = s.engine.backend().stats;
    s.engine.backend_mut().stats = Default::default();
    let prof = HostProf::new();
    s.engine.set_host_prof(Some(prof.clone()));
    let before = s.engine.metrics();
    let traced = frames(&mut s, |n, _| n == untraced.len());
    let after = s.engine.metrics();
    let stats = s.engine.backend().stats;

    let oracle = oracle(seed, &s.nets);
    check(out, &oracle, &untraced);
    check(out, &oracle, &traced);
    for (i, (u, t)) in untraced.iter().zip(&traced).enumerate() {
        if u.2 != t.2 {
            out.fail_check(format!("traced frame {i} differs from the untraced run"));
        }
    }

    let host_untraced: f64 = untraced.iter().map(|m| m.3).sum();
    let host: f64 = traced.iter().map(|m| m.3).sum();
    let delta = |key: &str| (after.counter(key) - before.counter(key)) as f64;
    let instrs = delta("engine.instrs.retired");
    out.set("compiler.compile_s", s.compile_s);
    out.set("compiler.instrs", s.nets.iter().map(|n| n.program.instrs.len() as f64).sum());
    out.set("func.span_s", stats.span_ns as f64 / 1e9);
    out.set("func.span_calls", stats.span_calls as f64);
    out.set("func.span_accept_ratio", stats.span_accepted as f64 / stats.span_calls.max(1) as f64);
    out.set("func.step_s", stats.step_ns as f64 / 1e9);
    out.set("func.step_calls", stats.step_calls as f64);
    out.set("func.conv_kxk.gmacs_per_s", stats.gmacs_per_s(Kernel::ConvKxk));
    out.set("func.conv_1x1.gmacs_per_s", stats.gmacs_per_s(Kernel::Conv1x1));
    out.set("func.depthwise.gmacs_per_s", stats.gmacs_per_s(Kernel::Depthwise));
    out.set("func.other_s", stats.kernel_ns[Kernel::Other as usize] as f64 / 1e9);
    out.set("func.plan_warmup_s", warm.total_s());
    out.set("engine.self_s", host - stats.total_s());
    out.set("engine.instrs_retired", instrs);
    out.set("engine.instrs_per_s", instrs / host);
    out.set("engine.step_s", prof.report().stats(HostComponent::EngineStep).host_seconds());
    out.set("engine.interrupts", delta("engine.interrupts.probed"));
    out.set("engine.vi_materialized", delta("engine.instrs.vi_materialized"));
    out.set("trace.overhead_ratio", host / host_untraced);
    out.notes.push(format!(
        "infer traced: {} frames per half, untraced {host_untraced:.2} s, traced {host:.2} s",
        traced.len()
    ));
}
