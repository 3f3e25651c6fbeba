//! A backend wrapper that times the engine's calls into the `func` layer
//! from outside it and counts their outcomes.

use std::ops::Range;

use inca_accel::{Backend, FuncBackend, Program, SimError, TaskSlot};
use inca_isa::{Instr, LayerKind};

use crate::report::Cpu;

/// Kernel families a Tier-1 span runs through: k×k convolutions use
/// `conv_channel`, pointwise convolutions the blocked micro-kernel,
/// depthwise convolutions `dw_channel`; pooling, joins and FC are "other".
#[derive(Debug, Clone, Copy)]
pub enum Kernel {
    ConvKxk = 0,
    Conv1x1 = 1,
    Depthwise = 2,
    Other = 3,
}

impl Kernel {
    fn of(kind: &LayerKind) -> Self {
        match kind {
            LayerKind::Conv { kernel: 1, .. } => Kernel::Conv1x1,
            LayerKind::Conv { .. } => Kernel::ConvKxk,
            LayerKind::DwConv { .. } => Kernel::Depthwise,
            _ => Kernel::Other,
        }
    }
}

/// Host time and outcome counts of the calls the engine made.
#[derive(Debug, Clone, Copy, Default)]
pub struct BackendStats {
    pub step_ns: u64,
    pub step_calls: u64,
    pub span_ns: u64,
    pub span_calls: u64,
    pub span_accepted: u64,
    /// Host time of accepted spans, by [`Kernel`].
    pub kernel_ns: [u64; 4],
    /// MACs of accepted spans, by [`Kernel`].
    pub kernel_macs: [u64; 4],
}

impl BackendStats {
    /// Host seconds spent inside the backend.
    pub fn total_s(&self) -> f64 {
        (self.step_ns + self.span_ns) as f64 / 1e9
    }

    /// GMAC per host second of accepted spans of `kernel` (0 when none ran).
    pub fn gmacs_per_s(&self, kernel: Kernel) -> f64 {
        let ns = self.kernel_ns[kernel as usize];
        if ns == 0 {
            0.0
        } else {
            self.kernel_macs[kernel as usize] as f64 / ns as f64
        }
    }
}

/// Forwards every call to `inner`, timing `execute` and `execute_span`.
#[derive(Debug, Default)]
pub struct Timed<B> {
    pub inner: B,
    pub stats: BackendStats,
}

impl<B: Backend> Backend for Timed<B> {
    fn execute(
        &mut self,
        slot: TaskSlot,
        program: &Program,
        instr: &Instr,
    ) -> Result<(), SimError> {
        let t0 = Cpu::now();
        let result = self.inner.execute(slot, program, instr);
        self.stats.step_ns += t0.elapsed_ns();
        self.stats.step_calls += 1;
        result
    }

    fn on_switch(&mut self, slot: TaskSlot) {
        self.inner.on_switch(slot);
    }

    fn on_load(&mut self, slot: TaskSlot) {
        self.inner.on_load(slot);
    }

    fn snapshot(&mut self, slot: TaskSlot) {
        self.inner.snapshot(slot);
    }

    fn restore(&mut self, slot: TaskSlot) -> Result<(), SimError> {
        self.inner.restore(slot)
    }

    fn rebind(&mut self, slot: TaskSlot, ctx: u64) -> Result<(), SimError> {
        self.inner.rebind(slot, ctx)
    }

    fn supports_spans(&self) -> bool {
        self.inner.supports_spans()
    }

    fn execute_span(
        &mut self,
        slot: TaskSlot,
        program: &Program,
        span: Range<usize>,
        input_offset: u64,
        output_offset: u64,
    ) -> Result<bool, SimError> {
        let meta = program.layer_of(&program.instrs[span.start]);
        let t0 = Cpu::now();
        let result = self.inner.execute_span(slot, program, span, input_offset, output_offset);
        let ns = t0.elapsed_ns();
        self.stats.span_ns += ns;
        self.stats.span_calls += 1;
        if let Ok(true) = result {
            let k = Kernel::of(&meta.kind) as usize;
            self.stats.span_accepted += 1;
            self.stats.kernel_ns[k] += ns;
            self.stats.kernel_macs[k] += meta.macs();
        }
        result
    }
}

/// Access to the functional backend under an optional [`Timed`] wrapper,
/// for installing inputs and reading outputs.
pub trait Func: Backend {
    fn func(&self) -> &FuncBackend;
    fn func_mut(&mut self) -> &mut FuncBackend;
}

impl Func for FuncBackend {
    fn func(&self) -> &FuncBackend {
        self
    }

    fn func_mut(&mut self) -> &mut FuncBackend {
        self
    }
}

impl Func for Timed<FuncBackend> {
    fn func(&self) -> &FuncBackend {
        &self.inner
    }

    fn func_mut(&mut self) -> &mut FuncBackend {
        &mut self.inner
    }
}
