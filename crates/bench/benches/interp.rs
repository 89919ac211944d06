//! Interpreter hot-path micro-benchmark: **decode-once vs
//! decode-per-step** — the per-page [`DecodeCache`] against a loop that
//! re-decodes every instruction through [`cpu::fetch_at`] on every
//! execution, both executing through [`cpu::exec_decoded`].
//!
//! Both variants execute the same ~20k-instruction countdown loop and
//! are cross-checked to retire the same instruction count.

use criterion::{criterion_group, criterion_main, Criterion};
use superpin_isa::Inst;
use superpin_vm::cpu::{self, CpuState, ExecOutcome};
use superpin_vm::decode::DecodeCache;
use superpin_vm::mem::AddressSpace;
use superpin_vm::process::Process;
use superpin_vm::VmError;

/// Runs until halt, decoding every step through the given fetcher;
/// returns instructions retired.
fn run_loop(
    cpu: &mut CpuState,
    mem: &mut AddressSpace,
    mut fetch: impl FnMut(&AddressSpace, u64) -> Result<(Inst, u64), VmError>,
) -> u64 {
    let mut retired = 0u64;
    loop {
        let (inst, size) = fetch(mem, cpu.pc).expect("fetch");
        match cpu::exec_decoded(cpu, mem, inst, size).expect("exec") {
            ExecOutcome::Next | ExecOutcome::Jumped => retired += 1,
            ExecOutcome::Syscall | ExecOutcome::Halt => break retired,
        }
    }
}

fn bench(c: &mut Criterion) {
    let src = "main:\n li r1, 10000\nloop:\n subi r1, r1, 1\n bne r1, r0, loop\n halt\n";
    let program = superpin_isa::asm::assemble(src).expect("assemble");
    let process = Process::load(1, &program).expect("load");
    let entry = process.cpu.pc;
    let mut mem = process.mem;

    // Reference count from the never-cached loop.
    let mut cpu_state = CpuState::at(entry);
    let expected = run_loop(&mut cpu_state, &mut mem, cpu::fetch_at);
    assert_eq!(expected, 20_001, "li + 10000 x (subi, bne)");

    let mut group = c.benchmark_group("interp");
    group.sample_size(20);

    // Decode-per-step: the pre-decode-cache interpreter shape.
    group.bench_function("decode_per_step_20k", |b| {
        b.iter(|| {
            let mut cpu_state = CpuState::at(entry);
            let retired = run_loop(&mut cpu_state, &mut mem, cpu::fetch_at);
            assert_eq!(retired, expected);
        })
    });

    // Decode-once: same loop through a persistent decode cache, so the
    // steady state is an array read per instruction.
    let mut cache = DecodeCache::new();
    group.bench_function("decode_once_20k", |b| {
        b.iter(|| {
            let mut cpu_state = CpuState::at(entry);
            let retired = run_loop(&mut cpu_state, &mut mem, |mem, pc| cache.fetch(mem, pc));
            assert_eq!(retired, expected);
        })
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
