#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # superpin-vm
//!
//! The operating-system substrate for the SuperPin reproduction: everything
//! the original system obtained from Linux, rebuilt as a deterministic
//! library.
//!
//! * [`mem`] — paged virtual address spaces with genuine copy-on-write
//!   sharing. [`mem::AddressSpace::fork`] clones a space in O(mapped
//!   pages) by sharing page frames; the first write to a shared page takes
//!   a counted COW fault and copies it, exactly the cost SuperPin's fork
//!   overhead analysis reasons about (paper §6.3).
//! * [`cpu`] — the interpreter core executing `superpin-isa` instructions
//!   fetched from guest memory through one `match`-based dispatcher,
//!   [`cpu::exec_decoded`].
//! * [`decode`] — per-page pre-decoded instruction streams keyed on the
//!   code-page generation, so each instruction is decoded once rather
//!   than once per execution; self-modifying code invalidates the cache
//!   through the same `code_version` channel the DBI engine uses.
//! * [`kernel`] — an emulated kernel: `exit`, `write`, `read`, `open`,
//!   `close`, `brk`, `mmap`, `munmap`, `gettime`, `getpid`, `getrandom`.
//!   Every syscall execution produces a [`kernel::SyscallRecord`]
//!   capturing its register result and memory side effects, which is what
//!   makes SuperPin's record-and-playback mechanism (paper §4.2) possible.
//! * [`process`] — a process = CPU state + address space + kernel state;
//!   supports `fork`.
//! * [`ptrace`] — run-until-event control of a process, mirroring how the
//!   SuperPin control process supervises the master application.
//!
//! # Example
//!
//! ```
//! use superpin_isa::asm::assemble;
//! use superpin_vm::process::{Process, RunExit};
//!
//! let program = assemble(
//!     "main:\n  li r1, 41\n  addi r1, r1, 1\n  exit 0\n",
//! )?;
//! let mut process = Process::load(1, &program)?;
//! let exit = process.run(u64::MAX, 0)?;
//! assert!(matches!(exit, RunExit::Exited(0)));
//! assert_eq!(process.inst_count(), 5); // li + addi + (li,li,syscall) of exit
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod cpu;
pub mod decode;
pub mod kernel;
pub mod mem;
pub mod process;
pub mod ptrace;

mod error;

pub use error::VmError;
