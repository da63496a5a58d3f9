//! Shared helpers for this crate's unit tests.
//!
//! The test harness runs tests on parallel threads, so a wall-clock
//! comparison can lose its cores to whatever CPU-bound test happens to
//! run beside it. Long CPU-bound tests hold [`cpu_heavy`] while they
//! compute; a timing test holds [`timing_exclusive`], which waits for
//! them to finish and keeps new ones from starting.

use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

static CPU: RwLock<()> = RwLock::new(());

/// Held by a long CPU-bound test; many may run together.
pub(crate) fn cpu_heavy() -> RwLockReadGuard<'static, ()> {
    CPU.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Held by a wall-clock test; excludes every [`cpu_heavy`] holder.
pub(crate) fn timing_exclusive() -> RwLockWriteGuard<'static, ()> {
    CPU.write().unwrap_or_else(|poisoned| poisoned.into_inner())
}
