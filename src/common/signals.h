// Cooperative termination: a process-wide flag set by SIGTERM/SIGINT so
// long-running commands (faultsim campaigns, report replay, the serve
// daemon) can stop at the next safe point, flush their artifacts
// (--record-out, --metrics-out, checkpoints) and exit cleanly instead of
// losing them. The handler only stores into lock-free atomics —
// async-signal-safe by construction — and leaves all real work to the
// polling thread.
//
// This file owns *every* signal disposition the process installs —
// SIGTERM/SIGINT termination, the SIGUSR1 flush, and the sampling
// profiler's SIGPROF — so no subsystem can clobber another's handler:
// each signal has exactly one registration site, and all of them go
// through sigaction with SA_RESTART so an interrupted read()/getline()
// resumes instead of surfacing a spurious EINTR into the daemon loops.
#pragma once

#include <csignal>

namespace ropus::signals {

/// Installs SIGTERM/SIGINT handlers that set the termination flag.
/// Idempotent; safe to call from every command entry point.
void install_termination_handlers();

/// True once SIGTERM or SIGINT has been delivered (or request_termination
/// was called). Cheap enough to poll per trial / per slot.
bool termination_requested();

/// Sets the flag programmatically — tests use this in place of a real
/// signal.
void request_termination(int signo);

/// Installs a SIGUSR1 handler that sets the flush flag: a request to
/// rewrite observability artifacts (--metrics-out, the manifest) now,
/// without terminating. Idempotent. No-op on platforms without SIGUSR1.
void install_flush_handler();

/// Consumes one pending flush request: true exactly once per delivered
/// SIGUSR1.
bool consume_flush_request();

/// Installs `handler` as the process SIGPROF action (SA_SIGINFO |
/// SA_RESTART). Owned here, next to the termination and flush handlers,
/// so the profiler's registration cannot race or replace theirs. The
/// handler must be async-signal-safe; the sampling profiler's is (it only
/// touches thread-local rings and lock-free atomics). Passing the same
/// handler twice is idempotent; passing a different one replaces it.
void install_profile_handler(void (*handler)(int, siginfo_t*, void*));

/// Replaces the SIGPROF handler with SIG_IGN (not SIG_DFL: a straggler
/// tick from a timer disarmed a microsecond ago must not kill the
/// process).
void clear_profile_handler();

/// Clears the flag so one test's simulated signal does not leak into the
/// next. Not for production paths.
void reset_for_tests();

}  // namespace ropus::signals
