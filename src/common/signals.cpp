#include "common/signals.h"

#include <atomic>
#include <csignal>
#include <cstring>

namespace ropus::signals {
namespace {

std::atomic<int> g_signal{0};
std::atomic<bool> g_flush{false};

extern "C" void on_termination(int signo) {
  // Only lock-free atomic stores are async-signal-safe; everything else
  // (flushing, logging, checkpointing) happens at the next poll site.
  g_signal.store(signo, std::memory_order_relaxed);
}

extern "C" void on_flush(int) { g_flush.store(true, std::memory_order_relaxed); }

/// One sigaction wrapper for every handler this file installs: SA_RESTART
/// so a signal landing mid-read() resumes the call (the profiler's SIGPROF
/// fires hundreds of times a second — without SA_RESTART every blocking
/// getline in the daemon would surface EINTR), and an empty mask so
/// handlers stay independent of each other.
void install(int signo, void (*handler)(int)) {
  struct sigaction action;
  std::memset(&action, 0, sizeof action);
  action.sa_handler = handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  ::sigaction(signo, &action, nullptr);
}

}  // namespace

void install_termination_handlers() {
  install(SIGTERM, on_termination);
  install(SIGINT, on_termination);
}

bool termination_requested() {
  return g_signal.load(std::memory_order_relaxed) != 0;
}

void request_termination(int signo) {
  g_signal.store(signo, std::memory_order_relaxed);
}

void install_flush_handler() {
#ifdef SIGUSR1
  install(SIGUSR1, on_flush);
#endif
}

bool consume_flush_request() {
  return g_flush.exchange(false, std::memory_order_relaxed);
}

void install_profile_handler(void (*handler)(int, siginfo_t*, void*)) {
  struct sigaction action;
  std::memset(&action, 0, sizeof action);
  action.sa_sigaction = handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART | SA_SIGINFO;
  ::sigaction(SIGPROF, &action, nullptr);
}

void clear_profile_handler() {
  struct sigaction action;
  std::memset(&action, 0, sizeof action);
  action.sa_handler = SIG_IGN;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  ::sigaction(SIGPROF, &action, nullptr);
}

void reset_for_tests() {
  g_signal.store(0, std::memory_order_relaxed);
  g_flush.store(false, std::memory_order_relaxed);
}

}  // namespace ropus::signals
