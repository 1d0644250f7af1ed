// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Bank example: concurrent money transfers between accounts under three
// synchronization strategies — ASF-TM (hardware transactions), TinySTM, and
// a single global lock. A concurrent auditor transaction repeatedly sums all
// balances; atomicity means it always observes the invariant total.
//
// Demonstrates: composing multiple reads/writes in one atomic block, mixing
// transaction sizes (2-account transfers vs whole-table audits), and the
// throughput gap between the strategies on the same simulated machine.
//
// Build and run:  ./build/examples/bank
#include <cstdio>
#include <memory>

#include "src/common/random.h"
#include "src/harness/run_threads.h"
#include "src/tm/asf_tm.h"
#include "src/tm/serial_tm.h"
#include "src/tm/tiny_stm.h"

namespace {

using asfsim::SimThread;
using asfsim::Task;
using asftm::Tx;

constexpr uint32_t kAccounts = 32;
constexpr uint64_t kInitialBalance = 1000;
constexpr uint32_t kThreads = 8;
constexpr int kOpsPerThread = 300;

struct alignas(64) Account {
  uint64_t balance = 0;
};

struct RunOutcome {
  uint64_t total_balance;
  uint64_t audit_failures;
  double tx_per_us;
  uint64_t aborts;
};

RunOutcome RunBank(const char* runtime_kind) {
  asf::MachineParams params;
  params.num_cores = kThreads;
  params.variant = asf::AsfVariant::Llb256();
  asf::Machine m(params);
  std::unique_ptr<asftm::TmRuntime> rt;
  if (std::string(runtime_kind) == "asf") {
    rt = std::make_unique<asftm::AsfTm>(m);
  } else if (std::string(runtime_kind) == "stm") {
    rt = std::make_unique<asftm::TinyStm>(m);
  } else {
    rt = std::make_unique<asftm::GlobalLockTm>(m);
  }

  auto* accounts = m.arena().NewArray<Account>(kAccounts);
  for (uint32_t i = 0; i < kAccounts; ++i) {
    accounts[i].balance = kInitialBalance;
  }
  m.mem().PretouchPages(reinterpret_cast<uint64_t>(accounts), kAccounts * sizeof(Account));

  uint64_t audit_failures = 0;
  harness::RunThreads(m, kThreads, [&](SimThread& t, uint32_t tid) -> Task<void> {
    asfcommon::Rng rng(900 + tid);
    for (int i = 0; i < kOpsPerThread; ++i) {
      if (tid == 0 && i % 20 == 0) {
        // Auditor: one transaction reads every balance.
        uint64_t sum = 0;
        co_await rt->Atomic(t, [&](Tx& tx) -> Task<void> {
          sum = 0;
          for (uint32_t a = 0; a < kAccounts; ++a) {
            sum += co_await tx.Read(&accounts[a].balance);
          }
        });
        if (sum != kAccounts * kInitialBalance) {
          ++audit_failures;
        }
        continue;
      }
      uint32_t from = static_cast<uint32_t>(rng.NextBelow(kAccounts));
      uint32_t to = static_cast<uint32_t>(rng.NextBelow(kAccounts));
      uint64_t amount = rng.NextInRange(1, 25);
      if (from == to) {
        continue;
      }
      co_await rt->Atomic(t, [&](Tx& tx) -> Task<void> {
        uint64_t f = co_await tx.Read(&accounts[from].balance);
        if (f < amount) {
          co_return;  // Insufficient funds: commit without effect.
        }
        uint64_t v = co_await tx.Read(&accounts[to].balance);
        co_await tx.Write(&accounts[from].balance, f - amount);
        co_await tx.Write(&accounts[to].balance, v + amount);
      });
    }
  });

  RunOutcome out{};
  for (uint32_t a = 0; a < kAccounts; ++a) {
    out.total_balance += accounts[a].balance;
  }
  out.audit_failures = audit_failures;
  asftm::TxStats stats = rt->TotalStats();
  out.aborts = stats.TotalAborts();
  out.tx_per_us = static_cast<double>(stats.Commits()) * 2200.0 /
                  static_cast<double>(m.scheduler().MaxCycle());
  return out;
}

}  // namespace

int main() {
  std::printf("Bank example: %u threads, %u accounts, invariant total = %lu\n\n", kThreads,
              kAccounts, static_cast<uint64_t>(kAccounts) * kInitialBalance);
  // Atomicity: the total is conserved and no audit saw another total.
  bool atomic = true;
  for (const char* kind : {"asf", "stm", "lock"}) {
    RunOutcome r = RunBank(kind);
    const bool ok = r.total_balance == kAccounts * kInitialBalance;
    atomic = atomic && ok && r.audit_failures == 0;
    std::printf("%-12s total=%lu (%s)  audit-failures=%lu  throughput=%.2f tx/us  aborts=%lu\n",
                kind, r.total_balance, ok ? "conserved" : "VIOLATED", r.audit_failures,
                r.tx_per_us, r.aborts);
  }
  return atomic ? 0 : 1;
}
