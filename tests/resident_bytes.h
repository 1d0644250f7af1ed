// Copyright (c) 2026 The asf-tm-stack Authors. All rights reserved.
// Test helper: how much of a host address range is populated (resident).
#ifndef TESTS_RESIDENT_BYTES_H_
#define TESTS_RESIDENT_BYTES_H_

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace asftest {

// Bytes of the host pages overlapping [p, p + bytes) that are resident,
// via mincore. Reading untouched anonymous memory may map the shared zero
// page, so measure before reading.
inline uint64_t ResidentBytes(const void* p, uint64_t bytes) {
  const uint64_t page = static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
  const uint64_t first = reinterpret_cast<uint64_t>(p) & ~(page - 1);
  const uint64_t end = (reinterpret_cast<uint64_t>(p) + bytes + page - 1) & ~(page - 1);
  std::vector<unsigned char> in_core((end - first) / page);
  EXPECT_EQ(mincore(reinterpret_cast<void*>(first), end - first, in_core.data()), 0);
  uint64_t resident = 0;
  for (unsigned char c : in_core) {
    resident += c & 1;
  }
  return resident * page;
}

}  // namespace asftest

#endif  // TESTS_RESIDENT_BYTES_H_
