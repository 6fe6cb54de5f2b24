#include "host_speed.h"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <map>
#include <unordered_map>

#include "trace.h"

namespace perfbench {
namespace {

constexpr int kChurnSteps = 60000;
constexpr uint64_t kChurnKeys = 4096;         // a tree of about 2,000 nodes
constexpr uint64_t kTableEntries = 200000;    // about 10 MiB of buckets and nodes
constexpr uint64_t kKeySpread = 2654435761u;  // keys are spread over 64 bits
constexpr int kLookups = 100000;

uint64_t XorShift(uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

double ChurnNs() {
  std::map<uint64_t, uint64_t> tree;
  uint64_t x = 1;
  const uint64_t start = NowNs();
  for (int step = 0; step < kChurnSteps; ++step) {
    XorShift(x);
    tree[x % kChurnKeys] = static_cast<uint64_t>(step);
    if (step % 2 != 0) {
      tree.erase((x >> 12) % kChurnKeys);
    }
  }
  return static_cast<double>(NowNs() - start) / kChurnSteps;
}

double LookupNs(const std::unordered_map<uint64_t, uint64_t>& table) {
  uint64_t x = 7;
  uint64_t sum = 0;
  const uint64_t start = NowNs();
  for (int i = 0; i < kLookups; ++i) {
    XorShift(x);
    sum += table.find((x % kTableEntries) * kKeySpread)->second;
  }
  const uint64_t end = NowNs();
  volatile uint64_t sink = sum;
  (void)sink;
  return static_cast<double>(end - start) / kLookups;
}

bool ReadAll(int fd, void* buf, size_t size) {
  char* p = static_cast<char*>(buf);
  while (size > 0) {
    const ssize_t n = read(fd, p, size);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

bool WriteAll(int fd, const void* buf, size_t size) {
  const char* p = static_cast<const char*>(buf);
  while (size > 0) {
    const ssize_t n = write(fd, p, size);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    p += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

// The helper: runs the kernel once per request byte until the request pipe
// closes, or the benchmark process dies.
[[noreturn]] void Serve(pid_t parent, int request_fd, int reply_fd) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() != parent) {
    _exit(0);
  }
  std::unordered_map<uint64_t, uint64_t> table;
  for (uint64_t i = 0; i < kTableEntries; ++i) {
    table[i * kKeySpread] = i;
  }
  char request;
  while (ReadAll(request_fd, &request, 1)) {
    const double ns = std::sqrt(ChurnNs() * LookupNs(table));
    if (!WriteAll(reply_fd, &ns, sizeof(ns))) {
      break;
    }
  }
  _exit(0);
}

}  // namespace

HostSpeed::HostSpeed() {
  // A helper that died must show as a failed measurement, not kill the
  // benchmark with SIGPIPE.
  signal(SIGPIPE, SIG_IGN);
  int request[2];
  int reply[2];
  if (pipe(request) != 0) {
    return;
  }
  if (pipe(reply) != 0) {
    close(request[0]);
    close(request[1]);
    return;
  }
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid == 0) {
    close(request[1]);
    close(reply[0]);
    Serve(parent, request[0], reply[1]);
  }
  close(request[0]);
  close(reply[1]);
  if (pid < 0) {
    close(request[1]);
    close(reply[0]);
    return;
  }
  pid_ = pid;
  request_fd_ = request[1];
  reply_fd_ = reply[0];
}

HostSpeed::~HostSpeed() {
  if (pid_ <= 0) {
    return;
  }
  close(request_fd_);
  close(reply_fd_);
  while (waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
  }
}

double HostSpeed::MeasureNs() {
  const char request = 1;
  double ns = -1;
  if (!ok() || !WriteAll(request_fd_, &request, 1) || !ReadAll(reply_fd_, &ns, sizeof(ns))) {
    return -1;
  }
  return ns;
}

}  // namespace perfbench
