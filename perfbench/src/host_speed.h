// The host's speed, measured between rounds by a fixed reference kernel.
//
// On a shared virtual machine the same round runs up to twice as slow while
// the rest of the host is busy (lower clock, slower cache and memory), in
// spells of seconds to minutes that come and go between and within runs.
// Every op of every workload slows alike, so timings taken at different times
// differ by the host's state more than by anything a change to the program
// does.  The reference kernel is sensitive to the host in the same way and
// does not depend on the program: a tree churning through inserts and erases
// (allocation, pointer chasing, unpredictable branches) and lookups in a hash
// table several times the size of a core's L2 cache.  Its time per step, the
// geometric mean of the two, is the host's speed at that moment.
//
// The kernel runs in a helper process forked before the first round, so it
// shares neither heap nor resident set with the workload: a change to the
// program's allocations cannot move it, and peak RSS stays the workload's.
#ifndef PERFBENCH_SRC_HOST_SPEED_H_
#define PERFBENCH_SRC_HOST_SPEED_H_

#include <sys/types.h>

namespace perfbench {

// The reference kernel's time per step on the quiet host the benchmark was
// built on (4-CPU Intel Xeon KVM guest, no other load).  Timings are scaled to
// a host on which the kernel takes this long.
constexpr double kReferenceQuietNs = 70.0;

class HostSpeed {
 public:
  // Forks the helper process.  ok() is false when that failed.
  HostSpeed();
  // Closes the helper's request pipe and waits for it to exit.
  ~HostSpeed();
  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  bool ok() const { return pid_ > 0; }

  // Runs the reference kernel once in the helper (the caller blocks
  // meanwhile) and returns its time per step in ns, or a negative value when
  // the helper is gone.
  double MeasureNs();

 private:
  pid_t pid_ = -1;
  int request_fd_ = -1;
  int reply_fd_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HOST_SPEED_H_
