#include "src/kern/objects.h"

namespace fluke {

const char* ThreadRunName(ThreadRun s) {
  switch (s) {
    case ThreadRun::kEmbryo:
      return "embryo";
    case ThreadRun::kRunnable:
      return "runnable";
    case ThreadRun::kRunning:
      return "running";
    case ThreadRun::kBlocked:
      return "blocked";
    case ThreadRun::kStopped:
      return "stopped";
    case ThreadRun::kDead:
      return "dead";
  }
  return "?";
}

}  // namespace fluke
