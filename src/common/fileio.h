#ifndef FAIRGEN_COMMON_FILEIO_H_
#define FAIRGEN_COMMON_FILEIO_H_

#include <cstddef>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace fairgen {

/// \brief Writes `bytes` to `path` atomically and durably: the bytes go
/// to `<path>.tmp` first, are fsync(2)ed, and the temp file is
/// `rename(2)`d over `path`. A concurrent reader (tail, scrape
/// collector, a resume after SIGKILL) never observes a torn file, and a
/// failed write never leaves a partial file at the final path — at worst
/// a stale `<path>.tmp`, which the next successful write replaces.
///
/// This is the write contract shared by the telemetry snapshots
/// (snapshot.json / metrics.prom), the profiler artifacts and the
/// training checkpoints. It runs WriteFileAtomicSignalSafe, so there is
/// one implementation of the steps.
Status WriteFileAtomic(const std::string& path, const std::string& bytes);

/// \brief WriteFileAtomic for a signal handler: the same steps through
/// async-signal-safe system calls only, with the temp path supplied
/// (`path` + ".tmp" by convention), so nothing allocates. A handler that
/// interrupted malloc would otherwise deadlock on the allocator's lock.
/// Returns false on any failure; errno is preserved.
bool WriteFileAtomicSignalSafe(const char* path, const char* tmp_path,
                               const char* data, size_t size);

/// \brief Reads the whole file into a string (binary-exact).
Result<std::string> ReadFileToString(const std::string& path);

/// \brief True iff a regular file (or directory) exists at `path`.
bool PathExists(const std::string& path);

/// \brief Creates `path` and any missing parents (like `mkdir -p`).
Status MakeDirectories(const std::string& path);

}  // namespace fairgen

#endif  // FAIRGEN_COMMON_FILEIO_H_
