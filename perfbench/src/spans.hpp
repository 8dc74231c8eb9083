// The traced run's span ledger: every span kept in memory with its
// parent and the batch it served, written out as Chrome trace-event JSON
// when the run ends (chrome://tracing or ui.perfetto.dev load it).
#ifndef PERFBENCH_SPANS_HPP_
#define PERFBENCH_SPANS_HPP_

#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t batch = 0;   ///< shared by every span of one batch
  int tid = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

/// Writes `spans` to `dir`/`file`; returns false when the file cannot be
/// written (the run still reports its metrics).
inline bool write_spans(const std::string& dir, const std::string& file,
                        const std::vector<SpanRecord>& spans) {
  ::mkdir(dir.c_str(), 0755);
  const std::string path = dir + "/" + file;
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(out,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                 "\"parent\": %llu, \"batch\": %llu}}%s\n",
                 s.name.c_str(), s.tid, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.batch),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_HPP_
