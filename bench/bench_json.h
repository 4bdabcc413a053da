// Machine-readable companion to the printed bench tables: each harness
// collects (name, wall seconds, optional MatchStats counters) entries into
// a JsonReport, which writes BENCH_<id>.json on destruction — so the perf
// trajectory is trackable across PRs by diffing/plotting the JSON instead
// of scraping tables.
//
// Output directory: $GPM_BENCH_JSON_DIR (default: the working directory).
// Set GPM_BENCH_JSON=0 to disable writing entirely.

#ifndef GPM_BENCH_BENCH_JSON_H_
#define GPM_BENCH_BENCH_JSON_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "matching/strong_simulation.h"

namespace gpm::bench {

class JsonReport {
 public:
  explicit JsonReport(std::string id) : id_(std::move(id)) {}
  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;
  ~JsonReport() { Write(); }

  /// Records one measured point, e.g. Add("amazon/V=3000/match+", 0.12).
  void Add(const std::string& name, double seconds) {
    entries_.push_back({name, seconds, false, {}});
  }

  /// Same, with the MatchStats counters of the run attached.
  void Add(const std::string& name, double seconds, const MatchStats& stats) {
    entries_.push_back({name, seconds, true, stats});
  }

  /// Writes BENCH_<id>.json (idempotent; also called by the destructor).
  /// Returns the path, or "" when disabled or unwritable.
  std::string Write() {
    if (written_) return path_;
    written_ = true;
    const char* toggle = std::getenv("GPM_BENCH_JSON");
    if (toggle != nullptr && std::string(toggle) == "0") return "";
    const char* dir = std::getenv("GPM_BENCH_JSON_DIR");
    path_ = (dir != nullptr && *dir != '\0' ? std::string(dir) + "/"
                                            : std::string()) +
            "BENCH_" + id_ + ".json";
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      path_.clear();
      return "";
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"entries\": [", id_.c_str());
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::fprintf(f, "%s\n    {\"name\": \"%s\", \"seconds\": %.6f",
                   i ? "," : "", e.name.c_str(), e.seconds);
      if (e.has_stats) {
        const MatchStats& s = e.stats;
        std::fprintf(
            f,
            ", \"stats\": {\"balls_considered\": %zu, "
            "\"balls_skipped_filter\": %zu, \"balls_skipped_pruning\": %zu, "
            "\"balls_center_unmatched\": %zu, \"subgraphs_found\": %zu, "
            "\"duplicates_removed\": %zu, \"candidate_pairs_refined\": %zu, "
            "\"global_filter_seconds\": %.6f, \"ball_build_seconds\": %.6f, "
            "\"refine_seconds\": %.6f, \"emit_seconds\": %.6f, "
            "\"total_seconds\": %.6f, "
            "\"seconds_to_first_subgraph\": %.6f, "
            "\"pattern_diameter\": %u, \"minimized_pattern_size\": %zu, "
            "\"filter_cache_hits\": %zu, \"filter_cache_misses\": %zu, "
            "\"result_cache_hits\": %zu, \"result_cache_misses\": %zu, "
            "\"balls_shared\": %zu, \"balls_skipped_index\": %zu, "
            "\"result_served_equivalent\": %zu, "
            "\"filter_seeded_containment\": %zu}",
            s.balls_considered, s.balls_skipped_filter,
            s.balls_skipped_pruning, s.balls_center_unmatched,
            s.subgraphs_found, s.duplicates_removed,
            s.candidate_pairs_refined, s.global_filter_seconds,
            s.ball_build_seconds, s.refine_seconds, s.emit_seconds,
            s.total_seconds, s.seconds_to_first_subgraph,
            s.pattern_diameter, s.minimized_pattern_size,
            s.filter_cache_hits, s.filter_cache_misses, s.result_cache_hits,
            s.result_cache_misses, s.balls_shared, s.balls_skipped_index,
            s.result_served_equivalent,
            s.filter_seeded_containment);
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("[bench-json] wrote %s (%zu entries)\n", path_.c_str(),
                entries_.size());
    return path_;
  }

 private:
  struct Entry {
    std::string name;
    double seconds = 0;
    bool has_stats = false;
    MatchStats stats;
  };

  std::string id_;
  std::vector<Entry> entries_;
  bool written_ = false;
  std::string path_;
};

}  // namespace gpm::bench

#endif  // GPM_BENCH_BENCH_JSON_H_
