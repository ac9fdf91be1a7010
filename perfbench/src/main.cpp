// perfbench: the repository's benchmark. Runs one workload on a 3-node,
// R=2 CloudSystem over the paper's 512-bit curve and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--source-digest <sha256>]
//
// --trace 0: end-to-end metrics from an untraced timed phase (set-up is
// repeated three times and its median reported). --trace 1: per-layer
// metrics from a traced phase that follows an untraced one, plus kernel
// unit times. Times are scaled to the speed probe's reference speed
// (probe.h); the measured values are printed as "raw.<metric>". The last stdout line is one JSON object; perfbench/run.py
// builds this program and reduces that line to the metrics
// BENCHMARK.json lists.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "driver.h"
#include "kernels.h"
#include "telemetry/trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace maabe::perfbench {
namespace {

struct Metric {
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
  double percentile = -1;  ///< tails only
};
using Metrics = std::map<std::string, Metric>;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string host_json(const Args& a, const pairing::Group& grp) {
  const char* env_threads = std::getenv("MAABE_THREADS");
  std::ostringstream o;
  o << "{\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"cpu_model\": " << json_str(cpu_model())
    << ", \"engine_threads\": " << engine::CryptoEngine::for_group(grp).threads()
    << ", \"MAABE_THREADS\": " << json_str(env_threads ? env_threads : "unset")
    << ", \"curve\": \"pbc_a512\", \"build_type\": " << json_str(PERFBENCH_BUILD_TYPE)
    << ", \"workload\": " << json_str(a.workload) << ", \"seed\": " << a.seed
    << ", \"seconds\": " << json_num(a.seconds) << ", \"trace\": " << (a.trace ? 1 : 0)
    << ", \"commit\": " << json_str(a.commit)
    << ", \"source_digest\": " << json_str(a.source_digest) << "}";
  return o.str();
}

/// Counter reconciliation: the per-window CryptoEngine::stats() and
/// ChannelMeter deltas, summed over a phase, must equal the registry's
/// deltas over the same phase. Returns one message per mismatch.
std::vector<std::string> reconcile(const PhaseResult& p, const char* phase) {
  Counters sum = p.op_counters();
  sum += p.maintenance;
  const auto delta = [&](const char* name) {
    return p.after.counter(name) - p.before.counter(name);
  };
  const std::pair<const char*, uint64_t> checks[] = {
      {"maabe_engine_pairings_total", sum.engine.pairings},
      {"maabe_engine_g1_exps_total", sum.engine.g1_exps},
      {"maabe_engine_gt_exps_total", sum.engine.gt_exps},
      {"maabe_engine_miller_loops_total", sum.engine.miller_loops},
      {"maabe_engine_final_exps_total", sum.engine.final_exps},
      {"maabe_engine_batches_total", sum.engine.batches},
      {"maabe_engine_tasks_total", sum.engine.tasks},
      {"maabe_engine_table_builds_total", sum.engine.table_builds},
      {"maabe_engine_table_hits_total", sum.engine.table_hits},
      {"maabe_engine_precomp_builds_total", sum.engine.precomp_builds},
      {"maabe_engine_precomp_hits_total", sum.engine.precomp_hits},
      {"maabe_engine_batch_wall_ns_total", sum.engine.wall_ns},
      {"maabe_transport_frame_bytes_total", sum.meter_frame_bytes},
  };
  std::vector<std::string> out;
  for (const auto& [name, summed] : checks) {
    if (delta(name) != summed) {
      out.push_back(std::string(phase) + ": per-op sum " + std::to_string(summed) +
                    " != registry delta " + std::to_string(delta(name)) + " for " + name);
    }
  }
  return out;
}

/// Latency metrics of every op class: p50 always, the tail when the
/// class has enough samples. Scaled to the probe's reference speed; the
/// measured values go under "raw.<name>".
void latency_metrics(const PhaseResult& p, Metrics& m) {
  for (size_t c = 0; c < kOpClasses; ++c) {
    for (const bool raw : {false, true}) {
      const std::vector<double>& lat = raw ? p.cls[c].raw_latencies_ms : p.cls[c].latencies_ms;
      if (lat.empty()) continue;
      const std::string name = std::string(raw ? "raw." : "") + op_class_name(c);
      m[name + "_p50_ms"] = {median(lat), "ms", lat.size()};
      const Tail t = tail(lat);
      if (t.present) m[name + "_tail_ms"] = {t.value, "ms", lat.size(), t.percentile};
    }
  }
}

/// Ops per second of a phase at the probe's reference speed.
double scaled_ops_per_s(const PhaseResult& p) {
  return static_cast<double>(p.attempted()) / (p.wall_s * p.scale);
}

Metrics end_to_end(const Args& a, const WorkloadSpec& spec,
                   const std::shared_ptr<const pairing::Group>& grp, uint64_t* attempted,
                   uint64_t* failed, bool* correct, std::string* fingerprint) {
  // Set-up three times on independent program seeds; the last world
  // runs the timed phase.
  SpeedProbe probe;
  std::vector<double> setup_s, raw_setup_s;
  std::unique_ptr<World> world;
  for (int rep = 0; rep < 3; ++rep) {
    world.reset();
    world = std::make_unique<World>(grp, spec, a.seed, rep, probe);
    probe.sample();
    const double t0 = probe.now();
    world->setup();
    const double t1 = probe.now();
    probe.sample();
    const double raw = t1 - t0 - probe.cost(t0, t1);
    raw_setup_s.push_back(raw);
    setup_s.push_back(raw * probe.factor(t0, t1));
    std::printf("# setup %d: %.4f s (raw %.4f s)\n", rep, setup_s.back(), raw);
  }
  const PhaseResult p = world->run_phase(a.seconds, false);
  const uint64_t violated = world->check_revocations();
  const std::vector<std::string> mismatches = reconcile(p, "timed phase");
  for (const std::string& s : mismatches) std::fprintf(stderr, "perfbench: ERROR %s\n", s.c_str());

  *attempted = p.attempted();
  *failed = p.failed() + violated;
  *correct = mismatches.empty() && world->wrong_outputs() == 0;
  *fingerprint = p.fingerprint;

  const double ops = static_cast<double>(*attempted);
  Metrics m;
  m["setup_s"] = {median(setup_s), "s", setup_s.size()};
  m["raw.setup_s"] = {median(raw_setup_s), "s", raw_setup_s.size()};
  m["ops_per_s"] = {scaled_ops_per_s(p), "1/s", *attempted};
  m["raw.ops_per_s"] = {ops / p.wall_s, "1/s", *attempted};
  latency_metrics(p, m);
  m["failed_op_ratio"] = {ratio(static_cast<double>(*failed), ops), "ratio", *attempted};
  m["cpu_ms_per_op"] = {p.cpu_s * p.scale * 1000 / ops, "ms", *attempted};
  m["raw.cpu_ms_per_op"] = {p.cpu_s * 1000 / ops, "ms", *attempted};
  m["wire_bytes_per_op"] = {
      static_cast<double>(p.after.counter("maabe_transport_frame_bytes_total") -
                          p.before.counter("maabe_transport_frame_bytes_total")) / ops,
      "B", *attempted};
  m["stored_bytes_per_user_byte"] = {world->stored_bytes_per_user_byte(), "ratio", 1};
  m["peak_rss_mib"] = {peak_rss_mib(), "MiB", 1};
  return m;
}

Metrics per_layer(const Args& a, const WorkloadSpec& spec,
                  const std::shared_ptr<const pairing::Group>& grp, uint64_t* attempted,
                  uint64_t* failed, bool* correct, std::vector<std::string>* fold_lines) {
  SpeedProbe probe;
  World world(grp, spec, a.seed, 0, probe);
  world.setup();
  const PhaseResult plain = world.run_phase(a.seconds, false);

  std::mutex mu;
  std::vector<SpanRec> spans;
  telemetry::Tracer& tracer = telemetry::Tracer::global();
  tracer.enable([&](const telemetry::SpanRecord& r) {
    std::lock_guard<std::mutex> lock(mu);
    spans.push_back({r.span_id, r.parent_id, r.name, r.start_ns, r.end_ns});
  });
  const PhaseResult t = world.run_phase(a.seconds, true);
  tracer.disable();

  const uint64_t violated = world.check_revocations();
  std::vector<std::string> mismatches = reconcile(plain, "untraced phase");
  for (const std::string& s : reconcile(t, "traced phase")) mismatches.push_back(s);
  for (const std::string& s : mismatches) std::fprintf(stderr, "perfbench: ERROR %s\n", s.c_str());
  *attempted = plain.attempted() + t.attempted();
  *failed = plain.failed() + t.failed() + violated;
  *correct = mismatches.empty() && world.wrong_outputs() == 0;

  const Fold fold = [&] {
    std::lock_guard<std::mutex> lock(mu);
    return fold_spans(spans, "bench.");
  }();
  const double ops = static_cast<double>(t.attempted());
  const uint64_t n = t.attempted();
  Counters all = t.op_counters();
  all += t.maintenance;
  const auto reg = [&](RegCounter c) { return static_cast<double>(all.reg[c]); };
  // Span times are scaled like every other time, by the traced phase's
  // probe scale.
  const auto self_ms = [&](const std::string& span) {
    const auto it = fold.rows.find(span);
    return it == fold.rows.end() ? 0.0 : it->second.self_ms * t.scale / ops;
  };

  Metrics m;
  for (const auto& [name, k] : measure_kernels(*grp, spec, a.seed, probe))
    m[name] = {k.value, k.unit, k.samples};

  // engine: op counts and batch time per op of each class.
  for (size_t c = 0; c < kOpClasses; ++c) {
    const ClassStats& cs = t.cls[c];
    const std::string cls = op_class_name(c);
    const double per = static_cast<double>(cs.attempted);
    const engine::EngineStats& e = cs.counters.engine;
    m["engine.pairings_per_op." + cls] = {ratio(e.pairings, per), "count", cs.attempted};
    m["engine.final_exps_per_op." + cls] = {ratio(e.final_exps, per), "count", cs.attempted};
    m["engine.g1_exps_per_op." + cls] = {ratio(e.g1_exps, per), "count", cs.attempted};
    m["engine.gt_exps_per_op." + cls] = {ratio(e.gt_exps, per), "count", cs.attempted};
    m["engine.table_builds_per_op." + cls] = {ratio(e.table_builds, per), "count", cs.attempted};
    m["engine.batch_ms_per_op." + cls] = {ratio(e.wall_ms() * t.scale, per), "ms", cs.attempted};
    const auto it = fold.rows.find("bench." + cls);
    m["bench." + cls + ".self_ms"] = {
        it == fold.rows.end() ? 0.0 : ratio(it->second.self_ms * t.scale, per), "ms/op",
        cs.attempted};
  }
  m["engine.table_hit_ratio"] = {
      ratio(all.engine.table_hits, all.engine.table_hits + all.engine.table_builds), "ratio", n};
  m["engine.precomp_hit_ratio"] = {
      ratio(all.engine.precomp_hits, all.engine.precomp_hits + all.engine.precomp_builds),
      "ratio", n};
  m["process.cores_busy"] = {plain.cpu_s / plain.wall_s, "cores", plain.attempted()};

  // server / cluster epochs.
  const double revokes = static_cast<double>(t.cls[kRevoke].attempted);
  m["server.reencrypt_stage.self_ms"] = {self_ms("server.reencrypt_stage"), "ms/op", n};
  m["server.reencrypt_epoch.self_ms"] = {self_ms("server.reencrypt_epoch"), "ms/op", n};
  m["cluster.epoch_2pc.self_ms"] = {self_ms("cluster.epoch_2pc"), "ms/op", n};
  m["server.reencrypted_slots_per_revoke"] = {ratio(reg(kReencryptedSlots), revokes), "count",
                                              t.cls[kRevoke].attempted};
  m["cluster.epoch_commit_ratio"] = {ratio(reg(kEpochCommits), reg(kEpochs2pc)), "ratio",
                                     all.reg[kEpochs2pc]};
  m["cluster.epoch_aborts_per_revoke"] = {ratio(reg(kEpochAborts), revokes), "count",
                                          t.cls[kRevoke].attempted};

  // entities: the consumer decrypt cache.
  m["entities.decrypt_cache_hit_ratio"] = {
      ratio(reg(kCacheHits), reg(kCacheHits) + reg(kCacheMisses)), "ratio",
      all.reg[kCacheHits] + all.reg[kCacheMisses]};

  // transport and quorum reads.
  m["transport.frames_per_op"] = {reg(kFrames) / ops, "count", n};
  m["transport.frame_bytes_per_op"] = {reg(kFrameBytes) / ops, "B", n};
  m["transport.retries_per_op"] = {reg(kRetries) / ops, "count", n};
  m["transport.frame.self_ms"] = {self_ms("transport.frame"), "ms/op", n};
  m["cluster.quorum_reads_per_op"] = {reg(kQuorumReads) / ops, "count", n};
  m["cluster.read_repairs_per_op"] = {reg(kReadRepairs) / ops, "count", n};
  m["cluster.quorum_fetch.self_ms"] = {self_ms("cluster.quorum_fetch"), "ms/op", n};

  // replication, durable queues, recovery.
  m["replication.ops_per_store"] = {ratio(reg(kReplicationOps),
                                          static_cast<double>(t.cls[kStore].attempted)),
                                    "count", t.cls[kStore].attempted};
  m["replication.sheds"] = {reg(kReplicationSheds), "count", n};
  m["replication.lag_max"] = {static_cast<double>(t.lag_max), "count", n};
  m["durable.replay.self_ms"] = {self_ms("durable.replay"), "ms/op", n};
  m["recovery.convergence_ms"] = {t.convergence_ms * t.scale, "ms", spec.outage ? 1u : 0u};
  m["recovery.transfer_ratio"] = {
      ratio(reg(kRecoveryBytes), static_cast<double>(t.rejoined_node_bytes)), "ratio",
      spec.outage ? 1u : 0u};
  m["recovery.hints_replayed"] = {reg(kHintsReplayed), "count", n};

  // system spans and the trace's own diagnostics.
  for (const char* span : {"system.add_user", "system.issue_user_key", "system.upload",
                           "system.download", "system.revoke_attribute"})
    m[std::string(span) + ".self_ms"] = {self_ms(span), "ms/op", n};
  double op_total = 0, op_self = 0;
  for (size_t c = 0; c < kOpClasses; ++c) {
    const auto it = fold.rows.find(std::string("bench.") + op_class_name(c));
    if (it == fold.rows.end()) continue;
    op_total += it->second.total_ms;
    op_self += it->second.self_ms;
  }
  m["trace.coverage"] = {ratio(op_total - op_self, op_total), "ratio", n};
  m["trace.orphan_spans"] = {static_cast<double>(fold.orphan_spans), "count", spans.size()};
  m["trace.overhead_ratio"] = {ratio(scaled_ops_per_s(plain), scaled_ops_per_s(t)), "ratio", n};

  for (const auto& [name, row] : fold.rows) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "span %-40s count=%-8lu total_ms=%-12.3f self_ms=%.3f",
                  name.c_str(), static_cast<unsigned long>(row.count), row.total_ms,
                  row.self_ms);
    fold_lines->push_back(buf);
  }
  return m;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "          [--commit <id>] [--source-digest <hex>]\n"
               "workloads:",
               argv0);
  for (const std::string& w : workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 64;
}

}  // namespace
}  // namespace maabe::perfbench

int main(int argc, char** argv) {
  using namespace maabe::perfbench;
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--commit") a.commit = v;
    else if (k == "--source-digest") a.source_digest = v;
    else return usage(argv[0]);
  }
  const WorkloadSpec* spec = find_workload(a.workload);
  if (spec == nullptr || a.seconds <= 0 || (argc - 1) % 2 != 0) return usage(argv[0]);
  const auto grp = maabe::pairing::Group::pbc_a512();

  const std::string host = host_json(a, *grp);
  std::printf("# host %s\n", host.c_str());
  uint64_t attempted = 0, failed = 0;
  bool correct = false;
  std::string fingerprint;
  std::vector<std::string> fold_lines;
  const Metrics m = a.trace ? per_layer(a, *spec, grp, &attempted, &failed, &correct, &fold_lines)
                            : end_to_end(a, *spec, grp, &attempted, &failed, &correct,
                                         &fingerprint);
  for (const std::string& line : fold_lines) std::printf("%s\n", line.c_str());
  for (const auto& [name, metric] : m) {
    std::printf("metric %-44s %16.6f %-6s n=%lu", name.c_str(), metric.value,
                metric.unit.c_str(), static_cast<unsigned long>(metric.samples));
    if (metric.percentile >= 0) std::printf(" p%.2f", metric.percentile);
    std::printf("\n");
  }
  if (!fingerprint.empty()) std::printf("# fingerprint %s\n", fingerprint.c_str());

  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
    << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    o << (first ? "" : ", ") << json_str(name) << ": {\"value\": " << json_num(metric.value)
      << ", \"unit\": " << json_str(metric.unit) << ", \"samples\": " << metric.samples;
    if (metric.percentile >= 0) o << ", \"percentile\": " << json_num(metric.percentile);
    o << "}";
    first = false;
  }
  o << "}, \"fingerprint\": " << json_str(fingerprint) << ", \"host\": " << host << "}";
  std::printf("%s\n", o.str().c_str());
  return 0;
}
