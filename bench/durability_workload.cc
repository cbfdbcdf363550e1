// Durability crash-chaos wall: forked service incarnations are power-cut
// (`crash` fault codes — std::_Exit, no flushes, no destructors) at seeded
// WAL kill points mid-mutation-stream, then recovered in the parent. See
// storage/wal.h (fsync policies, torn tails), storage/checkpoint.h (the
// checkpoint/truncate protocol), and service/debug_service.h
// (recovery-on-construct).
//
// Per crash/recover cycle, three gates:
//
//   loss   — the recovered database must equal the state after applying
//            some prefix of the seeded mutation stream AT LEAST as long as
//            the acknowledged-durable prefix (an acked mutation may never
//            vanish; an unacked suffix legitimately may under group-commit
//            or fsync-off policies). State equality is content-based (live
//            rows), so a lost trailing auto-compaction cannot fake a loss.
//   stale  — after recovery the service's verdicts must match a serial
//            debugger whose index is REBUILT from the recovered database:
//            zero stale verdicts.
//   parity — on the first cycle of each env x policy x kill-point combo,
//            all five traversal strategies over the recovered (incremental
//            replay-patched) index classify bit-identically to the
//            rebuilt-index oracle.
//
// Cycles sweep DBLife + e-commerce, all three fsync policies, kill points
// storage.wal.append, storage.wal.fsync, and storage.wal.truncate, with
// seeded `after=` crash positions; odd cycles checkpoint mid-stream so
// crashes land on both sides of the checkpoint/truncate window (and, for
// the truncate point, inside the staged-rename swap itself). A replay-fault robustness check
// per env asserts a recovery-time fault surfaces typed instead of adopting
// a half-replayed state. Emits BENCH_durability.json.
//
//   ./durability_workload [--smoke] [--out=BENCH_durability.json]
//
// Environment knobs: KWSDBG_FSYNC_POLICY=every|group|off restricts the
// policy sweep; KWSDBG_WAL_DIR relocates the per-cycle WAL/checkpoint
// dirs (default: system temp); KWSDBG_CRASH_SEED reseeds the kill-point
// positions; KWSDBG_CRASH_CYCLES overrides cycles per combo (default 2
// smoke / 9 full — the full sweep is 108 cycles).
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/fault_injector.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/rng.h"
#include "datasets/dblife.h"
#include "datasets/ecommerce.h"
#include "datasets/workload.h"
#include "debugger/non_answer_debugger.h"
#include "lattice/lattice_generator.h"
#include "service/debug_service.h"
#include "storage/checkpoint.h"
#include "storage/io_util.h"
#include "storage/wal.h"
#include "text/inverted_index.h"

namespace kwsdbg {
namespace bench {
namespace {

size_t EnvSizeOr(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : static_cast<size_t>(std::atoll(v));
}

/// Content-independent per-catalog state (schema, lattice, queries); the
/// database itself is rebuilt fresh per cycle from the deterministic
/// generators so every incarnation starts identical.
struct MasterEnv {
  std::string name;   ///< Seeds the crash schedule and names the WAL dirs.
  std::string label;  ///< `name` plus the DBLife scale, for output.
  bool dblife = true;
  bool smoke = true;
  SchemaGraph schema;
  std::unique_ptr<Lattice> lattice;
  std::vector<std::string> queries;
};

struct Instance {
  std::unique_ptr<Database> db;
  std::unique_ptr<InvertedIndex> index;
};

MasterEnv BuildMaster(bool dblife, bool smoke) {
  MasterEnv master;
  master.dblife = dblife;
  master.smoke = smoke;
  if (dblife) {
    master.name = "dblife";
    const double default_scale = smoke ? 0.05 : 1.0;
    std::ostringstream label;
    label << "dblife(" << EnvScale(default_scale) << "x)";
    master.label = label.str();
    auto dataset = GenerateDblife(EnvDblifeConfig(default_scale));
    KWSDBG_CHECK(dataset.ok()) << dataset.status().ToString();
    master.schema = std::move(dataset->schema);
    for (const WorkloadQuery& q : PaperWorkload()) {
      master.queries.push_back(q.text);
      if (master.queries.size() >= 2) break;
    }
  } else {
    master.name = "ecommerce";
    master.label = master.name;
    EcommerceConfig config;
    config.num_items = smoke ? 100 : 400;
    auto dataset = GenerateEcommerce(config);
    KWSDBG_CHECK(dataset.ok()) << dataset.status().ToString();
    master.schema = std::move(dataset->schema);
    master.queries = {"saffron candle", "lavender soap"};
  }
  LatticeConfig lconfig;
  lconfig.max_joins = 2;
  lconfig.num_keyword_copies = 2;
  auto lattice = LatticeGenerator::Generate(master.schema, lconfig);
  KWSDBG_CHECK(lattice.ok()) << lattice.status().ToString();
  master.lattice = std::move(*lattice);
  return master;
}

Instance BuildInstance(const MasterEnv& master) {
  Instance inst;
  if (master.dblife) {
    auto dataset = GenerateDblife(EnvDblifeConfig(master.smoke ? 0.05 : 1.0));
    KWSDBG_CHECK(dataset.ok()) << dataset.status().ToString();
    inst.db = std::move(dataset->db);
  } else {
    EcommerceConfig config;
    config.num_items = master.smoke ? 100 : 400;
    auto dataset = GenerateEcommerce(config);
    KWSDBG_CHECK(dataset.ok()) << dataset.status().ToString();
    inst.db = std::move(dataset->db);
  }
  inst.index = std::make_unique<InvertedIndex>(InvertedIndex::Build(*inst.db));
  return inst;
}

std::vector<std::string> SampledVocab(const InvertedIndex& index) {
  std::vector<std::string> vocab = index.Terms();
  if (vocab.size() > 32) vocab.resize(32);
  KWSDBG_CHECK(!vocab.empty());
  return vocab;
}

/// One seeded random write; the SAME (seed, evolving db state) sequence is
/// regenerated in the crashing child and in the parent's oracle, so both
/// walk identical streams. Insert-heavy, with deletes to drive compaction
/// records through the WAL and the occasional fresh word to move the index
/// dictionary fingerprint.
Mutation RandomMutation(Rng* rng, Database* db,
                        const std::vector<std::string>& vocab) {
  const std::vector<std::string> names = db->TableNames();
  const std::string& tname = names[rng->Uniform(names.size())];
  Table* t = db->FindTable(tname);
  const double roll = rng->NextDouble();
  uint64_t kind = roll < 0.5 ? 0 : (roll < 0.8 ? 2 : 1);
  if (t->live_rows() == 0) kind = 0;

  auto random_value = [&](DataType type) {
    switch (type) {
      case DataType::kInt64:
        return Value(static_cast<int64_t>(rng->Uniform(128)));
      case DataType::kDouble:
        return Value(static_cast<double>(rng->Uniform(100)) * 0.25);
      case DataType::kString: {
        std::string s = vocab[rng->Uniform(vocab.size())];
        if (rng->Bernoulli(0.3)) s += ' ' + vocab[rng->Uniform(vocab.size())];
        if (rng->Bernoulli(0.1)) {
          s += " crashword" + std::to_string(rng->Uniform(16));
        }
        return Value(s);
      }
    }
    return Value();
  };

  if (kind == 0) {
    Tuple row;
    for (size_t c = 0; c < t->schema().num_columns(); ++c) {
      row.push_back(random_value(t->schema().column(c).type));
    }
    return Mutation::Insert(tname, std::move(row));
  }
  size_t row = rng->Uniform(t->num_rows());
  while (t->deleted(row)) row = (row + 1) % t->num_rows();
  if (kind == 1) return Mutation::Delete(tname, row);
  const size_t col = rng->Uniform(t->schema().num_columns());
  return Mutation::Update(tname, row, col,
                          random_value(t->schema().column(col).type));
}

/// Content fingerprint over LIVE rows only: invariant under compaction
/// (which drops tombstones but preserves live-row content and order), so a
/// crash that loses a trailing auto-compaction record — but no mutation —
/// still fingerprints equal to the oracle prefix.
uint64_t DbFingerprint(Database* db) {
  uint64_t h = SplitMix64(0x64626670ull);  // "dbfp"
  for (const std::string& name : db->TableNames()) {
    h = SplitMix64(h ^ Checksum64(name.data(), name.size()));
    Table* t = db->FindTable(name);
    for (size_t r = 0; r < t->num_rows(); ++r) {
      if (t->deleted(r)) continue;
      for (size_t c = 0; c < t->schema().num_columns(); ++c) {
        const std::string cell = t->at(r, c).ToString();
        h = SplitMix64(h ^ Checksum64(cell.data(), cell.size()));
      }
    }
  }
  return h;
}

struct CycleConfig {
  std::string dir;
  FsyncPolicy policy = FsyncPolicy::kEveryRecord;
  std::string point;        ///< Armed kill point (storage.wal.*).
  uint64_t after = 0;       ///< Hits before the crash becomes eligible.
  bool checkpoint_mid = false;
  uint64_t stream_seed = 0;
  size_t stream_len = 0;
};

ServiceOptions DurableOptions(const CycleConfig& c, size_t workers) {
  ServiceOptions options;
  options.num_workers = workers;
  options.durability.dir = c.dir;
  options.durability.wal.fsync_policy = c.policy;
  options.durability.wal.group_commit_records = 4;
  return options;
}

/// Durably records how many stream mutations are acknowledged-durable; the
/// parent's loss gate compares against THIS, never against what the child
/// merely attempted.
void WriteAck(int fd, uint64_t acked_mutations) {
  KWSDBG_CHECK(WriteFullAt(fd, &acked_mutations, sizeof(acked_mutations), 0,
                           "ack write")
                   .ok());
  KWSDBG_CHECK(SyncFd(fd, "ack sync").ok());
}

uint64_t ReadAck(const std::string& path) {
  auto contents = ReadFileToString(path);
  if (!contents.ok() || contents->size() < sizeof(uint64_t)) return 0;
  uint64_t acked = 0;
  std::memcpy(&acked, contents->data(), sizeof(acked));
  return acked;
}

/// Child body: arm the kill schedule, run a durable service over the
/// (fork-copied, pristine) instance, apply the seeded stream acking
/// durable prefixes, optionally checkpoint mid-stream. _Exit(0) when the
/// crash point lands past the stream; kCrashExitCode when the power cut
/// fires. Never returns.
[[noreturn]] void RunChild(const MasterEnv& master, Instance* inst,
                           const CycleConfig& c) {
  KWSDBG_CHECK(FaultInjector::Global()
                   .Configure(c.point + "=crash,after=" +
                              std::to_string(c.after))
                   .ok());
  auto ack_fd = OpenFd(c.dir + "/acks", O_CREAT | O_RDWR, 0644, "ack open");
  KWSDBG_CHECK(ack_fd.ok());
  DebugService service(inst->db.get(), master.lattice.get(),
                       inst->index.get(), DurableOptions(c, 1));
  KWSDBG_CHECK(service.durability_status().ok())
      << service.durability_status().ToString();
  Rng rng(c.stream_seed);
  const std::vector<std::string> vocab = SampledVocab(*inst->index);
  for (size_t i = 0; i < c.stream_len; ++i) {
    const Mutation m = RandomMutation(&rng, inst->db.get(), vocab);
    const Status st = service.ApplyMutation(m);
    KWSDBG_CHECK(st.ok()) << st.ToString();
    // Acknowledge only when the fsync frontier covers every appended
    // record (mutations AND their auto-compaction records).
    if (service.wal()->durable_seq() + 1 == service.wal()->next_seq()) {
      WriteAck(*ack_fd, i + 1);
    }
    if (c.checkpoint_mid && i == c.stream_len / 2) {
      const Status cs = service.Checkpoint();
      KWSDBG_CHECK(cs.ok()) << cs.ToString();
      WriteAck(*ack_fd, i + 1);  // The snapshot covers everything so far.
    }
  }
  std::_Exit(0);
}

/// Fingerprints of every oracle prefix state: fps[k] = state after the
/// first k mutations of the seeded stream, applied through the same
/// service write path (same auto-compaction policy) minus the WAL.
std::vector<uint64_t> OraclePrefixFingerprints(const MasterEnv& master,
                                               const CycleConfig& c) {
  Instance inst = BuildInstance(master);
  ServiceOptions options;
  options.num_workers = 1;
  DebugService service(inst.db.get(), master.lattice.get(), inst.index.get(),
                       options);
  Rng rng(c.stream_seed);
  const std::vector<std::string> vocab = SampledVocab(*inst.index);
  std::vector<uint64_t> fps;
  fps.push_back(DbFingerprint(inst.db.get()));
  for (size_t i = 0; i < c.stream_len; ++i) {
    const Mutation m = RandomMutation(&rng, inst.db.get(), vocab);
    const Status st = service.ApplyMutation(m);
    KWSDBG_CHECK(st.ok()) << st.ToString();
    fps.push_back(DbFingerprint(inst.db.get()));
  }
  return fps;
}

struct ComboTotals {
  std::string env;
  std::string policy;
  std::string point;
  size_t cycles = 0;
  size_t crashes = 0;
  size_t checkpoints = 0;
  size_t lost = 0;
  size_t stale = 0;
  size_t recovery_failures = 0;
  uint64_t replayed = 0;
};

struct ParityRow {
  std::string env;
  std::string policy;
  std::string strategy;
  bool match = true;
};

/// One crash/recover cycle. Returns the number of gate violations.
size_t RunCycle(const MasterEnv& master, const CycleConfig& c,
                bool check_parity, ComboTotals* totals,
                std::vector<ParityRow>* parity_rows) {
  std::filesystem::remove_all(c.dir);
  std::filesystem::create_directories(c.dir);
  ++totals->cycles;
  if (c.checkpoint_mid) ++totals->checkpoints;

  // The child gets a fork-time copy of this pristine instance; the
  // parent's copy stays untouched and doubles as the recovery base when no
  // checkpoint was written.
  Instance pristine = BuildInstance(master);
  const pid_t pid = fork();
  KWSDBG_CHECK(pid >= 0);
  if (pid == 0) RunChild(master, &pristine, c);
  int wstatus = 0;
  KWSDBG_CHECK(waitpid(pid, &wstatus, 0) == pid);
  KWSDBG_CHECK(WIFEXITED(wstatus)) << "child died abnormally";
  const int code = WEXITSTATUS(wstatus);
  KWSDBG_CHECK(code == 0 || code == FaultInjector::kCrashExitCode)
      << "child exit code " << code;
  const bool crashed = code == FaultInjector::kCrashExitCode;
  if (crashed) ++totals->crashes;
  const uint64_t acked = ReadAck(c.dir + "/acks");

  size_t violations = 0;

  // Recovery base: the checkpoint snapshot when one was written, else the
  // pristine catalog; the service replays the surviving WAL on construct.
  std::unique_ptr<Database> db;
  std::unique_ptr<InvertedIndex> index;
  auto restored = Database::Recover(c.dir);
  if (restored.ok()) {
    db = std::move(*restored);
    index = std::make_unique<InvertedIndex>(InvertedIndex::Build(*db));
  } else if (restored.status().code() == StatusCode::kNotFound) {
    db = std::move(pristine.db);
    index = std::move(pristine.index);
  } else {
    ++totals->recovery_failures;
    std::printf("  [GATE] %s/%s/%s: snapshot restore failed: %s\n",
                totals->env.c_str(), totals->policy.c_str(),
                totals->point.c_str(), restored.status().ToString().c_str());
    return 1;
  }
  DebugService service(db.get(), master.lattice.get(), index.get(),
                       DurableOptions(c, 2));
  if (!service.durability_status().ok()) {
    ++totals->recovery_failures;
    std::printf("  [GATE] %s/%s/%s: recovery failed: %s\n",
                totals->env.c_str(), totals->policy.c_str(),
                totals->point.c_str(),
                service.durability_status().ToString().c_str());
    return 1;
  }

  // Loss gate: recovered state == oracle prefix k for some k >= acked.
  const uint64_t fp = DbFingerprint(db.get());
  const std::vector<uint64_t> oracle = OraclePrefixFingerprints(master, c);
  bool matched = false;
  for (uint64_t k = acked; k < oracle.size(); ++k) {
    if (oracle[k] == fp) {
      matched = true;
      break;
    }
  }
  if (!matched) {
    ++totals->lost;
    ++violations;
    std::printf("  [GATE] %s/%s/%s after=%llu: recovered state matches no "
                "stream prefix >= %llu acked mutation(s)\n",
                totals->env.c_str(), totals->policy.c_str(),
                totals->point.c_str(),
                static_cast<unsigned long long>(c.after),
                static_cast<unsigned long long>(acked));
  }

  // Stale-verdict gate: recovered service vs rebuilt-index serial oracle.
  const InvertedIndex rebuilt = InvertedIndex::Build(*db);
  NonAnswerDebugger serial(db.get(), master.lattice.get(), &rebuilt);
  BatchResult batch = service.RunBatch(master.queries);
  KWSDBG_CHECK(batch.status.ok());
  totals->replayed += batch.stats.wal_replayed;
  for (size_t i = 0; i < master.queries.size(); ++i) {
    auto want = serial.Debug(master.queries[i]);
    KWSDBG_CHECK(want.ok()) << want.status().ToString();
    const QueryResult& r = batch.results[i];
    KWSDBG_CHECK(r.status.ok()) << r.status.ToString();
    if (r.report.ClassificationSignature() !=
        want->ClassificationSignature()) {
      ++totals->stale;
      ++violations;
      std::printf("  [GATE] %s/%s/%s: stale verdict for \"%s\" after "
                  "recovery\n",
                  totals->env.c_str(), totals->policy.c_str(),
                  totals->point.c_str(), master.queries[i].c_str());
    }
  }

  // Parity gate (first cycle per combo): all five strategies over the
  // recovered replay-patched index vs the rebuilt-index oracle.
  if (check_parity) {
    for (TraversalKind kind : AllTraversalKinds()) {
      DebuggerOptions options;
      options.strategy = kind;
      NonAnswerDebugger recovered_dbg(db.get(), master.lattice.get(),
                                      index.get(), options);
      NonAnswerDebugger oracle_dbg(db.get(), master.lattice.get(), &rebuilt,
                                   options);
      bool match = true;
      for (const std::string& query : master.queries) {
        auto got = recovered_dbg.Debug(query);
        auto want = oracle_dbg.Debug(query);
        KWSDBG_CHECK(got.ok()) << got.status().ToString();
        KWSDBG_CHECK(want.ok()) << want.status().ToString();
        if (got->ClassificationSignature() !=
            want->ClassificationSignature()) {
          match = false;
        }
      }
      if (!match) {
        ++violations;
        std::printf("  [GATE] %s/%s/%s: strategy %s diverged after "
                    "recovery\n",
                    totals->env.c_str(), totals->policy.c_str(),
                    totals->point.c_str(),
                    std::string(TraversalKindName(kind)).c_str());
      }
      parity_rows->push_back({totals->env, totals->policy,
                              std::string(TraversalKindName(kind)), match});
    }
  }
  return violations;
}

/// A fault during recovery replay must surface typed — the service must
/// refuse to adopt a half-replayed state — and a clean retry must succeed.
size_t RunReplayFaultCheck(const MasterEnv& master, const std::string& dir) {
  CycleConfig c;
  c.dir = dir;
  c.policy = FsyncPolicy::kEveryRecord;
  c.stream_seed = 0x5EEDFA11u;
  c.stream_len = 4;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    Instance inst = BuildInstance(master);
    DebugService service(inst.db.get(), master.lattice.get(),
                         inst.index.get(), DurableOptions(c, 1));
    KWSDBG_CHECK(service.durability_status().ok());
    Rng rng(c.stream_seed);
    const std::vector<std::string> vocab = SampledVocab(*inst.index);
    for (size_t i = 0; i < c.stream_len; ++i) {
      KWSDBG_CHECK(
          service.ApplyMutation(RandomMutation(&rng, inst.db.get(), vocab))
              .ok());
    }
  }
  size_t violations = 0;
  {
    ScopedFaultInjection faults("storage.wal.replay=unavailable,times=1");
    Instance inst = BuildInstance(master);
    DebugService service(inst.db.get(), master.lattice.get(),
                         inst.index.get(), DurableOptions(c, 1));
    if (service.durability_status().ok()) {
      ++violations;
      std::printf("  [GATE] %s: replay fault was swallowed — service came "
                  "up over a half-replayed log\n",
                  master.label.c_str());
    }
  }
  {
    Instance inst = BuildInstance(master);
    DebugService service(inst.db.get(), master.lattice.get(),
                         inst.index.get(), DurableOptions(c, 1));
    if (!service.durability_status().ok()) {
      ++violations;
      std::printf("  [GATE] %s: clean recovery retry failed: %s\n",
                  master.label.c_str(),
                  service.durability_status().ToString().c_str());
    }
  }
  std::printf("  %s replay-fault robustness: %s\n", master.label.c_str(),
              violations == 0 ? "typed failure, clean retry ok" : "FAILED");
  return violations;
}

const char* PolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kEveryRecord:
      return "every";
    case FsyncPolicy::kGroupCommit:
      return "group";
    case FsyncPolicy::kOff:
      return "off";
  }
  return "?";
}

std::vector<FsyncPolicy> PolicySweep() {
  const char* env = std::getenv("KWSDBG_FSYNC_POLICY");
  if (env != nullptr && env[0] != '\0') {
    auto parsed = ParseFsyncPolicy(env);
    KWSDBG_CHECK(parsed.ok()) << parsed.status().ToString();
    return {*parsed};
  }
  return {FsyncPolicy::kEveryRecord, FsyncPolicy::kGroupCommit,
          FsyncPolicy::kOff};
}

int Run(bool smoke, const std::string& out_path) {
  std::printf("Durability workload: crash-chaos wall, %s mode\n",
              smoke ? "smoke" : "full");
  const char* wal_dir_env = std::getenv("KWSDBG_WAL_DIR");
  std::error_code ec;
  const std::string base_dir =
      (wal_dir_env != nullptr && wal_dir_env[0] != '\0')
          ? std::string(wal_dir_env)
          : std::filesystem::temp_directory_path(ec).string() +
                "/kwsdbg_durability";
  KWSDBG_CHECK(!ec);
  const uint64_t crash_seed = EnvSizeOr("KWSDBG_CRASH_SEED", 0xC4A5D00Du);
  const size_t cycles_per_combo =
      EnvSizeOr("KWSDBG_CRASH_CYCLES", smoke ? 2 : 9);
  const size_t stream_len = smoke ? 14 : 24;
  const std::vector<FsyncPolicy> policies = PolicySweep();
  const std::vector<std::string> points = {"storage.wal.append",
                                           "storage.wal.fsync",
                                           "storage.wal.truncate"};

  size_t violations = 0;
  size_t total_cycles = 0;
  size_t total_crashes = 0;
  size_t append_crashes = 0;
  std::vector<ComboTotals> combos;
  std::vector<ParityRow> parity_rows;
  std::ostringstream robustness_json;

  for (const bool is_dblife : {true, false}) {
    const MasterEnv master = BuildMaster(is_dblife, smoke);
    std::printf("\n%s: %zu queries, stream of %zu seeded write(s) per "
                "incarnation\n",
                master.label.c_str(), master.queries.size(), stream_len);
    Rng after_rng(crash_seed ^ Checksum64(master.name.data(),
                                          master.name.size()));
    for (const FsyncPolicy policy : policies) {
      for (const std::string& point : points) {
        ComboTotals totals;
        totals.env = master.label;
        totals.policy = PolicyName(policy);
        totals.point = point;
        for (size_t cycle = 0; cycle < cycles_per_combo; ++cycle) {
          CycleConfig c;
          c.dir = base_dir + "/" + master.name + "_" + totals.policy + "_" +
                  point.substr(point.rfind('.') + 1) + "_" +
                  std::to_string(cycle);
          c.policy = policy;
          c.point = point;
          // First cycle crashes early and deterministically; later cycles
          // draw seeded positions (some land past the stream: the child
          // survives and the cycle degenerates to clean restart+replay).
          // The truncate point only has three hits — boot creation, then
          // truncate entry and pre-rename during the mid-stream checkpoint
          // — so its cycles always checkpoint and draw from that range
          // (cycle 0's after=2 lands deterministically pre-rename).
          const bool truncate_point = point == "storage.wal.truncate";
          c.after = cycle == 0 ? 2
                    : truncate_point
                        ? after_rng.Uniform(5)
                        : after_rng.Uniform(stream_len + 4);
          c.checkpoint_mid = truncate_point || cycle % 2 == 1;
          c.stream_seed = crash_seed ^ (0x9E3779B97F4A7C15ull * (cycle + 1));
          c.stream_len = stream_len;
          violations +=
              RunCycle(master, c, /*check_parity=*/cycle == 0, &totals,
                       &parity_rows);
        }
        total_cycles += totals.cycles;
        total_crashes += totals.crashes;
        if (point == "storage.wal.append") append_crashes += totals.crashes;
        std::printf("  %s/%s/%s: %zu cycle(s), %zu crash(es), %zu "
                    "checkpoint(s), %llu record(s) replayed\n",
                    totals.env.c_str(), totals.policy.c_str(),
                    totals.point.c_str(), totals.cycles, totals.crashes,
                    totals.checkpoints,
                    static_cast<unsigned long long>(totals.replayed));
        combos.push_back(std::move(totals));
      }
    }
    const size_t robustness =
        RunReplayFaultCheck(master, base_dir + "/" + master.name + "_replay");
    violations += robustness;
    if (robustness_json.tellp() > 0) robustness_json << ',';
    robustness_json << "{\"env\":\"" << master.label << "\",\"ok\":"
                    << (robustness == 0 ? "true" : "false") << "}";
  }

  // The wall is only a wall if the power cuts actually fire: the append
  // point is policy-independent, so its early-crash cycles must all kill.
  if (append_crashes == 0) {
    ++violations;
    std::printf("\n[GATE] no crash ever fired at storage.wal.append — the "
                "kill schedule is inert\n");
  }

  TablePrinter table({"env", "policy", "kill point", "cycles", "crashes",
                      "lost", "stale", "recovery failures"});
  for (const ComboTotals& t : combos) {
    table.AddRow({t.env, t.policy, t.point, std::to_string(t.cycles),
                  std::to_string(t.crashes), std::to_string(t.lost),
                  std::to_string(t.stale),
                  std::to_string(t.recovery_failures)});
  }
  std::printf("\n");
  table.Print();

  {
    std::ostringstream json;
    json << "{\"bench\":\"durability_workload\",\"smoke\":"
         << (smoke ? "true" : "false") << ",\"cycles\":" << total_cycles
         << ",\"crashes\":" << total_crashes << ",\"combos\":[";
    for (size_t i = 0; i < combos.size(); ++i) {
      const ComboTotals& t = combos[i];
      if (i > 0) json << ',';
      json << "{\"env\":\"" << t.env << "\",\"policy\":\"" << t.policy
           << "\",\"point\":\"" << t.point << "\",\"cycles\":" << t.cycles
           << ",\"crashes\":" << t.crashes
           << ",\"checkpoints\":" << t.checkpoints
           << ",\"wal_replayed\":" << t.replayed << ",\"lost\":" << t.lost
           << ",\"stale\":" << t.stale
           << ",\"recovery_failures\":" << t.recovery_failures << "}";
    }
    json << "],\"parity\":[";
    for (size_t i = 0; i < parity_rows.size(); ++i) {
      const ParityRow& row = parity_rows[i];
      if (i > 0) json << ',';
      json << "{\"env\":\"" << row.env << "\",\"policy\":\"" << row.policy
           << "\",\"strategy\":\"" << row.strategy
           << "\",\"match\":" << (row.match ? "true" : "false") << "}";
    }
    json << "],\"replay_fault\":[" << robustness_json.str() << "]"
         << ",\"violations\":" << violations << '}';
    std::ofstream f(out_path);
    if (f) {
      f << json.str() << '\n';
      std::printf("\nwrote %s\n", out_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    }
  }

  if (violations > 0) {
    std::printf("\nDURABILITY GATE FAILED: %zu violation(s)\n", violations);
    return 1;
  }
  std::printf("\nDURABILITY GATE OK: %zu crash/recover cycle(s) (%zu power "
              "cut(s)), zero lost acknowledged mutations, zero stale "
              "verdicts, five-strategy parity after recovery\n",
              total_cycles, total_crashes);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace kwsdbg

int main(int argc, char** argv) {
  // Spilled tables and indexes are read-only, so the logged writes need the
  // resident tier (and forked children must not share spill files with the
  // parent).
  ::unsetenv("KWSDBG_MEMORY_BUDGET");
  bool smoke = false;
  std::string out_path = "BENCH_durability.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out=PATH]\n", argv[0]);
      return 2;
    }
  }
  return kwsdbg::bench::Run(smoke, out_path);
}
