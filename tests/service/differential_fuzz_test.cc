// Differential fuzzer over the whole verdict pipeline: seeded random
// catalogs + keyword queries, asserting that all five traversal strategies,
// the RE baseline (the SQL-per-node oracle), and the concurrent
// DebugService produce identical A(K)/N(K)/MPAN sets. Any disagreement is
// a real bug in inference, caching, cancellation, or the service's
// threading — verdicts are ground truth and must not depend on the runner.
//
// Reproducibility: every failure prints the iteration seed and a minimized
// query. Re-run one case with
//   KWSDBG_FUZZ_SEED=<seed> KWSDBG_FUZZ_ITERS=1 ./differential_fuzz_test
// The default iteration count is CI-cheap; nightly/sanitizer runs raise it
// via KWSDBG_FUZZ_ITERS (see tests/run_sanitizers.sh and docs/testing.md).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/return_everything.h"
#include "common/fault_injector.h"
#include "common/rng.h"
#include "datasets/ecommerce.h"
#include "datasets/query_generator.h"
#include "kws/keyword_binding.h"
#include "kws/pruned_lattice.h"
#include "lattice/lattice_generator.h"
#include "service/debug_service.h"
#include "sql/executor.h"
#include "test_util.h"
#include "text/inverted_index.h"
#include "traversal/strategy.h"

namespace kwsdbg {
namespace {

size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : static_cast<size_t>(std::atoll(v));
}

/// One generated instance: catalog + lattice + index, all seeded.
struct FuzzCase {
  std::unique_ptr<Database> db;
  SchemaGraph schema;
  std::unique_ptr<Lattice> lattice;
  std::unique_ptr<InvertedIndex> index;
};

FuzzCase BuildCase(uint64_t seed) {
  Rng rng(seed);
  EcommerceConfig config;
  config.seed = seed;
  config.num_items = static_cast<size_t>(rng.UniformRange(20, 80));
  const double null_rates[] = {0.0, 0.1, 0.3};
  config.null_color_rate = null_rates[rng.Uniform(3)];
  auto dataset = GenerateEcommerce(config);
  KWSDBG_CHECK(dataset.ok()) << dataset.status().ToString();
  FuzzCase fc;
  fc.db = std::move(dataset->db);
  fc.schema = std::move(dataset->schema);
  LatticeConfig lconfig;
  lconfig.max_joins = 2;
  lconfig.num_keyword_copies = 2;
  auto lattice = LatticeGenerator::Generate(fc.schema, lconfig);
  KWSDBG_CHECK(lattice.ok()) << lattice.status().ToString();
  fc.lattice = std::move(*lattice);
  fc.index = std::make_unique<InvertedIndex>(InvertedIndex::Build(*fc.db));
  return fc;
}

/// Checks one query across all runners. `seed` is the case's generator seed,
/// used to rebuild a bit-identical catalog for the out-of-core layer.
/// Returns a description of the first disagreement, or nullopt when every
/// runner agrees.
std::optional<std::string> Disagreement(const FuzzCase& fc, uint64_t seed,
                                        const std::string& query) {
  KeywordBinder binder(&fc.schema, fc.index.get(), /*copies=*/2,
                       /*max_interpretations=*/4);
  BindingResult bound = binder.Bind(query);

  // Layer 1: per interpretation, the five strategies must match the RE
  // oracle exactly (aliveness, MPANs, culprits).
  for (const KeywordBinding& binding : bound.interpretations) {
    PrunedLattice pl = PrunedLattice::Build(*fc.lattice, binding);
    if (pl.mtns().empty()) continue;
    auto run = [&](TraversalStrategy* strategy) {
      Executor executor(fc.db.get());
      QueryEvaluator evaluator(fc.db.get(), &executor, &pl, fc.index.get());
      auto result = strategy->Run(pl, &evaluator);
      KWSDBG_CHECK(result.ok()) << result.status().ToString();
      return testutil::Summarize(*result);
    };
    auto oracle_strategy = MakeReturnEverything();
    const auto oracle = run(oracle_strategy.get());
    for (TraversalKind kind : AllTraversalKinds()) {
      auto strategy = MakeStrategy(kind);
      const auto got = run(strategy.get());
      if (got != oracle) {
        std::ostringstream out;
        out << "strategy " << strategy->name() << " disagrees with RE on "
            << "binding " << binding.ToString(fc.schema);
        return out.str();
      }
    }
  }

  // Layer 2: the concurrent service must classify identically to a serial
  // debugger (same options, fresh caches) for the full report.
  std::string serial_sig;
  {
    NonAnswerDebugger serial(fc.db.get(), fc.lattice.get(), fc.index.get());
    auto report = serial.Debug(query);
    KWSDBG_CHECK(report.ok()) << report.status().ToString();
    serial_sig = report->ClassificationSignature();
  }

  // Layer 2c: out-of-core differential — rebuild the identical catalog
  // (generation is seed-deterministic), push every table through the buffer
  // pool and the posting lists onto disk, and require the serial debugger to
  // classify bit-identically: paging must only change cost, never a
  // verdict. The spilled tier is read-only: a SetValue on a spilled table
  // must be refused and change nothing, and an epoch bump, which leaves the
  // pool's frames resident, must not change the classification either.
  {
    FuzzCase spilled = BuildCase(seed);
    SpillOptions spill_options;
    spill_options.page_size = 512;
    Status st = spilled.db->ApplyMemoryBudget(1, spill_options);
    KWSDBG_CHECK(st.ok()) << st.ToString();
    KWSDBG_CHECK(spilled.db->AnySpilled());
    st = spilled.index->SpillToDisk("", /*cache_lists=*/8);
    KWSDBG_CHECK(st.ok()) << st.ToString();
    NonAnswerDebugger debugger(spilled.db.get(), spilled.lattice.get(),
                               spilled.index.get());
    auto report = debugger.Debug(query);
    KWSDBG_CHECK(report.ok()) << report.status().ToString();
    if (report->ClassificationSignature() != serial_sig) {
      return "spilled (out-of-core) classification differs from resident";
    }
    Table* first = nullptr;
    for (const std::string& name : spilled.db->TableNames()) {
      Table* t = spilled.db->FindTable(name);
      if (t != nullptr && t->spilled() && t->num_rows() > 0 &&
          t->schema().column(0).type == DataType::kInt64) {
        first = t;
        break;
      }
    }
    if (first != nullptr) {
      const Value original = first->at(0, 0);
      st = first->SetValue(0, 0, Value(int64_t{-777}));
      if (st.code() != StatusCode::kFailedPrecondition) {
        return "SetValue on a spilled table was not refused: " +
               st.ToString();
      }
      if (!(first->at(0, 0) == original)) {
        return "a refused SetValue changed a spilled row";
      }
    }
    spilled.db->BumpEpoch();
    report = debugger.Debug(query);
    KWSDBG_CHECK(report.ok()) << report.status().ToString();
    if (report->ClassificationSignature() != serial_sig) {
      return "spilled classification differs after BumpEpoch";
    }
  }

  // Layer 2d: adaptive traversal differential — SBH reading an
  // observation-fed p_a model must classify bit-identically. Two passes:
  // the first runs cold, the second replays against the warmed model (SBH
  // reads learned per-level estimates).
  {
    DebuggerOptions adaptive_options;
    adaptive_options.adaptive = true;
    NonAnswerDebugger adaptive(fc.db.get(), fc.lattice.get(), fc.index.get(),
                               adaptive_options);
    for (int pass = 0; pass < 2; ++pass) {
      auto report = adaptive.Debug(query);
      KWSDBG_CHECK(report.ok()) << report.status().ToString();
      if (report->ClassificationSignature() != serial_sig) {
        return std::string("adaptive classification differs from serial on "
                           "pass ") +
               (pass == 0 ? "1 (cold model)" : "2 (warm model)");
      }
    }
  }

  ServiceOptions service_options;
  service_options.num_workers = 4;
  DebugService service(fc.db.get(), fc.lattice.get(), fc.index.get(),
                       service_options);
  // Submit the query four times in one batch: workers race on the shared
  // cache, and every copy must still classify identically.
  BatchResult batch = service.RunBatch({query, query, query, query});
  for (const QueryResult& r : batch.results) {
    if (!r.status.ok()) return "service error: " + r.status.ToString();
    if (r.report.ClassificationSignature() != serial_sig) {
      return "service classification differs from serial debugger (worker " +
             std::to_string(r.worker) + ")";
    }
  }
  return std::nullopt;
}

/// Greedy keyword-dropping minimization: keep removing words while the
/// disagreement persists.
std::string Minimize(const FuzzCase& fc, uint64_t seed, std::string query) {
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    std::istringstream in(query);
    std::vector<std::string> words;
    for (std::string w; in >> w;) words.push_back(w);
    if (words.size() <= 1) break;
    for (size_t drop = 0; drop < words.size(); ++drop) {
      std::string candidate;
      for (size_t i = 0; i < words.size(); ++i) {
        if (i == drop) continue;
        if (!candidate.empty()) candidate += ' ';
        candidate += words[i];
      }
      if (Disagreement(fc, seed, candidate).has_value()) {
        query = candidate;
        shrunk = true;
        break;
      }
    }
  }
  return query;
}

// ---- Chaos mutation layer ----

/// One seeded random write against the fuzz catalog. Insert payloads draw
/// their strings from `vocab` (sampled index terms) plus the occasional
/// fresh word, so mutations both extend existing posting lists and grow the
/// vocabulary.
Mutation RandomMutation(Rng* rng, const FuzzCase& fc,
                        const std::vector<std::string>& vocab) {
  const std::vector<std::string> names = fc.db->TableNames();
  const std::string& tname = names[rng->Uniform(names.size())];
  Table* t = fc.db->FindTable(tname);
  uint64_t kind = rng->Uniform(3);
  if (t->live_rows() == 0) kind = 0;  // nothing left to delete or update

  auto random_value = [&](DataType type) {
    switch (type) {
      case DataType::kInt64:
        return Value(static_cast<int64_t>(rng->Uniform(64)));
      case DataType::kDouble:
        return Value(static_cast<double>(rng->Uniform(100)) * 0.25);
      case DataType::kString: {
        std::string s = vocab[rng->Uniform(vocab.size())];
        if (rng->Bernoulli(0.3)) s += ' ' + vocab[rng->Uniform(vocab.size())];
        if (rng->Bernoulli(0.1)) s += " chaosword" + std::to_string(rng->Uniform(8));
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
  // Pick a live row (linear probe from a random start; a live one exists).
  size_t row = rng->Uniform(t->num_rows());
  while (t->deleted(row)) row = (row + 1) % t->num_rows();
  if (kind == 1) return Mutation::Delete(tname, row);
  const size_t col = rng->Uniform(t->schema().num_columns());
  return Mutation::Update(tname, row, col,
                          random_value(t->schema().column(col).type));
}

// Seeded read/write chaos: a mutable service absorbs random writes between
// queries (with `storage.mutation.apply` faults armed part of the time),
// and after every write burst each query's classification must equal a
// fresh serial debugger whose index is REBUILT from the mutated database.
// Any stale verdict, unpatched posting list, or missed eviction diverges
// here. Repro and volume knobs: KWSDBG_FUZZ_SEED / KWSDBG_FUZZ_ITERS /
// KWSDBG_MUTATION_RATE (writes per query, default 3).
TEST(DifferentialFuzzTest, ChaosMutationsNeverServeStaleVerdicts) {
  const size_t iters = EnvSize("KWSDBG_FUZZ_ITERS", 8);
  const uint64_t base_seed = EnvSize("KWSDBG_FUZZ_SEED", 4321);
  const size_t mutation_rate = EnvSize("KWSDBG_MUTATION_RATE", 3);
  std::printf("chaos: %zu iteration(s), base seed %llu, %zu write(s)/query "
              "(KWSDBG_FUZZ_ITERS / KWSDBG_FUZZ_SEED / KWSDBG_MUTATION_RATE "
              "to override)\n",
              iters, static_cast<unsigned long long>(base_seed),
              mutation_rate);

  for (size_t iter = 0; iter < iters; ++iter) {
    const uint64_t seed = base_seed + iter;
    FuzzCase fc = BuildCase(seed);
    Rng rng(seed ^ 0xC4A05u);
    std::vector<std::string> vocab = fc.index->Terms();
    if (vocab.size() > 32) vocab.resize(32);
    ASSERT_FALSE(vocab.empty());

    // Every other iteration arms the mutation fault point: a failed Apply
    // must be all-or-nothing, which the rebuild oracle below verifies.
    std::unique_ptr<ScopedFaultInjection> faults;
    if (iter % 2 == 1) {
      faults = std::make_unique<ScopedFaultInjection>(
          "storage.mutation.apply=unavailable,p=0.3,seed=" +
          std::to_string(seed));
    }

    // The service runs in adaptive mode on a strategy rotated by iteration
    // (keyed by the seed, so the repro line below replays it), so every
    // traversal runs through a multi-worker service under live writes.
    // Every write bumps a data epoch, so the shared model keeps decaying and
    // re-learning mid-stream — the rebuilt-world oracle below catches any
    // verdict the traversal gets wrong under drift.
    const TraversalKind strategy =
        AllTraversalKinds()[seed % AllTraversalKinds().size()];
    ServiceOptions service_options;
    service_options.num_workers = 2;
    service_options.debugger.strategy = strategy;
    service_options.debugger.adaptive = true;
    DebugService service(fc.db.get(), fc.lattice.get(), fc.index.get(),
                         service_options);
    ASSERT_NE(service.mutator(), nullptr);

    QueryGeneratorConfig gconfig;
    gconfig.seed = seed;
    gconfig.min_keywords = 1;
    gconfig.max_keywords = 2;
    RandomQueryGenerator generator(fc.index.get(), gconfig);

    size_t applied = 0;
    for (size_t q = 0; q < 4; ++q) {
      for (size_t m = 0; m < mutation_rate; ++m) {
        const Mutation mutation = RandomMutation(&rng, fc, vocab);
        Status st = service.ApplyMutation(mutation);
        // Injected faults and races with earlier deletes are expected;
        // anything else is a mutator bug.
        if (st.ok()) {
          ++applied;
        } else {
          ASSERT_TRUE(st.code() == StatusCode::kUnavailable ||
                      st.code() == StatusCode::kInvalidArgument ||
                      st.code() == StatusCode::kFailedPrecondition ||
                      st.code() == StatusCode::kNotFound)
              << "seed " << seed << ": " << st.ToString();
        }
      }

      const std::string query = generator.Next();
      // Fresh-world oracle: serial debugger + index rebuilt from scratch.
      std::string want;
      {
        const InvertedIndex rebuilt = InvertedIndex::Build(*fc.db);
        NonAnswerDebugger serial(fc.db.get(), fc.lattice.get(), &rebuilt);
        auto report = serial.Debug(query);
        ASSERT_TRUE(report.ok()) << report.status().ToString();
        want = report->ClassificationSignature();
      }
      BatchResult batch = service.RunBatch({query, query});
      ASSERT_TRUE(batch.status.ok());
      for (const QueryResult& r : batch.results) {
        ASSERT_TRUE(r.status.ok()) << r.status.ToString();
        ASSERT_EQ(r.report.ClassificationSignature(), want)
            << "stale verdict after live writes: iteration " << iter
            << ", seed " << seed << ", strategy "
            << TraversalKindName(strategy) << ", query \"" << query << "\" ("
            << applied << " mutation(s) applied; repro: KWSDBG_FUZZ_SEED="
            << seed << " KWSDBG_FUZZ_ITERS=1 KWSDBG_MUTATION_RATE="
            << mutation_rate << ")";
      }
    }
    EXPECT_GT(applied, 0u) << "seed " << seed;
  }
}

TEST(DifferentialFuzzTest, AllRunnersAgreeOnRandomInstances) {
  const size_t iters = EnvSize("KWSDBG_FUZZ_ITERS", 25);
  const uint64_t base_seed = EnvSize("KWSDBG_FUZZ_SEED", 1234);
  std::printf("fuzz: %zu iteration(s), base seed %llu "
              "(KWSDBG_FUZZ_ITERS / KWSDBG_FUZZ_SEED to override)\n",
              iters, static_cast<unsigned long long>(base_seed));

  for (size_t iter = 0; iter < iters; ++iter) {
    const uint64_t seed = base_seed + iter;
    FuzzCase fc = BuildCase(seed);
    Rng rng(seed ^ 0xF00Du);
    QueryGeneratorConfig gconfig;
    gconfig.seed = seed;
    gconfig.min_keywords = 1;
    gconfig.max_keywords = 3;
    RandomQueryGenerator generator(fc.index.get(), gconfig);
    for (size_t q = 0; q < 3; ++q) {
      std::string query = generator.Next();
      // Occasionally splice in a vocabulary miss (exercises the
      // missing-keyword early-out) or the paper's frontier query.
      if (rng.Bernoulli(0.15)) query += " zzzunbound";
      if (rng.Bernoulli(0.15)) query = "saffron candle";
      std::optional<std::string> failure = Disagreement(fc, seed, query);
      if (failure.has_value()) {
        const std::string minimized = Minimize(fc, seed, query);
        FAIL() << "iteration " << iter << ", seed " << seed << ", query \""
               << query << "\": " << *failure
               << "\n  minimized repro: KWSDBG_FUZZ_SEED=" << seed
               << " KWSDBG_FUZZ_ITERS=1, query \"" << minimized << "\"";
      }
    }
  }
}

}  // namespace
}  // namespace kwsdbg
