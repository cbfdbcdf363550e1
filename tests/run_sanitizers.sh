#!/usr/bin/env bash
# Sanitizer wall for the concurrency-sensitive surface: builds the asan,
# tsan, and ubsan presets (see CMakePresets.json) and runs the test subset
# that exercises threads, the shared verdict cache, cancellation, the
# service layer, and the durability/crash-recovery paths under each. The
# differential fuzzer runs with a raised iteration count; override with
# KWSDBG_FUZZ_ITERS / KWSDBG_FUZZ_SEED to reproduce a specific failure
# (each test prints its seeds). The standalone ubsan preset exists because
# asan's combined address+undefined mode can mask UB reports behind
# earlier address errors; it also halts on the first report so CI fails
# instead of scrolling warnings past.
#
#   tests/run_sanitizers.sh               # all three sanitizers
#   tests/run_sanitizers.sh tsan          # any subset of: asan tsan ubsan
#   KWSDBG_FUZZ_ITERS=500 tests/run_sanitizers.sh
set -euo pipefail
cd "$(dirname "$0")/.."

export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"

# gtest case names (not binaries): ctest -R matches the discovered tests.
# Every `|`-separated entry must match at least one test in the preset's
# build, or the run fails (a renamed suite would otherwise silently drop
# out of the wall). The *_smoke entries are bench gates, so the script
# configures each preset with benchmarks on. resilience_smoke is the
# fault-schedule replay gate (bench/resilience_workload) and bench_smoke
# the executor gate (bench/executor_probe_workload: v1-vs-default
# classification parity, flat-index probes, and the existence microbench's
# plain and prefetched probe loops agreeing on hit counts).
# FlatRowIndexTest covers the flat probe engine the batched join pipeline and
# the differential fuzzer lean on. The storage-tier set (BufferPoolTest,
# SpillTest, SpillEpochTest, PostingStoreTest, ExecutorSpillTest,
# storage_tier_smoke) runs here for asan's sake: the out-of-core tier hands
# out references into evictable frames, exactly the lifetime bugs asan sees.
# The tier is read-only, and five cases are named on their own so a rename
# cannot drop them: SpilledTableRefusesEveryWrite and
# SpilledIndexRefusesEveryWrite call every writer of a spilled table and
# index and demand kFailedPrecondition with rows, postings, counters and
# the pool's charge unchanged (asan sees a refusal that touched a frame
# first), LiveMutatorInsertOverSpilledIndexTombstonesRow drives the
# mutator's rollback over a spilled index,
# LiveMutatorRefusesWritesToASpilledTable its up-front refusal, and
# SpilledEngineLeavesDurabilityDirAlone checks that a refused service
# never replays its log into spilled tables.
# The live-write set (MutationTest, IncrementalIndexTest, LiveMutationTest —
# whose ConcurrentWritesWhileQuerying is the tsan target for the
# write-while-querying interleaving — plus mutation_smoke and the chaos
# mutation layer inside DifferentialFuzzTest) exercises in-place posting
# patches, arena compaction, and relation-fenced writes under both tools;
# KWSDBG_MUTATION_RATE scales writes per query in the chaos fuzzer.
# The durability set (WalTest, CheckpointTest, DurableServiceTest,
# RelationFencesTest — whose GuardsInterleaveWithLiveMutatorApply is a tsan
# target — and the crash wall: CrashRecoveryTest + durability_smoke, the
# `crash`-labeled forked power-cut cycles) runs the WAL framing, the
# checkpoint codec, and recovery replay under all three tools; ubsan in
# particular watches the byte-level frame encode/decode paths.
# The adaptive set (PaModelTest, AdaptiveColdStartTest, AdaptiveParityTest,
# AdaptiveDriftTest, PaObservationCountTest — whose
# ConcurrentObserverDoesNotLeakIntoRunCount is the tsan target for a run
# racing another observer on one model — plus adaptive_smoke, the gate in
# bench/adaptive_workload) runs here for tsan's sake: the p_a model is a
# lock-free atomic-counter table shared across service workers, and its
# decay path (SyncDataVersion) CAS-races against concurrent observers.
# LatticeIoTest decodes untrusted lattice files: ubsan watches the narrowing
# of parsed ids and counts, asan the forged-count paths that must fail
# typed instead of sizing an allocation.
# ExecutorPropertyTest is the executor's only index-free oracle (a
# nested-loop join) and covers the one executor stage that reads candidate
# rows: the backtracking join, child-probe prefetch window included.
# PrunedLatticeOracleTest compares Phases 1-2 on the copy-set index with
# the per-node lattice scan they replaced, and the local-id view Phase 3
# reads against the lattice's own links: asan watches the closure rows and
# CSR child spans indexed by local id. StrategiesTest,
# StrategyAgreementTest, NodeStatusTest, InteractiveSessionTest (with its
# DBLife case, whose rows span several words) and FrontierTest drive the
# readers of that view: the level sweep, SBH's W/A/D state, R1/R2 as word
# ORs, frontier extraction and the DOT renderer, so asan sees any read past
# a row's R bits.
# CounterFlowTest debugs a spilled toy database: asan watches the evictable
# frames its page reads go through. Buffer-pool frames keep the page image
# and decode a row on first touch, so three cases aim at that:
# PageCodecTest.SeededMutationsAgreeAcrossDecodeAndPoolFetch runs 10k
# seeded byte mutations through DecodeRows and through the pool's
# validating walk and per-row decode (asan and ubsan watch the forged
# counts and lengths); BufferPoolTest's
# ReferenceStaysValidAcrossCapacityMinusOneFetches holds a row reference
# while every other row of its frame decodes (asan sees a slot that
# moves). DebugServiceTest's SpilledEngine* cases are the tsan
# side: a service with two workers or a write path over a spilled engine
# fails every request kFailedPrecondition before a worker touches the pool.
# Frames are charged by the bytes they hold against a byte budget and free
# their slots on eviction, so BufferPoolTest's
# PropertyByteBudgetChargeAndReferenceWindow runs a seeded run of fetches
# over extents of mixed sizes holding heap strings (asan sees a reference
# in the contract's window whose frame a multi-frame eviction freed);
# SpillTest's StorageStatsShowThePoolsFramesChargeAndBudget recounts the
# charge.
# NodePlanParityTest runs every Table 2 node of a resident and a spilled
# DBLife through both executor front ends (resolved node plans and compiled
# query strings): asan watches the candidate spans the join takes straight
# from cached match sets, their membership bitsets, and the probe keys read
# through evictable frames. EvaluatorTest's
# WriteBetweenVerdictsFlipsLikeAFreshExecutor writes between two verdicts of
# one session, so asan sees a span or bitset that outlives its dropped match
# set. The service's shared index tier, where resolved index pointers are
# held for one query, stays covered under tsan by SharedCacheEpochTest,
# LiveMutationTest and the chaos layer of DifferentialFuzzTest.
# NodeTextParityTest renders every Table 2 node's report text both ways:
# the renderer holds pointers into the schema graph and the tables'
# schemas, and asan sees a dangling name.
CONCURRENCY_TESTS='DifferentialFuzzTest|SharedCacheEpochTest|DebugServiceTest|ServiceParityTest|SubmitTest|ComputeServiceStatsTest|ServiceStatsIntegrationTest|ShardIndexForHashTest|ParallelAgreementTest|LruCacheTest|VerdictCacheTest|FailureInjectionTest|ChaosTest|ChaosFuzzTest|ChaosPropagationTest|FaultInjectorTest|FlatRowIndexTest|BufferPoolTest|PageCodecTest|DiskManagerTest|SpillTest|SpillEpochTest|PostingStoreTest|ExecutorSpillTest|SpilledTableRefusesEveryWrite|SpilledIndexRefusesEveryWrite|LiveMutatorInsertOverSpilledIndexTombstonesRow|LiveMutatorRefusesWritesToASpilledTable|SpilledEngineLeavesDurabilityDirAlone|MutationTest|IncrementalIndexTest|LiveMutationTest|WalTest|CheckpointTest|RelationFencesTest|DurableServiceTest|CrashRecoveryTest|resilience_smoke|bench_smoke|service_scale_smoke|storage_tier_smoke|mutation_smoke|durability_smoke|PaModelTest|AdaptiveColdStartTest|AdaptiveParityTest|AdaptiveDriftTest|PaObservationCountTest|adaptive_smoke|LatticeIoTest|ExecutorPropertyTest|PrunedLatticeOracleTest|CounterFlowTest|NodePlanParityTest|NodeTextParityTest|EvaluatorTest|StrategiesTest|StrategyAgreementTest|NodeStatusTest|InteractiveSessionTest|InteractiveSessionDblifeTest|FrontierTest'

: "${KWSDBG_FUZZ_ITERS:=200}"
export KWSDBG_FUZZ_ITERS

# Fails when an entry of CONCURRENCY_TESTS matches no test in `preset`.
check_entries() {
  local preset="$1" entry count missing=0
  local entries
  IFS='|' read -ra entries <<< "$CONCURRENCY_TESTS"
  for entry in "${entries[@]}"; do
    count="$(ctest --preset "$preset" -N -R "$entry" |
             sed -n 's/^Total Tests: //p')"
    if [ "${count:-0}" -eq 0 ]; then
      echo "CONCURRENCY_TESTS entry '$entry' matches no test in [$preset]" >&2
      missing=1
    fi
  done
  return "$missing"
}

run_preset() {
  local preset="$1"
  echo "=== [$preset] configure + build ==="
  cmake --preset "$preset" -DKWSDBG_BUILD_BENCHMARKS=ON
  cmake --build --preset "$preset" -j "$(nproc)"
  check_entries "$preset"
  echo "=== [$preset] ctest -R ($KWSDBG_FUZZ_ITERS fuzz iterations) ==="
  ctest --preset "$preset" -R "$CONCURRENCY_TESTS" --output-on-failure
}

presets=("${@:-asan}")
if [ "$#" -eq 0 ]; then presets=(asan tsan ubsan); fi
for preset in "${presets[@]}"; do
  case "$preset" in
    asan|tsan|ubsan) run_preset "$preset" ;;
    *) echo "unknown preset '$preset' (want: asan tsan ubsan)" >&2; exit 2 ;;
  esac
done
echo "=== sanitizer wall clean ==="
