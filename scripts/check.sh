#!/bin/sh
# Full local gate: vet, build, and the whole test suite under the race
# detector (the fleet scheduler is the main concurrency surface), plus
# the chaos suite, a coverage floor on the core detection packages, and
# the deterministic ghostfuzz smoke runs.
set -eu
cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> chaos suite under -race (fault-injection property tests)"
go test -race -run 'TestChaos|TestEmptyFaultPlanByteIdentity' ./internal/ghostfuzz/

echo "==> crash-resume matrix under -race (kill at sched/mid/last offsets, torn tail, bit flip)"
go test -race -run 'TestChaosCrashResume' ./internal/ghostfuzz/
go test -race -run 'TestResumeReplaysCommittedHosts|TestResumeContinuesAttemptNumbering|TestResumeRejects|TestResumeInteriorCorruptionIsLoud|TestBreaker|TestAbortAfterFailureFraction' ./internal/fleet/
go test -race -run 'TestTornTailRecovered|TestBitFlipIsLoud|TestInteriorTruncationIsLoud' ./internal/journal/

echo "==> sharded control-plane matrix under -race (shard loss, topology independence, bounded residency)"
go test -race -run 'TestShardCrashResumeReproducesMergedDigest|TestResumeAfterTotalLoss|TestResumeRestartsHeaderlessShardJournal|TestMergedDigestIndependentOfShardTopology|TestBoundedResidentResults|TestShardBreakerQuarantines|TestShardErrorBudgetAborts' ./internal/fleetshard/

echo "==> daemon smoke under -race (boot, API sweep, graceful drain; locked-profile API rejections)"
go test -race -run 'TestRunSmoke|TestRunFlagValidation' ./cmd/ghostbusterd/
go test -race -run 'TestHTTPLockedProfileRejectsWeakening|TestCrashResumeDigestEquality|TestGracefulShutdownDrainsInFlightSweep' ./internal/daemon/

echo "==> supervision matrix under -race (wedge failover, wedge-crash resume, hedged stragglers, jittered retries, cancel-seal, every option in every sweep entry point, CLI mode-flag rejection)"
go test -race -run 'TestSupervisionChaos' ./internal/ghostfuzz/
go test -race -run 'TestWatchdog|TestWedge|TestResumeOfCompletedWedgeRun' ./internal/fleetshard/
go test -race -run 'TestHedged|TestCancelSealsPartialSummaryAndResumes|TestJittered|TestResultCancelledDetectsCasualties|TestEntryPointOptionMatrix' ./internal/fleet/
go test -race -run 'TestFlagsRejectedOutsideTheirMode|TestSupervisionFlags' ./cmd/ghostbuster/

echo "==> daemon overload control under -race (admission 429/Retry-After, readyz draining, slow SSE consumers never stall sweeps)"
go test -race -run 'TestSweepAdmission|TestReadyzTracksDraining|TestSlowSubscriberDropsWithoutStallingSweeps|TestSubscriberChurnDuringSweeps' ./internal/daemon/

echo "==> next-gen family matrix under -race (evasive differential, naive-miss/counter-catch, boot+removable chaos, removable delta scheduling)"
go test -race -run 'TestEvasive|TestNextGenNaiveMissCounterCatch|TestChaosBootRemovableLoudNeverSilent' ./internal/ghostfuzz/
go test -race -run 'TestRemovableHotplugTriggersDeltaSweep' ./internal/daemon/

echo "==> detector option matrix under -race (every option through every scan method; multi-lane cells fork lanes)"
go test -race -run 'TestDetectorOptionMatrix' ./internal/core/

echo "==> single-pair CLI scan honours -contain and -order-seed (exit 1 = infection found)"
bin=$(mktemp -d)
go build -o "$bin/ghostbuster" ./cmd/ghostbuster
rc=0
"$bin/ghostbuster" -infect "Hacker Defender 1.0" -scan files -contain -order-seed 3 > /dev/null || rc=$?
rm -rf "$bin"
test "$rc" -eq 1

echo "==> randomized-order alloc gate (nonzero OrderSeed adds nothing per entry to the warm diff path)"
go test -run 'TestScanOrderAllocs|TestOrderedWarmSweepAllocs' ./internal/core/

echo "==> coverage floor (>= 70% on the detection core, cross-time/kmem truth sources, daemon, supervision, and profile store)"
go test -cover ./internal/core/ ./internal/ntfs/ ./internal/hive/ ./internal/crosstime/ ./internal/kmem/ ./internal/fleet/ ./internal/fleetshard/ ./internal/journal/ ./internal/daemon/ ./internal/profile/ ./internal/supervise/ |
	awk '
		/coverage:/ {
			pct = $5; sub(/%.*/, "", pct)
			printf "    %-32s %s%%\n", $2, pct
			if (pct + 0 < 70) { printf "FAIL: %s coverage %s%% < 70%%\n", $2, pct; bad = 1 }
		}
		END { exit bad }
	'

echo "==> perf gate (sweepbench vs committed BENCH_sweep.json, deterministic metrics)"
sh scripts/benchgate.sh

echo "==> ghostfuzz smoke (fixed seed, 50 cases)"
go run ./cmd/ghostfuzz -seed 1 -n 50 > /dev/null

echo "==> ghostfuzz chaos smoke (fixed seed, 25 faulted cases)"
go run ./cmd/ghostfuzz -seed 1 -n 25 -faulted > /dev/null

echo "==> ghostfuzz crash-resume smoke (fixed seed, 2 killed sweeps)"
go run ./cmd/ghostfuzz -seed 1 -crashed 2 > /dev/null

echo "==> ghostfuzz sharded crash-resume smoke (fixed seed, 2 sweeps, 3 shards)"
go run ./cmd/ghostfuzz -seed 1 -crashed 2 -shards 3 > /dev/null

echo "==> ghostfuzz supervision chaos smoke (fixed seed, wedge/straggler/jitter matrix, 3 shards)"
go run ./cmd/ghostfuzz -seed 131 -supervised 1 -shards 3 > /dev/null

echo "OK"
