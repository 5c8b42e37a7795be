#!/bin/sh
# check.sh — the repo's verification gate, split into named stages so CI
# failures are attributable at a glance:
#
#   check.sh lint    docs/gofmt/vet, tcqlint incl. -ignores audit (blocking),
#                    internal/ reachability audit, staticcheck (blocking when
#                    TCQ_REQUIRE_STATICCHECK=1)
#   check.sh test    build + full test suite, benchmark module vet + tests,
#                    arrangement coverage floor
#   check.sh race    race-instrumented suite, chaos campaign, soak x50,
#                    window delivery x20, routing rule x20, panes against
#                    the rescan x20, shared-class reuse x20, pull-log ring
#                    x20, wire flushes and EO wake x20, fuzz smoke
#   check.sh bench   two smokes with no threshold: BenchmarkWindowFire and
#                    BenchmarkPullPublish must run and print their numbers.
#                    Whether a change made anything slower is the benchmark
#                    module's question: cd benchmark && go run . -compare
#   check.sh [all]   every stage in order
set -eu
cd "$(dirname "$0")/.."

stage_lint() {
    echo "==> godoc coverage (every package documents itself)"
    missing=0
    for dir in internal/*/; do
        pkg=$(basename "$dir")
        if ! grep -qE "^// Package $pkg " "$dir"*.go 2>/dev/null; then
            echo "no '// Package $pkg ...' comment in $dir" >&2
            missing=1
        fi
    done
    grep -qE "^// Package telegraphcq " ./*.go || {
        echo "no '// Package telegraphcq ...' comment in the root package" >&2
        missing=1
    }
    for dir in cmd/*/; do
        c=$(basename "$dir")
        if ! grep -qE "^// Command $c " "$dir"*.go 2>/dev/null; then
            echo "no '// Command $c ...' comment in $dir" >&2
            missing=1
        fi
    done
    [ "$missing" -eq 0 ] || exit 1

    echo "==> gofmt"
    unformatted=$(gofmt -l .)
    if [ -n "$unformatted" ]; then
        echo "gofmt needed on:" >&2
        echo "$unformatted" >&2
        exit 1
    fi

    echo "==> go vet ./..."
    go vet ./...

    # The -ignores audit runs the full seven-analyzer suite (clock, owner,
    # alloc, chan, lineage, metrics, lock order), prints any live
    # findings, and additionally fails on stale //lint:ignore directives —
    # suppressions whose excused code has since been fixed or deleted.
    # The ledger lands in reports/ so CI can attach it on failure.
    echo "==> tcqlint -ignores ./... (engine invariants + suppression audit)"
    mkdir -p reports
    if go run ./cmd/tcqlint -ignores ./... > reports/tcqlint.txt 2>&1; then
        grep -c '^' reports/tcqlint.txt | xargs -I{} echo "    {} ledger line(s) in reports/tcqlint.txt"
    else
        cat reports/tcqlint.txt >&2
        exit 1
    fi

    # Code no binary, no Open caller and no benchmark run can reach has to
    # justify itself (ROADMAP item 6). The packages below are the ones that
    # do so today: leakcheck is test-only by design; cluster, flux and psoup
    # are reached only from tests, examples and root bench_test.go and await
    # that item's decision. Anything else falling off fails here.
    echo "==> reachability: internal/ packages no binary, Open or benchmark reaches"
    reached=$( { go list -deps ./cmd/tcqd ./cmd/tcq ./cmd/tcqgen ./cmd/tcqlint .
                 (cd benchmark && go list -deps .); } |
        sed -n 's|^telegraphcq/internal/\([^/]*\).*|\1|p' | sort -u)
    islands=$(ls internal | grep -vxF "$reached" | tr '\n' ' ')
    if [ "$islands" != "cluster flux leakcheck psoup " ]; then
        echo "unreachable internal/ packages: ${islands}(want: cluster flux leakcheck psoup)" >&2
        exit 1
    fi

    if command -v staticcheck >/dev/null 2>&1; then
        echo "==> staticcheck ./..."
        staticcheck ./...
    elif [ "${TCQ_REQUIRE_STATICCHECK:-0}" = "1" ]; then
        echo "staticcheck required (TCQ_REQUIRE_STATICCHECK=1) but not installed" >&2
        exit 1
    else
        echo "==> staticcheck not installed; skipping (CI installs a pinned version and sets TCQ_REQUIRE_STATICCHECK=1)"
    fi
}

stage_test() {
    echo "==> go build ./..."
    go build ./...

    echo "==> go test ./..."
    go test ./...

    # The repo benchmark is its own module (benchmark/go.mod, replace
    # telegraphcq => ../), so ./... above does not reach it. Its tests drive
    # the engine through the exported surface the benchmark depends on
    # (eddy.New, cacq.New/AddQuery/IngestBatch, core.NewEngine, ...): an
    # API break there fails here rather than in the next benchmark run.
    echo "==> benchmark module: go vet + go test"
    (cd benchmark && go vet ./... && go test ./...)

    # The arrangement layer is the engine's shared-state backbone: one
    # writer, many cursors, epoch-deferred frees. Hold its line coverage to
    # a floor so the cursor/epoch protocol never drifts out from under its
    # tests.
    echo "==> coverage floor: internal/arrange >= 85%"
    profile=$(mktemp)
    go test -coverprofile="$profile" ./internal/arrange/ > /dev/null
    cov=$(go tool cover -func="$profile" | awk '/^total:/ {sub(/%/, "", $3); print $3}')
    rm -f "$profile"
    echo "    internal/arrange coverage: ${cov}%"
    if awk -v c="$cov" 'BEGIN { exit !(c < 85) }'; then
        echo "internal/arrange coverage ${cov}% is below the 85% floor" >&2
        exit 1
    fi
}

stage_race() {
    echo "==> go test -race ./..."
    go test -race ./...

    # The in-suite campaigns already ran above at their default trial
    # counts; this stage re-runs them race-instrumented with fewer trials
    # and a fresh cache so failover interleavings are exercised under the
    # race detector on every invocation.
    echo "==> chaos campaign under race (CHAOS_TRIALS=25)"
    CHAOS_TRIALS=25 go test -race -count=1 -run 'TestChaosCampaign' ./internal/chaos/

    # The soak's windowed-determinism check compares two engines over one
    # chaos-reordered arrival; it was red about one run in four before
    # window firing moved to the arrival position, so hold it to fifty
    # consecutive race-instrumented passes.
    echo "==> full-pipeline soak under race (-count=50)"
    go test -race -count=50 -run 'TestChaosSoakFullPipeline' ./internal/chaos/

    # A window instance reaches egress as one batch of rows no buffer still
    # holds and the result count moves after the rows on every emit path:
    # each is a claim about what a client goroutine racing the engine can
    # observe, so hold all three to twenty race-instrumented passes.
    echo "==> delivery under race: atomic instances, no aliasing, count after rows (-count=20)"
    go test -race -count=20 -run 'TestWindowInstanceAtomic|TestWindowRowsNotAliased|TestResultsNeverAheadOfFetch' ./internal/core/

    # The routing rule picks each eddy's policy from its plan: every join
    # shape, two streams or more, inline or on partitioned shards, must yield
    # its plain-Go multiset at every batch size (the test waits on Results()
    # and then reads, racing the engine), and on the E18 drift star the
    # default engine must make fewer module visits than every static probe
    # order. That margin moves with drain boundaries from run to run, so
    # twenty passes show it shrinking before it flips.
    echo "==> routing rule under race: join multisets, drift pin (-count=20)"
    go test -race -count=20 -run 'TestAdaptiveProbeOrderBeatsEveryStaticOrderUnderDrift|TestBatchEquivalenceJoinMultiset' ./internal/core/

    # A sliding or landmark aggregate folds each row into a pane as it
    # arrives and combines panes at each fire: the differential test holds
    # that to the rescan it replaced across window shapes, time kinds, late
    # and tied rows and batch sizes, with the drain racing the feeder; and a
    # sliding GROUP BY over ever-new keys keeps only the window's groups.
    echo "==> panes against the rescan under race (-count=20)"
    go test -race -count=20 -run 'TestPanesMatchRescan|TestSlidingGroupsForgetEvictedKeys' ./internal/core/

    # A selection class returns every row no member kept to the tuple pool
    # while push clients and cursors still read the rows members did keep,
    # and takes lineage off a row before delivering it: hold the steady-state
    # allocation bound, the lineage-free delivery and the use-after-free
    # differential to twenty race-instrumented passes.
    echo "==> shared-class row and lineage reuse under race (-count=20)"
    go test -race -count=20 -run 'TestSharedClassSteadyStateAllocs|TestSharedDeliveryCarriesNoLineage|TestSharedReleaseIsUseAfterFreeSafe' ./internal/core/

    # The pull log is a ring whose head and count the publisher moves while
    # cursors read it, all under one mutex: the model test checks every
    # observable against the slice it replaced, the concurrent test wraps the
    # ring under a racing Fetch. (The window tests above race a client
    # against the same log from the query's side.)
    echo "==> pull-log ring under race: slice model, concurrent fetch (-count=20)"
    go test -race -count=20 -run 'TestPullRingMatchesSliceModel|TestPullRingConcurrentFetch' ./internal/egress/

    # Replies are buffered and flushed when a FrontEnd's input is drained,
    # while SUBSCRIBE pushers write the same buffer from their goroutines; an
    # idle EO parks until a queue push rouses it. Hold the reply order, the
    # write counts, the SUBSCRIBE reply and the park/rouse handshake to twenty
    # race-instrumented passes.
    echo "==> wire flushes and EO wake under race (-count=20)"
    go test -race -count=20 -run 'TestPipelinedFeedsFlushPerRead|TestFetchWritesPerBuffer|TestPipelinedRepliesInCommandOrder|TestOverlongLineIsRefused|TestSubscribeReplyPrecedesPushedRows|TestUnknownCommandsShareOneSeries' ./internal/server/
    go test -race -count=20 -run 'TestIdleEOWakesOnEnqueue|TestParkedEORechecksOnTimer|TestIdleDUsDoNotSpinHot' ./internal/executor/

    echo "==> fuzz smoke (5s per target)"
    go test -fuzz=FuzzParse -fuzztime=5s -run '^$' ./internal/sql/
    go test -fuzz=FuzzParseLoop -fuzztime=5s -run '^$' ./internal/window/
}

stage_bench() {
    # The per-hop number under window_agg_embedded: one sliding 1,000/100
    # instance over 50 groups, evaluated and delivered into a pull log past
    # its cap. A smoke, not a gate: it must run, and it prints ns, B and
    # allocs per fire for the next window change to compare against.
    echo "==> bench smoke: BenchmarkWindowFire (100 fires, no threshold)"
    go test -run '^$' -bench BenchmarkWindowFire -benchtime=100x ./internal/core/

    # The per-row cost of publishing into a pull log that is still growing
    # and into one at its 65,536-row cap, a row at a time and in 64s: the
    # four should be within a small factor of each other (before the ring,
    # atcap/b1 was ~74,000 ns/row). Also a smoke with no threshold.
    echo "==> bench smoke: BenchmarkPullPublish (1,000 publishes each, no threshold)"
    go test -run '^$' -bench BenchmarkPullPublish -benchtime=1000x ./internal/egress/
}

stage="${1:-all}"
case "$stage" in
lint) stage_lint ;;
test) stage_test ;;
race) stage_race ;;
bench) stage_bench ;;
all)
    stage_lint
    stage_test
    stage_race
    stage_bench
    ;;
*)
    echo "usage: check.sh [lint|test|race|bench|all]" >&2
    exit 2
    ;;
esac

echo "check ($stage): OK"
