#!/bin/sh
# check.sh — the repo's verification gate, split into named stages so CI
# failures are attributable at a glance:
#
#   check.sh lint    docs/gofmt/vet, tcqlint incl. -ignores audit (blocking),
#                    internal/ reachability audit (packages and exported
#                    functions), staticcheck (blocking when
#                    TCQ_REQUIRE_STATICCHECK=1)
#   check.sh test    build + full test suite, benchmark module vet + tests,
#                    arrangement and storage coverage floors
#   check.sh race    race-instrumented suite, chaos campaign, soak x50,
#                    window delivery x20, differential matrix x3, drift
#                    pin x20, pane dictionary x20, shared-class reuse x20,
#                    last member out and arrangement walk x20, pull-log
#                    ring x20, join state x20, wire flushes, FEED runs,
#                    STRING fields across buffer refills and EO wake x20,
#                    fed rows kept by no one x20, worker
#                    pipeline x20, fuzz smoke (parser and its loop
#                    round trip, CSV, plan, grouped filter, row log)
#   check.sh bench   four smokes with no threshold: BenchmarkWindowFire,
#                    BenchmarkPullPublish, BenchmarkGroupedFilterProbe and
#                    BenchmarkFeedRun must run and print their numbers.
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

    # The -ignores audit runs the full suite (clock, owner, alloc, lock
    # order; tcqlint -list), prints any live findings, and additionally
    # fails on stale //lint:ignore directives — suppressions whose excused
    # code has since been fixed or deleted.
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
    # justify itself (ROADMAP item 13). The packages below are the ones that
    # do so today: leakcheck is test-only by design; flux (the paper's Flux,
    # experiment E6) and psoup are reached only from tests, examples and root
    # bench_test.go. Anything else falling off fails here.
    echo "==> reachability: internal/ packages no binary, Open or benchmark reaches"
    deps=$( { go list -deps ./cmd/tcqd ./cmd/tcq ./cmd/tcqgen ./cmd/tcqlint .
              (cd benchmark && go list -deps .); } | grep '^telegraphcq/internal/' | sort -u)
    reached=$(echo "$deps" | sed 's|^telegraphcq/internal/\([^/]*\).*|\1|' | sort -u)
    islands=$(ls internal | grep -vxF "$reached" | tr '\n' ' ')
    if [ "$islands" != "flux leakcheck psoup " ]; then
        echo "unreachable internal/ packages: ${islands}(want: flux leakcheck psoup)" >&2
        exit 1
    fi

    # A reached package can still hold a layer nothing outside it uses. So
    # the same holds one level down: an exported package-level function of
    # a reached internal/ package that no non-test file outside its package
    # names (comment lines aside) must be on the list below. Today they are
    # test and fixture entry points (baseline, chaos.New, lint.Run), the
    # analyzers checks.All bundles, the fjord pull modality experiment E1
    # drives, and constructors only tests or sibling helpers call. A new
    # name fails here until it is used or listed; a listed name that gains a
    # caller or goes fails until it is struck off.
    echo "==> reachability: exported functions no other package calls"
    users=$(find . -path './.*' -prune -o -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print)
    unused=$(go list -f '{{.ImportPath}} {{.Name}}' $deps | while read -r path name; do
        dir=./${path#telegraphcq/}
        named=$(echo "$users" | grep -v "^$dir/[^/]*\$" | xargs grep -hv '^[[:space:]]*//' |
            grep -ow "$name\.[A-Z][A-Za-z0-9_]*" | sort -u)
        ls "$dir"/*.go | grep -v '_test\.go$' |
            xargs sed -n "s/^func \([A-Z][A-Za-z0-9_]*\)[[(].*/$name.\1/p" | sort -u |
            grep -vxF -e "$named" || true
    done | sort | xargs)
    want=$(echo "
        baseline.Aggregate baseline.Canonical baseline.Diff baseline.FireInOrder
        baseline.FireOne baseline.FirstN baseline.NewPerQueryJoin
        chaos.New chaos.NewVirtual
        checks.AllocCheck checks.ClockCheck checks.LockCheck
        checks.NewRepoSummaries checks.OwnerCheck
        eddy.NewFixedPolicy eddy.PolicyName executor.NewWithClock
        fjord.Pipeline fjord.Transform
        introspect.ArrangeSchema introspect.ChaosSchema introspect.PoolSchema
        introspect.RoutesSchema introspect.StatsSchema
        lint.Run lint.RunFixture metrics.NewHistogram metrics.NewHistogramSeeded
        ops.NewFilter sql.BindPlan sql.Parse
        window.Backward window.Landmark window.Sliding window.SlidingForever
        window.Snapshot
        workload.Describe workload.DriftSchema workload.PacketSchema
        workload.SensorSchema" | xargs)
    if [ "$unused" != "$want" ]; then
        echo "exported functions no other package calls, not listed:" \
            "$(printf '%s\n' $unused | grep -vxF -e "$(printf '%s\n' $want)" | xargs)" >&2
        echo "listed, but now called or gone:" \
            "$(printf '%s\n' $want | grep -vxF -e "$(printf '%s\n' $unused)" | xargs)" >&2
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

    # The arrangement layer is the engine's join-state backbone: one
    # writer, concurrent readers, encoded values under a pointer-free index.
    # storage.Log is the one row container under it, the pull logs and
    # stream history. Hold both packages' line coverage to a floor so
    # neither drifts out from under its tests.
    for pkg in arrange storage; do
        echo "==> coverage floor: internal/$pkg >= 85%"
        profile=$(mktemp)
        go test -coverprofile="$profile" ./internal/$pkg/ > /dev/null
        cov=$(go tool cover -func="$profile" | awk '/^total:/ {sub(/%/, "", $3); print $3}')
        rm -f "$profile"
        echo "    internal/$pkg coverage: ${cov}%"
        if awk -v c="$cov" 'BEGIN { exit !(c < 85) }'; then
            echo "internal/$pkg coverage ${cov}% is below the 85% floor" >&2
            exit 1
        fi
    done
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

    # Every query shape at every configuration against the plain-Go
    # reference (TESTING.md, "The differential matrix"), results read while
    # the engine races the feeder. The focused gates named after the
    # pairwise tests it replaced are slices of it. A pass is 216 engines, so
    # three passes are a long race campaign.
    echo "==> differential matrix under race (-count=3)"
    go test -race -count=3 -run '^TestDifferentialMatrix$' ./internal/core/

    # On the E18 drift star the default engine must make fewer module visits
    # than every static probe order. That margin moves with drain boundaries
    # from run to run, so twenty passes show it shrinking before it flips.
    echo "==> routing rule under race: drift pin (-count=20)"
    go test -race -count=20 -run 'TestAdaptiveProbeOrderBeatsEveryStaticOrderUnderDrift' ./internal/core/

    # A sliding GROUP BY over ever-new keys keeps only the window's groups.
    echo "==> pane dictionary under race (-count=20)"
    go test -race -count=20 -run 'TestSlidingGroupsForgetEvictedKeys' ./internal/core/

    # A selection class returns every row no member kept to the tuple pool,
    # and a member writes its next projected row into the last one nobody
    # kept, while push clients, sinks and cursors still read the rows that
    # were kept; lineage comes off a row before it is delivered: hold the
    # steady-state allocation bound, the lineage-free delivery and the two
    # use-after-free differentials to twenty race-instrumented passes, and
    # beside them the eddy's one hop clock: sampled latency per module, and
    # probe orders that do not depend on it.
    echo "==> shared-class row and lineage reuse, hop sampler under race (-count=20)"
    go test -race -count=20 -run 'TestSharedClassSteadyStateAllocs|TestSharedDeliveryCarriesNoLineage|TestSharedReleaseIsUseAfterFreeSafe|TestClientRowsAreNeverReused|TestOneHopSampler' ./internal/core/ ./internal/eddy/

    # The last member out retires its join class while other goroutines
    # register into the same key, and the arrangement gauges and tcq.arrange
    # walk the live classes while classes retire: hold the retirement's
    # bookkeeping and what the walk reports to twenty race-instrumented
    # passes.
    # A selection class at Workers>1 runs on pipeline shards: whole drained
    # batches go round-robin to the shards, the merge delivers their results
    # in batch order, member changes wait for an empty pipeline, and rows
    # and lineage bitmaps go back to the shard that routed them. Hold the
    # pipeline's tests and its allocation pin to twenty race-instrumented
    # passes.
    echo "==> worker pipeline under race: batch order, barriers, reuse (-count=20)"
    go test -race -count=20 -run 'TestParallel|TestStatsAddMatchesBarrierSnapshot' ./internal/eddy/ ./internal/cacq/
    go test -race -count=20 -run 'TestParallel|TestSharedClassSteadyStateAllocs/workers2' ./internal/core/

    echo "==> join classes under race: last member out, arrangement walk (-count=20)"
    go test -race -count=20 -run 'TestLastMemberOutRetiresClass|TestArrangeStreamFollowsLiveClasses' ./internal/core/

    # The pull log is a storage.Log that the publisher fills and ages out
    # while cursors read it, all under one mutex: the model test
    # checks every observable against the slice it replaced, the concurrent
    # test wraps the ring under a racing Fetch and FetchEncoded. (The window
    # tests above race a client against the same log from the query's side.)
    echo "==> pull-log ring under race: slice model, concurrent fetch (-count=20)"
    go test -race -count=20 -run 'TestPullRingMatchesSliceModel|TestPullRingConcurrentFetch' ./internal/egress/

    # An arrangement keeps encoded values that probes decode under its read
    # lock while the writer inserts, evicts and scrubs, and a class hands
    # every built row back to the tuple pool once its routing ends: hold the
    # store to its slice model and its concurrent readers, and the join's
    # allocation and byte bounds, to twenty race-instrumented passes.
    echo "==> join state keeps values under race: slice model, readers, bounds (-count=20)"
    go test -race -count=20 -run 'TestArrangementMatchesSliceModel|TestArrangementConcurrentReads' ./internal/arrange/
    go test -race -count=20 -run 'TestJoinSteadyStateAllocs|TestJoinStoredBytesPerRow|TestArrangementBytesGauge' ./internal/core/

    # Replies are buffered and flushed when a FrontEnd's input is drained,
    # while SUBSCRIBE pushers write the same buffer from their goroutines; a
    # read's FEED lines of any streams are fed as one run, each stream's
    # lines in one FeedMany whose fan-out takes its clones from the pool in
    # one call; each line is parsed in the read buffer, which the next read
    # overwrites; an idle EO parks until a queue push rouses it. Hold the
    # reply order, pipelined against one line per write and around a
    # refused line, the write counts, the SUBSCRIBE reply, the run's pool
    # traffic and allocations, STRING fields across buffer refills, and the
    # park/rouse handshake to twenty race-instrumented passes.
    echo "==> wire flushes, FEED runs and EO wake under race (-count=20)"
    go test -race -count=20 -run 'TestPipelinedFeedsFlushPerRead|TestFetchWritesPerBuffer|TestPipelinedRepliesInCommandOrder|TestPipelinedFeedsMatchOnePerWrite|TestSpoolErrorEndsRunInPlace|TestPipelinedFeedBurstAllocs|TestFeedStringColumnSurvivesBufferReuse|TestOverlongLineIsRefused|TestSubscribeReplyPrecedesPushedRows|TestUnknownCommandsShareOneSeries' ./internal/server/
    go test -race -count=20 -run 'TestWarmFeedManyAllocatesNothing|TestFeedRunCountsPoolTraffic' ./internal/core/
    go test -race -count=20 -run 'TestIdleEOWakesOnEnqueue|TestParkedEORechecksOnTimer|TestIdleDUsDoNotSpinHot' ./internal/executor/

    # Every push reader follows its query's result log: a wake per publish,
    # a fetch of what the log gained, and a reader that waits on its own
    # client instead of dropping rows. Hold the wake slot, SUBSCRIBE against
    # FETCH, the slow reader's delivered + missed, the in-process
    # subscriptions' endings, order and Unsubscribe, and the subscribed
    # burst's allocations to twenty race-instrumented passes.
    echo "==> push readers follow the result log under race (-count=20)"
    go test -race -count=20 -run 'TestPullFollow' ./internal/egress/
    go test -race -count=20 -run 'TestFollower' ./internal/core/
    go test -race -count=20 -run 'TestFollowSubscribeMatchesFetch|TestSubscribeReplyPrecedesPushedRows|TestPipelinedFeedBurstAllocs/subscribed' ./internal/server/
    go test -race -count=20 -run 'TestSubscribe|TestUnsubscribe' .

    # Front-door rows are reused the moment Feed returns: history and the
    # spool must keep a fed row's values, never the row. Past its cap the
    # history ages out its oldest rows while a registration decodes it, and
    # the spool ages out segments that a scan has listed.
    echo "==> fed rows kept by no one under race (-count=20)"
    go test -race -count=20 -run 'TestFeedRetainsNoRow|TestHistoryKeepsNewestRowsPastCap|TestSpoolReadsRaceAgeOut' ./internal/core/
    go test -race -count=20 -run 'TestSpooledRunsKeepTheirValues' ./internal/server/

    echo "==> fuzz smoke (5s per target)"
    go test -fuzz='^FuzzParse$' -fuzztime=5s -run '^$' ./internal/sql/
    go test -fuzz=FuzzParseLoop -fuzztime=5s -run '^$' ./internal/sql/
    go test -fuzz=FuzzParseCSV -fuzztime=5s -run '^$' ./internal/ingress/
    go test -fuzz=FuzzRegisterPlan -fuzztime=5s -run '^$' ./internal/core/
    go test -fuzz=FuzzGroupedFilter -fuzztime=5s -run '^$' ./internal/gfilter/
    go test -fuzz=FuzzLog -fuzztime=5s -run '^$' ./internal/storage/
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

    # One grouped-filter probe (Apply on one tuple) at one factor, at the
    # 1,000 disjoint ranges of shared_cqs_embedded and at 100,000 factors.
    # Every probe must report 0 allocs/op; the ns/op are for the next
    # filter change to compare against (before the flat kernel, the 1,000
    # ranges took ~1,270 ns a probe, after it ~220 on the same machine).
    echo "==> bench smoke: BenchmarkGroupedFilterProbe (100,000 probes each, no threshold)"
    go test -run '^$' -bench BenchmarkGroupedFilterProbe -benchtime=100000x ./internal/gfilter/

    # The front door under join_fetch_wire: 4,096 FEED lines alternating
    # between the two sides of a standing equijoin, through a FrontEnd over
    # an in-memory pipe. It prints ns and allocations per line, join work
    # included (about 1,250 ns and 1.2 allocs after FEED runs spanned
    # streams, ~2,000 ns before, on a 2-vCPU Xeon).
    echo "==> bench smoke: BenchmarkFeedRun (20 x 4,096 lines, no threshold)"
    go test -run '^$' -bench BenchmarkFeedRun -benchtime=20x ./internal/server/
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
