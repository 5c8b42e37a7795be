package server

import (
	"io"
	"runtime"
	"testing"
	"time"

	"telegraphcq/internal/chaos"
)

// BenchmarkFeedRun drives a front end over an in-memory pipe with 4,096
// FEED lines alternating between the two sides of a standing equijoin,
// every second line a match, and reports ns and allocations per line, the
// join's work included. Each iteration's keys are new, so the join state
// grows but every iteration finds as many matches.
func BenchmarkFeedRun(b *testing.B) {
	const n = 4096
	e, q := joinEngine(b)
	cli, r, _ := pipeFrontEnd(b, e)
	scripts := make([]string, b.N)
	for i := range scripts {
		scripts[i] = alternatingFeeds(i*n/2, n) + "PING\n"
	}
	errc := make(chan error, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := range b.N {
		go func() {
			_, err := io.WriteString(cli, scripts[i])
			errc <- err
		}()
		for replies := 0; ; replies++ {
			line, err := r.ReadSlice('\n')
			if err != nil {
				b.Fatalf("after %d replies: %v", replies, err)
			}
			if string(line) == "OK pong\n" {
				if replies != n {
					b.Fatalf("%d replies before the PING's, want %d", replies, n)
				}
				break
			}
		}
		if err := <-errc; err != nil {
			b.Fatal(err)
		}
	}
	if !chaos.Poll(nil, 10*time.Second, time.Millisecond, func() bool { return q.Results() == int64(b.N*n/2) }) {
		b.Fatalf("join: %d of %d results", q.Results(), b.N*n/2)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	lines := float64(b.N * n)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/lines, "ns/line")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/lines, "allocs/line")
}
