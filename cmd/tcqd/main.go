// Command tcqd is the TelegraphCQ server daemon: it starts an engine and
// a postmaster (Fig. 4–5) and serves the line protocol documented in
// internal/server. With -demo it also creates the paper's
// ClosingStockPrices stream and feeds it from the synthetic stock
// workload, so clients can register queries immediately.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"telegraphcq/internal/chaos"
	"telegraphcq/internal/core"
	"telegraphcq/internal/metrics"
	"telegraphcq/internal/server"
	"telegraphcq/internal/workload"
)

// clk is the wall clock, reached through chaos.Clock per the repo-wide
// clockcheck discipline.
var clk = chaos.Real()

// feedInterval is the demo feeder's pause between tuples. Rates it cannot
// turn into a positive pause are refused: 0 would divide by zero inside the
// feeder goroutine, a negative rate or one past 1e9 would never sleep.
func feedInterval(rate int) (time.Duration, error) {
	if rate < 1 || rate > int(time.Second) {
		return 0, fmt.Errorf("-rate %d: want 1 to %d tuples/second", rate, int(time.Second))
	}
	return time.Second / time.Duration(rate), nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:5433", "listen address")
	httpAddr := flag.String("http", "127.0.0.1:8088", "observability HTTP address serving /metrics (Prometheus text) and /debug/pprof (empty disables)")
	eos := flag.Int("eos", 2, "execution objects (scheduler threads)")
	spool := flag.String("spool", "", "directory for stream spooling (empty = memory only)")
	traceRate := flag.Float64("trace", 0, "tuple-lineage trace sample rate in [0,1] (0 disables; traces served via the TRACE command)")
	demo := flag.Bool("demo", false, "create ClosingStockPrices and feed synthetic quotes")
	rate := flag.Int("rate", 100, "demo feed rate (tuples/second)")
	workers := flag.Int("workers", 1, "worker shards per selection class (one FROM stream; joins are sequential at any -workers; 1 = sequential)")
	batch := flag.Int("batch", 64, "engine-wide tuple batch size: ingress fan-out, each query's input drain, eddy entry and (with -workers > 1) each batch a shard routes move up to this many tuples per operation; 1 = per-tuple processing")
	introspect := flag.Bool("introspect", false, "register the tcq.* introspection streams (query engine telemetry with ordinary CQs; enables live EXPLAIN <qid> and TOP)")
	introInterval := flag.Duration("introspect-interval", 250*time.Millisecond, "telemetry sampling period for the tcq.* streams")
	flag.Parse()

	interval, err := feedInterval(*rate)
	if err != nil {
		fmt.Fprintf(flag.CommandLine.Output(), "tcqd: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	engine := core.NewEngine(core.Options{
		EOs:                *eos,
		SpoolDir:           *spool,
		TraceSampleRate:    *traceRate,
		Workers:            *workers,
		BatchSize:          *batch,
		Introspect:         *introspect,
		IntrospectInterval: *introInterval,
	})
	defer engine.Stop()

	pm, err := server.Listen(engine, *addr)
	if err != nil {
		log.Fatalf("tcqd: %v", err)
	}
	defer pm.Close()
	fmt.Printf("tcqd: listening on %s (EOs=%d workers=%d batch=%d spool=%q trace=%g introspect=%v)\n",
		pm.Addr(), *eos, *workers, *batch, *spool, *traceRate, *introspect)
	if *introspect {
		fmt.Printf("tcqd: introspection streams tcq.stats tcq.routes tcq.pool tcq.chaos (every %s)\n",
			*introInterval)
	}

	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatalf("tcqd: http: %v", err)
		}
		defer ln.Close()
		go func() {
			if err := http.Serve(ln, metrics.Handler(engine.Metrics())); err != nil {
				log.Printf("tcqd: http: %v", err)
			}
		}()
		fmt.Printf("tcqd: metrics on http://%s/metrics (pprof on /debug/pprof/)\n", ln.Addr())
	}

	if *demo {
		if err := engine.CreateStream("ClosingStockPrices", workload.StockSchema(), 0); err != nil {
			log.Fatalf("tcqd: %v", err)
		}
		fmt.Println("tcqd: demo stream ClosingStockPrices(timestamp TIME, stockSymbol STRING, closingPrice FLOAT)")
		go func() {
			gen := workload.NewStockGenerator(clk.Now().UnixNano(), nil)
			for {
				if err := engine.Feed("ClosingStockPrices", gen.Next()); err != nil {
					return
				}
				clk.Sleep(interval)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("tcqd: shutting down")
}
