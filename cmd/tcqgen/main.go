// Command tcqgen writes synthetic workload streams as CSV, one row a
// line, suitable for feeding a TelegraphCQ server via the FEED command or
// an embedded engine via DB.FeedCSV.
//
// Usage:
//
//	tcqgen -kind stocks  -n 10000 > stocks.csv
//	tcqgen -kind packets -n 10000 -zipf 1.0 > packets.csv
//	tcqgen -kind sensors -n 10000 -sensors 8 > readings.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"telegraphcq/internal/ingress"
	"telegraphcq/internal/workload"
)

func main() {
	kind := flag.String("kind", "stocks", "workload: stocks | packets | sensors | drift")
	n := flag.Int("n", 10000, "number of tuples")
	seed := flag.Int64("seed", 1, "random seed")
	zipf := flag.Float64("zipf", 0, "packets: host skew parameter (0 = uniform)")
	hosts := flag.Int("hosts", 1000, "packets: host count")
	sensors := flag.Int("sensors", 8, "sensors: sensor count")
	period := flag.Int64("period", 1000, "drift: phase length in tuples")
	flag.Parse()

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()

	emit := func(csv string) { fmt.Fprintln(w, csv) }

	switch *kind {
	case "stocks":
		gen := workload.NewStockGenerator(*seed, nil)
		for i := 0; i < *n; i++ {
			emit(ingress.FormatCSV(gen.Next()))
		}
	case "packets":
		gen := workload.NewPacketGenerator(*seed, *hosts, *zipf)
		for i := 0; i < *n; i++ {
			emit(ingress.FormatCSV(gen.Next()))
		}
	case "sensors":
		gen := workload.NewSensorGenerator(*seed, *sensors, 1)
		count := 0
		for count < *n {
			for _, t := range gen.Tick() {
				if count >= *n {
					break
				}
				emit(ingress.FormatCSV(t))
				count++
			}
		}
	case "drift":
		gen := workload.NewDriftGenerator(*seed, *period)
		for i := 0; i < *n; i++ {
			emit(ingress.FormatCSV(gen.Next()))
		}
	default:
		fmt.Fprintf(os.Stderr, "tcqgen: unknown kind %q\n", *kind)
		os.Exit(2)
	}
}
