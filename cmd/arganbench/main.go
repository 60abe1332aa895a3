// Command arganbench regenerates the paper's tables and figures.
//
// Usage:
//
//	arganbench -exp fig6a            # one experiment
//	arganbench -exp all              # everything, paper order
//	arganbench -exp all -full        # paper-scale stand-ins (slow)
//	arganbench -list                 # available experiment ids
//
// Extensions beyond the paper carry machine-readable results via -json,
// e.g. the memory-cap curve and the re-convergence study:
//
//	arganbench -exp memory -json BENCH_memory.json
//	arganbench -exp incremental -json BENCH_incremental.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"argan/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (table1, fig4a..c, fig5, fig6a..l) or 'all'")
	list := flag.Bool("list", false, "list experiments and exit")
	full := flag.Bool("full", false, "run at the full reduced-dataset scale (slow)")
	scale := flag.Float64("scale", 0, "override dataset scale (0 = per -full/-quick default)")
	workers := flag.String("workers", "", "comma-separated worker counts, e.g. 16,32,64,128")
	queries := flag.Int("queries", 0, "query repetitions per point (paper uses 5)")
	jsonPath := flag.String("json", "", "write machine-readable results here (-exp memory or incremental)")
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	var o bench.Options
	if *full {
		o = bench.Full(os.Stdout)
	} else {
		o = bench.Quick(os.Stdout)
	}
	if *scale > 0 {
		o.Scale = *scale
	}
	if *queries > 0 {
		o.Queries = *queries
	}
	o.JSONPath = *jsonPath
	if *workers != "" {
		o.Workers = nil
		for _, f := range strings.Split(*workers, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				fatal("bad -workers value %q", f)
			}
			o.Workers = append(o.Workers, n)
		}
	}

	if *exp == "all" {
		for _, e := range bench.All() {
			fmt.Printf("\n### %s — %s\n", e.ID, e.Title)
			if err := e.Run(o); err != nil {
				fatal("%s: %v", e.ID, err)
			}
		}
		return
	}
	e, err := bench.ByID(*exp)
	if err != nil {
		fatal("%v (try -list)", err)
	}
	if err := e.Run(o); err != nil {
		fatal("%s: %v", e.ID, err)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "arganbench: "+format+"\n", args...)
	os.Exit(1)
}
