// Command plusbench regenerates every table and figure of the PLUS
// paper's evaluation, plus the ablation sweeps, through the
// experiments registry.
//
// Usage:
//
//	plusbench [-exp all|ablations|<name>[,<name>...]] [-quick] [-json]
//	          [-parallel N] [-chart] [-max-procs N] [-list]
//	          [-trace FILE] [-trace-window A:B] [-trace-events N]
//	          [-sample N] [-hist]
//	plusbench -races [-json] [-trace FILE]
//
// Every experiment is a sweep of independent simulation points run on
// a worker pool of -parallel goroutines (default GOMAXPROCS), the only
// parallelism knob; stdout is byte-identical for any -parallel value
// and from run to run. -json replaces the tables with one JSON array
// of {experiment, title, points, rows} objects, equally deterministic.
// plusbench measures no wall-clock time: perfbench (BENCHMARK.json)
// is the repository's benchmark.
//
// -trace instruments every sweep point with the structured-event
// layer and writes one Chrome trace-event JSON (load it in Perfetto or
// chrome://tracing; one track group per point, one process per node
// and per link) covering all points. -trace-window A:B keeps only
// events in cycles [A, B]; -trace-events sizes the per-point event
// ring; -sample adds time-series counters every N cycles. -hist
// prints the merged latency histograms (remote reads, write acks, RMW
// round trips, per-hop queueing) and a folded stall summary.
//
// -races runs the registered race-detection corpus (experiments.
// RacePrograms) with the data-access event layer on and prints each
// program's happens-before report in name order — deterministic run
// to run. -json emits the outcomes as a JSON
// array instead; -trace additionally exports every corpus run as a
// Chrome trace with the detected races on a per-run annotation track.
// Exit status is non-zero iff any program misses its declared verdict
// (a racy program undetected, or a clean one misflagged).
//
// A negative count flag (-max-procs, -parallel, -sample,
// -trace-events) is a usage error: plusbench prints the usage and
// exits 2.
//
// Results print to stdout; EXPERIMENTS.md records a reference run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"plus/experiments"
	"plus/internal/sim"
	"plus/internal/stats"
)

// cliArgs holds plusbench's parsed command line.
type cliArgs struct {
	exp                         string
	quick, jsonOut, chart, list bool
	maxProcs, parallel          int
	traceOut, traceWindow       string
	traceEvents, sample         int
	hist, races                 bool
}

// parseArgs parses the command line. On a parse error or a negative
// count it writes the error and the usage to stderr and returns a
// non-nil error (flag.ErrHelp for -h).
func parseArgs(args []string, stderr io.Writer) (cliArgs, error) {
	var a cliArgs
	fs := flag.NewFlagSet("plusbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&a.exp, "exp", "all", "experiments to run: all, ablations, or comma-separated registry names (see -list)")
	fs.BoolVar(&a.quick, "quick", false, "shrink problem sizes for a fast run")
	fs.IntVar(&a.maxProcs, "max-procs", 0, "cap the processor sweep (0 = experiment default)")
	fs.IntVar(&a.parallel, "parallel", 0, "sweep-point worker pool size (0 = GOMAXPROCS)")
	fs.BoolVar(&a.jsonOut, "json", false, "emit rows as a JSON array instead of tables")
	fs.BoolVar(&a.chart, "chart", false, "render the figures as ASCII charts as well")
	fs.BoolVar(&a.list, "list", false, "list registered experiments and exit")
	fs.StringVar(&a.traceOut, "trace", "", "instrument every sweep point and write a Chrome trace-event JSON to this file")
	fs.StringVar(&a.traceWindow, "trace-window", "", "record only events in cycles A:B (empty = whole run)")
	fs.IntVar(&a.traceEvents, "trace-events", 0, "per-point event ring size (0 = default)")
	fs.IntVar(&a.sample, "sample", 0, "sample per-link utilization and per-node stalls every N cycles (0 = off)")
	fs.BoolVar(&a.hist, "hist", false, "print merged latency histograms and a stall summary (implies instrumentation)")
	fs.BoolVar(&a.races, "races", false, "run the race-detection corpus and print happens-before reports")
	if err := fs.Parse(args); err != nil {
		return a, err
	}
	if err := checkCounts(a); err != nil {
		fmt.Fprintf(stderr, "plusbench: %v\n", err)
		fs.Usage()
		return a, err
	}
	return a, nil
}

// checkCounts rejects negative count flags. Zero already means
// "default" or "off" for each, and a negative -sample would otherwise
// wrap to a 2^64-1 cycle interval.
func checkCounts(a cliArgs) error {
	for _, f := range []struct {
		name string
		v    int
	}{{"max-procs", a.maxProcs}, {"parallel", a.parallel}, {"sample", a.sample}, {"trace-events", a.traceEvents}} {
		if f.v < 0 {
			return fmt.Errorf("-%s must be >= 0, got %d", f.name, f.v)
		}
	}
	return nil
}

func main() {
	a, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}

	if a.races {
		runRaces(a.jsonOut, a.traceOut)
		return
	}

	if a.list {
		for _, e := range experiments.Registered() {
			fmt.Printf("%-24s %s\n", e.Name, e.Title)
		}
		return
	}

	sel, err := experiments.Select(a.exp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "plusbench: %v\n", err)
		os.Exit(2)
	}
	opts := experiments.Options{Quick: a.quick, MaxProcs: a.maxProcs, Workers: a.parallel}
	if a.traceOut != "" || a.hist {
		ocfg := stats.ObserveConfig{
			Events:      a.traceEvents,
			SampleEvery: sim.Cycles(a.sample),
		}
		if a.traceWindow != "" {
			lo, hi, err := parseWindow(a.traceWindow)
			if err != nil {
				fmt.Fprintf(os.Stderr, "plusbench: -trace-window: %v\n", err)
				os.Exit(2)
			}
			ocfg.WindowStart, ocfg.WindowEnd = lo, hi
		}
		opts.Observe = experiments.NewObservation(ocfg)
	}

	var results []*experiments.Result
	for _, e := range sel {
		res, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "plusbench: %v\n", err)
			os.Exit(1)
		}
		if a.jsonOut {
			results = append(results, res)
			continue
		}
		fmt.Println(res.Table)
		if a.chart && res.Chart != "" {
			fmt.Println(res.Chart)
		}
	}

	if a.jsonOut {
		enc, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "plusbench: marshal: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(enc))
	}
	if opts.Observe != nil {
		writeObservation(opts.Observe, a.traceOut, a.hist)
	}
}

// writeObservation exports the instrumented sweep: the Chrome trace
// JSON (validated to round-trip through encoding/json before it is
// written) and, with -hist, the merged latency histograms plus the
// folded stall summary on stdout.
func writeObservation(ob *experiments.Observation, traceOut string, hist bool) {
	runs := ob.Runs()
	if traceOut != "" {
		data, err := stats.ChromeTrace(runs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "plusbench: trace export: %v\n", err)
			os.Exit(1)
		}
		n, err := stats.ValidateChromeTrace(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "plusbench: trace validation: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(traceOut, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "plusbench: write trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "plusbench: %d trace event(s) from %d run(s) -> %s\n",
			n, len(runs), traceOut)
	}
	if hist {
		m := ob.Metrics()
		fmt.Println(m.Render())
		fmt.Println(stats.StallSummary(runs))
	}
}

// runRaces implements -races: run the corpus, render each report (or
// the JSON outcome array), optionally export annotated traces, and
// exit non-zero when any program misses its declared verdict.
func runRaces(jsonOut bool, traceOut string) {
	outcomes, ok, err := experiments.RunRaceCorpus()
	if err != nil {
		fmt.Fprintf(os.Stderr, "plusbench: races: %v\n", err)
		os.Exit(1)
	}
	if jsonOut {
		enc, err := json.MarshalIndent(outcomes, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "plusbench: marshal races: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(enc))
	} else {
		for _, o := range outcomes {
			verdict := "PASS"
			if !o.Pass {
				verdict = "FAIL"
			}
			fmt.Printf("[%s] expected %s\n%s", verdict, o.Expect, o.Report.Format())
		}
	}
	if traceOut != "" {
		runs := make([]stats.ObservedRun, 0, len(outcomes))
		for _, o := range outcomes {
			runs = append(runs, o.Trace)
		}
		data, err := stats.ChromeTrace(runs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "plusbench: trace export: %v\n", err)
			os.Exit(1)
		}
		n, err := stats.ValidateChromeTrace(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "plusbench: trace validation: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(traceOut, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "plusbench: write trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "plusbench: %d trace event(s) from %d run(s) -> %s\n",
			n, len(runs), traceOut)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "plusbench: race corpus verdict mismatch")
		os.Exit(1)
	}
}

// parseWindow parses "A:B" cycle bounds; either side may be empty
// (A defaults to 0, B to the end of the run).
func parseWindow(s string) (sim.Cycles, sim.Cycles, error) {
	lo, hi, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("want A:B, got %q", s)
	}
	var a, b uint64
	var err error
	if lo != "" {
		if a, err = strconv.ParseUint(lo, 10, 64); err != nil {
			return 0, 0, err
		}
	}
	if hi != "" {
		if b, err = strconv.ParseUint(hi, 10, 64); err != nil {
			return 0, 0, err
		}
	}
	if b != 0 && b < a {
		return 0, 0, fmt.Errorf("window end %d before start %d", b, a)
	}
	return sim.Cycles(a), sim.Cycles(b), nil
}
