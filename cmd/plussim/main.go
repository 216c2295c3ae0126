// Command plussim runs one workload on a simulated PLUS machine and
// prints timing and traffic statistics.
//
// Usage:
//
//	plussim -workload sssp    [-procs 16] [-copies 3] [-vertices 1024]
//	plussim -workload beam    [-procs 16] [-style delayed|blocking|cs] [-switch-cost 40]
//	plussim -workload prodsys [-procs 8]  [-facts 1024] [-rules 2048]
//	plussim -workload synth   [-procs 8]  [-local 70] [-writes 30]
//
// Every run is deterministic for a given -seed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"plus/apps/beam"
	"plus/apps/prodsys"
	"plus/apps/sor"
	"plus/apps/sssp"
	"plus/apps/synth"
	"plus/internal/sim"
)

// cliArgs holds plussim's parsed command line.
type cliArgs struct {
	workload, style           string
	procs, meshW, meshH       int
	seed                      int64
	copies                    int
	validate, stats, halos    bool
	vertices, degree          int
	layers, states            int
	switchCost, beamWidth     uint64
	facts, rules, grid, iters int
	ops, local, wfrac         int
}

// parseArgs parses the command line. On a parse error or an
// out-of-range value it writes the error and the usage to stderr and
// returns a non-nil error (flag.ErrHelp for -h).
func parseArgs(args []string, stderr io.Writer) (cliArgs, error) {
	var a cliArgs
	fs := flag.NewFlagSet("plussim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&a.workload, "workload", "sssp", "sssp, beam, prodsys, sor or synth")
	fs.IntVar(&a.procs, "procs", 16, "participating processors")
	fs.IntVar(&a.meshW, "mesh-w", 0, "mesh width (default: fits procs)")
	fs.IntVar(&a.meshH, "mesh-h", 0, "mesh height")
	fs.Int64Var(&a.seed, "seed", 42, "deterministic seed")
	fs.IntVar(&a.copies, "copies", 1, "replication level for shared data")
	fs.BoolVar(&a.validate, "validate", true, "check against the sequential reference")
	fs.BoolVar(&a.stats, "stats", false, "print the per-node counter report")

	fs.IntVar(&a.vertices, "vertices", 1024, "sssp: graph vertices")
	fs.IntVar(&a.degree, "degree", 4, "sssp: average out-degree")

	fs.IntVar(&a.layers, "layers", 24, "beam: HMM layers")
	fs.IntVar(&a.states, "states", 64, "beam: states per layer")
	fs.StringVar(&a.style, "style", "delayed", "beam: blocking, delayed or cs")
	fs.Uint64Var(&a.switchCost, "switch-cost", 40, "beam: context-switch cost for -style cs")
	fs.Uint64Var(&a.beamWidth, "beam", 0, "beam: pruning width (0 = exact search)")

	fs.IntVar(&a.facts, "facts", 1024, "prodsys: working-memory size")
	fs.IntVar(&a.rules, "rules", 2048, "prodsys: rule count")

	fs.IntVar(&a.grid, "grid", 64, "sor: grid side")
	fs.IntVar(&a.iters, "iters", 4, "sor: red+black sweeps")
	fs.BoolVar(&a.halos, "halos", true, "sor: replicate boundary pages")

	fs.IntVar(&a.ops, "ops", 500, "synth: references per processor")
	fs.IntVar(&a.local, "local", 70, "synth: % local references")
	fs.IntVar(&a.wfrac, "writes", 30, "synth: % writes")
	if err := fs.Parse(args); err != nil {
		return a, err
	}
	if err := checkArgs(a); err != nil {
		fmt.Fprintf(stderr, "plussim: %v\n", err)
		fs.Usage()
		return a, err
	}
	return a, nil
}

// checkArgs rejects values no run can honour. The apps read a zero
// count or percentage as "use my default", so a zero here would run
// something other than what the report line prints; plussim's flags
// carry explicit defaults instead, and zero is refused.
func checkArgs(a cliArgs) error {
	switch a.workload {
	case "sssp", "beam", "prodsys", "sor", "synth":
	default:
		return fmt.Errorf("unknown workload %q", a.workload)
	}
	switch a.style {
	case "blocking", "delayed", "cs":
	default:
		return fmt.Errorf("unknown beam style %q", a.style)
	}
	for _, f := range []struct {
		name     string
		v        int
		min, max int
	}{
		{"procs", a.procs, 1, math.MaxInt},
		{"mesh-w", a.meshW, 0, math.MaxInt},
		{"mesh-h", a.meshH, 0, math.MaxInt},
		{"copies", a.copies, 1, math.MaxInt},
		{"vertices", a.vertices, 2, math.MaxInt},
		{"degree", a.degree, 1, math.MaxInt},
		{"layers", a.layers, 1, math.MaxInt},
		{"states", a.states, 1, math.MaxInt},
		{"facts", a.facts, 1, math.MaxInt},
		{"rules", a.rules, 1, math.MaxInt},
		{"grid", a.grid, 1, math.MaxInt},
		{"iters", a.iters, 1, math.MaxInt},
		{"ops", a.ops, 1, math.MaxInt},
		{"local", a.local, 1, 100},
		{"writes", a.wfrac, 1, 100},
	} {
		switch {
		case f.v >= f.min && f.v <= f.max:
		case f.max == math.MaxInt:
			return fmt.Errorf("-%s must be >= %d, got %d", f.name, f.min, f.v)
		default:
			return fmt.Errorf("-%s must be in %d..%d, got %d", f.name, f.min, f.max, f.v)
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

	w, h := a.meshW, a.meshH
	if w == 0 || h == 0 {
		w, h = meshFor(a.procs)
	}

	switch a.workload {
	case "sssp":
		res, err := sssp.Run(sssp.Config{
			MeshW: w, MeshH: h, Procs: a.procs,
			Vertices: a.vertices, Degree: a.degree, Seed: a.seed,
			Copies: a.copies, Validate: a.validate,
		})
		fail(err)
		fmt.Printf("sssp: %d procs, %d vertices, %d copies\n", a.procs, a.vertices, a.copies)
		fmt.Printf("  elapsed      %d cycles (%.2f ms at 25 MHz)\n", res.Elapsed, ms(res.Elapsed))
		fmt.Printf("  utilization  %.3f\n", res.Utilization)
		fmt.Printf("  relaxations  %d\n", res.Relaxations)
		fmt.Printf("  reads  L/R   %.2f\n", res.ReadRatio)
		fmt.Printf("  writes L/R   %.2f\n", res.WriteRatio)
		fmt.Printf("  messages     %d (%d updates, total/update %.2f)\n", res.Messages, res.Updates, res.UpdateRatio)
		if a.stats {
			fmt.Print("\n", res.Report)
		}
	case "beam":
		st := beam.Delayed
		var cost sim.Cycles
		switch a.style {
		case "blocking":
			st = beam.Blocking
		case "delayed":
			st = beam.Delayed
		case "cs":
			st = beam.ContextSwitch
			cost = sim.Cycles(a.switchCost)
		}
		validateBeam := a.validate && a.beamWidth == 0 // pruning is approximate
		res, err := beam.Run(beam.Config{
			MeshW: w, MeshH: h, Procs: a.procs,
			Layers: a.layers, States: a.states, Branch: 3,
			Style: st, SwitchCost: cost, Beam: uint32(a.beamWidth),
			Validate: validateBeam,
		})
		fail(err)
		fmt.Printf("beam: %d procs, %dx%d lattice, style %s\n", a.procs, a.layers, a.states, st)
		fmt.Printf("  elapsed      %d cycles (%.2f ms at 25 MHz)\n", res.Elapsed, ms(res.Elapsed))
		fmt.Printf("  utilization  %.3f\n", res.Utilization)
		fmt.Printf("  processed    %d vertices (%d pruned)\n", res.Processed, res.Pruned)
		if a.stats {
			fmt.Print("\n", res.Report)
		}
	case "prodsys":
		res, err := prodsys.Run(prodsys.Config{
			MeshW: w, MeshH: h, Procs: a.procs,
			Facts: a.facts, Rules: a.rules, Seed: a.seed,
			Copies: a.copies, Validate: a.validate,
		})
		fail(err)
		fmt.Printf("prodsys: %d procs, %d facts, %d rules\n", a.procs, a.facts, a.rules)
		fmt.Printf("  elapsed      %d cycles (%.2f ms at 25 MHz)\n", res.Elapsed, ms(res.Elapsed))
		fmt.Printf("  utilization  %.3f\n", res.Utilization)
		fmt.Printf("  fired        %d rules, %d facts derived\n", res.Fired, res.Derived)
		if a.stats {
			fmt.Print("\n", res.Report)
		}
	case "sor":
		res, err := sor.Run(sor.Config{
			MeshW: w, MeshH: h, Procs: a.procs,
			N: a.grid, Iters: a.iters,
			ReplicateBoundaries: a.halos, Validate: a.validate,
		})
		fail(err)
		fmt.Printf("sor: %d procs, %dx%d grid, %d sweeps, halos=%v\n", a.procs, a.grid, a.grid, a.iters, a.halos)
		fmt.Printf("  elapsed      %d cycles (%.2f ms at 25 MHz)\n", res.Elapsed, ms(res.Elapsed))
		fmt.Printf("  utilization  %.3f\n", res.Utilization)
		fmt.Printf("  updates      %d stencil applications\n", res.Updates)
		if a.stats {
			fmt.Print("\n", res.Report)
		}
	case "synth":
		res, err := synth.Run(synth.Config{
			MeshW: w, MeshH: h, Procs: a.procs,
			OpsPerProc: a.ops, LocalFrac: a.local, WriteFrac: a.wfrac, Seed: a.seed,
			Copies: a.copies,
		})
		fail(err)
		fmt.Printf("synth: %d procs, %d ops each, %d%% local, %d%% writes\n", a.procs, a.ops, a.local, a.wfrac)
		fmt.Printf("  elapsed      %d cycles (%.2f ms at 25 MHz)\n", res.Elapsed, ms(res.Elapsed))
		fmt.Printf("  utilization  %.3f\n", res.Utilization)
		fmt.Printf("  throughput   %.4f refs/cycle\n", res.Throughput)
		fmt.Printf("  messages     %d (%d updates)\n", res.Messages, res.Updates)
		if a.stats {
			fmt.Print("\n", res.Report)
		}
	}
}

func ms(c sim.Cycles) float64 { return float64(c) * 40 / 1e6 }

func meshFor(p int) (int, int) {
	switch {
	case p <= 1:
		return 1, 1
	case p <= 2:
		return 2, 1
	case p <= 4:
		return 2, 2
	case p <= 8:
		return 4, 2
	case p <= 16:
		return 4, 4
	case p <= 32:
		return 8, 4
	default:
		return 8, 8
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "plussim:", err)
		os.Exit(1)
	}
}
