package main

import (
	"bytes"
	"strings"
	"testing"

	"plus/apps/beam"
	"plus/apps/prodsys"
	"plus/apps/sor"
	"plus/apps/sssp"
	"plus/apps/synth"
)

// TestParseArgs pins plussim's usage errors: an out-of-range count or
// percentage and an unknown workload or beam style are rejected by
// name with the usage text (main then exits 2), and in-range values
// parse.
func TestParseArgs(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // stderr substring; "" = must parse
	}{
		{"negative procs", []string{"-workload", "sssp", "-procs", "-4"}, "-procs must be >= 1, got -4"},
		{"zero procs", []string{"-procs", "0"}, "-procs must be >= 1, got 0"},
		{"negative mesh", []string{"-mesh-w", "-2", "-mesh-h", "2"}, "-mesh-w must be >= 0"},
		{"negative copies", []string{"-copies", "-1"}, "-copies must be >= 1"},
		{"zero vertices", []string{"-vertices", "0"}, "-vertices must be >= 2"},
		{"one vertex", []string{"-vertices", "1"}, "-vertices must be >= 2"},
		{"zero degree", []string{"-degree", "0"}, "-degree must be >= 1"},
		{"zero layers", []string{"-workload", "beam", "-layers", "0"}, "-layers must be >= 1"},
		{"negative states", []string{"-states", "-64"}, "-states must be >= 1"},
		{"zero facts", []string{"-facts", "0"}, "-facts must be >= 1"},
		{"negative rules", []string{"-rules", "-1"}, "-rules must be >= 1"},
		{"zero grid", []string{"-grid", "0"}, "-grid must be >= 1"},
		{"zero iters", []string{"-iters", "0"}, "-iters must be >= 1"},
		{"negative ops", []string{"-workload", "synth", "-ops", "-5"}, "-ops must be >= 1"},
		{"local over 100", []string{"-local", "150"}, "-local must be in 1..100, got 150"},
		{"zero writes", []string{"-writes", "0"}, "-writes must be in 1..100, got 0"},
		{"workload", []string{"-workload", "lu"}, `unknown workload "lu"`},
		{"style", []string{"-workload", "beam", "-style", "eager"}, `unknown beam style "eager"`},
		{"undefined", []string{"-shards", "2"}, "not defined: -shards"},
		{"defaults", nil, ""},
		{"in range", []string{"-workload", "synth", "-procs", "64", "-mesh-w", "8", "-mesh-h", "8",
			"-copies", "2", "-ops", "1", "-local", "100", "-writes", "1"}, ""},
		{"beam cs", []string{"-workload", "beam", "-style", "cs", "-layers", "1", "-states", "1"}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stderr bytes.Buffer
			_, err := parseArgs(c.args, &stderr)
			out := stderr.String()
			if c.want == "" {
				if err != nil {
					t.Fatalf("rejected valid flags: %v\n%s", err, out)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted %v", c.args)
			}
			if !strings.Contains(out, c.want) || !strings.Contains(out, "Usage of plussim") {
				t.Errorf("stderr lacks %q or the usage text:\n%s", c.want, out)
			}
		})
	}
}

// TestAppsRejectNegativeProcs pins the apps' own check: a negative
// Procs is an error, not a makeslice panic deep inside the run.
func TestAppsRejectNegativeProcs(t *testing.T) {
	runs := map[string]func() error{
		"sssp":    func() error { _, err := sssp.Run(sssp.Config{Procs: -4}); return err },
		"beam":    func() error { _, err := beam.Run(beam.Config{Procs: -4}); return err },
		"synth":   func() error { _, err := synth.Run(synth.Config{Procs: -4}); return err },
		"prodsys": func() error { _, err := prodsys.Run(prodsys.Config{Procs: -4}); return err },
		"sor":     func() error { _, err := sor.Run(sor.Config{Procs: -4}); return err },
	}
	for name, run := range runs {
		if err := run(); err == nil || !strings.Contains(err.Error(), "Procs -4 < 0") {
			t.Errorf("%s.Run with Procs -4: error %v, want one naming Procs -4", name, err)
		}
	}
}

// TestAppsRejectBadSizes pins the apps' checks of their other size
// fields: a value no run can use is an error from Run, not a panic in
// set-up or a meaningless result.
func TestAppsRejectBadSizes(t *testing.T) {
	cases := []struct {
		name string
		run  func() error
		want string
	}{
		{"sssp-vertices-1", func() error { _, err := sssp.Run(sssp.Config{Vertices: 1}); return err }, "Vertices 1 < 2"},
		{"sssp-vertices-neg", func() error { _, err := sssp.Run(sssp.Config{Vertices: -3}); return err }, "Vertices -3 < 2"},
		{"beam-layers", func() error { _, err := beam.Run(beam.Config{Layers: -1}); return err }, "Layers -1"},
		{"beam-states", func() error { _, err := beam.Run(beam.Config{States: -2}); return err }, "States -2"},
		{"synth-ops", func() error { _, err := synth.Run(synth.Config{OpsPerProc: -5}); return err }, "OpsPerProc -5"},
		{"synth-copies", func() error { _, err := synth.Run(synth.Config{Copies: -1}); return err }, "Copies -1"},
		{"sor-iters", func() error { _, err := sor.Run(sor.Config{Iters: -1}); return err }, "Iters -1 < 0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.run(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %v, want one naming %q", err, c.want)
			}
		})
	}
}
