package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestParseArgs pins plusbench's usage errors: a negative count flag
// is rejected by name, the retired self-timing and sharding flags are
// unknown, and every rejection prints the usage (main then exits 2).
// Zero and positive counts parse.
func TestParseArgs(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // stderr substring; "" = must parse
	}{
		{"max-procs", []string{"-quick", "-exp", "figure2-1", "-max-procs", "-4"}, "-max-procs must be >= 0"},
		{"parallel", []string{"-parallel", "-1"}, "-parallel must be >= 0"},
		{"sample", []string{"-quick", "-exp", "table2-1", "-sample", "-1", "-trace", "t.json"}, "-sample must be >= 0"},
		{"trace-events", []string{"-trace-events", "-8", "-hist"}, "-trace-events must be >= 0"},
		{"shards", []string{"-shards", "4"}, "not defined: -shards"},
		{"timing", []string{"-timing", "x.json"}, "not defined: -timing"},
		{"compare", []string{"-compare", "a.json", "b.json"}, "not defined: -compare"},
		{"threshold", []string{"-threshold", "0.1"}, "not defined: -threshold"},
		{"zeros", []string{"-max-procs", "0", "-parallel", "0", "-sample", "0", "-trace-events", "0"}, ""},
		{"positive", []string{"-max-procs", "4", "-parallel", "2", "-sample", "5000", "-trace-events", "1024"}, ""},
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
			if !strings.Contains(out, c.want) || !strings.Contains(out, "Usage of plusbench") {
				t.Errorf("stderr lacks %q or the usage text:\n%s", c.want, out)
			}
		})
	}
}
