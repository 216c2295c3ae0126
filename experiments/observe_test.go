package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"plus/internal/stats"
)

// TestObservationSerialParallelIdentical pins the exporter's
// determinism contract: the same sweep instrumented at -parallel 1 and
// -parallel 4 produces byte-identical event streams, because every
// point owns a private observer and exports are ordered by point name,
// not completion order.
func TestObservationSerialParallelIdentical(t *testing.T) {
	dump := func(workers int) string {
		ob := NewObservation(stats.ObserveConfig{})
		_, err := Figure21(Options{Quick: true, MaxProcs: 2, Workers: workers, Observe: ob})
		if err != nil {
			t.Fatal(err)
		}
		return ob.EventDump()
	}
	serial := dump(1)
	parallel := dump(4)
	if serial != parallel {
		t.Fatalf("serial and parallel event dumps differ (%d vs %d bytes)",
			len(serial), len(parallel))
	}
	if !strings.Contains(serial, "== figure 2-1 p=1 copies=1 contention=false") {
		t.Fatalf("event dump missing the p=1 run header:\n%.300s", serial)
	}
	if !strings.Contains(serial, "read") {
		t.Fatal("event dump recorded no read events")
	}
}

// TestObservationChromeTraceValidates runs the instrumented quick
// Figure 2-1 sweep end to end and checks the Chrome trace export
// round-trips through encoding/json with every run represented.
func TestObservationChromeTraceValidates(t *testing.T) {
	ob := NewObservation(stats.ObserveConfig{SampleEvery: 2000})
	if _, err := Figure21(Options{Quick: true, MaxProcs: 2, Workers: 2, Observe: ob}); err != nil {
		t.Fatal(err)
	}
	runs := ob.Runs()
	if len(runs) != 3 { // p=1, p=2 unreplicated, p=2 replicated
		t.Fatalf("got %d observed runs, want 3", len(runs))
	}
	data, err := stats.ChromeTrace(runs)
	if err != nil {
		t.Fatal(err)
	}
	n, err := stats.ValidateChromeTrace(data)
	if err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	if n == 0 {
		t.Fatal("empty trace")
	}
	for _, run := range runs {
		if !strings.Contains(string(data), run.Name+" node 0") {
			t.Errorf("trace missing node track for %q", run.Name)
		}
	}
	m := ob.Metrics()
	if m.RemoteRead.Count == 0 {
		t.Error("merged metrics recorded no remote reads")
	}
	if !strings.Contains(m.Render(), "remote-read") {
		t.Error("metrics render missing remote-read row")
	}
}

// TestFaultRowsCarryReliability checks the reliability-sublayer
// counters ride along in the fault sweep's JSON rows (satellite of the
// observability PR: plusbench -json exposes the full counter block).
func TestFaultRowsCarryReliability(t *testing.T) {
	rows, err := FaultSweep(Options{Quick: true, DropRates: []float64{0, 0.01}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"trans_dups", "trans_gaps", "trans_stalls", "retransmits", "transport_acks"} {
		if !strings.Contains(string(b), key) {
			t.Errorf("fault rows missing %q in JSON", key)
		}
	}
	if rows[1].Retransmits == 0 {
		t.Error("1% drop run recorded no retransmits")
	}
}
