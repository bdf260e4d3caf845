package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// TestCountingEngineTransparent runs one overlap-event step with and
// without the countingEngine around the event engine: every rank's clock
// and trace (charged and in-flight spans, marks included) must be bit
// identical. Run it under -race: group leaders call the wrapper
// concurrently.
func TestCountingEngineTransparent(t *testing.T) {
	const seed = 7
	plain, wrapped := newOverlapEvent(), newOverlapEvent()
	for _, w := range []*overlapEvent{plain, wrapped} {
		if err := w.setup(seed); err != nil {
			t.Fatal(err)
		}
	}
	eng := newCountingEngine(wrapped.engine)
	wrapped.cluster.Engine = eng
	for ti, name := range transports {
		a, err := plain.runTransport(ti, seed, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := wrapped.runTransport(ti, seed, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for r := range a {
			if a[r].Clock != b[r].Clock {
				t.Fatalf("%s rank %d: clock %v unwrapped, %v wrapped", name, r, a[r].Clock, b[r].Clock)
			}
			if !reflect.DeepEqual(a[r].Trace.Events(), b[r].Trace.Events()) {
				t.Fatalf("%s rank %d: traces differ under the wrapper", name, r)
			}
		}
	}
	c := eng.take()
	if c.Calls == 0 || c.Host <= 0 || c.InterBytes <= 0 {
		t.Fatalf("wrapper counted nothing: %+v", c)
	}
	if c.Repeats > c.Calls {
		t.Fatalf("%d repeats of %d calls", c.Repeats, c.Calls)
	}
}

// TestSweepReplayFidelity requires the traced replay of a sweep-symbolic
// step to reproduce the step's forward stages bit for bit (analyze fails
// otherwise) and to observe every layer it times.
func TestSweepReplayFidelity(t *testing.T) {
	w := newSweepSymbolic()
	w.seed = 3
	tr := newTracer()
	acc := newLayerAcc()
	if err := w.analyze(0, tr, acc); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"moe.drop_frac.pft", "rbd.redundancy_rate", "moe.pft_build_mb", "netsim.calls"} {
		if acc.sum[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, acc.sum[name])
		}
	}
	st := aggregate(tr.snapshot())
	for _, name := range []string{"simrt.run", "rank.body", "moe.routing", "moe.pft_build",
		"moe.fwd.pft", "moe.bwd.padded", "rbd.fwd", "rbd.bwd", "zero.sync"} {
		if st.count[name] == 0 {
			t.Errorf("no %q span recorded", name)
		}
	}
}

// TestSelfTime checks that self time subtracts the union of concurrent
// children, not their sum.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "rank", StartNS: 10, EndNS: 60},
		{ID: 3, Parent: 1, Name: "rank", StartNS: 40, EndNS: 80},
		{ID: 4, Parent: 2, Name: "leaf", StartNS: 20, EndNS: 30},
	}
	st := aggregate(spans)
	want := map[string]time.Duration{"run": 30, "rank": 80, "leaf": 10}
	for name, d := range want {
		if st.self[name] != d {
			t.Errorf("self[%s] = %v, want %v", name, st.self[name], d)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric names and units in step
// with the metrics the runs report.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit string }
		want []struct{ name, unit string }
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the code %d", len(c.got), len(c.want))
		}
		for i, m := range c.want {
			if c.got[i].Name != m.name || c.got[i].Unit != m.unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], code %s [%s]", i, c.got[i].Name, c.got[i].Unit, m.name, m.unit)
			}
		}
	}
}
